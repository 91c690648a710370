"""Exact one-generator Grassmann arithmetic and Grassmann-valued kets.

A scalar is ``body + soul * theta`` with complex coefficients and
``theta^2 = 0`` built into the product rule, so nilpotency is structural
rather than numerical. Grassmann scalars commute with complex matrix
entries; a ket with Grassmann amplitudes is stored as the pair of complex
coefficient vectors (body, soul). The eigenvector check needs no numpy: the
eigenket of ``sigma_-`` lives on levels 0 and 1, so it runs on pair block 0 of
``sigma_-`` alone, from :mod:`bosepauli.blocks`, and never loads the identity
catalog in :mod:`bosepauli.pauli`.
"""

from __future__ import annotations

import cmath
from numbers import Number
from typing import TYPE_CHECKING

from . import blocks  # block 0 is looked up when called, as the catalog's blocks are
from .fock import FockSpace, fock_ket

if TYPE_CHECKING:
    import numpy as np


def _coerce(value):
    if isinstance(value, GrassmannScalar):
        return value
    if isinstance(value, Number):
        return GrassmannScalar(complex(value), 0j)
    return None


class _Value:
    """Immutable fields in ``__slots__``, compared, hashed and shown by value.
    Not a tuple: numpy would broadcast over one instead of calling its
    arithmetic."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GrassmannScalar(_Value):
    """Element ``body + soul * theta`` of the one-generator algebra."""

    __slots__ = ("body", "soul")

    def __init__(self, body: complex = 0j, soul: complex = 0j):
        super().__init__(body, soul)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GrassmannScalar(self.body + other.body, self.soul + other.soul)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannScalar(-self.body, -self.soul)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # theta^2 has no representation: the soul*soul term is dropped identically.
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GrassmannScalar(
            self.body * other.body,
            self.body * other.soul + self.soul * other.body,
        )

    __rmul__ = __mul__

    def __abs__(self) -> float:  # the largest coefficient modulus
        return max(abs(self.body), abs(self.soul))


THETA = GrassmannScalar(0j, 1.0 + 0j)


class GrassmannKet(_Value):
    """Ket with Grassmann amplitudes ``body[n] + soul[n] * theta``."""

    __slots__ = ("space", "body", "soul")

    def __init__(self, space: FockSpace, body: np.ndarray, soul: np.ndarray):
        import numpy as np

        for name, part in (("body", body), ("soul", soul)):
            if part.shape != (space.dim,):
                raise ValueError(f"{name} amplitude vector has shape {part.shape}, expected ({space.dim},)")
            if not np.all(np.isfinite(part.real) & np.isfinite(part.imag)):
                raise ValueError(f"Grassmann ket {name} amplitudes must be finite")
        super().__init__(space, body, soul)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np

        return self.space == other.space and np.array_equal(self.body, other.body) and np.array_equal(self.soul, other.soul)

    __hash__ = None  # numpy arrays have no hash

    def amplitude(self, n: int) -> GrassmannScalar:
        return GrassmannScalar(complex(self.body[n]), complex(self.soul[n]))


def apply_operator(op: np.ndarray, ket: GrassmannKet) -> GrassmannKet:
    """Act with a complex matrix; matrix entries commute with theta."""
    if op.shape != (ket.space.dim, ket.space.dim):
        raise ValueError(f"operator shape {op.shape} does not match dim {ket.space.dim}")
    return GrassmannKet(ket.space, op @ ket.body, op @ ket.soul)


def max_abs_amplitude(ket: GrassmannKet) -> float:
    """Largest modulus over both coefficient vectors."""
    import numpy as np

    return float(max(np.max(np.abs(ket.body)), np.max(np.abs(ket.soul))))


def _eigenket_amplitudes(xi: GrassmannScalar) -> tuple[GrassmannScalar, GrassmannScalar]:
    """Amplitudes of ``|xi> = |0> + xi |1>`` on levels 0 and 1; every other one is zero."""
    if xi.body != 0:
        raise ValueError("a sigma_- eigenvalue must have zero body (a pure Grassmann number)")
    if not cmath.isfinite(xi.soul):
        raise ValueError(f"a sigma_- eigenvalue must have a finite soul, got {xi.soul!r}")
    return GrassmannScalar(1.0 + 0j), xi


def sigma_minus_eigenket(space: FockSpace, xi: GrassmannScalar) -> GrassmannKet:
    """Eigenket ``|xi> = |0> + xi |1>`` of ``sigma_-`` with eigenvalue ``xi``.

    The generating exponential terminates at first order because
    ``xi^2 = 0``, and the level-1 coefficient equals 1 for every exponent
    ``l``, so the state does not depend on the representation chosen.
    Requires a pure Grassmann ``xi`` (zero body).
    """
    level_zero, level_one = _eigenket_amplitudes(xi)
    body = level_zero.body * fock_ket(space, 0) + level_one.body * fock_ket(space, 1)
    soul = level_zero.soul * fock_ket(space, 0) + level_one.soul * fock_ket(space, 1)
    return GrassmannKet(space, body, soul)


def eigen_check(space: FockSpace, l: int, xi: GrassmannScalar) -> tuple[float, float]:
    """Residuals of the eigenvalue relation and of double lowering.

    Returns ``(eigenvalue_residual, nilpotency_residual)``: the max
    coefficient modulus of ``sigma_-|xi> - xi|xi>`` and of
    ``sigma_-(sigma_-|xi>)``, read off pair block 0, which holds the whole
    ket. Both are exactly zero: the block has exact ``{0, 1}`` entries and
    the Grassmann product drops ``xi^2`` identically.
    """
    blocks.BosonizationParams(l, space)  # rejects a bad (l, dim)
    block = blocks._Block(*blocks._lowering_block(0, l))
    level_zero, level_one = _eigenket_amplitudes(xi)
    ket = blocks._Block(level_zero, 0, level_one, 0)  # the two amplitudes as a column
    lowered = block @ ket
    return (lowered - xi * ket).max_abs(), (block @ lowered).max_abs()
