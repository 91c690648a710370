"""Exact one-generator Grassmann arithmetic and Grassmann-valued kets.

A scalar is ``body + soul * theta`` with complex coefficients and
``theta^2 = 0`` built into the product rule, so nilpotency is structural
rather than numerical. Grassmann scalars commute with complex matrix
entries. The eigenvector check needs no numpy: the eigenket of ``sigma_-``
lives on levels 0 and 1, so it runs on pair block 0 of ``sigma_-`` alone, from
:mod:`bosepauli.blocks`, and never loads the identity catalog in
:mod:`bosepauli.pauli`. The dense ket ``GrassmannKet``, whose amplitudes are
the pair of complex coefficient vectors (body, soul), lives in
:mod:`bosepauli.dense`.
"""

from __future__ import annotations

import cmath
from numbers import Number

from . import _lazy, blocks  # block 0 is looked up when called, as the catalog's blocks are
from .fock import FockSpace

# two dense helpers under their old names, resolved on first use (PEP 562);
# kept only because the site table of perfbench/tracing.py looks them up here
__getattr__ = _lazy(globals(), ("apply_operator", "fock_ket"))


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


def _eigenket_amplitudes(xi: GrassmannScalar) -> tuple[GrassmannScalar, GrassmannScalar]:
    """Amplitudes of ``|xi> = |0> + xi |1>`` on levels 0 and 1; every other one is zero."""
    if not isinstance(xi, GrassmannScalar):
        raise ValueError(f"xi must be a GrassmannScalar, got {xi!r}")
    if xi.body != 0:
        raise ValueError("a sigma_- eigenvalue must have zero body (a pure Grassmann number)")
    if not cmath.isfinite(xi.soul):
        raise ValueError(f"a sigma_- eigenvalue must have a finite soul, got {xi.soul!r}")
    return GrassmannScalar(1.0 + 0j), xi


def eigen_check(space: FockSpace, l: int, xi: GrassmannScalar) -> tuple[float, float]:
    """Residuals of the eigenvalue relation and of double lowering.

    Returns ``(eigenvalue_residual, nilpotency_residual)``: the max
    coefficient modulus of ``sigma_-|xi> - xi|xi>`` and of
    ``sigma_-(sigma_-|xi>)``, read off pair block 0, which holds the whole
    ket. Both are exactly zero: the block has exact ``{0, 1}`` entries and
    the Grassmann product drops ``xi^2`` identically. An ``xi`` that is not a
    ``GrassmannScalar``, a plain number included, is a ``ValueError`` naming ``xi``.
    """
    blocks.BosonizationParams(l, space)  # rejects a bad (l, dim)
    block = blocks._Block(*blocks._lowering_block(0, l))
    level_zero, level_one = _eigenket_amplitudes(xi)
    ket = blocks._Block(level_zero, 0, level_one, 0)  # the two amplitudes as a column
    lowered = block @ ket
    return (lowered - xi * ket).max_abs(), (block @ lowered).max_abs()
