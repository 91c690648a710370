"""Exact one-generator Grassmann arithmetic and Grassmann-valued kets.

A scalar is ``body + soul * theta`` with complex coefficients and
``theta^2 = 0`` built into the product rule, so nilpotency is structural
rather than numerical. Grassmann scalars commute with complex matrix
entries; a ket with Grassmann amplitudes is stored as the pair of complex
coefficient vectors (body, soul).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .fock import FockSpace, fock_ket, max_abs_norm
from .pauli import BosonizationParams, sigma_minus


def _coerce(value):
    if isinstance(value, GrassmannScalar):
        return value
    if isinstance(value, Number):
        return GrassmannScalar(complex(value), 0j)
    return None


@dataclass(frozen=True)
class GrassmannScalar:
    """Element ``body + soul * theta`` of the one-generator algebra."""

    body: complex = 0j
    soul: complex = 0j

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


THETA = GrassmannScalar(0j, 1.0 + 0j)


@dataclass(frozen=True)
class GrassmannKet:
    """Ket with Grassmann amplitudes ``body[n] + soul[n] * theta``."""

    space: FockSpace
    body: np.ndarray
    soul: np.ndarray

    def __post_init__(self):
        for part in (self.body, self.soul):
            if part.shape != (self.space.dim,):
                raise ValueError(f"amplitude vector has shape {part.shape}, expected ({self.space.dim},)")
            if not np.all(np.isfinite(part.real) & np.isfinite(part.imag)):
                raise ValueError("Grassmann ket amplitudes must be finite")

    def amplitude(self, n: int) -> GrassmannScalar:
        return GrassmannScalar(complex(self.body[n]), complex(self.soul[n]))


def apply_operator(op: np.ndarray, ket: GrassmannKet) -> GrassmannKet:
    """Act with a complex matrix; matrix entries commute with theta."""
    if op.shape != (ket.space.dim, ket.space.dim):
        raise ValueError(f"operator shape {op.shape} does not match dim {ket.space.dim}")
    return GrassmannKet(ket.space, op @ ket.body, op @ ket.soul)


def grassmann_scale(scalar: GrassmannScalar, ket: GrassmannKet) -> GrassmannKet:
    """Componentwise product ``scalar * ket``."""
    return GrassmannKet(
        ket.space,
        scalar.body * ket.body,
        scalar.body * ket.soul + scalar.soul * ket.body,
    )


def max_abs_amplitude(ket: GrassmannKet) -> float:
    """Largest modulus over both coefficient vectors."""
    return float(max(np.max(np.abs(ket.body)), np.max(np.abs(ket.soul))))


def sigma_minus_eigenket(space: FockSpace, xi: GrassmannScalar) -> GrassmannKet:
    """Eigenket ``|xi> = |0> + xi |1>`` of ``sigma_-`` with eigenvalue ``xi``.

    The generating exponential terminates at first order because
    ``xi^2 = 0``, and the level-1 coefficient equals 1 for every exponent
    ``l``, so the state does not depend on the representation chosen.
    Requires a pure Grassmann ``xi`` (zero body).
    """
    if xi.body != 0:
        raise ValueError("a sigma_- eigenvalue must have zero body (a pure Grassmann number)")
    body = fock_ket(space, 0)
    soul = xi.soul * fock_ket(space, 1)
    return GrassmannKet(space, body, soul)


def eigen_check(space: FockSpace, l: int, xi: GrassmannScalar) -> tuple[float, float]:
    """Residuals of the eigenvalue relation and of double lowering.

    Returns ``(eigenvalue_residual, nilpotency_residual)``: the max
    coefficient modulus of ``sigma_-|xi> - xi|xi>`` and of
    ``sigma_-(sigma_-|xi>)``. Both are exactly zero: the matrix has exact
    ``{0, +-1}`` entries and the Grassmann product drops ``xi^2`` identically.
    """
    op = sigma_minus(BosonizationParams(l, space))
    ket = sigma_minus_eigenket(space, xi)
    lowered = apply_operator(op, ket)
    expected = grassmann_scale(xi, ket)
    eigenvalue_residual = max(
        max_abs_norm(lowered.body - expected.body), max_abs_norm(lowered.soul - expected.soul)
    )
    nilpotency_residual = max_abs_amplitude(apply_operator(op, lowered))
    return eigenvalue_residual, nilpotency_residual
