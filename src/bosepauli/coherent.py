"""Coherent states, even/odd cat states, resolutions of identity by
quadrature over the complex plane, and nonlinear (f-deformed) coherent
states on the truncated space.

The even and odd kets keep the plain coherent prefactor ``exp(-|z|^2/2)``
and are therefore not unit vectors (``<z|z>_e = exp(-|z|^2) cosh|z|^2``).
That normalization is what makes the ``d^2z / pi`` resolutions reproduce the
parity projectors exactly; renormalizing the cat states would break them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .fock import FockSpace, annihilator, creator, max_abs_norm
from .pauli import parity_projectors

RESOLUTION_VARIANTS = ("even-plain", "odd-plain", "even-phased", "odd-phased")


def _coherent_amplitudes(dim: int, z: complex, prefactor: bool = True) -> np.ndarray:
    amps = np.zeros(dim, dtype=complex)
    amp = complex(math.exp(-(abs(z) ** 2) / 2.0)) if prefactor else 1.0 + 0j
    for n in range(dim):
        amps[n] = amp
        amp = amp * z / math.sqrt(n + 1)
    return amps


def coherent_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Truncated coherent state, component ``n = exp(-|z|^2/2) z^n / sqrt(n!)``."""
    return _coherent_amplitudes(space.dim, complex(z))


def even_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Even cat ket: the even-level half of :func:`coherent_ket`.

    Component ``2n = exp(-|z|^2/2) z^(2n) / sqrt((2n)!)``, odd components
    exactly zero. ``even_ket(z) + odd_ket(z)`` recovers ``coherent_ket(z)``
    componentwise.
    """
    amps = _coherent_amplitudes(space.dim, complex(z))
    amps[1::2] = 0.0
    return amps


def odd_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Odd cat ket: the odd-level half of :func:`coherent_ket`."""
    amps = _coherent_amplitudes(space.dim, complex(z))
    amps[0::2] = 0.0
    return amps


def _quarter_turns(dim: int) -> np.ndarray:
    """``i^m`` on level ``m``: the phase the ``z -> iz`` substitution puts on ``z^m``."""
    return np.array([(1.0 + 0j, 1j, -1.0 + 0j, -1j)[m % 4] for m in range(dim)])


def phase_relation_residual(space: FockSpace, z: complex) -> float:
    """Mismatch between the parity-phase-flipped cat states at ``z`` and the
    cat states at ``iz``, in max component modulus.

    The flip multiplies level ``m`` by ``i^m``: ``(-1)^n`` on even support,
    since ``(iz)^(2n) = (-1)^n z^(2n)``, and on odd support also the global
    factor ``i`` the substitution leaves (``(iz)^(2n+1) = i (-1)^n z^(2n+1)``).
    """
    z = complex(z)
    phases = _quarter_turns(space.dim)
    res_even = max_abs_norm(phases * even_ket(space, z) - even_ket(space, 1j * z))
    res_odd = max_abs_norm(phases * odd_ket(space, z) - odd_ket(space, 1j * z))
    return max(res_even, res_odd)


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Laguerre rule in ``t = r^2`` crossed with uniform angles.

    Realizes ``(1/pi) * integral d^2z`` as ``(1/M) sum_j sum_k w_k`` applied
    to the integrand with its Gaussian factor ``exp(-t)`` stripped: that
    factor is the Laguerre weight. The radial rule of ``K`` nodes is exact
    for polynomials in ``t`` up to degree ``2K - 1``; ``M`` uniform angles
    integrate ``exp(i k theta)`` exactly for ``|k| < M``.
    """

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int

    def resolves(self, dim: int) -> bool:
        """True when the rule is exact for the ``dim``-level resolution integrands."""
        k = len(self.radial_nodes)
        return 2 * k - 1 >= dim - 2 and self.angular_count > 2 * (dim - 2)


def quadrature_grid(radial_count: int, angular_count: int) -> QuadratureGrid:
    """Build a :class:`QuadratureGrid` with ``radial_count`` Laguerre nodes
    and ``angular_count`` uniform angles."""
    if radial_count < 1 or angular_count < 1:
        raise ValueError("quadrature grid needs at least one radial node and one angle")
    # laggauss weights overflow to NaN from about 187 nodes on: reject, never return NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, weights = laggauss(radial_count)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise ValueError(f"radial_count={radial_count} gives non-finite Gauss-Laguerre nodes or weights")
    return QuadratureGrid(nodes, weights, angular_count)


def _bare_parity_ket(dim: int, z: complex, parity: int) -> np.ndarray:
    # Cat-state amplitudes without the exp(-|z|^2/2) prefactor; the Gaussian
    # of |u><v| lives in the Laguerre weights instead.
    amps = _coherent_amplitudes(dim, z, prefactor=False)
    amps[1 - parity::2] = 0.0
    return amps


def _resolution_target(space: FockSpace, parity: int, phased: bool) -> np.ndarray:
    projector = parity_projectors(space)[parity]
    if not phased:
        return projector
    # The iz substitution puts i^m on level m; on even support that is
    # (-1)^(m/2), on odd support i*(-1)^((m-1)/2).
    return _quarter_turns(space.dim)[:, None] * projector


def resolution_residual(space: FockSpace, variant: str, grid: QuadratureGrid) -> float:
    """Quadrature defect of a cat-state resolution of identity.

    Accumulates ``Q = integral |u(z)><v(z)| d^2z/pi`` over the grid, where
    ``(u, v)`` is ``(even, even)``, ``(odd, odd)``, ``(even at iz, even at
    z)`` or ``(odd at iz, odd at z)``, and returns the max entrywise
    deviation of ``Q`` from its closed form: the parity projector for the
    plain variants, the projector with the ``i^m`` phases of the ``iz``
    substitution for the phased ones.

    An under-resolved grid (see :meth:`QuadratureGrid.resolves`) is not an
    error; the defect is simply large.
    """
    if variant not in RESOLUTION_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {RESOLUTION_VARIANTS}")
    parity = 0 if variant.startswith("even") else 1
    phased = variant.endswith("phased")

    dim = space.dim
    accumulated = np.zeros((dim, dim), dtype=complex)
    for t_node, weight in zip(grid.radial_nodes, grid.radial_weights):
        radius = math.sqrt(t_node)
        for j in range(grid.angular_count):
            z = radius * np.exp(2j * math.pi * j / grid.angular_count)
            u = _bare_parity_ket(dim, 1j * z if phased else z, parity)
            v = _bare_parity_ket(dim, z, parity)
            accumulated += weight * np.outer(u, v.conj())
    accumulated /= grid.angular_count
    return max_abs_norm(accumulated - _resolution_target(space, parity, phased))


def _f_values(space: FockSpace, f) -> np.ndarray:
    """Evaluate a level map given as a callable or a length-dim sequence."""
    if callable(f):
        values = np.array([f(n) for n in range(space.dim)], dtype=complex)
    else:
        values = np.asarray(f, dtype=complex)
        if values.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} deformation values, got shape {values.shape}")
    if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
        raise ValueError("deformation values must be finite")
    return values


def _require_regular(values: np.ndarray) -> None:
    zeros = np.flatnonzero(values[:-1] == 0)
    if zeros.size:
        raise ValueError(
            f"f vanishes at level {int(zeros[0])}, below the truncation edge; the deformed ladder is singular"
        )


def deformed_annihilator(space: FockSpace, f) -> np.ndarray:
    """Deformed lowering operator ``f(N) a``."""
    return np.diag(_f_values(space, f)) @ annihilator(space)


def nonlinear_coherent_ket(space: FockSpace, f, z: complex, normalize: bool = False) -> np.ndarray:
    """Eigenstate of ``f(N) a`` with eigenvalue ``z``.

    Built by the amplitude recursion ``c_0 = 1``,
    ``c_(n+1) = z c_n / (f(n) sqrt(n+1))``, which is the expansion of
    ``exp[z a^dag / f(N-1)] |0>`` and makes the eigenvalue relation hold
    level by level below the truncation edge. Requires ``f(n) != 0`` for
    ``n <= dim-2``; with ``normalize`` the result is scaled to unit norm.
    """
    values = _f_values(space, f)
    _require_regular(values)
    z = complex(z)
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    for n in range(space.dim - 1):
        amps[n + 1] = z * amps[n] / (values[n] * math.sqrt(n + 1))
    if normalize:
        amps /= np.linalg.norm(amps)
    return amps


def nonlinear_eigen_residual(space: FockSpace, f, z: complex, normalize: bool = True) -> float:
    """Defect of ``f(N) a |z>_f = z |z>_f`` on levels ``0 .. dim-2``.

    The top level is excluded: truncation zeroes the lowered amplitude that
    should balance ``z c_(dim-1)`` there.
    """
    ket = nonlinear_coherent_ket(space, f, z, normalize=normalize)
    diff = deformed_annihilator(space, f) @ ket - complex(z) * ket
    return max_abs_norm(diff[: space.dim - 1])


def ladder_commutator_residual(space: FockSpace, f, margin: int = 1) -> float:
    """Deviation of ``[f(N) a, a^dag / f(N-1)]`` from the identity on levels
    ``0 .. dim-1-margin``.

    ``f(N-1)`` means ``f(n-1)`` on level ``n``; its value at level 0 never
    multiplies a nonzero raising entry and is fixed to 1. With ``margin = 0``
    the truncation edge contributes a spurious diagonal defect of size about
    ``dim`` at the top level, so ``margin = 1`` is the meaningful check.
    """
    if not 0 <= margin < space.dim:
        raise ValueError(f"margin must lie in 0..{space.dim - 1}, got {margin}")
    values = _f_values(space, f)
    _require_regular(values)
    shifted = np.ones(space.dim, dtype=complex)
    shifted[1:] = values[:-1]
    lowering = np.diag(values) @ annihilator(space)
    raising = np.diag(1.0 / shifted) @ creator(space)
    defect = (lowering @ raising - raising @ lowering) - np.eye(space.dim, dtype=complex)
    keep = space.dim - margin
    return max_abs_norm(defect[:keep, :keep])
