"""Coherent states, even/odd cat states and nonlinear (f-deformed) coherent
states on the truncated space, as numpy arrays.

The even and odd kets keep the plain coherent prefactor ``exp(-|z|^2/2)``
and are therefore not unit vectors (``<z|z>_e = exp(-|z|^2) cosh|z|^2``).
That normalization is what makes the ``d^2z / pi`` resolutions reproduce the
parity projectors exactly; renormalizing the cat states would break them.
The resolutions themselves are certified by :mod:`bosepauli.quadrature`,
which needs none of these arrays.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .fock import FockSpace, annihilator, creator, max_abs_norm

_LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)


def _ladder_amplitudes(z, first, divisors: np.ndarray) -> np.ndarray:
    """Amplitudes ``c_0 = first``, ``c_(n+1) = z c_n / d_n`` along a new last
    axis, for every entry of ``z`` and the matching entry of ``first``.

    ``divisors`` holds ``d_0 .. d_(dim-2)``. The running product starts from
    ``first``, so a prefactor that underflows to zero keeps the whole row zero
    instead of multiplying an overflowed ``z^n`` afterwards.
    """
    z, first = np.asarray(z), np.asarray(first)
    steps = np.concatenate([first[..., None], z[..., None] / divisors], axis=-1)
    return np.cumprod(steps, axis=-1)


def coherent_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Truncated coherent state, component ``n = exp(-|z|^2/2) z^n / sqrt(n!)``.

    The recursion starts at level 0 unless ``exp(-|z|^2/2)`` underflows
    (``|z|`` above about 37.6). Then it starts at the first level whose
    log-amplitude ``-|z|^2/2 + n log|z| - lgamma(n+1)/2`` is that of a normal
    double, and the levels below it, all smaller than about 1e-308, are 0.
    """
    z = complex(z)
    start, log_first = 0, -(abs(z) ** 2) / 2.0
    while log_first < _LOG_SMALLEST_NORMAL and start < space.dim - 1:
        start += 1
        log_first = -(abs(z) ** 2) / 2.0 + start * math.log(abs(z)) - 0.5 * math.lgamma(start + 1)
    first = cmath.exp(complex(log_first, start * cmath.phase(z))) if start else math.exp(log_first)
    amps = np.zeros(space.dim, dtype=complex)
    amps[start:] = _ladder_amplitudes(z, first, np.sqrt(np.arange(start + 1, space.dim)))
    return amps


def even_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Even cat ket: the even-level half of :func:`coherent_ket`.

    Component ``2n = exp(-|z|^2/2) z^(2n) / sqrt((2n)!)``, odd components
    exactly zero. ``even_ket(z) + odd_ket(z)`` recovers ``coherent_ket(z)``
    componentwise.
    """
    amps = coherent_ket(space, z)
    amps[1::2] = 0.0
    return amps


def odd_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Odd cat ket: the odd-level half of :func:`coherent_ket`."""
    amps = coherent_ket(space, z)
    amps[0::2] = 0.0
    return amps


def phase_relation_residual(space: FockSpace, z: complex) -> float:
    """Mismatch between the parity-phase-flipped cat states at ``z`` and the
    cat states at ``iz``, in max component modulus.

    The flip multiplies level ``m`` by ``i^m``: ``(-1)^n`` on even support,
    since ``(iz)^(2n) = (-1)^n z^(2n)``, and on odd support also the global
    factor ``i`` the substitution leaves (``(iz)^(2n+1) = i (-1)^n z^(2n+1)``).
    """
    z = complex(z)
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(space.dim) % 4]
    res_even = max_abs_norm(phases * even_ket(space, z) - even_ket(space, 1j * z))
    res_odd = max_abs_norm(phases * odd_ket(space, z) - odd_ket(space, 1j * z))
    return max(res_even, res_odd)


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
    return _f_values(space, f)[:, None] * annihilator(space)


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
    divisors = values[:-1] * np.sqrt(np.arange(1, space.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        amps = _ladder_amplitudes(complex(z), 1.0, divisors)
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"the amplitude at level {np.argmin(np.isfinite(amps))} is not finite for z={z}")
    if normalize:
        amps /= math.hypot(*np.abs(amps))  # unlike np.linalg.norm, cannot overflow past 1e154
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
    lowering = values[:, None] * annihilator(space)
    raising = (1.0 / shifted)[:, None] * creator(space)
    defect = (lowering @ raising - raising @ lowering) - np.eye(space.dim, dtype=complex)
    keep = space.dim - margin
    return max_abs_norm(defect[:keep, :keep])
