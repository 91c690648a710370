"""Coherent states, even/odd cat states and nonlinear (f-deformed) coherent
states on the truncated space, as numpy arrays, with the residual statistic
``max_abs_norm``. Nothing here builds a matrix.

The even and odd kets keep the plain coherent prefactor ``exp(-|z|^2/2)``
and are therefore not unit vectors (``<z|z>_e = exp(-|z|^2) cosh|z|^2``).
That normalization is what makes the ``d^2z / pi`` resolutions reproduce the
parity projectors exactly; renormalizing the cat states would break them.
The resolutions themselves are certified by :mod:`bosepauli.quadrature`,
which needs none of these arrays.

The deformed lowering operator ``f(N) a`` has one nonzero diagonal, the band
``<n| f(N) a |n+1> = f(n) sqrt(n+1)``. The nonlinear kets and both residuals
are computed on it in O(dim).
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from . import _count
from .fock import FockSpace

_LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)


def max_abs_norm(arr: np.ndarray) -> float:
    """Largest entrywise modulus, the residual statistic used throughout; 0.0 when empty."""
    return float(np.max(np.abs(arr), initial=0.0))


def _ladder_amplitudes(z: complex, first, divisors: np.ndarray) -> np.ndarray:
    """Amplitudes ``c_0 = first``, ``c_(n+1) = z c_n / d_n`` for the ``divisors``
    ``d_0 .. d_(dim-2)``. The running product starts from ``first``, so a
    prefactor that underflows to zero keeps every amplitude zero instead of
    multiplying an overflowed ``z^n`` afterwards. A leading 1.0 keeps numpy's
    accumulate on its sequential loop: it hands a single step to its SIMD
    multiply, whose fused multiply-adds round ``(iP)(iw)`` and ``-(Pw)`` apart."""
    return np.cumprod(np.concatenate([[1.0, first], z / divisors]))[1:]


def _power(u: complex, n: int) -> complex:
    """``u^n`` by repeated squaring, in products alone (``**`` takes ``exp`` and ``log`` above
    ``n = 100``). A quarter turn of a factor rounds nothing, so ``_power(iu, n) = i^n _power(u, n)``."""
    power = 1.0 + 0j
    for bit in f"{n:b}":  # the bits of n from the top
        power = power * power * u if bit == "1" else power * power
    return power


def coherent_ket(space: FockSpace, z: complex) -> np.ndarray:
    """Truncated coherent state, component ``n = exp(-|z|^2/2) z^n / sqrt(n!)``.

    The recursion starts at level 0 unless ``exp(-|z|^2/2)`` underflows
    (``|z|`` above about 37.6). Then it starts at the first level whose
    log-amplitude ``-|z|^2/2 + n log|z| - lgamma(n+1)/2`` is that of a normal
    double, or at the top level if none is, and the levels below it, all
    smaller than about 1e-308, are 0. That level is found in ``O(log dim)``.
    Its phase ``(z/|z|)^start`` is a product, so the ket at ``iz`` is exactly the
    ket at ``z`` times ``i^n`` on level ``n``. A ``z`` with a part that is not finite,
    or with ``|z|`` above about 1.34e154, where ``|z|^2`` overflows, is a ``ValueError``.
    """
    given, z = z, complex(z)
    try:
        log_first = -(abs(z) ** 2) / 2.0
    except OverflowError:  # |z|^2 past the largest double
        log_first = math.nan
    if not math.isfinite(log_first):
        raise ValueError(f"the coherent amplitudes cannot be computed at z={given!r}")
    start = 0
    if log_first < _LOG_SMALLEST_NORMAL:  # the log-amplitude rises on 0 .. |z|^2, so bisect there
        log_level = lambda n: -(abs(z) ** 2) / 2.0 + n * math.log(abs(z)) - 0.5 * math.lgamma(n + 1)  # noqa: E731
        start = bisect.bisect_left(range(min(space.dim - 1, int(abs(z) ** 2))), _LOG_SMALLEST_NORMAL, key=log_level)
        log_first = log_level(start)
    first = math.exp(log_first) * _power(z / abs(z), start) if start else math.exp(log_first)
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
    The cat kets are disjoint halves of :func:`coherent_ket`: one comparison covers both.
    The two kets are the same products up to quarter turns, so the residual is exactly 0.0.
    """
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(space.dim) % 4]
    return max_abs_norm(phases * coherent_ket(space, z) - coherent_ket(space, 1j * complex(z)))


def _band(space: FockSpace, f) -> tuple[np.ndarray, np.ndarray]:
    """The level map ``f(n)``, ``n = 0 .. dim-1``, given as a callable or a
    length-dim sequence, and the band ``f(n) sqrt(n+1)``, ``n = 0 .. dim-2``;
    a zero on the band is a ``ValueError``."""
    if callable(f):
        values = np.array([f(n) for n in range(space.dim)], dtype=complex)
    else:
        values = np.asarray(f, dtype=complex)
        if values.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} deformation values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("deformation values must be finite")
    zeros = np.flatnonzero(values[:-1] == 0)
    if zeros.size:
        raise ValueError(f"f vanishes at level {int(zeros[0])}, below the truncation edge; the deformed ladder is singular")
    return values, values[:-1] * np.sqrt(np.arange(1, space.dim))


def _nonlinear_amplitudes(band: np.ndarray, z: complex, normalize: bool) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        amps = _ladder_amplitudes(complex(z), 1.0, band)
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"the amplitude at level {np.argmin(np.isfinite(amps))} is not finite for z={z}")
    if normalize:
        amps /= math.hypot(*np.abs(amps))  # unlike np.linalg.norm, cannot overflow past 1e154
    return amps


def nonlinear_coherent_ket(space: FockSpace, f, z: complex, normalize: bool = False) -> np.ndarray:
    """Eigenstate of ``f(N) a`` with eigenvalue ``z``, by the recursion
    ``c_0 = 1``, ``c_(n+1) = z c_n / (f(n) sqrt(n+1))`` down the band.

    This is the expansion of ``exp[z a^dag / f(N-1)] |0>``; the eigenvalue
    relation holds level by level below the truncation edge. Requires
    ``f(n) != 0`` for ``n <= dim-2``; ``normalize`` scales to unit norm.
    """
    return _nonlinear_amplitudes(_band(space, f)[1], z, normalize)


def nonlinear_eigen_residual(space: FockSpace, f, z: complex, normalize: bool = True) -> float:
    """Defect of ``f(N) a |z>_f = z |z>_f`` on levels ``0 .. dim-2``, where
    level ``n`` reads ``f(n) sqrt(n+1) c_(n+1) - z c_n``.

    The top level is excluded: truncation zeroes the lowered amplitude that
    should balance ``z c_(dim-1)`` there.
    """
    band = _band(space, f)[1]
    amps = _nonlinear_amplitudes(band, z, normalize)
    return max_abs_norm(band * amps[1:] - complex(z) * amps[:-1])


def ladder_commutator_residual(space: FockSpace, f, margin: int = 1) -> float:
    """Deviation of ``[f(N) a, a^dag / f(N-1)]`` from the identity on levels
    ``0 .. dim-1-margin``.

    With the band ``L_n = f(n) sqrt(n+1)`` at ``(n, n+1)`` and
    ``R_n = sqrt(n+1) / f(n)`` at ``(n+1, n)``, the commutator is diagonal:
    ``L_n R_n - R_(n-1) L_(n-1)`` on level ``n``, a term being 0 where its index
    leaves ``0 .. dim-2``. With ``margin = 0`` the truncation edge contributes a
    spurious defect of about ``dim`` at the top level, so ``margin = 1`` is the
    meaningful check. A ``margin`` that is not an ``int`` in ``0 .. dim-1``, or an
    ``R_n`` that overflows, is a ``ValueError`` naming it.
    """
    if _count("margin", margin) >= space.dim:
        raise ValueError(f"margin must lie in 0..{space.dim - 1}, got {margin}")
    values, band = _band(space, f)
    with np.errstate(over="ignore", invalid="ignore"):
        raised = (1.0 / values[:-1]) * np.sqrt(np.arange(1, space.dim))  # R_n
    if not np.all(np.isfinite(raised)):
        raise ValueError(f"sqrt(n+1) / f(n) overflows at level {np.argmin(np.isfinite(raised))}")
    lowered_raised = np.zeros(space.dim, dtype=complex)  # L_n R_n, and 0 on the top level
    lowered_raised[:-1] = band * raised
    defect = lowered_raised - np.roll(lowered_raised, 1) - 1.0
    return max_abs_norm(defect[: space.dim - margin])
