"""Cat-state resolutions of identity by quadrature over the complex plane, in
plain Python floats.

The grid is a Gauss-Laguerre rule in ``t = |z|^2`` crossed with ``M``
uniform angles. The rule's nodes come from Newton's method on the
three-term Laguerre recurrence, started from the asymptotic forms of the
Laguerre zeros (Gatteschi's for the smallest nodes, Tricomi's for the rest;
Gil, Segura & Temme, Stud. Appl. Math. 140 (2018) 298). Its weights are
``w_k = 1 / (t_k L_K'(t_k)^2)`` (Abramowitz & Stegun 25.4.45), from the
derivative that Newton's method carries to the node, kept as logarithms so
that no weight underflows. Each node costs only its Newton passes of the
``K``-step recurrence, one on most nodes and two on the rest (1.27 on
average at ``K = 189``, 1.03 at ``K = 1000``), so the rule costs ``O(K^2)``
steps. The angular sum of the resolution integrand is exact in
closed form, so the residual needs only the radial sums on its aliasing
mask. Nothing here imports numpy.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from . import RESOLUTION_VARIANTS, _count
from .fock import FockSpace

_NEWTON_STEPS = 100  # per Newton solve; converged ones take a handful
_RESCALE_EXPONENT = 256  # the recurrence is divided by 2^256 whenever it passes it
_RESCALE_AT = 2.0**_RESCALE_EXPONENT
_J0_FIRST_ZERO = 2.404825557695773


class QuadratureGrid(NamedTuple):
    """Gauss-Laguerre rule in ``t = r^2`` crossed with uniform angles.

    Realizes ``(1/pi) * integral d^2z`` as ``(1/M) sum_j sum_k w_k`` applied
    to the integrand with its Gaussian factor ``exp(-t)`` stripped: that
    factor is the Laguerre weight. The radial rule of ``K`` nodes is exact
    for polynomials in ``t`` up to degree ``2K - 1``; ``M`` uniform angles
    integrate ``exp(i k theta)`` exactly for ``|k| < M``. The weights are
    held as their logarithms, which stay finite where the weights underflow.
    """

    radial_nodes: tuple[float, ...]
    log_weights: tuple[float, ...]
    angular_count: int

    @property
    def radial_weights(self) -> tuple[float, ...]:
        """The weights ``w_k = exp(log_weights[k])``; the smallest may underflow to 0."""
        return tuple(math.exp(log_weight) for log_weight in self.log_weights)

    @property
    def aliasing_stride(self) -> int:
        """The step ``|a - b|`` of the aliasing mask: ``a = b`` mod ``M`` and mod 2."""
        return math.lcm(self.angular_count, 2)

    def resolves(self, dim: int) -> bool:
        """True when the rule is exact for the ``dim``-level resolution integrands:
        the mask's radial sums have degree ``(a + b)/2 <= dim - 1``, and the mask
        holds no entry off the diagonal, where ``|a - b| <= dim - 1``."""
        k = len(self.radial_nodes)
        return 2 * k - 1 >= dim - 1 and self.aliasing_stride > dim - 1


def _laguerre_recurrence(steps: list[tuple[float, float]], t: float) -> tuple[float, float, int]:
    """``(L_K(t), D_K(t), e)`` for ``K = len(steps)``, with ``D_K = L_K -
    L_(K-1)``, both divided by ``2^e``.

    The three-term recurrence ``j L_j = (2j - 1 - t) L_(j-1) - (j - 1) L_(j-2)``
    runs in differences, ``j D_j = (j - 1) D_(j-1) - t L_(j-1)`` and
    ``L_j = L_(j-1) + D_j``, with step ``j``'s ``(j - 1, j)`` precomputed as
    floats. There ``t`` enters only as a factor: ``2j - 1 - t`` would round
    away the low digits of a small ``t`` and move the smallest nodes of a
    1000-point rule by 5e-12 of themselves. The scale ``2^e`` grows in exact
    powers of two whenever ``L_j`` passes ``2^256`` (``|D_j| <= |L_j| +
    |L_(j-1)|`` stays below ``2^257``), so nothing overflows at large ``t``
    and the rescaling rounds nothing.
    """
    current, difference, exponent = 1.0, 0.0, 0
    for below, j in steps:
        difference = (below * difference - t * current) / j
        current += difference
        if not -_RESCALE_AT < current < _RESCALE_AT:
            current = math.ldexp(current, -_RESCALE_EXPONENT)
            difference = math.ldexp(difference, -_RESCALE_EXPONENT)
            exponent += _RESCALE_EXPONENT
    return current, difference, exponent


def _bessel_zero(k: int) -> float:
    """The ``k``-th positive zero of ``J_0``: exact for ``k = 1``, and McMahon's
    expansion in ``b = (k - 1/4) pi`` above, within 2e-6 of the zero at
    ``k = 2`` and closer from there on."""
    if k == 1:
        return _J0_FIRST_ZERO
    b = (k - 0.25) * math.pi
    return b + 1.0 / (8.0 * b) - 31.0 / (384.0 * b**3) + 3779.0 / (15360.0 * b**5)


def _tricomi_angle(rhs: float) -> float:
    """The root in ``(0, pi)`` of ``theta - sin(theta) = rhs`` for ``0 < rhs < pi``,
    by Newton from ``pi``: the left side is increasing and convex there, so
    the iterates fall monotonically to the root."""
    theta = math.pi
    for _ in range(_NEWTON_STEPS):
        step = (theta - math.sin(theta) - rhs) / (1.0 - math.cos(theta))
        theta -= step
        if step <= 1e-13 * theta:
            break
    return theta


def _node_guess(index: int, count: int) -> float:
    """Starting point for node ``index`` (from 0) of ``count``, from the
    asymptotics of the Laguerre zeros in ``nu = 4 count + 2`` (Gil, Segura &
    Temme, Stud. Appl. Math. 140 (2018) 298).

    Gatteschi's form ``(j^2 / nu) (1 + (j^2 - 2) / (3 nu^2))``, with ``j``
    the ``(index + 1)``-th zero of ``J_0``, holds for the small nodes and is
    taken where it puts the node below 1. Tricomi's form ``nu (1 - s) - (5 /
    (4 s^2) - 1 / s - 1) / (3 nu)``, with ``s = sin^2(theta / 2)`` and
    ``theta - sin(theta) = pi (4 (count - index) - 1) / nu``, holds for the
    rest. The worst guess is off by 1e-3 of its node at ``count = 2``, 2e-4
    at 16 and 3e-5 at 189, the median one by 1e-6, 1e-10 and 2e-13 at 16,
    189 and 1000, so Newton's method stops after one pass on most nodes and
    two on the rest: 1.27 recurrence passes per node at ``count = 189`` and
    1.83 at 64. The extrapolating guesses of Numerical Recipes' ``gaulag``
    that these replace took 6.5 at 189, a weight pass included.
    """
    nu = 4.0 * count + 2.0
    j = _bessel_zero(index + 1)
    if j * j < nu:
        return j * j / nu * (1.0 + (j * j - 2.0) / (3.0 * nu * nu))
    s = math.sin(0.5 * _tricomi_angle(math.pi * (4 * (count - index) - 1) / nu)) ** 2
    return nu * (1.0 - s) - (5.0 / (4.0 * s * s) - 1.0 / s - 1.0) / (3.0 * nu)


def _newton_node(steps: list[tuple[float, float]], t: float) -> tuple[float, float] | None:
    """The root of ``L_K`` that Newton's method reaches from ``t``, with
    ``log|L_K'|`` there; ``None`` when it does not converge.

    Each pass takes ``L_K' = K D_K / t`` from the recurrence, and ``L_K''``
    and ``L_K'''`` from Laguerre's equation ``t y'' + (1 - t) y' + K y = 0``
    and its derivative ``t y''' + (2 - t) y'' + (K - 1) y' = 0``. It stops
    when Newton's own prediction of the error left after the step,
    ``|L_K'' / (2 L_K')| step^2``, is below half an ulp of the new node, and
    carries ``L_K'`` there to third order in the step.
    """
    count = len(steps)
    for _ in range(_NEWTON_STEPS):
        value, difference, exponent = _laguerre_recurrence(steps, t)
        if t == 0.0 or difference == 0.0:  # no Newton step from 0 or from a zero of L_K'
            return None
        slope = count * difference / t  # L_K' / 2^e
        step = value / slope
        bend = (t - 1.0 - count * step) / t  # L_K'' / L_K'
        twist = ((t - 2.0) * bend - (count - 1)) / t  # L_K''' / L_K'
        t -= step
        if abs(bend) * step * step <= 0.5 * math.ulp(t):
            slope *= 1.0 - step * bend + 0.5 * step * step * twist
            return t, math.log(abs(slope)) + exponent * math.log(2.0)
    return None


def laguerre_rule(radial_count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and log-weights of the ``radial_count``-point Gauss-Laguerre rule.

    Each node is the root of ``L_K`` that :func:`_newton_node` reaches from
    :func:`_node_guess`. Its log-weight is that of the closed form ``w_k =
    1 / (t_k L_K'(t_k)^2)`` (Abramowitz & Stegun 25.4.45), from the ``L_K'``
    that Newton's method carries to the node, so no pass is spent on the
    weight. Raises a ``ValueError`` naming ``radial_count`` when a node does
    not converge, or the nodes are not finite and strictly increasing.
    """
    steps = [(j - 1.0, float(j)) for j in range(1, radial_count + 1)]
    nodes: list[float] = []
    log_weights = []
    for index in range(radial_count):
        node = _newton_node(steps, _node_guess(index, radial_count))
        if node is None:
            raise ValueError(f"radial_count={radial_count}: Newton's method did not converge on Laguerre node {index}")
        t, log_slope = node
        if not (math.isfinite(t) and t > (nodes[-1] if nodes else 0.0)):
            raise ValueError(f"radial_count={radial_count}: Laguerre node {index} is {t!r}, not above the node below it")
        nodes.append(t)
        log_weights.append(-math.log(t) - 2.0 * log_slope)
    return tuple(nodes), tuple(log_weights)


def quadrature_grid(radial_count: int, angular_count: int) -> QuadratureGrid:
    """Build a :class:`QuadratureGrid` with ``radial_count`` Laguerre nodes
    and ``angular_count`` uniform angles. A count that is not an ``int`` of
    at least 1, a ``bool`` included, is a ``ValueError`` naming it."""
    _count("radial_count", radial_count, 1)
    _count("angular_count", angular_count, 1)
    return QuadratureGrid(*laguerre_rule(radial_count), angular_count)


def resolution_residual(space: FockSpace, variant: str, grid: QuadratureGrid) -> float:
    """Quadrature defect of a cat-state resolution of identity.

    Accumulates ``Q = integral |u(z)><v(z)| d^2z/pi`` over the grid, where
    ``(u, v)`` is ``(even, even)``, ``(odd, odd)``, ``(even at iz, even at
    z)`` or ``(odd at iz, odd at z)``, and returns the max entrywise
    deviation of ``Q`` from its closed form: the parity projector for the
    plain variants, the projector with the ``i^m`` phases of the ``iz``
    substitution for the phased ones.

    With ``z = sqrt(t_k) e^(i theta_j)``, entry ``(a, b)`` of ``Q`` is the
    radial sum ``sum_k w_k t_k^((a+b)/2) / sqrt(a! b!)`` times the angular
    mean ``(1/M) sum_j e^(i (a-b) theta_j)``, which is exactly 1 when
    ``a = b (mod M)`` and 0 otherwise. Off that mask both ``Q`` and its
    closed form vanish, so the maximum over the mask is the maximum over
    every entry. The phased variants put the quarter turn ``i^a`` on row
    ``a`` of ``Q`` and of its closed form alike; a quarter turn swaps and
    negates parts without rounding, so it leaves every deviation's modulus
    unchanged and the phased residual is the plain one of the same parity.

    An under-resolved grid (see :meth:`QuadratureGrid.resolves`) is not an
    error; the defect is simply large.
    """
    if variant not in RESOLUTION_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {RESOLUTION_VARIANTS}")
    parity = 0 if variant.startswith("even") else 1
    levels = range(parity, space.dim, 2)
    # Level n's radial factor at node k, sqrt(w_k t_k^n / n!), taken from its
    # logarithm so that neither t_k^n nor n! overflows.
    halves = [(0.5 * log_weight, 0.5 * math.log(t)) for t, log_weight in zip(grid.radial_nodes, grid.log_weights)]
    radial = {}
    for n in levels:
        half_log_factorial = 0.5 * math.lgamma(n + 1)
        radial[n] = [math.exp(half_log_weight + n * half_log_t - half_log_factorial) for half_log_weight, half_log_t in halves]
    # the rest of the mask is off the parity, where Q is 0
    stride = grid.aliasing_stride
    return max(
        abs(math.fsum(map(mul, radial[a], radial[b])) - (a == b)) for a in levels for b in range(a, space.dim, stride)
    )
