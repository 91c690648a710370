"""Cat-state resolutions of identity by quadrature over the complex plane, in
plain Python floats.

The grid is a Gauss-Laguerre rule in ``t = |z|^2`` crossed with ``M``
uniform angles. The rule's nodes come from Newton's method on the
three-term Laguerre recurrence, and its weights are the Christoffel numbers
``1 / sum_(j<K) L_j(t_k)^2`` (Golub & Welsch, Math. Comp. 23 (1969) 221),
kept as logarithms so that no weight underflows. Both cost ``O(K^2)``
recurrence steps. The angular sum of the resolution integrand is exact in
closed form, so the residual needs only the radial sums on its aliasing
mask. Nothing here imports numpy.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .fock import FockSpace

RESOLUTION_VARIANTS = ("even-plain", "odd-plain", "even-phased", "odd-phased")

_NEWTON_STEPS = 100  # per node; converged nodes take a handful
# A relative step this small leaves, by quadratic convergence, an error below
# rounding. The rounding floor of the step is about 3e-12 at K = 1000.
_NEWTON_TOLERANCE = 1e-10
_RESCALE_EXPONENT = 256  # the recurrence is divided by 2^256 whenever it passes it
_RESCALE_AT = 2.0**_RESCALE_EXPONENT


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

    def resolves(self, dim: int) -> bool:
        """True when the rule is exact for the ``dim``-level resolution integrands."""
        k = len(self.radial_nodes)
        return 2 * k - 1 >= dim - 2 and self.angular_count > 2 * (dim - 2)


def _laguerre_recurrence(steps: list[tuple[float, float, float]], t: float) -> tuple[float, float, float, int]:
    """``(L_K(t), L_(K-1)(t), sum_(j<K) L_j(t)^2, e)`` for ``K = len(steps)``:
    the first two divided by ``2^e`` and the sum by ``4^e``.

    ``L_j = ((2j - 1 - t) L_(j-1) - (j - 1) L_(j-2)) / j``, with step ``j``'s
    ``(2j - 1, j - 1, j)`` precomputed as floats. The scale ``2^e`` grows in
    exact powers of two whenever ``L_j`` passes ``2^256``, so nothing
    overflows at large ``t`` and the rescaling rounds nothing.
    """
    previous, current, squares, exponent = 0.0, 1.0, 0.0, 0
    for odd, below, j in steps:
        squares += current * current
        previous, current = current, ((odd - t) * current - below * previous) / j
        if not -_RESCALE_AT < current < _RESCALE_AT:
            previous = math.ldexp(previous, -_RESCALE_EXPONENT)
            current = math.ldexp(current, -_RESCALE_EXPONENT)
            squares = math.ldexp(squares, -2 * _RESCALE_EXPONENT)
            exponent += _RESCALE_EXPONENT
    return current, previous, squares, exponent


def _node_guess(index: int, count: int, nodes: list[float]) -> float:
    """Starting point for node ``index`` of ``count``, from the nodes found below it
    (the asymptotic guesses of Numerical Recipes' ``gaulag`` at ``alpha = 0``)."""
    if index == 0:
        return 3.0 / (1.0 + 2.4 * count)
    if index == 1:
        return nodes[0] + 15.0 / (1.0 + 2.5 * count)
    step = index - 1
    return nodes[-1] + (1.0 + 2.55 * step) / (1.9 * step) * (nodes[-1] - nodes[-2])


def laguerre_rule(radial_count: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and log-weights of the ``radial_count``-point Gauss-Laguerre rule.

    Each node is the root of ``L_K`` that Newton's method reaches from
    :func:`_node_guess`, with ``L_K'(t) = K (L_K(t) - L_(K-1)(t)) / t``. Its
    log-weight is ``-log sum_(j<K) L_j(t_k)^2``, a sum of squares with no
    cancellation. Raises a ``ValueError`` naming ``radial_count`` when a node
    does not converge, or the nodes are not finite and strictly increasing.
    """
    steps = [(2.0 * j - 1.0, j - 1.0, float(j)) for j in range(1, radial_count + 1)]
    nodes: list[float] = []
    log_weights = []
    for index in range(radial_count):
        t = _node_guess(index, radial_count, nodes)
        for _ in range(_NEWTON_STEPS):
            value, below, _, _ = _laguerre_recurrence(steps, t)
            step = t * value / (radial_count * (value - below))
            t -= step
            if abs(step) <= _NEWTON_TOLERANCE * abs(t):
                break
        else:
            raise ValueError(f"radial_count={radial_count}: Newton's method did not converge on Laguerre node {index}")
        if not (math.isfinite(t) and t > (nodes[-1] if nodes else 0.0)):
            raise ValueError(f"radial_count={radial_count}: Laguerre node {index} is {t!r}, not above the node below it")
        _, _, squares, exponent = _laguerre_recurrence(steps, t)
        nodes.append(t)
        log_weights.append(-math.log(squares) - 2 * exponent * math.log(2.0))
    return tuple(nodes), tuple(log_weights)


def quadrature_grid(radial_count: int, angular_count: int) -> QuadratureGrid:
    """Build a :class:`QuadratureGrid` with ``radial_count`` Laguerre nodes
    and ``angular_count`` uniform angles."""
    if radial_count < 1 or angular_count < 1:
        raise ValueError("quadrature grid needs at least one radial node and one angle")
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
    # b = a (mod M) and b = a (mod 2): the rest of the mask is off the parity, where Q is 0.
    stride = math.lcm(grid.angular_count, 2)
    return max(
        abs(math.fsum(map(mul, radial[a], radial[b])) - (a == b)) for a in levels for b in range(a, space.dim, stride)
    )
