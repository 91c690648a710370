import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.laguerre import laggauss

from bosepauli import coherent, quadrature
from bosepauli import (
    FockSpace,
    QuadratureGrid,
    RESOLUTION_VARIANTS,
    coherent_ket,
    even_ket,
    f_coefficient,
    ladder_commutator_residual,
    max_abs_norm,
    nonlinear_coherent_ket,
    nonlinear_eigen_residual,
    odd_ket,
    phase_relation_residual,
    quadrature_grid,
    resolution_residual,
)
from bosepauli.coherent import _band
from bosepauli.dense import fock_ket
from dense_oracles import annihilator, creator

SPACE_64 = FockSpace(64)


# ------------------------------------------------------------ coherent kets


def test_coherent_vacuum_limit():
    assert np.array_equal(coherent_ket(FockSpace(8), 0), fock_ket(FockSpace(8), 0))


def test_coherent_norm_tail():
    for z in (0.5, 1.0, 2.0, 1.4 + 1.4j):
        norm = np.vdot(coherent_ket(SPACE_64, z), coherent_ket(SPACE_64, z)).real
        assert norm >= 1.0 - 1e-12
        assert norm <= 1.0 + 1e-12


def test_coherent_eigenrelation_below_edge():
    z = 0.8 - 0.3j
    ket = coherent_ket(SPACE_64, z)
    diff = annihilator(SPACE_64) @ ket - z * ket
    assert max_abs_norm(diff[:-1]) <= 1e-13


def test_coherent_amplitudes_against_factorial_series():
    z = 1.1 + 0.4j
    ket = coherent_ket(FockSpace(12), z)
    prefactor = math.exp(-abs(z) ** 2 / 2)
    for n in range(12):
        expected = prefactor * z**n / math.sqrt(math.factorial(n))
        assert abs(ket[n] - expected) <= 1e-14


def test_coherent_amplitudes_against_high_precision():
    dim = 32
    with mpmath.workdps(50):
        for z in (0.3, 1.1 + 0.4j, -2.5j, 4.0 - 3.0j):
            ket = coherent_ket(FockSpace(dim), z)
            zm = mpmath.mpc(z)
            prefactor = mpmath.exp(-abs(zm) ** 2 / 2)
            for n in range(dim):
                exact = complex(prefactor * zm**n / mpmath.sqrt(mpmath.factorial(n)))
                assert abs(ket[n] - exact) <= 1e-14 * abs(exact) + 1e-300


def test_coherent_ket_underflow_stays_finite():
    # exp(-|z|^2/2) underflows to 0 at |z| = 40 while z^n / sqrt(n!) would
    # overflow: the Gaussian must be the recursion's first term, not a factor
    # applied afterwards, or the ket turns into NaN with a RuntimeWarning.
    ket = coherent_ket(FockSpace(2000), 40)
    assert np.all(np.isfinite(ket))


def _gaussian_first_coherent_ket(dim, z):
    # Reference: the recursion started at level 0 from exp(-|z|^2/2), which is
    # exact in form while that Gaussian is a normal double.
    z = complex(z)
    steps = np.concatenate([[math.exp(-(abs(z) ** 2) / 2.0)], z / np.sqrt(np.arange(1, dim))])
    return np.cumprod(steps)


@pytest.mark.parametrize("z", (0.0, 0.3, 1.1 + 0.4j, -2.5j, 10 + 10j, -17.5 + 12j, 21 - 21j, 30.0, 30j, -18 - 24j))
def test_coherent_ket_starts_at_level_zero_unless_the_gaussian_underflows(z):
    for dim in (2, 3, 64, 2000):
        assert np.array_equal(coherent_ket(FockSpace(dim), z), _gaussian_first_coherent_ket(dim, z))


@pytest.mark.parametrize("z", (40.0, 30 + 25j))
def test_coherent_ket_past_gaussian_underflow_against_high_precision(z):
    # exp(-|z|^2/2) is below 1e-308 here; the old recursion returned all zeros.
    dim = 2000
    ket = coherent_ket(FockSpace(dim), z)
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        exact = mpmath.exp(-abs(zm) ** 2 / 2)
        for n in range(dim):
            if abs(exact) > 1e-300:
                assert abs(ket[n] - complex(exact)) <= 1e-12 * abs(complex(exact))
            else:
                assert abs(ket[n]) <= 1e-300
            exact = exact * zm / mpmath.sqrt(n + 1)
    assert abs(np.vdot(ket, ket).real - 1.0) <= 1e-12


# ----------------------------------------------------------------- cat kets


def test_cat_split_reassembles_coherent_exactly():
    for z in (0.0, 1.0, -0.7 + 1.9j, 2j):
        space = FockSpace(32)
        assert np.array_equal(even_ket(space, z) + odd_ket(space, z), coherent_ket(space, z))


def test_cat_parity_purity():
    space = FockSpace(17)
    z = 1.3 - 0.2j
    assert np.all(even_ket(space, z)[1::2] == 0)
    assert np.all(odd_ket(space, z)[0::2] == 0)


def test_cat_vacuum_limits():
    space = FockSpace(10)
    assert np.array_equal(even_ket(space, 0), fock_ket(space, 0))
    assert np.array_equal(odd_ket(space, 0), np.zeros(10, dtype=complex))


def test_even_cat_norm_against_direct_sum():
    # <z|z>_e at z = 1: exp(-1) * sum over n of 1 / (2n)!
    direct = math.exp(-1) * sum(1.0 / math.factorial(2 * n) for n in range(0, 32))
    space = FockSpace(64)
    norm = np.vdot(even_ket(space, 1.0), even_ket(space, 1.0)).real
    assert abs(norm - direct) <= 1e-14
    assert abs(norm - math.exp(-1) * math.cosh(1)) <= 1e-14
    assert abs(norm - 0.5676676) <= 1e-7


# ------------------------------------------------------------ phase relation


def test_phase_relation_representative_point():
    assert phase_relation_residual(SPACE_64, 1 + 0.5j) <= 1e-14


def test_phase_relation_at_origin_is_exact():
    assert phase_relation_residual(SPACE_64, 0.0) == 0.0


def test_phase_relation_level_two_sign_flip():
    # the |2> amplitude changes sign under the flip, and (iz)^2 = -z^2 matches
    space = FockSpace(8)
    z = 1.7
    assert np.isclose(even_ket(space, 1j * z)[2], -even_ket(space, z)[2], rtol=0, atol=1e-15)


def _four_ket_phase_relation_residual(space, z):
    """The phase relation compared on each cat state separately: the even and
    the odd ket at ``z`` and at ``iz``."""
    z = complex(z)
    phases = np.array([1.0, 1j, -1.0, -1j])[np.arange(space.dim) % 4]
    res_even = max_abs_norm(phases * even_ket(space, z) - even_ket(space, 1j * z))
    res_odd = max_abs_norm(phases * odd_ket(space, z) - odd_ket(space, 1j * z))
    return max(res_even, res_odd)


def test_phase_relation_is_bit_equal_to_the_four_ket_oracle():
    rng = np.random.default_rng(20031)
    # |z| above about 37.6 takes coherent_ket's shifted start, where the residual is 0 as well
    radii = np.concatenate([rng.uniform(0, 5, 400), rng.uniform(5, 37.6, 300), rng.uniform(37.6, 80, 300)])
    zs = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, radii.size))
    for dim in (2, 3, 64, 1000, 4096):
        space = FockSpace(dim)
        for z in zs:
            residual = phase_relation_residual(space, z)
            assert residual == _four_ket_phase_relation_residual(space, z) == 0.0, (dim, z)


def test_phase_relation_is_exact_past_the_shifted_start():
    # |z| = 61 starts the recursion near level 1,700: the first amplitude's phase
    # is u^start by products, so (iu)^start is i^start u^start bit for bit
    assert phase_relation_residual(FockSpace(4096), -42.0 + 44.5j) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 64, 4096)), st.complex_numbers(max_magnitude=80, allow_nan=False, allow_infinity=False))
@example(3, 27.625 + 25.625j)
def test_phase_relation_is_exact_at_every_finite_z(dim, z):
    assert phase_relation_residual(FockSpace(dim), z) == 0.0


def test_phase_relation_is_exact_where_the_ladder_above_the_start_is_one_step():
    # start = dim - 2 leaves numpy one multiply, which its SIMD loop rounds apart
    # for z and iz (8e-323 at dim 3, z = 27.625+25.625i, without the leading 1.0 of _ladder_amplitudes)
    rng = np.random.default_rng(28)
    radii = rng.uniform(37.5, 45, 2000)
    zs = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, radii.size))
    for dim in (3, 5, 9, 65):
        assert max(phase_relation_residual(FockSpace(dim), z) for z in zs) == 0.0, dim


def _scanned_coherent_ket(dim, z):
    # Reference: coherent_ket with its shifted start found by a scan up from level 0,
    # one level at a time, and the same first amplitude and ladder from there
    z = complex(z)
    log_first, start = -(abs(z) ** 2) / 2.0, 0
    while log_first < math.log(sys.float_info.min) and start < dim - 1:
        start += 1
        log_first = -(abs(z) ** 2) / 2.0 + start * math.log(abs(z)) - 0.5 * math.lgamma(start + 1)
    first = math.exp(log_first) * coherent._power(z / abs(z), start) if start else math.exp(log_first)
    amps = np.zeros(dim, dtype=complex)
    amps[start:] = coherent._ladder_amplitudes(z, first, np.sqrt(np.arange(start + 1, dim)))
    return amps


def test_coherent_ket_equals_the_scanned_start_ket_bit_for_bit():
    # |z| up to 1.2 sqrt(dim) + 40 puts the start anywhere from level 0 to the top level
    rng = np.random.default_rng(29)
    for dim, count in ((2, 200), (3, 200), (64, 200), (4096, 100), (10**5, 4)):
        radii = rng.uniform(0.0, 1.2 * math.sqrt(dim) + 40.0, count)
        for z in radii * np.exp(1j * rng.uniform(-np.pi, np.pi, count)):
            assert np.array_equal(coherent_ket(FockSpace(dim), z), _scanned_coherent_ket(dim, z)), (dim, z)
    assert np.array_equal(coherent_ket(FockSpace(10**6), 1000.0), _scanned_coherent_ket(10**6, 1000.0))


KET_FUNCTIONS = (coherent_ket, even_ket, odd_ket, phase_relation_residual)
# a part that is not finite, or |z|^2 past the largest double (|z| above about 1.34e154)
UNCOMPUTABLE_Z = (
    math.nan, math.inf, -math.inf, complex("nan"), complex(0, -math.inf), complex(1, math.nan), complex(math.inf, math.nan),
    1e155, -2e154j, complex(1e308, 1e308), 1.35e154 + 1j,
)


@pytest.mark.parametrize("function", KET_FUNCTIONS, ids=lambda function: function.__name__)
@pytest.mark.parametrize("z", UNCOMPUTABLE_Z, ids=repr)
def test_a_z_the_ket_cannot_be_computed_at_is_a_value_error_naming_z(function, z):
    with pytest.raises(ValueError, match=re.escape(f"z={z!r}")):
        function(FockSpace(8), z)


def test_the_largest_computable_z_gives_a_finite_ket():
    z = 1.3e154
    for dim in (2, 64):
        assert np.all(np.isfinite(coherent_ket(FockSpace(dim), z)))
        assert phase_relation_residual(FockSpace(dim), z) == 0.0


_NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3, 64, 4096)),
    st.one_of(st.builds(complex, _NON_FINITE, st.floats()), st.builds(complex, st.floats(), _NON_FINITE)),
)
def test_a_non_finite_z_is_a_value_error_naming_z(dim, z):
    with pytest.raises(ValueError, match=re.escape(f"z={z!r}")):
        phase_relation_residual(FockSpace(dim), z)


# -------------------------------------------------------------- quadrature


def test_order_one_laguerre_rule():
    grid = quadrature_grid(1, 4)
    assert np.allclose(grid.radial_nodes, [1.0], atol=1e-12)
    assert np.allclose(grid.radial_weights, [1.0], atol=1e-12)


def test_order_two_rule_integrates_t_exactly():
    grid = quadrature_grid(2, 4)
    value = math.fsum(w * t for w, t in zip(grid.radial_weights, grid.radial_nodes))
    assert abs(value - 1.0) <= 1e-13


def test_uniform_angles_kill_low_harmonics():
    m = 8
    angles = 2 * np.pi * np.arange(m) / m
    assert abs(np.mean(np.exp(2j * angles))) <= 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        quadrature_grid(0, 4)
    with pytest.raises(ValueError):
        quadrature_grid(4, 0)


@pytest.mark.parametrize(
    "radial, angular, name",
    (
        (4, 2.5, "angular_count"), (4, True, "angular_count"), (4, -1, "angular_count"), (4, "8", "angular_count"),
        (2.5, 4, "radial_count"), (True, 4, "radial_count"), (0, 4, "radial_count"), (4.0, 4, "radial_count"),
    ),
    ids=repr,
)
def test_a_grid_count_that_is_not_a_positive_int_is_a_value_error_naming_it(radial, angular, name):
    bad = radial if name == "radial_count" else angular
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {bad!r}")):
        quadrature_grid(radial, angular)


@pytest.mark.parametrize("k", (187, 189, 400))
def test_grid_gives_finite_laguerre_rule_at_large_k(k):
    # numpy's laggauss overflows its weights to NaN from about 187 nodes; the
    # log-weights stay finite where the weights themselves underflow
    grid = quadrature_grid(k, 4)
    assert len(grid.radial_nodes) == len(grid.log_weights) == k
    assert all(math.isfinite(t) for t in grid.radial_nodes)
    assert all(math.isfinite(lw) for lw in grid.log_weights)
    assert all(a < b for a, b in zip(grid.radial_nodes, grid.radial_nodes[1:]))
    assert min(grid.log_weights) < math.log(np.finfo(float).tiny)


def _mpmath_laguerre_rule(k, nodes):
    # Reference: Newton on L_k at 50 digits from the double nodes, then the
    # classical weight t / ((k+1)^2 L_(k+1)(t)^2), a different formula from
    # the Christoffel sum the library uses.
    def laguerre(n, t):
        previous, current = mpmath.mpf(0), mpmath.mpf(1)
        for j in range(1, n + 1):
            previous, current = current, ((2 * j - 1 - t) * current - (j - 1) * previous) / j
        return current, previous

    rule = []
    with mpmath.workdps(50):
        for t in map(mpmath.mpf, nodes):
            for _ in range(3):  # quadratic convergence from ~1e-13: 1e-26, then 1e-50
                value, below = laguerre(k, t)
                t -= t * value / (k * (value - below))
            rule.append((t, mpmath.log(t) - 2 * mpmath.log(k + 1) - 2 * mpmath.log(abs(laguerre(k + 1, t)[0]))))
    return rule


@pytest.mark.parametrize("k", (1, 2, 16, 64, 189))
def test_laguerre_rule_against_high_precision(k):
    nodes, log_weights = quadrature.laguerre_rule(k)
    for t, log_weight, (exact_t, exact_log_weight) in zip(nodes, log_weights, _mpmath_laguerre_rule(k, nodes)):
        assert abs(t - exact_t) <= 1e-12 * exact_t
        assert abs(log_weight - exact_log_weight) <= 1e-12


@pytest.mark.parametrize("k", (1, 2, 16, 64, 189, 400))
def test_laguerre_rule_integrates_its_top_moments(k):
    # sum_k w_k t_k^n / n! = 1 for n <= 2K-1, evaluated at 50 digits so that
    # only the rule's own error shows
    nodes, log_weights = quadrature.laguerre_rule(k)
    with mpmath.workdps(50):
        for n in (0, k, 2 * k - 1):
            moment = mpmath.fsum(
                mpmath.exp(mpmath.mpf(lw) + n * mpmath.log(mpmath.mpf(t)) - mpmath.loggamma(n + 1))
                for t, lw in zip(nodes, log_weights)
            )
            assert abs(moment - 1) <= 1e-13


def test_laguerre_rule_against_high_precision_at_a_thousand_nodes():
    # the largest rule the CLI is tested with; its first, middle and last three nodes
    nodes, log_weights = quadrature.laguerre_rule(1000)
    picked = [*range(3), *range(499, 502), *range(997, 1000)]
    reference = _mpmath_laguerre_rule(1000, [nodes[i] for i in picked])
    for i, (exact_t, exact_log_weight) in zip(picked, reference):
        assert abs(nodes[i] - exact_t) <= 1e-12 * exact_t
        assert abs(log_weights[i] - exact_log_weight) <= 1e-12


def _christoffel_laguerre_rule(k):
    # Oracle: the rule as built before the closed-form weights. Newton's method
    # from the same guesses runs to a relative step of 1e-10, then one more
    # pass of the recurrence sums the Christoffel weight 1 / sum_(j<K) L_j(t)^2,
    # rescaled by exact powers of two.
    def recurrence(t):
        current, difference, squares, exponent = 1.0, 0.0, 0.0, 0
        for j in range(1, k + 1):
            squares += current * current
            difference = ((j - 1.0) * difference - t * current) / j
            current += difference
            if not -(2.0**256) < current < 2.0**256:
                current, difference = math.ldexp(current, -256), math.ldexp(difference, -256)
                squares = math.ldexp(squares, -512)
                exponent += 256
        return current, difference, squares, exponent

    nodes, log_weights = [], []
    for index in range(k):
        t = quadrature._node_guess(index, k)
        for _ in range(100):
            value, difference, _, _ = recurrence(t)
            step = t * value / (k * difference)
            t -= step
            if abs(step) <= 1e-10 * t:
                break
        _, _, squares, exponent = recurrence(t)
        nodes.append(t)
        log_weights.append(-math.log(squares) - 2 * exponent * math.log(2.0))
    return nodes, log_weights


@pytest.mark.parametrize("k", (1, 2, 3, 16, 64, 189, 400, 1000))
def test_laguerre_rule_agrees_with_the_christoffel_weights(k):
    nodes, log_weights = quadrature.laguerre_rule(k)
    oracle_nodes, oracle_log_weights = _christoffel_laguerre_rule(k)
    for t, exact_t in zip(nodes, oracle_nodes):
        assert abs(t - exact_t) <= 2 * math.ulp(exact_t)
    for log_weight, exact_log_weight in zip(log_weights, oracle_log_weights):
        assert abs(log_weight - exact_log_weight) <= 1e-12


def test_laguerre_rules_up_to_forty_nodes_are_increasing_with_unit_mass():
    for k in range(1, 41):
        nodes, log_weights = quadrature.laguerre_rule(k)
        assert all(math.isfinite(t) for t in nodes)
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert abs(math.fsum(map(math.exp, log_weights)) - 1.0) <= 1e-14, k


@pytest.mark.parametrize("k, budget", ((189, 1.5), (1000, 1.1)))
def test_laguerre_rule_takes_at_most_one_and_a_half_recurrence_passes_per_node(monkeypatch, k, budget):
    # the asymptotic starting guesses leave most nodes one Newton pass, and the
    # weight needs none; the Christoffel weights cost one more pass per node
    # (2.55 per node at K = 189), and the extrapolating guesses before them 6.5
    passes = []
    recurrence = quadrature._laguerre_recurrence
    monkeypatch.setattr(quadrature, "_laguerre_recurrence", lambda steps, t: passes.append(t) or recurrence(steps, t))
    quadrature.laguerre_rule(k)
    assert len(passes) <= budget * k


def test_laguerre_rule_that_fails_raises_naming_radial_count(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_STEPS", 1)  # no guess lands within one step
    with pytest.raises(ValueError, match="radial_count=16: .*did not converge"):
        quadrature.laguerre_rule(16)
    monkeypatch.undo()
    monkeypatch.setattr(quadrature, "_node_guess", lambda index, count: 1.0)  # every node finds one root
    with pytest.raises(ValueError, match="radial_count=16: .*not above"):
        quadrature_grid(16, 4)


@pytest.mark.parametrize("guess", (0.0, -1.0, 5e-324, 1e300, math.inf, -math.inf, math.nan), ids=repr)
def test_laguerre_rule_from_a_bad_guess_raises_only_a_value_error_naming_radial_count(monkeypatch, guess):
    # 0 is a zero of L_K' where Newton's method cannot step; the others converge
    # to one root for every node, or to none
    monkeypatch.setattr(quadrature, "_node_guess", lambda index, count: guess)
    with pytest.raises(ValueError, match="radial_count=16: "):
        quadrature.laguerre_rule(16)


def test_grid_resolution_predicate():
    assert quadrature_grid(16, 64).resolves(16)
    assert not quadrature_grid(1, 2).resolves(8)


def test_grid_resolves_exactly_the_grids_whose_residual_is_at_rounding():
    # K = dim/2 makes the radial rule exact on the diagonal, so the flag turns on
    # the angles alone: an entry off the diagonal aliases onto the mask when
    # lcm(M, 2) <= dim - 2, and its radial sum is then far from 0
    for dim in range(2, 65, 2):
        space, base = FockSpace(dim), quadrature_grid(dim // 2, 1)
        for angular in range(1, 2 * dim + 2):
            grid = base._replace(angular_count=angular)
            residual = max(resolution_residual(space, variant, grid) for variant in ("even-plain", "odd-plain"))
            assert grid.resolves(dim) == (residual <= 1e-12), (dim, angular, residual)
        if dim >= 4:  # one node too few misses degree dim - 1 at every M
            coarse = quadrature_grid(dim // 2 - 1, 1)
            assert not any(coarse._replace(angular_count=m).resolves(dim) for m in range(1, 2 * dim + 2))


@pytest.mark.parametrize("variant", RESOLUTION_VARIANTS)
def test_resolution_exact_grid(variant):
    residual = resolution_residual(FockSpace(16), variant, quadrature_grid(16, 64))
    assert residual <= 1e-12


def test_resolution_under_resolved_grid_fails_loudly():
    residual = resolution_residual(FockSpace(8), "even-plain", quadrature_grid(1, 2))
    assert residual > 1e-2


def test_resolution_stays_exact_past_threshold():
    space = FockSpace(16)
    residuals = [
        resolution_residual(space, "odd-phased", quadrature_grid(k, m))
        for k, m in ((16, 64), (20, 80), (24, 96))
    ]
    assert all(r <= 1e-12 for r in residuals)
    for previous, current in zip(residuals, residuals[1:]):
        assert current <= previous + 1e-13


def test_resolution_independent_of_node_order():
    space = FockSpace(16)
    grid = quadrature_grid(16, 64)
    reversed_grid = QuadratureGrid(grid.radial_nodes[::-1], grid.log_weights[::-1], grid.angular_count)
    forward = resolution_residual(space, "even-plain", grid)
    backward = resolution_residual(space, "even-plain", reversed_grid)
    assert abs(forward - backward) <= 1e-13


def _loop_resolution_residual(space, variant, grid):
    # Reference: the grid sum of |u><v| over every point, one outer product
    # at a time, with the cat amplitudes built level by level.
    def bare_parity_ket(z, parity):
        amps = np.zeros(space.dim, dtype=complex)
        amp = 1.0 + 0j
        for n in range(space.dim):
            amps[n] = amp
            amp = amp * z / math.sqrt(n + 1)
        amps[1 - parity :: 2] = 0.0
        return amps

    parity = 0 if variant.startswith("even") else 1
    phased = variant.endswith("phased")
    accumulated = np.zeros((space.dim, space.dim), dtype=complex)
    for t_node, weight in zip(grid.radial_nodes, grid.radial_weights):
        for j in range(grid.angular_count):
            z = math.sqrt(t_node) * np.exp(2j * math.pi * j / grid.angular_count)
            u = bare_parity_ket(1j * z if phased else z, parity)
            v = bare_parity_ket(z, parity)
            accumulated += weight * np.outer(u, v.conj())
    accumulated /= grid.angular_count
    target = np.diag((np.arange(space.dim) % 2 == parity).astype(complex))
    if phased:
        target = np.array([1, 1j, -1, -1j])[np.arange(space.dim) % 4, None] * target
    return max_abs_norm(accumulated - target)


@pytest.mark.parametrize("variant", RESOLUTION_VARIANTS)
def test_resolution_matches_outer_product_loop(variant):
    # includes under-resolved grids, whose large defects must agree too
    for dim in (2, 4, 8, 16):
        for k in (1, 2, 8, 16):
            for m in (2, 4, 16, 64):
                space, grid = FockSpace(dim), quadrature_grid(k, m)
                expected = _loop_resolution_residual(space, variant, grid)
                assert abs(resolution_residual(space, variant, grid) - expected) <= 1e-13


def _laggauss_grid(k, m):
    # Reference: numpy's Gauss-Laguerre rule, finite up to 186 nodes.
    nodes, weights = laggauss(k)
    return QuadratureGrid(tuple(nodes), tuple(np.log(weights)), m)


def _gram_resolution_residual(space, variant, grid):
    # Reference: the grid sum of |u><v| as the Hadamard product of a radial
    # and an angular Gram matrix, both formed in full.
    parity = 0 if variant.startswith("even") else 1
    dim, m = space.dim, grid.angular_count
    steps = np.concatenate(
        [np.sqrt(grid.radial_weights)[:, None], np.sqrt(grid.radial_nodes)[:, None] / np.sqrt(np.arange(1, dim))], axis=1
    )
    radial = np.cumprod(steps, axis=1)
    radial[:, 1 - parity :: 2] = 0.0
    angular = np.exp(2j * math.pi * (np.outer(np.arange(m), np.arange(dim)) % m) / m)
    accumulated = (radial.T @ radial) * (angular.T @ angular.conj() / m)
    quarter_turns = np.array([1.0, 1j, -1.0, -1j])[np.arange(dim) % 4]
    target = np.diag((np.arange(dim) % 2 == parity).astype(complex))
    if variant.endswith("phased"):
        accumulated *= quarter_turns[:, None]
        target *= quarter_turns[:, None]
    return max_abs_norm(accumulated - target)


@pytest.mark.parametrize("variant", RESOLUTION_VARIANTS)
def test_resolution_matches_the_gram_product_on_the_laggauss_rule(variant):
    # includes under-resolved grids, whose large defects must agree too
    for k in (1, 2, 8, 16, 32, 64):
        for m in (2, 4, 16, 64, 256):
            grid, reference_grid = quadrature_grid(k, m), _laggauss_grid(k, m)
            for dim in (2, 4, 8, 16, 32, 64):
                expected = _gram_resolution_residual(FockSpace(dim), variant, reference_grid)
                residual = resolution_residual(FockSpace(dim), variant, grid)
                assert abs(residual - expected) <= 1e-13 * max(1.0, expected)


@pytest.mark.parametrize("variant", RESOLUTION_VARIANTS)
def test_resolution_finite_on_largest_grid(variant):
    # K=186, the largest rule laggauss keeps finite, has nodes near 713 and weights near 1e-308
    assert math.isfinite(resolution_residual(FockSpace(512), variant, quadrature_grid(186, 1024)))


def test_resolution_rejects_unknown_variant():
    with pytest.raises(ValueError):
        resolution_residual(FockSpace(4), "even", quadrature_grid(2, 4))


# ------------------------------------------------------- nonlinear kets


def test_undeformed_recursion_reproduces_coherent_state():
    z = 0.9 + 0.2j
    space = FockSpace(24)
    ket = nonlinear_coherent_ket(space, lambda n: 1.0, z)
    prefactor = math.exp(-abs(z) ** 2 / 2)
    assert np.allclose(prefactor * ket, coherent_ket(space, z), rtol=0, atol=1e-14)


def test_a_deformation_sequence_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match=re.escape("expected 4 deformation values, got shape (3,)")):
        nonlinear_coherent_ket(FockSpace(4), [1.0] * 3, 0.5)


def test_recursion_against_closed_form_product():
    z = 0.8
    dim = 16
    f = lambda n: 1.0 / (n + 1)
    ket = nonlinear_coherent_ket(FockSpace(dim), f, z)
    for n in range(dim):
        denominator = math.sqrt(math.factorial(n)) * math.prod(f(k) for k in range(n))
        expected = z**n / denominator
        assert abs(ket[n] - expected) <= 1e-12 * abs(expected) + 1e-13


def test_recursion_against_high_precision():
    dim = 32
    f = lambda n: 1.0 / (n + 1)
    with mpmath.workdps(50):
        for z in (0.8, 0.5 - 1.5j):
            ket = nonlinear_coherent_ket(FockSpace(dim), f, z)
            zm = mpmath.mpc(z)
            for n in range(dim):
                # prod_{k<n} f(k) = 1/n!, so c_n = z^n sqrt(n!)
                exact = complex(zm**n * mpmath.sqrt(mpmath.factorial(n)))
                assert abs(ket[n] - exact) <= 1e-14 * abs(exact) + 1e-300


def test_eigen_residual_small_for_deformed_states():
    space = FockSpace(32)
    for f in (lambda n: 1.0, lambda n: 1.0 / (n + 1)):
        for z in (0.6, 1.2 - 0.8j):
            assert nonlinear_eigen_residual(space, f, z) <= 1e-13


def test_pauli_deformation_is_rejected_as_singular():
    # f vanishes on odd levels, so the recursion meets a zero divisor
    space = FockSpace(8)
    with pytest.raises(ValueError):
        nonlinear_coherent_ket(space, lambda n: f_coefficient(n, 2), 0.5)


def test_vanishing_f_at_top_level_is_allowed():
    space = FockSpace(8)
    f = [1.0] * 7 + [0.0]
    ket = nonlinear_coherent_ket(space, f, 0.5)
    assert np.all(np.isfinite(ket.real))


def test_overflowing_deformed_ket_names_the_first_non_finite_level_and_z():
    # c_n = 3^n sqrt(n!) for f(n) = 1/(n+1): the first level past the double range
    first = next(n for n in range(400) if n * math.log(3.0) + 0.5 * math.lgamma(n + 1) > math.log(np.finfo(float).max))
    f = lambda n: 1.0 / (n + 1)
    for check in (nonlinear_coherent_ket, nonlinear_eigen_residual):
        with pytest.raises(ValueError, match=rf"level {first} .*z=3\.0"):
            check(FockSpace(400), f, 3.0)
    assert np.all(np.isfinite(nonlinear_coherent_ket(FockSpace(first), f, 3.0)))
    for dim in (120, first):  # amplitudes past 1e154, whose plain norm overflows
        assert abs(np.linalg.norm(nonlinear_coherent_ket(FockSpace(dim), f, 3.0, normalize=True)) - 1.0) < 1e-12
        assert nonlinear_eigen_residual(FockSpace(dim), f, 3.0) <= 1e-13


def test_deformation_values_must_be_finite():
    with pytest.raises(ValueError):
        nonlinear_coherent_ket(FockSpace(4), lambda n: math.inf, 0.5)


def _band_matrix(space, f):
    # f(N) a from its band, the one nonzero diagonal the nonlinear kets and residuals read
    return np.diag(_band(space, f)[1], 1)


def test_deformed_annihilator_matches_coefficient_action():
    space = FockSpace(6)
    f = lambda n: 2.0 + n
    op = _band_matrix(space, f)
    ket = fock_ket(space, 3)
    assert np.allclose(op @ ket, f(2) * math.sqrt(3) * fock_ket(space, 2), atol=1e-14)


def test_deformed_annihilator_scales_rows_like_diagonal_product():
    for dim in (16, 512):
        space = FockSpace(dim)
        values = np.array([(1.0 + 0.5j) / (n + 1) - 0.25j * n for n in range(dim)])
        expected = np.diag(values) @ annihilator(space)
        assert np.array_equal(_band_matrix(space, values), expected)


# -------------------------------------------------------- ladder commutator


def test_ladder_commutator_undeformed():
    assert ladder_commutator_residual(FockSpace(16), lambda n: 1.0, margin=1) <= 1e-14


def test_ladder_commutator_inverse_sqrt_deformation():
    f = lambda n: 1.0 / math.sqrt(n + 1)
    assert ladder_commutator_residual(FockSpace(16), f, margin=1) <= 1e-13


def test_ladder_commutator_margin_zero_truncation_artifact():
    dim = 16
    residual = ladder_commutator_residual(FockSpace(dim), lambda n: 1.0, margin=0)
    assert residual > dim - 1


def test_ladder_commutator_margin_validation():
    with pytest.raises(ValueError):
        ladder_commutator_residual(FockSpace(4), lambda n: 1.0, margin=4)


@pytest.mark.parametrize("margin", (4, 10**20), ids=repr)
def test_a_margin_past_the_top_level_is_a_value_error_naming_the_range(margin):
    # a bool, a float or a negative margin gets the shared integer message (tests/test_pauli.py)
    with pytest.raises(ValueError, match=f"^margin must lie in 0..3, got {margin}$"):
        ladder_commutator_residual(FockSpace(4), lambda n: 1.0, margin)


# ------------------------------------------------- dense oracles for the band
# The dense products the band replaced: f(N) a as a row-scaled annihilator,
# its matvec on the ket, and the commutator of two D x D matrices.


def _dense_values(space, f):
    return np.array([f(n) for n in range(space.dim)], dtype=complex)


def _dense_deformed_annihilator(space, f):
    return _dense_values(space, f)[:, None] * annihilator(space)


def _dense_ket(space, f, z, normalize):
    divisors = _dense_values(space, f)[:-1] * np.sqrt(np.arange(1, space.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.cumprod(np.concatenate([[1.0 + 0j], complex(z) / divisors]))
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"the amplitude at level {np.argmin(np.isfinite(amps))} is not finite for z={z}")
    return amps / math.hypot(*np.abs(amps)) if normalize else amps


def _dense_eigen_residual(space, f, z, normalize=True):
    ket = _dense_ket(space, f, z, normalize)
    diff = _dense_deformed_annihilator(space, f) @ ket - complex(z) * ket
    return max_abs_norm(diff[: space.dim - 1])


def _dense_ladder_commutator_residual(space, f, margin):
    values = _dense_values(space, f)
    shifted = np.ones(space.dim, dtype=complex)  # f(N-1); its level-0 value meets no raising entry
    shifted[1:] = values[:-1]
    lowering = values[:, None] * annihilator(space)
    raising = (1.0 / shifted)[:, None] * creator(space)
    defect = (lowering @ raising - raising @ lowering) - np.eye(space.dim, dtype=complex)
    keep = space.dim - margin
    return max_abs_norm(defect[:keep, :keep])


REAL_DEFORMATIONS = {
    "one": lambda n: 1.0,
    "inverse": lambda n: 1.0 / (n + 1),
    "inverse_sqrt": lambda n: 1.0 / math.sqrt(n + 1),
    "alternating_quartic_root": lambda n: (-1) ** n * (n + 1) ** 0.25,
}
COMPLEX_DEFORMATION = lambda n: complex(math.cos(0.3 * n), math.sin(0.3 * n)) / (1 + 0.01 * n)  # noqa: E731
BAND_DIMS = (2, 3, 16, 64, 257, 512)
BAND_ZS = (0.3, 1.5 + 0.7j, 3.0)
# the dense and the band products of a complex f round differently; the largest
# |band - dense| over BAND_DIMS, BAND_ZS and both margins is 6.5e-17 for the eigen
# residual (about 2.5e-16) and 5.6e-14 for the commutator (2.3e-13 against 2.9e-13 at D=512)
COMPLEX_DEFORMATION_ULPS = 2


def _same_outcome(band_call, dense_call):
    """The band result and the dense one, or assert that both raise the same ``ValueError``."""
    try:
        dense = dense_call()
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            band_call()
        return None
    return band_call(), dense


@pytest.mark.parametrize("dim", BAND_DIMS)
@pytest.mark.parametrize("name", REAL_DEFORMATIONS)
def test_band_is_bit_equal_to_the_dense_products_for_real_deformations(name, dim):
    space, f = FockSpace(dim), REAL_DEFORMATIONS[name]
    assert np.array_equal(_band_matrix(space, f), _dense_deformed_annihilator(space, f))
    for margin in (0, 1):
        assert ladder_commutator_residual(space, f, margin) == _dense_ladder_commutator_residual(space, f, margin)
    for z in BAND_ZS:
        for normalize in (False, True):
            kets = _same_outcome(
                lambda: nonlinear_coherent_ket(space, f, z, normalize), lambda: _dense_ket(space, f, z, normalize)
            )
            if kets:
                assert kets[0].tobytes() == kets[1].tobytes()
            residuals = _same_outcome(
                lambda: nonlinear_eigen_residual(space, f, z, normalize),
                lambda: _dense_eigen_residual(space, f, z, normalize),
            )
            if residuals:
                assert residuals[0] == residuals[1]


def test_ladder_commutator_names_the_level_where_the_raising_ladder_overflows():
    # R_n = sqrt(n+1) / f(n) overflows at n = 3: for f(3) = 1e-310 already in
    # 1/f(3), for f(3) = 6e-309 only when 1/f(3) = 1.7e308 is doubled
    space = FockSpace(8)
    for tiny in (1e-310, 6e-309):
        f = [1.0] * 8
        f[3] = tiny
        with pytest.raises(ValueError, match=r"level 3\b"):
            ladder_commutator_residual(space, f)
    f[3] = 1e-300  # tiny, with a finite raising ladder: the commutator is still the identity
    for margin in (0, 1):
        assert ladder_commutator_residual(space, f, margin) == _dense_ladder_commutator_residual(space, f.__getitem__, margin)
    assert ladder_commutator_residual(space, f) <= 1e-14


@pytest.mark.parametrize("dim", BAND_DIMS)
def test_band_agrees_with_the_dense_products_for_a_complex_deformation(dim):
    space, f, eps = FockSpace(dim), COMPLEX_DEFORMATION, np.finfo(float).eps
    assert np.array_equal(_band_matrix(space, f), _dense_deformed_annihilator(space, f))
    for margin in (0, 1):
        # each level of the commutator holds products of size about dim
        band, dense = ladder_commutator_residual(space, f, margin), _dense_ladder_commutator_residual(space, f, margin)
        assert abs(band - dense) <= COMPLEX_DEFORMATION_ULPS * eps * dim
        assert band <= 1e-12 if margin else band > dim - 1
    for z in BAND_ZS:
        assert nonlinear_coherent_ket(space, f, z).tobytes() == _dense_ket(space, f, z, False).tobytes()
        band, dense = nonlinear_eigen_residual(space, f, z), _dense_eigen_residual(space, f, z)
        assert abs(band - dense) <= COMPLEX_DEFORMATION_ULPS * eps * abs(z)  # unit ket: products of size |z|
        assert band <= 1e-13


def test_band_residuals_run_at_a_million_levels():
    # the dense commutator would need two 10^6 x 10^6 complex matrices (16 TB each)
    space = FockSpace(10**6)
    levels = np.arange(space.dim)
    assert ladder_commutator_residual(space, np.ones(space.dim)) <= 1e-9  # products n+1 up to 1e6
    assert ladder_commutator_residual(space, 1.0 / np.sqrt(levels + 1.0)) <= 1e-9
    assert ladder_commutator_residual(space, np.ones(space.dim), margin=0) > space.dim - 1
    assert nonlinear_eigen_residual(space, 1.0 / np.sqrt(levels + 1.0), 0.5 + 0.5j) <= 1e-15
    assert nonlinear_eigen_residual(space, np.ones(space.dim), 3.0) <= 1e-14
