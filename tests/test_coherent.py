import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from bosepauli import quadrature
from bosepauli import (
    FockSpace,
    QuadratureGrid,
    RESOLUTION_VARIANTS,
    annihilator,
    coherent_ket,
    deformed_annihilator,
    even_ket,
    f_coefficient,
    fock_ket,
    ladder_commutator_residual,
    max_abs_norm,
    nonlinear_coherent_ket,
    nonlinear_eigen_residual,
    odd_ket,
    phase_relation_residual,
    quadrature_grid,
    resolution_residual,
)

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


def test_laguerre_rule_that_fails_raises_naming_radial_count(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_STEPS", 1)  # no guess lands within one step
    with pytest.raises(ValueError, match="radial_count=16: .*did not converge"):
        quadrature.laguerre_rule(16)
    monkeypatch.undo()
    monkeypatch.setattr(quadrature, "_node_guess", lambda index, count, nodes: 1.0)  # every node finds one root
    with pytest.raises(ValueError, match="radial_count=16: .*not above"):
        quadrature_grid(16, 4)


def test_grid_resolution_predicate():
    assert quadrature_grid(16, 64).resolves(16)
    assert not quadrature_grid(1, 2).resolves(8)


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


def test_deformed_annihilator_matches_coefficient_action():
    space = FockSpace(6)
    f = lambda n: 2.0 + n
    op = deformed_annihilator(space, f)
    ket = fock_ket(space, 3)
    assert np.allclose(op @ ket, f(2) * math.sqrt(3) * fock_ket(space, 2), atol=1e-14)


def test_deformed_annihilator_scales_rows_like_diagonal_product():
    for dim in (16, 512):
        space = FockSpace(dim)
        values = np.array([(1.0 + 0.5j) / (n + 1) - 0.25j * n for n in range(dim)])
        expected = np.diag(values) @ annihilator(space)
        assert np.array_equal(deformed_annihilator(space, values), expected)


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
