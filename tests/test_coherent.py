import math

import numpy as np
import pytest

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
    value = float(np.sum(grid.radial_weights * grid.radial_nodes))
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


def test_grid_rejects_non_finite_laguerre_rule():
    # numpy's laggauss overflows its weights to NaN from about 187 nodes
    with pytest.raises(ValueError, match="radial_count=187"):
        quadrature_grid(187, 4)


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
    reversed_grid = QuadratureGrid(grid.radial_nodes[::-1], grid.radial_weights[::-1], grid.angular_count)
    forward = resolution_residual(space, "even-plain", grid)
    backward = resolution_residual(space, "even-plain", reversed_grid)
    assert abs(forward - backward) <= 1e-13


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


def test_deformation_values_must_be_finite():
    with pytest.raises(ValueError):
        nonlinear_coherent_ket(FockSpace(4), lambda n: math.inf, 0.5)


def test_deformed_annihilator_matches_coefficient_action():
    space = FockSpace(6)
    f = lambda n: 2.0 + n
    op = deformed_annihilator(space, f)
    ket = fock_ket(space, 3)
    assert np.allclose(op @ ket, f(2) * math.sqrt(3) * fock_ket(space, 2), atol=1e-14)


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
