import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bosepauli import (
    BosonizationParams,
    FockSpace,
    algebra_residuals,
    anticommutator,
    closed_form_sigma_minus,
    commutator,
    dagger,
    f_coefficient,
    fock_ket,
    max_abs_norm,
    parity_projectors,
    pauli_set,
    sigma_minus,
    sigma_three,
    two_level_restriction,
    verify_functional_equation,
)
from bosepauli import pauli
from bosepauli.pauli import _densify

EVEN_DIMS = (2, 4, 8, 16, 32, 64)
EXPONENTS = (1, 2, 3, 4, 5, 6)


def _params(l, dim):
    return BosonizationParams(l, FockSpace(dim))


# ---------------------------------------------------------------- coefficient


@pytest.mark.parametrize("l", EXPONENTS)
def test_f_coefficient_ground_level(l):
    assert f_coefficient(0, l) == 1.0


@pytest.mark.parametrize("l", EXPONENTS)
def test_f_coefficient_vanishes_on_odd_levels(l):
    assert all(f_coefficient(n, l) == 0.0 for n in range(1, 101, 2))


def test_f_coefficient_level_two_signs():
    assert f_coefficient(2, 1) == -1.0 / math.sqrt(3)
    assert f_coefficient(2, 2) == 1.0 / math.sqrt(3)
    assert abs(f_coefficient(2, 1) + 0.5773503) < 1e-7


@pytest.mark.parametrize("l", EXPONENTS)
def test_f_coefficient_even_level_magnitude(l):
    for m in range(0, 30):
        assert abs(f_coefficient(2 * m, l)) == 1.0 / math.sqrt(2 * m + 1)


# ------------------------------------------------------- functional equation


@pytest.mark.parametrize("l", EXPONENTS)
def test_functional_equation_exact_zero(l):
    assert verify_functional_equation(l, 100) == 0.0


def test_functional_equation_ground_term():
    # the n = 0 constraint alone forces f(0)^2 = 1
    for l in EXPONENTS:
        assert f_coefficient(0, l) ** 2 == 1.0


# ------------------------------------------------------------------ sigma_-


def test_params_validation():
    with pytest.raises(ValueError):
        BosonizationParams(0, FockSpace(4))
    with pytest.raises(ValueError):
        BosonizationParams(2, FockSpace(5))


def test_sigma_minus_even_exponent_matrix():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = 1.0
    expected[2, 3] = 1.0
    assert np.array_equal(sigma_minus(_params(2, 4)), expected)


def test_sigma_minus_odd_exponent_alternates():
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 1] = 1.0
    expected[2, 3] = -1.0
    expected[4, 5] = 1.0
    assert np.array_equal(sigma_minus(_params(1, 6)), expected)


def test_sigma_minus_depends_only_on_exponent_parity():
    for dim in EVEN_DIMS:
        for l in (3, 4, 5, 6):
            assert np.array_equal(sigma_minus(_params(l, dim)), sigma_minus(_params(l - 2, dim)))


def test_sigma_minus_entries_are_exact_units():
    m = sigma_minus(_params(3, 64))
    assert np.all(np.isin(m, (0, 1, -1)))


@pytest.mark.parametrize("l", EXPONENTS)
@pytest.mark.parametrize("dim", EVEN_DIMS)
def test_oracle_equivalence(l, dim):
    assert np.array_equal(sigma_minus(_params(l, dim)), closed_form_sigma_minus(_params(l, dim)))


def test_closed_form_smallest_space():
    assert np.array_equal(closed_form_sigma_minus(_params(1, 2)), np.array([[0, 1], [0, 0]], dtype=complex))


# ------------------------------------------------------------- diagonal set


def test_sigma_three_values():
    assert np.array_equal(sigma_three(FockSpace(4)), np.diag([-1, 1, -1, 1]).astype(complex))


def test_sigma_three_rejects_odd_dim():
    with pytest.raises(ValueError):
        sigma_three(FockSpace(5))


def test_sigma_three_equals_ladder_commutator():
    for l in (1, 2):
        for dim in (2, 8, 64):
            ops = pauli_set(_params(l, dim))
            assert np.array_equal(ops.sigma_three, commutator(ops.sigma_plus, ops.sigma_minus))


def test_sigma_three_equals_projector_difference():
    for dim in (2, 6, 16):
        p_even, p_odd = parity_projectors(FockSpace(dim))
        assert np.array_equal(sigma_three(FockSpace(dim)), p_odd - p_even)


def test_parity_projector_values():
    p_even, p_odd = parity_projectors(FockSpace(4))
    assert np.array_equal(p_even, np.diag([1, 0, 1, 0]).astype(complex))
    assert np.array_equal(p_odd, np.diag([0, 1, 0, 1]).astype(complex))


def test_projectors_from_ladder_products():
    for l in (1, 2, 5):
        for dim in (2, 16):
            ops = pauli_set(_params(l, dim))
            p_even, p_odd = parity_projectors(FockSpace(dim))
            assert np.array_equal(ops.sigma_minus @ ops.sigma_plus, p_even)
            assert np.array_equal(ops.sigma_plus @ ops.sigma_minus, p_odd)


def test_projector_idempotence_and_completeness():
    p_even, p_odd = parity_projectors(FockSpace(8))
    assert np.array_equal(p_even @ p_even, p_even)
    assert np.array_equal(p_odd @ p_odd, p_odd)
    assert np.array_equal(p_even + p_odd, np.eye(8, dtype=complex))


# ---------------------------------------------------------------- pauli set


def test_pauli_set_two_levels():
    ops = pauli_set(_params(2, 2))
    assert np.array_equal(ops.sigma_one, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(ops.sigma_two, np.array([[0, 1j], [-1j, 0]], dtype=complex))
    assert max_abs_norm(anticommutator(ops.sigma_one, ops.sigma_two)) == 0.0


def test_sigma_plus_is_adjoint():
    for l in (1, 2):
        ops = pauli_set(_params(l, 10))
        assert np.array_equal(ops.sigma_plus, dagger(ops.sigma_minus))


def test_sigma_one_squares_to_identity():
    for l in (1, 2, 3):
        for dim in (2, 12):
            ops = pauli_set(_params(l, dim))
            assert np.array_equal(ops.sigma_one @ ops.sigma_one, np.eye(dim, dtype=complex))


def test_sigma_minus_is_nilpotent_matrix():
    for l in (1, 2):
        m = sigma_minus(_params(l, 32))
        assert max_abs_norm(m @ m) == 0.0


# ------------------------------------------------------ two-level embedding


def test_two_level_restriction_of_sigma_minus():
    fermion_matrix = np.array([[0, 1], [0, 0]], dtype=complex)
    for l in EXPONENTS:
        for dim in EVEN_DIMS:
            assert np.array_equal(two_level_restriction(sigma_minus(_params(l, dim))), fermion_matrix)


def test_two_level_restriction_of_sigma_three():
    assert np.array_equal(two_level_restriction(sigma_three(FockSpace(8))), np.diag([-1, 1]).astype(complex))


def test_two_level_restriction_of_identity():
    assert np.array_equal(two_level_restriction(np.eye(6, dtype=complex)), np.eye(2, dtype=complex))


def test_two_level_restriction_needs_two_levels():
    with pytest.raises(ValueError):
        two_level_restriction(np.ones((1, 1), dtype=complex))


# ------------------------------------------------------------ full catalog


def test_catalog_has_thirty_identities():
    checks = algebra_residuals(_params(2, 4))
    assert len(checks) == 30
    names = {c.identity for c in checks}
    assert "anticomm_sigma_one_sigma_two" in names
    assert "sigma_three_equals_ladder_commutator" in names
    assert "comm_sigma_minus_sigma_three_recheck" in names


@pytest.mark.parametrize("l", (1, 2))
def test_catalog_exact_at_dim_64(l):
    for check in algebra_residuals(_params(l, 64)):
        assert check.residual == 0.0, check


def test_ladder_anticommutator_smallest_space():
    checks = {c.identity: c.residual for c in algebra_residuals(_params(3, 2))}
    assert checks["anticomm_sigma_plus_sigma_minus"] == 0.0


@pytest.mark.parametrize("l", (1, 2))
def test_catalog_exact_at_dim_4096(l):
    for check in algebra_residuals(_params(l, 4096)):
        assert check.residual == 0.0, check


def test_catalog_operands_are_pair_block_stacks(monkeypatch):
    shapes = set()

    def recording(product):
        def wrapped(a, b):
            shapes.update((a.shape, b.shape))
            return product(a, b)

        return wrapped

    monkeypatch.setattr(pauli, "commutator", recording(commutator))
    monkeypatch.setattr(pauli, "anticommutator", recording(anticommutator))
    algebra_residuals(_params(3, 16))
    assert shapes == {(8, 2, 2)}


# ------------------------------------------------------------- pair blocks


def _unit_stacks(key):
    # entries in {0, +-1, +-i}: every product and sum below is exact
    return arrays(
        np.complex128,
        st.tuples(st.shared(st.integers(1, 6), key=key), st.just(2), st.just(2)),
        elements=st.sampled_from((0, 1, -1, 1j, -1j)),
    )


@settings(max_examples=100, deadline=None)
@given(_unit_stacks("pairs"), _unit_stacks("pairs"))
def test_block_operations_commute_with_densifying(a, b):
    dense_a, dense_b = _densify(a), _densify(b)
    assert np.array_equal(_densify(commutator(a, b)), commutator(dense_a, dense_b))
    assert np.array_equal(_densify(anticommutator(a, b)), anticommutator(dense_a, dense_b))
    assert np.array_equal(_densify(dagger(a)), dagger(dense_a))
    assert max_abs_norm(a) == max_abs_norm(dense_a)


def test_densify_places_blocks_on_level_pairs():
    blocks = np.arange(12, dtype=complex).reshape(3, 2, 2) + 1
    dense = _densify(blocks)
    assert dense.shape == (6, 6)
    for n in range(3):
        assert np.array_equal(dense[2 * n : 2 * n + 2, 2 * n : 2 * n + 2], blocks[n])
    assert np.count_nonzero(dense) == 12
