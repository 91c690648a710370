import math
import re
from fractions import Fraction

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
import bosepauli.blocks
from bosepauli import pauli
from bosepauli.pauli import _Block, _direct_sum, _entries

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


def _fraction_functional_equation(l, n_max):
    # reference: every term in exact rational arithmetic, one level at a time
    def f_squared(n):
        return Fraction(pauli._cos_half_pi(n) ** (2 * l), n + 1)

    worst = abs(1 * f_squared(0) - 1)
    for n in range(1, n_max + 1):
        worst = max(worst, abs((n + 1) * f_squared(n) + n * f_squared(n - 1) - 1))
    return float(worst)


@pytest.mark.parametrize("n_max", (0, 1, 2, 999, 1000))
@pytest.mark.parametrize("l", range(1, 13))
def test_functional_equation_matches_rational_reference(l, n_max):
    fast = verify_functional_equation(l, n_max)
    assert fast == _fraction_functional_equation(l, n_max)
    assert math.copysign(1.0, fast) == 1.0


WRONG_COSINE_TABLES = ((1, 0, 2, 0), (1, 1, -1, 0), (0, 0, -1, 0), (1, 0, 1, 2))  # stand-ins for cos(pi n / 2), by n mod 4


@pytest.mark.parametrize("table", WRONG_COSINE_TABLES)
@pytest.mark.parametrize("l", (1, 2, 12))
def test_functional_equation_reports_a_wrong_cosine_table(monkeypatch, table, l):
    monkeypatch.setattr(pauli, "_cos_half_pi", lambda n: table[n % 4])
    for n_max in (0, 1, 5, 1000):
        expected = _fraction_functional_equation(l, n_max)
        assert verify_functional_equation(l, n_max) == expected
    assert expected != 0.0


@pytest.mark.parametrize("n_max", (-1, -1000))
def test_functional_equation_rejects_n_max_outside_the_exact_range(n_max):
    with pytest.raises(ValueError, match="n_max"):
        verify_functional_equation(1, n_max)


@pytest.mark.parametrize("n_max", (2**26, 10**9))
@pytest.mark.parametrize("table", (None, *WRONG_COSINE_TABLES))
def test_functional_equation_terms_repeat_past_n_4_for_any_n_max(monkeypatch, table, n_max):
    # the terms repeat with period 4 for any table, so a large n_max adds nothing
    if table is not None:
        monkeypatch.setattr(pauli, "_cos_half_pi", lambda n: table[n % 4])
    for l in (1, 2, 12):
        expected = _fraction_functional_equation(l, 4)
        assert verify_functional_equation(l, n_max) == expected
        assert (expected == 0.0) == (table is None)


# ------------------------------------------------------------------ sigma_-


def test_params_validation():
    with pytest.raises(ValueError):
        BosonizationParams(0, FockSpace(4))
    with pytest.raises(ValueError):
        BosonizationParams(2, FockSpace(5))


EXPONENT_ENTRIES = {
    "BosonizationParams": lambda l: BosonizationParams(l, FockSpace(4)),
    "f_coefficient": lambda l: f_coefficient(1, l),
    "verify_functional_equation": lambda l: verify_functional_equation(l, 5),
}


@pytest.mark.parametrize("l", (0, -1, 1.5, True, "2"), ids=repr)
@pytest.mark.parametrize("entry", EXPONENT_ENTRIES)
def test_every_exponent_entry_rejects_a_bad_l_with_one_message(entry, l):
    # isinstance(True, int) holds, so a bool needs its own rejection
    with pytest.raises(ValueError, match=re.escape(f"exponent l must be a positive integer, got {l!r}")):
        EXPONENT_ENTRIES[entry](l)


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


def _outer_product_sigma_minus(params):
    # reference: the sum of |2n><2n+1| outer products of basis kets
    space = params.space
    out = np.zeros((space.dim, space.dim), dtype=complex)
    sign = 1.0
    for n in range(space.dim // 2):
        out += sign * np.outer(fock_ket(space, 2 * n), fock_ket(space, 2 * n + 1))
        if params.l % 2 == 1:
            sign = -sign
    return out


@pytest.mark.parametrize("l", EXPONENTS)
def test_closed_form_matches_outer_product_sum(l):
    for dim in range(2, 65, 2):
        assert np.array_equal(closed_form_sigma_minus(_params(l, dim)), _outer_product_sigma_minus(_params(l, dim)))


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


def test_catalog_rechecks_keep_their_paper_labels():
    labels = {c.identity: c.equation for c in algebra_residuals(_params(1, 8))}
    assert labels["sigma_three_equals_ladder_commutator"] == "(30)"
    assert labels["anticomm_sigma_minus_sigma_three_recheck"] == "(31)"
    assert labels["comm_sigma_minus_sigma_three_recheck"] == "(32)"


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


@pytest.mark.parametrize("l", range(1, 13))
def test_catalog_runs_once_per_distinct_block_class(monkeypatch, l):
    runs = []
    catalog = pauli._catalog

    def counting(lowering):
        runs.append(lowering)
        return catalog(lowering)

    monkeypatch.setattr(pauli, "_catalog", counting)
    for dim, classes in ((2, 1), (4, 1 if l % 2 == 0 else 2), (4096, 1 if l % 2 == 0 else 2)):
        runs.clear()
        pauli._class_catalog.cache_clear()
        checks = algebra_residuals(_params(l, dim))
        assert len(runs) == classes
        assert all(len(check.class_residuals) == len(check.first_blocks) == classes for check in checks)
        assert checks[0].first_blocks == tuple(range(classes))


def test_catalog_certifies_a_million_level_truncation():
    for l in (1, 2):
        checks = algebra_residuals(_params(l, 10**6))
        assert len(checks) == 30
        assert all(check.residual == 0.0 for check in checks)


# ------------------------------------------------ numpy stack catalog oracle


def _diagonal_stack(upper, lower, pairs):
    return np.broadcast_to(np.diag([upper, lower]).astype(complex), (pairs, 2, 2))


def _stack_catalog(params, modulus=np.abs):
    # reference: the whole identity catalog on (dim/2, 2, 2) numpy stacks of
    # every pair block, with the residual of each identity on each block
    pairs = params.space.dim // 2
    minus = np.array([bosepauli.blocks._lowering_block(n, params.l) for n in range(pairs)], dtype=complex).reshape(pairs, 2, 2)
    plus = dagger(minus)
    ops = pauli.PauliSet(minus, plus, plus + minus, -1j * (plus - minus), _diagonal_stack(-1.0, 1.0, pairs))
    eye, zero = _diagonal_stack(1.0, 1.0, pairs), _diagonal_stack(0.0, 0.0, pairs)
    p_even, p_odd = _diagonal_stack(1.0, 0.0, pairs), _diagonal_stack(0.0, 1.0, pairs)
    triple = {"sigma_one": ops.sigma_one, "sigma_two": ops.sigma_two, "sigma_three": ops.sigma_three}

    checks = []
    for name_i, op_i in triple.items():
        for name_j, op_j in triple.items():
            target = 2.0 * eye if name_i == name_j else zero
            checks.append((f"anticomm_{name_i}_{name_j}", "(7)", anticommutator(op_i, op_j) - target))
    for name, op, sign in (("sigma_plus", ops.sigma_plus, 1.0), ("sigma_minus", ops.sigma_minus, -1.0)):
        checks.append((f"comm_{name}_sigma_one", "(9)", commutator(op, ops.sigma_one) - sign * ops.sigma_three))
        checks.append((f"comm_{name}_sigma_two", "(9)", commutator(op, ops.sigma_two) - 1j * ops.sigma_three))
        checks.append((f"comm_{name}_sigma_three", "(9)", commutator(op, ops.sigma_three) + 2.0 * sign * op))
        checks.append((f"anticomm_{name}_sigma_one", "(10)", anticommutator(op, ops.sigma_one) - eye))
        checks.append((f"anticomm_{name}_sigma_two", "(10)", anticommutator(op, ops.sigma_two) - sign * 1j * eye))
        checks.append((f"anticomm_{name}_sigma_three", "(10)", anticommutator(op, ops.sigma_three)))
    checks.append(("comm_sigma_plus_sigma_minus", "(9)", commutator(ops.sigma_plus, ops.sigma_minus) - ops.sigma_three))
    checks.append(("anticomm_sigma_plus_sigma_minus", "(10)", anticommutator(ops.sigma_plus, ops.sigma_minus) - eye))
    checks.append(("sigma_plus_sigma_minus_equals_odd_projector", "(29)", ops.sigma_plus @ ops.sigma_minus - p_odd))
    checks.append(("sigma_minus_sigma_plus_equals_even_projector", "(29)", ops.sigma_minus @ ops.sigma_plus - p_even))
    checks.append(("sigma_three_equals_ladder_commutator", "(30)", "comm_sigma_plus_sigma_minus"))
    checks.append(("anticomm_sigma_minus_sigma_three_recheck", "(31)", "anticomm_sigma_minus_sigma_three"))
    checks.append(("comm_sigma_minus_sigma_three_recheck", "(32)", "comm_sigma_minus_sigma_three"))
    checks.append(("sigma_minus_squared", "(1)", ops.sigma_minus @ ops.sigma_minus))
    checks.append(("sigma_plus_squared", "(1)", ops.sigma_plus @ ops.sigma_plus))

    blocks = {name: modulus(diff).max(axis=(1, 2)) for name, _, diff in checks if not isinstance(diff, str)}
    return [(name, eq, blocks[diff if isinstance(diff, str) else name]) for name, eq, diff in checks]


def _assert_matches_stack_catalog(params, modulus=np.abs):
    reference = _stack_catalog(params, modulus)
    checks = algebra_residuals(params)
    assert [(c.identity, c.equation) for c in checks] == [(name, eq) for name, eq, _ in reference]
    for check, (_, _, per_block) in zip(checks, reference):
        assert check.residual == float(per_block.max()), check.identity
        assert math.copysign(1.0, check.residual) == 1.0
        # each class residual is its first block's, and every block equals one class
        assert check.class_residuals == tuple(float(per_block[n]) for n in check.first_blocks), check.identity
        assert set(per_block.tolist()) <= set(check.class_residuals), check.identity


@pytest.mark.parametrize("l", range(1, 13))
def test_class_catalog_is_bit_equal_to_the_stack_catalog(l):
    for dim in (*range(2, 65, 2), 128, 256, 512):
        _assert_matches_stack_catalog(_params(l, dim))


_GAUSSIAN_UNIT_BLOCK = st.tuples(*[st.sampled_from((0, 1, -1, 1j, -1j, 0.5, 0.25j))] * 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.dictionaries(st.integers(0, 39), _GAUSSIAN_UNIT_BLOCK, max_size=4))
def test_class_catalog_matches_the_stack_catalog_on_defective_blocks(l, pairs, defects):
    lowering_block = bosepauli.blocks._lowering_block

    def defective(n, exponent):
        return defects.get(n) or lowering_block(n, exponent)

    # Off the Gaussian integers np.abs and complex.__abs__ may round a modulus
    # differently; the reference takes it as the catalog does, so only the
    # block arithmetic is compared.
    python_abs = np.vectorize(abs, otypes=[float])
    original, bosepauli.blocks._lowering_block = bosepauli.blocks._lowering_block, defective
    try:
        _assert_matches_stack_catalog(_params(l, 2 * pairs), python_abs)
    finally:
        bosepauli.blocks._lowering_block = original


# ------------------------------------------------------------- pair blocks


_UNIT = st.sampled_from((0, 1, -1, 1j, -1j))  # every product and sum below is exact


def _unit_blocks(key):
    return st.shared(st.integers(1, 6), key=key).flatmap(
        lambda pairs: st.lists(st.builds(_Block, _UNIT, _UNIT, _UNIT, _UNIT), min_size=pairs, max_size=pairs)
    )


@settings(max_examples=100, deadline=None)
@given(_unit_blocks("pairs"), _unit_blocks("pairs"))
def test_block_operations_commute_with_densifying(a, b):
    dense_a, dense_b = _direct_sum(a), _direct_sum(b)
    assert np.array_equal(_direct_sum([commutator(x, y) for x, y in zip(a, b)]), commutator(dense_a, dense_b))
    assert np.array_equal(_direct_sum([anticommutator(x, y) for x, y in zip(a, b)]), anticommutator(dense_a, dense_b))
    assert np.array_equal(_direct_sum([x.dagger() for x in a]), dagger(dense_a))
    assert max(x.max_abs() for x in a) == max_abs_norm(dense_a)


def test_densify_places_blocks_on_level_pairs():
    blocks = [_Block(4 * n + 1, 4 * n + 2, 4 * n + 3, 4 * n + 4) for n in range(3)]
    dense = _direct_sum(blocks)
    assert dense.shape == (6, 6) and dense.dtype == complex
    for n, block in enumerate(blocks):
        assert np.array_equal(dense[2 * n : 2 * n + 2, 2 * n : 2 * n + 2], [[block.a, block.b], [block.c, block.d]])
    assert np.count_nonzero(dense) == 12


_ENTRY = st.sampled_from((0, -0.0, 0j, complex(-0.0, -0.0), 1, -1.5, 1j, complex(-0.0, 2), math.nan))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(_Block, _ENTRY, _ENTRY, _ENTRY, _ENTRY), max_size=6))
def test_entries_are_the_nonzero_entries_of_the_direct_sum_in_row_major_order(blocks):
    # reference: numpy's row-major nonzero scan of the dense matrix
    dense = _direct_sum(blocks)
    expected = [(i, j, repr(complex(dense[i, j]))) for i, j in zip(*dense.nonzero())]
    assert [(i, j, repr(complex(value))) for i, j, value in _entries(blocks)] == expected


def test_dense_constructors_return_numpy_arrays():
    params = _params(3, 8)
    arrays = [sigma_minus(params), closed_form_sigma_minus(params), sigma_three(params.space)]
    arrays += [*parity_projectors(params.space), *pauli_set(params)]
    arrays.append(two_level_restriction(arrays[0]))
    assert all(isinstance(a, np.ndarray) and a.dtype == complex for a in arrays)
