import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bosepauli import FockSpace, anticommutator, commutator, max_abs_norm
from bosepauli.dense import fock_ket
from dense_oracles import annihilator, creator, dagger, number_operator


def test_space_construction():
    assert FockSpace(2).dim == 2
    assert FockSpace(64).dim == 64


def test_space_rejects_fewer_than_two_levels():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        FockSpace(0)


@pytest.mark.parametrize("dim", (4.0, np.int64(4), "4", True, None), ids=repr)
def test_space_rejects_a_dim_that_is_not_an_int_by_the_integer_rule(dim):
    # before, each was blamed on the level count: "a Fock space needs at least two levels"
    with pytest.raises(ValueError) as error:
        FockSpace(dim)
    assert str(error.value) == f"dim must be a positive integer, got {dim!r}"


def test_space_keeps_the_two_level_message_for_one_level_and_the_integer_rule_below_it():
    with pytest.raises(ValueError) as error:
        FockSpace(1)
    assert str(error.value) == "a Fock space needs at least two levels, got dim=1"
    for dim in (0, -3):
        with pytest.raises(ValueError) as error:
            FockSpace(dim)
        assert str(error.value) == f"dim must be a positive integer, got {dim}"


def test_annihilator_two_levels_is_sigma_minus_matrix():
    assert np.array_equal(annihilator(FockSpace(2)), np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilator_entries():
    a = annihilator(FockSpace(4))
    assert a[0, 1] == 1.0
    assert a[1, 2] == math.sqrt(2)
    assert a[2, 3] == math.sqrt(3)
    assert np.count_nonzero(a) == 3


def test_annihilator_kills_vacuum():
    space = FockSpace(5)
    assert np.array_equal(annihilator(space) @ fock_ket(space, 0), np.zeros(5, dtype=complex))


def test_creator_two_levels():
    assert np.array_equal(creator(FockSpace(2)), np.array([[0, 0], [1, 0]], dtype=complex))


def test_creator_annihilates_top_level():
    space = FockSpace(6)
    top = fock_ket(space, 5)
    assert np.array_equal(creator(space) @ top, np.zeros(6, dtype=complex))


def test_creator_raises_with_sqrt_weight():
    space = FockSpace(3)
    raised = creator(space) @ fock_ket(space, 1)
    assert np.array_equal(raised, math.sqrt(2) * fock_ket(space, 2))


def test_creator_is_dagger_of_annihilator():
    for dim in (2, 3, 8, 33):
        space = FockSpace(dim)
        assert np.array_equal(creator(space), dagger(annihilator(space)))


def test_number_operator_diagonal():
    assert np.array_equal(number_operator(FockSpace(3)), np.diag([0, 1, 2]).astype(complex))


def test_number_operator_matches_ladder_product():
    # sqrt(n)*sqrt(n) reproduces n only to rounding in doubles
    # (math.sqrt(2)**2 != 2), so the product check carries a tolerance.
    for dim in (2, 5, 16, 64):
        space = FockSpace(dim)
        product = creator(space) @ annihilator(space)
        assert max_abs_norm(product - number_operator(space)) <= 1e-12
        # the truncated sqrt(dim) factor multiplies a zero row, exactly
        assert (annihilator(space) @ creator(space))[dim - 1, dim - 1] == 0


def test_ladder_commutator_truncation_profile():
    for dim in (2, 4, 16, 64):
        space = FockSpace(dim)
        comm = commutator(annihilator(space), creator(space))
        interior = comm[: dim - 1, : dim - 1]
        assert max_abs_norm(interior - np.eye(dim - 1)) <= 1e-12
        assert abs(comm[dim - 1, dim - 1] - (1 - dim)) <= 1e-12 * dim
        off_diag = comm - np.diag(np.diag(comm))
        assert max_abs_norm(off_diag) == 0.0


def test_number_eigenvector():
    space = FockSpace(6)
    ket = fock_ket(space, 3)
    assert np.array_equal(number_operator(space) @ ket, 3.0 * ket)


def test_dagger_involution():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(dagger(dagger(a)), a)


def test_identity_law_and_trivial_commutators():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    eye = np.eye(6, dtype=complex)
    assert np.array_equal(a @ eye, a)
    assert max_abs_norm(commutator(a, a)) == 0.0
    assert max_abs_norm(commutator(eye, a)) == 0.0
    assert np.array_equal(anticommutator(a, eye), 2.0 * a)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        commutator(np.eye(3, dtype=complex), np.eye(4, dtype=complex))


def test_max_abs_norm_zero_matrix():
    assert max_abs_norm(np.zeros((4, 4), dtype=complex)) == 0.0


@pytest.mark.parametrize("empty", [np.zeros(0, dtype=complex), np.zeros((0, 3)), []])
def test_max_abs_norm_of_an_empty_array_is_zero(empty):
    # np.max of an empty array raises; the residual of no entries is 0.0
    assert max_abs_norm(empty) == 0.0


def test_inner_orthonormal_basis():
    space = FockSpace(5)
    for n in range(5):
        for m in range(5):
            expected = 1.0 if n == m else 0.0
            assert np.vdot(fock_ket(space, n), fock_ket(space, m)) == expected


def test_inner_conjugates_first_argument():
    space = FockSpace(3)
    u = fock_ket(space, 1)
    v = fock_ket(space, 1)
    assert np.vdot(2j * u, v) == -2j


def test_fock_ket_range_check():
    space = FockSpace(4)
    with pytest.raises(IndexError):
        fock_ket(space, 4)
    with pytest.raises(IndexError):
        fock_ket(space, -1)


@pytest.mark.parametrize("n", (True, False, 1.5, 2.0), ids=repr)
def test_fock_ket_rejects_a_level_that_is_not_an_int_naming_n(n):
    # numpy reads True as 1 in a mask, and ket[True] = 1.0 sets every level
    with pytest.raises(ValueError, match=re.escape(f"level n must be a non-negative integer, got {n!r}")):
        fock_ket(FockSpace(4), n)


_unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def _square(side_key):
    return arrays(
        np.complex128,
        st.tuples(st.shared(st.integers(2, 8), key=side_key), st.shared(st.integers(2, 8), key=side_key)),
        elements=_unit_complex,
    )


@settings(max_examples=50, deadline=None)
@given(_square("n"), _square("n"), _square("n"))
def test_matmul_associativity(a, b, c):
    assert max_abs_norm((a @ b) @ c - a @ (b @ c)) <= 1e-13


def test_matmul_associativity_at_desk_scale():
    rng = np.random.default_rng(5)
    a, b, c = (rng.uniform(-1, 1, (64, 64)) + 1j * rng.uniform(-1, 1, (64, 64)) for _ in range(3))
    assert max_abs_norm((a @ b) @ c - a @ (b @ c)) <= 1e-13


@settings(max_examples=50, deadline=None)
@given(
    _square("m"),
    arrays(np.complex128, st.shared(st.integers(2, 8), key="m"), elements=_unit_complex),
    arrays(np.complex128, st.shared(st.integers(2, 8), key="m"), elements=_unit_complex),
)
def test_adjoint_identity(a, v, w):
    lhs = np.vdot(v, a @ w)
    rhs = np.vdot(w, dagger(a) @ v)
    assert abs(lhs - rhs.conjugate()) <= 1e-13
