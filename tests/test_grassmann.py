import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bosepauli import (
    THETA,
    BosonizationParams,
    FockSpace,
    GrassmannKet,
    GrassmannScalar,
    apply_operator,
    eigen_check,
    fock_ket,
    max_abs_amplitude,
    max_abs_norm,
    sigma_minus,
    sigma_minus_eigenket,
)
from bosepauli import cli, pauli


def test_generator_squares_to_zero():
    assert THETA * THETA == GrassmannScalar(0, 0)


def test_product_drops_soul_squared_term():
    x = GrassmannScalar(1, 2)
    y = GrassmannScalar(3, 4)
    assert x * y == GrassmannScalar(3, 10)


def test_unit_law():
    x = GrassmannScalar(2 - 1j, 0.5j)
    assert x * GrassmannScalar(1, 0) == x
    assert x * 1 == x
    assert 1 * x == x


def test_scalar_embedding_and_linearity():
    x = GrassmannScalar(1, 1j)
    assert 2 * x == GrassmannScalar(2, 2j)
    assert x * 3j == GrassmannScalar(3j, -3)
    assert x + 1 == GrassmannScalar(2, 1j)
    assert 1 - x == GrassmannScalar(0, -1j)
    assert -x == GrassmannScalar(-1, -1j)


_coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _scalars():
    return st.builds(GrassmannScalar, _coeff, _coeff)


@settings(max_examples=100, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_multiplication_associative(x, y, z):
    left = (x * y) * z
    right = x * (y * z)
    assert abs(left.body - right.body) <= 1e-13 * (1 + abs(left.body))
    assert abs(left.soul - right.soul) <= 1e-13 * (1 + abs(left.soul))


@settings(max_examples=100, deadline=None)
@given(_scalars(), _scalars(), _scalars())
@example(GrassmannScalar(0, 2.7705594757633207), GrassmannScalar(998.5j, 0), GrassmannScalar(-999j, 0))
def test_multiplication_distributes(x, y, z):
    left = x * (y + z)
    right = x * y + x * z
    # x*y + x*z may cancel, so rounding scales with the operand products, not the result
    body_scale = abs(x.body) * (abs(y.body) + abs(z.body))
    soul_scale = abs(x.body) * (abs(y.soul) + abs(z.soul)) + abs(x.soul) * (abs(y.body) + abs(z.body))
    assert abs(left.body - right.body) <= 1e-13 * (1 + body_scale)
    assert abs(left.soul - right.soul) <= 1e-13 * (1 + soul_scale)


@settings(max_examples=100, deadline=None)
@given(_coeff)
def test_pure_souls_are_nilpotent(soul):
    x = GrassmannScalar(0, soul)
    assert x * x == GrassmannScalar(0, 0)


# ------------------------------------------------------------------- kets


def test_ket_amplitude_round_trip():
    space = FockSpace(4)
    scalars = [GrassmannScalar(1, 0), GrassmannScalar(0, 2j), GrassmannScalar(-1, 1), GrassmannScalar(0, 0)]
    ket = GrassmannKet(space, np.array([s.body for s in scalars]), np.array([s.soul for s in scalars]))
    assert [ket.amplitude(n) for n in range(4)] == scalars


def test_ket_shape_validation():
    space = FockSpace(4)
    with pytest.raises(ValueError):
        GrassmannKet(space, np.zeros(3, dtype=complex), np.zeros(4, dtype=complex))


def test_apply_identity_and_zero():
    space = FockSpace(4)
    ket = GrassmannKet(space, np.ones(4, dtype=complex), np.full(4, 1j))
    same = apply_operator(np.eye(4, dtype=complex), ket)
    assert np.array_equal(same.body, ket.body)
    assert np.array_equal(same.soul, ket.soul)
    killed = apply_operator(np.zeros((4, 4), dtype=complex), ket)
    assert max_abs_amplitude(killed) == 0.0


def test_sigma_minus_carries_theta_down_one_level():
    space = FockSpace(4)
    op = sigma_minus(BosonizationParams(2, space))
    ket = sigma_minus_eigenket(space, THETA)
    lowered = apply_operator(op, ket)
    assert np.array_equal(lowered.body, np.zeros(4))
    assert np.array_equal(lowered.soul, [1, 0, 0, 0])


def test_eigenket_amplitudes():
    space = FockSpace(4)
    ket = sigma_minus_eigenket(space, THETA)
    assert np.array_equal(ket.body, [1, 0, 0, 0])
    assert np.array_equal(ket.soul, [0, 1, 0, 0])
    doubled = sigma_minus_eigenket(space, 2 * THETA)
    assert doubled.amplitude(1) == GrassmannScalar(0, 2)


def test_eigenket_vacuum_limit():
    space = FockSpace(6)
    ket = sigma_minus_eigenket(space, GrassmannScalar(0, 0))
    assert np.array_equal(ket.body, np.eye(6, dtype=complex)[0])
    assert max_abs_amplitude(apply_operator(np.zeros((6, 6), dtype=complex), ket)) == 0.0
    assert np.all(ket.soul == 0)


def test_eigenket_rejects_nonzero_body():
    with pytest.raises(ValueError):
        sigma_minus_eigenket(FockSpace(4), GrassmannScalar(1, 1))
    with pytest.raises(ValueError, match="zero body"):
        eigen_check(FockSpace(4), 1, GrassmannScalar(1, 1))


@pytest.mark.parametrize("soul", (complex("nan"), complex("inf"), complex(0, float("-inf")), complex(1, float("nan"))))
def test_eigenket_and_eigen_check_reject_a_non_finite_soul(soul):
    with pytest.raises(ValueError):
        sigma_minus_eigenket(FockSpace(4), GrassmannScalar(0, soul))
    with pytest.raises(ValueError, match="finite soul"):
        eigen_check(FockSpace(4), 1, GrassmannScalar(0, soul))


# ------------------------------------------------------------- eigen check


@pytest.mark.parametrize("l", (1, 2))
def test_eigen_check_exact(l):
    dim = 4 if l == 2 else 6
    assert eigen_check(FockSpace(dim), l, THETA) == (0.0, 0.0)


def test_eigen_check_vacuum():
    assert eigen_check(FockSpace(4), 3, GrassmannScalar(0, 0)) == (0.0, 0.0)


def test_eigen_check_soul_grid():
    souls = (THETA, 2 * THETA, GrassmannScalar(0, 1 + 1j))
    for l in (1, 2, 3, 4):
        for dim in (2, 8, 16):
            for xi in souls:
                assert eigen_check(FockSpace(dim), l, xi) == (0.0, 0.0)


def test_double_lowering_kills_any_ket_exactly():
    space = FockSpace(12)
    op = sigma_minus(BosonizationParams(1, space))
    rng = np.random.default_rng(3)
    for _ in range(25):
        ket = GrassmannKet(
            space,
            rng.standard_normal(12) + 1j * rng.standard_normal(12),
            rng.standard_normal(12) + 1j * rng.standard_normal(12),
        )
        assert max_abs_amplitude(apply_operator(op, apply_operator(op, ket))) == 0.0


# ------------------------------------------------------- dense eigen check


def _dense_eigen_check(space, l, xi):
    # reference: sigma_- as a dense D x D matrix applied to the whole D-level ket
    op = sigma_minus(BosonizationParams(l, space))
    ket = GrassmannKet(space, fock_ket(space, 0), xi.soul * fock_ket(space, 1))
    lowered = apply_operator(op, ket)
    expected_body = xi.body * ket.body
    expected_soul = xi.body * ket.soul + xi.soul * ket.body
    eigenvalue_residual = max(max_abs_norm(lowered.body - expected_body), max_abs_norm(lowered.soul - expected_soul))
    return eigenvalue_residual, max_abs_amplitude(apply_operator(op, lowered))


ORACLE_SOULS = (0, 1, 2, 1 + 1j, 1e300, 5e-324)


@pytest.mark.parametrize("l", range(1, 13))
def test_eigen_check_is_bit_equal_to_the_dense_check(l):
    for dim in (*range(2, 65, 2), 256, 1024):
        for soul in ORACLE_SOULS:
            xi = GrassmannScalar(0, soul)
            fast, reference = eigen_check(FockSpace(dim), l, xi), _dense_eigen_check(FockSpace(dim), l, xi)
            assert fast == reference == (0.0, 0.0), (dim, soul)
            assert all(isinstance(r, float) for r in fast)


def test_eigen_check_rejects_what_the_dense_check_rejects():
    for space, l in ((FockSpace(4), 0), (FockSpace(5), 1), (FockSpace(6), 1.5)):
        with pytest.raises(ValueError):
            _dense_eigen_check(space, l, THETA)
        with pytest.raises(ValueError):
            eigen_check(space, l, THETA)


# block 0 of sigma_- is (b00, b01, b10, b11) = (0, 1, 0, 0) for every l
BLOCK_ZERO_DEFECTS = {
    "wrong_sign": (0, -1, 0, 0),
    "top_left_slot": (1, 0, 0, 0),
    "bottom_left_slot": (0, 0, 1, 0),
    "bottom_right_slot": (0, 0, 0, 1),
    "extra_entry": (0, 1, 0.5j, 0),
    "scaled": (0, 1 + 2**-52, 0, 0),
}


@pytest.mark.parametrize("defect", BLOCK_ZERO_DEFECTS)
def test_a_block_zero_defect_fails_the_eigen_check_and_the_cli(monkeypatch, defect):
    lowering_block = pauli._lowering_block

    def defective(n, l):
        return BLOCK_ZERO_DEFECTS[defect] if n == 0 else lowering_block(n, l)

    monkeypatch.setattr(pauli, "_lowering_block", defective)
    for l in (1, 2, 3):
        for dim in (2, 8, 64):
            for soul in (1, 1 + 1j, 1e300):
                xi = GrassmannScalar(0, soul)
                residuals = eigen_check(FockSpace(dim), l, xi)
                assert residuals == _dense_eigen_check(FockSpace(dim), l, xi), (l, dim, soul)
                assert max(residuals) > 0.0
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["grassmann", "--dims", "2,1024", "--ls", "1,2"]) == 1
    assert '"fail": 4' in out.getvalue()


def test_a_defect_above_block_zero_leaves_the_eigen_check_exact(monkeypatch):
    # the eigenket is zero above level 1, so no other block can reach it
    lowering_block = pauli._lowering_block
    monkeypatch.setattr(pauli, "_lowering_block", lambda n, l: (1, 1, 1, 1) if n > 0 else lowering_block(n, l))
    for dim in (4, 64):
        assert eigen_check(FockSpace(dim), 1, THETA) == _dense_eigen_check(FockSpace(dim), 1, THETA) == (0.0, 0.0)
