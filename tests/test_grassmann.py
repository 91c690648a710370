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
    grassmann_scale,
    max_abs_amplitude,
    sigma_minus,
    sigma_minus_eigenket,
)


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


def test_grassmann_scale_squares_eigenvalue_away():
    space = FockSpace(4)
    xi = GrassmannScalar(0, 1 - 2j)
    ket = sigma_minus_eigenket(space, xi)
    scaled = grassmann_scale(xi, ket)
    # xi * xi on level 1 vanishes identically
    assert scaled.amplitude(1) == GrassmannScalar(0, 0)
    assert scaled.amplitude(0) == GrassmannScalar(0, xi.soul)


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
