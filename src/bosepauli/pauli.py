"""Oscillator (Bose) realizations of the Pauli pseudospin operators.

The lowering operator is realized on the whole Fock space as
``sigma_- = f(N) a`` with ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``, which
places ``(-1)^(n l)`` at position ``(2n, 2n+1)`` and zeros everywhere else.
Even exponents give the constant-sign representation, odd exponents the
alternating-sign one, and the operator depends on ``l`` only through its
parity.

Every pseudospin operator is thus a direct sum of 2x2 blocks on the level
pairs ``(|2n>, |2n+1>)``. The identity catalog runs on ``(dim/2, 2, 2)``
stacks of those blocks, with entries in ``{0, +-1, +-i}``: their products
and sums round nowhere in double precision, so on an even-dimensional
truncation the whole catalog is certified with residual exactly zero, not
merely small. Only the public ``sigma_minus``, ``sigma_three`` and
``pauli_set`` assemble dense matrices, from the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fock import (
    FockSpace,
    anticommutator,
    commutator,
    dagger,
)


def _cos_half_pi(n: int) -> int:
    """``cos(pi n / 2)`` as an exact integer, by case analysis on ``n mod 4``."""
    r = n % 4
    if r == 0:
        return 1
    if r == 2:
        return -1
    return 0


def f_coefficient(n: int, l: int) -> float:
    """Deformation coefficient ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``.

    Zero at odd ``n``, ``(+-1)/sqrt(n+1)`` at even ``n``. The cosine power is
    taken by integer case analysis, never by floating trigonometry, so the
    sign carries no rounding.
    """
    return _cos_half_pi(n) ** l / math.sqrt(n + 1)


def verify_functional_equation(l: int, n_max: int) -> float:
    """Largest deviation of ``(n+1) f^2(n) + n f^2(n-1) - 1`` for ``n <= n_max``.

    Includes the ``n = 0`` boundary term ``|f^2(0) - 1|``. All terms at once, as
    exact int64 numerators over the common denominator ``n(n+1)``, both below
    ``2**53`` (a larger ``n_max`` is rejected): one division rounds each exact
    rational once, so the maximum is exactly ``0.0`` when the recurrence holds.
    """
    table = [_cos_half_pi(r) ** (2 * l) for r in range(4)]  # c_n = (n+1) f^2(n) by n mod 4
    if n_max < 0 or n_max * (n_max + 1) * (2 * max(map(abs, table)) + 1) >= 2**53:
        raise ValueError(f"n_max={n_max} must be >= 0 and keep every numerator below 2**53")
    c = np.array(table, dtype=np.int64)[np.arange(n_max + 1) % 4]
    n = np.arange(1, n_max + 1, dtype=np.int64)
    den = n * (n + 1)
    num = (n + 1) * n * c[1:] + n * (n + 1) * c[:-1] - den
    return float(max(abs(c[0] - 1), np.max(np.abs(num) / den, initial=0.0)))


@dataclass(frozen=True)
class BosonizationParams:
    """Exponent ``l >= 1`` together with an even-dimensional space.

    The truncation must be even so the retained levels pair completely as
    ``(|2n>, |2n+1>)``; the top level is then odd, ``f`` vanishes on it, and
    the pseudospin algebra closes in the finite space with zero error.
    """

    l: int
    space: FockSpace

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 1:
            raise ValueError(f"exponent l must be a positive integer, got {self.l!r}")
        if self.space.dim % 2 != 0:
            raise ValueError(
                f"dim={self.space.dim} is odd; the pseudospin algebra only closes on even truncations"
            )


@dataclass(frozen=True)
class PauliSet:
    """The five pseudospin operators assembled from one ``sigma_-``, either as
    dense matrices or as ``(dim/2, 2, 2)`` stacks of pair blocks."""

    sigma_minus: np.ndarray
    sigma_plus: np.ndarray
    sigma_one: np.ndarray
    sigma_two: np.ndarray
    sigma_three: np.ndarray


def _diagonal_blocks(upper: float, lower: float, pairs: int) -> np.ndarray:
    """``diag(upper, lower)`` on every pair, as a ``(pairs, 2, 2)`` stack."""
    return np.broadcast_to(np.diag([upper, lower]).astype(complex), (pairs, 2, 2))


def _densify(blocks: np.ndarray) -> np.ndarray:
    """Direct sum of a ``(pairs, 2, 2)`` stack: block ``n`` on levels ``(2n, 2n+1)``."""
    pairs = blocks.shape[0]
    out = np.zeros((pairs, 2, pairs, 2), dtype=complex)
    diagonal = np.arange(pairs)
    out[diagonal, :, diagonal, :] = blocks
    return out.reshape(2 * pairs, 2 * pairs)


def _lowering_blocks(params: BosonizationParams) -> np.ndarray:
    # Block n holds the f(N) a entry at (2n, 2n+1), f(2n) sqrt(2n+1) = cos^l(pi n),
    # with the radial factors cancelled analytically: rounded square roots do not
    # cancel in IEEE doubles ((1/sqrt(15))*sqrt(15) != 1), and exactness needs them to.
    pairs = params.space.dim // 2
    blocks = np.zeros((pairs, 2, 2), dtype=complex)
    blocks[:, 0, 1] = [_cos_half_pi(2 * n) ** params.l for n in range(pairs)]
    return blocks


def _pauli_blocks(params: BosonizationParams) -> PauliSet:
    minus = _lowering_blocks(params)
    plus = dagger(minus)
    return PauliSet(
        sigma_minus=minus,
        sigma_plus=plus,
        sigma_one=plus + minus,
        sigma_two=-1j * (plus - minus),
        sigma_three=_diagonal_blocks(-1.0, 1.0, params.space.dim // 2),
    )


def sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Lowering operator ``sigma_- = f(N) a = cos^l(pi N/2) (N+1)^(-1/2) a``."""
    return _densify(_lowering_blocks(params))


def closed_form_sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Closed-form oracle for :func:`sigma_minus`.

    Writes ``|2n><2n+1|`` for every retained pair, with constant sign for even
    ``l`` and alternating sign ``(-1)^n`` for odd ``l``. Built by index
    assignment alone, independent of the ``f(N) a`` route and of the pair
    blocks, so the two constructions can be compared entrywise.
    """
    dim = params.space.dim
    out = np.zeros((dim, dim), dtype=complex)
    n = np.arange(dim // 2)
    out[2 * n, 2 * n + 1] = (-1.0) ** n if params.l % 2 == 1 else 1.0
    return out


def sigma_three(space: FockSpace) -> np.ndarray:
    """Inversion operator ``diag(-1, +1, -1, +1, ...)``.

    The ground state carries eigenvalue ``-1`` in this convention, which is
    opposite to the common ``sigma_z``; it is the closed form of the ladder
    commutator ``[sigma_+, sigma_-]`` on even truncations.
    """
    if space.dim % 2 != 0:
        raise ValueError(f"dim={space.dim} is odd; sigma_three needs an even truncation")
    return _densify(_diagonal_blocks(-1.0, 1.0, space.dim // 2))


def parity_projectors(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors ``(P_even, P_odd)`` onto even/odd levels; any ``dim``."""
    parity = np.arange(space.dim) % 2
    return np.diag((parity == 0).astype(complex)), np.diag((parity == 1).astype(complex))


def pauli_set(params: BosonizationParams) -> PauliSet:
    """Assemble ``sigma_-``, ``sigma_+ = sigma_-^dag``, ``sigma_1 = sigma_+ + sigma_-``,
    ``sigma_2 = -i(sigma_+ - sigma_-)`` and the diagonal ``sigma_3``."""
    blocks = _pauli_blocks(params)
    return PauliSet(**{field.name: _densify(getattr(blocks, field.name)) for field in fields(PauliSet)})


def two_level_restriction(op: np.ndarray) -> np.ndarray:
    """Top-left 2x2 block ``<i|op|j>`` for ``i, j`` in ``{0, 1}``."""
    if op.shape[0] < 2 or op.shape[1] < 2:
        raise ValueError("operator is smaller than two levels")
    return op[:2, :2].copy()


class IdentityCheck(NamedTuple):
    identity: str
    equation: str
    residual: float
    blocks: np.ndarray  # the residual on each pair block; ``residual`` is their maximum


def algebra_residuals(params: BosonizationParams) -> list[IdentityCheck]:
    """Residuals for the full pseudospin identity catalog.

    Each entry is the max entrywise modulus of (left side - right side) of
    one identity: the pairwise anticommutators ``{s_i, s_j} = 2 delta_ij``,
    the ladder commutators and anticommutators against ``sigma_1..3``, the
    ladder products against the parity projectors, the diagonal closed form
    of ``sigma_3``, the alternating-representation rechecks of
    ``{sigma_-, sigma_3} = 0`` and ``[sigma_-, sigma_3] = 2 sigma_-``, and
    the nilpotency of ``sigma_+-``. All residuals are exactly zero on even
    truncations. Every operand is a ``(dim/2, 2, 2)`` stack of pair blocks;
    block ``n`` depends only on ``n`` and ``l``, so each check also carries its
    residual on every block, and a smaller even ``dim`` owns a prefix of them.
    """
    ops = _pauli_blocks(params)
    pairs = params.space.dim // 2
    eye = _diagonal_blocks(1.0, 1.0, pairs)
    zero = _diagonal_blocks(0.0, 0.0, pairs)
    p_even, p_odd = _diagonal_blocks(1.0, 0.0, pairs), _diagonal_blocks(0.0, 1.0, pairs)
    triple = {"sigma_one": ops.sigma_one, "sigma_two": ops.sigma_two, "sigma_three": ops.sigma_three}

    checks: list[tuple[str, str, np.ndarray | str]] = []
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
    # (30)-(32) restate earlier entries term for term ((30) negated): each reuses that entry's residual.
    checks.append(("sigma_three_equals_ladder_commutator", "(30)", "comm_sigma_plus_sigma_minus"))
    checks.append(("anticomm_sigma_minus_sigma_three_recheck", "(31)", "anticomm_sigma_minus_sigma_three"))
    checks.append(("comm_sigma_minus_sigma_three_recheck", "(32)", "comm_sigma_minus_sigma_three"))
    checks.append(("sigma_minus_squared", "(1)", ops.sigma_minus @ ops.sigma_minus))
    checks.append(("sigma_plus_squared", "(1)", ops.sigma_plus @ ops.sigma_plus))

    blocks = {name: np.abs(diff).max(axis=(1, 2)) for name, _, diff in checks if not isinstance(diff, str)}
    rows = [blocks[diff if isinstance(diff, str) else name] for name, _, diff in checks]
    return [IdentityCheck(name, eq, float(row.max()), row) for (name, eq, _), row in zip(checks, rows)]
