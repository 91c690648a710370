"""Oscillator (Bose) realizations of the Pauli pseudospin operators.

The lowering operator is realized on the whole Fock space as
``sigma_- = f(N) a`` with ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``, which
places ``(-1)^(n l)`` at position ``(2n, 2n+1)`` and zeros everywhere else.
Even exponents give the constant-sign representation, odd exponents the
alternating-sign one, and the operator depends on ``l`` only through its
parity.

Every pseudospin operator is thus a direct sum of 2x2 blocks on the level
pairs ``(|2n>, |2n+1>)``, and for a given ``l`` the blocks of any truncation
fall into at most two distinct classes. The identity catalog runs once per
class in a process, on 2x2 matrices of Python ``complex`` with entries in
``{0, +-1, +-i}``: their products and sums round nowhere, so the catalog is
exact on every distinct block, and every block of the truncation is one of
them. That certificate, like the functional equation, needs no numpy: the
commutators take pair blocks as well as matrices. The blocks, the exponent
check and ``BosonizationParams`` come from :mod:`bosepauli.blocks`. Only
the public dense constructors import numpy, when called.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from . import blocks
from .blocks import _DIAGONAL_BLOCKS, BosonizationParams, _Block, _cos_half_pi, _entries, _exponent, _named_blocks
from .fock import FockSpace

if TYPE_CHECKING:
    import numpy as np


def f_coefficient(n: int, l: int) -> float:
    """Deformation coefficient ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``.

    Zero at odd ``n``, ``(+-1)/sqrt(n+1)`` at even ``n``. The cosine power is
    taken by integer case analysis, never by floating trigonometry, so the
    sign carries no rounding.
    """
    return _cos_half_pi(n) ** _exponent(l) / math.sqrt(n + 1)


def verify_functional_equation(l: int, n_max: int) -> float:
    """Largest deviation of ``(n+1) f^2(n) + n f^2(n-1) - 1`` for ``n <= n_max``.

    Includes the ``n = 0`` boundary term ``|f^2(0) - 1|``. With the integer
    ``c_n = (n+1) f^2(n)``, which depends on ``n mod 4`` alone, term ``n`` is
    ``n(n+1)(c_n + c_(n-1) - 1) / (n(n+1))``: exactly the integer
    ``c_n + c_(n-1) - 1``, repeating from ``n = 5`` on, so the maximum is
    exactly ``0.0`` when the recurrence holds. Only the terms
    ``n <= min(n_max, 4)`` are evaluated, so any ``n_max >= 0`` costs the same.
    """
    _exponent(l)
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be >= 0")
    table = [_cos_half_pi(r) ** (2 * l) for r in range(4)]  # c_n by n mod 4
    sums = [table[0]] + [table[n % 4] + table[n - 1] for n in range(1, min(n_max, 4) + 1)]  # c_n + c_(n-1), c_(-1) = 0
    return float(max(abs(c - 1) for c in sums))


class PauliSet(NamedTuple):
    """The five pseudospin operators assembled from one ``sigma_-``: dense
    matrices from :func:`pauli_set`, or the ``_Block`` pair blocks of one pair,
    with which the identity catalog fills them."""

    sigma_minus: np.ndarray | _Block
    sigma_plus: np.ndarray | _Block
    sigma_one: np.ndarray | _Block
    sigma_two: np.ndarray | _Block
    sigma_three: np.ndarray | _Block


def _pauli_blocks(lowering: _Block) -> PauliSet:
    plus = lowering.dagger()
    return PauliSet(
        sigma_minus=lowering,
        sigma_plus=plus,
        sigma_one=plus + lowering,
        sigma_two=-1j * (plus - lowering),
        sigma_three=_DIAGONAL_BLOCKS["sigma_three"],
    )


def _direct_sum(blocks: list[_Block]) -> np.ndarray:
    """Direct sum of pair blocks, as a dense complex matrix."""
    import numpy as np

    out = np.zeros((2 * len(blocks), 2 * len(blocks)), dtype=complex)
    for row, col, value in _entries(blocks):
        out[row, col] = value
    return out


def sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Lowering operator ``sigma_- = f(N) a = cos^l(pi N/2) (N+1)^(-1/2) a``."""
    return _direct_sum(_named_blocks("sigma_minus", params))


def closed_form_sigma_minus(params: BosonizationParams) -> np.ndarray:
    """Closed-form oracle for :func:`sigma_minus`.

    Writes ``|2n><2n+1|`` for every retained pair, with constant sign for even
    ``l`` and alternating sign ``(-1)^n`` for odd ``l``. Built by index
    assignment alone, independent of the ``f(N) a`` route and of the pair
    blocks, so the two constructions can be compared entrywise.
    """
    import numpy as np

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
    return _direct_sum([_DIAGONAL_BLOCKS["sigma_three"]] * (space.dim // 2))


def parity_projectors(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors ``(P_even, P_odd)`` onto even/odd levels; any ``dim``."""
    import numpy as np

    parity = np.arange(space.dim) % 2
    return np.diag((parity == 0).astype(complex)), np.diag((parity == 1).astype(complex))


def pauli_set(params: BosonizationParams) -> PauliSet:
    """Assemble ``sigma_-``, ``sigma_+ = sigma_-^dag``, ``sigma_1 = sigma_+ + sigma_-``,
    ``sigma_2 = -i(sigma_+ - sigma_-)`` and the diagonal ``sigma_3``."""
    sets = [_pauli_blocks(block) for block in _named_blocks("sigma_minus", params)]
    return PauliSet._make(_direct_sum(operator) for operator in zip(*sets))


def two_level_restriction(op: np.ndarray) -> np.ndarray:
    """Top-left 2x2 block ``<i|op|j>`` for ``i, j`` in ``{0, 1}``."""
    if op.shape[0] < 2 or op.shape[1] < 2:
        raise ValueError("operator is smaller than two levels")
    return op[:2, :2].copy()


def commutator(a: np.ndarray | _Block, b: np.ndarray | _Block) -> np.ndarray | _Block:
    """``a @ b - b @ a``, for two matrices or two pair blocks."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray | _Block, b: np.ndarray | _Block) -> np.ndarray | _Block:
    """``a @ b + b @ a``, for two matrices or two pair blocks."""
    return a @ b + b @ a


class IdentityCheck(NamedTuple):
    identity: str
    equation: str
    residual: float  # the maximum of ``class_residuals``
    class_residuals: tuple[float, ...]  # the residual on each distinct pair block
    first_blocks: tuple[int, ...]  # the index of the first pair block of each class


def _catalog(lowering: _Block) -> list[tuple[str, str, float]]:
    """``(identity, paper equation, residual)`` of every catalog entry on the
    pair block whose ``sigma_-`` is ``lowering``."""
    ops = _pauli_blocks(lowering)
    minus, three = ops.sigma_minus, ops.sigma_three
    eye, zero = _Block(1.0, 0, 0, 1.0), _Block(0.0, 0, 0, 0.0)
    p_even, p_odd = _DIAGONAL_BLOCKS["p_even"], _DIAGONAL_BLOCKS["p_odd"]
    triple = {"sigma_one": ops.sigma_one, "sigma_two": ops.sigma_two, "sigma_three": ops.sigma_three}

    checks: list[tuple[str, str, _Block]] = []
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
    checks.append(("sigma_three_equals_ladder_commutator", "(30)", three - commutator(ops.sigma_plus, minus)))
    checks.append(("anticomm_sigma_minus_sigma_three_recheck", "(31)", anticommutator(minus, three)))
    checks.append(("comm_sigma_minus_sigma_three_recheck", "(32)", commutator(minus, three) - 2.0 * minus))
    checks.append(("sigma_minus_squared", "(1)", ops.sigma_minus @ ops.sigma_minus))
    checks.append(("sigma_plus_squared", "(1)", ops.sigma_plus @ ops.sigma_plus))

    return [(name, eq, diff.max_abs()) for name, eq, diff in checks]


@functools.cache
def _class_catalog(block: tuple) -> tuple[tuple[str, str, float], ...]:
    """:func:`_catalog` of the pair block with entries ``block``, once per process."""
    return tuple(_catalog(_Block(*block)))


def algebra_residuals(params: BosonizationParams) -> list[IdentityCheck]:
    """Residuals for the full pseudospin identity catalog.

    Each entry is the max entrywise modulus of (left side - right side) of
    one identity: the pairwise anticommutators ``{s_i, s_j} = 2 delta_ij``,
    the ladder commutators and anticommutators against ``sigma_1..3``, the
    ladder products against the parity projectors, the diagonal closed form
    of ``sigma_3``, the alternating-representation rechecks of
    ``{sigma_-, sigma_3} = 0`` and ``[sigma_-, sigma_3] = 2 sigma_-``, and
    the nilpotency of ``sigma_+-``. All residuals are exactly zero on even
    truncations. Every operator is a direct sum of pair blocks, so the catalog
    runs on each distinct block of the truncation (found by building every
    block), once per process, and each check carries the residual of each
    class with the index of its first block.
    """
    first_blocks: dict[tuple, int] = {}
    for n in range(params.space.dim // 2):
        first_blocks.setdefault(blocks._lowering_block(n, params.l), n)
    runs = [_class_catalog(block) for block in first_blocks]
    firsts = tuple(first_blocks.values())
    checks = []
    for i, (name, equation, _) in enumerate(runs[0]):
        residuals = tuple(run[i][2] for run in runs)
        checks.append(IdentityCheck(name, equation, max(residuals), residuals, firsts))
    return checks
