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
class, on 2x2 matrices of Python ``complex`` with entries in
``{0, +-1, +-i}``: their products and sums round nowhere, so the catalog is
exact on every distinct block, and every block of the truncation is one of
them. That certificate, like the functional equation, needs no numpy, and
neither do the ``dump`` entries, which are read off the blocks of the named
operator. Only the public dense constructors import numpy, when called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .fock import FockSpace, anticommutator, commutator

if TYPE_CHECKING:
    import numpy as np


def _cos_half_pi(n: int) -> int:
    """``cos(pi n / 2)`` as an exact integer, by case analysis on ``n mod 4``."""
    return (1, 0, -1, 0)[n % 4]


def f_coefficient(n: int, l: int) -> float:
    """Deformation coefficient ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``.

    Zero at odd ``n``, ``(+-1)/sqrt(n+1)`` at even ``n``. The cosine power is
    taken by integer case analysis, never by floating trigonometry, so the
    sign carries no rounding.
    """
    return _cos_half_pi(n) ** l / math.sqrt(n + 1)


def verify_functional_equation(l: int, n_max: int) -> float:
    """Largest deviation of ``(n+1) f^2(n) + n f^2(n-1) - 1`` for ``n <= n_max``.

    Includes the ``n = 0`` boundary term ``|f^2(0) - 1|``. Every term is an
    exact Python-integer numerator over the common denominator ``n(n+1)``, both
    kept below ``2**53`` (a larger ``n_max`` is rejected): true division rounds
    each exact rational once, so the maximum is exactly ``0.0`` when the
    recurrence holds.
    """
    table = [_cos_half_pi(r) ** (2 * l) for r in range(4)]  # c_n = (n+1) f^2(n) by n mod 4
    if n_max < 0 or n_max * (n_max + 1) * (2 * max(map(abs, table)) + 1) >= 2**53:
        raise ValueError(f"n_max={n_max} must be >= 0 and keep every numerator below 2**53")
    worst = abs(table[0] - 1)
    for n in range(1, n_max + 1):
        den = n * (n + 1)
        num = (n + 1) * n * table[n % 4] + n * (n + 1) * table[(n - 1) % 4] - den
        worst = max(worst, abs(num) / den)
    return float(worst)


class BosonizationParams(NamedTuple("BosonizationParams", [("l", int), ("space", FockSpace)])):
    """Exponent ``l >= 1`` together with an even-dimensional space.

    The truncation must be even so the retained levels pair completely as
    ``(|2n>, |2n+1>)``; the top level is then odd, ``f`` vanishes on it, and
    the pseudospin algebra closes in the finite space with zero error.
    """

    __slots__ = ()

    def __new__(cls, l: int, space: FockSpace):
        if not isinstance(l, int) or l < 1:
            raise ValueError(f"exponent l must be a positive integer, got {l!r}")
        if space.dim % 2 != 0:
            raise ValueError(f"dim={space.dim} is odd; the pseudospin algebra only closes on even truncations")
        return super().__new__(cls, l, space)


class PauliSet(NamedTuple):
    """The five pseudospin operators assembled from one ``sigma_-``, either as
    dense matrices or as one 2x2 pair block."""

    sigma_minus: np.ndarray
    sigma_plus: np.ndarray
    sigma_one: np.ndarray
    sigma_two: np.ndarray
    sigma_three: np.ndarray


class _Block:
    """2x2 matrix ``[[a, b], [c, d]]`` of Python numbers with the operations
    the catalog uses; exact on Gaussian integers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __matmul__(self, other: _Block) -> _Block:
        return _Block(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: _Block) -> _Block:
        return _Block(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: _Block) -> _Block:
        return _Block(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rmul__(self, scalar) -> _Block:
        return _Block(scalar * self.a, scalar * self.b, scalar * self.c, scalar * self.d)

    def dagger(self) -> _Block:
        return _Block(self.a.conjugate(), self.c.conjugate(), self.b.conjugate(), self.d.conjugate())

    def max_abs(self) -> float:
        return float(max(abs(self.a), abs(self.b), abs(self.c), abs(self.d)))


# the diagonal blocks that are dump targets; the catalog uses them too
_DIAGONAL_BLOCKS = {
    "sigma_three": _Block(-1.0, 0, 0, 1.0),
    "p_even": _Block(1.0, 0, 0, 0.0),
    "p_odd": _Block(0.0, 0, 0, 1.0),
}
DUMPABLE_OPERATORS = ("sigma_minus", "sigma_plus", *_DIAGONAL_BLOCKS)


def _lowering_block(n: int, l: int) -> tuple:
    """Entries ``(b00, b01, b10, b11)`` of pair block ``n`` of ``sigma_-``."""
    # The f(N) a entry at (2n, 2n+1) is f(2n) sqrt(2n+1) = cos^l(pi n), with the
    # radial factors cancelled analytically: rounded square roots do not cancel
    # in IEEE doubles ((1/sqrt(15))*sqrt(15) != 1), and exactness needs them to.
    return (0, _cos_half_pi(2 * n) ** l, 0, 0)


def _named_blocks(name: str, params: BosonizationParams) -> list[_Block]:
    """Pair blocks of the operator named by one of :data:`DUMPABLE_OPERATORS`."""
    pairs = params.space.dim // 2
    if name in _DIAGONAL_BLOCKS:
        return [_DIAGONAL_BLOCKS[name]] * pairs
    if name not in DUMPABLE_OPERATORS:
        raise ValueError(f"unknown operator {name!r}, expected one of {DUMPABLE_OPERATORS}")
    lowering = [_Block(*_lowering_block(n, params.l)) for n in range(pairs)]
    return lowering if name == "sigma_minus" else [block.dagger() for block in lowering]


def _pauli_blocks(lowering: _Block) -> PauliSet:
    plus = lowering.dagger()
    return PauliSet(
        sigma_minus=lowering,
        sigma_plus=plus,
        sigma_one=plus + lowering,
        sigma_two=-1j * (plus - lowering),
        sigma_three=_DIAGONAL_BLOCKS["sigma_three"],
    )


def _entries(blocks: list[_Block]) -> list[tuple[int, int, complex]]:
    """Nonzero ``(row, col, value)`` entries of the direct sum of pair blocks,
    block ``n`` on levels ``(2n, 2n+1)``, in row-major order."""
    return [
        (2 * n + row, 2 * n + col, value)
        for n, block in enumerate(blocks)
        for row, col, value in ((0, 0, block.a), (0, 1, block.b), (1, 0, block.c), (1, 1, block.d))
        if value
    ]


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
    sets = [_pauli_blocks(_Block(*_lowering_block(n, params.l))) for n in range(params.space.dim // 2)]
    return PauliSet._make(_direct_sum(blocks) for blocks in zip(*sets))


def two_level_restriction(op: np.ndarray) -> np.ndarray:
    """Top-left 2x2 block ``<i|op|j>`` for ``i, j`` in ``{0, 1}``."""
    if op.shape[0] < 2 or op.shape[1] < 2:
        raise ValueError("operator is smaller than two levels")
    return op[:2, :2].copy()


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
    eye, zero = _Block(1.0, 0, 0, 1.0), _Block(0.0, 0, 0, 0.0)
    p_even, p_odd = _DIAGONAL_BLOCKS["p_even"], _DIAGONAL_BLOCKS["p_odd"]
    triple = {"sigma_one": ops.sigma_one, "sigma_two": ops.sigma_two, "sigma_three": ops.sigma_three}

    checks: list[tuple[str, str, _Block | str]] = []
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

    residuals = {name: diff.max_abs() for name, _, diff in checks if not isinstance(diff, str)}
    return [(name, eq, residuals[diff if isinstance(diff, str) else name]) for name, eq, diff in checks]


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
    runs once on each distinct block of the truncation (found by building every
    block) and each check carries the residual of each class with the index of
    its first block: a smaller even ``dim`` holds the classes that start below
    ``dim/2``.
    """
    first_blocks: dict[tuple, int] = {}
    for n in range(params.space.dim // 2):
        first_blocks.setdefault(_lowering_block(n, params.l), n)
    runs = [_catalog(_Block(*block)) for block in first_blocks]
    firsts = tuple(first_blocks.values())
    checks = []
    for i, (name, equation, _) in enumerate(runs[0]):
        residuals = tuple(run[i][2] for run in runs)
        checks.append(IdentityCheck(name, equation, max(residuals), residuals, firsts))
    return checks
