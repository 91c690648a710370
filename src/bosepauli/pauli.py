"""Oscillator (Bose) realizations of the Pauli pseudospin operators.

The lowering operator is realized on the whole Fock space as
``sigma_- = f(N) a`` with ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``, which
places ``(-1)^(n l)`` at position ``(2n, 2n+1)`` and zeros everywhere else.
Even exponents give the constant-sign representation, odd exponents the
alternating-sign one, and the operator depends on ``l`` only through its
parity.

Every pseudospin operator is thus a direct sum of 2x2 blocks on the level
pairs ``(|2n>, |2n+1>)``. Block ``n`` is block ``n mod 4``, so the first four
blocks hold every class, at most two for a given ``l``. The identity catalog
runs once per class in a process, on 2x2 matrices of Python ``complex`` with
entries in ``{0, +-1, +-i}``: their products and sums round nowhere, so the
catalog is exact on every distinct block, and every block of any truncation is
one of them. That certificate, like the functional equation, needs no numpy:
the commutators take pair blocks as well as matrices. The blocks and
``BosonizationParams`` come from :mod:`bosepauli.blocks`. The dense views live
in :mod:`bosepauli.dense`.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import _count, _lazy, blocks
from .blocks import _DIAGONAL_BLOCKS, BosonizationParams, _Block, _cos_half_pi

# two dense views under their old names, resolved on first use (PEP 562);
# kept only because the site table of perfbench/tracing.py looks them up here
__getattr__ = _lazy(globals(), ("sigma_minus", "sigma_three"))


def f_coefficient(n: int, l: int) -> float:
    """Deformation coefficient ``f(n) = cos^l(pi n / 2) / sqrt(n + 1)``.

    Zero at odd ``n``, ``(+-1)/sqrt(n+1)`` at even ``n``. The cosine power is
    taken by integer case analysis, never by floating trigonometry, so the
    sign carries no rounding. A level ``n`` that is not an ``int`` of at least
    0, a ``bool`` included, is a ``ValueError``.
    """
    return _cos_half_pi(_count("level n", n)) ** _count("exponent l", l, 1) / math.sqrt(n + 1)


def verify_functional_equation(l: int, n_max: int) -> float:
    """Largest deviation of ``(n+1) f^2(n) + n f^2(n-1) - 1`` for ``n <= n_max``.

    Includes the ``n = 0`` boundary term ``|f^2(0) - 1|``. With the integer
    ``c_n = (n+1) f^2(n)``, which depends on ``n mod 4`` alone, term ``n`` is
    ``n(n+1)(c_n + c_(n-1) - 1) / (n(n+1))``: exactly the integer
    ``c_n + c_(n-1) - 1``, repeating from ``n = 5`` on, so the maximum is
    exactly ``0.0`` when the recurrence holds. Only the terms
    ``n <= min(n_max, 4)`` are evaluated, so any ``n_max >= 0`` costs the same.
    An ``n_max`` that is not an ``int`` of at least 0, a ``bool`` included, is
    a ``ValueError``.
    """
    _count("exponent l", l, 1)
    _count("n_max", n_max)
    table = [_cos_half_pi(r) ** (2 * l) for r in range(4)]  # c_n by n mod 4
    sums = [table[0]] + [table[n % 4] + table[n - 1] for n in range(1, min(n_max, 4) + 1)]  # c_n + c_(n-1), c_(-1) = 0
    return float(max(abs(c - 1) for c in sums))


def commutator(a, b):
    """``a @ b - b @ a``, for two matrices or two pair blocks."""
    return a @ b - b @ a


def anticommutator(a, b):
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
    minus, plus, three = lowering, lowering.dagger(), _DIAGONAL_BLOCKS["sigma_three"]
    one, two = plus + minus, -1j * (plus - minus)
    eye, zero = _Block(1.0, 0, 0, 1.0), _Block(0.0, 0, 0, 0.0)
    p_even, p_odd = _DIAGONAL_BLOCKS["p_even"], _DIAGONAL_BLOCKS["p_odd"]
    triple = {"sigma_one": one, "sigma_two": two, "sigma_three": three}

    checks: list[tuple[str, str, _Block]] = []
    for name_i, op_i in triple.items():
        for name_j, op_j in triple.items():
            target = 2.0 * eye if name_i == name_j else zero
            checks.append((f"anticomm_{name_i}_{name_j}", "(7)", anticommutator(op_i, op_j) - target))

    for name, op, sign in (("sigma_plus", plus, 1.0), ("sigma_minus", minus, -1.0)):
        checks.append((f"comm_{name}_sigma_one", "(9)", commutator(op, one) - sign * three))
        checks.append((f"comm_{name}_sigma_two", "(9)", commutator(op, two) - 1j * three))
        checks.append((f"comm_{name}_sigma_three", "(9)", commutator(op, three) + 2.0 * sign * op))
        checks.append((f"anticomm_{name}_sigma_one", "(10)", anticommutator(op, one) - eye))
        checks.append((f"anticomm_{name}_sigma_two", "(10)", anticommutator(op, two) - sign * 1j * eye))
        checks.append((f"anticomm_{name}_sigma_three", "(10)", anticommutator(op, three)))

    checks.append(("comm_sigma_plus_sigma_minus", "(9)", commutator(plus, minus) - three))
    checks.append(("anticomm_sigma_plus_sigma_minus", "(10)", anticommutator(plus, minus) - eye))
    checks.append(("sigma_plus_sigma_minus_equals_odd_projector", "(29)", plus @ minus - p_odd))
    checks.append(("sigma_minus_sigma_plus_equals_even_projector", "(29)", minus @ plus - p_even))
    checks.append(("sigma_three_equals_ladder_commutator", "(30)", three - commutator(plus, minus)))
    checks.append(("anticomm_sigma_minus_sigma_three_recheck", "(31)", anticommutator(minus, three)))
    checks.append(("comm_sigma_minus_sigma_three_recheck", "(32)", commutator(minus, three) - 2.0 * minus))
    checks.append(("sigma_minus_squared", "(1)", minus @ minus))
    checks.append(("sigma_plus_squared", "(1)", plus @ plus))

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
    runs on each distinct block of :func:`~bosepauli.blocks._period`, which
    every later block repeats, once per process, and each check carries the
    residual of each class with the index of its first block.
    """
    period = blocks._period(params)
    first_blocks = {block: period.index(block) for block in period}
    runs = [_class_catalog(block) for block in first_blocks]
    firsts = tuple(first_blocks.values())
    checks = []
    for i, (name, equation, _) in enumerate(runs[0]):
        residuals = tuple(run[i][2] for run in runs)
        checks.append(IdentityCheck(name, equation, max(residuals), residuals, firsts))
    return checks
