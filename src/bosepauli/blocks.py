"""The 2x2 pair blocks of the pseudospin operators on the level pairs
``(|2n>, |2n+1>)``, the ``dump`` entries read off them, and the ``dump``
writers, without numpy, the ``json`` package or the identity catalog. Every
caller looks up block ``n`` of ``sigma_-`` as ``blocks._lowering_block`` when
called, so one patch reaches them all. A dump writes the nonzero ``(row, col,
value)`` entries of an operator, never a dense matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import DUMPABLE_OPERATORS
from .fock import FockSpace


def _cos_half_pi(n: int) -> int:
    """``cos(pi n / 2)`` as an exact integer, by case analysis on ``n mod 4``."""
    return (1, 0, -1, 0)[n % 4]


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


def _entries(blocks: list[_Block]) -> list[tuple[int, int, complex]]:
    """Nonzero ``(row, col, value)`` entries of the direct sum of pair blocks,
    block ``n`` on levels ``(2n, 2n+1)``, in row-major order."""
    return [
        (2 * n + row, 2 * n + col, value)
        for n, block in enumerate(blocks)
        for row, col, value in ((0, 0, block.a), (0, 1, block.b), (1, 0, block.c), (1, 1, block.d))
        if value
    ]


def named_operator(name: str, dim: int, l: int) -> list[tuple[int, int, complex]]:
    """Nonzero ``(row, col, value)`` entries, in row-major order, of a dump
    target on an even-dimensional space."""
    return _entries(_named_blocks(name, BosonizationParams(l, FockSpace(dim))))


def _row_major(shape: tuple[int, int], entries):
    """``entries``, each checked to lie inside ``shape`` and to follow the one before in row-major order."""
    last = (-1, -1)
    for entry in entries:
        i, j, _ = entry
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise ValueError(f"entry {entry!r} lies outside the {shape[0]}x{shape[1]} matrix")
        if (i, j) <= last:
            raise ValueError(f"entry {entry!r} does not follow entry ({last[0]}, {last[1]}) in row-major order")
        last = i, j
        yield entry


def matrix_to_json(shape: tuple[int, int], entries, out) -> None:
    """Write the ``shape`` matrix with the nonzero ``(row, col, value)`` entries,
    strictly increasing in ``(row, col)``, to the text stream ``out`` as a JSON
    array of rows of [re, im] pairs, one row per write. Each row is one
    all-zero row with its entries cut in, so the writer holds one row, never
    the matrix. Adding 0.0 prints -0.0 as 0.0, so a dump does not depend on
    how it was built. An entry with a part that is not finite has no JSON
    token and is rejected."""
    rows, cols = shape
    zero = "[" + ", ".join(["[0.0, 0.0]"] * cols) + "]"  # zero token j is zero[1 + 12 j : 11 + 12 j]
    entries = _row_major(shape, entries)
    entry = next(entries, None)
    out.write("[")
    for i in range(rows):
        row, at = [], 0
        while entry is not None and entry[0] == i:
            _, j, value = entry
            re, im = value.real + 0.0, value.imag + 0.0
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry {entry!r} has a part that is not finite, which JSON cannot hold")
            # float.__repr__, since a numpy float's own repr is np.float64(...)
            row += (zero[at : 1 + 12 * j], f"[{float.__repr__(re)}, {float.__repr__(im)}]")
            at, entry = 11 + 12 * j, next(entries, None)
        row += (zero[at:], ", " if i + 1 < rows else "")
        out.write("".join(row))
    out.write("]")


def matrix_to_csv(entries) -> str:
    """Sparse triplet lines ``row,col,re,im`` of the nonzero ``(row, col,
    value)`` entries; zero parts print unsigned."""
    lines = [f"{i},{j},{value.real + 0.0:.12g},{value.imag + 0.0:.12g}" for i, j, value in entries]
    return "\n".join(lines) + ("\n" if lines else "")
