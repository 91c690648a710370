"""The ``dump`` path: the nonzero ``(row, col, value)`` entries of a dump
target, read off its pair blocks, and the writers that print them, without
numpy or the ``json`` package. Only ``dump`` and :mod:`bosepauli.dense` load
this module, so ``verify`` and ``grassmann`` do not compile it. A ladder dump
repeats the blocks the catalog certifies, :func:`~bosepauli.blocks._period`.
A dump writes the nonzero entries of an operator, never a dense matrix.
"""

from __future__ import annotations

import math

from . import DUMPABLE_OPERATORS, blocks
from .blocks import _DIAGONAL_BLOCKS, BosonizationParams, _Block
from .fock import FockSpace


def _named_blocks(name: str, params: BosonizationParams) -> list[_Block]:
    """Pair blocks of the operator named by one of :data:`DUMPABLE_OPERATORS`."""
    pairs = params.space.dim // 2
    if name in _DIAGONAL_BLOCKS:
        return [_DIAGONAL_BLOCKS[name]] * pairs
    if name not in DUMPABLE_OPERATORS:
        raise ValueError(f"unknown operator {name!r}, expected one of {DUMPABLE_OPERATORS}")
    period = [_Block(*entries) if name == "sigma_minus" else _Block(*entries).dagger() for entries in blocks._period(params)]
    return (period * (pairs // len(period) + 1))[:pairs]


def _entries(pair_blocks: list[_Block]) -> list[tuple[int, int, complex]]:
    """Nonzero ``(row, col, value)`` entries of the direct sum of pair blocks,
    block ``n`` on levels ``(2n, 2n+1)``, in row-major order."""
    return [
        (2 * n + row, 2 * n + col, value)
        for n, block in enumerate(pair_blocks)
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
