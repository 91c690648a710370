"""The ``dump`` writers, and the JSON scalar tokens reports are written from.
A dump writes the nonzero ``(row, col, value)`` entries of an operator, never
a dense matrix, without numpy, the ``json`` package or the report module.
"""

from __future__ import annotations

import math

try:  # the C accelerator that json.encoder wraps, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii


def _token(value) -> str:
    """One JSON scalar, spelled as ``json.dumps`` spells it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        raise TypeError(f"report params hold JSON scalars, not {type(value).__name__}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    how it was built."""
    rows, cols = shape
    zero = "[" + ", ".join(["[0.0, 0.0]"] * cols) + "]"  # zero token j is zero[1 + 12 j : 11 + 12 j]
    entries = _row_major(shape, entries)
    entry = next(entries, None)
    out.write("[")
    for i in range(rows):
        row, at = [], 0
        while entry is not None and entry[0] == i:
            _, j, value = entry
            row += (zero[at : 1 + 12 * j], f"[{_token(value.real + 0.0)}, {_token(value.imag + 0.0)}]")
            at, entry = 11 + 12 * j, next(entries, None)
        row += (zero[at:], ", " if i + 1 < rows else "")
        out.write("".join(row))
    out.write("]")


def matrix_to_csv(entries) -> str:
    """Sparse triplet lines ``row,col,re,im`` of the nonzero ``(row, col,
    value)`` entries; zero parts print unsigned."""
    lines = [f"{i},{j},{value.real + 0.0:.12g},{value.imag + 0.0:.12g}" for i, j, value in entries]
    return "\n".join(lines) + ("\n" if lines else "")
