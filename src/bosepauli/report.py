"""Check records, machine-readable verification reports, the parameter
sweeps behind the command-line subcommands, and the ``dump`` writers.

None of them imports numpy: a dump is the nonzero ``(row, col, value)``
entries of the operator's pair blocks, never a dense matrix. Reports are
written from one template per record, token for token as
``json.dumps(payload, indent=2)`` writes them, without the pure-Python
``json`` encoder.
"""

from __future__ import annotations

import io
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from ._version import __version__
from .fock import FockSpace
from .grassmann import GrassmannScalar, eigen_check
from .pauli import (
    DUMPABLE_OPERATORS,
    BosonizationParams,
    _entries,
    _named_blocks,
    algebra_residuals,
    verify_functional_equation,
)
from .quadrature import RESOLUTION_VARIANTS, quadrature_grid, resolution_residual

FUNCTIONAL_EQUATION_N_MAX = 1000
DEFAULT_GRASSMANN_SOUL = 1.0 + 1.0j

CSV_COLUMNS = ("identity_id", "paper_eq", "dim", "l", "variant", "residual", "tolerance", "pass")


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
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class CheckRecord(NamedTuple):
    """One verified identity: its residual against a tolerance."""

    identity_id: str
    equation: str
    params: dict
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def exact_expected(self) -> bool:
        # tolerance 0 means the construction owes an exactly-zero residual
        return self.tolerance == 0.0

    def sort_key(self) -> tuple[str, str]:
        """``(identity_id, json.dumps(params, sort_keys=True))``, the order of a report's records."""
        params = ", ".join(f"{_token(key)}: {_token(value)}" for key, value in sorted(self.params.items()))
        return self.identity_id, "{" + params + "}"

    def _json_block(self) -> str:
        """The record as an element of a report's ``records``, as
        ``json.dumps(payload, indent=2)`` writes it; ``params`` holds scalars."""
        params = ",\n".join(f"        {_token(key)}: {_token(value)}" for key, value in self.params.items())
        params = "{\n" + params + "\n      }" if params else "{}"
        return (
            "    {\n"
            f'      "identity_id": {_token(self.identity_id)},\n'
            f'      "paper_eq": {_token(self.equation)},\n'
            f'      "params": {params},\n'
            f'      "residual": {_token(self.residual)},\n'
            f'      "tolerance": {_token(self.tolerance)},\n'
            f'      "pass": {"true" if self.passed else "false"},\n'
            f'      "exact_expected": {"true" if self.exact_expected else "false"}\n'
            "    }"
        )

    def to_json_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "paper_eq": self.equation,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "exact_expected": self.exact_expected,
        }


class VerificationReport:
    """Check records, filled in place, and the version of the tool that made them."""

    def __init__(self, records: list[CheckRecord] | None = None, tool_version: str = __version__):
        self.records = [] if records is None else records
        self.tool_version = tool_version

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.records, self.tool_version) == (other.records, other.tool_version)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"VerificationReport(records={self.records!r}, tool_version={self.tool_version!r})"

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=CheckRecord.sort_key)

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"pass": passed, "fail": len(self.records) - passed}

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        """``json.dumps(payload, indent=2)`` of the version, the sorted records and the summary."""
        records = ",\n".join(record._json_block() for record in self.sorted_records())
        records = "[\n" + records + "\n  ]" if records else "[]"
        summary = self.summary
        return (
            "{\n"
            f'  "tool_version": {_token(self.tool_version)},\n'
            f'  "records": {records},\n'
            f'  "summary": {{\n    "pass": {summary["pass"]},\n    "fail": {summary["fail"]}\n  }}\n'
            "}"
        )

    def to_csv(self) -> str:
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in self.sorted_records():
            writer.writerow(
                [
                    record.identity_id,
                    record.equation,
                    record.params.get("dim", ""),
                    record.params.get("l", ""),
                    record.params.get("variant", ""),
                    repr(record.residual),
                    repr(record.tolerance),
                    "true" if record.passed else "false",
                ]
            )
        return out.getvalue()


def algebra_suite(dims: list[int], ls: list[int], tolerance: float = 0.0) -> VerificationReport:
    """Functional-equation and identity-catalog records over dims x ls. One
    catalog per exponent, at the largest dim: block ``n`` does not depend on
    ``dim``, so a dim's residual is the worst of the block classes that start
    below ``dim/2``."""
    records = []
    for l in ls:
        residual = verify_functional_equation(l, FUNCTIONAL_EQUATION_N_MAX)
        records.append(
            CheckRecord("functional_equation", "(14)", {"l": l, "n_max": FUNCTIONAL_EQUATION_N_MAX}, residual, tolerance)
        )
    grid = [BosonizationParams(l, FockSpace(dim)) for dim in dims for l in ls]  # rejects each bad (dim, l)
    catalogs = {l: algebra_residuals(BosonizationParams(l, FockSpace(max(dims)))) for l in {p.l for p in grid}}
    for params in grid:
        for check in catalogs[params.l]:
            pairs = params.space.dim // 2
            residual = max(r for r, first in zip(check.class_residuals, check.first_blocks) if first < pairs)
            records.append(
                CheckRecord(check.identity, check.equation, {"dim": params.space.dim, "l": params.l}, residual, tolerance)
            )
    return VerificationReport(records)


def quadrature_suite(dim: int, radial: int, angular: int, variants: list[str], tolerance: float = 1e-12) -> VerificationReport:
    """Resolution-of-identity records for the requested variants."""
    space = FockSpace(dim)
    grid = quadrature_grid(radial, angular)
    under_resolved = not grid.resolves(dim)
    records = []
    for variant in variants:
        residual = resolution_residual(space, variant, grid)
        equation = "(23)" if variant.endswith("plain") else "(28)"
        params = {
            "dim": dim,
            "K": radial,
            "M": angular,
            "variant": variant,
            "under_resolved": under_resolved,
        }
        records.append(CheckRecord("resolution_of_identity", equation, params, residual, tolerance))
    return VerificationReport(records)


def grassmann_suite(dims: list[int], ls: list[int]) -> VerificationReport:
    """Grassmann eigenvector records (eigenvalue relation and nilpotency) over
    dims x ls, for ``xi = DEFAULT_GRASSMANN_SOUL * theta``."""
    xi = GrassmannScalar(0j, DEFAULT_GRASSMANN_SOUL)
    records = []
    for dim in dims:
        for l in ls:
            params = {"dim": dim, "l": l, "soul_re": xi.soul.real, "soul_im": xi.soul.imag}
            residual = max(eigen_check(FockSpace(dim), l, xi))
            records.append(CheckRecord("sigma_minus_grassmann_eigenpair", "(37)-(38)", params, residual, 0.0))
    return VerificationReport(records)


def named_operator(name: str, dim: int, l: int) -> list[tuple[int, int, complex]]:
    """Nonzero ``(row, col, value)`` entries, in row-major order, of a dump
    target on an even-dimensional space."""
    return _entries(_named_blocks(name, BosonizationParams(l, FockSpace(dim))))


def matrix_to_json(shape: tuple[int, int], entries) -> str:
    """``shape`` matrix with the nonzero ``(row, col, value)`` entries, as a JSON
    array of rows of [re, im] pairs; zeros share one ``[0.0, 0.0]`` token. Adding
    0.0 prints -0.0 as 0.0, so a dump does not depend on how it was built."""
    rows = [["[0.0, 0.0]"] * shape[1] for _ in range(shape[0])]
    for i, j, value in entries:
        rows[i][j] = f"[{_token(value.real + 0.0)}, {_token(value.imag + 0.0)}]"
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def matrix_to_csv(entries) -> str:
    """Sparse triplet lines ``row,col,re,im`` of the nonzero ``(row, col,
    value)`` entries; zero parts print unsigned."""
    lines = [f"{i},{j},{value.real + 0.0:.12g},{value.imag + 0.0:.12g}" for i, j, value in entries]
    return "\n".join(lines) + ("\n" if lines else "")
