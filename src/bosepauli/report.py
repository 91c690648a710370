"""Check records, machine-readable verification reports, and the parameter
sweeps behind the command-line subcommands."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .coherent import quadrature_grid, resolution_residual
from .fock import FockSpace
from .grassmann import GrassmannScalar, eigen_check
from .pauli import (
    BosonizationParams,
    algebra_residuals,
    parity_projectors,
    pauli_set,
    sigma_three,
    verify_functional_equation,
)

FUNCTIONAL_EQUATION_N_MAX = 1000
DEFAULT_GRASSMANN_SOUL = 1.0 + 1.0j

CSV_COLUMNS = ("identity_id", "paper_eq", "dim", "l", "variant", "residual", "tolerance", "pass")


@dataclass(frozen=True)
class CheckRecord:
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


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)
    tool_version: str = __version__

    def sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: (r.identity_id, json.dumps(r.params, sort_keys=True)))

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"pass": passed, "fail": len(self.records) - passed}

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        payload = {
            "tool_version": self.tool_version,
            "records": [r.to_json_dict() for r in self.sorted_records()],
            "summary": self.summary,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
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
    """Functional-equation and identity-catalog records over dims x ls."""
    records = []
    for l in ls:
        residual = verify_functional_equation(l, FUNCTIONAL_EQUATION_N_MAX)
        records.append(
            CheckRecord("functional_equation", "(14)", {"l": l, "n_max": FUNCTIONAL_EQUATION_N_MAX}, residual, tolerance)
        )
    for dim in dims:
        for l in ls:
            params = BosonizationParams(l, FockSpace(dim))
            for check in algebra_residuals(params):
                records.append(CheckRecord(check.identity, check.equation, {"dim": dim, "l": l}, check.residual, tolerance))
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


def grassmann_suite(dims: list[int], ls: list[int], soul: complex = DEFAULT_GRASSMANN_SOUL) -> VerificationReport:
    """Grassmann eigenvector records (eigenvalue relation and nilpotency) over dims x ls."""
    xi = GrassmannScalar(0j, complex(soul))
    records = []
    for dim in dims:
        for l in ls:
            eigen_res, nil_res = eigen_check(FockSpace(dim), l, xi)
            params = {"dim": dim, "l": l, "soul_re": xi.soul.real, "soul_im": xi.soul.imag}
            records.append(
                CheckRecord("sigma_minus_grassmann_eigenpair", "(37)-(38)", params, max(eigen_res, nil_res), 0.0)
            )
    return VerificationReport(records)


DUMPABLE_OPERATORS = ("sigma_minus", "sigma_plus", "sigma_three", "p_even", "p_odd")


def named_operator(name: str, dim: int, l: int) -> np.ndarray:
    """Resolve a dump target by name on an even-dimensional space."""
    space = FockSpace(dim)
    if name in ("sigma_minus", "sigma_plus"):
        ops = pauli_set(BosonizationParams(l, space))
        return ops.sigma_minus if name == "sigma_minus" else ops.sigma_plus
    if name == "sigma_three":
        return sigma_three(space)
    if name == "p_even":
        return parity_projectors(space)[0]
    if name == "p_odd":
        return parity_projectors(space)[1]
    raise ValueError(f"unknown operator {name!r}, expected one of {DUMPABLE_OPERATORS}")


def matrix_to_json(op: np.ndarray) -> str:
    """Matrix as a JSON array of rows of [re, im] pairs. Adding 0.0 prints -0.0
    as 0.0, so a dump does not depend on how the operator was built."""
    rows = [[[float(entry.real), float(entry.imag)] for entry in row + 0.0] for row in op]
    return json.dumps(rows)


def _number(value: float) -> str:
    return format(value + 0.0, ".12g")


def matrix_to_csv(op: np.ndarray) -> str:
    """Sparse triplet lines ``row,col,re,im``; zero entries are omitted and
    zero parts print unsigned."""
    lines = [f"{i},{j},{_number(op[i, j].real)},{_number(op[i, j].imag)}" for i, j in zip(*np.nonzero(op))]
    return "\n".join(lines) + ("\n" if lines else "")
