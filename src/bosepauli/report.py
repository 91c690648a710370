"""Check records, machine-readable verification reports and the parameter
sweeps behind the command-line subcommands.

None of them imports numpy. The domain modules (``pauli``, ``grassmann``,
``quadrature`` and ``blocks``) load on first use, so a subcommand's process
loads only those its suite calls. Reports are written from one template per
record, token for token as ``json.dumps(payload, indent=2)`` writes them,
without the ``json`` package, from the scalar tokens of :func:`_token`.
"""

from __future__ import annotations

import io
import math
import sys
import types
from typing import NamedTuple

from . import _QUADRATURE_TOLERANCE, RESOLUTION_VARIANTS, __version__, _distinct, _lazy, _tolerance
from .fock import FockSpace

try:  # the C accelerator that json.encoder wraps, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

# the domain names the suites call, each imported from its module on first use
# (PEP 562). The suites read them as attributes of this module, through
# ``_this``, so that a wrapper set on the module attribute is the one they call.
_this = sys.modules[__name__]
__getattr__ = _lazy(globals(), (
    "BosonizationParams", "algebra_residuals", "verify_functional_equation", "GrassmannScalar", "eigen_check",
    "quadrature_grid", "resolution_residual",
))


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
    if isinstance(value, (list, tuple, dict)):
        raise TypeError(f"report params hold JSON scalars, not {type(value).__name__}")
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

    def _params_json(self) -> tuple[str, str]:
        """``params`` as ``json.dumps(params, sort_keys=True)`` writes it, which
        orders a report's records after ``identity_id``, and as
        ``json.dumps(payload, indent=2)`` writes it inside a report's records,
        from one formatting of ``params``, which holds scalars under text keys."""
        bad = [key for key in self.params if not isinstance(key, str)]
        if bad:  # json.dumps writes such a key as text; printed bare it is not JSON
            raise TypeError(f"report params keys are strings, not {bad[0]!r}")
        texts = {key: f"{_token(key)}: {_token(value)}" for key, value in self.params.items()}
        indented = "{\n        " + ",\n        ".join(texts.values()) + "\n      }" if texts else "{}"
        return "{" + ", ".join([texts[key] for key in sorted(texts)]) + "}", indented


class VerificationReport(types.SimpleNamespace):
    """Check records, filled in place, and the version of the tool that made them."""

    def __init__(self, records: list[CheckRecord] | None = None, tool_version: str = __version__):
        super().__init__(records=[] if records is None else records, tool_version=tool_version)

    def _ordered(self) -> list[tuple[CheckRecord, tuple[str, str]]]:
        """Each record with its ``_params_json`` texts, in report order:
        ``identity_id``, then the ``sort_keys`` text of ``params``, stably.

        Each params object is formatted once, keyed by ``id``: the records
        hold it alive, and one object prints one way, where equal values such
        as ``0``, ``-0.0`` and ``False`` do not."""
        texts = {}
        ordered = [
            (record, texts.get(key := id(record.params)) or texts.setdefault(key, record._params_json()))
            for record in self.records
        ]
        ordered.sort(key=lambda pair: (pair[0].identity_id, pair[1][0]))
        return ordered

    def sorted_records(self) -> list[CheckRecord]:
        return [record for record, _ in self._ordered()]

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"pass": passed, "fail": len(self.records) - passed}

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        """``json.dumps(payload, indent=2)`` of the version, the sorted records and the summary."""
        records = ",\n".join(
            [
                f'    {{\n      "identity_id": {_token(record.identity_id)},\n      "paper_eq": {_token(record.equation)},\n'
                f'      "params": {params},\n      "residual": {_token(record.residual)},\n'
                f'      "tolerance": {_token(record.tolerance)},\n      "pass": {"true" if record.passed else "false"},\n'
                f'      "exact_expected": {"true" if record.exact_expected else "false"}\n    }}'
                for record, (_, params) in self._ordered()
            ]
        )
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
        for record, _ in self._ordered():
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
    """Functional-equation and identity-catalog records over dims x ls, each
    ``(dim, l)`` from its own :func:`~bosepauli.pauli.algebra_residuals`.
    A repeated list entry is a ``ValueError``, as in every suite, and so is a bad ``tolerance``."""
    _distinct(("dims", dims), ("ls", ls))
    tolerance = _tolerance("tolerance", tolerance)
    records = []
    for l in ls:
        residual = _this.verify_functional_equation(l, FUNCTIONAL_EQUATION_N_MAX)
        records.append(
            CheckRecord("functional_equation", "(14)", {"l": l, "n_max": FUNCTIONAL_EQUATION_N_MAX}, residual, tolerance)
        )
    grid = [_this.BosonizationParams(l, FockSpace(dim)) for dim in dims for l in ls]  # rejects each bad (dim, l)
    for params in grid:
        pair = {"dim": params.space.dim, "l": params.l}  # one object for the pair's records, formatted once
        for check in _this.algebra_residuals(params):
            records.append(CheckRecord(check.identity, check.equation, pair, check.residual, tolerance))
    return VerificationReport(records)


def quadrature_suite(
    dim: int, radial: int, angular: int, variants: list[str], tolerance: float = _QUADRATURE_TOLERANCE
) -> VerificationReport:
    """Resolution-of-identity records for the requested variants, from one
    residual per parity: a phased residual is the plain one of its parity
    (see :func:`~bosepauli.quadrature.resolution_residual`)."""
    _distinct(("variants", variants))
    tolerance = _tolerance("tolerance", tolerance)
    space = FockSpace(dim)
    grid = _this.quadrature_grid(radial, angular)
    under_resolved = not grid.resolves(dim)
    residuals = {}
    records = []
    for variant in variants:
        # an unknown variant keys by itself, so resolution_residual rejects it
        key = variant.partition("-")[0] if variant in RESOLUTION_VARIANTS else variant
        if key not in residuals:
            residuals[key] = _this.resolution_residual(space, variant, grid)
        residual = residuals[key]
        equation = "(23)" if variant.endswith("plain") else "(28)"
        params = {"dim": dim, "K": radial, "M": angular, "variant": variant, "under_resolved": under_resolved}
        records.append(CheckRecord("resolution_of_identity", equation, params, residual, tolerance))
    return VerificationReport(records)


def grassmann_suite(dims: list[int], ls: list[int]) -> VerificationReport:
    """Grassmann eigenvector records (eigenvalue relation and nilpotency) over
    dims x ls, for ``xi = DEFAULT_GRASSMANN_SOUL * theta``."""
    _distinct(("dims", dims), ("ls", ls))
    xi = _this.GrassmannScalar(0j, DEFAULT_GRASSMANN_SOUL)
    records = []
    for dim in dims:
        for l in ls:
            params = {"dim": dim, "l": l, "soul_re": xi.soul.real, "soul_im": xi.soul.imag}
            residual = max(_this.eigen_check(FockSpace(dim), l, xi))
            records.append(CheckRecord("sigma_minus_grassmann_eigenpair", "(37)-(38)", params, residual, 0.0))
    return VerificationReport(records)
