"""Correctness gate: decides, for one invocation's exit code and output,
whether the program answered correctly, and says why when it did not.

The expected dumps are built here from the paper's closed form
(``(-1)^(n l)`` at ``(2n, 2n+1)``, zeros elsewhere), independently of the
program, and never inside a timed region.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import Invocation

RESOLVED_TOLERANCE = 1e-12


class GateError(ValueError):
    """An output that fails the gate; the message is the reason."""


def _reject_constant(token: str):
    raise GateError(f"non-finite token {token} in JSON output")


def strict_json(text: str):
    """Parse JSON, treating a bare ``NaN`` or ``Infinity`` as a failure."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not JSON: {exc}") from None


def closed_form(op: str, dim: int, l: int) -> np.ndarray:
    """The real matrix the paper gives for a dumpable operator."""
    out = np.zeros((dim, dim))
    pairs = np.arange(dim // 2)
    if op in ("sigma_minus", "sigma_plus"):
        out[2 * pairs, 2 * pairs + 1] = (-1.0) ** ((pairs * l) % 2)
        return out if op == "sigma_minus" else out.T.copy()
    levels = np.arange(dim)
    parity = 0 if op == "p_even" else 1
    out[levels, levels] = (levels % 2 == parity).astype(float)
    return out


def _dump_matrix(text: str, dim: int, fmt: str) -> np.ndarray:
    if fmt == "json":
        entries = np.array(strict_json(text), dtype=float)
        if entries.shape != (dim, dim, 2):
            raise GateError(f"dump has shape {entries.shape}, expected ({dim}, {dim}, 2)")
        if np.any(entries[..., 1] != 0.0):
            raise GateError("dump has a nonzero imaginary part")
        return entries[..., 0]
    matrix = np.zeros((dim, dim))
    for line in text.splitlines():
        row, col, re, im = line.split(",")
        if float(im) != 0.0:
            raise GateError(f"dump line {line!r} has a nonzero imaginary part")
        matrix[int(row), int(col)] = float(re)
    return matrix


def _check_dump(inv: Invocation, text: str) -> None:
    op, dim, l, fmt = inv.dump
    got = _dump_matrix(text, dim, fmt)
    want = closed_form(op, dim, l)
    bad = np.argwhere(got != want)
    if bad.size:
        row, col = (int(i) for i in bad[0])
        raise GateError(
            f"{op} entry ({row}, {col}) is {got[row, col]!r}, closed form gives {want[row, col]!r} ({len(bad)} entries differ)"
        )


def _check_report(inv: Invocation, report: dict) -> None:
    records = report.get("records")
    if not isinstance(records, list):
        raise GateError("report has no records list")
    if len(records) != inv.records:
        raise GateError(f"report has {len(records)} records, expected {inv.records}")
    for record in records:
        if not isinstance(record, dict) or not isinstance(record.get("params"), dict):
            raise GateError(f"malformed record {record!r}")
        where = f"{record.get('identity_id')} {json.dumps(record.get('params'), sort_keys=True)}"
        residual = record.get("residual")
        if not isinstance(residual, (int, float)) or isinstance(residual, bool):
            raise GateError(f"residual {residual!r} is not a number in {where}")
        under = record["params"].get("under_resolved")
        if inv.expect == "exact" and residual != 0.0:
            raise GateError(f"residual {residual!r} != 0.0 in exact record {where}")
        if inv.expect == "resolved" and not residual < RESOLVED_TOLERANCE:
            raise GateError(f"residual {residual!r} >= {RESOLVED_TOLERANCE} in {where}")
        if inv.expect == "resolved" and under is not False:
            raise GateError(f"resolved grid flagged under_resolved={under!r} in {where}")
        if inv.expect == "under_resolved" and under is not True:
            raise GateError(f"under-resolved grid flagged under_resolved={under!r} in {where}")
        if inv.expect != "under_resolved" and record.get("pass") is not True:
            raise GateError(f"record does not pass in {where}")


def check(inv: Invocation, returncode: int, stdout: str) -> tuple[str | None, str]:
    """Gate one output. Returns ``(reason or None, fingerprint)``.

    The fingerprint identifies the records (a report's ``records`` list, or
    the whole dump) so that passes with the same flags can be compared for
    byte identity; it is ``""`` when the output could not be read.
    """
    want_code = 1 if inv.expect == "under_resolved" else 0
    try:
        if inv.expect == "dump":
            _check_dump(inv, stdout)
            payload = stdout
        else:
            report = strict_json(stdout)
            if not isinstance(report, dict):
                raise GateError("report is not a JSON object")
            _check_report(inv, report)
            payload = json.dumps(report["records"])
    except (GateError, ValueError) as exc:
        return f"{exc} (exit code {returncode})", ""
    fingerprint = hashlib.sha256(payload.encode()).hexdigest()
    if returncode != want_code:
        return f"exit code {returncode}, expected {want_code}", fingerprint
    return None, fingerprint


class Verdicts:
    """Gate verdicts over every pass of a run.

    Invocations that probe a standing defect are tallied apart from the
    attempted/failed counts, each under its documented reason. Records must
    repeat byte for byte between passes with the same flags.
    """

    def __init__(self, invocations: list[Invocation]):
        self.invocations = invocations
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.defects = {i: {"argv": list(inv.argv), "defect": inv.standing_defect, "runs": 0, "reproduced": 0, "reasons": []}
                        for i, inv in enumerate(invocations) if inv.standing_defect}
        self._first: dict[int, str] = {}  # fingerprint of the first passing output

    def add_pass(self, outputs: list[tuple[int, str]]) -> None:
        for index, (inv, (returncode, stdout)) in enumerate(zip(self.invocations, outputs)):
            reason = self._judge(index, inv, returncode, stdout)
            if inv.standing_defect:
                entry = self.defects[index]
                entry["runs"] += 1
                if reason is not None:
                    entry["reproduced"] += 1
                    if reason not in entry["reasons"]:
                        entry["reasons"].append(reason)
                continue
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append({"argv": list(inv.argv), "reason": reason})

    def _judge(self, index: int, inv: Invocation, returncode: int, stdout: str) -> str | None:
        if inv.expect == "dump" and self._first.get(index) == hashlib.sha256(stdout.encode()).hexdigest():
            # The same bytes already passed the entry-by-entry check.
            return None if returncode == 0 else f"exit code {returncode}, expected 0"
        reason, fingerprint = check(inv, returncode, stdout)
        if reason is None and self._first.setdefault(index, fingerprint) != fingerprint:
            reason = "records differ from the first pass with the same flags"
        return reason

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "standing_defects": list(self.defects.values()),
        }
