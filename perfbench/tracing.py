"""Traced run: spans around the calls into each ``bosepauli`` module.

Wrappers are installed from here, at the place where each name is looked
up (``bosepauli.pauli.commutator``, not ``bosepauli.fock.commutator``,
because ``pauli`` imports it by name); ``src/`` is never edited. A span is
``[name, start_ns, end_ns, parent, invocation]``; spans stay in memory and
are returned at the end. A layer's time is the summed self time of its
spans, so the layers of one invocation add up to its wall time.

Run as a script, this is the traced worker: it imports ``bosepauli`` in a
fresh interpreter, alternates untraced and traced passes of the given
invocations through ``bosepauli.cli.main`` with stdout captured, gates every
output and prints one JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import statistics
import sys
import time
from collections import Counter

import numpy as np

from gate import Verdicts
from workloads import Invocation


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.broken_counters: set[str] = set()
        self.invocation = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.invocation])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# ------------------------------------------------------------------ counters


def _count_records(tracer, args, result):
    tracer.counts["report.records"] += len(result.records)


def _count_identities(tracer, args, result):
    tracer.counts["pauli.identities"] += len(result)
    tracer.counts["pauli.exact_zeros"] += sum(1 for check in result if check.residual == 0.0)


def _count_product(tracer, args, result):
    # Computed from shapes: two complex GEMMs (8 mkn flops each) and one
    # elementwise combine; bytes are the operands read and results written.
    a, b = args[0], args[1]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    batch = math.prod(a.shape[:-2])
    tracer.counts["fock.product_calls"] += 1
    tracer.counts["fock.product_flops"] += batch * (16 * m * k * n + 2 * m * n)
    tracer.counts["fock.product_bytes"] += batch * a.itemsize * (2 * (m * k + k * n + m * n) + 3 * m * n)


def _count_grid(tracer, args, result):
    values = np.concatenate([result.radial_nodes, result.radial_weights])
    tracer.counts["coherent.grid_nonfinite"] += int(np.count_nonzero(~np.isfinite(values)))


def _count_outer(tracer, args, result):
    grid = args[2]
    tracer.counts["coherent.outer_products"] += len(grid.radial_nodes) * grid.angular_count


def _count_check(tracer, args, result):
    tracer.counts["grassmann.checks"] += 1


# (module, attribute where the name is looked up, span name, counter)
SITES = (
    ("bosepauli.cli", "algebra_suite", "report.suite", _count_records),
    ("bosepauli.cli", "quadrature_suite", "report.suite", _count_records),
    ("bosepauli.cli", "grassmann_suite", "report.suite", _count_records),
    ("bosepauli.cli", "named_operator", "report.suite", None),
    ("bosepauli.report", "VerificationReport.to_json", "report.serialize", None),
    ("bosepauli.report", "VerificationReport.to_csv", "report.serialize", None),
    ("bosepauli.cli", "matrix_to_json", "report.serialize", None),
    ("bosepauli.cli", "matrix_to_csv", "report.serialize", None),
    ("bosepauli.report", "algebra_residuals", "pauli.catalog", _count_identities),
    ("bosepauli.report", "verify_functional_equation", "pauli.funceq", None),
    ("bosepauli.report", "pauli_set", "pauli.construct", None),
    ("bosepauli.report", "sigma_three", "pauli.construct", None),
    ("bosepauli.report", "parity_projectors", "pauli.construct", None),
    ("bosepauli.pauli", "pauli_set", "pauli.construct", None),
    ("bosepauli.pauli", "sigma_minus", "pauli.construct", None),
    ("bosepauli.pauli", "sigma_three", "pauli.construct", None),
    ("bosepauli.pauli", "parity_projectors", "pauli.construct", None),
    ("bosepauli.grassmann", "sigma_minus", "pauli.construct", None),
    ("bosepauli.coherent", "parity_projectors", "pauli.construct", None),
    ("bosepauli.pauli", "commutator", "fock.product", _count_product),
    ("bosepauli.pauli", "anticommutator", "fock.product", _count_product),
    ("bosepauli.pauli", "max_abs_norm", "fock.reduce", None),
    ("bosepauli.coherent", "max_abs_norm", "fock.reduce", None),
    ("bosepauli.pauli", "diagonal_from_function", "fock.build", None),
    ("bosepauli.pauli", "dagger", "fock.build", None),
    ("bosepauli.pauli", "fock_ket", "fock.build", None),
    ("bosepauli.grassmann", "fock_ket", "fock.build", None),
    ("bosepauli.report", "quadrature_grid", "coherent.grid", _count_grid),
    ("bosepauli.report", "resolution_residual", "coherent.resolution", _count_outer),
    ("bosepauli.report", "eigen_check", "grassmann.eigen", _count_check),
    ("bosepauli.grassmann", "apply_operator", "grassmann.apply", None),
)

# One small call of each subcommand, run before any timed pass.
WARM_UP = [
    Invocation(("verify", "--dims", "2", "--ls", "1"), "exact"),
    Invocation(("quadrature", "--dim", "2", "--radial", "2", "--angular", "4"), "resolved"),
    Invocation(("grassmann", "--dims", "2", "--ls", "1"), "exact"),
    Invocation(("dump", "--op", "sigma_minus", "--dim", "2", "--format", "csv"), "dump"),
]

# per-layer metric -> (span name, self time or counter)
LAYER_METRICS = {
    "cli.self_s": ("cli.main", "time"),
    "cli.invocations": ("cli.main", "cli.invocations"),
    "report.suite_self_s": ("report.suite", "time"),
    "report.serialize_s": ("report.serialize", "time"),
    "report.records": ("report.suite", "report.records"),
    "report.bytes": ("cli.main", "report.bytes"),
    "pauli.construct_s": ("pauli.construct", "time"),
    "pauli.catalog_self_s": ("pauli.catalog", "time"),
    "pauli.funceq_s": ("pauli.funceq", "time"),
    "pauli.identities": ("pauli.catalog", "pauli.identities"),
    "pauli.exact_zero_ratio": ("pauli.catalog", "ratio"),
    "fock.product_s": ("fock.product", "time"),
    "fock.product_calls": ("fock.product", "fock.product_calls"),
    "fock.product_flops": ("fock.product", "fock.product_flops"),
    "fock.product_bytes": ("fock.product", "fock.product_bytes"),
    "fock.reduce_s": ("fock.reduce", "time"),
    "fock.build_s": ("fock.build", "time"),
    "coherent.grid_s": ("coherent.grid", "time"),
    "coherent.resolution_s": ("coherent.resolution", "time"),
    "coherent.outer_products": ("coherent.resolution", "coherent.outer_products"),
    "coherent.grid_nonfinite": ("coherent.grid", "coherent.grid_nonfinite"),
    "grassmann.eigen_s": ("grassmann.eigen", "time"),
    "grassmann.apply_s": ("grassmann.apply", "time"),
    "grassmann.checks": ("grassmann.eigen", "grassmann.checks"),
}


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            # A counter that no longer fits the call's arguments or result is
            # reported as broken; the run goes on.
            try:
                count(tracer, args, result)
            except (AttributeError, TypeError, IndexError, ValueError):
                tracer.broken_counters.add(count.__name__)
        return result

    return traced


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every site that exists. Returns ``(undo list, missing sites)``."""
    undo, missing = [], []
    for module_name, path, name, count in SITES:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, count))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_pass(invocations: list[Invocation], tracer: Tracer | None = None) -> tuple[float, list[tuple[int, str]]]:
    """One pass through ``bosepauli.cli.main``; returns ``(wall_s, outputs)``."""
    from bosepauli import cli

    outputs = []
    start = time.perf_counter()
    for number, inv in enumerate(invocations):
        buffer = io.StringIO()
        if tracer is not None:
            tracer.invocation = number
            root = tracer.open("cli.main")
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code
        finally:
            if tracer is not None:
                tracer.close(root)
        text = buffer.getvalue()
        if tracer is not None:
            tracer.counts["cli.invocations"] += 1
            tracer.counts["report.bytes"] += len(text)
        outputs.append((code if isinstance(code, int) else 0 if code is None else 1, text))
    return time.perf_counter() - start, outputs


def layer_metrics(tracer: Tracer, missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the names reported absent
    because every site behind them is missing."""
    present = {"cli.main"} | {name for module, path, name, _ in SITES if f"{module}.{path}" not in missing}
    busy: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        busy[span[0]] += own
    values, absent = {}, []
    for metric, (span_name, kind) in LAYER_METRICS.items():
        if span_name not in present:
            absent.append(metric)
        elif kind == "time":
            values[metric] = busy[span_name] / 1e9
        elif kind == "ratio":
            identities = tracer.counts["pauli.identities"]
            values[metric] = tracer.counts["pauli.exact_zeros"] / identities if identities else 1.0
        else:
            values[metric] = tracer.counts[kind]
    return values, absent


def self_sum_error(tracer: Tracer) -> float:
    """Largest gap (s) between an invocation's wall time and the sum of the
    self times of its spans."""
    own = self_times(tracer.spans)
    sums: Counter = Counter()
    for span, t in zip(tracer.spans, own):
        sums[span[4]] += t
    roots = {span[4]: span[2] - span[1] for span in tracer.spans if span[3] < 0}
    return max((abs(roots[i] - sums[i]) / 1e9 for i in roots), default=0.0)


def traced_run(invocations: list[Invocation], seconds: float) -> dict:
    """After a warm-up, alternate traced and untraced passes for
    ``seconds`` (with ``seconds <= 0``, one traced pass only); gate every
    output; report median per-layer metrics."""
    import bosepauli  # noqa: F401  (imported before the clock starts)

    verdicts = Verdicts(invocations)
    untraced, traced, layer_runs, spans = [], [], [], []
    missing: list[str] = []
    absent: list[str] = []
    broken: set[str] = set()
    self_sum = 0.0
    run_pass(WARM_UP)  # lazy imports, BLAS thread start and first-call set-up, untimed
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer()
        undo, missing = install(tracer)
        try:
            wall, outputs = run_pass(invocations, tracer)
        finally:
            uninstall(undo)
        traced.append(wall)
        verdicts.add_pass(outputs)
        values, absent = layer_metrics(tracer, missing)
        layer_runs.append(values)
        self_sum = max(self_sum, self_sum_error(tracer))
        broken |= tracer.broken_counters
        spans = tracer.spans
        if seconds <= 0:
            break
        wall, outputs = run_pass(invocations)
        untraced.append(wall)
        verdicts.add_pass(outputs)
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    layers = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    layers["trace.wall_s"] = statistics.median(traced)
    if untraced:
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {
        "layers": layers,
        "absent": absent,
        "missing_sites": missing,
        "broken_counters": sorted(broken),
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "self_sum_max_error_s": self_sum,
        "verdicts": verdicts.summary(),
        "spans": spans,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--invocations", required=True, help="JSON list of invocations")
    args = parser.parse_args()
    invocations = [Invocation.from_dict(item) for item in json.loads(args.invocations)]
    result = traced_run(invocations, args.seconds)
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
