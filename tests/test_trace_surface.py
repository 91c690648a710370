"""The names the benchmark's traced run looks up in ``bosepauli`` still exist.

``perfbench/tracing.py`` wraps functions by name; a renamed function is
reported as a missing site, and its layer metric drops out of the traced
result while the run still exits 0. This test runs the traced worker as the
benchmark does, over the small (``TINY``) invocations of every workload, and
checks that every layer metric is present and every declared per-layer name
has a source. It only reads ``perfbench/`` and writes no files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Prints the traced worker's invocations and the names the driver derives metrics from.
_DESCRIBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracing, workloads
invocations = [inv.to_dict() for name in workloads.WORKLOADS for inv in workloads.generate(name, 1, workloads.TINY)]
print(json.dumps({"invocations": invocations, "layer_metrics": list(tracing.LAYER_METRICS),
                  "blas_bound": list(run.BLAS_BOUND), "probe": run.PROBE}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-B", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def described() -> dict:
    done = _python("-c", _DESCRIBE, str(PERFBENCH))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def traced(described) -> dict:
    done = _python(str(PERFBENCH / "tracing.py"), "--seconds", "0", "--invocations", json.dumps(described["invocations"]))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_traced_run_reports_every_layer_and_passes_the_gate(described, traced):
    assert traced["absent"] == []
    assert set(described["layer_metrics"]) <= set(traced["layers"])
    assert traced["verdicts"]["failed"] == 0, traced["verdicts"]["failures"]
    # the gate counts standing-defect probes apart from the attempted invocations
    judged = [inv for inv in described["invocations"] if not inv["standing_defect"]]
    assert traced["verdicts"]["attempted"] == len(judged)


def test_every_declared_per_layer_name_has_a_source(described):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracing_source = (PERFBENCH / "tracing.py").read_text()

    def sourced(name: str) -> bool:
        if name in described["layer_metrics"]:
            return True
        if name.endswith(".blas1"):
            base = name.removesuffix(".blas1")
            return base in described["blas_bound"] and sourced(base)
        if name.startswith("trace."):
            return f'"{name}"' in tracing_source
        if name.startswith("process."):
            return f'"{name.removeprefix("process.")}"' in described["probe"]
        return False

    unsourced = [entry["name"] for entry in spec["per_layer"] if not sourced(entry["name"])]
    assert unsourced == []
