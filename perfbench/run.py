"""bosepauli benchmark driver.

    python3 perfbench/run.py --workload algebra-sweep --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and measures the CLI of the working
tree (``PYTHONPATH=src``, never an installed copy). One client in a closed
loop: each ``python -m bosepauli ...`` starts after the previous one exits.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. BLAS thread variables are passed through
as inherited, except in the single-threaded traced pass (``.blas1``).

The second-to-last line of stdout is a detail record (environment, quartiles
and sample counts, gate failures with reasons, standing defects); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from gate import Verdicts
from workloads import FULL, WORKLOADS, Invocation, Sizes, generate

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_rate": "ratio"}
BLAS_BOUND = ("fock.product_s", "pauli.catalog_self_s", "pauli.construct_s", "grassmann.apply_s", "trace.wall_s")
MIN_PASSES = 2
MIN_SETUPS = 5
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0

PROBE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import bosepauli
t2 = time.perf_counter()
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = None
print(json.dumps({"numpy_import_s": t1 - t0, "import_s": t2 - t0, "numpy": numpy.__version__,
                  "blas": blas, "bosepauli": bosepauli.__file__}))
"""


class Child(NamedTuple):
    """Outcome of one child process: wall time to the last byte read,
    user+sys CPU and peak RSS from ``os.wait4``, exit code and output."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    stderr: str


def spawn(args: list[str], env: dict) -> Child:
    """Run ``python args...`` in the checkout, read both pipes to the end,
    then reap it with ``os.wait4``. A child past ``CHILD_TIMEOUT_S`` is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    killed = False
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(out_fd, selectors.EVENT_READ)
            selector.register(err_fd, selectors.EVENT_READ)
            while selector.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                if remaining <= 0 and not killed:
                    os.kill(proc.pid, signal.SIGKILL)  # the pipes then reach EOF
                    killed = True
                for key, _ in selector.select(max(remaining, 1.0)):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        # Reaped here rather than by Popen, which would discard the rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        b"".join(chunks[out_fd]).decode(),
        b"".join(chunks[err_fd]).decode(errors="replace"),
    )


def child_env() -> dict:
    """The inherited environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


# --------------------------------------------------------------- environment


def import_probe(env: dict) -> dict:
    child = spawn(["-c", PROBE], env)
    if child.returncode != 0:
        raise RuntimeError(f"import probe failed: {child.stderr.strip()[-500:]}")
    probe = json.loads(child.stdout)
    if not Path(probe["bosepauli"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"bosepauli was imported from {probe['bosepauli']}, not from the checkout's src/")
    return probe


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git repository"}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "note": f"git unavailable: {exc}"}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def src_lines() -> dict:
    counts = {path.stem: len(path.read_text().splitlines()) for path in sorted((ROOT / "src" / "bosepauli").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def environment(seed: int, load: tuple, probe: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "inherited_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "git": git_state(),
        "seed": seed,
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------- end to end


def run_pass(invocations: list[Invocation], env: dict) -> tuple[float, float, float, list[tuple[int, str]]]:
    """One closed-loop pass. Returns wall (first start to last byte read),
    summed child CPU, largest child RSS in MB, and the outputs."""
    children = []
    start = time.perf_counter()
    for inv in invocations:
        children.append(spawn(["-m", "bosepauli", *inv.argv], env))
    wall = time.perf_counter() - start
    cpu = sum(child.cpu_s for child in children)
    peak = max(child.maxrss_kb for child in children) / 1024
    return wall, cpu, peak, [(child.returncode, child.stdout) for child in children]


def setup_time(env: dict) -> float:
    child = spawn(["-m", "bosepauli", "--help"], env)
    if child.returncode != 0 or "usage" not in child.stdout:
        raise RuntimeError(f"bosepauli --help failed with exit code {child.returncode}: {child.stderr.strip()[-500:]}")
    return child.wall_s


def end_to_end(invocations: list[Invocation], env: dict, seconds: float) -> tuple[dict, Verdicts]:
    """Passes until ``seconds`` are used (at least ``MIN_PASSES``), one
    ``--help`` set-up timing before each. Returns samples per metric."""
    verdicts = Verdicts(invocations)
    samples = {name: [] for name in END_TO_END_UNITS}
    deadline = time.perf_counter() + seconds
    while True:
        samples["setup_s"].append(setup_time(env))
        wall, cpu, peak, outputs = run_pass(invocations, env)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(peak)
        verdicts.add_pass(outputs)  # untimed
        next_pass = statistics.median(samples["wall_s"]) + statistics.median(samples["setup_s"])
        if len(samples["wall_s"]) >= MIN_PASSES and time.perf_counter() + next_pass > deadline:
            break
    while len(samples["setup_s"]) < MIN_SETUPS:
        samples["setup_s"].append(setup_time(env))
    samples["pass_rate"].append((verdicts.attempted - verdicts.failed) / verdicts.attempted)
    return samples, verdicts


# -------------------------------------------------------------------- traced


def traced_worker(invocations: list[Invocation], env: dict, seconds: float) -> dict:
    payload = json.dumps([inv.to_dict() for inv in invocations])
    args = [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--seconds", str(seconds), "--invocations", payload]
    done = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"traced worker failed with exit code {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def traced(invocations: list[Invocation], env: dict, seconds: float, spans_path: Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics: a traced worker with inherited threads for
    ``seconds``, one with single-threaded BLAS for one pass, and fresh
    interpreters timing the imports."""
    inherited = traced_worker(invocations, env, seconds)
    single = traced_worker(invocations, {**env, **{name: "1" for name in THREAD_VARS}}, 0)
    probes = [import_probe(env) for _ in range(IMPORT_PROBES)]
    layers = dict(inherited["layers"])
    for name in BLAS_BOUND:
        if name in single["layers"]:
            layers[f"{name}.blas1"] = single["layers"][name]
    for name in ("import_s", "numpy_import_s"):
        layers[f"process.{name}"] = statistics.median(probe[name] for probe in probes)
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"inherited": inherited.pop("spans"), "blas1": single.pop("spans")}))
    first, second = inherited.pop("verdicts"), single.pop("verdicts")
    verdicts = {key: first[key] + second[key] for key in first}
    detail = {"inherited": inherited, "blas1": single, "spans_file": str(spans_path.relative_to(ROOT))}
    return layers, detail, verdicts


def layer_unit(name: str) -> str:
    base = name.removesuffix(".blas1")
    if base.endswith("_s"):
        return "s"
    if base.endswith("_flops"):
        return "flop"
    if base.endswith("_bytes") or base == "report.bytes":
        return "B"
    if base.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------- main


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """One benchmark run. Returns ``(detail, result)``."""
    load = os.getloadavg()
    env = child_env()
    invocations = generate(workload, seed, sizes)
    probe = import_probe(env)  # also warms the file cache before any timing
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "argv": [list(inv.argv) for inv in invocations],
              "environment": environment(seed, load, probe)}
    if trace:
        spans_path = ROOT / OUT_DIR / f"spans-{workload}-seed{seed}.json"
        values, detail["traced"], verdicts = traced(invocations, env, seconds, spans_path)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
    else:
        samples, gate = end_to_end(invocations, env, seconds)
        detail["samples"] = {name: quartiles(values) for name, values in samples.items()}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        verdicts = gate.summary()
    detail["verdicts"] = verdicts
    result = {"correct": verdicts["failed"] == 0, "attempted": verdicts["attempted"], "failed": verdicts["failed"], "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bosepauli CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bosepauli" / "__init__.py").is_file():
        print(f"no bosepauli source tree under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
