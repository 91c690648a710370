"""Tests of the benchmark itself: result schema, correctness gate, seeded
generator, span arithmetic and wrapper installation.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec_units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


# -------------------------------------------------------------------- schema


def test_spec_names_the_workloads_and_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_end_to_end_run_has_the_declared_schema(workload):
    detail, result = run.measure(workload, seed=3, seconds=0, trace=False, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(detail["environment"]) >= {"python", "numpy", "blas", "inherited_threads", "nproc", "git", "seed", "src_lines"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    detail, result = run.measure(workload, seed=3, seconds=0.2, trace=True, sizes=TINY)
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _spec_units("per_layer")
    assert detail["traced"]["inherited"]["self_sum_max_error_s"] < 1e-6
    assert result["metrics"]["pauli.exact_zero_ratio"]["value"] == 1.0


def test_k189_probe_is_reported_as_a_standing_defect():
    detail, result = run.measure("resolution-grid", seed=1, seconds=0, trace=False, sizes=TINY)
    (defect,) = detail["verdicts"]["standing_defects"]
    assert "--radial" in defect["argv"] and "189" in defect["argv"]
    assert defect["runs"] >= 2
    assert result["attempted"] >= 1


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_argv(workload):
    assert generate(workload, 11) == generate(workload, 11)


def test_exponents_cover_both_parities():
    for seed in range(50):
        for inv in generate("algebra-sweep", seed) + generate("operator-export", seed)[3:]:
            ls = [int(l) for l in inv.argv[inv.argv.index("--ls") + 1].split(",")]
            assert all(1 <= l <= 12 for l in ls) and len(set(ls)) == len(ls)
            assert {l % 2 for l in ls} == {0, 1}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_do_the_same_work(workload):
    counts = []
    for seed in (1, 2):
        layers = tracing.traced_run(generate(workload, seed, TINY), seconds=0)["layers"]
        counts.append({name: layers[name] for name in ("report.records", "fock.product_calls", "coherent.outer_products")})
    assert generate(workload, 1, TINY) != generate(workload, 2, TINY)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------- gate


def _verify_invocation():
    return generate("algebra-sweep", 0, TINY)[1]


def _verify_output(inv):
    from bosepauli.cli import main
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(inv.argv)) == 0
    return buffer.getvalue()


def test_gate_accepts_a_true_report():
    inv = _verify_invocation()
    assert gate.check(inv, 0, _verify_output(inv))[0] is None


def test_gate_flags_a_tiny_residual_in_an_exact_record():
    inv = _verify_invocation()
    tampered = _verify_output(inv).replace('"residual": 0.0', '"residual": 1e-300', 1)
    reason, _ = gate.check(inv, 0, tampered)
    assert reason is not None and "1e-300" in reason


def test_gate_flags_a_nan_token():
    inv = _verify_invocation()
    tampered = _verify_output(inv).replace('"residual": 0.0', '"residual": NaN', 1)
    reason, _ = gate.check(inv, 0, tampered)
    assert reason is not None and "NaN" in reason


def test_gate_flags_a_wrong_exit_code_and_a_missing_record():
    inv = _verify_invocation()
    text = _verify_output(inv)
    assert "exit code 1" in gate.check(inv, 1, text)[0]
    report = json.loads(text)
    report["records"].pop()
    assert "records" in gate.check(inv, 0, json.dumps(report))[0]


def test_gate_flags_a_wrong_dump_entry():
    inv = next(i for i in generate("operator-export", 0, TINY) if i.dump and i.dump[3] == "csv")
    op, dim, l, _ = inv.dump
    matrix = gate.closed_form(op, dim, l)
    lines = [f"{r},{c},{matrix[r, c]:.12g},0" for r, c in zip(*matrix.nonzero())]
    assert gate.check(inv, 0, "\n".join(lines) + "\n")[0] is None
    lines[0] = lines[0].replace(",1,0", ",-1,0") if ",1,0" in lines[0] else lines[0].replace(",-1,0", ",1,0")
    assert "closed form" in gate.check(inv, 0, "\n".join(lines) + "\n")[0]


@pytest.mark.parametrize("l", [1, 2, 3, 6])
def test_closed_form_matches_the_outer_product_oracle(l):
    from bosepauli import BosonizationParams, FockSpace, closed_form_sigma_minus

    oracle = closed_form_sigma_minus(BosonizationParams(l, FockSpace(10)))
    assert (gate.closed_form("sigma_minus", 10, l) == oracle.real).all()


def test_verdicts_flag_records_that_change_between_passes():
    inv = _verify_invocation()
    text = _verify_output(inv)
    verdicts = gate.Verdicts([inv])
    verdicts.add_pass([(0, text)])
    report = json.loads(text)
    report["records"][0], report["records"][1] = report["records"][1], report["records"][0]
    verdicts.add_pass([(0, json.dumps(report))])
    assert verdicts.attempted == 2 and verdicts.failed == 1
    assert "first pass" in verdicts.failures[0]["reason"]


# ------------------------------------------------------------------- tracing


def test_self_times_of_a_synthetic_span_tree_add_up_to_the_root():
    spans = [
        ["cli.main", 0, 100, -1, 0],
        ["report.suite", 10, 40, 0, 0],
        ["pauli.catalog", 20, 30, 1, 0],
        ["report.serialize", 50, 90, 0, 0],
        ["fock.product", 55, 65, 3, 0],
        ["fock.product", 70, 85, 3, 0],
    ]
    own = tracing.self_times(spans)
    assert own == [30, 20, 10, 15, 10, 15]
    assert sum(own) == 100


def test_self_time_counts_overlapping_children_once():
    spans = [["parent", 50, 90, -1, 0], ["child", 55, 70, 0, 0], ["child", 65, 95, 0, 0]]
    assert tracing.self_times(spans) == [5, 15, 30]


def test_missing_site_is_reported_absent_and_originals_are_restored(monkeypatch):
    import bosepauli.grassmann

    original_sigma_minus = bosepauli.grassmann.sigma_minus
    monkeypatch.delattr(bosepauli.grassmann, "apply_operator")
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    tracing.uninstall(undo)
    assert missing == ["bosepauli.grassmann.apply_operator"]
    _, absent = tracing.layer_metrics(tracer, missing)
    assert absent == ["grassmann.apply_s"]
    assert bosepauli.grassmann.sigma_minus is original_sigma_minus
