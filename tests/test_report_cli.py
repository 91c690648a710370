import json
import subprocess
import sys

import numpy as np
import pytest

from bosepauli.report import (
    CheckRecord,
    VerificationReport,
    algebra_suite,
    grassmann_suite,
    matrix_to_csv,
    matrix_to_json,
    named_operator,
    quadrature_suite,
)


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "bosepauli", *args],
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------- records


def test_record_pass_logic():
    failing = CheckRecord("x", "(7)", {}, 1e-9, 0.0)
    passing = CheckRecord("x", "(7)", {}, 1e-9, 1e-8)
    assert not failing.passed
    assert passing.passed


def test_exact_expected_tracks_zero_tolerance():
    assert CheckRecord("x", "(7)", {}, 0.0, 0.0).exact_expected
    assert not CheckRecord("x", "(7)", {}, 0.0, 1e-12).exact_expected


def test_summary_counts_match_records():
    report = VerificationReport(
        [CheckRecord("a", "(7)", {}, 0.0, 0.0), CheckRecord("b", "(9)", {}, 2.0, 1.0)]
    )
    assert report.summary == {"pass": 1, "fail": 1}
    assert not report.all_passed()


def test_json_round_trip():
    report = algebra_suite([2, 4], [1, 2])
    parsed = json.loads(report.to_json())
    recomputed = sum(1 for r in parsed["records"] if r["pass"])
    assert parsed["summary"]["pass"] == recomputed
    assert parsed["summary"]["fail"] == len(parsed["records"]) - recomputed
    assert parsed["tool_version"]
    for record in parsed["records"]:
        assert set(record) == {"identity_id", "paper_eq", "params", "residual", "tolerance", "pass", "exact_expected"}
        assert record["pass"] == (record["residual"] <= record["tolerance"])


def test_reports_are_deterministic():
    first = algebra_suite([2, 8], [1, 3]).to_json()
    second = algebra_suite([2, 8], [1, 3]).to_json()
    assert first == second


def test_csv_header_and_shape():
    text = algebra_suite([2], [1]).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "identity_id,paper_eq,dim,l,variant,residual,tolerance,pass"
    assert len(lines) == 1 + 1 + 30  # header, functional equation, catalog


def test_algebra_suite_record_count_and_passes():
    dims, ls = [2, 4], [1, 2]
    report = algebra_suite(dims, ls)
    assert len(report.records) == len(ls) * (1 + len(dims) * 30)
    assert report.all_passed()


def test_quadrature_suite_flags_under_resolved_grid():
    report = quadrature_suite(16, 1, 2, ["even-plain"])
    (record,) = report.records
    assert record.params["under_resolved"]
    assert not record.passed


def test_quadrature_suite_exact_grid_passes():
    report = quadrature_suite(16, 16, 64, ["even-plain", "odd-phased"])
    assert len(report.records) == 2
    assert report.all_passed()
    assert not any(r.params["under_resolved"] for r in report.records)


def test_grassmann_suite_shape():
    report = grassmann_suite([2, 8], [1, 2])
    assert len(report.records) == 4
    assert report.all_passed()
    assert all(r.exact_expected for r in report.records)


# -------------------------------------------------------------------- dump


def test_named_operator_rejects_unknown_name():
    with pytest.raises(ValueError):
        named_operator("sigma_zero", 4, 2)


def test_named_operator_projectors():
    assert np.array_equal(named_operator("p_even", 4, 2), np.diag([1, 0, 1, 0]).astype(complex))
    assert np.array_equal(named_operator("p_odd", 4, 2), np.diag([0, 1, 0, 1]).astype(complex))


def test_matrix_csv_omits_zeros():
    text = matrix_to_csv(named_operator("sigma_minus", 4, 2))
    assert text.splitlines() == ["0,1,1,0", "2,3,1,0"]


def test_matrix_csv_signed_entries():
    text = matrix_to_csv(named_operator("sigma_minus", 6, 1))
    assert text.splitlines() == ["0,1,1,0", "2,3,-1,0", "4,5,1,0"]


def test_matrix_json_shape():
    rows = json.loads(matrix_to_json(named_operator("sigma_three", 4, 2)))
    assert rows == [
        [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    ]


# --------------------------------------------------------------------- CLI


def test_cli_verify_passes_and_reports_json():
    proc = _run("verify", "--dims", "2,16", "--ls", "1,2")
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout)
    assert parsed["summary"]["fail"] == 0


def test_cli_verify_csv_format():
    proc = _run("verify", "--dims", "2", "--ls", "1", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.startswith("identity_id,paper_eq,dim,l,variant,residual,tolerance,pass")


def test_cli_verify_rejects_odd_dim():
    proc = _run("verify", "--dims", "3", "--ls", "1")
    assert proc.returncode == 2
    assert "even" in proc.stderr


def test_cli_verify_rejects_empty_exponent_list():
    proc = _run("verify", "--dims", "2", "--ls", "")
    assert proc.returncode == 2


def test_cli_quadrature_under_resolved_fails_with_flag():
    proc = _run("quadrature", "--dim", "16", "--radial", "1", "--angular", "2")
    assert proc.returncode == 1
    parsed = json.loads(proc.stdout)
    assert all(r["params"]["under_resolved"] for r in parsed["records"])
    assert parsed["summary"]["fail"] == len(parsed["records"]) == 4


def test_cli_quadrature_single_variant():
    proc = _run("quadrature", "--dim", "16", "--variants", "even-plain", "--tol", "1e-12")
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout)
    assert len(parsed["records"]) == 1
    assert parsed["records"][0]["params"]["variant"] == "even-plain"


def test_cli_quadrature_rejects_unknown_variant():
    proc = _run("quadrature", "--dim", "16", "--variants", "sideways")
    assert proc.returncode == 2


def test_cli_grassmann_sweep():
    proc = _run("grassmann", "--dims", "2,8", "--ls", "1,2")
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout)
    assert len(parsed["records"]) == 4
    assert all(r["pass"] and r["exact_expected"] for r in parsed["records"])


def test_cli_dump_csv():
    proc = _run("dump", "--op", "sigma_minus", "--dim", "4", "--l", "2", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0,1,1,0", "2,3,1,0"]


def test_cli_dump_json_sigma_three():
    proc = _run("dump", "--op", "sigma_three", "--dim", "4")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert [rows[i][i] for i in range(4)] == [[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]


def test_cli_dump_rejects_unknown_operator():
    proc = _run("dump", "--op", "hamiltonian", "--dim", "4")
    assert proc.returncode == 2


def test_cli_dump_sigma_plus_has_no_signed_zeros():
    for fmt in ("json", "csv"):
        proc = _run("dump", "--op", "sigma_plus", "--dim", "4", "--l", "1", "--format", fmt)
        assert proc.returncode == 0
        assert "-0" not in proc.stdout
    assert proc.stdout.splitlines() == ["1,0,1,0", "3,2,-1,0"]


def test_cli_quadrature_rejects_non_finite_grid():
    proc = _run("quadrature", "--dim", "2", "--radial", "187", "--angular", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "radial_count=187" in proc.stderr
