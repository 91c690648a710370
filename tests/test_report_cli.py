import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bosepauli import (
    THETA,
    BosonizationParams,
    FockSpace,
    GrassmannKet,
    GrassmannScalar,
    PauliSet,
    QuadratureGrid,
    algebra_residuals,
    dagger,
    parity_projectors,
    pauli_set,
    sigma_minus,
    sigma_three,
    verify_functional_equation,
)
from bosepauli import cli, pauli
from bosepauli.report import (
    CSV_COLUMNS,
    DUMPABLE_OPERATORS,
    FUNCTIONAL_EQUATION_N_MAX,
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


_KET_PARTS = (np.array([1.0 + 0j, 0j]), np.array([0j, 2.0 + 0j]))  # shared: kets compare arrays by identity

# type -> (fresh value, repr text, hashable, frozen)
VALUE_TYPES = {
    FockSpace: (lambda: FockSpace(4), "FockSpace(dim=4)", True, True),
    BosonizationParams: (
        lambda: BosonizationParams(3, FockSpace(4)),
        "BosonizationParams(l=3, space=FockSpace(dim=4))",
        True,
        True,
    ),
    PauliSet: (
        lambda: PauliSet(1, 2, 3, 4, 5),
        "PauliSet(sigma_minus=1, sigma_plus=2, sigma_one=3, sigma_two=4, sigma_three=5)",
        True,
        True,
    ),
    CheckRecord: (
        lambda: CheckRecord("x", "(7)", {"dim": 2}, 0.0, 1e-12),
        "CheckRecord(identity_id='x', equation='(7)', params={'dim': 2}, residual=0.0, tolerance=1e-12)",
        False,  # params is a dict
        True,
    ),
    VerificationReport: (
        lambda: VerificationReport([CheckRecord("x", "(7)", {}, 0.0, 0.0)], "9.9"),
        "VerificationReport(records=[CheckRecord(identity_id='x', equation='(7)', params={}, residual=0.0,"
        " tolerance=0.0)], tool_version='9.9')",
        False,
        False,  # a report is filled in place
    ),
    GrassmannScalar: (lambda: GrassmannScalar(1j, 2.0), "GrassmannScalar(body=1j, soul=2.0)", True, True),
    GrassmannKet: (
        lambda: GrassmannKet(FockSpace(2), *_KET_PARTS),
        "GrassmannKet(space=FockSpace(dim=2), body=array([1.+0.j, 0.+0.j]), soul=array([0.+0.j, 2.+0.j]))",
        False,  # numpy arrays have no hash
        True,
    ),
    QuadratureGrid: (
        lambda: QuadratureGrid((0.5, 3.5), (-0.1, -2.5), 4),
        "QuadratureGrid(radial_nodes=(0.5, 3.5), log_weights=(-0.1, -2.5), angular_count=4)",
        True,
        True,
    ),
}


@pytest.mark.parametrize("value_type", VALUE_TYPES, ids=lambda t: t.__name__)
def test_value_types_compare_hash_and_print_by_value(value_type):
    make, text, hashable, frozen = VALUE_TYPES[value_type]
    value, same = make(), make()
    assert type(value) is value_type
    assert repr(value) == text
    assert value == same and not value != same
    if hashable:
        assert hash(value) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(value)
    field = text[len(value_type.__name__) + 1 :].split("=", 1)[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(same, field))
        with pytest.raises(AttributeError):
            value.unknown_field = 1
        assert value == same
    else:  # the report: its records fill in place, from a fresh list each
        setattr(value, field, [])
        assert value != same
        assert VerificationReport().records == [] and VerificationReport().records is not VerificationReport().records
        records = []
        assert VerificationReport(records).records is records


def test_numpy_scalars_meet_grassmann_scalars_through_their_arithmetic():
    # not by broadcasting over the two coefficients, as numpy does over a tuple
    for result, expected in (
        (np.float64(2.0) * THETA, GrassmannScalar(0j, 2 + 0j)),
        (THETA * np.complex128(1j), GrassmannScalar(0j, 1j)),
        (np.complex128(1j) + THETA, GrassmannScalar(1j, 1 + 0j)),
    ):
        assert type(result) is GrassmannScalar and result == expected


def _reference_sorted(report):
    # reference order: identity, then the text of json.dumps(params, sort_keys=True)
    return sorted(report.records, key=lambda r: (r.identity_id, json.dumps(r.params, sort_keys=True)))


def _reference_json(report):
    # reference: the whole payload through json.dumps with indent=2
    payload = {
        "tool_version": report.tool_version,
        "records": [r.to_json_dict() for r in _reference_sorted(report)],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2)


def _reference_csv(report):
    # reference: one csv.writer row per record in the reference order
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in _reference_sorted(report):
        params = r.params
        row = [r.identity_id, r.equation, params.get("dim", ""), params.get("l", ""), params.get("variant", "")]
        writer.writerow(row + [repr(r.residual), repr(r.tolerance), "true" if r.passed else "false"])
    return out.getvalue()


_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e300, -1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_TEXT = st.one_of(st.sampled_from(["anticomm_sigma_one_sigma_two", "(7)", "(37)-(38)", "even-plain"]), st.text())
_SMALL_INT = st.integers(-(10**20), 10**20)
_PARAMS = st.one_of(
    st.fixed_dictionaries({"dim": _SMALL_INT, "l": _SMALL_INT}),  # verify catalog
    st.fixed_dictionaries({"l": _SMALL_INT, "n_max": _SMALL_INT}),  # verify functional equation
    st.fixed_dictionaries(  # quadrature
        {"dim": _SMALL_INT, "K": _SMALL_INT, "M": _SMALL_INT, "variant": _TEXT, "under_resolved": st.booleans()}
    ),
    st.fixed_dictionaries({"dim": _SMALL_INT, "l": _SMALL_INT, "soul_re": _FLOAT, "soul_im": _FLOAT}),  # grassmann
    st.dictionaries(_TEXT, st.one_of(_SMALL_INT, _FLOAT, st.booleans(), _TEXT), max_size=3),
)
_RECORDS = st.lists(st.builds(CheckRecord, _TEXT, _TEXT, _PARAMS, _FLOAT, _FLOAT), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_RECORDS, _TEXT)
def test_report_writers_match_json_dumps_and_csv_writer(records, version):
    report = VerificationReport(records, tool_version=version)
    assert report.to_json() == _reference_json(report)
    assert report.to_csv() == _reference_csv(report)


@pytest.mark.parametrize("dims, ls", (([2, 4, 8, 16, 32, 64, 128, 256], [1, 2, 3, 4, 5, 6]), ([512], [11, 4])))
def test_report_writers_match_json_dumps_and_csv_writer_on_verify_sweeps(dims, ls):
    report = algebra_suite(dims, ls)
    assert report.to_json() == _reference_json(report)
    assert report.to_csv() == _reference_csv(report)


def test_records_sort_by_the_text_of_their_params():
    # decimal text order: dim 128 before 16 before 2, and "l": 12 before "l": 1,
    # since "2" sorts before the "}" that closes {"l": 1}
    report = algebra_suite([2, 16, 128], [1, 12])
    order = [(r.params["dim"], r.params["l"]) for r in report.sorted_records() if r.identity_id == "sigma_minus_squared"]
    assert order == [(128, 12), (128, 1), (16, 12), (16, 1), (2, 12), (2, 1)]
    assert report.sorted_records() == _reference_sorted(report)


def test_quadrature_and_grassmann_reports_match_json_dumps():
    for report in (quadrature_suite(8, 4, 16, ["odd-phased", "even-plain"]), grassmann_suite([2, 8], [1, 2])):
        assert report.to_json() == _reference_json(report)
        assert report.to_csv() == _reference_csv(report)


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


def _per_dim_algebra_suite(dims, ls):
    # reference: one whole catalog run for every (dim, l) pair
    records = [
        CheckRecord(
            "functional_equation",
            "(14)",
            {"l": l, "n_max": FUNCTIONAL_EQUATION_N_MAX},
            verify_functional_equation(l, FUNCTIONAL_EQUATION_N_MAX),
            0.0,
        )
        for l in ls
    ]
    for dim in dims:
        for l in ls:
            for check in algebra_residuals(BosonizationParams(l, FockSpace(dim))):
                records.append(CheckRecord(check.identity, check.equation, {"dim": dim, "l": l}, check.residual, 0.0))
    return VerificationReport(records)


SWEEP_DIMS = [64, 2, 16, 2, 256]  # unsorted, with a duplicate


def test_algebra_suite_matches_per_dim_catalog_runs():
    ls = list(range(1, 13))
    fast, reference = algebra_suite(SWEEP_DIMS, ls), _per_dim_algebra_suite(SWEEP_DIMS, ls)
    assert fast.to_json() == reference.to_json()
    assert fast.to_csv() == reference.to_csv()


@pytest.mark.parametrize("block", (0, 1, 7, 31, 127))
def test_algebra_suite_shows_a_block_defect_in_exactly_the_dims_that_hold_it(monkeypatch, block):
    lowering_block = pauli._lowering_block

    def defective(n, l):
        entries = lowering_block(n, l)
        if n == block:
            entries = tuple(e + d for e, d in zip(entries, (0.25, 0.0, 0.5j, 0.0)))
        return entries

    monkeypatch.setattr(pauli, "_lowering_block", defective)
    ls = [1, 2]
    fast = algebra_suite(SWEEP_DIMS, ls)
    assert fast.to_json() == _per_dim_algebra_suite(SWEEP_DIMS, ls).to_json()
    for dim in SWEEP_DIMS:
        for l in ls:
            worst = max(r.residual for r in fast.records if r.params == {"dim": dim, "l": l})
            assert (worst > 0.0) == (dim // 2 > block)


def test_algebra_suite_rejects_a_bad_dim_below_the_largest():
    with pytest.raises(ValueError, match="dim=3"):
        algebra_suite([2, 3, 64], [1])


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


def _nonzero_entries(op):
    # reference: numpy's row-major scan for the nonzero entries of a dense matrix
    return [(i, j, op[i, j]) for i, j in zip(*op.nonzero())]


def test_named_operator_projectors():
    assert named_operator("p_even", 4, 2) == _nonzero_entries(np.diag([1, 0, 1, 0]).astype(complex))
    assert named_operator("p_odd", 4, 2) == _nonzero_entries(np.diag([0, 1, 0, 1]).astype(complex))


def test_named_ladder_operators_match_pauli_set():
    for dim, l in ((2, 1), (6, 3), (8, 2)):
        ops = pauli_set(BosonizationParams(l, FockSpace(dim)))
        assert named_operator("sigma_minus", dim, l) == _nonzero_entries(ops.sigma_minus)
        assert named_operator("sigma_plus", dim, l) == _nonzero_entries(ops.sigma_plus)
        assert named_operator("sigma_three", dim, l) == _nonzero_entries(sigma_three(FockSpace(dim)))


def test_matrix_csv_omits_zeros():
    text = matrix_to_csv(named_operator("sigma_minus", 4, 2))
    assert text.splitlines() == ["0,1,1,0", "2,3,1,0"]


def test_matrix_csv_signed_entries():
    text = matrix_to_csv(named_operator("sigma_minus", 6, 1))
    assert text.splitlines() == ["0,1,1,0", "2,3,-1,0", "4,5,1,0"]


def test_matrix_json_matches_whole_matrix_dump():
    # reference: one json.dumps of the nested list of every entry
    op = np.array([[-0.0 - 0.0j, 1.5 - 0.25j, 1e-300j], [-2.0 + 0.0j, 0.1 + 0.2j, -0.0 + 3.0j]])
    whole = json.dumps([[[float(e.real), float(e.imag)] for e in row + 0.0] for row in op])
    assert matrix_to_json(op.shape, _nonzero_entries(op)) == whole


def _whole_matrix_json(op):
    # reference: one json.dumps of the nested list of every [re, im] pair
    return json.dumps(np.stack([op.real + 0.0, op.imag + 0.0], -1).tolist())


_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, -1e-310]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_ENTRY = st.one_of(
    st.sampled_from([0j, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]),
    st.builds(complex, _PART, _PART),
)
_SHAPE = st.one_of(
    st.just((0, 0)),
    st.integers(1, 6).map(lambda n: (1, n)),
    st.integers(1, 6).map(lambda n: (n, 1)),
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
)


@given(arrays(np.complex128, _SHAPE, elements=_ENTRY))
def test_matrix_json_matches_whole_matrix_dump_on_sparse_matrices(op):
    assert matrix_to_json(op.shape, _nonzero_entries(op)) == _whole_matrix_json(op)


def _dense_named_operator(name, dim, l):
    # reference: each dump target from the public dense constructors
    space = FockSpace(dim)
    if name in ("sigma_minus", "sigma_plus"):
        lowering = sigma_minus(BosonizationParams(l, space))
        return lowering if name == "sigma_minus" else dagger(lowering)
    if name == "sigma_three":
        return sigma_three(space)
    return parity_projectors(space)[0 if name == "p_even" else 1]


@pytest.mark.parametrize("l", (1, 2))
@pytest.mark.parametrize("dim", (2, 6, 64))
@pytest.mark.parametrize("name", DUMPABLE_OPERATORS)
def test_matrix_json_named_operators_match_whole_matrix_dump(name, dim, l):
    op = _dense_named_operator(name, dim, l)
    assert named_operator(name, dim, l) == _nonzero_entries(op)
    assert matrix_to_json(op.shape, named_operator(name, dim, l)) == _whole_matrix_json(op)


def _dense_matrix_csv(op):
    # reference: one row,col,re,im line per nonzero entry of the dense matrix
    lines = []
    for i, j in zip(*op.nonzero()):
        lines.append(f"{i},{j},{format(op[i, j].real + 0.0, '.12g')},{format(op[i, j].imag + 0.0, '.12g')}\n")
    return "".join(lines)


@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("dim", (2, 6, 64, 1024))
@pytest.mark.parametrize("name", DUMPABLE_OPERATORS)
def test_matrix_csv_named_operators_match_the_dense_scan(name, dim, l):
    assert matrix_to_csv(named_operator(name, dim, l)) == _dense_matrix_csv(_dense_named_operator(name, dim, l))


@given(arrays(np.complex128, _SHAPE, elements=_ENTRY))
def test_matrix_csv_matches_the_dense_scan_on_sparse_matrices(op):
    assert matrix_to_csv(_nonzero_entries(op)) == _dense_matrix_csv(op)


def test_matrix_json_shape():
    rows = json.loads(matrix_to_json((4, 4), named_operator("sigma_three", 4, 2)))
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


@pytest.mark.parametrize("command", (("verify", "--dims", "2", "--ls", "1"), ("quadrature", "--dim", "2")))
@pytest.mark.parametrize("tol", ("nan", "inf", "-1", "-1e-3", "-inf", "-1E+2"))  # argparse reads the last three as options
def test_cli_rejects_non_finite_or_negative_tolerance(command, tol):
    proc = _run(*command, "--tol", tol)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--tol must be a finite number >= 0, got {float(tol)}" in proc.stderr


@pytest.mark.parametrize("command", (("verify", "--dims", "2", "--ls", "1"), ("quadrature", "--dim", "2")))
def test_cli_range_checks_every_repeated_tolerance(command):
    proc = _run(*command, "--tol", "1", "--tol", "-1e-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--tol must be a finite number >= 0, got -0.001" in proc.stderr
    proc = _run(*command, "--tol", "-1e-3", "--tol", "1")  # the last one counts
    assert proc.returncode == 0
    assert {record["tolerance"] for record in json.loads(proc.stdout)["records"]} == {1.0}


def _cli_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exit:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exit.value.code == 2
    assert out == ""
    *usage, error = err.splitlines()
    return usage, error


# subcommand -> (arguments its own checks reject, message)
USAGE_ERRORS = {
    "verify": (("--dims", "2,3", "--ls", "1"), "--dims entries must be even and >= 2, got 3"),
    "quadrature": (("--dim", "4", "--radial", "0"), "--radial and --angular must be >= 1"),
    "grassmann": (("--dims", "2", "--ls", "1,0"), "--ls entries must be positive, got 0"),
    "dump": (("--op", "p_odd", "--dim", "4", "--l", "0"), "--l must be positive, got 0"),
}


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_cli_usage_errors_name_the_subcommand(command, capsys):
    args, message = USAGE_ERRORS[command]
    usage, error = _cli_usage_error(capsys, command, *args)
    assert error == f"bosepauli {command}: error: {message}"
    # the usage argparse prints for its own errors in this subcommand
    assert usage == _cli_usage_error(capsys, command, *args, "--format", "xml")[0]
    assert usage[0].startswith(f"usage: bosepauli {command} [-h]")


def test_cli_library_value_errors_name_the_subcommand(capsys, monkeypatch):
    def rejects(*args):
        raise ValueError("radial_count=4: Newton's method did not converge on Laguerre node 2")

    monkeypatch.setattr(cli, "quadrature_suite", rejects)
    usage, error = _cli_usage_error(capsys, "quadrature", "--dim", "4", "--radial", "4")
    assert error == "bosepauli quadrature: error: radial_count=4: Newton's method did not converge on Laguerre node 2"
    assert usage[0].startswith("usage: bosepauli quadrature [-h]")


@pytest.mark.parametrize(
    "command, code",
    ((("verify", "--dims", "2,4", "--ls", "1,2"), 0), (("quadrature", "--dim", "2"), 1)),  # quadrature is not exact
)
def test_cli_prints_negative_zero_tolerance_unsigned(command, code):
    proc = _run(*command, "--tol", "-0.0")
    assert proc.returncode == code
    tolerances = {record["tolerance"] for record in json.loads(proc.stdout)["records"]}
    assert tolerances == {0.0} and '"tolerance": 0.0,' in proc.stdout
    assert "-0.0" not in proc.stdout
    proc = _run(*command, "--tol", "-0.0", "--format", "csv")
    assert proc.returncode == code
    assert {line.split(",")[6] for line in proc.stdout.splitlines()[1:]} == {"0.0"}


@pytest.mark.parametrize(
    "args",
    (
        ("grassmann", "--dims", "2", "--ls", "1"),  # fits the stdout buffer: fails at the final flush
        ("dump", "--op", "sigma_minus", "--dim", "256"),  # ~0.8 MB: fails inside print
    ),
)
def test_cli_quits_quietly_when_stdout_closes_early(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bosepauli", *args], stdout=write_end, stderr=subprocess.PIPE, env=buffered
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


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


def test_cli_quadrature_resolves_a_large_radial_count():
    # numpy's laggauss rule went NaN here; the log-weight rule stays finite
    proc = _run("quadrature", "--dim", "2", "--radial", "189", "--angular", "4")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)["records"]
    assert len(records) == 4 and all(record["residual"] < 1e-12 and record["pass"] for record in records)
    proc = _run("quadrature", "--dim", "2", "--radial", "0", "--angular", "4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--radial and --angular must be >= 1" in proc.stderr


def test_cli_verify_certifies_a_million_level_truncation():
    proc = _run("verify", "--dims", "1000000", "--ls", "1,2")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)["records"]
    assert len(records) == 2 + 2 * 30
    assert all(record["residual"] == 0.0 and record["pass"] for record in records)
    assert '"residual": 0.0,' in proc.stdout


# ------------------------------------------------------------ import guard


def _run_from_source_tree(*args):
    src = os.path.dirname(os.path.dirname(pauli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# argv -> exit code; the quadrature runs are the benchmark's resolved,
# under-resolved and K=189 resolution-grid invocations, and the D=1024 dumps
# and the grassmann run are operator-export's
NUMPY_FREE_RUNS = {
    ("verify", "--dims", "2,4", "--ls", "1,2"): 0,
    ("--help",): 0,
    ("quadrature", "--dim", "64", "--radial", "64", "--angular", "256"): 0,
    ("quadrature", "--dim", "64", "--radial", "8", "--angular", "16"): 1,
    ("quadrature", "--dim", "2", "--radial", "189", "--angular", "4"): 0,
    **{("dump", "--op", op, "--dim", "64", "--format", fmt): 0 for op in DUMPABLE_OPERATORS for fmt in ("json", "csv")},
    ("dump", "--op", "sigma_minus", "--dim", "1024", "--l", "3", "--format", "json"): 0,
    ("dump", "--op", "sigma_plus", "--dim", "1024", "--l", "5", "--format", "csv"): 0,
    ("grassmann", "--dims", "256,512,1024", "--ls", "3,4"): 0,
}


@pytest.mark.parametrize("args", NUMPY_FREE_RUNS)
def test_verify_and_help_import_no_numpy(args):
    proc = _run_from_source_tree("-X", "importtime", "-m", "bosepauli", *args)
    assert proc.returncode == NUMPY_FREE_RUNS[args]
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "bosepauli.cli" in modules
    assert [name for name in modules if name == "numpy" or name.startswith("numpy.")] == []
    assert [name for name in modules if name in ("dataclasses", "inspect")] == []


def test_every_public_name_resolves_and_the_numpy_subcommands_still_run():
    code = (
        "import sys, bosepauli; names = [n for n in bosepauli.__all__ if n != '__version__'];"
        " print(len(names), len(set(names)), all(getattr(bosepauli, n) is not None for n in names), 'numpy' in sys.modules)"
    )
    proc = _run_from_source_tree("-c", code)
    assert proc.stdout.split() == ["45", "45", "True", "True"]
    for args in (
        ("dump", "--op", "sigma_three", "--dim", "4"),
        ("quadrature", "--dim", "8", "--radial", "8", "--angular", "32"),
        ("grassmann", "--dims", "2,4", "--ls", "1,2"),
    ):
        proc = _run_from_source_tree("-m", "bosepauli", *args)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)


def test_cli_dump_and_grassmann_run_at_sizes_no_dense_matrix_fits():
    # a dense sigma_- would take 640 GB at D=200000 and 16 TB at D=1000000
    proc = _run_from_source_tree("-m", "bosepauli", "dump", "--op", "sigma_minus", "--dim", "200000", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 100_000
    assert lines[0] == "0,1,1,0" and lines[-1] == "199998,199999,1,0"
    proc = _run_from_source_tree("-m", "bosepauli", "grassmann", "--dims", "1000000", "--ls", "1,2")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)["records"]
    assert len(records) == 2
    assert all(record["residual"] == 0.0 and record["pass"] for record in records)
    assert proc.stdout.count('"residual": 0.0,') == 2
