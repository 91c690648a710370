import contextlib
import csv
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import runpy
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
    RESOLUTION_VARIANTS,
    QuadratureGrid,
    _QUADRATURE_TOLERANCE,
    algebra_residuals,
    quadrature_grid,
    sigma_minus,
    sigma_three,
    verify_functional_equation,
)
from bosepauli import DUMPABLE_OPERATORS, blocks, cli, pauli
from bosepauli.dump import matrix_to_csv, matrix_to_json, named_operator
from bosepauli.report import (
    CSV_COLUMNS,
    FUNCTIONAL_EQUATION_N_MAX,
    CheckRecord,
    VerificationReport,
    algebra_suite,
    grassmann_suite,
    quadrature_suite,
)
from dense_oracles import dagger, parity_projectors, pauli_set


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


# type -> (fresh value, repr text, hashable, frozen)
VALUE_TYPES = {
    FockSpace: (lambda: FockSpace(4), "FockSpace(dim=4)", True, True),
    BosonizationParams: (
        lambda: BosonizationParams(3, FockSpace(4)),
        "BosonizationParams(l=3, space=FockSpace(dim=4))",
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
        lambda: GrassmannKet(FockSpace(2), np.array([1.0 + 0j, 0j]), np.array([0j, 2.0 + 0j])),
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


def _record_json_dict(record):
    # reference: a record as the dict json.dumps writes into a report
    return {
        "identity_id": record.identity_id,
        "paper_eq": record.equation,
        "params": record.params,
        "residual": record.residual,
        "tolerance": record.tolerance,
        "pass": record.passed,
        "exact_expected": record.exact_expected,
    }


def _reference_json(report):
    # reference: the whole payload through json.dumps with indent=2
    payload = {
        "tool_version": report.tool_version,
        "records": [_record_json_dict(r) for r in _reference_sorted(report)],
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
    # json.dumps writes non-text keys as text, and a report rejects them
    st.dictionaries(st.one_of(_TEXT, _SMALL_INT, _FLOAT, st.booleans(), st.none()), _SMALL_INT, max_size=3),
)
_RECORDS = st.lists(st.builds(CheckRecord, _TEXT, _TEXT, _PARAMS, _FLOAT, _FLOAT), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_RECORDS, _TEXT)
def test_report_writers_match_json_dumps_and_csv_writer(records, version):
    report = VerificationReport(records, tool_version=version)
    # the first params object, in record order, that holds a non-text key names its first such key
    keys = [key for record in records for key in record.params if not isinstance(key, str)]
    if keys:
        for write in (report.to_json, report.to_csv):
            with pytest.raises(TypeError) as raised:
                write()
            assert str(raised.value) == f"report params keys are strings, not {keys[0]!r}"
        return
    assert report.to_json() == _reference_json(report)
    assert report.to_csv() == _reference_csv(report)


def test_report_json_prints_equal_values_of_other_types_or_signs_apart():
    # 0 == False == 0.0 == -0.0 and 1 == True == 1.0, so text shared between
    # records by the value of their params or residuals would print one for another;
    # the first three residuals of each value share one params object
    values = (0, False, 0.0, -0.0, 1, True, 1.0)
    records = []
    for v in values:
        shared = {"v": v, "dim": 4, "l": v}
        for k, r in enumerate((0.0, -0.0, 0, False, 1e-9)):
            records.append(CheckRecord("x", "(7)", shared if k < 3 else dict(shared), r, 0.0))
    report = VerificationReport(records)
    assert report.to_json() == _reference_json(report)
    assert report.to_csv() == _reference_csv(report)
    # records equal by value may still print apart, so compare the order by identity
    assert list(map(id, report.sorted_records())) == list(map(id, _reference_sorted(report)))


def test_report_json_prints_a_none_param_as_json_dumps_does():
    report = VerificationReport([CheckRecord("x", "(7)", {"dim": None, "l": 2}, 0.0, 0.0)])
    assert report.to_json() == _reference_json(report)
    assert '"dim": null' in report.to_json()


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j, object()])
def test_report_json_rejects_an_unsupported_param_type_as_json_dumps_does(value):
    with pytest.raises(TypeError) as reference:
        json.dumps({"v": value})
    report = VerificationReport([CheckRecord("x", "(7)", {"v": value}, 0.0, 0.0)])
    with pytest.raises(TypeError) as raised:
        report.to_json()
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("value", [[1, 2], (1, 2), {"dim": 2}])
def test_report_json_rejects_a_container_param_naming_its_type(value):
    report = VerificationReport([CheckRecord("x", "(7)", {"v": value}, 0.0, 0.0)])
    for write in (report.to_json, report.to_csv):
        with pytest.raises(TypeError) as raised:
            write()
        assert str(raised.value) == f"report params hold JSON scalars, not {type(value).__name__}"


@pytest.mark.parametrize("key", [1, 2.5, True, None, ("dim",)])
def test_report_rejects_a_non_text_params_key_naming_it(key):
    # json.dumps would write {1: 2} with the key "1"; printed bare it is not JSON
    report = VerificationReport([CheckRecord("x", "(7)", {"dim": 2, key: 2}, 0.0, 0.0)])
    for write in (report.to_json, report.to_csv, report.sorted_records):
        with pytest.raises(TypeError) as raised:
            write()
        assert str(raised.value) == f"report params keys are strings, not {key!r}"


def test_report_writers_format_each_params_object_once(monkeypatch):
    # algebra_suite shares one params object among a (dim, l) pair's 30 records
    calls = []
    params_json = CheckRecord._params_json
    monkeypatch.setattr(CheckRecord, "_params_json", lambda record: calls.append(record) or params_json(record))
    dims, ls = [2, 8, 64], [1, 2, 5]
    report = algebra_suite(dims, ls)
    for write in (report.to_json, report.to_csv):
        calls.clear()
        write()
        assert len(calls) == len(dims) * len(ls) + len(ls)  # once per (dim, l), once per functional equation


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


def test_report_json_is_the_same_without_the_json_accelerator():
    # a Python without the _json extension escapes strings with json.encoder's own function
    code = (
        "import sys; sys.modules['_json'] = None\n"
        "import json.encoder\n"
        "from bosepauli import report\n"
        "assert report.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii\n"
        "sys.stdout.write(report.algebra_suite([2, 4], [1, 2]).to_json())"
    )
    proc = _run_from_source_tree("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == algebra_suite([2, 4], [1, 2]).to_json()


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


SWEEP_DIMS = [64, 2, 16, 256]  # unsorted; a repeated dim is a ValueError


def test_algebra_suite_matches_per_dim_catalog_runs():
    ls = list(range(1, 13))
    fast, reference = algebra_suite(SWEEP_DIMS, ls), _per_dim_algebra_suite(SWEEP_DIMS, ls)
    assert fast.to_json() == reference.to_json()
    assert fast.to_csv() == reference.to_csv()


@pytest.mark.parametrize("residue", (0, 1, 2, 3))
def test_algebra_suite_shows_a_block_defect_in_exactly_the_dims_that_hold_it(monkeypatch, residue):
    # the defect is on every block n = residue (mod 4), as a defect of the
    # n mod 4 sign table would be, so a dim holds it once it holds block residue
    lowering_block = blocks._lowering_block

    def defective(n, l):
        entries = lowering_block(n, l)
        if n % 4 == residue:
            entries = tuple(e + d for e, d in zip(entries, (0.25, 0.0, 0.5j, 0.0)))
        return entries

    monkeypatch.setattr(blocks, "_lowering_block", defective)
    ls = [1, 2]
    fast = algebra_suite(SWEEP_DIMS, ls)
    assert fast.to_json() == _per_dim_algebra_suite(SWEEP_DIMS, ls).to_json()
    for dim in SWEEP_DIMS:
        for l in ls:
            worst = max(r.residual for r in fast.records if r.params == {"dim": dim, "l": l})
            assert (worst > 0.0) == (dim // 2 > residue)
    if residue == 3:
        # the deepest block of the largest dim shows it in the dump
        entries = named_operator("sigma_minus", 256, 1)
        assert (254, 254, 0.25) in entries and (255, 254, 0.5j) in entries


def test_algebra_suite_runs_the_catalog_once_per_distinct_block_in_a_process(monkeypatch):
    runs = []
    catalog = pauli._catalog

    def counting(lowering):
        runs.append(lowering)
        return catalog(lowering)

    monkeypatch.setattr(pauli, "_catalog", counting)
    pauli._class_catalog.cache_clear()
    report = algebra_suite(list(range(2, 513, 2)), list(range(1, 13)))
    assert len(report.records) == 12 + 30 * 256 * 12
    assert len(runs) <= 2  # the blocks (0, 1, 0, 0) and (0, -1, 0, 0)


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


@pytest.mark.parametrize("dim, radial, angular", ((16, 8, 16), (64, 8, 16)))
def test_quadrature_suite_takes_one_residual_per_parity(monkeypatch, dim, radial, angular):
    # (16, 8, 16) resolves; (64, 8, 16) does not. The records must be those of
    # one residual per variant, for every non-empty set of variants.
    from bosepauli import report

    space, grid = FockSpace(dim), quadrature_grid(radial, angular)
    residual = report.resolution_residual
    calls = []
    monkeypatch.setattr(report, "resolution_residual", lambda *args: calls.append(args[1]) or residual(*args))
    for size in range(1, len(RESOLUTION_VARIANTS) + 1):
        for variants in itertools.combinations(RESOLUTION_VARIANTS, size):
            calls.clear()
            records = quadrature_suite(dim, radial, angular, list(variants)).records
            assert len(calls) == len({variant.partition("-")[0] for variant in variants})
            params = {"dim": dim, "K": radial, "M": angular, "under_resolved": not grid.resolves(dim)}
            expected = [
                CheckRecord(
                    "resolution_of_identity",
                    "(23)" if variant.endswith("plain") else "(28)",
                    {**params, "variant": variant},
                    residual(space, variant, grid),
                    _QUADRATURE_TOLERANCE,
                )
                for variant in variants
            ]
            assert records == expected


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


def test_a_ladder_dump_reads_at_most_four_blocks_at_any_dim(monkeypatch):
    reads = []
    lowering_block = blocks._lowering_block

    def counting(n, l):
        reads.append(n)
        return lowering_block(n, l)

    monkeypatch.setattr(blocks, "_lowering_block", counting)
    for name in ("sigma_minus", "sigma_plus"):
        for l in range(1, 13):
            reads.clear()
            named_operator(name, 10_000, l)
            assert len(reads) <= 4, (name, l)


def _written_entries(name, dim, l):
    # reference: each dump target's entries written from the paper's formulas,
    # with no pair block: sigma_- has (-1)^(n l) at (2n, 2n+1)
    pairs = range(dim // 2)
    return {
        "sigma_minus": [(2 * n, 2 * n + 1, (-1) ** (n * l)) for n in pairs],
        "sigma_plus": [(2 * n + 1, 2 * n, (-1) ** (n * l)) for n in pairs],
        "sigma_three": [(k, k, -1 if k % 2 == 0 else 1) for k in range(dim)],
        "p_even": [(2 * n, 2 * n, 1) for n in pairs],
        "p_odd": [(2 * n + 1, 2 * n + 1, 1) for n in pairs],
    }[name]


@pytest.mark.parametrize("name", DUMPABLE_OPERATORS)
def test_named_operator_writes_the_entries_of_the_paper_at_every_dim(name):
    for dim in (2, 6, 8, 10, 4096, 10_000):
        for l in range(1, 13):
            assert named_operator(name, dim, l) == _written_entries(name, dim, l), (dim, l)


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_verify_and_dump_read_one_definition_of_every_block(monkeypatch):
    # block n is block n mod 4, so a patch on block 7 alone is read by neither
    argvs = (
        ["verify", "--dims", "64", "--ls", "1"],
        ["dump", "--op", "sigma_minus", "--dim", "64", "--l", "1", "--format", "csv"],
    )
    unpatched = [_main(argv) for argv in argvs]
    lowering_block = blocks._lowering_block
    monkeypatch.setattr(blocks, "_lowering_block", lambda n, l: (0, 7, 0, 0) if n == 7 else lowering_block(n, l))
    assert [_main(argv) for argv in argvs] == unpatched
    assert [code for code, _ in unpatched] == [0, 0]
    assert "14,15,-1,0\n" in unpatched[1][1]


def test_a_sign_table_of_period_3_fails_verify_once_the_dim_holds_block_2(monkeypatch):
    # blocks 0, 1 and 2 read table entries 0, 2 and 1, so block 2 is the zero
    # block; a catalog that read only blocks 0 and 1 would pass this table
    monkeypatch.setattr(blocks, "_cos_half_pi", lambda n: (1, 0, -1)[n % 3])
    assert _main(["verify", "--dims", "4", "--ls", "1"])[0] == 0
    assert _main(["verify", "--dims", "6", "--ls", "1"])[0] == 1


def test_the_catalog_passes_every_block_negated_and_the_eigen_check_fails_it(monkeypatch):
    # An equivalent mutant. Negating every block of sigma_- gives the
    # sign-flipped representation, which satisfies every identity of the
    # catalog, so no verify record can tell it from the paper's; only the
    # eigenvector check, which fixes the sign of block 0, fails it.
    lowering_block = blocks._lowering_block
    monkeypatch.setattr(blocks, "_lowering_block", lambda n, l: tuple(-e for e in lowering_block(n, l)))
    code, out = _main(["verify", "--dims", "2,4,64", "--ls", "1,2"])
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 2 + 3 * 2 * 30 and all(record["pass"] for record in records)
    assert _main(["grassmann", "--dims", "4", "--ls", "1"])[0] == 1


def test_matrix_csv_omits_zeros():
    text = matrix_to_csv(named_operator("sigma_minus", 4, 2))
    assert text.splitlines() == ["0,1,1,0", "2,3,1,0"]


def test_matrix_csv_signed_entries():
    text = matrix_to_csv(named_operator("sigma_minus", 6, 1))
    assert text.splitlines() == ["0,1,1,0", "2,3,-1,0", "4,5,1,0"]


def _matrix_json(shape, entries):
    # the streaming writer's whole output, from an in-memory text stream
    out = io.StringIO()
    assert matrix_to_json(shape, entries, out) is None
    return out.getvalue()


def test_matrix_json_matches_whole_matrix_dump():
    # reference: one json.dumps of the nested list of every entry
    op = np.array([[-0.0 - 0.0j, 1.5 - 0.25j, 1e-300j], [-2.0 + 0.0j, 0.1 + 0.2j, -0.0 + 3.0j]])
    whole = json.dumps([[[float(e.real), float(e.imag)] for e in row + 0.0] for row in op])
    assert _matrix_json(op.shape, _nonzero_entries(op)) == whole


# entries -> the message of the ValueError that names the offending entry, in a 2x2 matrix
BAD_ENTRIES = {
    "negative index": ([(0, -1, 1 + 0j)], "entry (0, -1, (1+0j)) lies outside the 2x2 matrix"),
    "out of range": ([(0, 1, 1 + 0j), (0, 2, 2 + 0j)], "entry (0, 2, (2+0j)) lies outside the 2x2 matrix"),
    "duplicate": ([(0, 1, 1 + 0j), (0, 1, 2 + 0j)], "entry (0, 1, (2+0j)) does not follow entry (0, 1) in row-major order"),
    "out of order": ([(1, 0, 1 + 0j), (0, 1, 2 + 0j)], "entry (0, 1, (2+0j)) does not follow entry (1, 0) in row-major order"),
    "NaN real part": ([(0, 1, complex(math.nan, 1.0))], "entry (0, 1, (nan+1j)) has a part that is not finite, which JSON cannot hold"),
    "infinite imaginary part": (
        [(0, 0, 1 + 0j), (1, 0, complex(2.0, -math.inf))],
        "entry (1, 0, (2-infj)) has a part that is not finite, which JSON cannot hold",
    ),
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_matrix_json_rejects_entries_outside_the_shape_or_out_of_row_major_order(case):
    entries, message = BAD_ENTRIES[case]
    with pytest.raises(ValueError) as error:
        matrix_to_json((2, 2), entries, io.StringIO())
    assert str(error.value) == message


def _whole_matrix_json(op):
    # reference: one json.dumps of the nested list of every [re, im] pair
    return json.dumps(np.stack([op.real + 0.0, op.imag + 0.0], -1).tolist())


class _RecordingStream:
    # a text stream that keeps each write apart
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("dim", (2, 6, 64))
def test_matrix_json_writes_one_row_at_a_time(dim):
    rng = np.random.default_rng(dim)
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op[rng.random((dim, dim)) < 0.6] = 0.0
    out = _RecordingStream()
    matrix_to_json(op.shape, _nonzero_entries(op), out)
    assert "".join(out.writes) == _whole_matrix_json(op)
    assert all(text.count("]]") <= 1 for text in out.writes)  # a row, and only a row, ends in "]]"


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
    entries = _nonzero_entries(op)
    nonfinite = [entry for entry in entries if not (math.isfinite(entry[2].real) and math.isfinite(entry[2].imag))]
    if not nonfinite:
        assert _matrix_json(op.shape, entries) == _whole_matrix_json(op)
        return
    # json.dumps would print a bare NaN or Infinity, which is not JSON
    with pytest.raises(ValueError) as error:
        _matrix_json(op.shape, entries)
    assert str(error.value) == f"entry {nonfinite[0]!r} has a part that is not finite, which JSON cannot hold"


def _dense_named_operator(name, dim, l):
    # reference: each dump target from the public dense constructors
    space = FockSpace(dim)
    if name in ("sigma_minus", "sigma_plus"):
        lowering = sigma_minus(BosonizationParams(l, space))
        return lowering if name == "sigma_minus" else dagger(lowering)
    if name == "sigma_three":
        return sigma_three(space)
    return parity_projectors(space)[0 if name == "p_even" else 1]


_RECENT_REFERENCES = {}  # (shape, digest of the matrix) -> reference text, for the last two matrices


def _recent_whole_matrix_json(op):
    # the reference, made once for the runs of one operator that share a matrix
    # (l = 1 and 3, say): at D = 1024 each json.dumps takes over a second
    key = op.shape, hashlib.sha256(op.tobytes()).digest()
    if key not in _RECENT_REFERENCES:
        if len(_RECENT_REFERENCES) == 2:
            del _RECENT_REFERENCES[next(iter(_RECENT_REFERENCES))]
        _RECENT_REFERENCES[key] = _whole_matrix_json(op)
    return _RECENT_REFERENCES[key]


@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("dim", (2, 6, 64, 1024))
@pytest.mark.parametrize("name", DUMPABLE_OPERATORS)
def test_matrix_json_named_operators_match_whole_matrix_dump(name, dim, l):
    op = _dense_named_operator(name, dim, l)
    assert named_operator(name, dim, l) == _nonzero_entries(op)
    assert _matrix_json(op.shape, named_operator(name, dim, l)) == _recent_whole_matrix_json(op)


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
    rows = json.loads(_matrix_json((4, 4), named_operator("sigma_three", 4, 2)))
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


@pytest.mark.parametrize("command", (("grassmann", "--dims", "2", "--ls", "1"), ("dump", "--op", "p_odd", "--dim", "2")))
def test_cli_names_a_tol_the_subcommand_does_not_take_as_it_was_typed(command, capsys):
    # before, main rewrote --tol 0 as --tol=0 in every argv, and argparse named that token
    usage, error = _cli_usage_error(capsys, *command, "--tol", "0")
    assert error == "bosepauli: error: unrecognized arguments: --tol 0"
    assert usage[0].startswith("usage: bosepauli [-h]")


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
    "quadrature": (("--dim", "4", "--radial", "0"), "--radial must be a positive integer, got 0"),
    "grassmann": (("--dims", "2", "--ls", "1,0"), "--ls entries must be a positive integer, got 0"),
    "dump": (("--op", "p_odd", "--dim", "4", "--l", "0"), "--l must be a positive integer, got 0"),
}


# test id -> (subcommand, arguments, message): USAGE_ERRORS, and an odd --dim
# where the subcommand's option is --dim, not --dims
USAGE_ERROR_CASES = {
    **{command: (command, *USAGE_ERRORS[command]) for command in USAGE_ERRORS},
    "quadrature-odd-dim": ("quadrature", ("--dim", "3"), "--dim must be even and >= 2, got 3"),
    "dump-odd-dim": ("dump", ("--op", "p_odd", "--dim", "3"), "--dim must be even and >= 2, got 3"),
}


@pytest.mark.parametrize("case", USAGE_ERROR_CASES)
def test_cli_usage_errors_name_the_subcommand(case, capsys):
    command, args, message = USAGE_ERROR_CASES[case]
    usage, error = _cli_usage_error(capsys, command, *args)
    assert error == f"bosepauli {command}: error: {message}"
    # the usage argparse prints for its own errors in this subcommand
    assert usage == _cli_usage_error(capsys, command, *args, "--format", "xml")[0]
    assert usage[0].startswith(f"usage: bosepauli {command} [-h]")


@pytest.mark.parametrize("option, value", (("--angular", "0"), ("--radial", "-3")))
def test_cli_names_the_one_count_option_it_rejects(option, value, capsys):
    # before, either one gave "--radial and --angular must be >= 1"
    usage, error = _cli_usage_error(capsys, "quadrature", "--dim", "4", option, value)
    assert error == f"bosepauli quadrature: error: {option} must be a positive integer, got {value}"
    assert usage[0].startswith("usage: bosepauli quadrature [-h]")


# subcommand -> a well-formed argv for it
WELL_FORMED = {
    "verify": ("--dims", "2", "--ls", "1"),
    "quadrature": ("--dim", "2", "--radial", "4", "--angular", "4"),
    "grassmann": ("--dims", "2", "--ls", "1"),
    "dump": ("--op", "p_odd", "--dim", "2"),
}


@pytest.mark.parametrize(
    "command, option", [(command, option) for command, (_, options) in cli._COMMANDS.items() for option in options]
)
def test_cli_rejects_an_option_value_of_double_dash(command, option):
    # argparse stores --name=-- as [], which crashed some subcommands and let others pass
    proc = _run(command, *WELL_FORMED[command], f"--{option}=--")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"bosepauli {command}: error: argument --{option}: expected one argument"
    assert "Traceback" not in proc.stderr


def test_cli_library_value_errors_name_the_subcommand(capsys, monkeypatch):
    def rejects(*args):
        raise ValueError("radial_count=4: Newton's method did not converge on Laguerre node 2")

    monkeypatch.setattr(cli, "quadrature_suite", rejects)
    usage, error = _cli_usage_error(capsys, "quadrature", "--dim", "4", "--radial", "4")
    assert error == "bosepauli quadrature: error: radial_count=4: Newton's method did not converge on Laguerre node 2"
    assert usage[0].startswith("usage: bosepauli quadrature [-h]")


# argv with a repeated list entry -> the message that rejects it
REPEATED_ENTRIES = {
    ("verify", "--dims", "2,2", "--ls", "1,1"): "--dims entries must be distinct, got 2 twice",
    ("verify", "--dims", "2,4", "--ls", "1,3,1"): "--ls entries must be distinct, got 1 twice",
    ("grassmann", "--dims", "2,4,2", "--ls", "1"): "--dims entries must be distinct, got 2 twice",
    ("grassmann", "--dims", "4", "--ls", "2,2", "--format", "csv"): "--ls entries must be distinct, got 2 twice",
    ("quadrature", "--dim", "4", "--variants", "even-plain,even-plain"): "--variants entries must be distinct, got even-plain twice",
    ("quadrature", "--dim", "4", "--variants", "odd-phased, even-plain,odd-phased"): "--variants entries must be distinct, got odd-phased twice",
}


@pytest.mark.parametrize("argv", REPEATED_ENTRIES)
def test_cli_rejects_a_repeated_list_entry(argv, capsys, monkeypatch):
    # before, each printed the repeated entry's records twice and exited 0
    usage, error = _cli_usage_error(capsys, *argv)
    assert error == f"bosepauli {argv[0]}: error: {REPEATED_ENTRIES[argv]}"
    monkeypatch.setattr(cli, "_parse_well_formed", lambda argv: None)
    assert _cli_usage_error(capsys, *argv) == (usage, error)


@pytest.mark.parametrize(
    "suite, args, message",
    (
        (algebra_suite, ([2, 2], [1]), "dims entries must be distinct, got 2 twice"),
        (algebra_suite, ([2, 4], [1, 3, 1]), "ls entries must be distinct, got 1 twice"),
        (grassmann_suite, ([2, 4, 2], [1]), "dims entries must be distinct, got 2 twice"),
        (grassmann_suite, ([4], [2, 2]), "ls entries must be distinct, got 2 twice"),
        (quadrature_suite, (4, 4, 8, ["even-plain"] * 2), "variants entries must be distinct, got even-plain twice"),
    ),
)
def test_library_suites_reject_a_repeated_list_entry(suite, args, message):
    # before, each returned the repeated entry's records twice
    with pytest.raises(ValueError) as error:
        suite(*args)
    assert str(error.value) == message


# the library suites that take a tolerance, each called with one
TOLERANT_SUITES = {
    "algebra_suite": lambda tolerance: algebra_suite([2], [1], tolerance=tolerance),
    "quadrature_suite": lambda tolerance: quadrature_suite(4, 4, 8, ["even-plain"], tolerance=tolerance),
}


@pytest.mark.parametrize("tolerance", (math.nan, math.inf, -math.inf, -1e-3, -1, True, False, "0", None), ids=repr)
@pytest.mark.parametrize("suite", TOLERANT_SUITES)
def test_library_suites_reject_a_tolerance_that_is_not_finite_and_at_least_0(suite, tolerance):
    # before, NaN wrote bare NaN tokens, inf passed every record, a negative one failed every
    # record, and a text or None raised a TypeError from the first comparison
    with pytest.raises(ValueError) as error:
        TOLERANT_SUITES[suite](tolerance)
    assert str(error.value) == f"tolerance must be a finite number >= 0, got {tolerance!r}"


@pytest.mark.parametrize("tolerance, text", ((-0.0, "0.0"), (0, "0"), (0.0, "0.0"), (1e-9, "1e-09"), (2, "2")))
@pytest.mark.parametrize("suite", TOLERANT_SUITES)
def test_library_suites_print_a_tolerance_unsigned_and_an_int_as_given(suite, tolerance, text):
    report = TOLERANT_SUITES[suite](tolerance)
    assert {record.tolerance for record in report.records} == {tolerance}
    assert {str(record.tolerance) for record in report.records} == {text}
    assert f'"tolerance": {text},' in report.to_json() and "-0.0" not in report.to_json()


def test_no_benchmark_argv_repeats_a_list_entry():
    workloads = runpy.run_path(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py"))
    lists = [
        argv[at + 1].split(",")
        for seed in range(1, 51)
        for name in workloads["WORKLOADS"]
        for argv in (invocation.argv for invocation in workloads["generate"](name, seed))
        for at, token in enumerate(argv)
        if token in ("--dims", "--ls", "--variants")
    ]
    assert lists and all(len(set(entries)) == len(entries) for entries in lists)


# each name perfbench/tracing.py wraps on bosepauli.cli -> an argv whose run calls it once
CLI_ENTRY_POINTS = {
    "algebra_suite": ("verify", "--dims", "2,4", "--ls", "1,2"),
    "quadrature_suite": ("quadrature", "--dim", "4", "--radial", "4", "--angular", "8"),
    "grassmann_suite": ("grassmann", "--dims", "2,4", "--ls", "1,2"),
    "named_operator": ("dump", "--op", "sigma_plus", "--dim", "4", "--l", "3"),
    "matrix_to_json": ("dump", "--op", "sigma_plus", "--dim", "4", "--l", "3"),
    "matrix_to_csv": ("dump", "--op", "p_odd", "--dim", "4", "--format", "csv"),
}


def test_cli_entry_points_resolve_to_the_objects_their_modules_define(monkeypatch):
    from bosepauli import dump, report

    defined_in = {"algebra_suite": report, "quadrature_suite": report, "grassmann_suite": report}
    defined_in.update(named_operator=dump, matrix_to_json=dump, matrix_to_csv=dump)
    assert set(defined_in) == set(CLI_ENTRY_POINTS)
    for name, module in defined_in.items():
        monkeypatch.delitem(vars(cli), name, raising=False)  # resolved afresh, on first use
        assert getattr(cli, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="module 'bosepauli.cli' has no attribute 'pauli_set'"):
        cli.pauli_set


@pytest.mark.parametrize("name", CLI_ENTRY_POINTS)
def test_cli_main_calls_the_entry_point_set_on_the_module(capsys, monkeypatch, name):
    argv = list(CLI_ENTRY_POINTS[name])
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    original, calls = getattr(cli, name), []
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command, code",
    # a one-node rule does not resolve dim 4, so its quadrature residuals are not 0
    ((("verify", "--dims", "2,4", "--ls", "1,2"), 0), (("quadrature", "--dim", "4", "--radial", "1"), 1)),
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
        ("dump", "--op", "sigma_minus", "--dim", "256"),  # ~0.8 MB in 3 KB rows: fails once they fill the buffer
        ("dump", "--op", "sigma_minus", "--dim", "1024"),  # 12.6 MB in 12 KB rows: fails at the first row
        ("--help",),  # argparse's own help writer drops a failed write
    ),
)
def test_cli_quits_quietly_when_stdout_closes_early(args):
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    # unbuffered, stdout.buffer is the raw file, so each write reaches the closed pipe at once
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "bosepauli", *args], stdout=write_end, stderr=subprocess.PIPE, env=env
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


def test_cli_dump_quits_quietly_when_the_reader_stops_mid_stream():
    args = ("dump", "--op", "sigma_minus", "--dim", "1024")
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "bosepauli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.read(1 << 20).startswith(b"[[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]")
        proc.stdout.close()  # after the first MB of the dump's 12.6
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize(
    "args",
    (
        ("verify", "--dims", "2", "--ls", "1"),  # fits the stdout buffer: fails at the final flush
        ("verify", "--dims", "2", "--ls", "1", "--format", "csv"),
        ("dump", "--op", "sigma_minus", "--dim", "256"),  # fails once the rows fill the buffer
        ("dump", "--op", "p_even", "--dim", "64", "--format", "csv"),
        ("--help",),  # before, exit 0 in silence unbuffered and exit 120 with an "Exception ignored" line buffered
        ("verify", "--help"),
    ),
)
def test_cli_exits_74_with_one_line_when_stdout_cannot_be_written(args):
    # exit 1 means a failing record; before, a full disk printed a traceback and exited 1
    message = f"bosepauli: error writing stdout: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "bosepauli", *args], stdout=full, stderr=subprocess.PIPE, env=env)
        assert proc.returncode == 74
        assert proc.stderr.decode() == message


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
def test_cli_usage_error_keeps_exit_2_when_stderr_cannot_be_written():
    # before, buffered stderr failed again at the exit-time flush, and the process exited 120
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "wb") as full:
            args = ("verify", *USAGE_ERRORS["verify"][0])
            proc = subprocess.run([sys.executable, "-m", "bosepauli", *args], stdout=subprocess.PIPE, stderr=full, env=env)
        assert proc.returncode == 2
        assert proc.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("args", (("verify", "--dims", "2", "--ls", "1"), ("--help",)))
def test_cli_exits_74_when_neither_stdout_nor_stderr_can_be_written(args):
    # the one line on stderr is lost too, and the exit code alone reports the failed write;
    # before, that line's own write raised: exit 1 and a traceback unbuffered, exit 120
    # and an "Exception ignored" line buffered, both sent to the full stderr
    buffered = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "bosepauli", *args], stdout=full, stderr=full, env=env)
        assert proc.returncode == 74, env.get("PYTHONUNBUFFERED")


def test_cli_verify_rejects_empty_exponent_list():
    proc = _run("verify", "--dims", "2", "--ls", "")
    assert proc.returncode == 2


def test_cli_quadrature_under_resolved_fails_with_flag():
    proc = _run("quadrature", "--dim", "16", "--radial", "1", "--angular", "2")
    assert proc.returncode == 1
    parsed = json.loads(proc.stdout)
    assert all(r["params"]["under_resolved"] for r in parsed["records"])
    assert parsed["summary"]["fail"] == len(parsed["records"]) == 4


@pytest.mark.parametrize(
    "radial, angular, code, under_resolved", (("32", "64", 0, "false"), ("32", "33", 0, "false"), ("8", "16", 1, "true"))
)
def test_cli_quadrature_flags_only_a_grid_that_misses(radial, angular, code, under_resolved):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["quadrature", "--dim", "64", "--radial", radial, "--angular", angular]) == code
    assert out.getvalue().count(f'"under_resolved": {under_resolved}') == 4


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


@pytest.mark.parametrize("op", ("sigma_minus", "p_even"))
def test_cli_dump_in_process_writes_what_the_process_writes(op):
    # the way a caller that captures stdout in memory drives the command line
    args = ("dump", "--op", op, "--dim", "64")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(args)) == 0
    proc = _run(*args)
    assert proc.returncode == 0
    assert out.getvalue() == proc.stdout
    assert len(json.loads(out.getvalue())) == 64


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
    assert "--radial must be a positive integer, got 0" in proc.stderr


def test_cli_verify_certifies_a_million_level_truncation():
    proc = _run("verify", "--dims", "1000000", "--ls", "1,2")
    assert proc.returncode == 0
    records = json.loads(proc.stdout)["records"]
    assert len(records) == 2 + 2 * 30
    assert all(record["residual"] == 0.0 and record["pass"] for record in records)
    assert '"residual": 0.0,' in proc.stdout


# token grammar for argv: the subcommands and their required options, then
# options of any subcommand, each spelled in full, abbreviated or with "=",
# with a value valid for it or one of the invalid, negative and empty ones,
# repeats, help and junk, in any order
_GOOD_VALUES = {
    "dims": ["2", "2,4", " 4,8 "], "ls": ["1", "3,12"], "tol": ["0", "1e-12", "-0.0", "-1e-3", "nan", "inf"],
    "format": ["json", "csv"], "dim": ["2", "16"], "radial": ["8"], "angular": ["16"], "l": ["3"],
    "variants": ["all", "even-plain,odd-phased", "sideways"], "op": ["sigma_minus", "p_odd"], "help": [""],
}
_BAD_VALUES = ["", "0", "-2", "x", "xml", "2,,4", "1.5", "-", "--", "-h", "--ls", "\u0663"]


def _option(name):
    return st.builds(
        lambda cut, value, joined: [f"--{name[:cut]}={value}"] if joined else [f"--{name[:cut]}", value],
        st.sampled_from([99, 99, 99, 99, 1, 2, 3]),
        st.one_of(st.sampled_from(_GOOD_VALUES[name]), st.sampled_from(_GOOD_VALUES[name]), st.sampled_from(_BAD_VALUES)),
        st.booleans(),
    )


_REQUIRED = {"verify": ("dims", "ls"), "quadrature": ("dim",), "grassmann": ("dims", "ls"), "dump": ("op", "dim")}


def _argv(command):
    required = st.tuples(*[_option(name) for name in _REQUIRED.get(command, ())])
    extra = st.one_of(st.sampled_from(list(_GOOD_VALUES)).flatmap(_option), st.sampled_from([["-h"], ["--"], ["junk"], ["--tol"]]))
    groups = st.builds(lambda required, extra: [*required, *extra], required, st.lists(extra, max_size=3))
    return groups.flatmap(st.permutations).map(lambda groups: [command, *[token for group in groups for token in group]])


_ARGV = st.sampled_from([*_REQUIRED, "verif", "-h"]).flatmap(_argv)


@settings(max_examples=1000, deadline=None)
@given(_ARGV)
def test_well_formed_parse_is_what_argparse_parses(argv):
    fast = cli._parse_well_formed(list(argv))
    if fast is not None:
        parsed = cli._build_parser().parse_args(list(argv))
        # repr tells apart 0.0 and -0.0, 1 and 1.0, and prints NaN equal to itself
        fast, parsed = ([item for item in sorted(vars(args).items()) if item[0] != "usage_error"] for args in (fast, parsed))
        assert repr(fast) == repr(parsed)


def _argparse_parses(argv):
    # argparse's namespace for argv, or None when it prints help or a usage error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(list(argv))
        except SystemExit:
            return None


@settings(max_examples=1000, deadline=None)
@given(_ARGV)
def test_what_argparse_parses_is_well_formed(argv):
    # before, argparse also expanded an abbreviation such as quadrature --d 2, which only it read
    if _argparse_parses(argv) is None:
        return
    names, tokens = [], iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        value = value if eq else next(tokens, "-")
        # argparse drops a value of "--", and reads a separate value that starts with "-" as an option or a number
        if value == "--" or not eq and value.startswith("-"):
            return
        names.append(name)
    if len(set(names)) == len(names):
        assert cli._parse_well_formed(list(argv)) is not None


# (subcommand, a proper prefix of one of its options that is none of its
# options, a value valid for the option it is a prefix of)
ABBREVIATIONS = [
    (command, option[:cut], _GOOD_VALUES[option][0])
    for command, (_, options) in cli._COMMANDS.items()
    for option in options
    for cut in range(1, len(option))
    if option[:cut] not in options
]


@pytest.mark.parametrize("command, prefix, value", ABBREVIATIONS)
def test_every_abbreviated_option_is_a_usage_error(command, prefix, value, capsys, monkeypatch):
    # before, argparse expanded it: verify --to 1 ran as --tol 1, and --to -1e-3
    # missed the --tol rewrite and said "argument --tol: expected one argument"
    argv = (command, *WELL_FORMED[command], f"--{prefix}", value)
    usage, error = _cli_usage_error(capsys, *argv)
    assert error == f"bosepauli: error: unrecognized arguments: --{prefix} {value}"
    monkeypatch.setattr(cli, "_parse_well_formed", lambda argv: None)
    assert _cli_usage_error(capsys, *argv) == (usage, error)


# argv the command line takes, rejects after parsing, or leaves to argparse
# for help and its own usage errors
PARSER_CORPUS = (
    ("verify", "--dims", "2,4,8,16", "--ls", "5,8,1", "--format", "csv"),
    ("verify", "--dims=2,4", "--ls=1", "--tol=1e-12"),
    ("verify", "--dims", "2", "--ls", "1", "--tol", "-0.0"),
    ("quadrature", "--dim", "8", "--radial", "8", "--angular", "32", "--variants", "odd-phased,even-plain"),
    ("quadrature", "--dim", "16", "--radial", "1", "--angular", "2"),
    ("grassmann", "--dims", "2,8", "--ls", "3,4", "--format", "csv"),
    ("dump", "--op", "p_even", "--dim", "8", "--l", "7", "--format", "json"),
    ("dump", "--op", "sigma_plus", "--dim", "8", "--l", "5", "--format", "csv"),
    ("--help",),
    *((command, "--help") for command in USAGE_ERRORS),
    *((command, *USAGE_ERRORS[command][0]) for command in USAGE_ERRORS),
    ("verify", "--dims", "2", "--ls", "1", "--tol", "nan"),
    ("verify", "--dims", "2", "--ls", "1", "--tol", "-1E+2"),
    ("quadrature", "--dim", "2", "--tol", "1", "--tol", "-1e-3"),
    ("quadrature", "--dim", "2", "--tol", "-1e-3", "--tol", "1"),
    ("quadrature", "--dim", "16", "--variants", "sideways"),
    ("verify", "--dims", "2", "--ls", ""),
    ("verify", "--di", "2", "--ls", "1"),
    ("verify", "--dims", "2", "--ls", "1", "--to", "1"),
    ("verify", "--dims", "2", "--ls", "1", "--to", "-1e-3"),
    ("verify", "--dim", "2", "--ls", "1"),
    ("dump", "--op", "hamiltonian", "--dim", "4"),
    ("dump", "--op", "sigma_minus"),
    ("grassmann", "--dims", "2", "--ls", "1", "stray"),
    *REPEATED_ENTRIES,
)


@pytest.mark.parametrize("argv", PARSER_CORPUS)
def test_cli_writes_the_same_bytes_whichever_parser_reads_the_argv(argv, capsys, monkeypatch):
    def run():
        try:
            code = cli.main(list(argv))
        except SystemExit as exit:
            code = exit.code
        return code, *capsys.readouterr()

    fast = run()
    monkeypatch.setattr(cli, "_parse_well_formed", lambda argv: None)
    assert run() == fast


@pytest.mark.parametrize("argv", PARSER_CORPUS)
def test_a_process_writes_what_main_writes_in_process(argv, capsys, monkeypatch):
    # run() adds only the exit: the same stdout, stderr and exit code as cli.main
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to this width, in both
    try:
        code = cli.main(list(argv))
    except SystemExit as exit:
        code = exit.code
    out, err = capsys.readouterr()
    proc = _run(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


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
    **{(command, *USAGE_ERRORS[command][0]): 2 for command in USAGE_ERRORS},
}


def _run_recording_at_exit(tmp_path, expression, *args, **streams):
    # a real `python -m bosepauli` process and the text of ``expression`` (over
    # gc and sys) at exit, written by a sitecustomize module on its path; its
    # atexit handler runs after run() returns or raises, before interpreter shutdown
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        f"atexit.register(lambda: open({str(tmp_path / 'exit.txt')!r}, 'w').write({expression}))\n"
    )
    src = os.path.dirname(os.path.dirname(pauli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tmp_path), src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bosepauli", *args], env=env, **streams)
    return proc, (tmp_path / "exit.txt").read_text()


def _run_recording_modules(tmp_path, *args):
    # a real process and its sys.modules at exit; -X importtime does not log the
    # modules loaded through importlib.import_module, as the package's lazy names are
    proc, modules = _run_recording_at_exit(tmp_path, "'\\n'.join(sys.modules)", *args, capture_output=True, text=True)
    return proc, set(modules.split("\n"))


@pytest.mark.parametrize("args", NUMPY_FREE_RUNS)
def test_verify_and_help_import_no_numpy(args, tmp_path):
    proc, modules = _run_recording_modules(tmp_path, *args)
    assert proc.returncode == NUMPY_FREE_RUNS[args], proc.stderr
    assert "bosepauli.cli" in modules
    assert [name for name in modules if name == "numpy" or name.startswith("numpy.")] == []
    assert [name for name in modules if name in ("dataclasses", "inspect")] == []


# the package modules a process may load beyond the package and cli
_PACKAGE = {name: f"bosepauli.{name}" for name in ("report", "fock", "blocks", "dump", "pauli", "grassmann", "quadrature")}
# no subcommand calls the coherent layer or the dense views
_NEVER = ("bosepauli.coherent", "bosepauli.dense", "json")
# argparse and what it imports, loaded only for help and usage errors
_ARGPARSE = ("argparse", "gettext", "locale")


def _only(*names, argparse=False):
    # (the modules a process loads beyond cli, the modules it must not load):
    # of the package modules, ``names`` and no other
    loaded = tuple(_PACKAGE[name] for name in names)
    unused = tuple(module for module in _PACKAGE.values() if module not in loaded)
    if argparse:
        return (*loaded, "argparse"), (*unused, *_NEVER)
    return loaded, (*unused, *_NEVER, *_ARGPARSE)


_DUMP_MODULES = _only("fock", "blocks", "dump")
# argv (each also a NUMPY_FREE_RUNS argv) -> (the modules its process loads
# beyond cli, the modules it must not load)
LOADED_MODULES = {
    ("--help",): _only(argparse=True),
    **{args: _only("report", "fock", "quadrature") for args in NUMPY_FREE_RUNS if args[0] == "quadrature"},
    ("verify", "--dims", "2,4", "--ls", "1,2"): _only("report", "fock", "blocks", "pauli"),
    ("dump", "--op", "sigma_minus", "--dim", "64", "--format", "json"): _DUMP_MODULES,
    ("dump", "--op", "p_odd", "--dim", "64", "--format", "csv"): _DUMP_MODULES,
    ("grassmann", "--dims", "256,512,1024", "--ls", "3,4"): _only("report", "fock", "blocks", "grassmann"),
    # each subcommand's own checks reject these after parsing, before any entry point loads
    **{(command, *USAGE_ERRORS[command][0]): _only(argparse=True) for command in USAGE_ERRORS},
}


@pytest.mark.parametrize("args", LOADED_MODULES)
def test_each_subcommand_loads_only_the_domain_modules_it_calls(args, tmp_path):
    proc, modules = _run_recording_modules(tmp_path, *args)
    assert proc.returncode == NUMPY_FREE_RUNS[args], proc.stderr
    loaded, absent = LOADED_MODULES[args]
    assert {"bosepauli.cli", *loaded} <= modules
    assert modules.isdisjoint(absent)


@pytest.mark.parametrize("argv", REPEATED_ENTRIES)
def test_a_repeated_list_entry_is_rejected_before_any_package_module_beyond_cli_loads(argv, tmp_path):
    # before, the list check loaded report, and report loaded fock
    proc, modules = _run_recording_modules(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"bosepauli {argv[0]}: error: {REPEATED_ENTRIES[argv]}"
    assert {name for name in modules if name.partition(".")[0] == "bosepauli"} == {"bosepauli", "bosepauli.cli"}


@pytest.mark.parametrize("module", ("bosepauli.pauli", "bosepauli.grassmann"))
def test_the_certificate_modules_alone_load_neither_numpy_nor_the_dense_views(module):
    code = f"import sys, {module}; print(sorted(set(sys.modules) & {{'numpy', 'bosepauli.dense', 'bosepauli.dump'}}))"
    proc = _run_from_source_tree("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the exit paths of run(): name -> (argv, stdout, stderr, exit code)
EXIT_PATHS = {
    "report": (("verify", "--dims", "2,4", "--ls", "1,2"), "pipe", "pipe", 0),
    "failing-record": (("quadrature", "--dim", "64", "--radial", "8", "--angular", "16"), "pipe", "pipe", 1),
    "help": (("--help",), "pipe", "pipe", 0),
    "usage-error": (("verify", *USAGE_ERRORS["verify"][0]), "pipe", "pipe", 2),
    "closed-stdout": (("grassmann", "--dims", "2", "--ls", "1"), "closed pipe", "pipe", 141),
    "write-error": (("grassmann", "--dims", "2", "--ls", "1"), "/dev/full", "pipe", 74),
    "help-closed-stdout": (("--help",), "closed pipe", "pipe", 141),
    "help-write-error": (("--help",), "/dev/full", "pipe", 74),
    "write-error-stderr-full": (("verify", "--dims", "2", "--ls", "1"), "/dev/full", "/dev/full", 74),
    "help-write-error-stderr-full": (("--help",), "/dev/full", "/dev/full", 74),
}


def _exit_path_stream(stack, target):
    if target == "closed pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        stack.callback(os.close, write_end)
        return write_end
    if target == "/dev/full":
        if not os.path.exists(target):
            pytest.skip("needs /dev/full")
        return stack.enter_context(open(target, "wb"))
    return subprocess.PIPE


@pytest.mark.parametrize("case", EXIT_PATHS)
def test_every_exit_path_leaves_the_interpreter_a_frozen_heap(case, tmp_path):
    args, stdout, stderr, code = EXIT_PATHS[case]
    with contextlib.ExitStack() as stack:
        streams = {"stdout": _exit_path_stream(stack, stdout), "stderr": _exit_path_stream(stack, stderr)}
        proc, frozen = _run_recording_at_exit(tmp_path, "str(gc.get_freeze_count())", *args, **streams)
    assert proc.returncode == code, proc.stderr
    assert int(frozen) > 0


def test_main_leaves_the_freeze_count_unchanged(capsys):
    # only run(), the process entry point, freezes: in-process callers of main keep a collectable heap
    before = gc.get_freeze_count()
    for argv in ((command, *WELL_FORMED[command]) for command in WELL_FORMED):
        assert cli.main(list(argv)) == 0
    for argv in (("--help",), ("verify", *USAGE_ERRORS["verify"][0])):
        with pytest.raises(SystemExit):
            cli.main(list(argv))
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_choice_tuples_have_one_definition_under_every_name():
    import bosepauli
    from bosepauli import dump, quadrature

    assert bosepauli.RESOLUTION_VARIANTS is cli.RESOLUTION_VARIANTS is quadrature.RESOLUTION_VARIANTS
    assert bosepauli.DUMPABLE_OPERATORS is cli.DUMPABLE_OPERATORS is dump.DUMPABLE_OPERATORS
    assert set(DUMPABLE_OPERATORS) == {"sigma_minus", "sigma_plus", *pauli._DIAGONAL_BLOCKS}


# every name of bosepauli.__all__ but __version__
PUBLIC_NAMES = {
    "BosonizationParams", "CheckRecord", "FockSpace", "GrassmannKet", "GrassmannScalar", "IdentityCheck",
    "QuadratureGrid", "RESOLUTION_VARIANTS", "THETA", "VerificationReport", "algebra_residuals", "algebra_suite",
    "anticommutator", "apply_operator", "closed_form_sigma_minus", "coherent_ket", "commutator", "eigen_check",
    "even_ket", "f_coefficient", "grassmann_suite", "ladder_commutator_residual", "max_abs_amplitude",
    "max_abs_norm", "nonlinear_coherent_ket", "nonlinear_eigen_residual", "odd_ket", "phase_relation_residual",
    "quadrature_grid", "quadrature_suite", "resolution_residual", "sigma_minus", "sigma_three",
    "two_level_restriction", "verify_functional_equation",
}


def test_every_public_name_resolves_and_the_numpy_subcommands_still_run():
    code = (
        "import sys, bosepauli; names = [n for n in bosepauli.__all__ if n != '__version__'];"
        " print(*sorted(names)); print(all(getattr(bosepauli, n) is not None for n in names), 'numpy' in sys.modules)"
    )
    proc = _run_from_source_tree("-c", code)
    names, checks = proc.stdout.splitlines()
    assert names.split() == sorted(PUBLIC_NAMES)  # each name once
    assert len(PUBLIC_NAMES) == 35
    assert checks.split() == ["True", "True"]
    for args in (
        ("dump", "--op", "sigma_three", "--dim", "4"),
        ("quadrature", "--dim", "8", "--radial", "8", "--angular", "32"),
        ("grassmann", "--dims", "2,4", "--ls", "1,2"),
    ):
        proc = _run_from_source_tree("-m", "bosepauli", *args)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)


# runs `python -m bosepauli` with the given argv, then writes the process's
# own peak resident set (VmHWM) to stderr as it exits
_PEAK_RSS_LAUNCHER = """
import atexit, runpy, sys

def peak():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))

atexit.register(peak)
runpy.run_module("bosepauli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_cli_dense_json_dump_streams_in_constant_memory():
    dim, row = 4096, 12 * 4096  # every row holds dim 12-byte tokens, ", " between them and brackets around
    args = ("dump", "--op", "sigma_minus", "--dim", str(dim), "--format", "json")
    src = os.path.dirname(os.path.dirname(pauli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    head, tail, size = b"", b"", 0
    while chunk := proc.stdout.read(1 << 20):
        head = head or chunk[:4096]
        tail = (tail + chunk)[-4096:]
        size += len(chunk)
    err = proc.stderr.read().decode()
    assert proc.wait() == 0, err
    assert size == dim * row + 2 * (dim - 1) + 2 + 1 == 201_334_785
    # reference: the first and the last row through json.dumps; l=2 makes every sigma_- entry 1
    def reference_row(i):
        return json.dumps([[1.0 if i % 2 == 0 and j == i + 1 else 0.0, 0.0] for j in range(dim)])

    assert head.decode() == ("[" + reference_row(0))[:4096]
    assert tail.decode() == (reference_row(dim - 1) + "]\n")[-4096:]
    (peak,) = [line for line in err.splitlines() if line.startswith("VmHWM:")]
    assert int(peak.split()[1]) < 64 * 1024, peak  # kB; a writer that builds the whole text peaks near 540 MB


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
