"""Command-line front end.

Subcommands: ``verify`` (identity catalog and functional equation sweeps),
``quadrature`` (resolution-of-identity certification), ``grassmann``
(eigenvector checks), ``dump`` (matrix output). Reports go to stdout as JSON
(default) or CSV. Exit status: 0 when every record passes, 1 on any failing
record, 2 on usage errors, including parameters the library rejects with a
``ValueError``, and 141 when the reader closes stdout before the report is out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .report import (
    DUMPABLE_OPERATORS,
    RESOLUTION_VARIANTS,
    VerificationReport,
    algebra_suite,
    grassmann_suite,
    matrix_to_csv,
    matrix_to_json,
    named_operator,
    quadrature_suite,
)


def _int_list(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    if not any(items):
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    try:
        return [int(piece) for piece in items if piece]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosepauli",
        description="Certify the oscillator realizations of the Pauli operators on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity catalog and functional equation sweeps")
    verify.add_argument("--dims", type=_int_list, required=True, help="comma-separated even truncation dimensions")
    verify.add_argument("--ls", type=_int_list, required=True, help="comma-separated positive exponents")
    verify.add_argument("--tol", type=float, default=0.0, help="residual tolerance (default 0: exact)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")

    quad = sub.add_parser("quadrature", help="certify the cat-state resolutions of identity")
    quad.add_argument("--dim", type=int, required=True, help="even truncation dimension")
    quad.add_argument("--radial", type=int, default=16, help="Gauss-Laguerre node count K")
    quad.add_argument("--angular", type=int, default=64, help="uniform angle count M")
    quad.add_argument(
        "--variants",
        default="all",
        help="comma-separated subset of %s, or 'all'" % ",".join(RESOLUTION_VARIANTS),
    )
    quad.add_argument("--tol", type=float, default=1e-12)
    quad.add_argument("--format", choices=("json", "csv"), default="json")

    grass = sub.add_parser("grassmann", help="check the Grassmann-eigenvalue eigenvectors of sigma_-")
    grass.add_argument("--dims", type=_int_list, required=True)
    grass.add_argument("--ls", type=_int_list, required=True)
    grass.add_argument("--format", choices=("json", "csv"), default="json")

    dump = sub.add_parser("dump", help="print one operator matrix")
    dump.add_argument("--op", required=True, choices=DUMPABLE_OPERATORS)
    dump.add_argument("--dim", type=int, required=True)
    dump.add_argument("--l", type=int, default=2, help="representation exponent (sign pattern depends on parity)")
    dump.add_argument("--format", choices=("json", "csv"), default="json")
    for subparser in sub.choices.values():  # checks after parsing report as the subcommand's own errors do
        subparser.set_defaults(usage_error=subparser.error)
    return parser


def _check_dims(usage_error, dims: list[int]) -> None:
    for dim in dims:
        if dim < 2 or dim % 2 != 0:
            usage_error(f"--dims entries must be even and >= 2, got {dim}")


def _check_ls(usage_error, ls: list[int]) -> None:
    for l in ls:
        if l < 1:
            usage_error(f"--ls entries must be positive, got {l}")


def _emit(report: VerificationReport, fmt: str) -> int:
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())
    return 0 if report.all_passed() else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    at = 0
    while at < len(argv) - 1:  # each --tol VALUE as --tol=VALUE: argparse takes a VALUE like -1e-3 or -inf for an option
        if argv[at] == "--tol":
            argv[at : at + 2] = ["--tol=" + argv[at + 1]]
        at += 1
    args = parser.parse_args(argv)
    if not 0 <= getattr(args, "tol", 0.0) < math.inf:  # false for NaN too
        args.usage_error(f"--tol must be a finite number >= 0, got {args.tol}")
    if "tol" in args:
        args.tol += 0.0  # -0.0 passes the range check; reports print it unsigned
    try:
        return _dispatch(args)
    except ValueError as exc:  # a parameter the library rejects is a usage error
        args.usage_error(str(exc))


def _dispatch(args: argparse.Namespace) -> int:
    error = args.usage_error
    if args.command == "verify":
        _check_dims(error, args.dims)
        _check_ls(error, args.ls)
        return _emit(algebra_suite(args.dims, args.ls, args.tol), args.format)

    if args.command == "quadrature":
        _check_dims(error, [args.dim])
        if args.radial < 1 or args.angular < 1:
            error("--radial and --angular must be >= 1")
        if args.variants == "all":
            variants = list(RESOLUTION_VARIANTS)
        else:
            variants = [piece.strip() for piece in args.variants.split(",") if piece.strip()]
            unknown = [v for v in variants if v not in RESOLUTION_VARIANTS]
            if not variants or unknown:
                error(f"--variants must name variants among {RESOLUTION_VARIANTS}")
        return _emit(quadrature_suite(args.dim, args.radial, args.angular, variants, args.tol), args.format)

    if args.command == "grassmann":
        _check_dims(error, args.dims)
        _check_ls(error, args.ls)
        return _emit(grassmann_suite(args.dims, args.ls), args.format)

    # dump
    _check_dims(error, [args.dim])
    if args.l < 1:
        error(f"--l must be positive, got {args.l}")
    entries = named_operator(args.op, args.dim, args.l)
    if args.format == "csv":
        sys.stdout.write(matrix_to_csv(entries))
    else:
        matrix_to_json((args.dim, args.dim), entries, sys.stdout)
        sys.stdout.write("\n")
    return 0


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early (``| head``): exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit-time flush cannot raise again
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    run()
