"""Command-line front end.

Subcommands: ``verify`` (identity catalog and functional equation sweeps),
``quadrature`` (resolution-of-identity certification), ``grassmann``
(eigenvector checks), ``dump`` (matrix output). Reports go to stdout as JSON
(default) or CSV. Exit status: 0 when every record passes, 1 on any failing
record, 2 on usage errors, including parameters the library rejects with a
``ValueError`` and a repeated list entry, 141 when the reader closes stdout
before the report or the help is out, and 74 (``EX_IOERR``) when writing
stdout fails otherwise.
A well-formed argv is parsed from the option table without argparse, which
loads only to print ``--help`` and usage errors.
"""

from __future__ import annotations

import gc
import os
import sys
import types

from . import _QUADRATURE_TOLERANCE, DUMPABLE_OPERATORS, RESOLUTION_VARIANTS, _count, _distinct, _lazy, _tolerance

# the entry points, each imported from its module on first use (PEP 562), so
# --help and every usage error load none of them. ``_dispatch`` calls them as
# attributes of this module, through ``_this``, so that a wrapper set on the
# module attribute is the one it calls.
_this = sys.modules[__name__]
__getattr__ = _lazy(
    globals(), ("algebra_suite", "quadrature_suite", "grassmann_suite", "named_operator", "matrix_to_json", "matrix_to_csv")
)


def _int_list(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    try:
        if any(items):
            return [int(piece) for piece in items if piece]
        message = "expected a comma-separated list of integers"
    except ValueError:
        message = f"bad integer list {text!r}"
    import argparse  # only a malformed list needs it, and argparse then reports it
    raise argparse.ArgumentTypeError(message)


_FORMAT = {"choices": ("json", "csv"), "default": "json"}
# subcommand -> (its help, {option: the keyword arguments of its add_argument}), read by both parsers
_COMMANDS = {
    "verify": ("run the identity catalog and functional equation sweeps", {
        "dims": {"type": _int_list, "required": True, "help": "comma-separated even truncation dimensions"},
        "ls": {"type": _int_list, "required": True, "help": "comma-separated positive exponents"},
        "tol": {"type": float, "default": 0.0, "help": "residual tolerance (default 0: exact)"},
        "format": _FORMAT}),
    "quadrature": ("certify the cat-state resolutions of identity", {
        "dim": {"type": int, "required": True, "help": "even truncation dimension"},
        "radial": {"type": int, "default": 16, "help": "Gauss-Laguerre node count K"},
        "angular": {"type": int, "default": 64, "help": "uniform angle count M"},
        "variants": {"default": "all", "help": "comma-separated subset of %s, or 'all'" % ",".join(RESOLUTION_VARIANTS)},
        "tol": {"type": float, "default": _QUADRATURE_TOLERANCE},
        "format": _FORMAT}),
    "grassmann": ("check the Grassmann-eigenvalue eigenvectors of sigma_-", {
        "dims": {"type": _int_list, "required": True}, "ls": {"type": _int_list, "required": True}, "format": _FORMAT}),
    "dump": ("print one operator matrix", {
        "op": {"required": True, "choices": DUMPABLE_OPERATORS},
        "dim": {"type": int, "required": True},
        "l": {"type": int, "default": 2, "help": "representation exponent (sign pattern depends on parity)"},
        "format": _FORMAT}),
}


def _build_parser():
    """The argparse parser, built only for ``--help`` and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bosepauli",
        allow_abbrev=False,  # an option is spelled in full, as _parse_well_formed reads it
        description="Certify the oscillator realizations of the Pauli operators on truncated Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary, allow_abbrev=False)
        for dest, keywords in options.items():
            subparser.add_argument("--" + dest, **keywords)
        subparser.set_defaults(usage_error=subparser.error)  # checks after parsing report as the subcommand's own errors do
    for each in (parser, *sub.choices.values()):
        each.print_help = types.MethodType(_print_help, each)
    return parser


def _print_help(parser, file=None) -> None:
    """``parser``'s help, written to stdout; argparse's own ``print_help``
    drops a failed write, and ``run`` reports it as it does a report's."""
    (file or sys.stdout).write(parser.format_help())


def _parse_well_formed(argv: list[str]):
    """What argparse parses from ``argv`` when it is a subcommand followed by
    its options, each spelled in full, given once and with a value its type
    and choices accept; ``None`` otherwise, and argparse reads ``argv``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options, given, tokens = _COMMANDS[argv[0]][1], {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name[:2] != "--" or name[2:] not in options or name[2:] in given:
            return None
        value = value if eq else next(tokens, None)
        # argparse takes a separate value that starts with "-" for an option or
        # a negative number, and drops a value of "--"
        if value is None or value == "--" or not eq and value.startswith("-"):
            return None
        option = options[name[2:]]
        try:
            value = option.get("type", str)(value)
        except Exception:  # argparse converts the value again and reports the failure
            return None
        if "choices" in option and value not in option["choices"]:
            return None
        given[name[2:]] = value
    if any(option.get("required") and dest not in given for dest, option in options.items()):
        return None
    defaults = {dest: option.get("default") for dest, option in options.items()}
    return types.SimpleNamespace(command=argv[0], **{**defaults, **given})


def _check_dims(dims: list[int], option: str = "--dims entries") -> None:
    for dim in dims:
        if dim < 2 or dim % 2 != 0:
            raise ValueError(f"{option} must be even and >= 2, got {dim}")


def _emit(report, fmt: str) -> int:
    if fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_json())
    return 0 if report.all_passed() else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # in a subcommand that has --tol, each --tol VALUE as --tol=VALUE: argparse
    # takes a VALUE like -1e-3 or -inf for an option
    while "--tol" in argv[:-1] and argv[0] in _COMMANDS and "tol" in _COMMANDS[argv[0]][1]:
        at = argv.index("--tol")
        argv[at : at + 2] = ["--tol=" + argv[at + 1]]
    args = _parse_well_formed(argv) or _build_parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if value == []:  # argparse stores a value of "--" (--dim=--) as []; _int_list never returns []
                raise ValueError(f"argument --{dest}: expected one argument")
        if hasattr(args, "tol"):
            args.tol = _tolerance("--tol", args.tol)
        return _dispatch(args)
    except ValueError as exc:  # a parameter the CLI or the library rejects: a usage error of the subcommand's parser
        _build_parser().parse_args(argv).usage_error(str(exc))


def _dispatch(args) -> int:
    if args.command in ("verify", "grassmann"):
        _check_dims(args.dims)
        for l in args.ls:
            _count("--ls entries", l, 1)
        _distinct(("--dims", args.dims), ("--ls", args.ls))  # the suites' own check, naming the options
        if args.command == "grassmann":
            return _emit(_this.grassmann_suite(args.dims, args.ls), args.format)
        return _emit(_this.algebra_suite(args.dims, args.ls, args.tol), args.format)

    if args.command == "quadrature":
        _check_dims([args.dim], "--dim")
        _count("--radial", args.radial, 1)
        _count("--angular", args.angular, 1)
        if args.variants == "all":
            variants = list(RESOLUTION_VARIANTS)
        else:
            variants = [piece.strip() for piece in args.variants.split(",") if piece.strip()]
            unknown = [v for v in variants if v not in RESOLUTION_VARIANTS]
            if not variants or unknown:
                raise ValueError(f"--variants must name variants among {RESOLUTION_VARIANTS}")
            _distinct(("--variants", variants))
        return _emit(_this.quadrature_suite(args.dim, args.radial, args.angular, variants, args.tol), args.format)

    # dump
    _check_dims([args.dim], "--dim")
    _count("--l", args.l, 1)
    entries = _this.named_operator(args.op, args.dim, args.l)
    if args.format == "csv":
        sys.stdout.write(_this.matrix_to_csv(entries))
    else:
        _this.matrix_to_json((args.dim, args.dim), entries, sys.stdout)
        sys.stdout.write("\n")
    return 0


def _silence(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so that the exit-time flush cannot raise again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def run() -> None:
    """The process entry point: ``main()``, its flush and the exit code.

    However the process leaves, ``run`` freezes the heap first, so that the
    interpreter's shutdown collections skip what the OS reclaims at exit.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:  # --help and usage errors: their output is flushed here too
            code = exc.code
        try:
            sys.stderr.flush()
        except OSError:  # a usage error that cannot be shown keeps its exit 2
            _silence(sys.stderr)
        sys.stdout.flush()
    except OSError as exc:
        _silence(sys.stdout)
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout early (``| head``): exit as SIGPIPE would, quietly
            code = 141
        else:  # a full disk, or another write failure: not a failing record
            code = 74  # EX_IOERR
            try:
                sys.stderr.write(f"bosepauli: error writing stdout: {exc}\n")
            except OSError:  # stderr fails too: the exit code alone reports it
                _silence(sys.stderr)
    finally:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
