"""Every name a package module imports at module level is read in that module.

The project ships no linter, so this stands in for the unused-import rule: a
module that imports a name it never reads, to re-export it or by leftover,
fails here, and no name needs an exemption comment. The package's export map
is held to the same rule: each public name loads from the module that
defines it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import bosepauli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bosepauli"


def _module_level_imports(node):
    # import statements outside any function or class, also those under a top-level if or try
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_level_imports(child)


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each name imported at module level and read nowhere in ``source``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for statement in _module_level_imports(tree):
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{statement.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_unused_names_at_module_level_only():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from .fock import FockSpace, fock_ket  # re-exported\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    np = None\n"
        "def f():\n"
        "    import json\n"
        "    return system.argv, FockSpace, np\n"
    )
    assert unused_imports(source) == ["2: os", "3: fock_ket"]


def test_every_export_loads_from_the_module_that_defines_it():
    # an entry naming a module that only imports the name still resolves, but loads that module too
    misplaced = {
        name: getattr(bosepauli, name).__module__
        for name, module in bosepauli._EXPORTS.items()
        if getattr(bosepauli, name).__module__ != f"bosepauli.{module}"
    }
    assert misplaced == {}


def lazily_given_names():
    """Package module -> the names it passes ``bosepauli._lazy``, read from each call in its
    source and evaluated in the module."""
    given = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls = [
            node
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy"
        ]
        if calls:
            module = importlib.import_module("bosepauli" if path.stem == "__init__" else f"bosepauli.{path.stem}")
            given[module.__name__] = [name for call in calls for name in eval(ast.unparse(call.args[1]), vars(module))]
    return given


def test_every_lazily_given_name_is_the_object_its_home_defines_under_each_module_that_gives_it():
    given = lazily_given_names()
    assert set(given) == {f"bosepauli{stem}" for stem in ("", ".cli", ".report", ".pauli", ".grassmann")}
    # no module gives a name missing from the map, and every entry of the map is given
    assert {name for names in given.values() for name in names} == set(bosepauli._HOMES)
    for module_name, names in given.items():
        for name in names:
            home = importlib.import_module(f"bosepauli.{bosepauli._HOMES[name]}")
            assert getattr(vars(home)[name], "__module__", None) == home.__name__, name
            assert getattr(importlib.import_module(module_name), name) is vars(home)[name], (module_name, name)


def test_fock_space_is_one_object_under_every_module_that_imports_it():
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in _module_level_imports(ast.parse(path.read_text()))
        if "FockSpace" in {alias.name for alias in statement.names}
    ]
    assert importers
    for stem in importers:
        assert importlib.import_module(f"bosepauli.{stem}").FockSpace is bosepauli.FockSpace, stem


def _imports_numpy(tree):
    # an import of numpy or of a numpy submodule anywhere in the module, TYPE_CHECKING blocks and functions included
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "numpy":
            return True
    return False


def test_only_the_dense_modules_import_numpy():
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py")) if _imports_numpy(ast.parse(path.read_text()))]
    assert importers == ["coherent", "dense"]


def test_the_numpy_guard_sees_imports_at_every_level():
    for source in (
        "import numpy as np",
        "import numpy.linalg",
        "from numpy import zeros",
        "from numpy.polynomial import laguerre",
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np",
        "def f():\n    import numpy\n    return numpy",
    ):
        assert _imports_numpy(ast.parse(source)), source
    for source in ("import numbers", "from . import numpy_views", "from .numpy import x", "import numpyish"):
        assert not _imports_numpy(ast.parse(source)), source


def _is_isinstance(node, type_name):
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and getattr(node.args[1], "id", None) == type_name
    )


def integer_predicates(tree):
    """The name of each function, ``None`` at module level, that holds an
    ``isinstance(x, bool) or not isinstance(x, int)`` test, once per test."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (
            isinstance(node, ast.BoolOp)
            and isinstance(node.op, ast.Or)
            and any(_is_isinstance(value, "bool") for value in node.values)
            and any(isinstance(value, ast.UnaryOp) and _is_isinstance(value.operand, "int") for value in node.values)
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_integer_rule_is_written_once():
    # each integer parameter is checked by bosepauli._count, not by a copy of its test
    holders = [
        (path.stem, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function in integer_predicates(ast.parse(path.read_text()))
    ]
    assert holders == [("__init__", "_count")]


def test_the_integer_rule_guard_sees_the_test_wherever_it_is_written():
    source = (
        "def f(n):\n"
        "    if isinstance(n, bool) or not isinstance(n, int) or n < 0:\n"
        "        raise ValueError(n)\n"
        "class C:\n"
        "    def g(self, k):\n"
        "        return [c for c in k if not (isinstance(c, bool) or not isinstance(c, int))]\n"
        "h = lambda m: not isinstance(m, int) or isinstance(m, bool)\n"
        "ok = isinstance(1, bool) or not isinstance(1, int)\n"
        "def fine(x):\n"
        "    return isinstance(x, bool) or not 0 <= x, not isinstance(x, int) or x < 2, isinstance(x, int)\n"
    )
    assert integer_predicates(ast.parse(source)) == ["f", "g", "<lambda>", None]


def usage_error_uses(tree):
    """``("read" | "set", function)`` for each use of the attribute ``usage_error``:
    a read, or a keyword argument or assignment that sets it, with the name of
    the enclosing ``def`` (a lambda counts as its ``def``'s), ``None`` at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "usage_error":
            found.append(("read" if isinstance(node.ctx, ast.Load) else "set", function))
        if isinstance(node, ast.keyword) and node.arg == "usage_error":
            found.append(("set", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_cli_reports_every_rejection_through_one_handler():
    # each check after parsing raises ValueError, as the library's do, and main's one
    # handler reports it through the subcommand's argparse parser
    uses = usage_error_uses(ast.parse((PACKAGE / "cli.py").read_text()))
    assert sorted(uses) == [("read", "main"), ("set", "_build_parser")]


def test_the_one_handler_guard_sees_usage_error_wherever_it_is_used():
    source = (
        "def check(args):\n"
        "    report = args.usage_error\n"
        "def parse(argv):\n"
        "    return Namespace(usage_error=lambda message: parser(argv).usage_error(message))\n"
        "class C:\n"
        "    def m(self, args):\n"
        "        args.usage_error = print\n"
        "args.usage_error('x')\n"
    )
    assert usage_error_uses(ast.parse(source)) == [
        ("read", "check"), ("set", "parse"), ("read", "parse"), ("set", "m"), ("read", None)
    ]


# name moved off the paths of verify and grassmann -> (its home, the modules that still give it by that name)
MOVED = {
    **dict.fromkeys(("sigma_minus", "sigma_three"), ("dense", ("pauli",))),
    **dict.fromkeys(("apply_operator", "fock_ket"), ("dense", ("grassmann",))),
    **dict.fromkeys(
        ("_direct_sum", "closed_form_sigma_minus", "two_level_restriction", "GrassmannKet", "max_abs_amplitude"), ("dense", ())
    ),
    **dict.fromkeys(("named_operator", "matrix_to_json", "matrix_to_csv"), ("dump", ("cli",))),
    **dict.fromkeys(("_named_blocks", "_entries", "_row_major"), ("dump", ())),
}


@pytest.mark.parametrize("name", MOVED)
def test_each_moved_name_is_one_object_under_its_home_and_every_module_that_gives_it(name):
    home, others = MOVED[name]
    value = getattr(importlib.import_module(f"bosepauli.{home}"), name)
    assert value.__module__ == f"bosepauli.{home}"
    for module in others:
        assert getattr(importlib.import_module(f"bosepauli.{module}"), name) is value, module
    assert getattr(bosepauli, name, value) is value


# a dense builder that only tests called, an alias the benchmark's tracer does not read, or a
# public name only tests used -> the modules that gave it; the tests build the matrices in
# tests/dense_oracles.py and take fock_ket from bosepauli.dense
REMOVED = {
    **dict.fromkeys(("annihilator", "creator", "number_operator", "dagger", "deformed_annihilator"), ("", "coherent")),
    **dict.fromkeys(("parity_projectors", "pauli_set"), ("", "dense", "pauli")),
    "sigma_minus_eigenket": ("", "dense", "grassmann"),
    **dict.fromkeys(("_direct_sum", "closed_form_sigma_minus", "two_level_restriction"), ("pauli",)),
    **dict.fromkeys(("GrassmannKet", "max_abs_amplitude"), ("grassmann",)),
    "PauliSet": ("", "pauli"),
    "fock_ket": ("",),
}


@pytest.mark.parametrize("name", REMOVED)
def test_each_removed_name_resolves_under_none_of_the_modules_that_gave_it(name):
    for module in REMOVED[name]:
        owner = importlib.import_module(f"bosepauli.{module}" if module else "bosepauli")
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(owner, name)


def test_only_the_process_entry_point_touches_the_collector():
    # cli.run() freezes the heap as the process exits; the library and cli.main,
    # which callers run in-process, leave the collector as they found it
    readers = {
        (path.stem, getattr(definition, "name", None))
        for path in sorted(PACKAGE.glob("*.py"))
        for definition in ast.parse(path.read_text()).body
        for node in ast.walk(definition)
        if isinstance(node, ast.Name) and node.id == "gc"
    }
    assert readers == {("cli", "run")}
