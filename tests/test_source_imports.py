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
