"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ecokg"


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | {"ecokg"}
    outside = {
        path.name: sorted(imported_packages(path) - allowed) for path in modules
    }
    assert {name: pkgs for name, pkgs in outside.items() if pkgs} == {}


def test_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nfrom . import graph\n\ndef f():\n    import numpy.linalg\n")
    assert imported_packages(module) == {"os", "numpy"}
