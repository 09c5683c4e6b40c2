"""cli.py writes every stage's graph from one function, so each stage's output is recorded in one place."""

import ast
from pathlib import Path

import helpers

CLI = Path(__file__).resolve().parent.parent / "src" / "ecokg" / "cli.py"


def write_file_callers(source: str) -> list[str]:
    """Qualified name of the def enclosing each ``ntriples.write_file(...)`` call.

    Calls outside any def or class report ``<module>``.
    """
    return sorted(
        scope for scope, node in helpers.scoped_nodes(source)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "write_file"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "ntriples"
    )


def test_one_function_writes_every_stage_graph():
    assert len(set(write_file_callers(CLI.read_text(encoding="utf-8")))) == 1


def test_guard_sees_a_second_writer():
    source = (
        "def _write_graph(args, name, store):\n    ntriples.write_file(store, name)\n"
        "def cmd_export(args):\n    ntriples.write_text(path, text)\n"
        "    def inner():\n        return ntriples.write_file(merged, path)\n"
        "ntriples.write_file(store, 'kg.nt')\n"
    )
    callers = write_file_callers(source)
    assert callers == ["<module>", "_write_graph", "cmd_export.inner"]
    assert len(set(callers)) > 1
