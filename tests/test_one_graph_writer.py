"""cli.py writes every stage's graph from one function, so each stage's output is recorded in one place."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "ecokg" / "cli.py"


def write_file_callers(source: str) -> list[str]:
    """Qualified name of the def enclosing each ``ntriples.write_file(...)`` call.

    Calls outside any def or class report ``<module>``.
    """
    callers: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "write_file"
                  and isinstance(child.func.value, ast.Name) and child.func.value.id == "ntriples"):
                callers.append(scope)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(callers)


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
