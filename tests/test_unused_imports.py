"""No runtime module imports a name at module level that it never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ecokg"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module's top-level imports that no name in it reads."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_runtime_modules_use_every_import():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_guard_sees_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom . import graph, ntriples\n\ndef f():\n    return graph.iri(osp.sep)\n"
    assert unused_imports(source) == ["ntriples", "os"]
