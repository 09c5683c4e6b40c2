"""No runtime module but graph.py reads a store's private indexes, apart from two named readers."""

import ast
from pathlib import Path

import helpers

SRC = Path(__file__).resolve().parent.parent / "src" / "ecokg"

PRIVATE_INDEXES = {"_spo", "_pos"}
# (module, function) of the readers that still walk the dict indexes
# directly: the writer's subject chunks and the graph counts, which the
# compact store's writer and read side replace (ROADMAP item 7)
ALLOWED_READERS = {("ntriples.py", "_sorted_chunks"), ("stats.py", "count_graph")}


def private_index_reads(source: str) -> list[tuple[str, str]]:
    """(qualified name of the enclosing def, attribute) of each ``._spo`` or ``._pos`` read.

    Reads outside any def or class report ``<module>``.
    """
    return sorted(
        (scope, node.attr) for scope, node in helpers.scoped_nodes(source)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE_INDEXES
    )


def test_only_the_named_readers_touch_the_private_indexes():
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "graph.py")
    assert modules
    readers = {
        (path.name, scope)
        for path in modules
        for scope, _ in private_index_reads(path.read_text(encoding="utf-8"))
    }
    assert readers - ALLOWED_READERS == set()


def test_guard_sees_a_private_index_read():
    source = (
        "top = store._spo\n"
        "def f(store):\n    return store._pos.get(p)\n"
        "class C:\n    def g(self, s):\n        return len(s._spo) + len(s.spo) + len(s._posx)\n"
    )
    assert private_index_reads(source) == [("<module>", "_spo"), ("C.g", "_spo"), ("f", "_pos")]
