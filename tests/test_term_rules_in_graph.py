"""No runtime module but graph.py spells out a term rule; the others build on graph's named rules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ecokg"

# Fragments of the IRI, blank-label and language-tag rules: the ASCII
# letter class and the start of the surrogate range, as regex text or as
# the character itself.
RULE_FRAGMENTS = ("A-Za-z", "\\ud800", "\ud800")


def rule_spellings(source: str) -> list[tuple[int, str]]:
    """(line, text) of each string constant in ``source`` that holds a rule fragment.

    Only string constants count, so a comment may still quote a rule.
    """
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(fragment in node.value for fragment in RULE_FRAGMENTS)
    )


def test_only_graph_spells_out_the_term_rules():
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "graph.py")
    assert modules
    spelled = {
        path.name: rule_spellings(path.read_text(encoding="utf-8"))
        for path in modules
    }
    assert {name: found for name, found in spelled.items() if found} == {}


def test_lint_sees_a_spelled_out_rule():
    source = (
        "# a comment may say [A-Za-z]+\n"
        "LABEL = re.compile(r'_:[A-Za-z0-9_]+')\n"
        "from .graph import LANG_TAG\n"
        "TAG = re.compile(rf'@({LANG_TAG})')\n"
        "def f():\n    return re.search('[\\ud800-\\udfff]', text)\n"
        "IRI = r'<[^\\s<>\\ud800-\\udfff]+>'\n"
    )
    assert rule_spellings(source) == [
        (2, "_:[A-Za-z0-9_]+"),
        (6, "[\ud800-\udfff]"),
        (7, "<[^\\s<>\\ud800-\\udfff]+>"),
    ]
