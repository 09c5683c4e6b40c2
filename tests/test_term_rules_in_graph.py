"""No runtime module but graph.py spells out a term rule; the others build on graph's named rules."""

import ast
import string
import sys
from pathlib import Path

from ecokg import align, ecotox, graph, ntriples, query

SRC = Path(__file__).resolve().parent.parent / "src" / "ecokg"

# Fragments of the IRI, blank-label, language-tag, alphanumeric and digit
# rules: the ASCII letter class, the start of the surrogate range (as regex
# text or as the character itself), the Unicode alphanumeric class and the
# Unicode digit class, which graph.DIGIT's ASCII digits replace.
RULE_FRAGMENTS = ("A-Za-z", "\\ud800", "\ud800", "[^\\W_]", "\\d")


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


def method_calls(source: str, method: str) -> list[int]:
    """Lines of the ``.method(`` calls in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    )


def calls_outside_graph(method: str) -> dict[str, list[int]]:
    """Lines of the ``.method(`` calls in each runtime module but graph.py that has one."""
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "graph.py")
    calls = {path.name: method_calls(path.read_text(encoding="utf-8"), method) for path in modules}
    return {name: lines for name, lines in calls.items() if lines}


def test_only_graph_states_the_alphanumeric_rule():
    assert calls_outside_graph("isalnum") == {}


def test_only_graph_states_the_digit_rule():
    assert calls_outside_graph("isdigit") == {}


def test_lint_sees_an_isalnum_call_and_the_alphanumeric_class():
    source = (
        "# a comment may say ch.isalnum()\n"
        "WORD = re.compile(r'[^\\W_]+')\n"
        "def f(text):\n    return [ch for ch in text if ch.isalnum() or ch == '_']\n"
        "keep = str.isalnum\n"
        "ok = text[-1].isalnum()\n"
    )
    assert method_calls(source, "isalnum") == [4, 6]
    assert rule_spellings(source) == [(2, "[^\\W_]+")]


def test_lint_sees_an_isdigit_call_and_the_digit_class():
    source = (
        "# a comment may say \\d+ or text.isdigit()\n"
        "ID = re.compile(r'[1-9]\\d*')\n"
        "from .graph import DIGIT\n"
        "CAS = re.compile(rf'({DIGIT}{{2,7}})-(\\d{{2}})')\n"
        "def number(text):\n    return int(text) if text.isdigit() else None\n"
    )
    assert method_calls(source, "isdigit") == [6]
    assert rule_spellings(source) == [(2, "[1-9]\\d*"), (4, "{2,7})-(\\d{2})")]


def test_alphanumeric_rules_agree_with_str_on_every_code_point():
    # each class built from graph.ALNUM against the str predicate it stands for
    rules = {
        "align._WORD": (align._WORD, str.isalnum),
        "ntriples._LANG_RUN": (ntriples._LANG_RUN, lambda ch: ch.isalnum() or ch == "-"),
        "ecotox._NOT_KEY": (ecotox._NOT_KEY, lambda ch: not (ch.isalnum() or ch in "_ ")),
        "ecotox._CODE_TAIL": (ecotox._CODE_TAIL, lambda ch: not ch.isalnum()),
        "ecotox._HAS_ALNUM": (ecotox._HAS_ALNUM, str.isalnum),
    }
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    assert len(chars) == 1_114_112
    for name, (pattern, predicate) in rules.items():
        matches = pattern.fullmatch
        disagree = [ch for ch in chars if (matches(ch) is not None) != predicate(ch)]
        assert disagree == [], name


def ascii_digit(ch: str) -> bool:
    return ch.isascii() and ch.isdigit()


def test_digit_rules_agree_with_str_on_every_code_point():
    # each class built from graph.DIGIT or graph.HEX_DIGIT against the ASCII rule it stands for;
    # str.isdigit(), int() and "\d" also take the other scripts' digits
    rules = {
        "ecotox._DIGITS": (ecotox._DIGITS, ascii_digit),
        "query._DIGITS": (query._DIGITS, ascii_digit),
        "ntriples._HEX": (ntriples._HEX, lambda ch: ch in string.hexdigits),
    }
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    for name, (pattern, predicate) in rules.items():
        matches = pattern.fullmatch
        disagree = [ch for ch in chars if (matches(ch) is not None) != predicate(ch)]
        assert disagree == [], name
    read, read_float = [], []
    for ch in chars:
        if ch.isnumeric():  # the only characters int() and float() can read
            for reader, out in ((graph.digits_int, read), (graph.ascii_float, read_float)):
                try:
                    out.append(reader(ch))
                except ValueError:
                    pass
    assert read == read_float == list(range(10))


def builtin_number_types(source: str) -> list[int]:
    """Lines of the ``type=int`` and ``type=float`` keyword arguments in ``source``."""
    return sorted(
        node.value.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.keyword) and node.arg == "type"
        and isinstance(node.value, ast.Name) and node.value.id in ("int", "float")
    )


def test_no_flag_reads_its_number_through_int_or_float():
    # int() and float() take other scripts' digits and "_"; flags read numbers through graph's rules
    found = {path.name: builtin_number_types(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "cli.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lint_sees_a_type_int_or_float_argument():
    source = (
        "# a comment may say type=int\n"
        "p.add_argument('-k', type=int, default=5)\n"
        "p.add_argument('--threshold',\n    type=float)\n"
        "p.add_argument('-n', type=ascii_int)\n"
        "kind = dict(type=str)\n"
    )
    assert builtin_number_types(source) == [2, 4]
