"""Property-path evaluation, pattern joins, and graph navigation helpers.

Path expressions combine predicate atoms with four operators, loosest
to tightest: alternative ``|``, sequence ``/``, inverse ``^``, and
bounded repetition ``{m,n}`` (``{m,}`` for no upper bound). Parentheses
group. Atoms are curies, ``<full-iri>``, or ``a`` for rdf:type.

The textual query format is one triple pattern per line. ``?name`` is a
projectable variable, ``_:label`` a blank variable that joins across
patterns but cannot be projected, ``[]`` a fresh anonymous blank
variable per occurrence. An optional leading ``select ?x ?y`` line
fixes the projection; a ``construct``/``where`` pair instead builds new
triples from a template. Terms are read by the N-Triples scanner, so a
literal takes every escape and ``@lang``/``^^<iri>`` suffix a graph
file can hold; a query adds ``^^curie`` datatypes.
"""

import re
from bisect import bisect_left, bisect_right
from collections import defaultdict, namedtuple
from contextlib import suppress
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .align import _pack, lane_counts, normalize_label
from .graph import DIGIT, PrefixMap, Term, TripleStore, ValidationError, iri, is_content_line
from .ns import RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF
from .ntriples import _LineScanner

_new = tuple.__new__


class PathSyntaxError(ValueError):
    pass


class QuerySyntaxError(ValueError):
    pass


class UnboundProjectionError(ValidationError):
    pass


class UnboundTemplateError(ValidationError):
    pass


class UnknownEntityError(ValidationError):
    pass


# ---------------------------------------------------------------------------
# Path expressions

@dataclass(frozen=True, slots=True)
class PathAtom:
    predicate: Term


@dataclass(frozen=True, slots=True)
class PathInverse:
    child: "PathExpr"


@dataclass(frozen=True, slots=True)
class PathSeq:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True, slots=True)
class PathAlt:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True, slots=True)
class PathRepeat:
    child: "PathExpr"
    low: int
    high: int | None  # None = unbounded

    def __post_init__(self) -> None:
        if self.low < 0 or (self.high is not None and self.high < self.low):
            raise ValueError(f"bad repetition bounds: {{{self.low},{self.high}}}")


PathExpr = PathAtom | PathInverse | PathSeq | PathAlt | PathRepeat


# a path atom (a curie or ``a``) runs to a space, tab, newline, operator or bracket
_ATOM = re.compile(r"[^ \t\n\r|/^{}()]*")
_DIGITS = re.compile(DIGIT + "*")


class _TermScanner(_LineScanner):
    """The N-Triples term scanner with query whitespace, curies and ``a``."""

    def __init__(self, text: str, prefixes: PrefixMap):
        super().__init__(text, 0)
        self.prefixes = prefixes

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expand(self, token: str) -> Term:
        """rdf:type for ``a``, else the IRI of the curie ``token``."""
        if token == "a":
            return RDF_TYPE
        return self.checked(self.prefixes.expand, token)


# Operators and groups one path may nest: the parser descends, and
# eval_path recurses, once per level, so a deeper path would exhaust the
# interpreter's stack instead of failing as a syntax error.
MAX_PATH_DEPTH = 64


class _PathParser(_TermScanner):
    """Recursive descent over | then / then ^ then {m,n}.

    Each rule returns its expression with its depth: 1 for an atom, one
    more per group, inversion, repetition, and sequence or alternative
    step above it.
    """

    open = 0  # groups and inversions entered and not yet left

    def error(self, message: str) -> PathSyntaxError:
        return PathSyntaxError(f"position {self.pos}: {message}")

    def deeper(self, depth: int) -> int:
        """``depth + 1``, unless that exceeds ``MAX_PATH_DEPTH``."""
        if depth >= MAX_PATH_DEPTH:
            raise self.error(f"path nested more than {MAX_PATH_DEPTH} levels deep")
        return depth + 1

    def nested(self, rule):
        """``rule()`` inside one more group or inversion, with its depth raised by one."""
        self.open = self.deeper(self.open)
        expr, depth = rule()
        self.open -= 1
        return expr, self.deeper(depth)

    def parse(self) -> PathExpr:
        expr, _ = self.alternative()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.peek()!r}")
        return expr

    def alternative(self) -> tuple[PathExpr, int]:
        expr, depth = self.sequence()
        while True:
            self.skip_ws()
            if self.peek() != "|":
                return expr, depth
            self.pos += 1
            right, right_depth = self.sequence()
            expr, depth = PathAlt(expr, right), self.deeper(max(depth, right_depth))

    def sequence(self) -> tuple[PathExpr, int]:
        expr, depth = self.unary()
        while True:
            self.skip_ws()
            if self.peek() != "/":
                return expr, depth
            self.pos += 1
            right, right_depth = self.unary()
            expr, depth = PathSeq(expr, right), self.deeper(max(depth, right_depth))

    def unary(self) -> tuple[PathExpr, int]:
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            child, depth = self.nested(self.unary)
            return PathInverse(child), depth
        return self.postfix()

    def postfix(self) -> tuple[PathExpr, int]:
        expr, depth = self.primary()
        while True:
            self.skip_ws()
            if self.peek() != "{":
                return expr, depth
            self.pos += 1
            low = self.number()
            self.skip_ws()
            if self.peek() != ",":
                raise self.error("expected ',' in repetition bounds")
            self.pos += 1
            self.skip_ws()
            high: int | None = None
            if self.peek() != "}":
                high = self.number()
            self.skip_ws()
            if self.peek() != "}":
                raise self.error("expected '}'")
            self.pos += 1
            expr, depth = self.checked(PathRepeat, expr, low, high), self.deeper(depth)

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        self.pos = _DIGITS.match(self.text, start).end()
        if self.pos == start:
            raise self.error("expected a number")
        return self.checked(int, self.text[start:self.pos])

    def primary(self) -> tuple[PathExpr, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            expr, depth = self.nested(self.alternative)
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return expr, depth
        if ch == "<":
            return PathAtom(self.scan_iri()), 1
        start = self.pos
        self.pos = _ATOM.match(self.text, start).end()
        token = self.text[start:self.pos]
        if not token:
            raise self.error("expected a predicate atom")
        return PathAtom(self.expand(token)), 1


def parse_path(text: str, prefixes: PrefixMap) -> PathExpr:
    """Parse a path expression against a prefix map."""
    return _PathParser(text, prefixes).parse()


def _ends(store: TripleStore, expr: PathExpr, node: Term, forward: bool, memo: defaultdict) -> set[Term]:
    """The nodes ``expr`` leads to from ``node``; with ``forward`` false,
    the nodes it leads from to ``node``.

    The walk reads only the index entries it reaches from ``node``, as
    in the SPARQL 1.1 ALP procedure: an atom reads the objects of the
    node going forward and its subjects going backward, ``^`` turns the
    direction round, and a sequence runs right to left going backward.
    ``memo`` maps (``id`` of a composite expression, direction) to its
    ends by node, for one ``eval_path`` call, so each subexpression is
    walked from a node once however many enclosing levels reach it; a
    returned set may be the memo's own, so callers only read it.
    """
    kind = type(expr)
    if kind is PathAtom:
        return store.objects(node, expr.predicate) if forward else store.subjects(expr.predicate, node)
    if kind is PathInverse:
        return _ends(store, expr.child, node, not forward, memo)
    known = memo[id(expr), forward]
    out = known.get(node)
    if out is not None:
        return out
    if kind is PathSeq:
        first, then = (expr.left, expr.right) if forward else (expr.right, expr.left)
        out = {e for m in _ends(store, first, node, forward, memo)
               for e in _ends(store, then, m, forward, memo)}
    elif kind is PathAlt:
        out = _ends(store, expr.left, node, forward, memo) | _ends(store, expr.right, node, forward, memo)
    elif kind is PathRepeat:
        # exactly ``low`` steps, then breadth-first up to ``high - low`` more:
        # a node within that many steps of the frontier has a walk of a
        # length in [low, high], and its first visit is its shortest one
        child = expr.child
        frontier = {node}
        for _ in range(expr.low):
            frontier = {b for a in frontier for b in _ends(store, child, a, forward, memo)}
        out = set(frontier)
        depth = 0
        while frontier and (expr.high is None or depth < expr.high - expr.low):
            frontier = {b for a in frontier for b in _ends(store, child, a, forward, memo)} - out
            out |= frontier
            depth += 1
    else:
        raise TypeError(f"not a path expression: {expr!r}")
    known[node] = out
    return out


def _first_nodes(store: TripleStore, expr: PathExpr, forward: bool) -> tuple[set[Term], bool]:
    """The nodes a non-empty walk of ``expr`` can begin at (with
    ``forward`` false, end at), and whether ``expr`` accepts the empty walk.

    An atom's walks begin at the subjects of its predicate; a sequence's
    at its first step's, and also at the next step's when the first can
    be empty; an alternative's at either branch's; a repetition's at its
    child's. The set may hold nodes no walk begins at, never misses one.
    """
    kind = type(expr)
    if kind is PathAtom:
        return {pair[0 if forward else 1] for pair in store.predicate_pairs(expr.predicate)}, False
    if kind is PathInverse:
        return _first_nodes(store, expr.child, not forward)
    if kind is PathRepeat:
        nodes, empty = _first_nodes(store, expr.child, forward)
        return nodes, empty or expr.low == 0
    if kind is PathAlt:
        left, left_empty = _first_nodes(store, expr.left, forward)
        right, right_empty = _first_nodes(store, expr.right, forward)
        return left | right, left_empty or right_empty
    if kind is not PathSeq:
        raise TypeError(f"not a path expression: {expr!r}")
    first, then = (expr.left, expr.right) if forward else (expr.right, expr.left)
    nodes, empty = _first_nodes(store, first, forward)
    if not empty:
        return nodes, False
    then_nodes, then_empty = _first_nodes(store, then, forward)
    return nodes | then_nodes, then_empty


def eval_path(
    store: TripleStore,
    path: PathExpr,
    start: Term | None = None,
) -> set[tuple[Term, Term]]:
    """All (start, end) node pairs connected by the path.

    With ``start`` given, only pairs beginning there are returned,
    evaluated forward from it; a path that accepts the empty walk then
    includes (start, start) even when the term is absent from the graph.
    Without it, a path that accepts the empty walk is walked from every
    subject and object in the store, and any other path only from the
    nodes where one of its non-empty walks can begin.
    """
    if start is not None:
        starts = {start}
    else:
        starts, empty = _first_nodes(store, path, True)
        if empty:
            starts = store.terms()
    memo = defaultdict(dict)
    return {(s, e) for s in starts for e in _ends(store, path, s, True, memo)}


# ---------------------------------------------------------------------------
# Triple patterns and joins

class Var(namedtuple("Var", "name blank", defaults=(False,))):
    """A pattern variable; a blank one joins but cannot be projected."""

    __slots__ = ()


Pattern = tuple[Term | Var, Term | Var, Term | Var]


# kind: "select" or "construct"; projection: a select's variables; template: a construct's patterns
Query = namedtuple("Query", "kind patterns projection template", defaults=((), ()))


def _pattern_vars(patterns) -> set[Var]:
    return {slot for pat in patterns for slot in pat if isinstance(slot, Var)}


def _bind(slot: Term | Var, binding: dict[Var, Term]) -> Term | None:
    if isinstance(slot, Var):
        return binding.get(slot)
    return slot


def solve(store: TripleStore, patterns, funnel: list | None = None) -> list[dict[Var, Term]]:
    """All distinct variable bindings satisfying every pattern, in no set order.

    The join order is fixed once, before any row is read, as in RDF-3X.
    Each step takes the pattern with the most positions bound, by
    constants or by variables of earlier patterns, then the one with the
    most distinct variables bound by earlier patterns; only patterns
    still tied are counted in the store by their constants, fewest
    first, then the earliest. Each pattern's slots are read once; its
    rank then rises by counting as steps bind its variables.

    A row is a tuple that each step extends by the triple it matched, so
    a variable's column is its slot at the step that first binds it.
    Rows become binding dicts once, at the end. ``funnel``, when given,
    receives one (pattern, rows after the step) pair per step.
    """
    args, var_slots, ranks = [], [], []
    # variable -> {pattern: 4 per slot it fills there, plus 1}
    weights: dict[Var, dict[int, int]] = {}
    for n, pat in enumerate(patterns):
        consts, slots = [], []
        for i, slot in enumerate(pat):
            if isinstance(slot, Var):
                consts.append(None)
                slots.append((i, slot))
                seen = weights.setdefault(slot, {})
                seen[n] = seen.get(n, 1) + 4
            else:
                consts.append(slot)
        s, p, _ = consts
        if s is not None and s.is_literal():
            raise ValueError("literal cannot be a pattern subject")
        if p is not None and not p.is_iri():
            raise ValueError("pattern predicate must be an IRI")
        if isinstance(pat[1], Var) and pat[1].blank:
            raise ValueError("pattern predicate cannot be a blank variable")
        args.append(consts)
        var_slots.append(slots)
        # 4 per position bound plus 1 per distinct variable bound (at
        # most 3), so one int orders by both
        ranks.append(4 * (3 - len(slots)))
    remaining = list(range(len(patterns)))
    columns: dict[Var, int] = {}
    steps = []
    while remaining:
        top, tied = -1, []
        for n in remaining:
            if ranks[n] > top:
                top, tied = ranks[n], [n]
            elif ranks[n] == top:
                tied.append(n)
        if len(tied) > 1:
            tied.sort(key=lambda n: store.count(*args[n]))
        n = tied[0]
        remaining.remove(n)
        width = 3 * len(steps)
        reads, repeats = [], []
        for i, var in var_slots[n]:
            col = columns.get(var)
            if col is None:
                columns[var] = width + i
                for m, weight in weights[var].items():
                    ranks[m] += weight
            elif col >= width:
                repeats.append((i, col - width))
            else:
                reads.append((i, col))
        steps.append((patterns[n], args[n], reads, repeats))
    probe = store.probe
    rows: list[tuple[Term, ...]] = [()]
    for pat, probe_args, reads, repeats in steps:
        joined = []
        for row in rows:
            for i, col in reads:
                probe_args[i] = row[col]
            for t in probe(*probe_args):
                if not repeats or all(t[i] == t[j] for i, j in repeats):
                    joined.append(row + t)
        rows = joined
        if funnel is not None:
            funnel.append((pat, len(rows)))
    # The rows are already distinct: two of them part where one pattern
    # matched two different triples under the same row, and those
    # triples differ in a slot that holds a variable left unbound there,
    # so they bind it differently.
    pairs = list(columns.items())
    return [{var: row[col] for var, col in pairs} for row in rows]


def select(
    store: TripleStore,
    patterns,
    projection: list[str],
    funnel: list | None = None,
) -> list[tuple[Term, ...]]:
    """Distinct projected rows in deterministic order.

    Projection names must be named (non-blank) pattern variables.
    ``funnel`` is passed to ``solve``.
    """
    pattern_vars = _pattern_vars(patterns)
    wanted = [Var(name) for name in projection]
    missing = [v.name for v in wanted if v not in pattern_vars]
    if missing:
        raise UnboundProjectionError(f"projection variables not in pattern: {missing}")
    rows = {tuple(map(binding.__getitem__, wanted)) for binding in solve(store, patterns, funnel)}
    return sorted(rows, key=lambda row: tuple(map(Term.ntriples, row)))


def construct(store: TripleStore, patterns, template, funnel: list | None = None) -> TripleStore:
    """New store holding the template instantiated per solution.

    As in SPARQL CONSTRUCT, an instance that is no valid triple, which
    the store's ``add`` refuses, is left out. ``funnel`` is passed to
    ``solve``.
    """
    pattern_vars = _pattern_vars(patterns)
    unbound = sorted(
        v.name for v in _pattern_vars(template) if v not in pattern_vars
    )
    if unbound:
        raise UnboundTemplateError(f"template variables not bound by pattern: {unbound}")
    out = TripleStore(store.prefixes)
    for binding in solve(store, patterns, funnel):
        for pat in template:
            with suppress(ValueError):
                out.add(tuple(_bind(slot, binding) for slot in pat))
    return out


def explain(store: TripleStore, funnel) -> str:
    """The join plan a ``solve`` funnel recorded, one line per step.

    Each line gives the step's pattern in query syntax, the store's
    count of its constants alone (the planner's estimate) and the rows
    after the step.
    """
    lines = []
    for pat, rows in funnel:
        words = [("_:" if slot.blank else "?") + slot.name if isinstance(slot, Var) else slot.ntriples()
                 for slot in pat]
        estimate = store.count(*(_bind(slot, {}) for slot in pat))
        lines.append(f"plan\t{' '.join(words)} .\testimate={estimate}\trows={rows}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Textual mini-query format

_NAME = re.compile(r"\S*")


class _PatternScanner(_TermScanner):
    """Reads a query's patterns, one line each; ``fresh`` counts its ``[]`` blanks."""

    def __init__(self, prefixes: PrefixMap):
        super().__init__("", prefixes)
        self.fresh = 0

    def error(self, message: str) -> QuerySyntaxError:
        return QuerySyntaxError(f"line {self.line}: {message}")

    def take_token(self) -> str:
        """The text up to the next whitespace, less the '.'s it ends in.

        As in Turtle, a name cannot end in '.'. A '.' so left that ends
        the line closes the pattern ("?s a ?t." reads as "?s a ?t ."),
        and any other is a syntax error.
        """
        start = self.pos
        token = self.text[start:_NAME.match(self.text, start).end()].rstrip(".")
        self.pos = start + len(token)
        return token

    def scan_term(self, position: str) -> Term | Var:
        self.skip_ws()
        ch = self.peek()
        if ch == "?" or self.text.startswith("_:", self.pos):
            blank = ch == "_"
            name = self.take_token()[2 if blank else 1:]
            if not name:
                raise self.error("empty blank label" if blank else "empty variable name")
            return Var(name, blank)
        if self.text.startswith("[]", self.pos):
            self.pos += 2
            self.fresh += 1
            return Var(f"anon{self.fresh}", blank=True)
        if ch == "<":
            return self.scan_iri()
        if ch == '"':
            if position != "object":
                raise self.error("literals are only allowed in object position")
            return self.scan_literal()
        token = self.take_token()
        if not token:
            raise self.error(f"missing {position}")
        return self.expand(token)

    def scan_datatype(self) -> str:
        if self.peek() == "<":
            return self.scan_iri().value
        return self.checked(self.prefixes.resolve, self.take_token())

    def plain_term(self, word: str) -> Term | Var | None:
        """The term a whitespace-free ``word`` of a plain shape reads as:
        ``?name``, ``_:label``, ``<iri>`` with its only '>' at the end, a
        curie or ``a``. An empty name, a '<' word not ending in '>' and
        any word starting with '[' (the scanner reads a leading ``[]`` as
        a blank) give None, and so does a word ending in '.', as no name
        can; an invalid IRI or curie raises ``ValueError``.
        """
        head = word[:1]
        if head == "[" or word.endswith("."):
            return None
        if head == "?" or word.startswith("_:"):
            name = word[1 if head == "?" else 2:]
            return _new(Var, (name, head == "_")) if name else None
        if head == "<":
            # ``iri`` rejects a '>' before the last character
            return iri(word[1:-1]) if word.endswith(">") else None
        return RDF_TYPE if word == "a" else self.prefixes.expand(word)

    def pattern(self, line: str, line_no: int) -> Pattern:
        """The triple pattern on one line of the query.

        A line with no '"' is first split at whitespace. Three words in
        plain shapes (see ``plain_term``), then maybe a '.' word, or a
        '.' closing the third word, make the pattern directly. Every other
        line, and every line in error, is read by ``scan_pattern``, which
        gives the same pattern or raises the syntax error.
        """
        words = () if '"' in line else line.split()
        if len(words) == 4 and words[3] == ".":
            del words[3]
        elif len(words) == 3 and words[2].endswith("."):
            words[2] = words[2][:-1]
        if len(words) == 3:
            try:
                s, p, o = map(self.plain_term, words)
            except ValueError:
                pass
            else:
                if None not in (s, p, o) and not (isinstance(p, Var) and p.blank):
                    return (s, p, o)
        return self.scan_pattern(line, line_no)

    def scan_pattern(self, line: str, line_no: int) -> Pattern:
        """The triple pattern on one line, read term by term."""
        self.text = line
        self.pos = 0
        self.line = line_no
        s = self.scan_term("subject")
        p = self.scan_term("predicate")
        o = self.scan_term("object")
        if isinstance(p, Var) and p.blank:
            raise self.error("predicate cannot be a blank variable")
        trailing = line[self.pos:].strip()
        if trailing not in ("", "."):
            raise self.error(f"trailing content: {trailing!r}")
        return (s, p, o)


def parse_query(text: str, prefixes: PrefixMap) -> Query:
    """Parse the textual mini-query format into a Query."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.split("\n"), 1) if is_content_line(ln)]
    if not lines:
        raise QuerySyntaxError("empty query")
    sc = _PatternScanner(prefixes)
    first_no, first = lines[0]
    words = first.split()
    if words[0].lower() == "select":
        names = []
        for token in words[1:]:
            if not token.startswith("?"):
                raise QuerySyntaxError(f"line {first_no}: projection must list ?variables")
            if token == "?":
                raise QuerySyntaxError(f"line {first_no}: empty variable name")
            names.append(token[1:])
        if not names:
            raise QuerySyntaxError(f"line {first_no}: empty projection")
        patterns = tuple(sc.pattern(ln, no) for no, ln in lines[1:])
        if not patterns:
            raise QuerySyntaxError("query has no patterns")
        return Query("select", patterns, projection=tuple(names))
    if first.lower() == "construct":
        try:
            split = next(i for i, (_, ln) in enumerate(lines) if ln.lower() == "where")
        except StopIteration:
            raise QuerySyntaxError("construct query needs a 'where' line") from None
        template = tuple(sc.pattern(ln, no) for no, ln in lines[1:split])
        patterns = tuple(sc.pattern(ln, no) for no, ln in lines[split + 1:])
        if not template or not patterns:
            raise QuerySyntaxError("construct query needs template and where patterns")
        return Query("construct", patterns, template=template)
    patterns = tuple(sc.pattern(ln, no) for no, ln in lines)
    names = sorted({v.name for v in _pattern_vars(patterns) if not v.blank})
    if not names:
        raise QuerySyntaxError("query binds no named variables")
    return Query("select", patterns, projection=tuple(names))


def run_query(store: TripleStore, query: Query, funnel: list | None = None):
    """Rows of a select, or the store a construct builds; ``funnel`` is passed to ``solve``."""
    if query.kind == "select":
        return select(store, query.patterns, list(query.projection), funnel)
    return construct(store, query.patterns, query.template, funnel)


# ---------------------------------------------------------------------------
# Navigation helpers

def _label_form(label: str) -> str:
    return " ".join(normalize_label(label)) or label.lower()


def _label_index(store: TripleStore) -> tuple[tuple, list[list[str]], dict[int, tuple[int, int]]]:
    """Distinct label forms packed for ``lane_counts``, one form per lane.

    ``_pack``'s 4-tuple for the forms sorted by (length, form); each
    lane's sorted subject keys; and per length, the (start, stop) range
    of its run of lanes. Built once per frozen store and kept on it; an
    unfrozen store can change, so it gets a fresh index on every call.
    """
    if store.label_index is not None:
        return store.label_index
    keys_by_form: dict[str, set[str]] = {}
    for s, o in store.predicate_pairs(RDFS_LABEL):
        if o.is_literal():
            key = s.ntriples() if s.is_blank() else s.value
            keys_by_form.setdefault(_label_form(o.value), set()).add(key)
    forms = sorted(keys_by_form, key=lambda form: (len(form), form))
    lengths = list(map(len, forms))
    by_length = {n: (bisect_left(lengths, n), bisect_right(lengths, n)) for n in set(lengths)}
    index = (_pack(forms), [sorted(keys_by_form[form]) for form in forms], by_length)
    if store.frozen:
        store.label_index = index
    return index


def check_lookup_k(k: int) -> None:
    """Reject a lookup result count below 1."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def fuzzy_lookup(
    store: TripleStore, name: str, k: int = 5, funnel: dict[str, int] | None = None
) -> list[tuple[str, float]]:
    """Top-k labeled entities by edit-distance score against ``name``.

    Scores use the alignment formula over normalized label forms; ties
    break toward the lexicographically smaller IRI. Ingest mirrors all
    source names under rdfs:label, so the labels cover them all.

    The result is exact. Every form is a lane of one run of Myers'
    algorithm (Hyyrö, Fredriksson and Navarro 2005): one pass over the
    probe scores them all. Each length's run is a ladder of score
    levels, one per distinct count. A heap pops the levels of all
    lengths best first, pushing a length's next level once its current
    one has popped, so a subject's first level is its best score. The
    walk stops at the first level below the one where the k-th distinct
    subject appeared; levels tied with it are still ranked. ``funnel``,
    when given, receives the number of passes (one, or none on a store
    without labels), of the lanes they scanned, and of the lanes whose
    keys the ranking read.
    """
    check_lookup_k(k)
    probe = _label_form(name)
    lp = len(probe)
    pack, keys, by_length = _label_index(store)

    def level(count: int, length: int, start: int, stop: int) -> tuple:
        longest = (length if length > lp else lp) or 1  # a conditional, not max(): one call fewer per level
        return -(1.0 - (count + lp - length) / longest), count, length, start, stop  # minus: best pops first

    best: dict[str, float] = {}
    ranked = 0
    if keys:
        counts = lane_counts(pack, probe)
        heap = [level(min(counts[start:stop]), length, start, stop)
                for length, (start, stop) in by_length.items()]
        heapify(heap)
        # until k subjects are ranked, then on through the levels tied with the last popped one
        while heap and (len(best) < k or heap[0][0] == neg):
            neg, count, length, start, stop = heappop(heap)
            run = counts[start:stop]
            tied = run.count(count)
            ranked += tied
            lane = start - 1
            for _ in range(tied):
                lane = counts.index(count, lane + 1, stop)
                for key in keys[lane]:
                    best.setdefault(key, -neg)
            worse = min(filter(count.__lt__, run), default=None)
            if worse is not None:
                heappush(heap, level(worse, length, start, stop))
    if funnel is not None:
        funnel.update(passes=min(len(keys), 1), lanes=len(keys), ranked=ranked)
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k]


def _require_known(store: TripleStore, term: Term) -> None:
    if not store.count(s=term) and not store.count(o=term):
        raise UnknownEntityError(f"entity not in graph: {term.ntriples()}")


def lineage(store: TripleStore, taxon: Term) -> list[Term]:
    """Ancestors by transitive subClassOf, ordered leaf to root."""
    out: list[Term] = []
    seen = {taxon}
    frontier = [taxon]
    while frontier:
        frontier = {p for node in frontier for p in store.objects(node, RDFS_SUBCLASSOF) if p not in seen}
        if len(frontier) > 1:
            frontier = sorted(frontier, key=Term.ntriples)
        out.extend(frontier)
        seen.update(frontier)
    if not out:
        # a taxon with a parent is the subject of a triple, so only an empty walk needs the check
        _require_known(store, taxon)
    return out


def siblings(store: TripleStore, taxon: Term) -> list[Term]:
    """Other direct children of the taxon's direct parents."""
    _require_known(store, taxon)
    out: set[Term] = set()
    for parent in store.objects(taxon, RDFS_SUBCLASSOF):
        out.update(store.subjects(RDFS_SUBCLASSOF, parent))
    out.discard(taxon)
    return sorted(out, key=Term.ntriples)
