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
triples from a template. Literals use N-Triples syntax with
``@lang``/``^^dt`` suffixes, datatypes as curies or ``<iri>``.
"""

import heapq
from collections import Counter
from dataclasses import dataclass

from .align import normalize_label, similarity
from .graph import PrefixMap, Term, Triple, TripleStore, iri, literal
from .ns import RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF
from .ntriples import NTriplesParseError, _LineScanner


class PathSyntaxError(ValueError):
    pass


class QuerySyntaxError(ValueError):
    pass


class UnboundProjectionError(ValueError):
    pass


class UnboundTemplateError(ValueError):
    pass


class UnknownEntityError(ValueError):
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


class _PathParser:
    """Recursive descent over | then / then ^ then {m,n}."""

    def __init__(self, text: str, prefixes: PrefixMap):
        self.text = text
        self.pos = 0
        self.prefixes = prefixes

    def error(self, message: str) -> PathSyntaxError:
        return PathSyntaxError(f"position {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> PathExpr:
        expr = self.alternative()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.peek()!r}")
        return expr

    def alternative(self) -> PathExpr:
        expr = self.sequence()
        while True:
            self.skip_ws()
            if self.peek() != "|":
                return expr
            self.pos += 1
            expr = PathAlt(expr, self.sequence())

    def sequence(self) -> PathExpr:
        expr = self.unary()
        while True:
            self.skip_ws()
            if self.peek() != "/":
                return expr
            self.pos += 1
            expr = PathSeq(expr, self.unary())

    def unary(self) -> PathExpr:
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            return PathInverse(self.unary())
        return self.postfix()

    def postfix(self) -> PathExpr:
        expr = self.primary()
        while True:
            self.skip_ws()
            if self.peek() != "{":
                return expr
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
            try:
                expr = PathRepeat(expr, low, high)
            except ValueError as exc:
                raise self.error(str(exc)) from None

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])

    def primary(self) -> PathExpr:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            expr = self.alternative()
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return expr
        if ch == "<":
            end = self.text.find(">", self.pos)
            if end < 0:
                raise self.error("unterminated IRI")
            text = self.text[self.pos + 1:end]
            self.pos = end + 1
            return PathAtom(iri(text))
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in " \t\n\r|/^{}()":
            self.pos += 1
        token = self.text[start:self.pos]
        if not token:
            raise self.error("expected a predicate atom")
        if token == "a":
            return PathAtom(RDF_TYPE)
        try:
            return PathAtom(self.prefixes.expand(token))
        except ValueError as exc:
            raise self.error(str(exc)) from None


def parse_path(text: str, prefixes: PrefixMap) -> PathExpr:
    """Parse a path expression against a prefix map."""
    return _PathParser(text, prefixes).parse()


def _normalize_inverse(expr: PathExpr, flip: bool = False) -> PathExpr:
    """Push inversions down to atoms; ^(p/q) becomes ^q/^p."""
    if isinstance(expr, PathAtom):
        return PathInverse(expr) if flip else expr
    if isinstance(expr, PathInverse):
        return _normalize_inverse(expr.child, not flip)
    if isinstance(expr, PathSeq):
        left = _normalize_inverse(expr.left, flip)
        right = _normalize_inverse(expr.right, flip)
        return PathSeq(right, left) if flip else PathSeq(left, right)
    if isinstance(expr, PathAlt):
        return PathAlt(_normalize_inverse(expr.left, flip), _normalize_inverse(expr.right, flip))
    if isinstance(expr, PathRepeat):
        return PathRepeat(_normalize_inverse(expr.child, flip), expr.low, expr.high)
    raise TypeError(f"not a path expression: {expr!r}")


def _compose(left: set[tuple[Term, Term]], right: set[tuple[Term, Term]]) -> set[tuple[Term, Term]]:
    by_start: dict[Term, set[Term]] = {}
    for a, b in right:
        by_start.setdefault(a, set()).add(b)
    return {(a, c) for a, b in left for c in by_start.get(b, ())}


def _eval_relation(
    store: TripleStore, expr: PathExpr, starts: set[Term]
) -> set[tuple[Term, Term]]:
    """Pairs connected by ``expr`` that begin at a node in ``starts``.

    The start set is pushed through every operator, so the cost follows
    the subgraph reachable from it (forward evaluation, as in the SPARQL
    1.1 ALP procedure) instead of the whole graph.
    """
    if isinstance(expr, PathAtom):
        return {(n, o) for n in starts for o in store.objects(n, expr.predicate)}
    if isinstance(expr, PathInverse):
        # normalization leaves inverse only directly over atoms
        p = expr.child.predicate
        return {(n, s) for n in starts for s in store.subjects(p, n)}
    if isinstance(expr, PathSeq):
        left = _eval_relation(store, expr.left, starts)
        return _compose(left, _eval_relation(store, expr.right, {b for _, b in left}))
    if isinstance(expr, PathAlt):
        return _eval_relation(store, expr.left, starts) | _eval_relation(store, expr.right, starts)
    if isinstance(expr, PathRepeat):
        return _eval_repeat(store, expr, starts)
    raise TypeError(f"not a path expression: {expr!r}")


def _eval_repeat(
    store: TripleStore, expr: PathRepeat, starts: set[Term]
) -> set[tuple[Term, Term]]:
    cache: dict[Term, set[Term]] = {}

    def successors(node: Term) -> set[Term]:
        if node not in cache:
            cache[node] = {b for _, b in _eval_relation(store, expr.child, {node})}
        return cache[node]

    out: set[tuple[Term, Term]] = set()
    for start in starts:
        # exactly ``low`` steps, then breadth-first up to ``high - low`` more:
        # a node within that many steps of the frontier has a walk of a
        # length in [low, high], and its first visit is its shortest one
        frontier = {start}
        for _ in range(expr.low):
            frontier = {b for a in frontier for b in successors(a)}
        seen = set(frontier)
        depth = 0
        while frontier and (expr.high is None or depth < expr.high - expr.low):
            frontier = {b for a in frontier for b in successors(a)} - seen
            seen |= frontier
            depth += 1
        out.update((start, e) for e in seen)
    return out


def eval_path(
    store: TripleStore,
    path: PathExpr,
    start: Term | None = None,
) -> set[tuple[Term, Term]]:
    """All (start, end) node pairs connected by the path.

    With ``start`` given, only pairs beginning there are returned,
    evaluated forward from it; a path that accepts the empty walk then
    includes (start, start) even when the term is absent from the graph.
    """
    normalized = _normalize_inverse(path)
    starts = store.terms() if start is None else {start}
    return _eval_relation(store, normalized, starts)


# ---------------------------------------------------------------------------
# Triple patterns and joins

@dataclass(frozen=True, slots=True)
class Var:
    name: str
    blank: bool = False


Pattern = tuple[Term | Var, Term | Var, Term | Var]


@dataclass(frozen=True, slots=True)
class Query:
    kind: str  # "select" | "construct"
    patterns: tuple[Pattern, ...]
    projection: tuple[str, ...] = ()
    template: tuple[Pattern, ...] = ()


def _pattern_vars(patterns) -> set[Var]:
    return {slot for pat in patterns for slot in pat if isinstance(slot, Var)}


def _bind(slot: Term | Var, binding: dict[Var, Term]) -> Term | None:
    if isinstance(slot, Var):
        return binding.get(slot)
    return slot


def solve(store: TripleStore, patterns) -> list[dict[Var, Term]]:
    """All distinct variable bindings satisfying every pattern.

    Patterns are joined most-selective-first: at each step the pattern
    with the most bound positions (then the fewest matching triples,
    counted from the store's indexes) is expanded.
    """
    patterns = list(patterns)
    for pat in patterns:
        if isinstance(pat[0], Term) and pat[0].is_literal():
            raise ValueError("literal cannot be a pattern subject")
        if isinstance(pat[1], Term) and not pat[1].is_iri():
            raise ValueError("pattern predicate must be an IRI")
        if isinstance(pat[1], Var) and pat[1].blank:
            raise ValueError("pattern predicate cannot be a blank variable")
    results: list[dict[Var, Term]] = []

    def resolve(pat: Pattern, binding: dict[Var, Term]) -> tuple[Term | None, ...]:
        return tuple(_bind(slot, binding) for slot in pat)

    def selectivity(pat: Pattern, binding: dict[Var, Term]) -> tuple[int, int]:
        slots = resolve(pat, binding)
        return (-sum(slot is not None for slot in slots), store.count(*slots))

    def extend(remaining: list[Pattern], binding: dict[Var, Term]) -> None:
        if not remaining:
            results.append(dict(binding))
            return
        remaining = sorted(remaining, key=lambda pat: selectivity(pat, binding))
        pat, rest = remaining[0], remaining[1:]
        for t in store.match(*resolve(pat, binding)):
            new = dict(binding)
            ok = True
            for slot, value in zip(pat, (t.subject, t.predicate, t.object)):
                if isinstance(slot, Var):
                    if slot in new and new[slot] != value:
                        ok = False
                        break
                    new[slot] = value
            if ok:
                extend(rest, new)

    extend(patterns, {})
    # distinct bindings (joins can reach the same assignment twice)
    unique: dict[tuple, dict[Var, Term]] = {}
    for binding in results:
        key = tuple(sorted(((v.name, v.blank, t.ntriples()) for v, t in binding.items())))
        unique[key] = binding
    return list(unique.values())


def select(
    store: TripleStore,
    patterns,
    projection: list[str],
) -> list[tuple[Term, ...]]:
    """Distinct projected rows in deterministic order.

    Projection names must be named (non-blank) pattern variables.
    """
    named = {v.name for v in _pattern_vars(patterns) if not v.blank}
    missing = [name for name in projection if name not in named]
    if missing:
        raise UnboundProjectionError(f"projection variables not in pattern: {missing}")
    wanted = [Var(name) for name in projection]
    rows = {tuple(binding[v] for v in wanted) for binding in solve(store, patterns)}
    return sorted(rows, key=lambda row: tuple(t.ntriples() for t in row))


def construct(store: TripleStore, patterns, template) -> TripleStore:
    """New store holding the template instantiated per solution.

    As in SPARQL CONSTRUCT, an instance that is no valid triple (a
    literal subject, a non-IRI predicate) is left out.
    """
    pattern_vars = _pattern_vars(patterns)
    unbound = sorted(
        v.name for v in _pattern_vars(template) if v not in pattern_vars
    )
    if unbound:
        raise UnboundTemplateError(f"template variables not bound by pattern: {unbound}")
    out = TripleStore(store.prefixes)
    for binding in solve(store, patterns):
        for pat in template:
            s, p, o = (_bind(slot, binding) for slot in pat)
            if not s.is_literal() and p.is_iri():
                out.add(Triple(s, p, o))
    return out


# ---------------------------------------------------------------------------
# Textual mini-query format

class _PatternScanner:
    def __init__(self, text: str, line_no: int, prefixes: PrefixMap, fresh: list[int]):
        self.text = text
        self.pos = 0
        self.line = line_no
        self.prefixes = prefixes
        self.fresh = fresh

    def error(self, message: str) -> QuerySyntaxError:
        return QuerySyntaxError(f"line {self.line}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def token_end(self) -> int:
        end = self.pos
        while end < len(self.text) and not self.text[end].isspace():
            end += 1
        # as in Turtle, a name cannot end in '.', so a '.' that ends the
        # line closes the pattern ("?s a ?t." reads as "?s a ?t .")
        if end > self.pos and self.text[end - 1] == "." and not self.text[end:].strip():
            end -= 1
        return end

    def scan_term(self, position: str) -> Term | Var:
        self.skip_ws()
        ch = self.text[self.pos] if self.pos < len(self.text) else ""
        if ch == "?":
            end = self.token_end()
            name = self.text[self.pos + 1:end]
            if not name:
                raise self.error("empty variable name")
            self.pos = end
            return Var(name)
        if self.text.startswith("_:", self.pos):
            end = self.token_end()
            name = self.text[self.pos + 2:end]
            if not name:
                raise self.error("empty blank label")
            self.pos = end
            return Var(name, blank=True)
        if self.text.startswith("[]", self.pos):
            self.pos += 2
            self.fresh[0] += 1
            return Var(f"anon{self.fresh[0]}", blank=True)
        if ch == "<":
            end = self.text.find(">", self.pos)
            if end < 0:
                raise self.error("unterminated IRI")
            text = self.text[self.pos + 1:end]
            self.pos = end + 1
            return iri(text)
        if ch == '"':
            return self.scan_literal(position)
        end = self.token_end()
        token = self.text[self.pos:end]
        if not token:
            raise self.error(f"missing {position}")
        self.pos = end
        if token == "a":
            return RDF_TYPE
        try:
            return self.prefixes.expand(token)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def scan_literal(self, position: str) -> Term:
        if position != "object":
            raise self.error("literals are only allowed in object position")
        # the N-Triples string scanner, so a query reads every escape the
        # serializer writes (\uXXXX included)
        scanner = _LineScanner(self.text, self.line)
        scanner.pos = self.pos
        try:
            lex = scanner.scan_string()
        except NTriplesParseError as exc:
            raise QuerySyntaxError(str(exc)) from None
        self.pos = scanner.pos
        if self.text.startswith("@", self.pos):
            self.pos += 1
            end = self.token_end()
            tag = self.text[self.pos:end]
            self.pos = end
            return literal(lex, language=tag)
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.text.startswith("<", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error("unterminated datatype IRI")
                datatype = self.text[self.pos + 1:end]
                self.pos = end + 1
            else:
                end = self.token_end()
                datatype = self.prefixes.resolve(self.text[self.pos:end])
                self.pos = end
            return literal(lex, datatype)
        return literal(lex)


def _parse_pattern_line(
    line: str, line_no: int, prefixes: PrefixMap, fresh: list[int]
) -> Pattern:
    sc = _PatternScanner(line, line_no, prefixes, fresh)
    s = sc.scan_term("subject")
    p = sc.scan_term("predicate")
    o = sc.scan_term("object")
    if isinstance(s, Term) and s.is_literal():
        raise sc.error("literal cannot be a subject")
    if isinstance(p, Term) and not p.is_iri():
        raise sc.error("predicate must be an IRI")
    if isinstance(p, Var) and p.blank:
        raise sc.error("predicate cannot be a blank variable")
    trailing = line[sc.pos:].strip()
    if trailing not in ("", "."):
        raise sc.error(f"trailing content: {trailing!r}")
    return (s, p, o)


def parse_query(text: str, prefixes: PrefixMap) -> Query:
    """Parse the textual mini-query format into a Query."""
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise QuerySyntaxError("empty query")
    fresh = [0]
    first_no, first = lines[0]
    if first.lower().startswith("select"):
        names = []
        for token in first[len("select"):].split():
            if not token.startswith("?"):
                raise QuerySyntaxError(f"line {first_no}: projection must list ?variables")
            names.append(token[1:])
        if not names:
            raise QuerySyntaxError(f"line {first_no}: empty projection")
        patterns = tuple(
            _parse_pattern_line(ln, no, prefixes, fresh) for no, ln in lines[1:]
        )
        if not patterns:
            raise QuerySyntaxError("query has no patterns")
        return Query("select", patterns, projection=tuple(names))
    if first.lower() == "construct":
        try:
            split = next(i for i, (_, ln) in enumerate(lines) if ln.lower() == "where")
        except StopIteration:
            raise QuerySyntaxError("construct query needs a 'where' line") from None
        template = tuple(
            _parse_pattern_line(ln, no, prefixes, fresh) for no, ln in lines[1:split]
        )
        patterns = tuple(
            _parse_pattern_line(ln, no, prefixes, fresh) for no, ln in lines[split + 1:]
        )
        if not template or not patterns:
            raise QuerySyntaxError("construct query needs template and where patterns")
        return Query("construct", patterns, template=template)
    patterns = tuple(_parse_pattern_line(ln, no, prefixes, fresh) for no, ln in lines)
    names = sorted({v.name for v in _pattern_vars(patterns) if not v.blank})
    if not names:
        raise QuerySyntaxError("query binds no named variables")
    return Query("select", patterns, projection=tuple(names))


def run_query(store: TripleStore, query: Query):
    if query.kind == "select":
        return select(store, query.patterns, list(query.projection))
    return construct(store, query.patterns, query.template)


# ---------------------------------------------------------------------------
# Navigation helpers

def _label_form(label: str) -> str:
    return " ".join(normalize_label(label)) or label.lower()


def _label_index(store: TripleStore) -> dict[int, list[tuple[str, tuple, list[str]]]]:
    """Distinct label forms grouped by length: (form, char counts, subject keys).

    Built once per frozen store and kept on it; an unfrozen store can
    change, so it gets a fresh index on every call.
    """
    if store.label_index is not None:
        return store.label_index
    keys_by_form: dict[str, set[str]] = {}
    for s, o in store.predicate_pairs(RDFS_LABEL):
        if o.is_literal():
            key = s.ntriples() if s.is_blank() else s.value
            keys_by_form.setdefault(_label_form(o.value), set()).add(key)
    index = {}
    for form, keys in sorted(keys_by_form.items()):
        index.setdefault(len(form), []).append((form, tuple(Counter(form).items()), sorted(keys)))
    if store.frozen:
        store.label_index = index
    return index


def check_lookup_k(k: int) -> None:
    """Reject a lookup result count below 1."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def fuzzy_lookup(store: TripleStore, name: str, k: int = 5) -> list[tuple[str, float]]:
    """Top-k labeled entities by edit-distance score against ``name``.

    Scores use the alignment formula over normalized label forms; ties
    break toward the lexicographically smaller IRI. Ingest mirrors all
    source names under rdfs:label, so the labels cover them all.

    The result is exact. Forms are visited by length, best length bound
    first, and a form is scored only if neither its length bound nor its
    character-count bound (Gravano et al. 2001, q = 1) is below the k-th
    best score so far; both bounds are at least the form's score.
    """
    check_lookup_k(k)
    probe = _label_form(name)
    lp = len(probe)
    probe_count = Counter(probe).get

    def length_bound(length: int) -> float:
        return 1.0 - abs(length - lp) / (max(length, lp) or 1)

    index = _label_index(store)
    best: dict[str, float] = {}
    kth = float("-inf")
    for length in sorted(index, key=length_bound, reverse=True):
        if length_bound(length) < kth:
            break
        longest = max(length, lp) or 1
        for form, counts, keys in index[length]:
            # the form's characters the probe lacks, and the probe's the form
            # lacks, each need an edit of their own
            extra = sum([n - probe_count(ch, 0) for ch, n in counts if n > probe_count(ch, 0)])
            if 1.0 - max(extra, lp - length + extra) / longest < kth:
                continue
            score = similarity(probe, form)
            for key in keys:
                if score > best.get(key, -1.0):
                    best[key] = score
            if score > kth and len(best) >= k:
                kth = heapq.nlargest(k, best.values())[-1]
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def _require_known(store: TripleStore, term: Term) -> None:
    if not store.count(s=term) and not store.count(o=term):
        raise UnknownEntityError(f"entity not in graph: {term.ntriples()}")


def lineage(store: TripleStore, taxon: Term) -> list[Term]:
    """Ancestors by transitive subClassOf, ordered leaf to root."""
    _require_known(store, taxon)
    out: list[Term] = []
    seen = {taxon}
    frontier = [taxon]
    while frontier:
        parents: set[Term] = set()
        for node in frontier:
            parents.update(store.objects(node, RDFS_SUBCLASSOF))
        parents -= seen
        frontier = sorted(parents, key=Term.ntriples)
        out.extend(frontier)
        seen.update(parents)
    return out


def siblings(store: TripleStore, taxon: Term) -> list[Term]:
    """Other direct children of the taxon's direct parents."""
    _require_known(store, taxon)
    out: set[Term] = set()
    for parent in store.objects(taxon, RDFS_SUBCLASSOF):
        out.update(store.subjects(RDFS_SUBCLASSOF, parent))
    out.discard(taxon)
    return sorted(out, key=Term.ntriples)
