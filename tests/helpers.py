"""Shared generators and independent oracles for the test suite.

Oracles here deliberately use naive algorithms (full scans, full DP
matrices, denotational set semantics) so they share no code paths with
the implementations they check.
"""

import ast
import builtins
import errno
import random
import string
from pathlib import Path

from ecokg.align import DEFAULT_STOP_WORDS
from ecokg.graph import Term, Triple, TripleStore, blank, iri, literal
from ecokg.ns import RDFS_LABEL
from ecokg.query import PathAlt, PathAtom, PathInverse, PathRepeat, PathSeq, Var

_WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi",
]


def random_iri(rng: random.Random) -> Term:
    return iri(f"http://example.org/{rng.choice(_WORDS)}/{rng.randrange(40)}")


def random_literal(rng: random.Random) -> Term:
    # U+0085, U+2028 and U+2029 are line breaks to str.splitlines() but
    # not to N-Triples, which writes them unescaped.
    pool = string.ascii_letters + string.digits + ' \t\n"\\é☃\x85\u2028\u2029'
    text = "".join(rng.choice(pool) for _ in range(rng.randrange(12)))
    roll = rng.random()
    if roll < 0.4:
        return literal(text)
    if roll < 0.7:
        return literal(text, "http://www.w3.org/2001/XMLSchema#string")
    return literal(text, language=rng.choice(["en", "no", "de-AT"]))


def random_term(rng: random.Random) -> Term:
    roll = rng.random()
    if roll < 0.6:
        return random_iri(rng)
    if roll < 0.8:
        return blank(f"b{rng.randrange(20)}")
    return random_literal(rng)


def random_triple(rng: random.Random) -> Triple:
    subject = blank(f"b{rng.randrange(20)}") if rng.random() < 0.2 else random_iri(rng)
    return Triple(subject, random_iri(rng), random_term(rng))


def random_store(rng: random.Random, max_triples: int = 60) -> TripleStore:
    store = TripleStore()
    for _ in range(rng.randrange(max_triples + 1)):
        store.add(random_triple(rng))
    return store


def triple_key(t: Triple) -> tuple[str, str, str]:
    """Reference triple order: subject, then predicate, then object text."""
    return (t.subject.ntriples(), t.predicate.ntriples(), t.object.ntriples())


def brute_force_match(store: TripleStore, s=None, p=None, o=None) -> list[Triple]:
    hits = [
        t
        for t in store
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
    return sorted(hits, key=triple_key)


def reference_plan_order(store: TripleStore, patterns) -> list:
    """The join order ``solve`` must fix, by the planner's first ranking loop.

    At every step each remaining pattern is ranked afresh from all its
    slots: positions bound (constants, or variables of earlier
    patterns), then distinct variables bound; only the tied are counted
    in the store by their constants, fewest first, then pattern order.
    """
    remaining = list(patterns)
    bound: set = set()
    order = []
    while remaining:
        ranks = [(sum(not isinstance(slot, Var) or slot in bound for slot in pat),
                  len(bound.intersection(pat))) for pat in remaining]
        top = max(ranks)
        tied = [pat for pat, rank in zip(remaining, ranks) if rank == top]
        if len(tied) > 1:
            tied.sort(key=lambda pat: store.count(*(None if isinstance(slot, Var) else slot for slot in pat)))
        pat = tied[0]
        remaining.remove(pat)
        order.append(pat)
        bound.update(slot for slot in pat if isinstance(slot, Var))
    return order


def reference_count_graph(store: TripleStore) -> tuple[int, int, int]:
    """Triples, relations and entities with literal objects set aside,
    from one (subject, object) pair list per predicate."""
    triples = relations = 0
    entities = set()
    for p in {t.predicate for t in store}:
        pairs = [(s, o) for s, o in store.predicate_pairs(p) if not o.is_literal()]
        if pairs:
            triples += len(pairs)
            relations += 1
            entities.update(*zip(*pairs))
    return triples, relations, len(entities)


def dp_levenshtein(a: str, b: str) -> int:
    """Full-matrix edit distance, the classic textbook recurrence."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def reference_normalize_label(label: str, stop_words=DEFAULT_STOP_WORDS) -> list[str]:
    """Label tokens by a character loop: every non-alphanumeric is a space."""
    cleaned = []
    for ch in label.lower():
        cleaned.append(ch if ch.isalnum() else " ")
    return [tok for tok in "".join(cleaned).split() if tok not in stop_words]


def reference_escape_literal(text: str) -> str:
    """N-Triples literal escaping by a character loop over the whole text."""
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    out = []
    for ch in text:
        if ch in named:
            out.append(named[ch])
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append("\\u%04X" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def reference_lookup(store: TripleStore, name: str) -> list[tuple[str, float]]:
    """Every labeled subject ranked against ``name`` by scoring every label.

    A subject's score is its best label's ``1 - distance/max(len)`` over
    normalized forms; ties go to the smaller key (IRI text, or ``_:label``).
    """
    def form(label: str) -> str:
        return " ".join(reference_normalize_label(label)) or label.lower()

    probe = form(name)
    scores: dict[str, float] = {}
    for t in store:
        if t.predicate != RDFS_LABEL or not t.object.is_literal():
            continue
        key = t.subject.ntriples() if t.subject.is_blank() else t.subject.value
        label_form = form(t.object.value)
        longest = max(len(probe), len(label_form))
        score = 1.0 - dp_levenshtein(probe, label_form) / longest if longest else 1.0
        scores[key] = max(score, scores.get(key, -1.0))
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


# ---------------------------------------------------------------------------
# Property-path denotational oracle

def _atom_pairs(store: TripleStore, predicate: Term) -> set[tuple[Term, Term]]:
    return {(t.subject, t.object) for t in store if t.predicate == predicate}


def _join(left: set, right: set) -> set:
    by_head: dict[Term, list[Term]] = {}
    for c, d in right:
        by_head.setdefault(c, []).append(d)
    return {(a, d) for a, b in left for d in by_head.get(b, ())}


def path_oracle(store: TripleStore, expr) -> set[tuple[Term, Term]]:
    """Set denotation of a path expression, computed naively.

    Unbounded repetition is expanded step by step up to
    low + |nodes(G)| compositions: any walk longer than that contains a
    removable cycle, so no new endpoint pairs appear beyond it.
    """
    nodes = store.terms()
    identity = {(n, n) for n in nodes}

    def denote(e) -> set[tuple[Term, Term]]:
        if isinstance(e, PathAtom):
            return _atom_pairs(store, e.predicate)
        if isinstance(e, PathInverse):
            return {(b, a) for a, b in denote(e.child)}
        if isinstance(e, PathSeq):
            return _join(denote(e.left), denote(e.right))
        if isinstance(e, PathAlt):
            return denote(e.left) | denote(e.right)
        if isinstance(e, PathRepeat):
            base = denote(e.child)
            high = e.high if e.high is not None else e.low + len(nodes)
            out = set() if e.low > 0 else set(identity)
            power = set(identity)
            for k in range(1, high + 1):
                power = _join(power, base)
                if k >= e.low:
                    out |= power
                if not power:
                    break
            return out
        raise TypeError(f"unknown path node: {e!r}")

    return denote(expr)


def accepts_empty(expr) -> bool:
    """Whether the path matches the zero-length walk.

    Asked of the oracle: a node with no edge under any path predicate is
    related to itself exactly when the empty walk is accepted.
    """
    loner = iri("http://example.org/loner")
    store = TripleStore()
    store.add(Triple(loner, iri("http://example.org/unused"), loner))
    return (loner, loner) in path_oracle(store, expr)


def random_path_expr(rng: random.Random, predicates: list[Term], depth: int = 3):
    """Random PathExpr tree over the given predicates."""
    if depth <= 0 or rng.random() < 0.35:
        return PathAtom(rng.choice(predicates))
    roll = rng.random()
    if roll < 0.25:
        return PathInverse(random_path_expr(rng, predicates, depth - 1))
    if roll < 0.5:
        return PathSeq(
            random_path_expr(rng, predicates, depth - 1),
            random_path_expr(rng, predicates, depth - 1),
        )
    if roll < 0.75:
        return PathAlt(
            random_path_expr(rng, predicates, depth - 1),
            random_path_expr(rng, predicates, depth - 1),
        )
    low = rng.randrange(0, 3)
    high = None if rng.random() < 0.3 else low + rng.randrange(0, 4)
    return PathRepeat(random_path_expr(rng, predicates, depth - 1), low, high)


def random_edge_graph(
    rng: random.Random, max_nodes: int = 30, max_edges: int = 60, n_predicates: int = 3
) -> tuple[TripleStore, list[Term]]:
    """Small multi-relation digraph for path evaluation tests."""
    store = TripleStore()
    n = rng.randrange(2, max_nodes + 1)
    nodes = [iri(f"http://example.org/n/{i}") for i in range(n)]
    predicates = [iri(f"http://example.org/p/{i}") for i in range(n_predicates)]
    for _ in range(rng.randrange(max_edges + 1)):
        store.add(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes)))
    return store, predicates


# ---------------------------------------------------------------------------
# Failing writes

class _HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_writes_in(monkeypatch, directory: Path) -> None:
    """Make every file opened for writing in ``directory`` fail partway."""
    real_open = builtins.open

    def flaky_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).parent == directory:
            return _HalfWriter(fh)
        return fh

    monkeypatch.setattr(builtins, "open", flaky_open)


def scoped_nodes(source: str) -> list[tuple[str, ast.AST]]:
    """(qualified name of the enclosing def or class, node) of every AST node of ``source``.

    Nodes outside any def or class report ``<module>``; a def's or class's
    own node reports the scope around it, and its body its own name.
    """
    nodes: list[tuple[str, ast.AST]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            nodes.append((scope, child))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return nodes
