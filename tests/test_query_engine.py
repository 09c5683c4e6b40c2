"""Path expressions, pattern joins, the text query format, navigation."""

import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecokg import ns, query
from ecokg.graph import PrefixMap, Term, Triple, TripleStore, blank, iri, literal
from ecokg.ntriples import parse as parse_ntriples
from ecokg.ntriples import serialize
from ecokg.query import (
    MAX_PATH_DEPTH,
    PathAlt,
    PathAtom,
    PathInverse,
    PathRepeat,
    PathSeq,
    PathSyntaxError,
    Query,
    QuerySyntaxError,
    UnboundProjectionError,
    UnboundTemplateError,
    UnknownEntityError,
    Var,
    _PatternScanner,
    construct,
    eval_path,
    fuzzy_lookup,
    lineage,
    parse_path,
    parse_query,
    run_query,
    select,
    siblings,
    solve,
)

import helpers
from helpers import accepts_empty, path_oracle, random_edge_graph, random_path_expr

PREFIXES = PrefixMap(ns.DEFAULT_PREFIXES)

P = PathAtom(iri("http://example.org/p"))
Q = PathAtom(iri("http://example.org/q"))


def edge_store(edges, predicate="http://example.org/p"):
    store = TripleStore(PREFIXES)
    for a, b in edges:
        store.add(
            Triple(
                iri(f"http://example.org/n/{a}"),
                iri(predicate),
                iri(f"http://example.org/n/{b}"),
            )
        )
    return store


EX = "http://example.org/"
COMPOUND, HAS_RESULT, ENDPOINT, LC50 = (iri(EX + name) for name in ("compound", "hasResult", "endpoint", "LC50"))


def node(name):
    return iri(f"http://example.org/n/{name}")


class TestParsePath:
    def test_alternative(self):
        got = parse_path("rdfs:label|foaf:name", PREFIXES)
        assert got == PathAlt(
            PathAtom(ns.RDFS_LABEL), PathAtom(iri(ns.FOAF + "name"))
        )

    def test_repetition(self):
        got = parse_path("rdfs:subClassOf{1,3}", PREFIXES)
        assert got == PathRepeat(PathAtom(ns.RDFS_SUBCLASSOF), 1, 3)

    def test_unbounded_repetition(self):
        got = parse_path("rdfs:subClassOf{2,}", PREFIXES)
        assert got == PathRepeat(PathAtom(ns.RDFS_SUBCLASSOF), 2, None)

    def test_inverse_then_sequence(self):
        got = parse_path("^rdf:type/rdfs:subClassOf", PREFIXES)
        assert got == PathSeq(
            PathInverse(PathAtom(ns.RDF_TYPE)), PathAtom(ns.RDFS_SUBCLASSOF)
        )

    def test_repeat_binds_tighter_than_inverse(self):
        got = parse_path("^rdfs:subClassOf{1,2}", PREFIXES)
        assert got == PathInverse(PathRepeat(PathAtom(ns.RDFS_SUBCLASSOF), 1, 2))

    def test_sequence_binds_tighter_than_alternative(self):
        got = parse_path("rdf:type/rdfs:label|foaf:name", PREFIXES)
        assert isinstance(got, PathAlt)
        assert isinstance(got.left, PathSeq)

    def test_parentheses_override(self):
        got = parse_path("rdf:type/(rdfs:label|foaf:name)", PREFIXES)
        assert isinstance(got, PathSeq)
        assert isinstance(got.right, PathAlt)

    def test_a_keyword_and_full_iri(self):
        got = parse_path("a/<http://example.org/p>", PREFIXES)
        assert got == PathSeq(PathAtom(ns.RDF_TYPE), P)

    def test_sequence_left_associative(self):
        got = parse_path("a/a/a", PREFIXES)
        assert got == PathSeq(PathSeq(PathAtom(ns.RDF_TYPE), PathAtom(ns.RDF_TYPE)), PathAtom(ns.RDF_TYPE))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "rdfs:label|",
            "(rdfs:label",
            "rdfs:label{3,1}",
            "rdfs:label{,3}",
            "rdfs:label{1 3}",
            "rdfs:label{1,3",
            "<http://unterminated",
            "nosuchprefix:x",
            "rdfs:label)",
            "<a b>",
        ],
    )
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(PathSyntaxError, match="position"):
            parse_path(bad, PREFIXES)

    @pytest.mark.parametrize("bound", ["\u0661", "\uff11", "\u0967"])
    def test_repetition_bounds_take_only_ascii_digits(self, bound):
        with pytest.raises(PathSyntaxError, match="^position 16: expected a number$"):
            parse_path(f"rdfs:subClassOf{{{bound},}}", PREFIXES)
        with pytest.raises(PathSyntaxError, match="expected a number$"):
            parse_path(f"rdfs:subClassOf{{1,{bound}}}", PREFIXES)

    @pytest.mark.parametrize(("text", "position"), [
        ("(" * 2000 + "a" + ")" * 2000, MAX_PATH_DEPTH + 1),
        ("^" * 2000 + "a", MAX_PATH_DEPTH + 1),
        ("/".join(["a"] * 3000), 2 * MAX_PATH_DEPTH + 1),
        ("|".join(["a"] * 3000), 2 * MAX_PATH_DEPTH + 1),
        ("a" + "{1,}" * 3000, 1 + 4 * MAX_PATH_DEPTH),
        ("(" * MAX_PATH_DEPTH + "a" + ")" * MAX_PATH_DEPTH, 2 * MAX_PATH_DEPTH),
    ], ids=["groups", "inverses", "sequence", "alternative", "repetitions", "one-group-too-many"])
    def test_too_deep_is_a_syntax_error(self, text, position):
        with pytest.raises(PathSyntaxError, match=f"^position {position}: path nested more than"):
            parse_path(text, PREFIXES)

    @pytest.mark.parametrize("text", [
        "(" * (MAX_PATH_DEPTH - 1) + "rdfs:subClassOf" + ")" * (MAX_PATH_DEPTH - 1),
        "^" * (MAX_PATH_DEPTH - 1) + "rdfs:subClassOf",
        "/".join(["rdfs:subClassOf"] * MAX_PATH_DEPTH),
        "|".join(["rdfs:subClassOf"] * MAX_PATH_DEPTH),
        "rdfs:subClassOf" + "{1,1}" * (MAX_PATH_DEPTH - 1),
        "^(" * (MAX_PATH_DEPTH // 2 - 2) + "rdfs:subClassOf/rdfs:subClassOf/rdfs:subClassOf/^rdfs:subClassOf"
        + ")" * (MAX_PATH_DEPTH // 2 - 2),
    ], ids=["groups", "inverses", "sequence", "alternative", "repetitions", "inverted-groups"])
    def test_deepest_paths_parse_and_evaluate(self, text):
        store = edge_store([(1, 2), (2, 3), (3, 1)], predicate=ns.RDFS + "subClassOf")
        expr = parse_path(text, PREFIXES)
        expected = {(a, b) for a, b in path_oracle(store, expr) if a == node(1)}
        assert eval_path(store, expr, node(1)) == expected


class TestEvalPath:
    def test_two_step_chain(self):
        # species -> genus -> root, one repetition covering both hops
        store = TripleStore(PREFIXES)
        species = iri(ns.NCBI + "taxon/687295")
        genus = iri(ns.NCBI + "taxon/513583")
        root = iri(ns.NCBI + "taxon/1")
        store.add(Triple(species, ns.RDFS_SUBCLASSOF, genus))
        store.add(Triple(genus, ns.RDFS_SUBCLASSOF, root))
        path = parse_path("rdfs:subClassOf{1,2}", PREFIXES)
        got = eval_path(store, path, start=species)
        assert got == {(species, genus), (species, root)}

    def test_repeat_once_is_atom(self):
        rng = random.Random(11)
        for _ in range(20):
            store, preds = random_edge_graph(rng)
            atom = PathAtom(preds[0])
            assert eval_path(store, PathRepeat(atom, 1, 1)) == eval_path(store, atom)

    def test_inverse_is_converse(self):
        store = edge_store([(1, 2), (2, 3)])
        assert eval_path(store, PathInverse(P)) == {
            (node(2), node(1)),
            (node(3), node(2)),
        }

    def test_sequence_composes(self):
        store = edge_store([(1, 2), (2, 3), (2, 4)])
        assert eval_path(store, PathSeq(P, P)) == {
            (node(1), node(3)),
            (node(1), node(4)),
        }

    def test_zero_minimum_includes_identity(self):
        store = edge_store([(1, 2)])
        got = eval_path(store, PathRepeat(P, 0, 1))
        assert (node(1), node(1)) in got
        assert (node(2), node(2)) in got
        assert (node(1), node(2)) in got

    def test_unbounded_repeat_on_cycle_terminates(self):
        store = edge_store([(1, 2), (2, 3), (3, 1)])
        got = eval_path(store, PathRepeat(P, 1, None))
        # every node reaches every node around the cycle
        expect = {(node(a), node(b)) for a in (1, 2, 3) for b in (1, 2, 3)}
        assert got == expect

    def test_start_restriction(self):
        store = edge_store([(1, 2), (3, 4)])
        assert eval_path(store, P, start=node(1)) == {(node(1), node(2))}

    def test_start_identity_for_absent_term(self):
        store = edge_store([(1, 2)])
        ghost = node(99)
        got = eval_path(store, PathRepeat(P, 0, None), start=ghost)
        assert got == {(ghost, ghost)}

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(60):
            store, preds = random_edge_graph(rng)
            expr = random_path_expr(rng, preds)
            assert eval_path(store, expr) == path_oracle(store, expr)

    def test_anchored_matches_oracle_on_random_graphs(self):
        rng = random.Random(5151)
        ghost = iri("http://example.org/ghost")
        for _ in range(300):
            store, preds = random_edge_graph(rng, max_nodes=12, max_edges=30)
            # close a cycle so unbounded repetition has to stop on revisits
            store.add(Triple(node(0), preds[0], node(1)))
            store.add(Triple(node(1), preds[0], node(0)))
            expr = random_path_expr(rng, preds)
            if rng.random() < 0.5:
                low = rng.randrange(0, 3)
                high = rng.choice([None, *range(max(low, 2), 5)])
                expr = PathRepeat(expr, low, high)
            whole = path_oracle(store, expr)
            empty = accepts_empty(expr)
            for n in sorted(store.terms() | {ghost}, key=Term.ntriples):
                expect = {(a, b) for a, b in whole if a == n}
                if empty:
                    expect.add((n, n))
                assert eval_path(store, expr, start=n) == expect, (expr, n)

    def test_anchored_never_builds_whole_relation(self, monkeypatch):
        store = edge_store([(1, 2), (2, 3), (3, 1), (3, 4)])
        store.add(Triple(node(4), Q.predicate, node(5)))

        def whole_graph(*args, **kwargs):
            raise AssertionError("anchored path read the whole graph")

        monkeypatch.setattr(TripleStore, "predicate_pairs", whole_graph)
        monkeypatch.setattr(TripleStore, "terms", whole_graph)
        assert eval_path(store, PathRepeat(P, 1, None), start=node(1)) == {
            (node(1), node(n)) for n in (1, 2, 3, 4)
        }
        assert eval_path(store, PathSeq(PathRepeat(P, 0, None), Q), start=node(2)) == {
            (node(2), node(5))
        }
        assert eval_path(store, PathRepeat(PathInverse(P), 2, 3), start=node(4)) == {
            (node(4), node(n)) for n in (1, 2)
        }
        ghost = node(99)
        assert eval_path(store, PathAlt(P, PathRepeat(Q, 0, 1)), start=ghost) == {(ghost, ghost)}

    @staticmethod
    def count_object_reads(monkeypatch, bound):
        """Make ``TripleStore.objects`` fail once it is called more than ``bound`` times."""
        real = TripleStore.objects
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            assert calls <= bound, "a subexpression was walked from one node twice"
            return real(*args)

        monkeypatch.setattr(TripleStore, "objects", counted)

    def test_nested_repetitions_evaluate_each_node_once_per_level(self, monkeypatch):
        # each {0,} level walks its child from a node once, not once per
        # enclosing level: on the 3-cycle the store reads stay at 9 however deep
        store = edge_store([(1, 2), (2, 3), (3, 1)], predicate=ns.RDFS + "subClassOf")
        expected = eval_path(store, parse_path("rdfs:subClassOf{0,}", PREFIXES), node(1))
        for levels in (10, MAX_PATH_DEPTH - 1):
            nested = parse_path("rdfs:subClassOf" + "{0,}" * levels, PREFIXES)
            with monkeypatch.context() as patch:
                self.count_object_reads(patch, 9)
                assert eval_path(store, nested, node(1)) == expected

    def test_right_nested_sequence_walks_each_node_once_per_level(self, monkeypatch):
        # p/(p/(p/...)) where every node has two p-successors: without a
        # memo per sequence the walk from one node doubles at every level
        nodes = 5
        store = edge_store([(a, (a + step) % nodes) for a in range(nodes) for step in (1, 2)])
        levels = MAX_PATH_DEPTH - 1
        nested = P
        for _ in range(levels - 1):
            nested = PathSeq(P, nested)
        # a walk of 63 steps of +1 or +2 reaches every residue mod 5
        expected = {(node(0), node(n)) for n in range(nodes)}
        self.count_object_reads(monkeypatch, nodes * levels)
        assert eval_path(store, nested, node(0)) == expected

    @staticmethod
    def record_starts(monkeypatch, path):
        """The set of nodes ``eval_path`` walks ``path`` from, filled as it runs."""
        real = query._ends
        starts = set()

        def recording(store, expr, node, forward, memo):
            if expr is path:
                starts.add(node)
            return real(store, expr, node, forward, memo)

        monkeypatch.setattr(query, "_ends", recording)
        return starts

    def test_unanchored_starts_only_where_a_walk_can_begin(self, monkeypatch):
        # p: 1 -> 2 -> 3; q: 3 -> 4 and 5 -> 6; node 7 has only a literal
        store = edge_store([(1, 2), (2, 3)])
        for a, b in ((3, 4), (5, 6)):
            store.add(Triple(node(a), Q.predicate, node(b)))
        store.add(Triple(node(7), iri(EX + "r"), literal("seven")))
        cases = [
            (PathSeq(P, Q), {1, 2}),
            (PathSeq(PathInverse(P), Q), {2, 3}),
            (PathRepeat(P, 1, None), {1, 2}),
            (PathSeq(PathRepeat(P, 0, 1), Q), {1, 2, 3, 5}),
            (PathAlt(P, PathInverse(Q)), {1, 2, 4, 6}),
            (PathInverse(PathSeq(P, Q)), {4, 6}),
        ]
        for path, bound in cases:
            with monkeypatch.context() as patch:
                starts = self.record_starts(patch, path)
                assert eval_path(store, path) == path_oracle(store, path), path
            assert starts <= {node(n) for n in bound}, path
        # a path that accepts the empty walk still pairs every term with itself
        assert (node(7), node(7)) in eval_path(store, PathSeq(PathRepeat(P, 0, None), PathRepeat(Q, 0, 1)))

    def test_unanchored_matches_oracle_and_starts_on_path_edges(self, monkeypatch):
        rng = random.Random(6161)
        loose = iri(EX + "loose")
        for _ in range(200):
            store, preds = random_edge_graph(rng, max_nodes=12, max_edges=30)
            for i in range(3):
                store.add(Triple(iri(f"{EX}loose/{i}"), loose, literal(str(i))))
            expr = random_path_expr(rng, preds)
            with monkeypatch.context() as patch:
                starts = self.record_starts(patch, expr)
                assert eval_path(store, expr) == path_oracle(store, expr), expr
            if not accepts_empty(expr):
                on_edges = {t for p in preds for pair in store.predicate_pairs(p) for t in pair}
                assert starts <= on_edges, expr

    def test_algebra_laws(self):
        rng = random.Random(99)
        for _ in range(20):
            store, preds = random_edge_graph(rng)
            p, q, r = (PathAtom(x) for x in preds)
            assert eval_path(store, PathAlt(p, q)) == eval_path(store, PathAlt(q, p))
            assert eval_path(store, PathAlt(p, p)) == eval_path(store, p)
            assert eval_path(store, PathSeq(PathSeq(p, q), r)) == eval_path(
                store, PathSeq(p, PathSeq(q, r))
            )
            assert eval_path(store, PathInverse(PathInverse(p))) == eval_path(store, p)

    def test_inverse_of_sequence_flips(self):
        store = edge_store([(1, 2)])
        store.add(Triple(node(2), iri("http://example.org/q"), node(3)))
        got = eval_path(store, PathInverse(PathSeq(P, Q)))
        assert got == {(node(3), node(1))}


def brute_force_solve(store, patterns):
    """Nested loops over the full triple list, no join ordering."""
    out = []

    def walk(idx, binding):
        if idx == len(patterns):
            out.append(dict(binding))
            return
        pat = patterns[idx]
        for t in store:
            trial = dict(binding)
            ok = True
            for slot, value in zip(pat, (t.subject, t.predicate, t.object)):
                if isinstance(slot, Var):
                    if trial.get(slot, value) != value:
                        ok = False
                        break
                    trial[slot] = value
                elif slot != value:
                    ok = False
                    break
            if ok:
                walk(idx + 1, trial)

    walk(0, {})
    unique = {
        tuple(sorted((v.name, v.blank, t.ntriples()) for v, t in b.items())): b
        for b in out
    }
    return list(unique.values())


def binding_set(bindings):
    return {
        tuple(sorted((v.name, v.blank, t.ntriples()) for v, t in b.items()))
        for b in bindings
    }


# A small term universe, so random patterns share variables, repeat one
# inside a pattern, and hit; the absent constants leave some queries empty.
JOIN_NODES = [iri(f"http://example.org/n/{i}") for i in range(3)] + [blank("b0")]
JOIN_PREDICATES = [iri("http://example.org/p"), iri("http://example.org/q")]
JOIN_OBJECTS = JOIN_NODES + [literal("v")]
JOIN_VARS = [Var("x"), Var("y"), Var("z"), Var("h", blank=True)]
ABSENT = iri("http://example.org/absent")

join_stores = st.lists(
    st.tuples(st.sampled_from(JOIN_NODES), st.sampled_from(JOIN_PREDICATES), st.sampled_from(JOIN_OBJECTS)),
    max_size=12,
)
join_patterns = st.tuples(
    st.sampled_from(JOIN_VARS + JOIN_NODES + [ABSENT]),
    st.sampled_from(JOIN_VARS[:3] + JOIN_PREDICATES + [ABSENT]),
    st.sampled_from(JOIN_VARS + JOIN_OBJECTS + [ABSENT, literal("w")]),
)


@st.composite
def join_queries(draw):
    """One to four patterns; sometimes the last repeats the first."""
    patterns = draw(st.lists(join_patterns, min_size=1, max_size=4))
    if len(patterns) > 1 and draw(st.booleans()):
        patterns[-1] = patterns[0]
    return patterns


class TestSolveSelect:
    def test_constant_pattern_is_membership(self):
        store = edge_store([(1, 2)])
        hit = [(node(1), P.predicate, node(2))]
        miss = [(node(1), P.predicate, node(3))]
        assert len(solve(store, hit)) == 1
        assert solve(store, miss) == []

    def test_var_is_a_tuple_record(self):
        assert Var.__hash__ is tuple.__hash__
        assert Var.__eq__ is tuple.__eq__
        assert Var("x") == Var("x", False) == Var(name="x", blank=False)
        assert Var("x") != Var("x", blank=True)
        assert {Var("x"): 1}[Var("x")] == 1
        assert repr(Var("x", blank=True)) == "Var(name='x', blank=True)"
        with pytest.raises(AttributeError):
            Var("x").name = "y"

    def test_three_pattern_join_matches_brute_force(self):
        rng = random.Random(2024)
        x, y, z = Var("x"), Var("y"), Var("z")
        for _ in range(30):
            store, preds = random_edge_graph(rng)
            p0 = preds[0]
            patterns = [(x, p0, y), (y, p0, z), (x, p0, z)]
            solved = solve(store, patterns)
            assert binding_set(solved) == binding_set(brute_force_solve(store, patterns))
            keys = [frozenset(binding.items()) for binding in solved]
            assert len(set(keys)) == len(keys)

    def test_blank_variables_join_but_do_not_project(self):
        store = edge_store([(1, 2), (2, 3)])
        b = Var("hop", blank=True)
        rows = select(store, [(Var("s"), P.predicate, b), (b, P.predicate, Var("o"))], ["s", "o"])
        assert rows == [(node(1), node(3))]
        with pytest.raises(UnboundProjectionError):
            select(store, [(Var("s"), P.predicate, b)], ["hop"])

    def test_unknown_projection_rejected(self):
        store = edge_store([(1, 2)])
        with pytest.raises(UnboundProjectionError):
            select(store, [(Var("s"), P.predicate, Var("o"))], ["nope"])

    def test_rows_sorted_and_distinct(self):
        store = edge_store([(2, 5), (1, 5), (3, 5)])
        rows = select(store, [(Var("s"), P.predicate, Var("o"))], ["o"])
        assert rows == [(node(5),)]
        rows = select(store, [(Var("s"), P.predicate, Var("o"))], ["s"])
        assert rows == [(node(1),), (node(2),), (node(3),)]

    def test_monotonicity(self):
        rng = random.Random(17)
        x, y = Var("x"), Var("y")
        for _ in range(10):
            store, preds = random_edge_graph(rng)
            patterns = [(x, preds[0], y)]
            before = set(select(store, patterns, ["x", "y"]))
            grown = TripleStore(PREFIXES)
            for t in store:
                grown.add(t)
            extra, _ = random_edge_graph(rng)
            for t in extra:
                grown.add(t)
            after = set(select(grown, patterns, ["x", "y"]))
            assert before <= after

    def test_literal_subject_rejected(self):
        store = edge_store([(1, 2)])
        with pytest.raises(ValueError):
            solve(store, [(literal("x"), P.predicate, Var("o"))])
        with pytest.raises(ValueError):
            solve(store, [(Var("s"), Var("p", blank=True), Var("o"))])

    def test_non_iri_predicate_rejected(self):
        store = edge_store([(1, 2)])
        with pytest.raises(ValueError, match="^pattern predicate must be an IRI$"):
            solve(store, [(Var("s"), literal("p"), Var("o"))])

    def test_language_tag_matching_is_exact(self):
        store = TripleStore(PREFIXES)
        place = iri("http://example.org/fjord")
        store.add(Triple(place, ns.RDFS_LABEL, literal("Oslofjorden", language="no")))
        hit = solve(store, [(Var("s"), ns.RDFS_LABEL, literal("Oslofjorden", language="no"))])
        miss = solve(store, [(Var("s"), ns.RDFS_LABEL, literal("Oslofjorden"))])
        assert len(hit) == 1 and miss == []


    def test_literal_bound_as_subject_joins_to_nothing(self):
        # ?l binds a literal, which the second pattern then uses as a subject
        store = TripleStore(PREFIXES)
        store.add(Triple(node(1), ns.RDFS_LABEL, literal("one")))
        s, lab = Var("s"), Var("l")
        patterns = [(s, ns.RDFS_LABEL, lab), (lab, ns.RDFS_LABEL, s)]
        assert select(store, patterns, ["s"]) == []

    @given(join_stores, join_queries())
    @example([(JOIN_NODES[0], JOIN_PREDICATES[0], JOIN_NODES[0])],
             [(Var("x"), JOIN_PREDICATES[0], Var("x"))] * 2)
    @settings(max_examples=400, deadline=None)
    def test_join_matches_brute_force(self, triples, patterns):
        store = TripleStore(PREFIXES)
        store.add_all(Triple(*t) for t in triples)
        solved = solve(store, patterns)
        assert binding_set(solved) == binding_set(brute_force_solve(store, patterns))
        assert len({frozenset(binding.items()) for binding in solved}) == len(solved)

    @given(join_stores, join_queries())
    @example([(JOIN_NODES[0], JOIN_PREDICATES[0], JOIN_NODES[1]), (JOIN_NODES[1], JOIN_PREDICATES[1], JOIN_NODES[2])],
             [(Var("x"), JOIN_PREDICATES[0], Var("y")), (Var("z"), JOIN_PREDICATES[1], Var("w", blank=True)),
              (Var("y"), JOIN_PREDICATES[1], Var("z"))])
    @settings(max_examples=400, deadline=None)
    def test_plan_order_matches_the_reference_ranking(self, triples, patterns):
        store = TripleStore(PREFIXES)
        store.add_all(Triple(*t) for t in triples)
        funnel = []
        solved = solve(store, patterns, funnel)
        order = [pat for pat, _ in funnel]
        assert order == helpers.reference_plan_order(store, patterns)
        assert binding_set(solved) == binding_set(brute_force_solve(store, patterns))
        # rows after each step: the distinct bindings of the patterns joined so far
        assert [rows for _, rows in funnel] == [
            len(brute_force_solve(store, order[:k])) for k in range(1, len(order) + 1)
        ]

    @staticmethod
    def effect_store(n):
        """``n`` tests over 7 chemicals, every other one with an LC50 result."""
        store = TripleStore(PREFIXES)
        for i in range(n):
            test, result = iri(f"{EX}test/{i}"), iri(f"{EX}result/{i}")
            store.add(Triple(test, COMPOUND, iri(f"{EX}chemical/{i % 7}")))
            store.add(Triple(test, HAS_RESULT, result))
            store.add(Triple(result, ENDPOINT, LC50 if i % 2 else iri(f"{EX}EC50")))
        return store

    @staticmethod
    def counted(monkeypatch):
        """The arguments of every ``TripleStore.count`` call from now on."""
        calls = []
        real = TripleStore.count

        def count(store, *args):
            calls.append(args)
            return real(store, *args)

        monkeypatch.setattr(TripleStore, "count", count)
        return calls

    def test_unanchored_join_counts_do_not_grow_with_the_graph(self, monkeypatch):
        # the join order is fixed before any row is read, so how often the
        # store is counted depends on the query, not on the rows it joins
        patterns = [(Var("t"), COMPOUND, Var("c")), (Var("t"), HAS_RESULT, Var("r")), (Var("r"), ENDPOINT, LC50)]
        calls = self.counted(monkeypatch)
        per_size = []
        for n in (40, 160):
            store = self.effect_store(n)
            calls.clear()
            assert len(select(store, patterns, ["c", "r"])) == n // 2
            per_size.append(len(calls))
        assert per_size[0] == per_size[1]

    def test_anchored_join_counts_only_the_tied_patterns(self, monkeypatch):
        # counting ?t hasResult ?r by its predicate alone would walk every test
        chemical = iri(f"{EX}chemical/3")
        patterns = [(Var("t"), COMPOUND, chemical), (Var("t"), HAS_RESULT, Var("r")), (Var("r"), ENDPOINT, LC50)]
        store = self.effect_store(40)
        calls = self.counted(monkeypatch)
        assert len(select(store, patterns, ["r"])) == 3
        assert len(calls) == 2 and set(calls) == {(None, COMPOUND, chemical), (None, ENDPOINT, LC50)}


class TestConstruct:
    def test_rewrites_pairs_to_sameas(self):
        store = TripleStore(PREFIXES)
        link = iri("http://example.org/pairedWith")
        store.add(Triple(iri(ns.ET + "chemical/877430"), link, iri(ns.WD + "Q1")))
        store.add(Triple(iri(ns.ET + "chemical/79061"), link, iri(ns.WD + "Q2")))
        out = construct(
            store,
            [(Var("x"), link, Var("y"))],
            [(Var("x"), ns.OWL_SAMEAS, Var("y"))],
        )
        assert len(out) == 2
        assert all(t.predicate == ns.OWL_SAMEAS for t in out)

    def test_empty_bindings_empty_store(self):
        store = edge_store([(1, 2)])
        out = construct(
            store,
            [(Var("x"), iri("http://example.org/none"), Var("y"))],
            [(Var("x"), ns.OWL_SAMEAS, Var("y"))],
        )
        assert len(out) == 0

    def test_unbound_template_variable_rejected(self):
        store = edge_store([(1, 2)])
        with pytest.raises(UnboundTemplateError):
            construct(
                store,
                [(Var("x"), P.predicate, Var("y"))],
                [(Var("x"), ns.OWL_SAMEAS, Var("z"))],
            )

    def test_construct_then_select_consistent(self):
        store = edge_store([(1, 2), (2, 3), (5, 6)])
        out = construct(
            store,
            [(Var("x"), P.predicate, Var("y"))],
            [(Var("y"), Q.predicate, Var("x"))],
        )
        direct = select(store, [(Var("x"), P.predicate, Var("y"))], ["y", "x"])
        via = select(out, [(Var("y"), Q.predicate, Var("x"))], ["y", "x"])
        assert direct == via

    def test_literal_subject_instance_skipped(self):
        store = TripleStore(PREFIXES)
        store.add(Triple(iri("http://example.org/a"), ns.RDFS_LABEL, literal("a")))
        s, lab = Var("s"), Var("l")
        out = construct(store, [(s, ns.RDFS_LABEL, lab)], [(lab, ns.RDFS_LABEL, s)])
        assert len(out) == 0

    def test_only_invalid_instances_skipped(self):
        store = TripleStore(PREFIXES)
        store.add(Triple(iri("http://example.org/a"), ns.RDFS_LABEL, literal("a")))
        s, lab = Var("s"), Var("l")
        out = construct(
            store,
            [(s, ns.RDFS_LABEL, lab)],
            [(s, lab, s), (lab, ns.RDFS_LABEL, s), (s, ns.RDF_VALUE, lab)],
        )
        assert frozenset(out) == {
            Triple(iri("http://example.org/a"), ns.RDF_VALUE, literal("a"))
        }

    def test_deduplicates(self):
        store = edge_store([(1, 2), (1, 3)])
        out = construct(
            store,
            [(Var("x"), P.predicate, Var("y"))],
            [(Var("x"), ns.RDF_TYPE, iri("http://example.org/Thing"))],
        )
        assert len(out) == 1


class TestParseQuery:
    def test_select_header(self):
        q = parse_query("select ?s ?o\n?s rdfs:label ?o .\n", PREFIXES)
        assert q.kind == "select"
        assert q.projection == ("s", "o")
        assert q.patterns == ((Var("s"), ns.RDFS_LABEL, Var("o")),)

    @pytest.mark.parametrize("header", ["SELECT ?s ?o", "Select\t?s ?o", "  select ?s  ?o  "])
    def test_select_header_in_any_case(self, header):
        assert parse_query(f"{header}\n?s rdfs:label ?o .", PREFIXES).projection == ("s", "o")

    def test_curie_prefix_starting_with_select_is_a_pattern(self):
        prefixes = PrefixMap({**ns.DEFAULT_PREFIXES, "selectors": "http://example.org/sel/"})
        q = parse_query("selectors:x a ?t .", prefixes)
        assert q.projection == ("t",)
        assert q.patterns == ((iri("http://example.org/sel/x"), ns.RDF_TYPE, Var("t")),)

    def test_bare_patterns_project_all_named_sorted(self):
        q = parse_query("?b rdfs:label ?a .\n_:x a ?b .", PREFIXES)
        assert q.kind == "select"
        assert q.projection == ("a", "b")

    def test_construct_where_form(self):
        text = "construct\n?x owl:sameAs ?y .\nwhere\n?x rdfs:seeAlso ?y .\n"
        q = parse_query(text, PREFIXES)
        assert q.kind == "construct"
        assert q.template == ((Var("x"), ns.OWL_SAMEAS, Var("y")),)
        assert q.patterns == ((Var("x"), iri(ns.RDFS + "seeAlso"), Var("y")),)

    def test_lines_split_at_newline_only(self):
        # the serializer writes U+2028 and U+0085 raw, so a query may hold them too
        q = parse_query('?s rdfs:label "a\u2028b\u0085c" .\r\n?s a ?t .\r\n', PREFIXES)
        assert q.patterns == (
            (Var("s"), ns.RDFS_LABEL, literal("a\u2028b\u0085c")),
            (Var("s"), ns.RDF_TYPE, Var("t")),
        )

    def test_comments_and_blanks_skipped(self):
        q = parse_query("# a comment\n\n?s a ?t .\n", PREFIXES)
        assert len(q.patterns) == 1

    @pytest.mark.parametrize("unspaced,spaced", [
        ("?s a et:Taxon.", "?s a et:Taxon ."),
        ("?s a ?t.", "?s a ?t ."),
        ("?s rdfs:seeAlso _:b.", "?s rdfs:seeAlso _:b ."),
        ('?s rdfs:label "x"@en.', '?s rdfs:label "x"@en .'),
        ('?s rdfs:label "1"^^xsd:decimal.', '?s rdfs:label "1"^^xsd:decimal .'),
    ])
    def test_closing_dot_ends_the_last_token(self, unspaced, spaced):
        assert parse_query(unspaced, PREFIXES) == parse_query(spaced, PREFIXES)

    def test_glued_anonymous_blank_reads_as_spaced(self):
        assert parse_query("[]a ?t", PREFIXES) == parse_query("[] a ?t", PREFIXES)

    def test_lone_dot_is_a_missing_object(self):
        with pytest.raises(QuerySyntaxError, match="missing object"):
            parse_query("?s a .", PREFIXES)

    def test_anonymous_blank_fresh_per_occurrence(self):
        q = parse_query("?s rdfs:seeAlso [] .\n?t rdfs:seeAlso [] .", PREFIXES)
        blanks = {slot for pat in q.patterns for slot in pat if isinstance(slot, Var) and slot.blank}
        assert len(blanks) == 2

    def test_labeled_blank_joins_across_lines(self):
        q = parse_query("?s rdfs:seeAlso _:r .\n_:r rdfs:label ?l .", PREFIXES)
        assert q.patterns[0][2] == q.patterns[1][0] == Var("r", blank=True)

    def test_literal_forms(self):
        q = parse_query(
            'select ?s\n'
            '?s rdfs:label "Oslofjorden"@no .\n'
            '?s rdf:value "12.5"^^xsd:decimal .\n'
            '?s rdfs:comment "a\\nb" .\n'
            '?s rdf:value "7"^^<http://www.w3.org/2001/XMLSchema#integer> .',
            PREFIXES,
        )
        objects = [pat[2] for pat in q.patterns]
        assert objects[0] == literal("Oslofjorden", language="no")
        assert objects[1] == literal("12.5", ns.XSD_DECIMAL)
        assert objects[2] == literal("a\nb")
        assert objects[3] == literal("7", ns.XSD + "integer")

    def test_serialized_control_character_is_matchable(self):
        # the serializer writes U+0001 as \u0001; a query must read it back
        store = TripleStore(PREFIXES)
        store.add(Triple(node(1), ns.RDFS_LABEL, literal("a\x01b")))
        text = serialize(store)
        assert '"a\\u0001b"' in text
        reloaded = parse_ntriples(text)
        q = parse_query('select ?x\n?x rdfs:label "a\\u0001b" .', PREFIXES)
        assert run_query(reloaded, q) == [(node(1),)]

    def test_literal_escape_takes_only_hex_digits(self):
        with pytest.raises(QuerySyntaxError, match=r"^line 1: bad \\u escape: '\+041'$"):
            parse_query('?x rdfs:label "\\u+041" .', PREFIXES)

    @pytest.mark.parametrize(
        ("bad", "needle"),
        [
            ("", "empty"),
            ("select ?s\n", "no patterns"),
            ("select s\n?s a ?t .", "line 1"),
            ("select\n?s a ?t .", "empty projection"),
            ("select ?\n?s a ?t .", "^line 1: empty variable name$"),
            ("construct\n?x a ?y .\n", "where"),
            ('"lit" rdfs:label ?o .', "line 1"),
            ("?s ?p ?o extra .", "trailing"),
            ("?s _:p ?o .", "blank"),
            ("?s nosuch:p ?o .", "line 1"),
            ('?s rdfs:label "open .', "unterminated"),
            ("?s rdfs:label ?o\n?x a .", "line 2"),
            ("?s <a b> ?o .", "line 1: invalid IRI"),
            ('?s rdfs:label "x"^^<a b> .', "line 1: invalid IRI"),
            ('?s rdfs:label "x"@e_n .', "line 1: trailing content"),
            ('?s rdfs:label "x"@', "line 1: invalid language tag"),
            ('?s rdfs:label "x"^^nope:dt .', "line 1: unknown prefix"),
            ('?s rdfs:label "x"^^/ .', "line 1: not a curie"),
            ("<a><b> ?p ?o", "line 1: trailing content: '\\?o'"),
            ("?s a ?t ; ?x", "line 1: trailing content: '; \\?x'"),
            ("?s?p ?o", "line 1: missing object"),
            ("?s a ?.", "line 1: empty variable name"),
            ("?s a _:.", "line 1: empty blank label"),
            ("?s [] ?o", "line 1: predicate cannot be a blank variable"),
            ("<a>b ?p ?o", "line 1: not a curie: 'b'"),
            ("?s a <x>. .", "line 1: trailing content: '. .'"),
            ("?s a <> .", "line 1: invalid IRI: ''"),
            # a name cannot end in '.'
            ("?s a ?t. .", "line 1: trailing content: '. .'"),
            ("?s a ?t..", "line 1: trailing content: '..'"),
            ("?s. a ?t", "line 1: missing predicate"),
            ("_:b. a ?t", "line 1: missing predicate"),
            ("?s a et:x..", "line 1: trailing content: '..'"),
            ("construct\n?x a ?y .\nwhere\n", "^construct query needs template and where patterns$"),
            ("construct\nwhere\n?x a ?y .", "^construct query needs template and where patterns$"),
            ("<a> a <b> .", "^query binds no named variables$"),
            ("_:s a [] .\n[] a _:s .", "^query binds no named variables$"),
        ],
    )
    def test_errors(self, bad, needle):
        with pytest.raises(QuerySyntaxError, match=needle):
            parse_query(bad, PREFIXES)

    def test_run_query_dispatch(self):
        store = edge_store([(1, 2)])
        # bare patterns project all named variables in sorted order
        rows = run_query(store, parse_query("?s <http://example.org/p> ?o .", PREFIXES))
        assert rows == [(node(2), node(1))]
        out = run_query(
            store,
            parse_query(
                "construct\n?o <http://example.org/q> ?s .\nwhere\n?s <http://example.org/p> ?o .",
                PREFIXES,
            ),
        )
        assert isinstance(out, TripleStore) and len(out) == 1


# Words of the query and path syntaxes, built from their characters and
# tokens, and the separators between words: whitespace beyond space and
# tab, and the lines that open a query.
SYNTAX_PIECES = [
    "<", ">", '"x"', "@", "^^", "?s", "a", "{", ",", "}", "1", "²", "/", "|", "^", "(", ")", "_:b", "[]",
    ".", ":", "\\", "\x0b", "é", "rdfs:label", "nope:x", "xsd:decimal", "\\u0041", "<http://example.org/p>",
]
SEPARATORS = [" ", "\t", "\n", "\u2028", "select ?s\n", "construct\n", "where\n"]
syntax_words = st.lists(st.sampled_from(SYNTAX_PIECES), min_size=1, max_size=4).map("".join)
syntax_texts = st.lists(st.tuples(st.sampled_from(SEPARATORS), syntax_words), max_size=4).map(
    lambda pairs: "".join(sep + word for sep, word in pairs)
)


# Quote-free pattern lines: words of plain and other shapes, glued or
# split by Unicode whitespace, with a closing '.' glued or spaced.
LINE_WORDS = [
    "?v", "?w.", "?", "_:b", "_:", "[]", "[]a", "a", "a.", "rdfs:label", "xsd:decimal.", "nope:x", "x",
    "<http://example.org/p>", "<http://example.org/q>.", "<a><b>", "<a>b", "<>", "<a", "<ab", ".", "..", ";",
    "[]x:y",
]
# a prefix label may start with "[]", yet a line's "[]" is always a blank
LINE_PREFIXES = PrefixMap({**ns.DEFAULT_PREFIXES, "[]x": "http://example.org/odd/"})
LINE_SEPARATORS = ["", " ", "  ", "\t", "\xa0", "\u2028", "\x1c"]
pattern_lines = st.builds(
    lambda pairs, end: "".join(sep + word for sep, word in pairs) + end,
    st.lists(st.tuples(st.sampled_from(LINE_SEPARATORS), st.sampled_from(LINE_WORDS)), max_size=5),
    st.sampled_from(LINE_SEPARATORS),
)


def pattern_outcome(read, line):
    """The pattern ``read`` returns for ``line``, or its syntax error's message."""
    try:
        return read(line, 3)
    except QuerySyntaxError as exc:
        return str(exc)


class TestSplitPatternLines:
    @given(pattern_lines)
    @example("?s a ?t.")
    @example("?s\ta\xa0?t\u2028.")
    @example("[]a ?t")
    @example("?s a ?t. .")
    @example("<a><b> ?p ?o")
    @example("[]x:y a ?t")
    @example("?s _:b ?o")
    @settings(max_examples=500, deadline=None)
    def test_split_path_reads_what_the_scanner_reads(self, line):
        split, scanner = _PatternScanner(LINE_PREFIXES), _PatternScanner(LINE_PREFIXES)
        assert pattern_outcome(split.pattern, line) == pattern_outcome(scanner.scan_pattern, line)
        assert split.fresh == scanner.fresh

    @pytest.mark.parametrize("line", [
        "?t et:compound <https://cfpub.epa.gov/ecotox/chemical/50000>",
        "?t et:hasResult ?r .",
        "_:r\ta\u2028et:LC50.",
    ])
    def test_plain_lines_skip_the_scanner(self, line, monkeypatch):
        monkeypatch.setattr(_PatternScanner, "scan_pattern", None)
        assert len(_PatternScanner(PREFIXES).pattern(line, 1)) == 3


class TestSyntaxErrorsOnly:
    @given(syntax_texts)
    @example("<>")
    @example('?s rdfs:label "x"@')
    @example("a{²,}")
    @settings(max_examples=300, deadline=None)
    def test_malformed_text_raises_only_syntax_errors(self, text):
        try:
            parse_query(text, PREFIXES)
        except QuerySyntaxError:
            pass
        try:
            parse_path(text, PREFIXES)
        except PathSyntaxError:
            pass


class TestEffectQuery:
    """The endemic-species effect lookup over the built fixture graph."""

    QUERY = """
select ?s ?c ?conc ?concunit
?s eol:endemicTo _:r .
_:r rdfs:label "Oslofjorden"@no .
_:b a et:Test .
_:b et:species ?s .
_:b et:compound ?c .
_:b et:hasResult _:res .
_:res et:endpoint et:LC50 .
_:res et:effectType et:ACUTE .
_:res et:concentration _:conc .
_:conc rdf:value ?conc .
_:conc unit:units ?concunit .
"""

    def test_two_species_two_rows(self, pipeline_dir):
        store = parse_ntriples((pipeline_dir / "kg.nt").read_text(), PREFIXES)
        rows = run_query(store, parse_query(self.QUERY, PREFIXES))
        assert rows == [
            (
                iri(ns.ET + "taxon/26812"),
                iri(ns.ET + "chemical/115866"),
                literal("12.5", ns.XSD_DECIMAL),
                iri(ns.ET + "MilligramPerLiter"),
            ),
            (
                iri(ns.ET + "taxon/5156"),
                iri(ns.ET + "chemical/877430"),
                literal("400", ns.XSD_DECIMAL),
                iri(ns.ET + "MilligramPerKilogramDiet"),
            ),
        ]

    def test_chronic_rows_excluded(self, pipeline_dir):
        # the 3.1 mg/L result on the same test is CHRONIC; requiring
        # ACUTE must keep it out
        store = parse_ntriples((pipeline_dir / "kg.nt").read_text(), PREFIXES)
        rows = run_query(store, parse_query(self.QUERY, PREFIXES))
        values = {row[2].value for row in rows}
        assert "3.1" not in values


# Label text whose form lands in each lane width: empty, 1-7 characters
# (8 bits), 8-63 (16 to 64 bits) and 64 on (128 bits and up). U+0000, a
# lone surrogate and spaces split tokens; a label of no letters is kept whole.
lookup_labels = st.one_of(st.just(0), st.integers(1, 7), st.integers(8, 63), st.integers(64, 80)).flatmap(
    lambda n: st.lists(st.sampled_from(("a", "b", "é", " ", "\0", "\ud800")), min_size=n, max_size=n)
).map("".join)


class TestFuzzyLookup:
    def build(self):
        store = TripleStore(PREFIXES)
        names = {
            "http://example.org/t/1": "Coleophora cornella",
            "http://example.org/t/2": "Coleophora cornelia",
            "http://example.org/t/3": "Danio rerio",
        }
        for subject, name in names.items():
            store.add(Triple(iri(subject), ns.RDFS_LABEL, literal(name)))
        return store

    def test_exact_match_first(self):
        got = fuzzy_lookup(self.build(), "Coleophora cornella", k=3)
        assert got[0] == ("http://example.org/t/1", 1.0)
        assert got[1][0] == "http://example.org/t/2"

    def test_k_larger_than_population(self):
        got = fuzzy_lookup(self.build(), "anything", k=50)
        assert len(got) == 3

    def test_ranking_matches_brute_force(self):
        from ecokg.align import normalize_label, similarity

        store = self.build()
        probe = "coleophora cornelXa"
        got = fuzzy_lookup(store, probe, k=3)
        norm = " ".join(normalize_label(probe))
        scores = {}
        for t in store.match(p=ns.RDFS_LABEL):
            form = " ".join(normalize_label(t.object.value))
            s = similarity(norm, form)
            prev = scores.get(t.subject.value)
            if prev is None or s > prev:
                scores[t.subject.value] = s
        expect = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        assert got == expect

    def test_tie_breaks_to_smaller_iri(self):
        store = TripleStore(PREFIXES)
        store.add(Triple(iri("http://example.org/b"), ns.RDFS_LABEL, literal("same")))
        store.add(Triple(iri("http://example.org/a"), ns.RDFS_LABEL, literal("same")))
        got = fuzzy_lookup(store, "same", k=2)
        assert [g[0] for g in got] == ["http://example.org/a", "http://example.org/b"]

    def test_tie_order_with_blank_subjects(self):
        # Blank subjects rank by their N-Triples text among the IRIs.
        store = TripleStore(PREFIXES)
        for subject in (blank("b2"), iri("http://example.org/z"), blank("b10"),
                        iri("http://example.org/a")):
            store.add(Triple(subject, ns.RDFS_LABEL, literal("same")))
        store.add(Triple(blank("b2"), ns.RDFS_LABEL, literal("other")))
        got = fuzzy_lookup(store, "same", k=4)
        assert got == [("_:b10", 1.0), ("_:b2", 1.0),
                       ("http://example.org/a", 1.0), ("http://example.org/z", 1.0)]

    def test_k_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                fuzzy_lookup(self.build(), "Danio rerio", k)

    @staticmethod
    def labeled(*pairs):
        store = TripleStore(PREFIXES)
        for subject, label in pairs:
            store.add(Triple(iri(f"http://example.org/{subject}"), ns.RDFS_LABEL, literal(label)))
        return store

    def test_kth_tie_in_a_shorter_length_group(self):
        # "abcx" scores 0.75 first; the length-3 group's bound is exactly
        # 0.75, so it must still be visited for "a" to win the tie
        store = self.labeled(("z", "abcx"), ("a", "abc"))
        assert fuzzy_lookup(store, "abcd", k=1) == [("http://example.org/a", 0.75)]

    def test_kth_tie_within_a_length_group(self):
        # "abcx" and "abcy" share a lane group and both score exactly the
        # k-th score; the tie goes to the smaller key
        store = self.labeled(("z", "abcx"), ("a", "abcy"))
        assert fuzzy_lookup(store, "abcd", k=1) == [("http://example.org/a", 0.75)]

    def test_lone_surrogate_label(self):
        # a label of no word characters keeps its lowercased text as its
        # form, and N-Triples can spell a lone surrogate as \uD800
        store = parse_ntriples(
            '<http://example.org/a> <http://www.w3.org/2000/01/rdf-schema#label> "\\uD800!" .\n'
        )
        assert fuzzy_lookup(store, "\ud800?", k=1) == [("http://example.org/a", 0.5)]

    def test_equals_scoring_every_label_on_random_stores(self):
        rng = random.Random(83)
        subjects = [iri(f"http://example.org/s/{i}") for i in range(10)]
        subjects += [blank(f"b{i}") for i in range(3)]
        stems = ["abc", "abd", "bca", "cab", "abcab", "ba"]

        def label(rng):
            roll = rng.random()
            if roll < 0.1:
                return rng.choice(["the", "!!", "", "The Sp.", "a-b c"])
            text = rng.choice(stems)
            for _ in range(rng.randrange(3)):
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice("abc ") + text[i + 1:]
            return text if roll < 0.8 else text.upper() + " " + rng.choice(stems)

        for trial in range(300):
            store = TripleStore(PREFIXES)
            for _ in range(rng.randrange(1, 25)):
                subject = rng.choice(subjects)
                roll = rng.random()
                if roll < 0.1:
                    obj = rng.choice(subjects[:10])  # a label that is no literal
                elif roll < 0.2:
                    obj = literal(label(rng), language="en")
                else:
                    obj = literal(label(rng))
                store.add(Triple(subject, ns.RDFS_LABEL, obj))
            self.assert_matches_reference(store, [label(rng) for _ in range(3)])

    @staticmethod
    def assert_matches_reference(store, probes):
        """Unfrozen, then frozen: every k agrees with scoring every label."""
        expected = [(probe, helpers.reference_lookup(store, probe)) for probe in probes]
        for frozen in (False, True):
            if frozen:
                store.freeze()
            for probe, expect in expected:
                for k in (1, 2, 5, 50):
                    assert fuzzy_lookup(store, probe, k) == expect[:k], (probe, k)

    def test_form_lengths_at_every_lane_width_edge(self):
        # Lanes are 8, 16, 24, ..., 64, then 128 and 256 bits wide: lengths
        # on both sides of each edge, runs of one letter (the longest
        # carries) and near copies of the stored labels as probes.
        rng = random.Random(89)
        lengths = (0, 1, 7, 8, 15, 16, 23, 24, 31, 32, 47, 48, 63, 64, 127, 128, 200)

        def word(n):
            if rng.random() < 0.3:
                return rng.choice("abé") * n
            return "".join(rng.choice("abcé") for _ in range(n))

        for _ in range(6):
            labels = [word(n) for n in lengths for _ in range(2)]
            store = TripleStore(PREFIXES)
            for text in labels:
                subject = iri(f"http://example.org/{rng.randrange(20)}")
                store.add(Triple(subject, ns.RDFS_LABEL, literal(text)))
            probes = [word(rng.choice(lengths)) for _ in range(2)]
            for text in rng.sample(labels, 4):
                edits = list(text)
                for _ in range(rng.randrange(3)):
                    if edits:
                        edits[rng.randrange(len(edits))] = rng.choice("abcé")
                probes.append("".join(edits))
            self.assert_matches_reference(store, probes)

    def test_non_ascii_labels(self):
        store = self.labeled(
            ("1", "Øresund ål"), ("2", "Ærø"), ("3", "жук-олень"), ("4", "Straße"),
            ("5", "☃"), ("6", "\U0001d538\U0001d539 \U0001d53b"), ("7", "oresund al"),
            ("8", "\0 !"),  # kept whole: no alphanumeric token
        )
        got = fuzzy_lookup(store, "Oresund ål", k=2)
        assert got == [("http://example.org/1", 0.9), ("http://example.org/7", 0.9)]
        self.assert_matches_reference(
            store, ["Øresund ål", "zhuk", "жук олень", "strasse", "☃☃", "\U0001d538\U0001d539", "é", "\0"]
        )

    def test_empty_probe_and_probe_longer_than_every_form(self):
        store = self.labeled(("a", ""), ("b", "ab"), ("c", "abc d"), ("d", "x" * 40))
        assert fuzzy_lookup(store, "", k=2) == [("http://example.org/a", 1.0), ("http://example.org/b", 0.0)]
        self.assert_matches_reference(store, ["", "!!", "ab" * 150, "x" * 41 + "y" * 200])

    def test_k_larger_than_the_subjects(self):
        store = self.labeled(("a", "alpha"), ("b", "beta"), ("b", "bet"), ("c", "gamma"))
        got = fuzzy_lookup(store, "alpah", k=40)
        assert [key for key, _ in got] == [
            "http://example.org/a", "http://example.org/b", "http://example.org/c"
        ]
        self.assert_matches_reference(store, ["alpah", "bta", ""])

    def test_one_subject_in_several_length_groups(self):
        # "m"'s best label (0.75) is in the length-6 group, visited after
        # the length-8 group where its label scores 0.625
        store = self.labeled(
            ("m", "abcdezzz"), ("m", "abcdef"), ("m", "ab"), ("n", "abcdefgx"), ("o", "qqqqqqqq")
        )
        got = fuzzy_lookup(store, "abcdefgh", k=2)
        assert got == [("http://example.org/n", 0.875), ("http://example.org/m", 0.75)]
        self.assert_matches_reference(store, ["abcdefgh", "ab", "abcdefzz", "qq"])

    def test_kth_tie_across_two_length_groups(self):
        # k = 2: "abxd" sets the k-th score 0.75 in the length-4 group; "abc"
        # ties it in the length-3 group and wins on its smaller key
        store = self.labeled(("z1", "abcd"), ("z2", "abxd"), ("a3", "abc"))
        assert fuzzy_lookup(store, "abcd", k=2) == [
            ("http://example.org/z1", 1.0), ("http://example.org/a3", 0.75)
        ]
        self.assert_matches_reference(store, ["abcd", "abc", "abxd"])

    def test_kth_tie_between_two_lengths_in_one_lane_width(self):
        # lengths 11, 12 and 13 share the 16-bit width, ranked 12, 13, 11:
        # the k-th score 1 - 1/12 is set at length 12 and tied at length 11
        store = self.labeled(("z", "abcdefghijkx"), ("m", "abcdefghijklm"), ("a", "abcdefghijk"))
        assert fuzzy_lookup(store, "abcdefghijkl", k=2) == [
            ("http://example.org/m", 1 - 1 / 13), ("http://example.org/a", 1 - 1 / 12)
        ]
        self.assert_matches_reference(store, ["abcdefghijkl", "abcdefghijk", "abcdefghijklmn"])

    def test_kth_tie_across_four_lengths(self):
        # against the 12-letter probe, 0.75 is distance 3 at lengths 9, 11
        # and 12 and distance 4 at length 16; the tied length popped last
        # holds the smallest key. "m" scores 0.5 in the length-12 run,
        # whose best level pops first, and 1 - 1/13 in the length-13 run
        store = self.labeled(
            ("t4", "abcdefghi"), ("t3", "abcdefghixy"), ("t2", "abcdefghixyz"), ("t1", "abcdefghijklwxyz"),
            ("a", "abcdefghijkl"), ("b", "abcdefghijkx"), ("m", "abcdefxxxxxx"), ("m", "abcdefghijklm"),
        )
        ex = "http://example.org/"
        assert fuzzy_lookup(store, "abcdefghijkl", k=4) == [
            (f"{ex}a", 1.0), (f"{ex}m", 1 - 1 / 13), (f"{ex}b", 1 - 1 / 12), (f"{ex}t1", 0.75)
        ]
        expect = helpers.reference_lookup(store, "abcdefghijkl")
        assert [score for _, score in expect[3:]] == [0.75] * 4
        for k in range(1, 7):
            assert fuzzy_lookup(store, "abcdefghijkl", k) == expect[:k], k

    def test_one_lane_counts_call_per_lookup(self, monkeypatch):
        # forms of every length from 1 to 40 fill the 8- to 48-bit widths
        rng = random.Random(97)
        store = self.labeled(*((f"s{n}", "".join(rng.choice("bcdf") for _ in range(n)))
                               for n in range(1, 41)))
        store.freeze()
        real = query.lane_counts
        calls = []
        monkeypatch.setattr(query, "lane_counts", lambda *args: calls.append(args) or real(*args))
        for probe in ("bcdfbcdfbc", "b", "d" * 40, "bcdf" * 6):
            expect = helpers.reference_lookup(store, probe)
            for k in (1, 5):
                calls.clear()
                assert fuzzy_lookup(store, probe, k) == expect[:k], (probe, k)
                assert len(calls) == 1, (probe, k)
        calls.clear()
        assert fuzzy_lookup(self.labeled(), "b", 1) == []
        assert calls == []

    def test_funnel_counts_passes_and_their_lanes(self, monkeypatch):
        rng = random.Random(101)
        store = self.labeled(*((f"s{n}", "".join(rng.choice("bcdf") for _ in range(n % 40 + 1)))
                               for n in range(120)))
        store.freeze()
        (mask, *_), keys, _ = query._label_index(store)
        real = query.lane_counts
        masks = []
        monkeypatch.setattr(query, "lane_counts", lambda pack, text: masks.append(pack[0]) or real(pack, text))
        for probe in ("bcdfbcdfbc", "b", "d" * 40, "bcdf" * 6, ""):
            for k in (1, 5, 200):
                masks.clear()
                funnel = {}
                assert fuzzy_lookup(store, probe, k, funnel) == helpers.reference_lookup(store, probe)[:k]
                # one pass scans every distinct form; the ranking reads the keys of some of them
                assert masks == [mask], (probe, k)
                ranked = funnel["ranked"]
                assert funnel == {"passes": 1, "lanes": len(keys), "ranked": ranked}, (probe, k)
                assert 0 < len(keys) < 120 and 0 < ranked <= len(keys), (probe, k)
        funnel = {}
        assert fuzzy_lookup(self.labeled(), "b", 5, funnel) == []
        assert funnel == {"passes": 0, "lanes": 0, "ranked": 0}

    @given(st.lists(st.tuples(st.integers(0, 5), lookup_labels), max_size=10), lookup_labels)
    @example([(0, ""), (1, "ab\0ba"), (2, "b" * 8), (3, "\ud800\0" * 33)], "ab")
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_on_labels_of_every_lane_width(self, labels, probe):
        store = self.labeled(*((f"s{i}", label) for i, label in labels))
        subjects = len({i for i, _ in labels})
        expect = helpers.reference_lookup(store, probe)
        for frozen in (False, True):
            if frozen:
                store.freeze()
            for k in range(1, subjects + 2):
                assert fuzzy_lookup(store, probe, k) == expect[:k], (frozen, k)

    def test_frozen_store_reads_its_labels_once(self, monkeypatch):
        reads = []
        real = TripleStore.predicate_pairs

        def counted(store, p):
            reads.append(p)
            return real(store, p)

        monkeypatch.setattr(TripleStore, "predicate_pairs", counted)
        store = self.build()
        store.freeze()
        first = fuzzy_lookup(store, "Danio rerio", k=1)
        second = fuzzy_lookup(store, "Coleophora cornella", k=2)
        assert reads == [ns.RDFS_LABEL]
        assert first == [("http://example.org/t/3", 1.0)]
        assert [key for key, _ in second] == ["http://example.org/t/1", "http://example.org/t/2"]

    def test_unfrozen_store_sees_labels_added_after_a_lookup(self):
        store = self.build()
        assert fuzzy_lookup(store, "Daphnia magna", k=1)[0][1] < 1.0
        store.add(Triple(iri("http://example.org/t/4"), ns.RDFS_LABEL, literal("Daphnia magna")))
        assert fuzzy_lookup(store, "Daphnia magna", k=1) == [("http://example.org/t/4", 1.0)]


class TestLineageSiblings:
    def chain(self):
        store = TripleStore(PREFIXES)
        for child, parent in [(1, 2), (2, 3), (3, 4)]:
            store.add(Triple(node(child), ns.RDFS_SUBCLASSOF, node(parent)))
        return store

    def test_chain_order_leaf_to_root(self):
        assert lineage(self.chain(), node(1)) == [node(2), node(3), node(4)]

    def test_root_has_empty_lineage(self):
        assert lineage(self.chain(), node(4)) == []

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            lineage(self.chain(), node(9))
        with pytest.raises(UnknownEntityError):
            siblings(self.chain(), node(9))

    def test_siblings_on_random_trees(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 25)
            parent_of = {child: rng.randrange(child) for child in range(1, n)}
            store = TripleStore(PREFIXES)
            for child, parent in parent_of.items():
                store.add(Triple(node(child), ns.RDFS_SUBCLASSOF, node(parent)))
            probe = rng.randrange(1, n)
            expect = sorted(
                (
                    node(other)
                    for other, par in parent_of.items()
                    if par == parent_of[probe] and other != probe
                ),
                key=Term.ntriples,
            )
            assert siblings(store, node(probe)) == expect

    def test_lineage_on_dag_visits_each_ancestor_once(self):
        store = TripleStore(PREFIXES)
        store.add(Triple(node(1), ns.RDFS_SUBCLASSOF, node(2)))
        store.add(Triple(node(1), ns.RDFS_SUBCLASSOF, node(3)))
        store.add(Triple(node(2), ns.RDFS_SUBCLASSOF, node(4)))
        store.add(Triple(node(3), ns.RDFS_SUBCLASSOF, node(4)))
        got = lineage(store, node(1))
        assert got == [node(2), node(3), node(4)]

    @staticmethod
    def bfs_levels(edges, start):
        """Reference lineage: every term a subClassOf walk reaches from ``start``, by BFS level, then N-Triples text."""
        parents = collections.defaultdict(set)
        for child, parent in edges:
            parents[child].add(parent)
        level = {start: 0}
        queue = collections.deque([start])
        while queue:
            here = queue.popleft()
            for parent in parents[here]:
                if parent not in level:
                    level[parent] = level[here] + 1
                    queue.append(parent)
        return sorted((term for term in level if term != start), key=lambda term: (level[term], term.ntriples()))

    @settings(max_examples=300, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
        labelled=st.sets(st.integers(0, 14), max_size=4),
        start=st.integers(0, 14),
    )
    # a cycle back to the start, with a shared ancestor reached on two levels
    @example(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 2), (2, 4)], labelled=set(), start=0)
    # two parents sharing a grandparent; the root is known only as an object
    @example(edges=[(0, 1), (0, 2), (1, 3), (2, 3)], labelled=set(), start=0)
    # a self-loop, a term known only through a label, and an unknown term
    @example(edges=[(5, 5)], labelled={6}, start=5)
    @example(edges=[(5, 5)], labelled={6}, start=6)
    @example(edges=[(5, 5)], labelled={6}, start=7)
    def test_lineage_is_the_bfs_levels_of_the_edges(self, edges, labelled, start):
        # every third term a blank node, so levels mix "<" and "_:" in their order
        term = {i: blank(f"b{i}") if i % 3 == 0 else node(i) for i in range(15)}
        store = TripleStore(PREFIXES)
        for child, parent in edges:
            store.add(Triple(term[child], ns.RDFS_SUBCLASSOF, term[parent]))
        for i in labelled:
            store.add(Triple(term[i], ns.RDFS_LABEL, literal(f"taxon {i}")))
        known = {i for edge in edges for i in edge} | labelled
        if start not in known:
            with pytest.raises(UnknownEntityError, match="^entity not in graph: "):
                lineage(store, term[start])
        else:
            expect = self.bfs_levels([(term[a], term[b]) for a, b in edges], term[start])
            assert lineage(store, term[start]) == expect

    def test_single_parent_levels_are_not_sorted(self, monkeypatch):
        store = TripleStore(PREFIXES)
        for depth in range(30):
            store.add(Triple(node(depth), ns.RDFS_SUBCLASSOF, node(depth + 1)))
        rendered = []
        ntriples = Term.ntriples

        def counted(term):
            rendered.append(term)
            return ntriples(term)

        monkeypatch.setattr(Term, "ntriples", counted)
        assert lineage(store, node(0)) == [node(depth) for depth in range(1, 31)]
        assert rendered == []
