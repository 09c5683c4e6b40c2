import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ecokg.graph import (
    FrozenStoreError,
    PrefixMap,
    Term,
    Triple,
    TripleStore,
    UnknownPrefixError,
    blank,
    escape_literal,
    iri,
    literal,
)


def shared_node_store() -> tuple[TripleStore, Triple]:
    """Eight predicates from one subject to one object, with neighbours.

    Returns the store and a probe triple between the shared pair, so the
    object-only and subject-object patterns span several predicates.
    """
    hub, shared = iri("http://x.org/hub"), iri("http://x.org/shared")
    store = TripleStore()
    for i in range(8):
        p = iri(f"http://x.org/p{i}")
        store.add(Triple(hub, p, shared))
        store.add(Triple(iri(f"http://x.org/s{i}"), p, shared))
        store.add(Triple(hub, p, literal(str(i))))
        store.add(Triple(shared, p, hub))
    return store, Triple(hub, iri("http://x.org/p0"), shared)


def probed_stores(rng: random.Random):
    """The shared-node store, then random stores each with one of its triples."""
    yield shared_node_store()
    miss = iri("http://example.org/never/used")
    for _ in range(40):
        store = helpers.random_store(rng, 50)
        triples = store.sorted_triples()
        yield store, rng.choice(triples) if triples else Triple(miss, miss, miss)


class TestTerm:
    def test_factories(self):
        assert iri("http://x.org/a").kind == "iri"
        assert literal("hi").kind == "literal"
        assert blank("b1").kind == "blank"

    def test_iri_rejects_whitespace_and_angles(self):
        for bad in ["", "http://x.org/a b", "http://x.org/<a>", "x\ny"]:
            with pytest.raises(ValueError):
                iri(bad)

    def test_iri_carries_no_literal_fields(self):
        with pytest.raises(ValueError):
            Term("iri", "http://x.org/a", datatype="http://x.org/dt")
        with pytest.raises(ValueError):
            Term("iri", "http://x.org/a", language="en")

    def test_literal_datatype_language_exclusive(self):
        literal("1", "http://www.w3.org/2001/XMLSchema#integer")
        literal("hei", language="no")
        with pytest.raises(ValueError):
            Term("literal", "x", datatype="http://x.org/dt", language="en")

    def test_literal_language_tag_shape(self):
        literal("x", language="de-AT")
        for bad in ["", "en us", "1en", "en-"]:
            with pytest.raises(ValueError):
                literal("x", language=bad)

    def test_blank_label_charset(self):
        blank("b_1")
        for bad in ["", "a b", "a:b", "a-b"]:
            with pytest.raises(ValueError):
                blank(bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Term("variable", "x")

    def test_terms_hashable_and_equal_by_value(self):
        assert iri("http://x.org/a") == iri("http://x.org/a")
        assert len({literal("a"), literal("a"), literal("a", language="en")}) == 2

    def test_ntriples_forms(self):
        assert iri("http://x.org/a").ntriples() == "<http://x.org/a>"
        assert blank("b1").ntriples() == "_:b1"
        assert literal("hi").ntriples() == '"hi"'
        assert literal("hei", language="no").ntriples() == '"hei"@no'
        assert (
            literal("1", "http://www.w3.org/2001/XMLSchema#decimal").ntriples()
            == '"1"^^<http://www.w3.org/2001/XMLSchema#decimal>'
        )


class TestEscaping:
    def test_named_escapes(self):
        assert escape_literal('say "hi"') == 'say \\"hi\\"'
        assert escape_literal("a\\b") == "a\\\\b"
        assert escape_literal("a\nb\rc\td") == "a\\nb\\rc\\td"

    def test_control_characters_hex_escaped(self):
        assert escape_literal("\x01") == "\\u0001"
        assert escape_literal("\x1f") == "\\u001F"
        assert escape_literal("\x7f") == "\\u007F"

    def test_printable_unicode_untouched(self):
        assert escape_literal("smørgås ☃") == "smørgås ☃"


class TestTriple:
    def test_positional_validity(self):
        s, p, o = iri("http://x.org/s"), iri("http://x.org/p"), literal("o")
        Triple(s, p, o)
        Triple(blank("b"), p, o)
        with pytest.raises(ValueError):
            Triple(literal("s"), p, o)
        with pytest.raises(ValueError):
            Triple(s, blank("b"), o)
        with pytest.raises(ValueError):
            Triple(s, literal("p"), o)

    def test_ntriples_line(self):
        t = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o"))
        assert t.ntriples() == '<http://x.org/s> <http://x.org/p> "o" .'


class TestPrefixMap:
    def test_expand_and_resolve(self):
        pm = PrefixMap({"ex": "http://x.org/"})
        assert pm.expand("ex:a") == iri("http://x.org/a")
        assert pm.resolve("ex:a") == "http://x.org/a"
        assert pm.resolve("http://y.org/b") == "http://y.org/b"

    def test_unknown_prefix(self):
        pm = PrefixMap()
        with pytest.raises(UnknownPrefixError):
            pm.expand("nope:a")

    def test_not_a_curie(self):
        with pytest.raises(ValueError):
            PrefixMap().expand("plainword")

    def test_compact_longest_match(self):
        pm = PrefixMap({"ex": "http://x.org/", "exsub": "http://x.org/sub/"})
        assert pm.compact("http://x.org/sub/a") == "exsub:a"
        assert pm.compact("http://x.org/a") == "ex:a"
        assert pm.compact("http://other.org/a") == "http://other.org/a"

    def test_bind_validation(self):
        pm = PrefixMap()
        with pytest.raises(ValueError):
            pm.bind("with:colon", "http://x.org/")
        with pytest.raises(ValueError):
            pm.bind("ex", "not an iri")

    def test_from_tsv_skips_comments_and_blanks(self):
        pm = PrefixMap.from_tsv("# comment\n\nex\thttp://x.org/\n")
        assert pm.namespaces() == {"ex": "http://x.org/"}
        with pytest.raises(ValueError):
            PrefixMap.from_tsv("only-one-column\n")


class TestStore:
    def test_add_returns_false_on_duplicate(self):
        store = TripleStore()
        t = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o"))
        assert store.add(t) is True
        assert store.add(t) is False
        assert len(store) == 1

    def test_add_all_counts_new_only(self):
        store = TripleStore()
        t1 = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("a"))
        t2 = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("b"))
        assert store.add_all([t1, t2, t1]) == 2

    def test_freeze_blocks_mutation(self):
        store = TripleStore()
        t = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o"))
        store.add(t)
        store.freeze()
        assert store.frozen
        with pytest.raises(FrozenStoreError):
            store.add(Triple(iri("http://x.org/s2"), iri("http://x.org/p"), literal("o")))
        assert store.match() == [t]

    def test_lookup_helpers(self):
        store = TripleStore()
        s, p = iri("http://x.org/s"), iri("http://x.org/p")
        store.add(Triple(s, p, literal("a")))
        store.add(Triple(s, p, literal("b")))
        store.add(Triple(iri("http://x.org/s2"), p, literal("a")))
        assert store.objects(s, p) == {literal("a"), literal("b")}
        assert store.subjects(p, literal("a")) == {s, iri("http://x.org/s2")}
        assert store.predicate_pairs(p) == {
            (s, literal("a")),
            (s, literal("b")),
            (iri("http://x.org/s2"), literal("a")),
        }

    def test_terms_excludes_predicates(self):
        store = TripleStore()
        store.add(Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o")))
        assert store.terms() == {iri("http://x.org/s"), literal("o")}

    def test_equality_by_triple_set(self):
        a, b = TripleStore(), TripleStore(PrefixMap({"ex": "http://x.org/"}))
        t = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o"))
        a.add(t)
        b.add(t)
        assert a == b

    def test_match_results_sorted(self):
        rng = random.Random(7)
        store = helpers.random_store(rng, 80)
        out = store.match()
        assert out == sorted(out, key=Triple.sort_key)

    def test_match_all_patterns_against_brute_force(self):
        miss = iri("http://example.org/never/used")
        for store, probe in probed_stores(random.Random(11)):
            for s in (None, probe.subject, miss):
                for p in (None, probe.predicate, miss):
                    for o in (None, probe.object, miss):
                        assert store.match(s, p, o) == helpers.brute_force_match(
                            store, s, p, o
                        )

    def test_count_equals_match_length(self):
        miss = iri("http://example.org/never/used")
        for store, probe in probed_stores(random.Random(12)):
            for s in (None, probe.subject, miss):
                for p in (None, probe.predicate, miss):
                    for o in (None, probe.object, miss):
                        assert store.count(s, p, o) == len(store.match(s, p, o))

    def test_terms_are_subjects_and_objects(self):
        rng = random.Random(14)
        for _ in range(40):
            store = helpers.random_store(rng, 50)
            expected = {t.subject for t in store} | {t.object for t in store}
            assert store.terms() == expected

    def test_store_agrees_with_a_plain_set(self):
        # membership, size, iteration and equality read the indexes; a
        # plain set of the added triples is the independent record
        rng = random.Random(15)
        for _ in range(40):
            store, twin, added = TripleStore(), TripleStore(), set()
            for _ in range(rng.randrange(60)):
                t = helpers.random_triple(rng)
                assert store.add(t) is (t not in added)
                added.add(t)
            for t in sorted(added, key=lambda t: rng.random()):
                twin.add(t)
            assert len(store) == store.count() == len(added)
            assert store.triples() == frozenset(store) == added
            assert all(t in store for t in added)
            assert sorted(store.ntriples_lines()) == sorted(t.ntriples() for t in added)
            assert store == twin
            probe = helpers.random_triple(rng)
            assert (probe in store) is (probe in added)

    def test_literal_subject_matches_nothing(self):
        store = TripleStore()
        s, label = iri("http://x.org/s"), iri("http://x.org/label")
        store.add(Triple(s, label, literal("o")))
        assert store.match(literal("o"), label, s) == []
        assert store.count(literal("o"), label, s) == 0
        assert store.match(literal("o"), label) == []

    def test_index_coherence_after_random_adds(self):
        # match(p=...) reads the predicate-first index and match(s=...)
        # the subject-first one; each union must be the whole triple set
        rng = random.Random(13)
        for _ in range(20):
            store = helpers.random_store(rng, 60)
            expected = store.triples()
            by_predicate = {t for p in store.predicates() for t in store.match(p=p)}
            subjects = {t.subject for t in expected}
            by_subject = {t for s in subjects for t in store.match(s=s)}
            assert by_predicate == by_subject == expected

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_set_semantics_order_independent(self, picks):
        universe = [
            Triple(iri(f"http://x.org/s{i}"), iri("http://x.org/p"), literal(str(i)))
            for i in range(6)
        ]
        store = TripleStore()
        for i in picks:
            store.add(universe[i])
        assert store.triples() == frozenset(universe[i] for i in picks)
        assert len(store) == len(set(picks))
