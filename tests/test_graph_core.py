import copy
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ecokg import align, checks, dmp, ecotox, idmap, ntriples, query, traits, units
from ecokg.graph import (
    BLANK,
    IRI,
    LITERAL,
    DuplicateKeyError,
    FrozenStoreError,
    PrefixMap,
    Term,
    Triple,
    TripleStore,
    UnknownPrefixError,
    blank,
    build_row,
    digits_int,
    escape_literal,
    iri,
    is_content_line,
    literal,
    read_tsv_rows,
)
from ecokg.ns import ET, OWL_DISJOINTWITH, RDFS_LABEL, RDFS_SUBCLASSOF


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


def store_of(triples) -> TripleStore:
    store = TripleStore()
    store.add_all(triples)
    return store


def probed_stores(rng: random.Random):
    """The shared-node store, then random stores each with one of its triples."""
    yield shared_node_store()
    miss = iri("http://example.org/never/used")
    for _ in range(40):
        store = helpers.random_store(rng, 50)
        triples = sorted(store, key=Triple.ntriples)
        yield store, rng.choice(triples) if triples else Triple(miss, miss, miss)


# Blank labels and IRIs that are prefixes of one another, and literals
# differing only in language or datatype, so a probe that confused two
# terms by their text would show.
PROBE_NODES = [blank("b1"), blank("b12"), iri("http://x.org/a"), iri("http://x.org/a/b"), iri("http://x.org/a/b/c")]
PROBE_PREDICATES = [iri("http://x.org/p"), iri("http://x.org/p/q")]
PROBE_OBJECTS = PROBE_NODES + [
    literal("v"), literal("v", language="en"), literal("v", language="en-GB"),
    literal("v", "http://www.w3.org/2001/XMLSchema#string"), literal("v w"),
]
PROBE_MISS = iri("http://x.org/absent")
PROBE_TERMS = PROBE_OBJECTS + PROBE_PREDICATES + [PROBE_MISS]
probe_stores = st.lists(
    st.tuples(st.sampled_from(PROBE_NODES), st.sampled_from(PROBE_PREDICATES), st.sampled_from(PROBE_OBJECTS)),
    max_size=20,
)


class TestTerm:
    def test_factories(self):
        assert iri("http://x.org/a").kind == "iri"
        assert literal("hi").kind == "literal"
        assert blank("b1").kind == "blank"

    def test_iri_rejects_whitespace_and_angles(self):
        for bad in ["", "http://x.org/a b", "http://x.org/<a>", "x\ny"]:
            with pytest.raises(ValueError):
                iri(bad)

    def test_iri_check_accepts_what_the_regex_accepts_on_every_code_point(self):
        # the characters the regex scan rejects (whitespace, '<', '>' and
        # the 2,048 lone surrogates), found in one pass
        every = "".join(map(chr, range(0x110000)))
        bad = {m.start() for m in re.finditer(r"[\s<>\ud800-\udfff]", every)}
        assert len(bad) == 31 + 2048
        for cp in range(0x110000):
            text = "a" + chr(cp) + "b"
            if cp not in bad:
                assert iri(text).value == text
                continue
            with pytest.raises(ValueError) as err:
                iri(text)
            assert str(err.value) == f"invalid IRI: {text!r}"

    @pytest.mark.parametrize("ch", [" ", "<", ">", "\t", "\x1c", "\x85", "\u2028", "\u3000", "", "\x00",
                                    "\xe9", "\ud800", "\U0010ffff"])
    def test_datatype_and_namespace_checks_match_the_iri_check(self, ch):
        text = f"http://x.org/{ch}" if ch else ""
        if re.search(r"[\s<>\ud800-\udfff]", text) or not text:
            for make, message in ((iri, "invalid IRI"), (lambda t: literal("x", t), "invalid datatype IRI"),
                                  (lambda t: PrefixMap().bind("ex", t), "invalid namespace IRI")):
                with pytest.raises(ValueError, match=f"^{message}: "):
                    make(text)
        else:
            assert literal("x", text).datatype == text
            assert PrefixMap({"ex": text}).expand("ex:a") == iri(text + "a")

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

    def test_factories_reject_exactly_what_the_constructor_rejects(self):
        pieces = [
            "", "a", "b_1", "en", "de-AT", "1en", "en-", "en us", "a b", "a:b", "a-b",
            "x\ny", "<", ">", "\t", "é", "http://x.org/a", "http://x.org/<a>",
        ]
        rng = random.Random(5)
        values = pieces + ["".join(rng.choices(pieces, k=rng.randrange(1, 4))) for _ in range(300)]
        optional = [None, *pieces]

        def outcome(make, *args):
            try:
                return make(*args)
            except ValueError:
                return ValueError

        for value in values:
            for kind, factory in ((IRI, iri), (BLANK, blank)):
                made = outcome(factory, value)
                assert outcome(Term, kind, value) == made
                assert made is ValueError or type(made) is Term
            for _ in range(4):
                datatype, language = rng.choice(optional), rng.choice(optional)
                made = outcome(literal, value, datatype, language)
                assert outcome(Term, LITERAL, value, datatype, language) == made
                assert made is ValueError or type(made) is Term

    def test_fields_cannot_be_assigned(self):
        term = literal("x", language="en")
        triple = Triple(iri("http://x.org/s"), iri("http://x.org/p"), term)
        for obj, field in (
            (term, "value"), (term, "language"), (triple, "object"), (term, "extra"),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, field, "y")

    def test_replace_and_make_check_fields(self):
        term = iri("http://x.org/a")
        assert term._replace(value="http://x.org/b") == iri("http://x.org/b")
        for bad in (
            lambda: term._replace(value="a b"),
            lambda: term._replace(language="en"),
            lambda: Term._make(["literal", "x", "http://x.org/dt", "en"]),
        ):
            with pytest.raises(ValueError):
                bad()

    def test_pickle_and_deepcopy_round_trip(self):
        s, p = iri("http://x.org/s"), iri("http://x.org/p")
        for obj in (
            literal('a "b"', language="de-AT"),
            literal("1", "http://www.w3.org/2001/XMLSchema#decimal"),
            blank("b1"),
            Triple(s, p, literal("o")),
        ):
            protocols = range(pickle.HIGHEST_PROTOCOL + 1)
            copies = [copy.deepcopy(obj)] + [pickle.loads(pickle.dumps(obj, n)) for n in protocols]
            for twin in copies:
                assert twin == obj and hash(twin) == hash(obj) and type(twin) is type(obj)

    def test_parsed_terms_equal_and_hash_like_built_ones(self):
        s, p = iri("http://x.org/s"), iri("http://x.org/p")
        built = [
            Triple(s, p, literal("o")),
            Triple(blank("b1"), p, literal("hei", language="no")),
            Triple(s, p, literal("1", "http://www.w3.org/2001/XMLSchema#decimal")),
            Triple(s, p, iri("http://x.org/o")),
        ]
        for t in built:
            line = t.ntriples()
            # the canonical-line regex, then the scanner on the same line padded
            fast = next(iter(ntriples.parse(line)))
            for parsed in (fast, ntriples.parse_triple_line(f" {line} ", 1)):
                assert parsed == t and hash(parsed) == hash(t)
                for mine, theirs in zip(parsed, t):
                    assert mine == theirs and hash(mine) == hash(theirs)

    def test_hash_and_equality_are_the_tuples_own(self):
        for cls in (Term, Triple):
            assert cls.__hash__ is tuple.__hash__
            assert cls.__eq__ is tuple.__eq__
        assert iri("http://x.org/a") == ("iri", "http://x.org/a", None, None)

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

    def test_matches_the_character_loop(self):
        rng = random.Random(3)
        texts = [helpers.random_literal(rng).value for _ in range(500)]
        texts += [chr(cp) for cp in range(0x100)]
        texts.append("".join(chr(cp) for cp in range(0x100)))
        for text in texts:
            assert escape_literal(text) == helpers.reference_escape_literal(text)


class TestTriple:
    def test_ntriples_line(self):
        t = Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal("o"))
        assert t.ntriples() == '<http://x.org/s> <http://x.org/p> "o" .'


class TestPrefixMap:
    def test_expand_and_resolve(self):
        pm = PrefixMap({"ex": "http://x.org/"})
        assert pm.expand("ex:a") == iri("http://x.org/a")
        assert pm.resolve("ex:a") == iri("http://x.org/a")
        assert pm.resolve("http://y.org/b") == iri("http://y.org/b")
        # a full IRI is checked as a curie's expansion is
        with pytest.raises(ValueError, match=r"^invalid IRI: 'http://a b'$"):
            pm.resolve("http://a b")

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
        assert pm.expand("ex:a") == iri("http://x.org/a")
        with pytest.raises(ValueError):
            PrefixMap.from_tsv("only-one-column\n")

    def test_from_tsv_rejects_a_prefix_bound_twice(self):
        # the last binding won: et:a expanded into http://b.org/
        with pytest.raises(DuplicateKeyError, match=r"^prefix table: duplicate prefix: \['et'\]$"):
            PrefixMap.from_tsv("et\thttp://a.org/\nex\thttp://x.org/\net\thttp://b.org/\n")


class TestTsvRows:
    def test_blank_and_comment_lines_skipped_numbers_kept(self):
        text = "# head\n\n a\tb \n \t\n  # indented comment\nc\r\nd\te\tf"
        # the row function takes the first ``columns`` fields; at_least ignores the rest
        assert read_tsv_rows(text, "t", 1, str, at_least=True) == ["a", "c", "d"]
        assert read_tsv_rows("", "t", 1, str) == []
        # a row the row function rejects is named by its line in the text
        with pytest.raises(ValueError, match="^t line 7: not ASCII digits: 'd'$"):
            read_tsv_rows("# head\n\n 1\tb \n \t\n  # c\n2\r\nd\te", "t", 1, digits_int, at_least=True)

    def test_lines_split_at_newline_only(self):
        # str.splitlines would also break at U+2028, U+0085, \x0b, \x0c and \x1c-\x1e
        text = "a\tb\u2028c\td\te\r\nf\u0085g\x0bh\x0ci\x1cj\x1dk\x1el\tm\tn\to\n"
        rows = [("a", "b\u2028c", "d", "e"), ("f\u0085g\x0bh\x0ci\x1cj\x1dk\x1el", "m", "n", "o")]
        assert read_tsv_rows(text, "t", 4, lambda *fields: fields) == rows

    @pytest.mark.parametrize(("text", "at_least", "message"), [
        ("a\tb\n#\na\tb\tc\n", False, "t line 3: expected 2 columns, got 3"),
        ("a\tb\n\na\n", False, "t line 3: expected 2 columns, got 1"),
        ("a\tb\tc\na\n", True, "t line 2: expected at least 2 columns, got 1"),
    ])
    def test_column_rule(self, text, at_least, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_tsv_rows(text, "t", 2, max, at_least=at_least)

    @pytest.mark.parametrize(("read", "text", "expected"), [
        (lambda t: PrefixMap.from_tsv(t).expand("ex:a").value, " ex \t http://x.org/ \t\n",
         "http://x.org/a"),
        (idmap.parse_pairs, " 79-06-1 \t wd:Q1 \n", [idmap.IdPair("79-06-1", "wd:Q1")]),
        (lambda t: traits.load_glossary(t, PrefixMap({"ex": "http://x.org/"})), " endangered \t ex:EN \n",
         {"endangered": iri("http://x.org/EN")}),
        (lambda t: traits.parse_traits(t, PrefixMap({"ex": "http://x.org/"})),
         " ex:s \t ex:p \t endangered \t glossary \n",
         [traits.TraitRow(iri("http://x.org/s"), iri("http://x.org/p"), "endangered", "glossary")]),
        (lambda t: list(units.load_registry(t, PrefixMap())), " http://x.org/mgL \t milligram \t mg/L \t 0.001 \t 0 \t mass \t mg \n",
         [units.UnitDef(iri("http://x.org/mgL"), "milligram", "mg/L", 0.001, 0.0, "mass", "mg")]),
        (lambda t: list(align.read_mappings(t)), " http://x.org/a \t http://x.org/b \t 0.9 \t lexical \n",
         [align.Mapping("http://x.org/a", "http://x.org/b", 0.9, "lexical")]),
    ], ids=["prefixes", "pairs", "glossary", "traits", "units", "mappings"])
    def test_padded_fields_are_stripped(self, read, text, expected):
        assert read(text) == expected

    @pytest.mark.parametrize(("read", "text", "message"), [
        (lambda t: list(units.load_registry(t, PrefixMap())), "http://x.org/u\tl\ta\t 1x \t0\td\ts\n",
         "units table line 1: could not convert string to float: '1x'"),
        (align.read_mappings, "a\tb\t 0.9x \tlexical\n",
         "mappings line 1: could not convert string to float: '0.9x'"),
        # float() alone reads other scripts' digits and "_" between digits
        (lambda t: list(units.load_registry(t, PrefixMap())), "http://x.org/u\tl\ta\t١.٥\t0\td\ts\n",
         "units table line 1: could not convert string to float: '١.٥'"),
        (lambda t: list(units.load_registry(t, PrefixMap())), "http://x.org/u\tl\ta\t1\t1_0\td\ts\n",
         "units table line 1: could not convert string to float: '1_0'"),
        (align.read_mappings, "a\tb\t٠.٩\tlexical\n",
         "mappings line 1: could not convert string to float: '٠.٩'"),
        (align.read_mappings, "a\tb\t0.9_0\tlexical\n",
         "mappings line 1: could not convert string to float: '0.9_0'"),
    ], ids=["units", "mappings", "units-arabic-indic", "units-underscore", "mappings-arabic-indic",
            "mappings-underscore"])
    def test_bad_padded_number_quotes_the_stripped_field(self, read, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read(text)

    def test_content_line(self):
        for line in ("a", " a # not a comment", "\ta", "a#"):
            assert is_content_line(line)
        for line in ("", " ", "\t\u2028", "#", "  #a", "\t# x"):
            assert not is_content_line(line)


class TestBuildRow:
    def test_a_row_is_what_the_row_function_returns(self):
        assert build_row(str.upper, "t", 3, "x") == "X"

    def test_a_rejected_row_keeps_its_exception_and_gains_its_location(self):
        class Marked(ValueError):
            pass

        def make(cell):
            exc = Marked(f"bad cell: {cell!r}")
            exc.cell = cell
            raise exc

        with pytest.raises(Marked) as err:
            build_row(make, "t", 4, "x")
        assert type(err.value) is Marked
        assert str(err.value) == "t line 4: bad cell: 'x'"
        assert err.value.cell == "x" and err.value.line == 4

    @pytest.mark.parametrize(("read", "text", "table", "line"), [
        (lambda t: read_tsv_rows(t, "t", 2, max), "a\tb\n\n# c\na\n", "t", 4),
        (lambda t: ecotox.read_table(t, "t", ("a",), dict), "a|b\n1|2\n\n3\n", "t", 4),
        (dmp.parse_divisions, "0\t|\tBCT\t|\tBacteria\t|\n\n1\t|\tINV\t|\n", "division.dmp", 3),
    ], ids=["tsv", "ecotox", "dmp"])
    def test_every_row_error_carries_its_line(self, read, text, table, line):
        with pytest.raises(ValueError, match=f"^{table} line {line}: ") as err:
            read(text)
        assert err.value.line == line

    def test_an_unknown_prefix_keeps_its_class(self):
        prefixes = PrefixMap({"ex": "http://x.org/"})
        with pytest.raises(UnknownPrefixError, match=r"^t line 2: unknown prefix: 'xx'$") as err:
            build_row(prefixes.expand, "t", 2, "xx:a")
        assert type(err.value) is UnknownPrefixError
        text = "ex:s\tex:p\tv\tliteral\n\nex:s\txx:p\tv\tliteral\n"
        with pytest.raises(UnknownPrefixError, match=r"^trait table line 3: unknown prefix: 'xx'$"):
            traits.parse_traits(text, prefixes)

    def test_other_errors_pass_unchanged(self):
        with pytest.raises(KeyError) as err:
            build_row({}.__getitem__, "t", 1, "k")
        assert err.value.args == ("k",)


class TestStoreDoor:
    """``TripleStore.add`` checks a triple's positions; a refused add changes nothing."""

    S, P, O = iri("http://x.org/s"), iri("http://x.org/p"), literal("o")

    @pytest.mark.parametrize(("bad", "message"), [
        ((literal("x"), iri("http://p"), iri("http://o")), "literal cannot be a subject"),
        ((S, blank("b"), O), "predicate must be an IRI"),
        ((S, literal("p"), O), "predicate must be an IRI"),
        # with both positions bad, the subject is the one reported
        ((literal("s"), blank("b"), O), "literal cannot be a subject"),
        (Triple(S, P, O)._replace(subject=literal("s")), "literal cannot be a subject"),
        (Triple._make([S, blank("b"), S]), "predicate must be an IRI"),
    ], ids=["literal-subject", "blank-predicate", "literal-predicate", "both", "replace", "make"])
    def test_positional_validity(self, bad, message):
        store = TripleStore()
        with pytest.raises(ValueError, match=f"^{message}$"):
            store.add(bad)
        assert helpers.public_view(store) == helpers.public_view(TripleStore()) and ntriples.serialize(store) == ""
        # a refused add beside known subjects and predicates, with no object index built and with
        # every one built, changes no read, and is refused again: the predicate check is not skipped
        known = [(self.S, self.P, self.O), (blank("b"), self.P, self.O)]
        expected = helpers.public_view(store_of(known))
        for built in (False, True):
            store = store_of(known)
            if built:
                store.terms()
            with pytest.raises(ValueError, match=f"^{message}$"):
                store.add(bad)
            assert helpers.public_view(store) == expected
            with pytest.raises(ValueError, match=f"^{message}$"):
                store.add(bad)

    # a plain tuple equal to a stored term finds that term's index key, so
    # only a type test on every add keeps it out of the other index
    @pytest.mark.parametrize("position", [0, 1], ids=["subject", "predicate"])
    def test_a_plain_tuple_equal_to_a_stored_term_is_refused(self, position):
        expected = helpers.public_view(store_of([(self.S, self.P, self.O)]))
        bad = [self.S, self.P, literal("o2")]
        bad[position] = tuple(bad[position])
        for built in (False, True):
            store = store_of([(self.S, self.P, self.O)])
            if built:
                store.terms()
            with pytest.raises(ValueError, match="^not a triple of terms: "):
                store.add(tuple(bad))
            assert helpers.public_view(store) == expected
            assert all(type(x) is Term for t in store.match() for x in t)

    def test_a_plain_tuple_and_a_triple_are_one_triple(self):
        store = TripleStore()
        assert store.add((self.S, self.P, self.O))
        assert not store.add(Triple(self.S, self.P, self.O))
        assert (self.S, self.P, self.O) in store and Triple(self.S, self.P, self.O) in store
        assert [type(t) for t in store.match()] == [Triple] and list(store) == [(self.S, self.P, self.O)]


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
        # a store equals no other kind of object, a set of its triples included
        assert a.__eq__({t}) is NotImplemented and a != {t}

    def test_match_results_sorted(self):
        rng = random.Random(7)
        store = helpers.random_store(rng, 80)
        out = store.match()
        assert out == sorted(out, key=helpers.triple_key)

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

    @given(probe_stores, st.integers(0, 19), st.tuples(*[st.none() | st.sampled_from(PROBE_TERMS)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_probe_is_match_unsorted(self, triples, index, picks):
        # a bound position holds a picked term, or with None the term of
        # one stored triple, in all 8 bound/unbound shapes
        store = TripleStore()
        store.add_all(Triple(*t) for t in triples)
        hit = triples[index % len(triples)] if triples else (PROBE_MISS,) * 3
        bound = [term if pick is None else pick for term, pick in zip(hit, picks)]
        for shape in itertools.product((False, True), repeat=3):
            s, p, o = (term if keep else None for term, keep in zip(bound, shape))
            rows = store.probe(s, p, o)
            assert len(set(rows)) == len(rows)
            assert set(rows) == {tuple(t) for t in helpers.brute_force_match(store, s, p, o)}
            assert all(type(row) is tuple for row in rows)
            assert store.match(s, p, o) == sorted(map(Triple._make, rows), key=Triple.ntriples)
            assert store.count(s, p, o) == len(rows)

    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), st.sampled_from(PROBE_NODES), st.sampled_from(PROBE_PREDICATES),
                  st.sampled_from(PROBE_OBJECTS)),
        st.tuples(st.sampled_from(["probe", "count", "match"]), *[st.none() | st.sampled_from(PROBE_TERMS)] * 3),
        st.tuples(st.just("subjects"), st.none(), st.sampled_from(PROBE_TERMS), st.sampled_from(PROBE_TERMS)),
        st.tuples(st.just("predicate_pairs"), st.none(), st.sampled_from(PROBE_TERMS), st.none()),
        st.tuples(st.sampled_from(["terms", "freeze"]), st.none(), st.none(), st.none()),
    ), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_reads_agree_with_brute_force_as_object_indexes_are_built(self, steps):
        # each read checks the triples added so far: before any object index is built,
        # after the reads so far built some, and after adds that follow a build; past a
        # freeze, adds are refused and the reads still build what they need
        store, added = TripleStore(), set()
        for kind, s, p, o in [*steps, ("terms", None, None, None)]:
            if kind == "add":
                if store.frozen:
                    with pytest.raises(FrozenStoreError):
                        store.add((s, p, o))
                else:
                    assert store.add((s, p, o)) is ((s, p, o) not in added)
                    added.add((s, p, o))
            elif kind == "freeze":
                store.freeze()
            else:
                hits = helpers.brute_force_match(store, s, p, o)
                assert set(hits) == {t for t in added if all(x in (None, y) for x, y in zip((s, p, o), t))}
                if kind == "probe":
                    assert sorted(map(Triple._make, store.probe(s, p, o)), key=helpers.triple_key) == hits
                elif kind == "count":
                    assert store.count(s, p, o) == len(hits)
                elif kind == "match":
                    assert store.match(s, p, o) == hits
                elif kind == "subjects":
                    assert store.subjects(p, o) == {t.subject for t in hits}
                elif kind == "predicate_pairs":
                    assert store.predicate_pairs(p) == {(t.subject, t.object) for t in hits}
                else:
                    assert store.terms() == {t[0] for t in added} | {t[2] for t in added}

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
            assert frozenset(store) == added
            assert all(t in store for t in added)
            assert ntriples.serialize(store) == "".join(sorted(t.ntriples() + "\n" for t in added))
            assert store == twin
            probe = helpers.random_triple(rng)
            assert (probe in store) is (probe in added)

    @pytest.mark.parametrize("index", ["spo", "pos"])
    def test_leaf_grows_from_one_term_to_many(self, index):
        # spo: one subject and predicate, objects vary; pos: one predicate
        # and object, subjects vary. One member is a 1-tuple, then a set.
        s, p, o = iri("http://x.org/s"), iri("http://x.org/p"), literal("o")
        store = TripleStore()

        def nth(i: int) -> Triple:
            if index == "spo":
                return Triple(s, p, literal(f"o{i}"))
            return Triple(iri(f"http://x.org/s{i}"), p, o)

        def leaves():
            if index == "spo":
                return [store._spo[s][p]]
            # the leaf of an index a read rebuilt after an add dropped it, and one built on a copy
            rebuilt = store_of(store)
            store.count(p=p, o=o)
            rebuilt.count(p=p, o=o)
            return [store._pos[p][o], rebuilt._pos[p][o]]

        for size in range(1, 6):
            assert store.add(nth(size - 1)) is True
            assert [type(leaf) for leaf in leaves()] == [tuple if size == 1 else set] * (1 if index == "spo" else 2)
            for i in range(size):
                assert store.add(nth(i)) is False
            assert len(store) == store.count() == size
            bound = {"s": s, "p": p} if index == "spo" else {"p": p, "o": o}
            assert store.count(**bound) == len(store.match(**bound)) == size
            assert store.count(p=p) == size
            assert all(nth(i) in store for i in range(size))
            assert nth(size) not in store

    def test_lookup_helpers_return_fresh_sets_for_one_member_leaves(self):
        s, p, o = iri("http://x.org/s"), iri("http://x.org/p"), literal("o")
        store = TripleStore()
        store.add(Triple(s, p, o))
        objs, subs = store.objects(s, p), store.subjects(p, o)
        assert type(objs) is set and objs == {o}
        assert type(subs) is set and subs == {s}
        objs.add(literal("x"))
        subs.clear()
        assert store.objects(s, p) == {o}
        assert store.subjects(p, o) == {s}
        assert store.match() == [Triple(s, p, o)] and len(store) == 1

    def test_objects_of_is_the_stored_leaf(self):
        s, p, q = iri("http://x.org/s"), iri("http://x.org/p"), iri("http://x.org/q")
        store = TripleStore()
        assert store.objects_of(s, p) == ()
        store.add(Triple(s, p, literal("a")))
        assert store.objects_of(s, p) == (literal("a"),)
        assert store.objects_of(s, q) == () and store.objects_of(p, p) == ()
        store.add(Triple(s, p, literal("b")))
        leaf = store.objects_of(s, p)
        assert type(leaf) is set and leaf == {literal("a"), literal("b")}
        assert store.objects_of(s, p) is leaf

    def test_terms_walks_spo_once_builds_no_index_and_returns_a_fresh_set(self):
        class CountedWalks(dict):
            walks = 0

            def items(self):
                self.walks += 1
                return super().items()

            def values(self):
                self.walks += 1
                return super().values()

        triples = [Triple(iri(f"http://x.org/s{i % 4}"), iri(f"http://x.org/p{i % 3}"), literal(str(i % 5)))
                   for i in range(12)]
        store = store_of(triples)
        store._spo = CountedWalks(store._spo)
        expected = {t.subject for t in triples} | {t.object for t in triples}
        first = store.terms()
        assert first == expected and store._spo.walks == 1
        first.clear()
        second = store.terms()
        assert second == expected and second is not first and store._spo.walks == 2
        assert len(store._pos) == 3 and all(os_ is None for os_ in store._pos.values())

    def test_equal_stores_have_equal_leaves_whatever_the_order(self):
        # leaves of one and of several members on both indexes; the object indexes of
        # ``store`` are built before its last adds (which drop x.org/p's), ``twin``'s
        # and ``copied``'s after all
        rng = random.Random(16)
        for _ in range(30):
            store = helpers.random_store(rng, 60)
            helpers.public_view(store)
            for i in range(rng.randrange(4)):
                store.add(Triple(iri("http://x.org/hub"), iri("http://x.org/p"), literal(str(i))))
                store.add(Triple(iri(f"http://x.org/s{i}"), iri("http://x.org/p"), literal("0")))
            shuffled = sorted(store, key=lambda t: rng.random())
            twin = TripleStore()
            twin.add_all(shuffled)
            copied = TripleStore()
            assert copied.add_all(store) == len(store)
            assert store == twin == copied
            assert helpers.public_view(twin) == helpers.public_view(store) == helpers.public_view(copied)
            for index in (twin._pos, store._pos, copied._pos):
                for leaf in (leaf for by_object in index.values() if by_object is not None
                             for leaf in by_object.values()):
                    assert type(leaf) is (tuple if len(leaf) == 1 else set)

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
            expected = frozenset(store)
            predicates = {t.predicate for t in expected}
            by_predicate = {t for p in predicates for t in store.match(p=p)}
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
        assert frozenset(store) == frozenset(universe[i] for i in picks)
        assert len(store) == len(set(picks))


@pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
def test_one_off_reads_walk_spo_and_only_a_subjects_read_builds_an_index(pipeline_dir, frozen):
    """The build's one-off reads, checked against full scans, leave every object index unbuilt;
    one ``subjects(p, o)`` then builds only ``p``'s, and an add under ``p`` drops it."""
    store = ntriples.parse((pipeline_dir / "kg.nt").read_text(encoding="utf-8"))
    if frozen:
        store.freeze()
    scan = helpers.brute_force_match

    labels = {}
    for t in scan(store, p=RDFS_LABEL):
        if t.object.is_literal() and t.subject.value.startswith(ET):
            labels.setdefault(t.subject.value, []).append(t.object.value)
    assert labels and align.labels_by_prefix(store, ET) == {s: sorted(v) for s, v in sorted(labels.items())}

    parents = {}
    for t in scan(store, p=RDFS_SUBCLASSOF):
        parents.setdefault(t.subject, set()).add(t.object)
    ranked = {t.subject for t in scan(store, p=ecotox.RANK_PROP)}
    assert ecotox.lineage_merges(store) == sum(len(parents.get(node, ())) > 1 for node in ranked)

    # peel the subClassOf edges into nodes with no parent left; a cycle would stop the peeling
    edges = {(s, o) for s, os_ in parents.items() for o in os_}
    while edges and (peeled := {(s, o) for s, o in edges if o not in {child for child, _ in edges}}):
        edges -= peeled
    assert edges == set() and checks.subclass_cycles(store) == []

    groups = {}
    for t in scan(store, p=ecotox.GROUP_PROP):
        groups.setdefault(t.subject, set()).add(t.object)
    disjoint = {(t.subject, t.object) for t in scan(store, p=OWL_DISJOINTWITH)}
    violations = sorted(((e, a, b) for e, gs in groups.items() for a in gs for b in gs
                         if a.ntriples() < b.ntriples() and ((a, b) in disjoint or (b, a) in disjoint)),
                        key=lambda v: tuple(term.ntriples() for term in v))
    assert groups and checks.disjointness_violations(store, ecotox.GROUP_PROP) == violations

    assert query.fuzzy_lookup(store, "daphnia magna", 5) == helpers.reference_lookup(store, "daphnia magna")[:5]

    triples = scan(store)
    assert store.terms() == {t.subject for t in triples} | {t.object for t in triples}
    p, o = triples[0].predicate, triples[-1].object
    assert store.predicate_pairs(RDFS_SUBCLASSOF) == {(t.subject, t.object) for t in scan(store, p=RDFS_SUBCLASSOF)}
    assert sorted(map(Triple._make, store.probe(o=o)), key=helpers.triple_key) == scan(store, o=o)
    assert store.count(p=p) == len(scan(store, p=p))
    assert len(store._pos) > 10 and all(os_ is None for os_ in store._pos.values())

    child, parent = next((s, o) for s, os_ in parents.items() for o in os_)
    assert store.subjects(RDFS_SUBCLASSOF, parent) == {t.subject for t in scan(store, p=RDFS_SUBCLASSOF, o=parent)}
    assert [q for q, os_ in store._pos.items() if os_ is not None] == [RDFS_SUBCLASSOF]
    if not frozen:
        newcomer = iri("http://x.org/newcomer")
        assert store.add((newcomer, RDFS_SUBCLASSOF, parent))
        assert store._pos[RDFS_SUBCLASSOF] is None
        assert newcomer in store.subjects(RDFS_SUBCLASSOF, parent) and child in store.subjects(RDFS_SUBCLASSOF, parent)
