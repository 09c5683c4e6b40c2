import builtins
import errno
import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ecokg import ntriples
from ecokg.graph import Term, Triple, TripleStore, blank, iri, literal
from ecokg.ntriples import NTriplesParseError, parse, parse_triple_line, serialize


def labelled_store(n: int) -> TripleStore:
    """``n`` triples shaped like ingested taxon labels."""
    store = TripleStore()
    label = iri("http://www.w3.org/2000/01/rdf-schema#label")
    for i in range(n):
        name = literal(f"Taxon name {i}", language="en")
        store.add(Triple(iri(f"http://example.org/taxon/{i}"), label, name))
    return store


# Term texts that are prefixes of one another, so a writer that orders
# by anything but the whole line would show it.
_SUBJECTS = st.one_of(
    st.sampled_from(["http://x/a", "http://x/a/b", "http://x/a/b1", "http://x/ab", "http://x/a-"]).map(iri),
    st.sampled_from(["b", "b1", "b10", "b_", "B"]).map(blank),
)
_PREDICATES = st.sampled_from(["http://x/p", "http://x/p/q", "http://x/pq"]).map(iri)
_LITERALS = st.builds(
    lambda lex, suffix: literal(lex, *suffix),
    st.text(alphabet='ab \t"\\\x85\u2028é', max_size=6),
    st.sampled_from([(None, None), (None, "en"), (None, "en-GB"), ("http://x/a", None), ("http://x/a/b", None)]),
)
_TRIPLES = st.builds(Triple, _SUBJECTS, _PREDICATES, st.one_of(_SUBJECTS, _LITERALS))

# Terms of every kind, for any position: IRIs, blank nodes, and literals
# whose lexical forms need each escape the writer has (named, \uXXXX for
# control characters and lone surrogates) or none, with language tags and
# datatypes.
_ANY_TERMS = st.one_of(
    st.sampled_from(["http://x/a", "http://x/p", "urn:x:é"]).map(iri),
    st.sampled_from(["b", "b1", "B_"]).map(blank),
    st.builds(
        lambda lex, suffix: literal(lex, *suffix),
        st.text(alphabet='a "\\\n\r\t\x00\x08\x1f\x7f\x85\u2028\ud800é', max_size=6),
        st.sampled_from([(None, None), (None, "en"), (None, "en-GB"), ("http://x/a", None), ("http://x/p", None)]),
    ),
)


def single(text: str) -> Triple:
    store = parse(text)
    assert len(store) == 1
    return next(iter(store))


class TestParse:
    def test_iri_triple(self):
        t = single("<http://x.org/s> <http://x.org/p> <http://x.org/o> .\n")
        assert t == Triple(iri("http://x.org/s"), iri("http://x.org/p"), iri("http://x.org/o"))

    def test_blank_subject_and_object(self):
        t = single("_:a <http://x.org/p> _:b .\n")
        assert t.subject == blank("a")
        assert t.object == blank("b")

    def test_plain_literal(self):
        assert single('<http://x.org/s> <http://x.org/p> "hi" .\n').object == literal("hi")

    def test_language_literal(self):
        t = single('<http://x.org/s> <http://x.org/p> "hei"@no .\n')
        assert t.object == literal("hei", language="no")

    def test_typed_literal(self):
        t = single(
            '<http://x.org/s> <http://x.org/p> '
            '"1"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        )
        assert t.object == literal("1", "http://www.w3.org/2001/XMLSchema#decimal")

    def test_escape_sequences(self):
        t = single('<http://x.org/s> <http://x.org/p> "a\\"b\\\\c\\nd\\re\\tf" .\n')
        assert t.object == literal('a"b\\c\nd\re\tf')

    def test_unicode_escapes(self):
        t = single('<http://x.org/s> <http://x.org/p> "\\u0041\\U0001F600\\u0001" .\n')
        assert t.object == literal("A\U0001f600\x01")

    def test_comments_and_blank_lines_skipped(self):
        store = parse("# header\n\n<http://x.org/s> <http://x.org/p> \"o\" .\n\n# tail\n")
        assert len(store) == 1

    def test_whitespace_tolerant(self):
        t = single('  <http://x.org/s>\t<http://x.org/p>   "o"  .  \n')
        assert t.object == literal("o")


class TestParseErrors:
    @pytest.mark.parametrize(
        "line,text",
        [
            (1, "<http://x.org/s> <http://x.org/p> .\n"),
            (1, "<http://x.org/s> <http://x.org/p> \"o\"\n"),
            (1, "<http://x.org/s> <http://x.org/p> \"unterminated .\n"),
            (1, "<http://x.org/s <http://x.org/p> \"o\" .\n"),
            (1, "\"s\" <http://x.org/p> \"o\" .\n"),
            (1, "<http://x.org/s> _:b \"o\" .\n"),
            (1, "<http://x.org/s> <http://x.org/p> \"o\" . extra\n"),
            (3, "# ok\n<http://x.org/s> <http://x.org/p> \"o\" .\nbroken line\n"),
        ],
    )
    def test_error_carries_line_number(self, line, text):
        with pytest.raises(NTriplesParseError) as err:
            parse(text)
        assert err.value.line == line

    def test_bad_unicode_escape(self):
        with pytest.raises(NTriplesParseError):
            parse('<http://x.org/s> <http://x.org/p> "\\uZZZZ" .\n')

    @pytest.mark.parametrize("escape", [
        "\\u+041", "\\u0_41", "\\u 041", "\\u\u0660\u0660\u0664\u0661", "\\U0000_041", "\\U+0000041",
    ])
    def test_escape_takes_only_hex_digits(self, escape):
        # int(text, 16) reads each of these as 0x41, "A"
        with pytest.raises(NTriplesParseError) as err:
            parse(f'<http://x.org/s> <http://x.org/p> "{escape}" .\n')
        assert str(err.value) == f"line 1: bad \\{escape[1]} escape: {escape[2:]!r}"

    def test_unknown_escape(self):
        with pytest.raises(NTriplesParseError):
            parse('<http://x.org/s> <http://x.org/p> "\\q" .\n')


def scanner_parse(text: str) -> TripleStore:
    """Every line through ``parse_triple_line``: the reader without its fast path."""
    store = TripleStore()
    for line_no, line in enumerate(text.split("\n"), 1):
        if line.endswith("\r"):
            line = line[:-1]
        if line.strip() and not line.lstrip().startswith("#"):
            store.add(ntriples.parse_triple_line(line, line_no))
    return store


def outcome(reader, text: str):
    try:
        return sorted(t.ntriples() for t in reader(text))
    except NTriplesParseError as exc:
        return (exc.line, str(exc))


S, P = "<http://x.org/s>", "<http://x.org/p>"
# Tokens at the edges of graph's IRI, blank-label and language-tag rules
RULE_EDGE_TOKENS = ["<http://x.org/\ud800>", '"a"^^<http://x.org/\udc00>', '"a"@en-', '"a"@-en', '"a"@e1',
                    '"a"@en--gb', "_:_", "_:a-b"]


@pytest.fixture
def scanned(monkeypatch) -> list[str]:
    """The lines ``parse`` hands to ``parse_triple_line``, in order; the others took the fast path."""
    lines: list[str] = []

    def spy(line: str, line_no: int) -> Triple:
        lines.append(line)
        return parse_triple_line(line, line_no)

    monkeypatch.setattr(ntriples, "parse_triple_line", spy)
    return lines


class TestFastPath:
    def test_serialized_lines_read_alike_on_both_paths(self, scanned):
        rng = random.Random(23)
        taken = {"fast": 0, "scanner": 0}
        for _ in range(200):
            for line in serialize(helpers.random_store(rng, 40)).split("\n")[:-1]:
                before = len(scanned)
                t = single(line + "\n")
                taken["scanner" if len(scanned) > before else "fast"] += 1
                assert t == parse_triple_line(line, 1)
        # both paths were exercised: escaped literals miss the fast path
        assert taken["fast"] > 1000 and taken["scanner"] > 100

    # The outcome of every line (after a first comment line) is the
    # reader's before the fast path existed: its triples, or its error's
    # line number and text.
    @pytest.mark.parametrize("line,expected", [
        (f"{S}  {P} <http://x.org/o> .", [f"{S} {P} <http://x.org/o> ."]),
        (f"{S} {P} <http://x.org/o>  .", [f"{S} {P} <http://x.org/o> ."]),
        (f'{S}\t{P}\t"o"\t.', [f'{S} {P} "o" .']),
        (f'{S} {P} "o" . ', [f'{S} {P} "o" .']),
        (f'{S} {P} "o" .\t', [f'{S} {P} "o" .']),
        (f'  {S} {P} "o" .', [f'{S} {P} "o" .']),
        (f'{S} {P} "o".', [f'{S} {P} "o" .']),
        (f'{S} {P} "o" .\r', [f'{S} {P} "o" .']),
        (f'# {S} {P} "o" .', []),
        ("   # comment", []),
        (f'{S} {P} "o" . # comment', (2, "line 2: trailing content after '.'")),
        (f'{S} {P} "\\u00e9\\U0001F600" .', [f'{S} {P} "\u00e9\U0001F600" .']),
        (f'{S} {P} "\\U00110000" .', (2, "line 2: bad \\U escape: '00110000'")),
        (f'{S} {P} "\\u12" .', (2, "line 2: bad \\u escape: '12\" '")),
        (f'{S} {P} "a\\"b" .', [f'{S} {P} "a\\"b" .']),
        (f'_:b\u00e9 {P} "o" .', (2, "line 2: invalid blank node label: 'b\u00e9'")),
        (f"{S} {P} _:b\u00e9 .", (2, "line 2: invalid blank node label: 'b\u00e9'")),
        (f'_: {P} "o" .', (2, "line 2: invalid blank node label: ''")),
        (f'{S} {P} "o"@en- .', (2, "line 2: invalid language tag: 'en-'")),
        (f'{S} {P} "o"@1en .', (2, "line 2: invalid language tag: '1en'")),
        (f'{S} {P} "o"@ .', (2, "line 2: invalid language tag: ''")),
        (f'{S} {P} "o"@en-GB .', [f'{S} {P} "o"@en-GB .']),
        (f'{S} {P} "a"^^<http://x.org/"q> .', [f'{S} {P} "a"^^<http://x.org/"q> .']),
        (f'{S} {P} "a"b" .', (2, "line 2: missing terminal '.'")),
        (f'{S} {P} "o"@en^^<http://x.org/d> .', (2, "line 2: missing terminal '.'")),
        (f"{S} {P} <http://x.org/a b> .", (2, "line 2: invalid IRI: 'http://x.org/a b'")),
        (f'"a" {P} <http://x.org/o> .', (2, "line 2: subject must be an IRI or blank node")),
        (f'{S} _:b "o" .', (2, "line 2: predicate must be an IRI")),
        (f"{S} {P} _:b .\n{S} _:b {P} .", (3, "line 3: predicate must be an IRI")),
        (f"{S} {P} <http://x.org/o> .\n{S} <http://x.org/o> {P} .",
         [f"{S} <http://x.org/o> {P} .", f"{S} {P} <http://x.org/o> ."]),
        (f'{S} {P} "a" .\n"a" {P} {S} .', (3, "line 3: subject must be an IRI or blank node")),
        (f'{S} {P} "a ." .', [f'{S} {P} "a ." .']),
        (f'{S} {P} "a" . .', (2, "line 2: trailing content after '.'")),
        (f"{S} {P} <http://x.org/o>..", (2, "line 2: trailing content after '.'")),
        (f'{S} {P} "a b"@en .', [f'{S} {P} "a b"@en .']),
        (f"{S} {P} <http://x.org/o> .\r", [f"{S} {P} <http://x.org/o> ."]),
        (f'{S} {P} "o"  .', [f'{S} {P} "o" .']),
        (f"{S} {P}  .", (2, "line 2: object must be an IRI, literal, or blank node")),
        (f"{S} {P} <> .", (2, "line 2: invalid IRI: ''")),
        (f'{S} {P} "o"^^<> .', (2, "line 2: invalid IRI: ''")),
        (f'{S} {P} "a\\', (2, "line 2: dangling escape")),
        (f'{S} {P} "\\u12', (2, "line 2: truncated \\u escape")),
        (f'{S} {P} "a"^^x .', (2, "line 2: datatype must be an IRI")),
    ])
    def test_noncanonical_lines_read_as_before(self, line, expected):
        text = "# first\n" + line + "\n"
        assert outcome(parse, text) == outcome(scanner_parse, text) == expected

    def test_random_token_lines_read_as_before(self):
        # each line twice around a canonical one, so the second reading
        # meets tokens the first already put in the token table
        frags = [S, P, "<a b>", "<>", "_:b", "_:", "_:bé", '"a"', '"a b"', '"a ."', '"a"@en-GB',
                 '"a"@', '"a"^^<http://x.org/d>', '"a"^^<>', '"a\\"b"', '"', ".", " ", "\t", "\r", "#",
                 '"x"^^<http://x.org/"q>', '"a"b"', "<http://x.org/o>.", *RULE_EDGE_TOKENS]
        rng = random.Random(29)
        for _ in range(3000):
            words = (rng.choice(frags) + rng.choice(["", " ", " "]) for _ in range(rng.randrange(1, 7)))
            line = "".join(words) + rng.choice(["", " ."])
            text = f'# first\n{line}\n{S} {P} "a" .\n{line}\n'
            assert outcome(parse, text) == outcome(scanner_parse, text), line

    def test_datatype_iri_may_hold_a_quote(self, scanned):
        line = f'{S} {P} "a"^^<http://x.org/"q> .'
        assert single(line).object == literal("a", 'http://x.org/"q')
        assert scanned == []

    def test_equal_tokens_share_one_term(self):
        text = (
            f"{S} {P} <http://x.org/o> .\n"
            f"<http://x.org/o> {P} {S} .\n"
            f'{S} <http://x.org/q> "v" .\n'
            f'<http://x.org/o> {P} "v" .\n'
            f"_:b {P} _:b .\n"
        )
        seen: dict = {}
        for t in parse(text):
            for term in (t.subject, t.predicate, t.object):
                seen.setdefault(term, set()).add(id(term))
        assert len(seen) == 6
        assert all(len(ids) == 1 for ids in seen.values())


class TestFastPathEdges:
    """Canonical lines the token table must read as the scanner does."""

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["subject", "predicate", "object"])
    @pytest.mark.parametrize("token", RULE_EDGE_TOKENS)
    def test_rule_edge_tokens_read_as_before(self, token, position):
        terms = [S, P, "<http://x.org/o>"]
        terms[position] = token
        line = " ".join(terms) + " ."
        text = f'# first\n{line}\n{S} {P} "a" .\n{line}\n'
        assert outcome(parse, text) == outcome(scanner_parse, text)

    def test_crlf_lines_take_the_fast_path(self, scanned):
        text = serialize(labelled_store(50))
        crlf = parse(text.replace("\n", "\r\n"))
        assert scanned == []
        assert serialize(crlf) == serialize(parse(text)) == text


class TestCollector:
    """``parse`` pauses the cyclic collector and leaves it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text,fails", [
        (f'{S} {P} <http://x.org/o> .\n{S} {P} "a\\tb" .\n', False),
        (f'{S} {P} <http://x.org/o> .\n{S} {P} "o" . extra\n', True),
    ], ids=["parsed", "parse-error"])
    def test_collector_state_restored(self, monkeypatch, enabled, text, fails):
        during = []

        def spy(line: str, line_no: int) -> Triple:
            during.append(gc.isenabled())
            return parse_triple_line(line, line_no)

        monkeypatch.setattr(ntriples, "parse_triple_line", spy)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(NTriplesParseError):
                    parse(text)
            else:
                assert len(parse(text)) == 2
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]  # the second line, scanned with the collector paused


class TestSerialize:
    def test_sorted_and_terminated(self):
        store = parse(
            '<http://x.org/b> <http://x.org/p> "2" .\n'
            '<http://x.org/a> <http://x.org/p> "1" .\n'
        )
        text = serialize(store)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert all(line.endswith(" .") for line in lines)
        assert text.endswith("\n")

    @given(st.lists(_TRIPLES, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sorted_lines(self, triples):
        store = TripleStore()
        store.add_all(triples)
        assert serialize(store) == "".join(sorted(t.ntriples() + "\n" for t in store))

    def test_empty_store(self):
        store = parse("")
        assert serialize(store) == ""

    def test_canonical_fixed_point(self):
        text = (
            '<http://x.org/a> <http://x.org/p> "x\\ny" .\n'
            '<http://x.org/b> <http://x.org/p> "hei"@no .\n'
        )
        assert serialize(parse(text)) == text
        assert serialize(parse(serialize(parse(text)))) == text


class TestRoundTrip:
    def test_random_stores_round_trip(self):
        # equal indexes, and a one-member leaf is a 1-tuple on both sides,
        # so the shape the query paths read cannot change unseen
        rng = random.Random(17)
        for _ in range(200):
            store = helpers.random_store(rng, 40)
            parsed = parse(serialize(store))
            assert parsed == store and parsed._pos == store._pos
            for index in (parsed._spo, parsed._pos, store._spo, store._pos):
                for leaf in (leaf for leaves in index.values() for leaf in leaves.values()):
                    assert type(leaf) is (tuple if len(leaf) == 1 else set)

    # a str or None in any position: a str object was stored, and serialize then failed
    @given(st.lists(st.tuples(*[st.one_of(_ANY_TERMS, st.sampled_from(["http://x/a", None]))] * 3), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_every_graph_the_store_accepts_round_trips(self, triples):
        store = TripleStore()
        for t in triples:
            size, text = len(store), serialize(store)
            terms = all(type(x) is Term for x in t)
            try:
                store.add(t)
            except ValueError:
                assert not terms or t[0].is_literal() or not t[1].is_iri()
                assert (len(store), serialize(store)) == (size, text)
            else:
                assert terms and not t[0].is_literal() and t[1].is_iri()
            assert parse(serialize(store)) == store

    def test_serialize_parse_serialize_stable(self):
        rng = random.Random(19)
        for _ in range(50):
            store = helpers.random_store(rng, 40)
            text = serialize(store)
            assert serialize(parse(text)) == text


class TestLineBreaks:
    @pytest.mark.parametrize("ch", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_separator_in_literal_round_trips(self, ch):
        store = TripleStore()
        store.add(Triple(iri("http://x.org/s"), iri("http://x.org/p"), literal(f"a{ch}b")))
        text = serialize(store)
        assert ch in text  # written verbatim, not escaped
        assert parse(text) == store

    def test_lone_surrogate_literal_round_trips(self, tmp_path):
        # the scanner reads \uD800 as U+D800, which UTF-8 cannot encode raw
        line = '<http://x.org/s> <http://x.org/p> "x\\uD800y" .\n'
        store = parse(line)
        assert next(iter(store)).object == literal("x\ud800y")
        path = tmp_path / "g.nt"
        ntriples.write_file(store, path)
        assert path.read_text(encoding="utf-8") == line
        assert parse(path.read_text(encoding="utf-8")) == store

    @pytest.mark.parametrize("line", [
        "<http://x.org/s\ud800> <http://x.org/p> <http://x.org/o> .",
        '<http://x.org/s> <http://x.org/p> "x"^^<http://x.org/dt\udc00> .',
    ], ids=["iri", "datatype"])
    def test_lone_surrogate_iri_fails_on_read_with_its_line(self, line):
        # UTF-8 cannot encode it, so a store that held it could not be written
        with pytest.raises(NTriplesParseError, match=r"^line 2: invalid IRI: ") as err:
            parse(f"<http://x.org/s> <http://x.org/p> <http://x.org/o> .\n{line}\n")
        assert err.value.line == 2

    def test_crlf_line_endings(self):
        store = parse('<http://x.org/s> <http://x.org/p> "o" .\r\n_:a <http://x.org/p> _:b .\r\n')
        assert len(store) == 2

    def test_line_numbers_count_newlines_only(self):
        text = '<http://x.org/s> <http://x.org/p> "a\u2028b" .\n<http://x.org/s> oops .\n'
        with pytest.raises(NTriplesParseError) as err:
            parse(text)
        assert err.value.line == 2


class TestFiles:
    def test_write_and_read_file(self, tmp_path):
        store = parse('<http://x.org/s> <http://x.org/p> "o" .\n')
        path = tmp_path / "g.nt"
        ntriples.write_file(store, path)
        assert parse(path.read_text(encoding="utf-8")) == store
        assert path.read_bytes() == b'<http://x.org/s> <http://x.org/p> "o" .\n'

    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_write_file_equals_serialize(self, tmp_path, size):
        store = labelled_store(size)
        path = tmp_path / "g.nt"
        ntriples.write_file(store, path)
        assert path.read_bytes() == serialize(store).encode("utf-8")
        assert len(path.read_bytes().splitlines()) == size

    @pytest.mark.parametrize("write", [
        lambda path: ntriples.write_file(parse('<http://x.org/s> <http://x.org/p> "new" .\n'), path),
        lambda path: ntriples.write_file(labelled_store(5), path),
        lambda path: ntriples.write_text(path, "new text\n" * 100),
    ], ids=["write_file", "write_file_chunks", "write_text"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "g.nt"
        path.write_text("previous\n")
        helpers.fail_writes_in(monkeypatch, tmp_path)
        with pytest.raises(OSError):
            write(path)
        monkeypatch.undo()
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["g.nt"]

    def test_write_failing_after_some_chunks_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.nt"
        path.write_text("previous\n")
        real_open = builtins.open
        writes = []

        class ThirdWriteFails:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                writes.append(len(text))
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self._fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def flaky_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return ThirdWriteFails(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", flaky_open)
        with pytest.raises(OSError):
            ntriples.write_file(labelled_store(5), path)
        monkeypatch.undo()
        assert len(writes) == 3
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["g.nt"]

    def test_write_file_never_holds_the_whole_text(self, tmp_path):
        store = labelled_store(20_000)
        path = tmp_path / "g.nt"
        tracemalloc.start()
        try:
            ntriples.write_file(store, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size
