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


# Lines for the property below, each tagged with what ``parse`` does with it
# when it ends in the text's terminator: reads it on the fast path ("fast"),
# hands it to the scanner ("scan"), skips it ("skip"), or fails on it ("bad").
_FAST_LINES = st.builds(
    lambda s, p, o: ("fast", f"{s} {p} {o} ."),
    st.sampled_from([S, "_:b", "<http://x.org/o>"]),
    st.sampled_from([P, "<http://x.org/q>"]),
    st.one_of(
        st.sampled_from([S, "_:b"]),
        st.builds(lambda lex, suffix: f'"{lex}"{suffix}', st.text(alphabet="a .é\r\x85\u2028", max_size=5),
                  st.sampled_from(["", "@en", "@en-GB", "^^<http://x.org/d>"])),
    ),
)
_SCANNED_LINES = st.one_of(
    st.builds(lambda line, gap: ("scan", line[1].replace(" ", gap, 1)), _FAST_LINES,
              st.sampled_from(["\t", "  ", " \t"])),
    st.builds(lambda line, edge: ("scan", edge.replace("LINE", line[1])), _FAST_LINES,
              st.sampled_from(["  LINE", "LINE\t", "LINE ", "\tLINE"])),
    st.sampled_from([f'{S} {P} "a\\tb" .', f'{S} {P} "\\u00e9\\U0001F600" .', f'_:b {P} "a\\"b"@en .',
                     f'{S} {P} "o".', f"{S} {P} <http://x.org/o>\t."]).map(lambda line: ("scan", line)),
)
_SKIPPED_LINES = st.sampled_from(["", "  ", "\t", "# c", "# c .", "  # a\rb .", "# x\x85y\u2028z", "#a <b> <c> ."])
_BAD_LINES = st.sampled_from([f'{S} {P} "x', f'{S} {P} " .', f'"a" {P} {S} .', f'{S} _:b "o" .', f"{S} {P} .",
                              f"{S} {P} <http://x.org/o> . x", f'{S} {P} "\\q" .', "<a b> <c> <d> ."])


@st.composite
def _mixed_texts(draw) -> tuple[str, list[str]]:
    """A text of fast, scanned, skipped and bad lines, and the lines ``parse`` must scan if it reads.

    Most lines end in the text's own line ending, some in the other one,
    and the last line may have none.
    """
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    odd = "\r\n" if eol == "\n" else "\n"
    kinds = st.one_of(_FAST_LINES, _FAST_LINES, _SCANNED_LINES, _SKIPPED_LINES.map(lambda line: ("skip", line)),
                      _BAD_LINES.map(lambda line: ("bad", line)))
    lines = draw(st.lists(st.tuples(kinds, st.sampled_from([eol, eol, eol, odd])), min_size=1, max_size=12))
    if draw(st.booleans()):
        lines[-1] = (lines[-1][0], "")
    # the first line's ending is the terminator's; a last line with no newline takes the fast path too
    ending = "\r\n" if lines[0][1] == "\r\n" else "\n"
    scan = [line for (kind, line), end in lines if kind == "scan" or kind == "fast" and end not in (ending, "")]
    return "".join(line + end for (_, line), end in lines), scan


class TestPieces:
    """``parse`` splits the text at each line's terminator once and reads as the scanner does."""

    def test_a_literal_cannot_span_two_lines(self):
        # split at " .\n", the two lines are one piece that a literal token could cover whole
        text = f'{S} {P} "x\n{S} {P} " .\n'
        assert outcome(parse, text) == outcome(scanner_parse, text) == (1, "line 1: unterminated string literal")

    @given(_mixed_texts())
    @settings(max_examples=500, deadline=None)
    def test_mixed_texts_read_as_before(self, case):
        text, scan = case
        seen: list[str] = []

        def spy(line: str, line_no: int) -> Triple:
            seen.append(line)
            return parse_triple_line(line, line_no)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ntriples, "parse_triple_line", spy)
            got = outcome(parse, text)
        assert got == outcome(scanner_parse, text)
        if type(got) is list:
            assert seen == scan

    @pytest.mark.parametrize("eol,odd", [("\r\n", "\n"), ("\n", "\r\n")],
                             ids=["crlf-with-an-lf-line", "lf-with-a-crlf-line"])
    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_a_line_ending_unlike_the_first_is_scanned(self, scanned, eol, odd, at):
        lines = serialize(labelled_store(6)).split("\n")[:-1]
        text = "".join(line + (odd if i == at else eol) for i, line in enumerate(lines))
        got = outcome(parse, text)
        # the terminator is the first line's, so an odd first line makes every other line odd
        assert scanned == ([lines[at]] if at else lines[1:])
        assert got == outcome(scanner_parse, text) == sorted(lines)

    def test_a_crlf_load_copies_no_text(self):
        text = serialize(labelled_store(2000))
        crlf = text.replace("\n", "\r\n")
        peaks = []
        for t in (text, crlf):
            tracemalloc.start()
            try:
                parse(t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a second copy of the text, such as a replace of "\r\n", would add len(crlf) to the peak
        assert peaks[1] - peaks[0] < len(crlf) // 4


def test_program_outputs_take_the_fast_path(pipeline_dir, scanned):
    """Only the lines of ``kg.nt`` and the part files that hold an escape reach the scanner."""
    paths = sorted(pipeline_dir.glob("*.nt"))
    assert "kg.nt" in [path.name for path in paths] and len(paths) > 1
    for path in paths:
        text = path.read_text(encoding="utf-8")
        scanned.clear()
        parse(text)
        assert scanned == [line for line in text.split("\n") if "\\" in line], path.name


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

    # a str or None in any position: a str object was stored, and serialize then failed.
    # Each drawn triple is added again with the position ``twin`` names made a plain
    # tuple: one equal to a stored term passed as that term's index key and was stored.
    @given(st.lists(st.tuples(*[st.one_of(_ANY_TERMS, st.sampled_from(["http://x/a", None]))] * 3,
                              st.sampled_from([None, 0, 1, 2])), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_every_graph_the_store_accepts_round_trips(self, items):
        store = TripleStore()
        for *drawn, twin in items:
            tries = [tuple(drawn)]
            if twin is not None and type(drawn[twin]) is Term:
                drawn[twin] = tuple(drawn[twin])
                tries.append(tuple(drawn))
            for t in tries:
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
