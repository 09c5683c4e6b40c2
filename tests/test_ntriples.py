import random

import pytest

import helpers
from ecokg import ntriples
from ecokg.graph import Triple, TripleStore, blank, iri, literal
from ecokg.ntriples import NTriplesParseError, parse, serialize


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

    def test_unknown_escape(self):
        with pytest.raises(NTriplesParseError):
            parse('<http://x.org/s> <http://x.org/p> "\\q" .\n')


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
        rng = random.Random(17)
        for _ in range(200):
            store = helpers.random_store(rng, 40)
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
        again = ntriples.read_file(path)
        assert again == store
        assert path.read_bytes() == b'<http://x.org/s> <http://x.org/p> "o" .\n'

    @pytest.mark.parametrize("write", [
        lambda path: ntriples.write_file(parse('<http://x.org/s> <http://x.org/p> "new" .\n'), path),
        lambda path: ntriples.write_text(path, "new text\n" * 100),
    ], ids=["write_file", "write_text"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "g.nt"
        path.write_text("previous\n")
        helpers.fail_writes_in(monkeypatch, tmp_path)
        with pytest.raises(OSError):
            write(path)
        monkeypatch.undo()
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["g.nt"]
