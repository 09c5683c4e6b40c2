"""Line-oriented N-Triples reading and writing.

One triple per line, terminated by `` .``. IRIs sit in angle brackets,
blank nodes are ``_:label``, literals are double-quoted with ``\\"``,
``\\\\``, ``\\n``, ``\\r``, ``\\t`` escapes plus ``\\uXXXX`` for other
control characters and lone surrogates. Serialization sorts lines so
equal stores always produce byte-identical text. The reader splits the
text at each `` .\\n`` terminator, and lines end at ``\\n`` only (one
trailing ``\\r`` is dropped), so a literal holding U+0085, U+2028 or
U+2029, which the serializer writes verbatim, reads back unchanged.
"""

import gc
import os
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .graph import (
    ALNUM, BLANK, BLANK_LABEL, HEX_DIGIT, IRI, IRI_TEXT, LANG_TAG, LITERAL, PrefixMap, Term, TripleStore,
    blank, iri, is_content_line, literal
)

_UNESCAPES = {
    't': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f',
    '"': '"', "'": "'", '\\': '\\',
}


# One term token in the shape ``serialize`` writes: an IRI, a blank label, or a literal whose lexical
# form holds no quote, backslash or newline, so its closing quote is the first after the opening one (a
# datatype IRI may hold ``"``) and no token spans two lines. Each part is matched by its term's rule, so
# every token it accepts is valid. Groups: IRI, blank label, literal lexical form, language, datatype.
_TOKEN = re.compile(rf'<({IRI_TEXT})>|_:({BLANK_LABEL})|"([^"\\\n]*)"(?:@({LANG_TAG})|\^\^<({IRI_TEXT})>)?')
# what the scanner takes as a blank label (isalnum or '_') or language tag (isalnum or '-') to check
_LABEL_RUN = re.compile(r"\w*")
_LANG_RUN = re.compile(rf"(?:{ALNUM}|-)*")
_HEX = re.compile(HEX_DIGIT + "+")


class NTriplesParseError(ValueError):
    """Parse failure; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _LineScanner:
    """A cursor over the terms of one line.

    The query syntaxes build on it. A subclass overrides ``skip_ws`` for
    its whitespace, ``error`` for the exception a failure raises, and
    ``scan_datatype`` for what may follow a literal's ``^^``.
    """

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.pos = 0
        self.line = line_no

    def error(self, message: str) -> ValueError:
        return NTriplesParseError(message, self.line)

    def checked(self, make, *args):
        """``make(*args)``, with a ``ValueError`` it raises reported as ``error``."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> int:
        start = self.pos
        while not self.eof() and self.text[self.pos] in " \t":
            self.pos += 1
        return self.pos - start

    def take_until(self, stop: str, what: str) -> str:
        end = self.text.find(stop, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:end]
        self.pos = end + 1
        return chunk

    def scan_iri(self) -> Term:
        self.pos += 1  # consume '<'
        return self.checked(iri, self.take_until(">", "IRI"))

    def scan_blank(self) -> Term:
        start = self.pos + 2  # past '_:'
        self.pos = _LABEL_RUN.match(self.text, start).end()
        return self.checked(blank, self.text[start:self.pos])

    def scan_string(self) -> str:
        self.pos += 1  # consume '"'
        out: list[str] = []
        while True:
            if self.eof():
                raise self.error("unterminated string literal")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch != "\\":
                out.append(ch)
                continue
            if self.eof():
                raise self.error("dangling escape")
            esc = self.text[self.pos]
            self.pos += 1
            if esc in _UNESCAPES:
                out.append(_UNESCAPES[esc])
            elif esc == "u" or esc == "U":
                width = 4 if esc == "u" else 8
                hexpart = self.text[self.pos:self.pos + width]
                if len(hexpart) < width:
                    raise self.error(f"truncated \\{esc} escape")
                # int(hexpart, 16) alone would also take a sign, "_", spaces and other scripts' digits
                if not _HEX.fullmatch(hexpart) or int(hexpart, 16) > sys.maxunicode:
                    raise self.error(f"bad \\{esc} escape: {hexpart!r}")
                out.append(chr(int(hexpart, 16)))
                self.pos += width
            else:
                raise self.error(f"unknown escape: \\{esc}")

    def scan_datatype(self) -> str:
        """The datatype IRI text after a literal's ``^^``."""
        if self.peek() != "<":
            raise self.error("datatype must be an IRI")
        return self.scan_iri().value

    def scan_literal(self) -> Term:
        lex = self.scan_string()
        datatype = None
        language = None
        if self.peek() == "@":
            start = self.pos + 1
            self.pos = _LANG_RUN.match(self.text, start).end()
            language = self.text[start:self.pos]
        elif self.text.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.scan_datatype()
        return self.checked(literal, lex, datatype, language)

    def scan_subject(self) -> Term:
        ch = self.peek()
        if ch == "<":
            return self.scan_iri()
        if self.text.startswith("_:", self.pos):
            return self.scan_blank()
        raise self.error("subject must be an IRI or blank node")

    def scan_object(self) -> Term:
        ch = self.peek()
        if ch == "<":
            return self.scan_iri()
        if ch == '"':
            return self.scan_literal()
        if self.text.startswith("_:", self.pos):
            return self.scan_blank()
        raise self.error("object must be an IRI, literal, or blank node")


def parse_triple_line(line: str, line_no: int) -> tuple[Term, Term, Term]:
    sc = _LineScanner(line, line_no)
    sc.skip_ws()
    subject = sc.scan_subject()
    if sc.skip_ws() == 0:
        raise sc.error("expected whitespace after subject")
    if sc.peek() != "<":
        raise sc.error("predicate must be an IRI")
    predicate = sc.scan_iri()
    if sc.skip_ws() == 0:
        raise sc.error("expected whitespace after predicate")
    obj = sc.scan_object()
    sc.skip_ws()
    if sc.peek() != ".":
        raise sc.error("missing terminal '.'")
    sc.pos += 1
    sc.skip_ws()
    if not sc.eof():
        raise sc.error("trailing content after '.'")
    return subject, predicate, obj


def parse(text: str, prefixes: PrefixMap | None = None) -> TripleStore:
    """Parse N-Triples text into a fresh store.

    Blank lines and ``#`` comment lines are skipped. Errors report the
    1-based line number. The text is split once at `` .\\n`` (`` .\\r\\n`` if
    the first line ends so); a piece of three tokens in ``serialize``'s
    shape is one line, each distinct token checked by ``_TOKEN`` and built
    into one shared ``Term`` once. Every other line goes through
    ``parse_triple_line``, with the same result. The cyclic collector is
    paused: a load makes no cyclic garbage, yet collections walk the store.
    """
    store = TripleStore(prefixes)
    add = store.add
    terms: dict[str, Term] = {}
    get = terms.get
    pieces = text.split(" .\r\n" if text.endswith("\r", 0, text.find("\n")) else " .\n")
    tail = pieces.pop()  # what follows the last terminator
    if tail.endswith(" ."):  # a last line with no final newline
        pieces.append(tail[:-2])
        tail = ""
    extra = 0  # lines merged into earlier pieces, past each one's first
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n, piece in enumerate(pieces, 1):
            while True:
                try:
                    s, p, o = piece.split(" ", 2)
                    add((get(s) or _token_term(terms, s), get(p) or _token_term(terms, p),
                         get(o) or _token_term(terms, o)))
                    break
                except ValueError:  # not three canonical tokens, or roles the store refuses
                    pass
                head, merged, piece = piece.rpartition("\n")
                if not merged:
                    _scan_lines(add, piece + " .", n + extra)
                    break
                _scan_lines(add, head, n + extra)
                extra += head.count("\n") + 1
        _scan_lines(add, tail, len(pieces) + 1 + extra)
    finally:
        if enabled:
            gc.enable()
    return store


def _scan_lines(add, text: str, line_no: int) -> None:
    """Add each line of ``text``, the first numbered ``line_no``, through the scanner."""
    for n, line in enumerate(text.split("\n"), line_no):
        if is_content_line(line):
            add(parse_triple_line(line.removesuffix("\r"), n))


def _token_term(terms: dict[str, Term], token: str) -> Term:
    """The ``Term`` of a canonical ``token``, kept in ``terms``; ``ValueError`` for any other token."""
    m = _TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(token)
    # the groups of the two kinds that did not match are None
    iri_text, label, lex, language, datatype = m.groups()
    kind = IRI if iri_text else BLANK if label else LITERAL
    term = terms[token] = tuple.__new__(Term, (kind, iri_text or label or lex, datatype, language))
    return term


# Subjects sorted by text, then each subject's lines sorted, is the order
# of all lines sorted: no subject's text is a proper prefix of another's
# followed by a character at or below the space that ends it in a line.
# IRIs hold no ``<>`` and blank labels match ``BLANK_LABEL``.
def _sorted_chunks(store: TripleStore) -> Iterator[str]:
    """The canonical text of ``store``, one subject's sorted lines at a time."""
    # a dict, not a list of (text, index) pairs, so the cyclic collector
    # is not woken by one tracked pair per subject
    by_text = {s.ntriples(): po for s, po in store._spo.items()}
    for s_text in sorted(by_text):
        po = by_text[s_text]
        lines = [f"{s_text} {p.ntriples()} {o.ntriples()} ." for p, objs in po.items() for o in objs]
        lines.sort()
        yield "\n".join(lines) + "\n"


def serialize(store: TripleStore) -> str:
    """Render the store as canonically sorted N-Triples text."""
    return "".join(_sorted_chunks(store))


def _replace_file(path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``chunks`` (UTF-8, ``\\n`` newlines) in one step.

    The chunks go to a temporary file in the same directory, one ``write``
    each, which is then renamed over ``path``; a write that fails partway
    leaves the previous file untouched and no temporary file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step; a failed write keeps the old file."""
    _replace_file(path, (text,))


def write_file(store: TripleStore, path) -> None:
    """Write ``serialize(store)`` to ``path`` one chunk at a time.

    Neither the whole text nor its encoded bytes is ever held at once.
    """
    _replace_file(path, _sorted_chunks(store))
