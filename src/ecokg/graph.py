"""Terms, triples, prefix handling, and the indexed in-memory triple store.

Terms and triples are immutable named tuples, hashed and compared by
the tuple's own C code, so they key the store's indexes cheaply.
A store keeps two nested indexes (subject-first and predicate-first),
the first of which doubles as the triple set, and answers wildcard
pattern matches in deterministic lexicographic order, or unsorted as
plain tuples through ``probe``. Patterns that bind
the object but not the predicate are served by probing the
predicate-first index once per predicate; a graph has few predicates.
"""

import re
from collections import Counter, namedtuple
from typing import Callable

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

# The term rules, spelled out here only; with no capturing group, readers' patterns embed them.
IRI_TEXT = r"[^\s<>\ud800-\udfff]+"
BLANK_LABEL = r"[A-Za-z0-9_]+"
LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
# A word character other than "_" is exactly one str.isalnum() accepts.
ALNUM = r"[^\W_]"
# Ids, CAS numbers and escape codes take ASCII digits only, where "\d", str.isdigit()
# and int() also take other scripts' digits.
DIGIT = "[0-9]"
HEX_DIGIT = "[0-9A-Fa-f]"
_IRI_TEXT, _BLANK_LABEL, _LANG_TAG = map(re.compile, (IRI_TEXT, BLANK_LABEL, LANG_TAG))
_new = tuple.__new__

# Named escapes for literal serialization; remaining control characters
# (below U+0020, plus U+007F) and lone surrogates, which UTF-8 cannot
# encode, are written as \uXXXX.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f\x7f\ud800-\udfff]')


class ValidationError(ValueError):
    """Well-formed input that fails a semantic check; the CLI exits 3 on it."""


class DuplicateKeyError(ValidationError):
    """A key repeats in its table, so two records would merge into one node."""


class FrozenStoreError(RuntimeError):
    """Raised on mutation of a store after freeze()."""


class UnknownPrefixError(ValueError):
    """Raised when a curie uses a prefix that is not bound."""


def _escape_char(m: re.Match) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or "\\u%04X" % ord(ch)


def escape_literal(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return _NEEDS_ESCAPE.sub(_escape_char, text)


def digits_int(text: str) -> int:
    """``text`` as an int if it is one or more ASCII digits, the rule ``DIGIT`` spells; else ``ValueError``.

    ``int()`` alone would also take a sign, ``_`` between digits, spaces and other scripts' digits.
    """
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"not ASCII digits: {text!r}")


def ascii_float(text: str) -> float:
    """``float(text)`` for ASCII text without ``_``; ``float()`` alone also takes other scripts' digits."""
    if text.isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"could not convert string to float: {text!r}")


class CheckedRecord:
    """Base of the named-tuple records whose ``__new__`` checks their fields.

    A record lists it before its namedtuple base, so this ``_make`` wins,
    and keeps its own ``__slots__ = ()``, so no instance gains a ``__dict__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*fields)


class Term(CheckedRecord, namedtuple("Term", "kind value datatype language", defaults=(None, None))):
    """One RDF-style term: an IRI, a literal, or a blank node.

    ``value`` holds the IRI text, the lexical form, or the blank label.
    Literals carry at most one of ``datatype`` (an IRI) and ``language``.
    A term is the immutable tuple ``(kind, value, datatype, language)``,
    so hashing and equality are the tuple's own.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: str, datatype: str | None = None,
                language: str | None = None) -> "Term":
        if kind == LITERAL:
            return literal(value, datatype, language)
        if kind == IRI:
            term = iri(value)
        elif kind == BLANK:
            term = blank(value)
        else:
            raise ValueError(f"unknown term kind: {kind!r}")
        if datatype is not None or language is not None:
            what = "IRI terms" if kind == IRI else "blank nodes"
            raise ValueError(f"{what} carry no datatype or language")
        return term

    def is_iri(self) -> bool:
        return self.kind == IRI

    def is_literal(self) -> bool:
        return self.kind == LITERAL

    def is_blank(self) -> bool:
        return self.kind == BLANK

    def ntriples(self) -> str:
        """Render the term in N-Triples syntax."""
        if self.kind == IRI:
            return f"<{self.value}>"
        if self.kind == BLANK:
            return f"_:{self.value}"
        text = f'"{escape_literal(self.value)}"'
        if self.language is not None:
            return f"{text}@{self.language}"
        if self.datatype is not None:
            return f"{text}^^<{self.datatype}>"
        return text


def _valid_iri(text: str) -> bool:
    """Whether ``text`` is non-empty and free of whitespace, '<', '>' and lone surrogates.

    Every character ``IRI_TEXT`` excludes is the space, '<', '>' or
    not printable, so a printable text free of those three passes
    without the regex scan.
    """
    if text.isprintable() and " " not in text and "<" not in text and ">" not in text:
        return text != ""
    return _IRI_TEXT.fullmatch(text) is not None


def iri(text: str) -> Term:
    if not _valid_iri(text):
        raise ValueError(f"invalid IRI: {text!r}")
    return _new(Term, (IRI, text, None, None))


def literal(lex: str, datatype: str | None = None, language: str | None = None) -> Term:
    if datatype is not None:
        if language is not None:
            raise ValueError("literal cannot have both datatype and language")
        if not _valid_iri(datatype):
            raise ValueError(f"invalid datatype IRI: {datatype!r}")
    elif language is not None and not _LANG_TAG.fullmatch(language):
        raise ValueError(f"invalid language tag: {language!r}")
    return _new(Term, (LITERAL, lex, datatype, language))


def blank(label: str) -> Term:
    if not _BLANK_LABEL.fullmatch(label):
        raise ValueError(f"invalid blank node label: {label!r}")
    return _new(Term, (BLANK, label, None, None))


class Triple(namedtuple("Triple", "subject predicate object")):
    """The read-side view of a stored triple; ``TripleStore.add`` checks positions, not this."""

    __slots__ = ()

    def ntriples(self) -> str:
        return f"{self.subject.ntriples()} {self.predicate.ntriples()} {self.object.ntriples()} ."


def is_content_line(line: str) -> bool:
    """Whether a line of a table, query or N-Triples file is neither blank nor a ``#`` comment."""
    head = line.lstrip()
    return head != "" and head[0] != "#"


def build_row(make: Callable, table: str, line_no: int, row):
    """``make(row)`` for the row on line ``line_no`` of ``table``.

    A ``ValueError`` it raises keeps its class and attributes, gains
    "<table> line N: " in front of its message, and gets ``line``, N.
    """
    try:
        return make(row)
    except ValueError as exc:
        exc.args = (f"{table} line {line_no}: {exc}",)
        exc.line = line_no
        raise


def read_tsv_rows(text: str, table: str, columns: int, make: Callable, at_least: bool = False) -> list:
    """``make`` of the first ``columns`` stripped tab-separated fields of each content line.

    Lines end at ``\n`` only; blank lines and ``#`` comment lines are
    skipped. A line needs exactly ``columns`` fields, or at least that
    many with ``at_least``; any other line fails as "<table> line N:
    expected ...", as does a row ``make`` rejects (``build_row``).
    """
    def row(line: str):
        parts = line.split("\t")
        if len(parts) < columns or (len(parts) > columns and not at_least):
            rule = f"at least {columns}" if at_least else columns
            raise ValueError(f"expected {rule} columns, got {len(parts)}")
        return make(*map(str.strip, parts[:columns]))

    return [build_row(row, table, n, ln) for n, ln in enumerate(text.split("\n"), 1) if is_content_line(ln)]


def unique_keys(
    keys: list, table: str, column: str, error: type = DuplicateKeyError, cells: list | None = None
) -> set:
    """The set of ``keys``, which must not repeat; ``error`` names ``table``, ``column`` and the repeats.

    ``cells``, if given, holds the cell each key was minted from; a repeat is then named with its cells.
    """
    unique = set(keys)
    if len(unique) < len(keys):
        repeated = sorted(key for key, n in Counter(keys).items() if n > 1)
        if cells is not None:
            repeated = [(key, *(cell for k, cell in zip(keys, cells) if k == key)) for key in repeated]
        raise error(f"{table}: duplicate {column}: {repeated}")
    return unique


class PrefixMap:
    """Bidirectional curie <-> IRI mapping with longest-namespace compaction."""

    def __init__(self, bindings: dict[str, str] | None = None):
        self._ns: dict[str, str] = {}
        if bindings:
            for prefix, namespace in bindings.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: str) -> None:
        if not prefix or ":" in prefix:
            raise ValueError(f"invalid prefix label: {prefix!r}")
        if not _valid_iri(namespace):
            raise ValueError(f"invalid namespace IRI: {namespace!r}")
        self._ns[prefix] = namespace

    def expand(self, curie: str) -> Term:
        """Expand ``prefix:local`` to an IRI term."""
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise ValueError(f"not a curie: {curie!r}")
        if prefix not in self._ns:
            raise UnknownPrefixError(f"unknown prefix: {prefix!r}")
        return iri(self._ns[prefix] + local)

    def resolve(self, text: str) -> Term:
        """The checked IRI term of ``text``: a full IRI (``://`` in it) or a curie ``expand`` reads."""
        if "://" in text:
            return iri(text)
        return self.expand(text)

    def compact(self, iri_text: str) -> str:
        """Compact to a curie using the longest matching namespace.

        Unregistered IRIs come back unchanged.
        """
        best_prefix = None
        best_len = -1
        for prefix, namespace in self._ns.items():
            if iri_text.startswith(namespace) and len(namespace) > best_len:
                best_prefix, best_len = prefix, len(namespace)
        if best_prefix is None:
            return iri_text
        return f"{best_prefix}:{iri_text[best_len:]}"

    @classmethod
    def from_tsv(cls, text: str) -> "PrefixMap":
        """Load bindings from two-column (prefix, namespace) TSV text; no prefix may repeat."""
        prefixes = cls()

        def bind(prefix: str, namespace: str) -> str:
            prefixes.bind(prefix, namespace)
            return prefix

        unique_keys(read_tsv_rows(text, "prefix table", 2, bind, at_least=True), "prefix table", "prefix")
        return prefixes


class TripleStore:
    """Set-semantics triple store with two access-path indexes.

    The subject-first index ``spo`` is the triple set: membership,
    iteration and equality all read it, and a counter tracks its size.
    The predicate-first index ``pos`` serves predicate-bound patterns.
    There is no object-first index: a pattern with only the object bound
    makes one ``pos`` probe per predicate, and one with subject and
    object bound reads the predicates under ``spo[s]``. ``label_index``
    is left to readers that derive data from a frozen store; the store
    itself never reads it. ``add``, the one way in, checks positions; the
    ``Triple``s that reads hand out are plain views.

    Most index leaves hold one term, kept as the 1-tuple ``(term,)`` at a
    fraction of a set's size; the second distinct insert makes it a
    ``set``. Readers use only ``in``, ``len`` and iteration, alike on both,
    and leaves only grow, so equal stores have equal indexes. A leaf is
    never the bare term: a ``Term`` is a tuple, so iterating it would walk
    its fields.
    """

    __slots__ = ("prefixes", "_spo", "_pos", "_len", "_frozen", "label_index")

    def __init__(self, prefixes: PrefixMap | None = None):
        self.prefixes = prefixes if prefixes is not None else PrefixMap()
        self._spo: dict[Term, dict[Term, tuple[Term] | set[Term]]] = {}
        self._pos: dict[Term, dict[Term, tuple[Term] | set[Term]]] = {}
        self._len = 0
        self._frozen = False
        self.label_index = None

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Make the store immutable; reads stay safe under shared use."""
        self._frozen = True

    def __len__(self) -> int:
        return self._len

    def __contains__(self, t: tuple[Term, Term, Term]) -> bool:
        return t[2] in self._spo.get(t[0], {}).get(t[1], ())

    def __iter__(self):
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield _new(Triple, (s, p, o))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self._spo == other._spo

    def add(self, t: tuple[Term, Term, Term]) -> bool:
        """Insert one ``(s, p, o)``; returns False for duplicates.

        Every position must be a ``Term``, a subject first keying ``spo`` no
        literal and a predicate first keying ``pos`` an IRI; a triple that is
        not raises ``ValueError`` before any index changes.
        """
        if self._frozen:
            raise FrozenStoreError("store is frozen")
        s, p, o = t
        if type(s) is not Term or type(p) is not Term or type(o) is not Term:
            raise ValueError(f"not a triple of terms: {t!r}")
        po = self._spo.get(s)
        os_ = self._pos.get(p)
        if po is None and s.kind == LITERAL:
            raise ValueError("literal cannot be a subject")
        if os_ is None and p.kind != IRI:
            raise ValueError("predicate must be an IRI")
        if po is None:
            po = self._spo[s] = {}
        objs = po.get(p)
        if objs is None:
            po[p] = (o,)
        elif o in objs:
            return False
        elif type(objs) is tuple:
            po[p] = {objs[0], o}
        else:
            objs.add(o)
        if os_ is None:
            os_ = self._pos[p] = {}
        subs = os_.get(o)
        if subs is None:
            os_[o] = (s,)
        elif type(subs) is tuple:
            os_[o] = {subs[0], s}
        else:
            subs.add(s)
        self._len += 1
        return True

    def add_all(self, triples) -> int:
        return sum(1 for t in triples if self.add(t))

    def objects(self, s: Term, p: Term) -> set[Term]:
        return set(self._spo.get(s, {}).get(p, ()))

    def subjects(self, p: Term, o: Term) -> set[Term]:
        return set(self._pos.get(p, {}).get(o, ()))

    def predicate_pairs(self, p: Term) -> set[tuple[Term, Term]]:
        """All (subject, object) pairs under one predicate."""
        return {(s, o) for o, subs in self._pos.get(p, {}).items() for s in subs}

    def probe(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> list[tuple[Term, Term, Term]]:
        """The plain ``(s, p, o)`` tuples matching the pattern; None is a wildcard.

        The one walk of the indexes behind ``match``, in no set order and
        with no ``Triple`` built, for readers that need neither.
        """
        if s is not None:
            po = self._spo.get(s, {})
            if p is not None:
                objs = po.get(p, ())
                if o is not None:
                    return [(s, p, o)] if o in objs else []
                return [(s, p, obj) for obj in objs]
            if o is not None:
                return [(s, pred, o) for pred, objs in po.items() if o in objs]
            return [(s, pred, obj) for pred, objs in po.items() for obj in objs]
        if p is not None:
            os_ = self._pos.get(p, {})
            if o is not None:
                return [(sub, p, o) for sub in os_.get(o, ())]
            return [(sub, p, obj) for obj, subs in os_.items() for sub in subs]
        if o is not None:
            return [(sub, pred, o) for pred, os_ in self._pos.items() for sub in os_.get(o, ())]
        return [(sub, pred, obj) for sub, po in self._spo.items() for pred, objs in po.items() for obj in objs]

    def match(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> list[Triple]:
        """All triples matching the pattern; None is a wildcard.

        ``probe``'s tuples as ``Triple``s, sorted lexicographically by
        term text so repeated calls enumerate identically.
        """
        out = [_new(Triple, t) for t in self.probe(s, p, o)]
        out.sort(key=Triple.ntriples)
        return out

    def count(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> int:
        """Number of triples ``match(s, p, o)`` would return.

        Subject+predicate reads its ``spo`` leaf's size, predicate+object its
        ``pos`` leaf's, the empty pattern ``_len``; any other shape is ``probe``'s length.
        """
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is None and p is None and o is None:
            return self._len
        return len(self.probe(s, p, o))

    def terms(self) -> set[Term]:
        """All subjects and objects (predicates excluded)."""
        return set(self._spo).union(*self._pos.values())
