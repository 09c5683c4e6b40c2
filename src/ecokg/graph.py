"""Terms, triples, prefix handling, and the indexed in-memory triple store.

Terms are immutable and hashable so they can key the store's indexes.
A store keeps two nested indexes (subject-first and predicate-first),
the first of which doubles as the triple set, and answers wildcard
pattern matches in deterministic lexicographic order. Patterns that bind
the object but not the predicate are served by probing the
predicate-first index once per predicate; a graph has few predicates.
"""

import re
from dataclasses import dataclass

IRI = "iri"
LITERAL = "literal"
BLANK = "blank"

_BLANK_LABEL = re.compile(r"[A-Za-z0-9_]+\Z")
_BAD_IRI_CHAR = re.compile(r"[\s<>]")
_LANG_TAG = re.compile(r"[A-Za-z]+(-[A-Za-z0-9]+)*\Z")

# Named escapes for literal serialization; remaining control characters
# (below U+0020, plus U+007F) are written as \uXXXX.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


class FrozenStoreError(RuntimeError):
    """Raised on mutation of a store after freeze()."""


class UnknownPrefixError(ValueError):
    """Raised when a curie uses a prefix that is not bound."""


def escape_literal(text: str) -> str:
    out = []
    for ch in text:
        esc = _ESCAPES.get(ch)
        if esc is not None:
            out.append(esc)
        elif ord(ch) < 0x20 or ord(ch) == 0x7F:
            out.append("\\u%04X" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True, slots=True)
class Term:
    """One RDF-style term: an IRI, a literal, or a blank node.

    ``value`` holds the IRI text, the lexical form, or the blank label.
    Literals carry at most one of ``datatype`` (an IRI) and ``language``.
    """

    kind: str
    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.kind == IRI:
            if not self.value or _BAD_IRI_CHAR.search(self.value):
                raise ValueError(f"invalid IRI: {self.value!r}")
            if self.datatype is not None or self.language is not None:
                raise ValueError("IRI terms carry no datatype or language")
        elif self.kind == LITERAL:
            if self.datatype is not None and self.language is not None:
                raise ValueError("literal cannot have both datatype and language")
            if self.datatype is not None and (
                not self.datatype or _BAD_IRI_CHAR.search(self.datatype)
            ):
                raise ValueError(f"invalid datatype IRI: {self.datatype!r}")
            if self.language is not None and not _LANG_TAG.fullmatch(self.language):
                raise ValueError(f"invalid language tag: {self.language!r}")
        elif self.kind == BLANK:
            if not _BLANK_LABEL.fullmatch(self.value):
                raise ValueError(f"invalid blank node label: {self.value!r}")
            if self.datatype is not None or self.language is not None:
                raise ValueError("blank nodes carry no datatype or language")
        else:
            raise ValueError(f"unknown term kind: {self.kind!r}")

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


def iri(text: str) -> Term:
    return Term(IRI, text)


def literal(lex: str, datatype: str | None = None, language: str | None = None) -> Term:
    return Term(LITERAL, lex, datatype, language)


def blank(label: str) -> Term:
    return Term(BLANK, label)


@dataclass(frozen=True, slots=True)
class Triple:
    """Subject/predicate/object with positional validity checks."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if self.subject.kind == LITERAL:
            raise ValueError("literal cannot be a subject")
        if self.predicate.kind != IRI:
            raise ValueError("predicate must be an IRI")

    def ntriples(self) -> str:
        return f"{self.subject.ntriples()} {self.predicate.ntriples()} {self.object.ntriples()} ."

    def sort_key(self) -> tuple[str, str, str]:
        return (self.subject.ntriples(), self.predicate.ntriples(), self.object.ntriples())


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
        if not namespace or _BAD_IRI_CHAR.search(namespace):
            raise ValueError(f"invalid namespace IRI: {namespace!r}")
        self._ns[prefix] = namespace

    def namespaces(self) -> dict[str, str]:
        return dict(self._ns)

    def expand(self, curie: str) -> Term:
        """Expand ``prefix:local`` to an IRI term."""
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise ValueError(f"not a curie: {curie!r}")
        if prefix not in self._ns:
            raise UnknownPrefixError(f"unknown prefix: {prefix!r}")
        return iri(self._ns[prefix] + local)

    def resolve(self, text: str) -> str:
        """Return IRI text for either a full IRI or a curie."""
        if "://" in text:
            return text
        return self.expand(text).value

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
        """Load bindings from two-column (prefix, namespace) TSV text."""
        pm = cls()
        for line_no, line in enumerate(text.splitlines(), 1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise ValueError(f"prefix table line {line_no}: expected 2 columns")
            pm.bind(parts[0].strip(), parts[1].strip())
        return pm


class TripleStore:
    """Set-semantics triple store with two access-path indexes.

    The subject-first index ``spo`` is the triple set: membership,
    iteration and equality all read it, and a counter tracks its size.
    The predicate-first index ``pos`` serves predicate-bound patterns.
    There is no object-first index: a pattern with only the object bound
    makes one ``pos`` probe per predicate, and one with subject and
    object bound reads the predicates under ``spo[s]``. ``label_index``
    is left to readers that derive data from a frozen store; the store
    itself never reads it.
    """

    __slots__ = ("prefixes", "_spo", "_pos", "_len", "_frozen", "label_index")

    def __init__(self, prefixes: PrefixMap | None = None):
        self.prefixes = prefixes if prefixes is not None else PrefixMap()
        self._spo: dict[Term, dict[Term, set[Term]]] = {}
        self._pos: dict[Term, dict[Term, set[Term]]] = {}
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

    def __contains__(self, t: Triple) -> bool:
        return t.object in self._spo.get(t.subject, {}).get(t.predicate, ())

    def __iter__(self):
        for s, po in self._spo.items():
            for p, objs in po.items():
                for o in objs:
                    yield Triple(s, p, o)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self._spo == other._spo

    def triples(self) -> frozenset[Triple]:
        return frozenset(self)

    def sorted_triples(self) -> list[Triple]:
        return sorted(self, key=Triple.sort_key)

    def add(self, t: Triple) -> bool:
        """Insert one triple; returns False for duplicates."""
        if self._frozen:
            raise FrozenStoreError("store is frozen")
        s, p, o = t.subject, t.predicate, t.object
        objs = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objs:
            return False
        objs.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._len += 1
        return True

    def add_all(self, triples) -> int:
        return sum(1 for t in triples if self.add(t))

    def objects(self, s: Term, p: Term) -> set[Term]:
        return set(self._spo.get(s, {}).get(p, ()))

    def subjects(self, p: Term, o: Term) -> set[Term]:
        return set(self._pos.get(p, {}).get(o, ()))

    def predicates(self) -> list[Term]:
        return list(self._pos)

    def predicate_pairs(self, p: Term) -> set[tuple[Term, Term]]:
        """All (subject, object) pairs under one predicate."""
        return {(s, o) for o, subs in self._pos.get(p, {}).items() for s in subs}

    def match(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> list[Triple]:
        """All triples matching the pattern; None is a wildcard.

        Results are sorted lexicographically by term text so repeated
        calls enumerate identically.
        """
        out: list[Triple]
        if s is not None and p is not None and o is not None:
            out = [Triple(s, p, o)] if o in self._spo.get(s, {}).get(p, ()) else []
        elif s is not None and p is not None:
            out = [Triple(s, p, obj) for obj in self._spo.get(s, {}).get(p, ())]
        elif p is not None and o is not None:
            out = [Triple(sub, p, o) for sub in self._pos.get(p, {}).get(o, ())]
        elif s is not None and o is not None:
            out = [Triple(s, pred, o) for pred, objs in self._spo.get(s, {}).items() if o in objs]
        elif s is not None:
            out = [
                Triple(s, pred, obj)
                for pred, objs in self._spo.get(s, {}).items()
                for obj in objs
            ]
        elif p is not None:
            out = [
                Triple(sub, p, obj)
                for obj, subs in self._pos.get(p, {}).items()
                for sub in subs
            ]
        elif o is not None:
            out = [
                Triple(sub, pred, o)
                for pred, os_ in self._pos.items()
                for sub in os_.get(o, ())
            ]
        else:
            out = list(self)
        out.sort(key=Triple.sort_key)
        return out

    def count(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> int:
        """Number of triples ``match(s, p, o)`` would return, read off the indexes."""
        if s is not None and p is not None and o is not None:
            return int(o in self._spo.get(s, {}).get(p, ()))
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return sum(o in objs for objs in self._spo.get(s, {}).values())
        if s is not None:
            return sum(map(len, self._spo.get(s, {}).values()))
        if p is not None:
            return sum(map(len, self._pos.get(p, {}).values()))
        if o is not None:
            return sum(len(os_.get(o, ())) for os_ in self._pos.values())
        return self._len

    def ntriples_lines(self) -> list[str]:
        """Every triple as an N-Triples line, unsorted.

        Each subject, and each predicate under it, is rendered once for
        all the triples that share it.
        """
        lines = []
        for s, po in self._spo.items():
            s_text = s.ntriples()
            for p, objs in po.items():
                head = f"{s_text} {p.ntriples()} "
                lines.extend([f"{head}{o.ntriples()} ." for o in objs])
        return lines

    def terms(self) -> set[Term]:
        """All subjects and objects (predicates excluded)."""
        return set(self._spo).union(*self._pos.values())
