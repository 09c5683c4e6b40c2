"""Species trait ingestion from TSV with glossary-backed value resolution.

Rows are (subject-iri, property, value, kind). ``kind`` is one of
``iri``, ``literal``, or ``glossary``. Glossary values are looked up in
a (term, iri) table and replaced by the mapped IRI; conservation-status
rows flow through the same path. Each row becomes exactly one triple.
"""

import re
from collections import namedtuple

from .graph import (
    LANG_TAG, CheckedRecord, PrefixMap, Term, TripleStore, ValidationError, iri, literal,
    read_tsv_rows, unique_keys
)

_KINDS = ("iri", "literal", "glossary")
_LITERAL_SYNTAX = re.compile(rf'"(.*)"(?:@({LANG_TAG})|\^\^(\S+))?\Z', re.S)


class UnresolvedGlossaryError(ValidationError):
    """Glossary rows whose terms are absent from the glossary."""

    def __init__(self, terms: list[str]):
        super().__init__(f"unresolved glossary terms: {sorted(terms)}")
        self.terms = sorted(terms)


class TraitRow(CheckedRecord, namedtuple("TraitRow", "subject property value kind")):
    """One trait row: subject and property IRI texts, the value column (IRI text for ``iri``), its kind."""

    __slots__ = ()

    def __new__(cls, subject: str, property: str, value: str, kind: str) -> "TraitRow":
        if kind not in _KINDS:
            raise ValueError(f"unknown trait value kind: {kind!r}")
        return tuple.__new__(cls, (subject, property, value, kind))


def load_glossary(text: str, prefixes: PrefixMap) -> dict[str, str]:
    """Read (term, iri) rows; the iri column may be a curie, and no term may repeat."""
    rows = read_tsv_rows(text, "glossary", 2, lambda term, target: (term, prefixes.resolve(target)),
                         at_least=True)
    unique_keys([term for term, _ in rows], "glossary", "term")
    return dict(rows)


def parse_traits(text: str, prefixes: PrefixMap) -> list[TraitRow]:
    """Trait rows with the subject, the property and an ``iri`` row's value resolved to IRI text."""
    resolve = prefixes.resolve
    return read_tsv_rows(text, "trait table", 4, lambda subject, prop, value, kind: TraitRow(
        resolve(subject), resolve(prop), resolve(value) if kind == "iri" else value, kind))


def parse_literal_value(text: str, prefixes: PrefixMap | None = None) -> Term:
    """Literal from column syntax: "lex", "lex"@lang, "lex"^^<dt>, or bare text."""
    m = _LITERAL_SYNTAX.fullmatch(text)
    if not m:
        return literal(text)
    lex, lang, datatype = m.groups()
    if datatype:
        datatype = datatype.strip()
        if datatype.startswith("<") and datatype.endswith(">"):
            datatype = datatype[1:-1]
        elif prefixes is not None:
            datatype = prefixes.resolve(datatype)
        return literal(lex, datatype)
    return literal(lex, language=lang)


def _lexical_form(value: str) -> str:
    m = _LITERAL_SYNTAX.fullmatch(value)
    return m.group(1) if m else value


def ingest_traits(rows: list[TraitRow], glossary: dict[str, str], store: TripleStore) -> None:
    """Emit one triple per row; glossary terms become IRI objects.

    Datatype curies resolve through the store's prefix map. All glossary
    terms are resolved up front so a bad batch emits nothing.
    """
    prefixes = store.prefixes
    unresolved = sorted(
        {
            _lexical_form(row.value)
            for row in rows
            if row.kind == "glossary" and _lexical_form(row.value) not in glossary
        }
    )
    if unresolved:
        raise UnresolvedGlossaryError(unresolved)
    for row in rows:
        if row.kind == "iri":
            obj = iri(row.value)
        elif row.kind == "glossary":
            obj = iri(glossary[_lexical_form(row.value)])
        else:
            obj = parse_literal_value(row.value, prefixes)
        store.add((iri(row.subject), iri(row.property), obj))
