"""Species trait ingestion from TSV with glossary-backed value resolution.

Rows are (subject, property, value, kind), ``kind`` one of ``iri``,
``literal`` or ``glossary``. Each IRI cell, a full IRI or a curie, is read
into its checked IRI term by ``PrefixMap.resolve``; a glossary value maps
through a (term, iri) table to its IRI term. Each row becomes one triple.
"""

import re
from collections import namedtuple

from .graph import (
    LANG_TAG, CheckedRecord, PrefixMap, Term, TripleStore, ValidationError, literal,
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
    """One trait row: subject and property IRI terms, the value as inserted, its kind.

    An ``iri`` or ``literal`` row's value is its object ``Term``; a
    ``glossary`` row's is the lexical form that keys the glossary.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, property: Term, value: Term | str, kind: str) -> "TraitRow":
        if kind not in _KINDS:
            raise ValueError(f"unknown trait value kind: {kind!r}")
        return tuple.__new__(cls, (subject, property, value, kind))


def load_glossary(text: str, prefixes: PrefixMap) -> dict[str, Term]:
    """Each (term, iri) row's term mapped to its IRI term; the iri may be a curie, no term may repeat."""
    rows = read_tsv_rows(text, "glossary", 2, lambda term, target: (term, prefixes.resolve(target)),
                         at_least=True)
    unique_keys([term for term, _ in rows], "glossary", "term")
    return dict(rows)


def parse_traits(text: str, prefixes: PrefixMap) -> list[TraitRow]:
    """Trait rows with every IRI cell resolved and each value built, so a bad cell names its line."""
    values = {"iri": prefixes.resolve, "literal": lambda cell: parse_literal_value(cell, prefixes)}
    return read_tsv_rows(text, "trait table", 4, lambda subject, prop, value, kind: TraitRow(
        prefixes.resolve(subject), prefixes.resolve(prop), values.get(kind, _lexical_form)(value), kind))


def parse_literal_value(text: str, prefixes: PrefixMap) -> Term:
    """Literal from column syntax: "lex", "lex"@lang, "lex"^^<dt>, "lex"^^curie, or bare text."""
    m = _LITERAL_SYNTAX.fullmatch(text)
    if not m:
        return literal(text)
    lex, lang, datatype = m.groups()
    if datatype:
        datatype = datatype.strip()
        if datatype.startswith("<") and datatype.endswith(">"):
            datatype = datatype[1:-1]
        else:
            datatype = prefixes.resolve(datatype).value
        return literal(lex, datatype)
    return literal(lex, language=lang)


def _lexical_form(value: str) -> str:
    m = _LITERAL_SYNTAX.fullmatch(value)
    return m.group(1) if m else value


def ingest_traits(rows: list[TraitRow], glossary: dict[str, Term], store: TripleStore) -> None:
    """Emit one triple per row; glossary terms become IRI objects.

    All glossary terms are looked up first, so a batch with unknown
    terms fails listing them all and emits nothing.
    """
    unresolved = {row.value for row in rows if row.kind == "glossary" and row.value not in glossary}
    if unresolved:
        raise UnresolvedGlossaryError(sorted(unresolved))
    for row in rows:
        store.add((row.subject, row.property, glossary[row.value] if row.kind == "glossary" else row.value))
