"""External identifier bridging: CAS and NCBI ids to IRIs, sameAs links."""

import re
from collections import namedtuple

from .graph import DIGIT, TripleStore, ValidationError, read_tsv_rows
from .ns import ET, NCBI, OWL_SAMEAS

_CAS = re.compile(rf"({DIGIT}{{2,7}})-({DIGIT}{{2}})-({DIGIT})\Z")
_NCBI_ID = re.compile(rf"[1-9]{DIGIT}*\Z")


class InvalidCasError(ValidationError):
    pass


class InvalidNcbiIdError(ValidationError):
    pass


def validate_cas(cas: str) -> bool:
    """Check CAS shape (2-7 digits, 2 digits, check digit) and checksum.

    The check digit equals the sum of the other digits, each weighted
    by its position counted from the right (check digit excluded),
    modulo 10.
    """
    m = _CAS.fullmatch(cas.strip())
    if not m:
        return False
    body = m.group(1) + m.group(2)
    check = int(m.group(3))
    total = sum(int(d) * i for i, d in enumerate(reversed(body), 1))
    return total % 10 == check


def chemical_iri_text(cas: str) -> str:
    """Chemical IRI text from a CAS number, hyphens dropped; not validated."""
    return f"{ET}chemical/{cas.replace('-', '')}"


def cas_to_iri(cas: str) -> str:
    """Chemical IRI from a valid hyphenated CAS number (hyphens dropped)."""
    if not validate_cas(cas):
        raise InvalidCasError(f"invalid CAS number: {cas!r}")
    return chemical_iri_text(cas.strip())


def capitalized_local_name(text: str) -> str:
    """IRI local name of a rank or level: stripped, first letter upper-cased, spaces to underscores."""
    text = text.strip()
    return (text[:1].upper() + text[1:]).replace(" ", "_")


def taxon_iri_text(taxon_id: int | str) -> str:
    """NCBI taxon IRI text from a taxon id; not validated."""
    return f"{NCBI}taxon/{taxon_id}"


def ncbi_id_to_iri(taxon_id: str) -> str:
    text = str(taxon_id).strip()
    if not _NCBI_ID.fullmatch(text):
        raise InvalidNcbiIdError(f"invalid NCBI taxon id: {taxon_id!r}")
    return taxon_iri_text(text)


IdPair = namedtuple("IdPair", "external_id external_iri")

# The local-IRI rule of each ``bridge --rewrite`` name; the store's prefix
# map resolves what a rule returns, so "verbatim" takes an IRI or a curie.
REWRITE_RULES = {"cas": cas_to_iri, "ncbi": ncbi_id_to_iri, "verbatim": str}


def parse_pairs(text: str) -> list[IdPair]:
    """Read (external-id, external-iri) rows from TSV text."""
    return read_tsv_rows(text, "pair table", 2, IdPair, at_least=True)


def construct_sameas(
    pairs: list[IdPair],
    rewrite: str,
    store: TripleStore,
) -> tuple[int, list[str]]:
    """Link local IRIs to external ones with owl:sameAs.

    ``rewrite`` names the local-IRI rule in ``REWRITE_RULES``. Bad pairs
    are collected as error strings; the remaining pairs are still
    emitted. Returns (triples added, errors); the count stays because
    perfbench/tracer.py reads the errors as ``result[1]``.
    """
    if rewrite not in REWRITE_RULES:
        raise ValueError(f"unknown rewrite rule: {rewrite!r}")
    rule, resolve = REWRITE_RULES[rewrite], store.prefixes.resolve
    added = 0
    errors: list[str] = []
    for pair in pairs:
        try:
            added += store.add((resolve(rule(pair.external_id)), OWL_SAMEAS, resolve(pair.external_iri)))
        except ValueError as exc:
            errors.append(f"{pair.external_id}: {exc}")
    return added, errors
