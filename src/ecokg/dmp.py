"""NCBI taxonomy dump (``.dmp``) parsing and triple emission.

Dump files separate fields with ``<tab>|<tab>`` and terminate each
record with ``<tab>|``. ``nodes.dmp`` supplies the hierarchy (child id,
parent id, rank, division id in columns 1, 2, 3, 5), ``names.dmp`` the
per-taxon names with a name class (columns 1, 2, 4), ``division.dmp``
the division labels (columns 1, 3). Extra columns are ignored.

Taxa become ``ncbi:taxon/{id}`` nodes in an rdfs:subClassOf hierarchy;
the root (its own parent) emits no subClassOf triple. Ranks turn into
``ncbi:{Rank}`` IRIs with the first letter capitalized and spaces
replaced by underscores. Divisions are declared pairwise disjoint.
"""

from collections import namedtuple

from . import idmap
from .graph import (
    DuplicateKeyError, Term, TripleStore, ValidationError, build_row, digits_int, iri, literal, unique_keys
)
from .ns import NCBI, OWL_DISJOINTWITH, RDFS_LABEL, RDFS_SUBCLASSOF

FIELD_SEP = "\t|\t"
RECORD_END = "\t|"
_new = tuple.__new__


class DmpFormatError(ValueError):
    """Malformed record; ``build_row`` names its file and sets ``line``, the 1-based line number."""


class DanglingParentError(ValidationError):
    """nodes.dmp references parent ids that are not defined."""

    def __init__(self, missing: list[int]):
        super().__init__(f"unresolved parent ids: {sorted(missing)}")
        self.missing = sorted(missing)


class DuplicateDivisionError(DuplicateKeyError):
    """division.dmp repeats a division id."""


TaxonNodeRow = namedtuple("TaxonNodeRow", "taxon_id parent_id rank division_id")
TaxonNameRow = namedtuple("TaxonNameRow", "taxon_id name name_class")
DivisionRow = namedtuple("DivisionRow", "division_id label")

# Each record's fields in reading order: (0-based column, id or str).
_NODE_FIELDS = ((0, digits_int), (1, digits_int), (2, str), (4, digits_int))
_NAME_FIELDS = ((0, digits_int), (1, str), (3, str))
_DIVISION_FIELDS = ((0, digits_int), (2, str))


def _read_records(text: str, dump: str, record: type, spec: tuple) -> list:
    """One ``record`` per line of ``dump``, from its stripped ``spec`` fields; fails at the first bad one.

    Lines end at ``\n`` only, with one trailing ``\r`` dropped; blank
    lines are skipped, and any other line must end with ``<tab>|``.
    Errors name the file ``dump`` and the line (``build_row``).
    """
    def row(line: str):
        if not line.endswith(RECORD_END):
            raise DmpFormatError("record does not end with tab-pipe terminator")
        fields = line[: -len(RECORD_END)].split(FIELD_SEP)
        values = []
        try:
            for col, kind in spec:
                values.append(kind(fields[col].strip()))
        except IndexError:
            raise DmpFormatError(f"expected at least {col + 1} fields, got {len(fields)}") from None
        except ValueError:
            raise DmpFormatError(f"field {col + 1} is not an integer: {fields[col].strip()!r}") from None
        # ``spec`` has one entry per record field, so ``_make``'s length check is moot
        return _new(record, values)

    lines = (raw.removesuffix("\r") for raw in text.split("\n"))
    return [build_row(row, dump, n, line) for n, line in enumerate(lines, 1) if line]


def parse_nodes(text: str) -> list[TaxonNodeRow]:
    return _read_records(text, "nodes.dmp", TaxonNodeRow, _NODE_FIELDS)


def parse_names(text: str) -> list[TaxonNameRow]:
    return _read_records(text, "names.dmp", TaxonNameRow, _NAME_FIELDS)


def parse_divisions(text: str) -> list[DivisionRow]:
    return _read_records(text, "division.dmp", DivisionRow, _DIVISION_FIELDS)


def taxon_iri(taxon_id: int | str) -> Term:
    return iri(idmap.taxon_iri_text(taxon_id))


def division_iri(division_id: int) -> Term:
    return iri(f"{NCBI}division/{division_id}")


def rank_iri(rank: str) -> Term:
    # "no rank" -> ncbi:No_rank, "species" -> ncbi:Species
    return iri(NCBI + idmap.capitalized_local_name(rank))


def name_class_iri(name_class: str) -> Term:
    return iri(NCBI + name_class.strip().replace(" ", "_"))


_RANK_PROP = iri(NCBI + "rank")
_DIVISION_PROP = iri(NCBI + "division")


def ingest_nodes(rows: list[TaxonNodeRow], store: TripleStore) -> None:
    """Emit hierarchy, rank, and division-membership triples.

    Taxon ids must not repeat, and every parent id must itself appear
    as a taxon id; either failure aborts the ingest before anything is
    emitted.
    """
    ids = unique_keys([row.taxon_id for row in rows], "nodes.dmp", "taxon id")
    missing = {row.parent_id for row in rows} - ids
    if missing:
        raise DanglingParentError(sorted(missing))
    for row in rows:
        subject = taxon_iri(row.taxon_id)
        if row.parent_id != row.taxon_id:
            store.add((subject, RDFS_SUBCLASSOF, taxon_iri(row.parent_id)))
        store.add((subject, _RANK_PROP, rank_iri(row.rank)))
        store.add((subject, _DIVISION_PROP, division_iri(row.division_id)))


def ingest_names(rows: list[TaxonNameRow], store: TripleStore) -> None:
    """Emit one name-class triple per row, mirrored under rdfs:label."""
    for row in rows:
        subject = taxon_iri(row.taxon_id)
        name = literal(row.name)
        store.add((subject, name_class_iri(row.name_class), name))
        store.add((subject, RDFS_LABEL, name))


def ingest_divisions(rows: list[DivisionRow], store: TripleStore) -> None:
    """Emit division labels plus one disjointness triple per unordered pair.

    k divisions yield k*(k-1)/2 owl:disjointWith triples, directed from
    the numerically smaller id to the larger.
    """
    ids = unique_keys([r.division_id for r in rows], "division.dmp", "division id", DuplicateDivisionError)
    for row in rows:
        store.add((division_iri(row.division_id), RDFS_LABEL, literal(row.label)))
    ordered = sorted(ids)
    for i, low in enumerate(ordered):
        for high in ordered[i + 1:]:
            store.add((division_iri(low), OWL_DISJOINTWITH, division_iri(high)))
