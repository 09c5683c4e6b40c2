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
from collections.abc import Iterator

from . import idmap
from .graph import Term, Triple, TripleStore, ValidationError, iri, literal
from .ns import NCBI, OWL_DISJOINTWITH, RDFS_LABEL, RDFS_SUBCLASSOF

FIELD_SEP = "\t|\t"
RECORD_END = "\t|"


class DmpFormatError(ValueError):
    """Malformed dump record; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DanglingParentError(ValidationError):
    """nodes.dmp references parent ids that are not defined."""

    def __init__(self, missing: list[int]):
        super().__init__(f"unresolved parent ids: {sorted(missing)}")
        self.missing = sorted(missing)


class DuplicateDivisionError(ValidationError):
    pass


TaxonNodeRow = namedtuple("TaxonNodeRow", "taxon_id parent_id rank division_id")
TaxonNameRow = namedtuple("TaxonNameRow", "taxon_id name name_class")
DivisionRow = namedtuple("DivisionRow", "division_id label")


def parse_dmp(text: str) -> Iterator[tuple[int, list[str]]]:
    """Line number (from 1) and raw string fields of each record; blank lines are skipped."""
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.removesuffix("\r")
        if not line:
            continue
        if not line.endswith(RECORD_END):
            raise DmpFormatError("record does not end with tab-pipe terminator", line_no)
        yield line_no, line[: -len(RECORD_END)].split(FIELD_SEP)


def _field(fields: list[str], index: int, line_no: int) -> str:
    if index >= len(fields):
        raise DmpFormatError(f"expected at least {index + 1} fields, got {len(fields)}", line_no)
    return fields[index].strip()


def _int_field(fields: list[str], index: int, line_no: int) -> int:
    text = _field(fields, index, line_no)
    try:
        return int(text)
    except ValueError:
        raise DmpFormatError(f"field {index + 1} is not an integer: {text!r}", line_no) from None


def parse_nodes(text: str) -> list[TaxonNodeRow]:
    rows = []
    for line_no, fields in parse_dmp(text):
        rows.append(
            TaxonNodeRow(
                taxon_id=_int_field(fields, 0, line_no),
                parent_id=_int_field(fields, 1, line_no),
                rank=_field(fields, 2, line_no),
                division_id=_int_field(fields, 4, line_no),
            )
        )
    return rows


def parse_names(text: str) -> list[TaxonNameRow]:
    rows = []
    for line_no, fields in parse_dmp(text):
        rows.append(
            TaxonNameRow(
                taxon_id=_int_field(fields, 0, line_no),
                name=_field(fields, 1, line_no),
                name_class=_field(fields, 3, line_no),
            )
        )
    return rows


def parse_divisions(text: str) -> list[DivisionRow]:
    rows = []
    for line_no, fields in parse_dmp(text):
        rows.append(
            DivisionRow(
                division_id=_int_field(fields, 0, line_no),
                label=_field(fields, 2, line_no),
            )
        )
    return rows


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


def ingest_nodes(rows: list[TaxonNodeRow], store: TripleStore) -> int:
    """Emit hierarchy, rank, and division-membership triples.

    Every parent id must itself appear as a taxon id; unresolved
    parents abort the ingest before anything is emitted.
    """
    ids = {row.taxon_id for row in rows}
    missing = {row.parent_id for row in rows} - ids
    if missing:
        raise DanglingParentError(sorted(missing))
    added = 0
    for row in rows:
        subject = taxon_iri(row.taxon_id)
        if row.parent_id != row.taxon_id:
            added += store.add(Triple(subject, RDFS_SUBCLASSOF, taxon_iri(row.parent_id)))
        added += store.add(Triple(subject, _RANK_PROP, rank_iri(row.rank)))
        added += store.add(Triple(subject, _DIVISION_PROP, division_iri(row.division_id)))
    return added


def ingest_names(rows: list[TaxonNameRow], store: TripleStore) -> int:
    """Emit one name-class triple per row, mirrored under rdfs:label."""
    added = 0
    for row in rows:
        subject = taxon_iri(row.taxon_id)
        name = literal(row.name)
        added += store.add(Triple(subject, name_class_iri(row.name_class), name))
        added += store.add(Triple(subject, RDFS_LABEL, name))
    return added


def ingest_divisions(rows: list[DivisionRow], store: TripleStore) -> int:
    """Emit division labels plus one disjointness triple per unordered pair.

    k divisions yield k*(k-1)/2 owl:disjointWith triples, directed from
    the numerically smaller id to the larger.
    """
    seen: set[int] = set()
    for row in rows:
        if row.division_id in seen:
            raise DuplicateDivisionError(f"duplicate division id: {row.division_id}")
        seen.add(row.division_id)
    added = 0
    for row in rows:
        added += store.add(Triple(division_iri(row.division_id), RDFS_LABEL, literal(row.label)))
    ordered = sorted(seen)
    for i, low in enumerate(ordered):
        for high in ordered[i + 1:]:
            added += store.add(Triple(division_iri(low), OWL_DISJOINTWITH, division_iri(high)))
    return added
