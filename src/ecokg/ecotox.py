"""ECOTOX ASCII table ingestion: species, chemicals, tests, results.

Source files are pipe-delimited text with a header row. Species rows
carry a taxonomic lineage spread over columns; every column that is not
species_number / common_name / latin_name / ecotox_group is treated as
a lineage level, highest first. Gaps inside a lineage are filled by
``synthesize_lineage`` so every classification chain has the same
depth: an empty level inherits the nearest filled ancestor's name with
the level name appended ("Daphniidae" family, empty genus ->
"Daphniidae genus").

Species leaves are numeric (``et:taxon/5156``) and hang below
name-keyed lineage nodes (``et:taxon/rerio``). Names are cleaned of
placeholder markers ("sp.", "var.", "ssp.", "spp.") and missing-value
shorthands before use.
"""

import logging
import re
from collections import namedtuple
from typing import Callable

from . import idmap
from .graph import (
    ALNUM, DIGIT, Term, Triple, TripleStore, ValidationError, blank, build_row, iri, literal, unique_keys
)
from .ns import (
    ET,
    OWL_DISJOINTWITH,
    RDF_TYPE,
    RDF_VALUE,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    UNIT_UNITS,
    XSD_DECIMAL,
)
from .units import UnitRegistry

log = logging.getLogger(__name__)

MISSING_TOKENS = frozenset({"", "--", "NA", "NR", "/"})
_PLACEHOLDER_WORDS = frozenset({"sp.", "var.", "ssp.", "spp."})

_SPECIES_META_COLUMNS = ("species_number", "common_name", "latin_name", "ecotox_group")
_DECIMAL = re.compile(rf"{DIGIT}+(\.{DIGIT}+)?\Z")
_QUALIFIED = re.compile(r"([<>~=*]+)\s*(.*)\Z")
_DIGITS = re.compile(rf"{DIGIT}+\Z")
# what a name key drops: all but word characters and spaces (which become "_")
_NOT_KEY = re.compile(r"[^\w ]")
# the trailing run of non-alphanumerics that a code drops
_CODE_TAIL = re.compile(rf"(?:(?!{ALNUM}).)+\Z", re.S)
_HAS_ALNUM = re.compile(ALNUM)

TAXON_TYPE = iri(ET + "Taxon")
CHEMICAL_TYPE = iri(ET + "Chemical")
TEST_TYPE = iri(ET + "Test")
RESULT_TYPE = iri(ET + "Result")
RANK_PROP = iri(ET + "rank")
GROUP_PROP = iri(ET + "ecotoxGroup")
COMMON_NAME_PROP = iri(ET + "commonName")
LATIN_NAME_PROP = iri(ET + "latinName")
COMPOUND_PROP = iri(ET + "compound")
SPECIES_PROP = iri(ET + "species")
LIFESTAGE_PROP = iri(ET + "organsimLifestage")
HAS_RESULT_PROP = iri(ET + "hasResult")
ENDPOINT_PROP = iri(ET + "endpoint")
EFFECT_PROP = iri(ET + "effectType")
CONCENTRATION_PROP = iri(ET + "concentration")
QUALIFIER_PROP = iri(ET + "qualifier")


class EmptyLineageError(ValidationError):
    """No lineage level is filled, so nothing can be synthesized."""


class UnresolvedParentError(ValidationError):
    """A species row has no lineage node to attach to."""


class OrphanResultError(ValidationError):
    """Results reference test ids that do not exist."""

    def __init__(self, missing: list[str]):
        super().__init__(f"results reference unknown tests: {sorted(missing)}")
        self.missing = sorted(missing)


class UnknownReferenceError(ValidationError):
    """Tests reference species or chemicals absent from their tables."""

    def __init__(self, missing: list[str]):
        super().__init__(f"tests reference unknown records: {sorted(missing)}")
        self.missing = sorted(missing)


# lineage: (level, name-or-empty) pairs, highest first. The parsers pass
# fields by position: keywords make a namedtuple about twice as slow to build.
SpeciesRecord = namedtuple("SpeciesRecord", "number common_name latin_name group lineage")
ChemicalRecord = namedtuple("ChemicalRecord", "cas name group cas_valid")
TestRecord = namedtuple("TestRecord", "test_id cas species_number reference_number lifestage",
                        defaults=(None, None))
ResultRecord = namedtuple("ResultRecord", "result_id test_id endpoint concentration unit effect",
                          defaults=(None, None, None))


def read_table(text: str, table: str, required: tuple[str, ...], make: Callable) -> list:
    """``make`` of each dict row of a pipe-delimited ``table``, keyed in header order, every cell stripped.

    Lines end at ``\n`` only and blank lines are skipped. The first line is
    the header, naming no column twice and every ``required`` one; each later
    line needs one field per column. The first required column is the key,
    whose cells must not repeat. Each error names ``table``, and one in a row
    its line (``build_row``); ``make`` runs only after all these checks.
    """
    lines = [(n, ln) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{table}: empty table")
    header = [col.strip() for col in lines[0][1].split("|")]
    unique_keys(header, table, "column", ValueError)

    def cells(line: str) -> dict[str, str]:
        fields = line.split("|")
        if len(fields) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
        return dict(zip(header, map(str.strip, fields)))

    rows = [(line_no, build_row(cells, table, line_no, line)) for line_no, line in lines[1:]]
    for col in required:
        if col not in header:
            raise ValueError(f"{table} table missing column {col!r}")
    unique_keys([row[required[0]] for _, row in rows], table, required[0])
    return [build_row(make, table, line_no, row) for line_no, row in rows]


def _cell(row: dict[str, str], column: str) -> str | None:
    """A row's cell, or None when the column is absent or the cell holds a missing-value token."""
    cell = row.get(column, "")
    return None if cell in MISSING_TOKENS else cell


def _name_cell(row: dict[str, str], column: str) -> str | None:
    """``_cell`` of a cell that keys a node; one with no letter or digit would key the bare namespace."""
    cell = _cell(row, column)
    return cell if cell is not None and _HAS_ALNUM.search(cell) else None


def clean_species_name(raw: str) -> str | None:
    """Drop placeholder words and missing-value shorthands.

    Returns None when nothing meaningful remains.
    """
    cleaned = " ".join(w for w in raw.split() if w.lower() not in _PLACEHOLDER_WORDS)
    return None if cleaned in MISSING_TOKENS else cleaned


def sanitize_name(name: str) -> str:
    """Lineage-node key: lowercase, spaces to underscores, rest dropped."""
    # lowered before filtering: ``"İ".lower()`` adds a combining mark
    return _sanitize_keep_case(name.lower())


def _sanitize_keep_case(name: str) -> str:
    return _NOT_KEY.sub("", name.strip()).replace(" ", "_")


def _level_term(level: str) -> Term:
    return iri(ET + idmap.capitalized_local_name(level))


def synthesize_lineage(record: SpeciesRecord) -> SpeciesRecord:
    """Fill lineage gaps below the highest filled level.

    Each empty level takes the previous level's (possibly synthesized)
    name with its own level name appended, so all chains reach the
    species level with a uniform number of steps.
    """
    names = [name for _, name in record.lineage]
    filled = [i for i, name in enumerate(names) if name]
    if not filled:
        raise EmptyLineageError(f"species {record.number}: no lineage level is filled")
    start = filled[0]
    completed = list(names)
    for i in range(start + 1, len(completed)):
        if not completed[i]:
            completed[i] = f"{completed[i - 1]} {record.lineage[i][0]}"
    lineage = tuple((level, completed[i]) for i, (level, _) in enumerate(record.lineage))
    return record._replace(lineage=lineage)


def _species(row: dict[str, str]) -> SpeciesRecord:
    """One species row; its other columns are lineage levels, in header order."""
    number = row["species_number"]
    if not _DIGITS.fullmatch(number):
        raise ValueError(f"bad species_number: {number!r}")
    lineage = [(level, _name_cell(row, level) or "") for level in row if level not in _SPECIES_META_COLUMNS]
    return SpeciesRecord(number, clean_species_name(row["common_name"]), clean_species_name(row["latin_name"]),
                         _name_cell(row, "ecotox_group"), tuple(lineage))


def parse_species(text: str) -> list[SpeciesRecord]:
    return read_table(text, "species", _SPECIES_META_COLUMNS, _species)


def species_iri(number: str) -> Term:
    return iri(f"{ET}taxon/{number}")


def lineage_node_iri(name: str) -> Term:
    return iri(f"{ET}taxon/{sanitize_name(name)}")


def group_iri(group: str) -> Term:
    return iri(f"{ET}group/{_sanitize_keep_case(group)}")


def chemical_iri(cas: str) -> Term:
    return iri(idmap.chemical_iri_text(cas))


def test_iri(test_id: str) -> Term:
    return iri(f"{ET}test/{test_id}")


def result_iri(result_id: str) -> Term:
    return iri(f"{ET}result/{result_id}")


def _group_disjointness(groups: set[str], store: TripleStore) -> None:
    """Pairwise disjointness, emitted in both directions."""
    ordered = sorted(groups)
    for a in ordered:
        for b in ordered:
            if a != b:
                store.add((group_iri(a), OWL_DISJOINTWITH, group_iri(b)))


def ingest_species(records: list[SpeciesRecord], store: TripleStore) -> None:
    """Emit classification chains, ranks, labels, and group membership.

    Records must be cleaned and lineage-completed; a record with no
    filled lineage level cannot be attached anywhere. No lineage node
    may mint a species leaf's IRI, which would join the two records.
    """
    nodes: dict[str, Term] = {}  # lineage name -> its node, minted once
    minted: dict[str, str] = {}  # node IRI text -> the first lineage cell that mints it
    for rec in records:
        for level, name in rec.lineage:
            if name and name not in nodes:
                nodes[name] = node = lineage_node_iri(name)
                minted.setdefault(node.value, f"{level} {name}")
    leaves = [species_iri(rec.number) for rec in records]
    unique_keys([*minted, *(leaf.value for leaf in leaves)], "species", "taxon IRI",
                cells=[*minted.values(), *(f"species_number {rec.number}" for rec in records)])
    groups: set[str] = set()
    for rec, leaf in zip(records, leaves):
        filled = [(level, name) for level, name in rec.lineage if name]
        if not filled:
            raise UnresolvedParentError(f"species {rec.number}: empty lineage")
        previous: Term | None = None
        for level, name in filled:
            node = nodes[name]
            if node == previous:
                # a tautonym (genus Bufo, species bufo) names two levels
                # alike; the node keeps the upper level's rank and label
                continue
            store.add((node, RANK_PROP, _level_term(level)))
            store.add((node, RDFS_LABEL, literal(name)))
            if previous is not None:
                store.add((node, RDFS_SUBCLASSOF, previous))
            previous = node
        store.add((leaf, RDF_TYPE, TAXON_TYPE))
        store.add((leaf, RDFS_SUBCLASSOF, previous))
        if rec.common_name is not None:
            store.add((leaf, COMMON_NAME_PROP, literal(rec.common_name)))
            store.add((leaf, RDFS_LABEL, literal(rec.common_name)))
        if rec.latin_name is not None:
            store.add((leaf, LATIN_NAME_PROP, literal(rec.latin_name)))
            store.add((leaf, RDFS_LABEL, literal(rec.latin_name)))
        if rec.group is not None:
            groups.add(rec.group)
            store.add((leaf, GROUP_PROP, group_iri(rec.group)))
    _group_disjointness(groups, store)


def lineage_merges(store: TripleStore) -> int:
    """Lineage nodes with more than one ``rdfs:subClassOf`` parent.

    Nodes are keyed by name alone, so species that share an epithet
    under different genera (two ``vulgaris``) hang under one node.
    """
    nodes = {node for node, _ in store.predicate_pairs(RANK_PROP)}
    return sum(store.count(node, RDFS_SUBCLASSOF) > 1 for node in nodes)


def _chemical(row: dict[str, str]) -> ChemicalRecord:
    cas = _cell(row, "cas_number")
    if cas is None:
        raise ValueError(f"chemical {row['chemical_name']!r}: missing cas_number")
    valid = idmap.validate_cas(cas)
    if not valid:
        log.warning("invalid CAS number kept: %r", cas)
    return ChemicalRecord(cas, _cell(row, "chemical_name") or "", _name_cell(row, "ecotox_group"), valid)


def parse_chemicals(text: str) -> list[ChemicalRecord]:
    return read_table(text, "chemicals", ("cas_number", "chemical_name"), _chemical)


def ingest_chemicals(records: list[ChemicalRecord], store: TripleStore) -> None:
    """Emit chemical types, labels and groups; no two CAS cells may mint one chemical IRI."""
    subjects = [chemical_iri(rec.cas) for rec in records]
    unique_keys([subject.value for subject in subjects], "chemicals", "chemical IRI",
                cells=[f"cas_number {rec.cas}" for rec in records])
    groups: set[str] = set()
    for rec, subject in zip(records, subjects):
        store.add((subject, RDF_TYPE, CHEMICAL_TYPE))
        if rec.name:
            store.add((subject, RDFS_LABEL, literal(rec.name)))
        if rec.group is not None:
            groups.add(rec.group)
            store.add((subject, GROUP_PROP, group_iri(rec.group)))
    _group_disjointness(groups, store)


def _test(row: dict[str, str]) -> TestRecord:
    test_id = row["test_id"]
    if not _DIGITS.fullmatch(test_id):
        raise ValueError(f"bad test_id: {test_id!r}")
    if not _DIGITS.fullmatch(row["species_number"]):
        raise ValueError(f"test {test_id}: bad species_number {row['species_number']!r}")
    cas = _cell(row, "test_cas")
    if cas is None:
        raise ValueError(f"test {test_id}: missing test_cas")
    reference = _cell(row, "reference_number")
    if reference is not None and not _DIGITS.fullmatch(reference):
        raise ValueError(f"test {test_id}: bad reference_number {reference!r}")
    return TestRecord(test_id, cas, row["species_number"], None if reference is None else int(reference),
                      _name_cell(row, "organism_lifestage"))


def parse_tests(text: str) -> list[TestRecord]:
    return read_table(text, "tests", ("test_id", "test_cas", "species_number"), _test)


def _result(row: dict[str, str]) -> ResultRecord:
    result_id = row["result_id"]
    if not _DIGITS.fullmatch(result_id):
        raise ValueError(f"bad result_id: {result_id!r}")
    endpoint = _name_cell(row, "endpoint")
    if endpoint is None:
        raise ValueError(f"result {result_id}: missing endpoint")
    return ResultRecord(result_id, row["test_id"], endpoint, _cell(row, "conc1_mean"),
                        _cell(row, "conc1_unit"), _name_cell(row, "effect"))


def parse_results(text: str) -> list[ResultRecord]:
    return read_table(text, "results", ("result_id", "test_id", "endpoint"), _result)


def validate_test_references(
    tests: list[TestRecord],
    species: list[SpeciesRecord],
    chemicals: list[ChemicalRecord],
) -> None:
    """Every test must point at a known species number and CAS number."""
    species_numbers = {s.number for s in species}
    cas_numbers = {c.cas for c in chemicals}
    missing = [
        f"species:{t.species_number}" for t in tests if t.species_number not in species_numbers
    ] + [f"cas:{t.cas}" for t in tests if t.cas not in cas_numbers]
    if missing:
        raise UnknownReferenceError(missing)


def code_iri(code: str) -> Term:
    """Endpoint/effect code: trailing punctuation dropped, uppercased."""
    return iri(ET + _CODE_TAIL.sub("", code.strip()).upper())


def _lifestage_iri(value: str) -> Term:
    return iri(f"{ET}lifestage/{sanitize_name(value)}")


def _concentration_triples(subject: Term, rec: ResultRecord, units: UnitRegistry | None) -> list[Triple]:
    node = blank(f"conc_{rec.result_id}")
    triples = [Triple(subject, CONCENTRATION_PROP, node)]
    value = rec.concentration.strip() if rec.concentration else ""
    if _DECIMAL.fullmatch(value):
        triples.append(Triple(node, RDF_VALUE, literal(value, XSD_DECIMAL)))
    else:
        qual = _QUALIFIED.fullmatch(value)
        if qual and _DECIMAL.fullmatch(qual.group(2).strip()):
            triples.append(Triple(node, RDF_VALUE, literal(qual.group(2).strip())))
            triples.append(Triple(node, QUALIFIER_PROP, literal(qual.group(1))))
        else:
            triples.append(Triple(node, RDF_VALUE, literal(value)))
            triples.append(Triple(node, QUALIFIER_PROP, literal("unparsed")))
    if rec.unit:
        unit_term = units.unit_term(rec.unit) if units is not None else None
        triples.append(Triple(node, UNIT_UNITS, unit_term or literal(rec.unit)))
    return triples


def ingest_tests(
    tests: list[TestRecord],
    results: list[ResultRecord],
    store: TripleStore,
    units: UnitRegistry | None = None,
) -> None:
    """Emit test metadata and per-result endpoint/concentration nodes.

    Every result must reference a known test id. Concentration values
    that are not plain decimals stay unparsed: the raw remainder goes
    under rdf:value with the qualifier recorded alongside.
    """
    subjects = {t.test_id: test_iri(t.test_id) for t in tests}
    missing = {r.test_id for r in results} - subjects.keys()
    if missing:
        raise OrphanResultError(sorted(missing))
    for t in tests:
        subject = subjects[t.test_id]
        store.add((subject, RDF_TYPE, TEST_TYPE))
        store.add((subject, COMPOUND_PROP, chemical_iri(t.cas)))
        store.add((subject, SPECIES_PROP, species_iri(t.species_number)))
        if t.lifestage is not None:
            store.add((subject, LIFESTAGE_PROP, _lifestage_iri(t.lifestage)))
    for r in results:
        subject = result_iri(r.result_id)
        store.add((subjects[r.test_id], HAS_RESULT_PROP, subject))
        store.add((subject, RDF_TYPE, RESULT_TYPE))
        store.add((subject, ENDPOINT_PROP, code_iri(r.endpoint)))
        if r.effect is not None:
            store.add((subject, EFFECT_PROP, code_iri(r.effect)))
        if r.concentration is not None:
            store.add_all(_concentration_triples(subject, r, units))
