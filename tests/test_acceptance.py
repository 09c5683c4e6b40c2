"""End-to-end acceptance checks.

Each test covers one criterion and prints a [PASS]/[FAIL] scoreboard
line (visible with ``pytest tests/test_acceptance.py -v -s``). Checks
that need an oracle use the independent reimplementations in
``helpers``; fixture-derived expectations are spelled out verbatim.
"""

import functools
import random
import string
import time

import pytest

from ecokg import align, dmp, ecotox, idmap, ntriples, stats, traits, units
from ecokg.graph import PrefixMap, Triple, TripleStore, iri, literal
from ecokg.ns import ET, NCBI, OWL_SAMEAS, QUDT, WD, XSD_DECIMAL, XSD_STRING
from ecokg.query import (
    PathAlt,
    PathAtom,
    PathInverse,
    PathRepeat,
    PathSeq,
    eval_path,
    parse_query,
    run_query,
)

from conftest import FIXTURES, run_cli
from helpers import dp_levenshtein, path_oracle, random_store

PREFIXES = PrefixMap.from_tsv((FIXTURES / "prefixes.tsv").read_text())


def criterion(name):
    """Print one scoreboard line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")

        return wrapper

    return deco


def build_fixture_graph() -> TripleStore:
    """Full ingest of the bundled miniature corpus into one store."""
    store = TripleStore(PREFIXES)

    dmp.ingest_nodes(dmp.parse_nodes((FIXTURES / "ncbi" / "nodes.dmp").read_text()), store)
    dmp.ingest_names(dmp.parse_names((FIXTURES / "ncbi" / "names.dmp").read_text()), store)
    dmp.ingest_divisions(
        dmp.parse_divisions((FIXTURES / "ncbi" / "division.dmp").read_text()), store
    )

    registry = units.load_registry((FIXTURES / "units.tsv").read_text(), PREFIXES, store)

    species = ecotox.parse_species((FIXTURES / "ecotox" / "species.txt").read_text())
    chemicals = ecotox.parse_chemicals((FIXTURES / "ecotox" / "chemicals.txt").read_text())
    tests = ecotox.parse_tests((FIXTURES / "ecotox" / "tests.txt").read_text())
    results = ecotox.parse_results((FIXTURES / "ecotox" / "results.txt").read_text())
    ecotox.ingest_species(species, store)
    ecotox.ingest_chemicals(chemicals, store)
    ecotox.ingest_tests(tests, results, store, registry)

    glossary = traits.load_glossary((FIXTURES / "traits" / "glossary.tsv").read_text(), PREFIXES)
    rows = traits.parse_traits((FIXTURES / "traits" / "traits.tsv").read_text(), PREFIXES)
    traits.ingest_traits(rows, glossary, store)
    return store


# Table-row expectations, spelled out as full N-Triples lines.
REFERENCE_LINES = [
    '<https://cfpub.epa.gov/ecotox/group/Worms> <http://www.w3.org/2002/07/owl#disjointWith> <https://cfpub.epa.gov/ecotox/group/Fish> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/division/2> <http://www.w3.org/2002/07/owl#disjointWith> <https://www.ncbi.nlm.nih.gov/taxonomy/division/4> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/division/2> <http://www.w3.org/2000/01/rdf-schema#label> "Mammals" .',
    '<https://cfpub.epa.gov/ecotox/taxon/34010> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <https://cfpub.epa.gov/ecotox/taxon/hirta> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <https://www.ncbi.nlm.nih.gov/taxonomy/taxon/513583> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> <https://www.ncbi.nlm.nih.gov/taxonomy/rank> <https://www.ncbi.nlm.nih.gov/taxonomy/Species> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> <https://www.ncbi.nlm.nih.gov/taxonomy/scientific_name> "Coleophora cornella" .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525> <http://eol.org/schema/terms/habitat> <http://purl.obolibrary.org/obo/ENVO_00000873> .',
    '<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525> <http://eol.org/schema/terms/presentIn> <http://marineregions.org/mrgid/Oostende> .',
    '<https://cfpub.epa.gov/ecotox/test/001> <https://cfpub.epa.gov/ecotox/compound> <https://cfpub.epa.gov/ecotox/chemical/115866> .',
    '<https://cfpub.epa.gov/ecotox/test/001> <https://cfpub.epa.gov/ecotox/species> <https://cfpub.epa.gov/ecotox/taxon/26812> .',
    '<https://cfpub.epa.gov/ecotox/test/001> <https://cfpub.epa.gov/ecotox/organsimLifestage> <https://cfpub.epa.gov/ecotox/lifestage/adult> .',
]


@criterion("fixture-reference-triples")
def test_fixture_reference_triples():
    started = time.perf_counter()
    store = build_fixture_graph()
    serialized = ntriples.serialize(store)
    elapsed = time.perf_counter() - started

    lines = serialized.splitlines()
    assert lines == sorted(lines), "serialization must be canonically sorted"
    present = set(lines)
    for expected in REFERENCE_LINES:
        assert expected in present, f"missing: {expected}"
    assert elapsed < 5.0, f"ingest took {elapsed:.2f}s"


@criterion("library-recipe-equals-update")
def test_library_recipe_equals_updates_ecotox_part(pipeline_dir):
    # the recipe of build_fixture_graph: update alone padded the lineages, so
    # this store lacked the synthesized genus and species nodes
    registry = units.load_registry((FIXTURES / "units.tsv").read_text(), PREFIXES)
    store = TripleStore(PREFIXES)
    ecotox.ingest_species(ecotox.parse_species((FIXTURES / "ecotox" / "species.txt").read_text()), store)
    ecotox.ingest_chemicals(ecotox.parse_chemicals((FIXTURES / "ecotox" / "chemicals.txt").read_text()), store)
    ecotox.ingest_tests(ecotox.parse_tests((FIXTURES / "ecotox" / "tests.txt").read_text()),
                        ecotox.parse_results((FIXTURES / "ecotox" / "results.txt").read_text()), store, registry)
    assert ntriples.serialize(store) == (pipeline_dir / "ecotox.nt").read_text(encoding="utf-8")


@criterion("coverage-figure")
def test_coverage_figure():
    value = stats.coverage(940_000, 12_000, 13_000)
    assert round(value, 4) == 0.6026
    assert abs(value - 0.6) <= 0.05  # within 0.05 percentage points of ~0.6%


@criterion("density-identities")
def test_density_identities():
    rng = random.Random(3000)
    checked = 0
    while checked < 200:
        store = random_store(rng, max_triples=1000)
        kept = [t for t in store if not t.object.is_literal()]
        relations = {t.predicate for t in kept}
        entities = {t.subject for t in kept} | {t.object for t in kept}
        t, r, e = len(kept), len(relations), len(entities)
        if t == 0 or e < 2:
            continue
        checked += 1
        counts = stats.count_graph(store)
        assert stats.relational_density(counts) == t / r
        assert stats.entity_density(counts) == t / e
        assert stats.absolute_density(counts) == t / (e * (e - 1))
        assert stats.absolute_density(counts) == pytest.approx(
            stats.entity_density(counts) / (e - 1), rel=1e-12
        )


EFFECT_QUERY = """
select ?s ?c ?conc ?concunit
?s eol:endemicTo _:r .
_:r rdfs:label "Oslofjorden"@no .
_:b a et:Test .
_:b et:species ?s .
_:b et:compound ?c .
_:b et:hasResult _:res .
_:res et:endpoint et:LC50 .
_:res et:effectType et:ACUTE .
_:res et:concentration _:conc .
_:conc rdf:value ?conc .
_:conc unit:units ?concunit .
"""


@criterion("effect-query")
def test_effect_query():
    # fixture: 2 endemic species, 3 experiments, mixed endpoints
    store = build_fixture_graph()
    parsed = parse_query(EFFECT_QUERY, PREFIXES)
    started = time.perf_counter()
    rows = run_query(store, parsed)
    elapsed = time.perf_counter() - started

    hand_enumerated = [
        (
            iri(ET + "taxon/26812"),
            iri(ET + "chemical/115866"),
            literal("12.5", XSD_DECIMAL),
            iri(ET + "MilligramPerLiter"),
        ),
        (
            iri(ET + "taxon/5156"),
            iri(ET + "chemical/877430"),
            literal("400", XSD_DECIMAL),
            iri(ET + "MilligramPerKilogramDiet"),
        ),
    ]
    assert rows == hand_enumerated
    assert elapsed < 1.0, f"query took {elapsed:.3f}s"


def bounded_path_expr(rng, predicates, depth):
    """Random expression, depth-bounded, repetition bounds within 0..5."""
    if depth <= 0 or rng.random() < 0.3:
        return PathAtom(rng.choice(predicates))
    roll = rng.random()
    if roll < 0.25:
        return PathInverse(bounded_path_expr(rng, predicates, depth - 1))
    if roll < 0.55:
        return PathSeq(
            bounded_path_expr(rng, predicates, depth - 1),
            bounded_path_expr(rng, predicates, depth - 1),
        )
    if roll < 0.85:
        return PathAlt(
            bounded_path_expr(rng, predicates, depth - 1),
            bounded_path_expr(rng, predicates, depth - 1),
        )
    low = rng.randrange(0, 3)
    high = rng.randrange(low, 6)
    return PathRepeat(bounded_path_expr(rng, predicates, depth - 1), low, high)


@criterion("property-path-oracle")
def test_property_path_oracle():
    rng = random.Random(5000)
    started = time.perf_counter()
    for _ in range(100):
        nodes = [iri(f"http://example.org/n/{i}") for i in range(rng.randrange(2, 31))]
        predicates = [iri(f"http://example.org/p/{i}") for i in range(3)]
        store = TripleStore()
        for _ in range(rng.randrange(61)):
            store.add(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes)))
        for _ in range(50):
            expr = bounded_path_expr(rng, predicates, depth=3)
            assert eval_path(store, expr) == path_oracle(store, expr)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


@criterion("alignment-pipeline")
def test_alignment_pipeline():
    rng = random.Random(6000)

    def word():
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(6, 9)))

    # 2000 target entities with binomial-style names
    target_labels = {}
    names = []
    for i in range(2000):
        name = f"{word()} {word()}"
        names.append(name)
        target_labels[f"http://target.example/{i}"] = [name]

    # 300 planted matches at <=1 edit, plus 200 unrelated sources
    source_labels = {}
    reference = align.MappingSet(method="reference")
    planted = rng.sample(range(2000), 300)
    for j, idx in enumerate(planted):
        name = names[idx]
        if j % 2 == 0:
            chars = list(name)
            pos = rng.randrange(len(chars))
            if chars[pos] != " ":
                chars[pos] = rng.choice(string.ascii_lowercase.replace(chars[pos], ""))
            name = "".join(chars)
        source = f"http://source.example/{j}"
        source_labels[source] = [name]
        reference.add(align.Mapping(source, f"http://target.example/{idx}", 1.0, "reference"))
    for j in range(300, 500):
        source_labels[f"http://source.example/{j}"] = [f"{word()} {word()}"]

    computed = align.align_lexical(source_labels, target_labels, threshold=0.8)

    recall = align.evaluate(computed, reference)
    assert recall >= 0.95, f"recall {recall:.3f}"

    # set-arithmetic oracles
    assert recall == len(computed.pairs() & reference.pairs()) / len(reference)
    assert align.disagreement(computed, reference) == len(
        computed.pairs() - reference.pairs()
    )
    assert align.disagreement(reference, computed) == len(
        reference.pairs() - computed.pairs()
    )
    consensus = align.intersect(computed, reference)
    assert consensus.pairs() == computed.pairs() & reference.pairs()
    for m in consensus:
        assert m.score == pytest.approx(
            (computed.get(m.source, m.target).score + 1.0) / 2
        )


@criterion("edit-distance-metric")
def test_edit_distance_metric():
    assert align.levenshtein("kitten", "sitting") == 3
    assert dp_levenshtein("kitten", "sitting") == 3

    rng = random.Random(7000)
    alphabet = "abcdef"
    for _ in range(10_000):
        a, b, c = (
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 11)))
            for _ in range(3)
        )
        ab = align.levenshtein(a, b)
        assert (ab == 0) == (a == b)  # identity of indiscernibles
        assert ab == align.levenshtein(b, a)  # symmetry
        assert align.levenshtein(a, c) <= ab + align.levenshtein(b, c)  # triangle


@criterion("unit-definition-fidelity")
def test_unit_definition_fidelity():
    mg_l = units.UnitDef(
        id=iri(ET + "MilligramPerLiter"),
        label="milligram per liter",
        abbreviation="mg/L",
        multiplier=1e-6,
        offset=0.0,
        dimension="mass-per-volume",
        symbol="mg/L",
    )
    ug_l = units.UnitDef(
        id=iri(ET + "MicrogramPerLiter"),
        label="microgram per liter",
        abbreviation="ug/L",
        multiplier=1e-9,
        offset=0.0,
        dimension="mass-per-volume",
        symbol="ug/L",
    )
    emitted = units.definition_triples(mg_l)
    by_predicate = {predicate.value: obj for _, predicate, obj in emitted}
    multiplier = by_predicate[QUDT + "conversionMultiplier"]
    assert multiplier.value == "0.000001"
    assert multiplier.datatype == XSD_DECIMAL
    abbreviation = by_predicate[QUDT + "abbreviation"]
    assert abbreviation.value == "mg/L"
    assert abbreviation.datatype == XSD_STRING

    assert units.convert(1.0, mg_l, ug_l) == pytest.approx(1000.0, rel=1e-12)


@criterion("identifier-rewrites")
def test_identifier_rewrites():
    assert idmap.cas_to_iri("877-43-0") == "https://cfpub.epa.gov/ecotox/chemical/877430"
    assert idmap.ncbi_id_to_iri("311871") == (
        "https://www.ncbi.nlm.nih.gov/taxonomy/taxon/311871"
    )

    # checksum accepts the two reference values, rejects every +-1
    # digit perturbation (larger deltas can collide mod 10)
    for cas in ("877-43-0", "79-06-1"):
        assert idmap.validate_cas(cas)
        for i, ch in enumerate(cas):
            if not ch.isdigit():
                continue
            for delta in (1, 9):
                mutated = cas[:i] + str((int(ch) + delta) % 10) + cas[i + 1:]
                assert not idmap.validate_cas(mutated), mutated

    store = TripleStore(PREFIXES)
    ncbi_pairs = idmap.parse_pairs((FIXTURES / "pairs" / "wd_ncbi.tsv").read_text())
    cas_pairs = idmap.parse_pairs((FIXTURES / "pairs" / "wd_cas.tsv").read_text())
    added_ncbi, errors_ncbi = idmap.construct_sameas(ncbi_pairs, "ncbi", store)
    added_cas, errors_cas = idmap.construct_sameas(cas_pairs, "cas", store)
    added_verbatim, errors_verbatim = idmap.construct_sameas(
        [idmap.IdPair("et:taxon/33155", "ncbi:taxon/311871")], "verbatim", store
    )
    assert errors_ncbi == errors_cas == errors_verbatim == []
    assert added_ncbi == added_cas == added_verbatim == 1

    expected = [
        Triple(iri(ET + "taxon/33155"), OWL_SAMEAS, iri(NCBI + "taxon/311871")),
        Triple(iri(NCBI + "taxon/311871"), OWL_SAMEAS, iri(WD + "Q13828695")),
        Triple(iri(ET + "chemical/115866"), OWL_SAMEAS, iri(WD + "Q418573")),
    ]
    for t in expected:
        assert t in store, t.ntriples()


@criterion("round-trip-idempotence")
def test_round_trip_idempotence(tmp_path):
    rng = random.Random(8000)
    for _ in range(200):
        store = random_store(rng, max_triples=60)
        text = ntriples.serialize(store)
        reparsed = ntriples.parse(text)
        assert reparsed == store
        assert ntriples.serialize(reparsed) == text

    out = tmp_path / "rebuild"
    out.mkdir()

    def snapshot():
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if not p.name.endswith(".summary.json")
        }

    argv = ("--config", str(FIXTURES / "config.json"), "update", "--out", str(out))
    assert run_cli(*argv) == 0
    first = snapshot()
    assert run_cli(*argv) == 0
    assert snapshot() == first
    assert len(first) >= 10
