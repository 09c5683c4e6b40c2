import random

import pytest

from ecokg import checks, ecotox, graph, units
from ecokg.graph import Triple, TripleStore, blank, iri, literal
from ecokg.ns import ET, RDF_TYPE, RDF_VALUE, RDFS_LABEL, RDFS_SUBCLASSOF, UNIT_UNITS, XSD_DECIMAL, default_prefix_map
from ecokg.ntriples import serialize


@pytest.fixture(scope="module")
def tables(fixtures):
    base = fixtures / "ecotox"
    return {
        "species": (base / "species.txt").read_text(),
        "chemicals": (base / "chemicals.txt").read_text(),
        "tests": (base / "tests.txt").read_text(),
        "results": (base / "results.txt").read_text(),
    }


@pytest.fixture(scope="module")
def species_records(tables):
    return [ecotox.synthesize_lineage(r) for r in ecotox.parse_species(tables["species"])]


@pytest.fixture(scope="module")
def effect_store(tables, species_records, fixtures, prefixes):
    registry = units.load_registry((fixtures / "units.tsv").read_text(), prefixes)
    store = TripleStore(default_prefix_map())
    ecotox.ingest_species(species_records, store)
    ecotox.ingest_chemicals(ecotox.parse_chemicals(tables["chemicals"]), store)
    ecotox.ingest_tests(
        ecotox.parse_tests(tables["tests"]),
        ecotox.parse_results(tables["results"]),
        store,
        registry,
    )
    return store


class TestTableReader:
    def test_header_and_rows(self):
        rows = ecotox.read_table("b|a\n1|2\n3|4\n", "t", ("a",), dict)
        assert rows == [{"b": "1", "a": "2"}, {"b": "3", "a": "4"}]
        assert [list(row) for row in rows] == [["b", "a"], ["b", "a"]]

    def test_rows_split_at_newline_only(self):
        rows = ecotox.read_table("a|b\r\n1\u2028x|2\x0c3\r\n4\u0085y|5\x1e6\n", "t", ("a",), dict)
        assert rows == [{"a": "1\u2028x", "b": "2\x0c3"}, {"a": "4\u0085y", "b": "5\x1e6"}]

    def test_a_rejected_row_is_named_by_its_line_after_the_table_checks(self):
        def make(row):
            if row["a"] == "x":
                raise ValueError("bad a")
            return row["a"]

        with pytest.raises(ValueError, match="^t line 4: bad a$"):
            ecotox.read_table("a|b\n1|2\n\nx|3\n", "t", ("a",), make)
        # a repeated key, found before any row is made, comes first
        with pytest.raises(graph.DuplicateKeyError, match=r"^t: duplicate a: \['x'\]$"):
            ecotox.read_table("a|b\nx|2\nx|3\n", "t", ("a",), make)

    def test_column_count_enforced(self):
        with pytest.raises(ValueError, match="^t line 3: "):
            ecotox.read_table("a|b\n1|2\nonly-one\n", "t", ("a",), dict)

    def test_error_names_the_file_line_past_blank_lines(self):
        with pytest.raises(ValueError, match="^t line 4: expected 2 fields, got 1$"):
            ecotox.read_table("a|b\n1|2\n\nonly-one\n", "t", ("a",), dict)

    def test_empty_table(self):
        with pytest.raises(ValueError, match="^t: empty table$"):
            ecotox.read_table("\n\n", "t", ("a",), dict)

    def test_header_that_names_a_column_twice(self):
        # the last cell won: {'a': '2', 'b': '3'}
        with pytest.raises(ValueError, match=r"^t: duplicate column: \['a'\]$") as err:
            ecotox.read_table("a|a|b\n1|2|3\n", "t", ("a",), dict)
        assert type(err.value) is ValueError  # malformed input, not a ValidationError
        text = shaped("species").replace("|species|", "|genus|", 1)
        with pytest.raises(ValueError, match=r"^species: duplicate column: \['genus'\]$"):
            ecotox.parse_species(text)


# One valid row per table, as column -> cell; the shape tests drop a
# column or replace a cell.
SHAPES = {
    "species": (ecotox.parse_species, {
        "species_number": "5156", "common_name": "Zebra Danio", "latin_name": "Danio rerio",
        "genus": "Danio", "species": "rerio", "ecotox_group": "Fish",
    }),
    "chemicals": (ecotox.parse_chemicals, {
        "cas_number": "79-06-1", "chemical_name": "Acrylamide", "ecotox_group": "Organics",
    }),
    "tests": (ecotox.parse_tests, {
        "test_id": "1", "reference_number": "100", "test_cas": "79-06-1",
        "species_number": "5156", "organism_lifestage": "adult",
    }),
    "results": (ecotox.parse_results, {
        "result_id": "7", "test_id": "1", "endpoint": "LC50", "conc1_mean": "400",
        "conc1_unit": "mg/L", "effect": "MOR",
    }),
}

# (table, column, record field) of every column whose cell may be missing
OPTIONAL_CELLS = [
    ("species", "ecotox_group", "group"),
    ("chemicals", "ecotox_group", "group"),
    ("tests", "reference_number", "reference_number"),
    ("tests", "organism_lifestage", "lifestage"),
    ("results", "conc1_mean", "concentration"),
    ("results", "conc1_unit", "unit"),
    ("results", "effect", "effect"),
]


# (table, column, record field) of every optional cell that keys a node;
# the endpoint, which keys one too, is required
NAME_CELLS = [
    ("species", "ecotox_group", "group"),
    ("chemicals", "ecotox_group", "group"),
    ("tests", "organism_lifestage", "lifestage"),
    ("results", "effect", "effect"),
]
# cells with no letter or digit, which key no node of their own
NO_ALNUM_CELLS = ["?", "---", "*", "_", "- . -", "\u00b7"]


def shaped(table: str, drop: str | None = None, **cells: str) -> str:
    row = {**SHAPES[table][1], **cells}
    row.pop(drop, None)
    return "|".join(row) + "\n" + "|".join(row.values()) + "\n"


def parse_one(table: str, text: str):
    [record] = SHAPES[table][0](text)
    return record


class TestTableShapes:
    @pytest.mark.parametrize(("table", "column"), [
        ("species", "species_number"),
        ("species", "common_name"),
        ("species", "latin_name"),
        ("species", "ecotox_group"),
        ("chemicals", "cas_number"),
        ("chemicals", "chemical_name"),
        ("tests", "test_id"),
        ("tests", "test_cas"),
        ("tests", "species_number"),
        ("results", "result_id"),
        ("results", "test_id"),
        ("results", "endpoint"),
    ])
    def test_missing_required_column(self, table, column):
        with pytest.raises(ValueError, match=f"^{table} table missing column '{column}'$"):
            SHAPES[table][0](shaped(table, drop=column))

    @pytest.mark.parametrize("token", sorted(ecotox.MISSING_TOKENS))
    @pytest.mark.parametrize(("table", "column", "field"), OPTIONAL_CELLS)
    def test_missing_value_token_reads_as_none(self, table, column, field, token):
        assert getattr(parse_one(table, shaped(table, **{column: f" {token} "})), field) is None

    @pytest.mark.parametrize(("table", "column", "field"), OPTIONAL_CELLS[1:])
    def test_absent_optional_column_reads_as_none(self, table, column, field):
        assert getattr(parse_one(table, shaped(table, drop=column)), field) is None

    @pytest.mark.parametrize("token", sorted(ecotox.MISSING_TOKENS))
    def test_missing_value_token_empties_a_lineage_level_and_a_chemical_name(self, token):
        species = parse_one("species", shaped("species", genus=token))
        assert species.lineage == (("genus", ""), ("species", "rerio"))
        assert parse_one("chemicals", shaped("chemicals", chemical_name=token)).name == ""

    @pytest.mark.parametrize("token", sorted(ecotox.MISSING_TOKENS))
    def test_missing_cas_number_names_the_chemical(self, token):
        # "" and "--" both minted <.../ecotox/chemical/>, merging unrelated chemicals
        with pytest.raises(ValueError, match="^chemicals line 2: chemical 'Acrylamide': missing cas_number$"):
            ecotox.parse_chemicals(shaped("chemicals", cas_number=token))

    @pytest.mark.parametrize(("table", "cells", "error"), [
        ("species", {"species_number": "x"}, "bad species_number: 'x'"),
        ("tests", {"test_id": "1a"}, "bad test_id: '1a'"),
        ("tests", {"species_number": "x"}, "test 1: bad species_number 'x'"),
        ("tests", {"test_cas": "NR"}, "test 1: missing test_cas"),
        ("results", {"result_id": "r7"}, "bad result_id: 'r7'"),
        ("results", {"endpoint": "--"}, "result 7: missing endpoint"),
        ("results", {"endpoint": "*"}, "result 7: missing endpoint"),
    ])
    def test_bad_key_cell_is_an_input_error(self, table, cells, error):
        with pytest.raises(ValueError) as err:
            SHAPES[table][0](shaped(table, **cells))
        assert type(err.value) is ValueError
        assert str(err.value) == f"{table} line 2: {error}"

    @pytest.mark.parametrize(("table", "column", "key"), [
        ("species", "species_number", "5156"),
        ("chemicals", "cas_number", "79-06-1"),
        ("tests", "test_id", "1"),
        ("results", "result_id", "7"),
    ])
    def test_repeated_key_is_a_validation_error(self, table, column, key):
        # a repeated key merged two records into one node
        text = shaped(table)
        text += text.split("\n")[1] + "\n"
        with pytest.raises(graph.DuplicateKeyError) as err:
            SHAPES[table][0](text)
        assert str(err.value) == f"{table}: duplicate {column}: [{key!r}]"

    @pytest.mark.parametrize("cell", NO_ALNUM_CELLS)
    @pytest.mark.parametrize(("table", "column", "field"), NAME_CELLS)
    def test_name_cell_with_no_letter_or_digit_reads_as_none(self, table, column, field, cell):
        # "---" keyed the bare <.../ecotox/group/>, disjoint with every other group
        assert getattr(parse_one(table, shaped(table, **{column: cell})), field) is None

    @pytest.mark.parametrize("cell", NO_ALNUM_CELLS)
    def test_lineage_level_with_no_letter_or_digit_is_a_gap(self, cell):
        species = parse_one("species", shaped("species", genus=cell))
        assert species.lineage == (("genus", ""), ("species", "rerio"))

    def test_concentration_and_unit_keep_cells_without_letters(self):
        record = parse_one("results", shaped("results", conc1_mean="*", conc1_unit="%"))
        assert (record.concentration, record.unit) == ("*", "%")


class TestNameCleaning:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Daphnia sp.", "Daphnia"),
            ("Danio rerio", "Danio rerio"),
            ("Lemna var. minor", "Lemna minor"),
            ("Genus ssp. x spp.", "Genus x"),
            ("  spaced   out  ", "spaced out"),
        ],
    )
    def test_cleaning(self, raw, expected):
        assert ecotox.clean_species_name(raw) == expected

    @pytest.mark.parametrize("raw", ["", "--", "NA", "NR", "/", "  NR  ", "sp."])
    def test_missing_shorthands(self, raw):
        assert ecotox.clean_species_name(raw) is None

    def test_sanitize_name(self):
        assert ecotox.sanitize_name("Daphniidae genus") == "daphniidae_genus"
        assert ecotox.sanitize_name("O'Brien's worm") == "obriens_worm"
        assert ecotox.sanitize_name("  Daphnia  ") == "daphnia"
        # lowered before filtering, so the combining dot of "İ".lower() is dropped
        assert ecotox.sanitize_name("İzmir worm") == "izmir_worm"


class TestLineageSynthesis:
    def make(self, **levels):
        order = ["family", "genus", "species"]
        lineage = tuple((lvl, levels.get(lvl, "")) for lvl in order)
        return ecotox.SpeciesRecord("1", None, None, None, lineage)

    def test_gap_filled_from_nearest_ancestor(self):
        rec = self.make(family="Daphniidae", species="magna")
        names = [name for _, name in ecotox.synthesize_lineage(rec).lineage]
        assert names == ["Daphniidae", "Daphniidae genus", "magna"]

    def test_consecutive_gaps_chain(self):
        rec = self.make(family="Daphniidae")
        names = [name for _, name in ecotox.synthesize_lineage(rec).lineage]
        assert names == ["Daphniidae", "Daphniidae genus", "Daphniidae genus species"]

    def test_fully_filled_unchanged(self):
        rec = self.make(family="Daphniidae", genus="Daphnia", species="magna")
        assert ecotox.synthesize_lineage(rec) == rec

    def test_levels_above_highest_filled_stay_empty(self):
        rec = self.make(genus="Daphnia", species="magna")
        names = [name for _, name in ecotox.synthesize_lineage(rec).lineage]
        assert names == ["", "Daphnia", "magna"]

    def test_all_empty_rejected(self):
        with pytest.raises(ecotox.EmptyLineageError):
            ecotox.synthesize_lineage(self.make())

    def test_uniform_length_on_fixture(self, species_records):
        lengths = {len(r.lineage) for r in species_records}
        assert len(lengths) == 1


class TestSpeciesParsing:
    def test_levels_come_from_header(self, species_records):
        levels = [lvl for lvl, _ in species_records[0].lineage]
        assert levels == [
            "kingdom", "phylum_division", "class", "tax_order", "family", "genus", "species",
        ]

    def test_placeholder_and_missing_cleaned(self, species_records):
        by_number = {r.number: r for r in species_records}
        assert by_number["8888"].latin_name == "Daphnia"
        assert by_number["7777"].common_name is None

    def test_bad_species_number(self):
        with pytest.raises(ValueError):
            ecotox.parse_species(
                "species_number|common_name|latin_name|genus|species|ecotox_group\n"
                "12x|a|b|c|d|e\n"
            )


class TestSpeciesIngest:
    def test_unnamed_genus_keys_no_bare_namespace_node(self):
        # a genus of "?" keyed <.../ecotox/taxon/>, which every such cell would share
        [record] = ecotox.parse_species(
            "species_number|common_name|latin_name|family|genus|species|ecotox_group\n"
            "34010|--|Daphnia hirta|Daphniidae|?|hirta|Crustaceans\n"
        )
        store = TripleStore()
        ecotox.ingest_species([ecotox.synthesize_lineage(record)], store)
        assert not store.match(iri(f"{ET}taxon/"))
        hirta, genus = iri(f"{ET}taxon/hirta"), iri(f"{ET}taxon/daphniidae_genus")
        assert store.match(hirta, RDFS_SUBCLASSOF, genus)

    def test_leaf_under_name_node(self, effect_store):
        assert (
            "<https://cfpub.epa.gov/ecotox/taxon/34010> "
            "<http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            "<https://cfpub.epa.gov/ecotox/taxon/hirta> ."
        ) in serialize(effect_store)

    def test_chain_reaches_lineage_root(self, effect_store, species_records):
        root = iri(ET + "taxon/animalia")
        for rec in species_records:
            node = ecotox.species_iri(rec.number)
            seen = set()
            while True:
                parents = effect_store.objects(node, RDFS_SUBCLASSOF)
                if not parents:
                    break
                assert len(parents) == 1, f"multiple parents for {node.value}"
                node = parents.pop()
                assert node not in seen
                seen.add(node)
            assert node == root

    def test_rank_triples_use_level_names(self, effect_store):
        assert effect_store.match(
            iri(ET + "taxon/daphnia"), ecotox.RANK_PROP, iri(ET + "Genus")
        )
        assert effect_store.match(
            iri(ET + "taxon/animalia"), ecotox.RANK_PROP, iri(ET + "Kingdom")
        )

    def test_synthesized_node_present(self, effect_store):
        node = iri(ET + "taxon/daphniidae_genus")
        assert effect_store.match(node, RDFS_SUBCLASSOF, iri(ET + "taxon/daphniidae"))

    def test_leaf_gets_type_names_and_group(self, effect_store):
        leaf = ecotox.species_iri("5156")
        assert effect_store.match(leaf, None, ecotox.TAXON_TYPE)
        assert effect_store.match(leaf, ecotox.COMMON_NAME_PROP, literal("Zebra Danio"))
        assert effect_store.match(leaf, ecotox.LATIN_NAME_PROP, literal("Danio rerio"))
        assert effect_store.match(leaf, ecotox.GROUP_PROP, ecotox.group_iri("Fish"))

    def test_group_disjointness_symmetric(self, effect_store):
        worms, fish = ecotox.group_iri("Worms"), ecotox.group_iri("Fish")
        disjoint = iri("http://www.w3.org/2002/07/owl#disjointWith")
        assert effect_store.match(worms, disjoint, fish)
        assert effect_store.match(fish, disjoint, worms)

    def test_reingest_adds_nothing(self, species_records, effect_store):
        store = TripleStore()
        ecotox.ingest_species(species_records, store)
        size = len(store)
        ecotox.ingest_species(species_records, store)
        assert len(store) == size

    def test_tautonym_has_no_self_loop(self):
        lineage = (("family", "Bufonidae"), ("genus", "Bufo"), ("species", "bufo"))
        rec = ecotox.SpeciesRecord("7", None, "Bufo bufo", None, lineage)
        store = TripleStore()
        ecotox.ingest_species([rec], store)
        bufo = ecotox.lineage_node_iri("bufo")
        assert bufo == ecotox.lineage_node_iri("Bufo") == iri(f"{ET}taxon/bufo")
        assert store.objects(bufo, RDFS_SUBCLASSOF) == {ecotox.lineage_node_iri("Bufonidae")}
        # the collapsed species level adds neither its rank nor its label
        assert store.objects(bufo, ecotox.RANK_PROP) == {iri(f"{ET}Genus")}
        assert store.objects(bufo, RDFS_LABEL) == {literal("Bufo")}
        assert store.objects(ecotox.species_iri("7"), RDFS_SUBCLASSOF) == {bufo}
        assert checks.subclass_cycles(store) == []

    def test_lineage_merges_counts_shared_epithets(self, effect_store):
        # nodes are keyed by name, so both vulgaris species hang under one
        # et:taxon/vulgaris node, which then has two parents
        records = [
            ecotox.SpeciesRecord(number, None, f"{genus} vulgaris", None,
                                 (("family", family), ("genus", genus), ("species", "vulgaris")))
            for number, family, genus in (("1", "Hydridae", "Hydra"), ("2", "Amaranthaceae", "Beta"))
        ]
        store = TripleStore()
        ecotox.ingest_species(records, store)
        vulgaris = ecotox.lineage_node_iri("vulgaris")
        assert store.objects(vulgaris, RDFS_SUBCLASSOF) == {
            ecotox.lineage_node_iri("Hydra"), ecotox.lineage_node_iri("Beta"),
        }
        assert ecotox.lineage_merges(store) == 1
        assert ecotox.lineage_merges(effect_store) == 0

    def test_unresolved_parent(self):
        rec = ecotox.SpeciesRecord("9", None, "x", None, (("genus", ""), ("species", "")))
        store = TripleStore()
        with pytest.raises(ecotox.EmptyLineageError, match=r"^species 9: no lineage level is filled$"):
            ecotox.ingest_species([rec], store)
        assert len(store) == 0

    def test_lineage_is_completed_before_ingest(self):
        # the levels above the highest filled one stay empty and add nothing
        rec = ecotox.SpeciesRecord("9", None, None, None, (("family", ""), ("genus", "Daphnia"), ("species", "")))
        store = TripleStore()
        ecotox.ingest_species([rec], store)
        daphnia, padded = ecotox.lineage_node_iri("Daphnia"), ecotox.lineage_node_iri("Daphnia species")
        assert store.objects(ecotox.species_iri("9"), RDFS_SUBCLASSOF) == {padded}
        assert store.objects(padded, RDFS_SUBCLASSOF) == {daphnia}
        assert not store.match(daphnia, RDFS_SUBCLASSOF)
        assert store.objects(padded, ecotox.RANK_PROP) == {iri(f"{ET}Species")}


    def test_lineage_node_that_mints_a_leaf_aborts(self):
        # the check reads the minted IRI: "51-56" keys et:taxon/5156 as "5156" does
        records = [ecotox.SpeciesRecord("5156", None, None, None, (("family", "Cyprinidae"),)),
                   ecotox.SpeciesRecord("7", None, None, None, (("family", "51-56"),))]
        store = TripleStore()
        with pytest.raises(graph.DuplicateKeyError) as err:
            ecotox.ingest_species(records, store)
        assert str(err.value) == ("species: duplicate taxon IRI: "
                                  "[('https://cfpub.epa.gov/ecotox/taxon/5156', 'family 51-56', "
                                  "'species_number 5156')]")
        assert len(store) == 0


class TestChemicalIngest:
    def test_subject_drops_hyphens_and_labels(self, effect_store):
        subject = ecotox.chemical_iri("877-43-0")
        assert subject.value == "https://cfpub.epa.gov/ecotox/chemical/877430"
        assert effect_store.match(
            subject, iri("http://www.w3.org/2000/01/rdf-schema#label"),
            literal("2,6-Dimethylquinoline"),
        )
        assert effect_store.match(subject, None, ecotox.CHEMICAL_TYPE)

    def test_invalid_cas_kept_but_flagged(self):
        records = ecotox.parse_chemicals(
            "cas_number|chemical_name|ecotox_group\n877-43-1|bad checksum|X\n"
        )
        assert records[0].cas_valid is False
        store = TripleStore()
        ecotox.ingest_chemicals(records, store)
        assert store.match(ecotox.chemical_iri("877-43-1"))

    def test_cas_of_non_ascii_digits_is_invalid_but_kept(self, caplog):
        cas = "\u0665\u0660-\u0660\u0660-\u0660"  # 50-00-0 in Arabic-Indic digits
        with caplog.at_level("WARNING", logger="ecokg.ecotox"):
            records = ecotox.parse_chemicals(f"cas_number|chemical_name\n{cas}|Formaldehyde\n")
        assert records[0].cas_valid is False
        assert [r.getMessage() for r in caplog.records] == [f"invalid CAS number kept: {cas!r}"]
        store = TripleStore()
        ecotox.ingest_chemicals(records, store)
        assert store.match(ecotox.chemical_iri(cas))

    def test_empty_name_gets_no_label(self):
        records = ecotox.parse_chemicals("cas_number|chemical_name\n50-00-0|--\n")
        store = TripleStore()
        ecotox.ingest_chemicals(records, store)
        assert not store.match(None, iri("http://www.w3.org/2000/01/rdf-schema#label"), None)

    def test_cas_cells_that_mint_one_iri_abort(self):
        records = ecotox.parse_chemicals(
            "cas_number|chemical_name\n50000|Formalin\n79-06-1|Acrylamide\n50-00-0|Formaldehyde\n"
        )
        store = TripleStore()
        with pytest.raises(graph.DuplicateKeyError) as err:
            ecotox.ingest_chemicals(records, store)
        assert str(err.value) == ("chemicals: duplicate chemical IRI: "
                                  "[('https://cfpub.epa.gov/ecotox/chemical/50000', 'cas_number 50000', "
                                  "'cas_number 50-00-0')]")
        assert len(store) == 0

    def test_distinct_subject_count(self, effect_store, tables):
        records = ecotox.parse_chemicals(tables["chemicals"])
        subjects = effect_store.subjects(
            iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), ecotox.CHEMICAL_TYPE
        )
        assert len(subjects) == len(records) == 3


class TestTestIngest:
    def test_expected_test_triples(self, effect_store):
        text = serialize(effect_store)
        for line in [
            "<https://cfpub.epa.gov/ecotox/test/001> "
            "<https://cfpub.epa.gov/ecotox/compound> "
            "<https://cfpub.epa.gov/ecotox/chemical/115866> .",
            "<https://cfpub.epa.gov/ecotox/test/001> "
            "<https://cfpub.epa.gov/ecotox/species> "
            "<https://cfpub.epa.gov/ecotox/taxon/26812> .",
            "<https://cfpub.epa.gov/ecotox/test/001> "
            "<https://cfpub.epa.gov/ecotox/organsimLifestage> "
            "<https://cfpub.epa.gov/ecotox/lifestage/adult> .",
        ]:
            assert line in text

    def test_each_test_has_one_compound_and_species(self, effect_store):
        tests = effect_store.subjects(
            iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), ecotox.TEST_TYPE
        )
        assert len(tests) == 3
        for t in tests:
            assert len(effect_store.objects(t, ecotox.COMPOUND_PROP)) == 1
            assert len(effect_store.objects(t, ecotox.SPECIES_PROP)) == 1

    def test_each_result_reachable_from_one_test(self, effect_store):
        results = effect_store.subjects(
            iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), ecotox.RESULT_TYPE
        )
        assert len(results) == 6
        for r in results:
            assert len(effect_store.subjects(ecotox.HAS_RESULT_PROP, r)) == 1

    def test_has_result_count_per_test(self, effect_store):
        assert len(effect_store.objects(ecotox.test_iri("001"), ecotox.HAS_RESULT_PROP)) == 3

    def test_endpoint_code_uppercased_trailing_punctuation_dropped(self):
        assert ecotox.code_iri("LC50/").value == ET + "LC50"
        assert ecotox.code_iri("lc50").value == ET + "LC50"
        assert ecotox.code_iri("EC50*/").value == ET + "EC50"

    def test_plain_concentration_typed_decimal(self, effect_store):
        node = blank("conc_55501")
        assert effect_store.match(node, RDF_VALUE, literal("12.5", XSD_DECIMAL))
        assert effect_store.match(node, UNIT_UNITS, iri(ET + "MilligramPerLiter"))
        assert not effect_store.match(node, ecotox.QUALIFIER_PROP, None)

    def test_qualified_concentration_kept_raw(self, effect_store):
        node = blank("conc_55504")
        assert effect_store.match(node, RDF_VALUE, literal("100"))
        assert effect_store.match(node, ecotox.QUALIFIER_PROP, literal(">"))

    def test_unparsable_concentration_flagged(self):
        rec = ecotox.ResultRecord("9", "1", ecotox.code_iri("LC50"), "ca. 5-10", "mg/L", None)
        triples = ecotox._concentration_triples(ecotox.result_iri("9"), rec, None)
        objects = {(predicate, obj) for _, predicate, obj in triples}
        assert (RDF_VALUE, literal("ca. 5-10")) in objects
        assert (ecotox.QUALIFIER_PROP, literal("unparsed")) in objects

    def test_unit_without_registry_stays_literal(self):
        rec = ecotox.ResultRecord("9", "1", ecotox.code_iri("LC50"), "4", "mg/L", None)
        triples = ecotox._concentration_triples(ecotox.result_iri("9"), rec, None)
        assert any(obj == literal("mg/L") for _, _, obj in triples)

    def test_orphan_result_rejected_before_emission(self, tables):
        tests = ecotox.parse_tests(tables["tests"])
        results = ecotox.parse_results(tables["results"])
        results.append(ecotox.ResultRecord("1", "999999", ecotox.code_iri("LC50"), "1", "mg/L", None))
        store = TripleStore()
        with pytest.raises(ecotox.OrphanResultError) as err:
            ecotox.ingest_tests(tests, results, store)
        assert err.value.missing == ["999999"]
        assert len(store) == 0

    def test_a_result_hangs_from_the_subject_its_test_was_typed_with(self, tables):
        # the orphan check's map mints each test IRI once, and the results reuse it
        store = TripleStore()
        ecotox.ingest_tests(ecotox.parse_tests(tables["tests"]), ecotox.parse_results(tables["results"]), store)
        typed = {s.value: s for s, _, _ in store.probe(None, RDF_TYPE, ecotox.TEST_TYPE)}
        linked = [s for s, _, _ in store.probe(None, ecotox.HAS_RESULT_PROP)]
        assert linked
        assert all(s is typed[s.value] for s in linked)

    def test_bad_reference_number_names_the_test(self):
        text = "test_id|test_cas|species_number|reference_number\n12|50-00-0|7|abc\n"
        with pytest.raises(ValueError, match="^tests line 2: test 12: bad reference_number 'abc'$"):
            ecotox.parse_tests(text)

    def test_missing_reference_number_is_none(self):
        text = "test_id|test_cas|species_number|reference_number\n12|50-00-0|7|NR\n13|50-00-0|7|0042\n"
        assert [t.reference_number for t in ecotox.parse_tests(text)] == [None, 42]

    def test_zero_result_test_emits_metadata_only(self):
        tests = [ecotox.TestRecord("5", "50-00-0", "7")]
        store = TripleStore()
        ecotox.ingest_tests(tests, [], store)
        assert len(store) == 3

    def test_cross_table_validation(self, tables, species_records):
        tests = ecotox.parse_tests(tables["tests"])
        chemicals = ecotox.parse_chemicals(tables["chemicals"])
        ecotox.validate_test_references(tests, species_records, chemicals)
        bad = tests + [ecotox.TestRecord("77", "50-00-0", "404")]
        with pytest.raises(ecotox.UnknownReferenceError) as err:
            ecotox.validate_test_references(bad, species_records, chemicals)
        assert err.value.missing == ["cas:50-00-0", "species:404"]


class TestConsistencyScans:
    def test_clean_fixture_has_no_violations(self, effect_store):
        assert checks.subclass_cycles(effect_store) == []
        assert checks.disjointness_violations(effect_store, ecotox.GROUP_PROP) == []

    def test_planted_cycle_found(self):
        store = TripleStore()
        a, b, c = (iri(f"http://x.org/{n}") for n in "abc")
        store.add_all(
            [
                Triple(a, RDFS_SUBCLASSOF, b),
                Triple(b, RDFS_SUBCLASSOF, c),
                Triple(c, RDFS_SUBCLASSOF, a),
            ]
        )
        cycles = checks.subclass_cycles(store)
        assert len(cycles) == 1
        assert set(cycles[0]) == {a, b, c}

    def test_deep_chain_scans_without_recursion(self):
        nodes = [iri(f"http://x.org/n{i}") for i in range(3001)]
        store = TripleStore()
        store.add_all(Triple(a, RDFS_SUBCLASSOF, b) for a, b in zip(nodes, nodes[1:]))
        assert checks.subclass_cycles(store) == []
        store.add(Triple(nodes[-1], RDFS_SUBCLASSOF, nodes[0]))
        assert checks.subclass_cycles(store) == [nodes + [nodes[0]]]

    def test_cycles_and_order_match_recursive_search(self):
        rng = random.Random(4100)
        nodes = [iri(f"http://x.org/{i}") for i in range(12)]
        for _ in range(300):
            store = TripleStore()
            for _ in range(rng.randrange(30)):
                store.add(Triple(rng.choice(nodes), RDFS_SUBCLASSOF, rng.choice(nodes)))
            assert checks.subclass_cycles(store) == recursive_cycles(store)

    def test_planted_disjointness_violation_found(self):
        store = TripleStore()
        entity = iri("http://x.org/e")
        g1, g2 = ecotox.group_iri("Fish"), ecotox.group_iri("Worms")
        store.add(Triple(g1, iri("http://www.w3.org/2002/07/owl#disjointWith"), g2))
        store.add(Triple(entity, ecotox.GROUP_PROP, g1))
        store.add(Triple(entity, ecotox.GROUP_PROP, g2))
        assert checks.disjointness_violations(store, ecotox.GROUP_PROP) == [(entity, g1, g2)]


def recursive_cycles(store: TripleStore) -> list:
    """The recursive depth-first cycle search, as a reference for order."""
    edges = {}
    for t in store.match(p=RDFS_SUBCLASSOF):
        edges.setdefault(t.subject, set()).add(t.object)
    color, cycles, path = {}, [], []

    def visit(node):
        color[node] = "gray"
        path.append(node)
        for nxt in sorted(edges.get(node, ()), key=lambda term: term.ntriples()):
            if color.get(nxt) == "gray":
                cycles.append(path[path.index(nxt):] + [nxt])
            elif nxt not in color:
                visit(nxt)
        path.pop()
        color[node] = "black"

    for node in sorted(edges, key=lambda term: term.ntriples()):
        if node not in color:
            visit(node)
    return cycles
