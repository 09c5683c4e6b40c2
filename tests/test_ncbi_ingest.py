import pytest

from ecokg import dmp, graph
from ecokg.graph import TripleStore, iri, literal
from ecokg.ntriples import serialize


@pytest.fixture(scope="module")
def dump_texts(fixtures):
    return {
        "nodes": (fixtures / "ncbi" / "nodes.dmp").read_text(),
        "names": (fixtures / "ncbi" / "names.dmp").read_text(),
        "divisions": (fixtures / "ncbi" / "division.dmp").read_text(),
    }


@pytest.fixture(scope="module")
def taxonomy_store(dump_texts):
    store = TripleStore()
    dmp.ingest_nodes(dmp.parse_nodes(dump_texts["nodes"]), store)
    dmp.ingest_names(dmp.parse_names(dump_texts["names"]), store)
    dmp.ingest_divisions(dmp.parse_divisions(dump_texts["divisions"]), store)
    return store


DUMP_NAMES = {dmp.parse_nodes: "nodes.dmp", dmp.parse_names: "names.dmp", dmp.parse_divisions: "division.dmp"}


class TestRecordParsing:
    def test_field_separator_and_terminator(self):
        # the empty third field still counts, so the fourth is the name class
        assert dmp.parse_names("10\t|\tleft\t|\t\t|\tright\t|\n") == [dmp.TaxonNameRow(10, "left", "right")]

    def test_records_split_at_newline_only(self):
        text = "1\t|\tX\t|\ta\u2028b\x0bc\t|\r\n2\t|\tY\t|\td\u0085e\x1cf\t|\n"
        assert dmp.parse_divisions(text) == [dmp.DivisionRow(1, "a\u2028b\x0bc"), dmp.DivisionRow(2, "d\u0085e\x1cf")]

    def test_missing_terminator_is_an_error_with_line(self):
        with pytest.raises(dmp.DmpFormatError) as err:
            dmp.parse_nodes("1\t|\t1\t|\tno rank\t|\t\t|\t8\t|\n3\t|\t4\t|\tbroken\n")
        assert err.value.line == 2
        assert str(err.value) == "nodes.dmp line 2: record does not end with tab-pipe terminator"

    @pytest.mark.parametrize(("parse", "good", "bad"), [
        (dmp.parse_nodes, "1\t|\t1\t|\tno rank\t|\t\t|\t8\t|", "2\t|\tx\t|\tspecies\t|\t\t|\t1\t|"),
        (dmp.parse_names, "1\t|\troot\t|\t\t|\tscientific name\t|", "x\t|\tleaf\t|\t\t|\tscientific name\t|"),
        (dmp.parse_divisions, "0\t|\tBCT\t|\tBacteria\t|", "1\t|\tINV\t|"),
    ], ids=["nodes", "names", "divisions"])
    def test_error_names_the_file_line_past_blank_lines(self, parse, good, bad):
        with pytest.raises(dmp.DmpFormatError, match=f"^{DUMP_NAMES[parse]} line 3: ") as err:
            parse(f"{good}\n\n{bad}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(("parse", "bad", "message"), [
        (dmp.parse_nodes, "5\t|", "expected at least 2 fields, got 1"),
        (dmp.parse_nodes, "5\t|\t1\t|\tspecies\t|", "expected at least 5 fields, got 3"),
        (dmp.parse_nodes, "x\t|\t1\t|\tspecies\t|\t\t|\t1\t|", "field 1 is not an integer: 'x'"),
        (dmp.parse_nodes, "5\t|\t 1a \t|\tspecies\t|\t\t|\t1\t|", "field 2 is not an integer: '1a'"),
        (dmp.parse_nodes, "5\t|\t1\t|\tspecies\t|\t\t|\tBCT\t|", "field 5 is not an integer: 'BCT'"),
        # the first bad field in reading order is the one reported
        (dmp.parse_nodes, "x\t|\t1\t|", "field 1 is not an integer: 'x'"),
        (dmp.parse_nodes, "5\t|\tx\t|", "field 2 is not an integer: 'x'"),
        (dmp.parse_nodes, "x\t|\ty\t|\tspecies\t|\t\t|\t1\t|", "field 1 is not an integer: 'x'"),
        (dmp.parse_nodes, "5\t|\tx\t|\tspecies\t|\t\t|\tBCT\t|", "field 2 is not an integer: 'x'"),
        # ids are ASCII digits: int() alone reads each of these cells as an id
        (dmp.parse_nodes, "1_0\t|\t+1\t|\tspecies\t|\t\t|\t\u0661\t|", "field 1 is not an integer: '1_0'"),
        (dmp.parse_nodes, "10\t|\t+1\t|\tspecies\t|\t\t|\t\u0661\t|", "field 2 is not an integer: '+1'"),
        (dmp.parse_nodes, "10\t|\t1\t|\tspecies\t|\t\t|\t\u0661\t|", "field 5 is not an integer: '\u0661'"),
        (dmp.parse_nodes, "10\t|\t-1\t|\tspecies\t|\t\t|\t1\t|", "field 2 is not an integer: '-1'"),
        (dmp.parse_names, "1\u0660\t|\tleaf\t|\t\t|\tscientific name\t|", "field 1 is not an integer: '1\u0660'"),
        (dmp.parse_divisions, "\uff13\t|\tINV\t|\tInvertebrates\t|", "field 1 is not an integer: '\uff13'"),
        (dmp.parse_names, "5\t|\tleaf\t|", "expected at least 4 fields, got 2"),
        (dmp.parse_names, "5.0\t|\tleaf\t|\t\t|\tscientific name\t|", "field 1 is not an integer: '5.0'"),
        (dmp.parse_divisions, "1\t|\tINV\t|", "expected at least 3 fields, got 2"),
        (dmp.parse_divisions, "\t|\tINV\t|\tInvertebrates\t|", "field 1 is not an integer: ''"),
    ])
    def test_field_errors_name_the_line(self, parse, bad, message):
        good = {
            dmp.parse_nodes: "1\t|\t1\t|\tno rank\t|\t\t|\t8\t|",
            dmp.parse_names: "1\t|\troot\t|\t\t|\tscientific name\t|",
            dmp.parse_divisions: "0\t|\tBCT\t|\tBacteria\t|",
        }[parse]
        with pytest.raises(dmp.DmpFormatError) as err:
            parse(f"{good}\n{good}\n{bad}\n")
        assert str(err.value) == f"{DUMP_NAMES[parse]} line 3: {message}"
        assert err.value.line == 3

    def test_fields_are_stripped(self):
        assert dmp.parse_nodes(" 5 \t|\t 1\t|\t species \t|\t\t|\t1 \t|\n") == [
            dmp.TaxonNodeRow(5, 1, "species", 1)
        ]
        assert dmp.parse_names("5\t|\t Danio rerio \t|\t\t|\t scientific name\t|") == [
            dmp.TaxonNameRow(5, "Danio rerio", "scientific name")
        ]
        assert dmp.parse_divisions(" 0\t|\tBCT\t|\tBacteria \t|") == [dmp.DivisionRow(0, "Bacteria")]

    def test_non_integer_id(self):
        with pytest.raises(dmp.DmpFormatError):
            dmp.parse_nodes("x\t|\t1\t|\tspecies\t|\t\t|\t1\t|\n")

    def test_too_few_fields(self):
        with pytest.raises(dmp.DmpFormatError):
            dmp.parse_nodes("5\t|\t1\t|\tspecies\t|\n")

    def test_nodes_columns(self, dump_texts):
        rows = dmp.parse_nodes(dump_texts["nodes"])
        by_id = {r.taxon_id: r for r in rows}
        assert by_id[687295].parent_id == 513583
        assert by_id[687295].rank == "species"
        assert by_id[687295].division_id == 1
        assert by_id[1].parent_id == 1

    def test_names_columns(self, dump_texts):
        rows = dmp.parse_names(dump_texts["names"])
        wanted = [r for r in rows if r.taxon_id == 687295]
        assert wanted == [dmp.TaxonNameRow(687295, "Coleophora cornella", "scientific name")]

    def test_divisions_columns(self, dump_texts):
        rows = dmp.parse_divisions(dump_texts["divisions"])
        assert dmp.DivisionRow(2, "Mammals") in rows

    def test_names_reference_only_known_nodes(self, dump_texts):
        node_ids = {r.taxon_id for r in dmp.parse_nodes(dump_texts["nodes"])}
        name_ids = {r.taxon_id for r in dmp.parse_names(dump_texts["names"])}
        assert name_ids <= node_ids


class TestIriMinting:
    def test_taxon_and_division_iris(self):
        assert dmp.taxon_iri(7955).value.endswith("/taxonomy/taxon/7955")
        assert dmp.division_iri(2).value.endswith("/taxonomy/division/2")

    @pytest.mark.parametrize(
        "rank,local",
        [
            ("species", "Species"),
            ("no rank", "No_rank"),
            ("superfamily", "Superfamily"),
            ("forma specialis", "Forma_specialis"),
        ],
    )
    def test_rank_iris(self, rank, local):
        assert dmp.rank_iri(rank).value.endswith("/taxonomy/" + local)

    def test_name_class_iri(self):
        assert dmp.name_class_iri("scientific name").value.endswith("/scientific_name")
        assert dmp.name_class_iri("genbank common name").value.endswith("/genbank_common_name")


class TestHierarchyIngest:
    def test_dangling_parent_aborts(self):
        rows = [dmp.TaxonNodeRow(5, 99, "species", 1)]
        store = TripleStore()
        with pytest.raises(dmp.DanglingParentError) as err:
            dmp.ingest_nodes(rows, store)
        assert err.value.missing == [99]
        assert len(store) == 0

    def test_repeated_taxon_id_aborts(self):
        # a repeat merged two taxa, giving the node two parents and two ranks
        rows = [dmp.TaxonNodeRow(1, 1, "no rank", 8), dmp.TaxonNodeRow(5, 1, "species", 1),
                dmp.TaxonNodeRow(7, 1, "genus", 1), dmp.TaxonNodeRow(5, 7, "species", 1),
                dmp.TaxonNodeRow(7, 1, "genus", 1)]
        store = TripleStore()
        with pytest.raises(graph.DuplicateKeyError, match=r"^nodes\.dmp: duplicate taxon id: \[5, 7\]$"):
            dmp.ingest_nodes(rows, store)
        assert len(store) == 0

    def test_root_emits_no_self_subclass(self, taxonomy_store):
        root = dmp.taxon_iri(1)
        assert not taxonomy_store.match(root, None, root)

    def test_expected_hierarchy_triples(self, taxonomy_store):
        text = serialize(taxonomy_store)
        for line in [
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> "
            "<http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/513583> .",
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> "
            "<https://www.ncbi.nlm.nih.gov/taxonomy/rank> "
            "<https://www.ncbi.nlm.nih.gov/taxonomy/Species> .",
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/687295> "
            "<https://www.ncbi.nlm.nih.gov/taxonomy/scientific_name> "
            '"Coleophora cornella" .',
            "<https://www.ncbi.nlm.nih.gov/taxonomy/division/2> "
            "<http://www.w3.org/2002/07/owl#disjointWith> "
            "<https://www.ncbi.nlm.nih.gov/taxonomy/division/4> .",
            "<https://www.ncbi.nlm.nih.gov/taxonomy/division/2> "
            '<http://www.w3.org/2000/01/rdf-schema#label> "Mammals" .',
        ]:
            assert line in text

    def test_names_mirrored_under_label(self, taxonomy_store):
        subject = dmp.taxon_iri(7955)
        labels = {
            t.object
            for t in taxonomy_store.match(
                subject, iri("http://www.w3.org/2000/01/rdf-schema#label"), None
            )
        }
        assert literal("Danio rerio") in labels
        assert literal("zebrafish") in labels

    def test_division_membership(self, taxonomy_store):
        assert taxonomy_store.match(
            dmp.taxon_iri(7955), dmp._DIVISION_PROP, dmp.division_iri(10)
        )


class TestDivisionIngest:
    def test_pair_count_is_k_choose_2(self):
        rows = [dmp.DivisionRow(i, f"d{i}") for i in (3, 1, 7, 2)]
        store = TripleStore()
        dmp.ingest_divisions(rows, store)
        disjoint = store.match(p=iri("http://www.w3.org/2002/07/owl#disjointWith"))
        assert len(disjoint) == 4 * 3 // 2
        assert len(store) == len(disjoint) + 4

    def test_direction_small_to_large(self):
        store = TripleStore()
        dmp.ingest_divisions([dmp.DivisionRow(9, "x"), dmp.DivisionRow(2, "y")], store)
        assert store.match(dmp.division_iri(2), None, dmp.division_iri(9))
        assert not store.match(dmp.division_iri(9), None, dmp.division_iri(2))

    def test_duplicate_division_rejected(self):
        rows = [dmp.DivisionRow(i, f"d{n}") for n, i in enumerate((3, 1, 3, 2, 1, 3))]
        store = TripleStore()
        with pytest.raises(dmp.DuplicateDivisionError,
                           match=r"^division\.dmp: duplicate division id: \[1, 3\]$") as err:
            dmp.ingest_divisions(rows, store)
        assert isinstance(err.value, graph.DuplicateKeyError)
        assert len(store) == 0

    def test_idempotent_reingest(self, dump_texts):
        store = TripleStore()
        rows = dmp.parse_divisions(dump_texts["divisions"])
        dmp.ingest_divisions(rows, store)
        first = len(store)
        assert first > 0
        dmp.ingest_divisions(rows, store)
        assert len(store) == first
