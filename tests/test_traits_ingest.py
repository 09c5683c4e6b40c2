import re

import pytest

from ecokg import traits
from ecokg.graph import DuplicateKeyError, TripleStore, UnknownPrefixError, iri, literal
from ecokg.ntriples import serialize


@pytest.fixture(scope="module")
def glossary(fixtures, prefixes):
    return traits.load_glossary((fixtures / "traits" / "glossary.tsv").read_text(), prefixes)


@pytest.fixture(scope="module")
def rows(fixtures, prefixes):
    return traits.parse_traits((fixtures / "traits" / "traits.tsv").read_text(), prefixes)


@pytest.fixture(scope="module")
def trait_store(rows, glossary, prefixes):
    store = TripleStore(prefixes)
    traits.ingest_traits(rows, glossary, store)
    return store


class TestParsing:
    def test_glossary_resolves_curies(self, glossary):
        assert glossary["Oslofjorden"] == iri("http://marineregions.org/mrgid/Oslofjorden")

    def test_rows_resolved(self, rows):
        assert rows[0].subject == iri("https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525")
        assert rows[0].property == iri("http://eol.org/schema/terms/habitat")

    def test_glossary_term_listed_twice_is_rejected(self, prefixes):
        # the last row won: Oslo mapped to et:c
        with pytest.raises(DuplicateKeyError, match=r"^glossary: duplicate term: \['Oslo'\]$"):
            traits.load_glossary("Oslo\tet:a\nBergen\tet:b\nOslo\tet:c\n", prefixes)

    def test_column_count(self, prefixes):
        with pytest.raises(ValueError, match="line 1"):
            traits.parse_traits("a\tb\tc\n", prefixes)

    def test_unknown_kind_rejected(self, prefixes):
        with pytest.raises(ValueError):
            traits.parse_traits("et:x\tet:p\tv\tmystery\n", prefixes)

    @pytest.mark.parametrize(("value", "error", "message"), [
        ('"1"^^nope:int', UnknownPrefixError, "unknown prefix: 'nope'"),
        ('"1"^^<a<b>', ValueError, "invalid datatype IRI: 'a<b'"),
    ], ids=["unbound-prefix", "invalid-iri"])
    def test_bad_literal_datatype_names_its_line(self, prefixes, value, error, message):
        # the datatype was resolved only at ingest, where no line was known
        with pytest.raises(error, match=f"^trait table line 2: {re.escape(message)}$") as err:
            traits.parse_traits(f"et:x\tet:p\tv\tliteral\net:x\tet:p\t{value}\tliteral\n", prefixes)
        assert type(err.value) is error and err.value.line == 2

    def test_values_are_built_when_read(self, prefixes):
        text = 'et:x\tet:p\tet:y\tiri\net:x\tet:p\t"4"^^xsd:integer\tliteral\net:x\tet:p\t"Oslo"@no\tglossary\n'
        assert [row.value for row in traits.parse_traits(text, prefixes)] == [
            prefixes.expand("et:y"), literal("4", "http://www.w3.org/2001/XMLSchema#integer"), "Oslo",
        ]


class TestLiteralColumn:
    def test_quoted_plain(self, prefixes):
        assert traits.parse_literal_value('"five"', prefixes) == literal("five")

    def test_language_tagged(self, prefixes):
        assert traits.parse_literal_value('"Oslofjorden"@no', prefixes) == literal(
            "Oslofjorden", language="no"
        )

    def test_typed(self, prefixes):
        assert traits.parse_literal_value('"4"^^xsd:integer', prefixes) == literal(
            "4", "http://www.w3.org/2001/XMLSchema#integer"
        )
        assert traits.parse_literal_value(
            '"4"^^<http://www.w3.org/2001/XMLSchema#integer>', prefixes
        ) == literal("4", "http://www.w3.org/2001/XMLSchema#integer")

    def test_bare_text(self, prefixes):
        assert traits.parse_literal_value("least concern", prefixes) == literal("least concern")


class TestIngest:
    def test_expected_trait_triples(self, trait_store):
        text = serialize(trait_store)
        for line in [
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525> "
            "<http://eol.org/schema/terms/habitat> "
            "<http://purl.obolibrary.org/obo/ENVO_00000873> .",
            "<https://www.ncbi.nlm.nih.gov/taxonomy/taxon/35525> "
            "<http://eol.org/schema/terms/presentIn> "
            "<http://marineregions.org/mrgid/Oostende> .",
        ]:
            assert line in text

    def test_glossary_value_becomes_iri(self, trait_store):
        assert trait_store.match(
            iri("https://cfpub.epa.gov/ecotox/taxon/26812"),
            iri("http://eol.org/schema/terms/endemicTo"),
            iri("http://marineregions.org/mrgid/Oslofjorden"),
        )

    def test_language_literal_survives(self, trait_store):
        assert trait_store.match(
            iri("http://marineregions.org/mrgid/Oslofjorden"),
            iri("http://www.w3.org/2000/01/rdf-schema#label"),
            literal("Oslofjorden", language="no"),
        )

    def test_one_triple_per_row(self, rows, glossary, prefixes):
        store = TripleStore(prefixes)
        traits.ingest_traits(rows, glossary, store)
        assert len(store) == len(rows)

    def test_unresolved_terms_abort_atomically(self, rows, prefixes):
        store = TripleStore(prefixes)
        with pytest.raises(traits.UnresolvedGlossaryError) as err:
            traits.ingest_traits(rows, {}, store)
        assert "Oslofjorden" in err.value.terms
        assert len(store) == 0
