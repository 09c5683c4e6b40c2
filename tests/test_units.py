import math
import random

import pytest

from ecokg import units
from ecokg.graph import TripleStore, iri
from ecokg.ns import ET
from ecokg.ntriples import serialize
from ecokg.units import (
    DimensionMismatchError,
    DuplicateUnitError,
    UnitDef,
    UnitRegistry,
    convert,
)

MG_L = UnitDef(
    id=ET + "MilligramPerLiter",
    label="Milligram per Liter",
    abbreviation="mg/L",
    multiplier=0.000001,
    offset=0.0,
    dimension="mass-per-volume",
    symbol="mg/dm^3",
)
UG_L = UnitDef(
    id=ET + "MicrogramPerLiter",
    label="Microgram per Liter",
    abbreviation="ug/L",
    multiplier=0.000000001,
    offset=0.0,
    dimension="mass-per-volume",
    symbol="ug/dm^3",
)


class TestUnitDef:
    def test_multiplier_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                UnitDef("u", "l", "a", bad, 0.0, "d", "s")

    def test_decimal_lexical_plain_form(self):
        assert units._decimal_lexical(0.000001) == "0.000001"
        assert units._decimal_lexical(0.000000001) == "0.000000001"
        assert units._decimal_lexical(1.0) == "1.0"
        assert units._decimal_lexical(0.0) == "0.0"
        assert units._decimal_lexical(273.15) == "273.15"

    def test_dimension_class_name(self):
        assert units._dimension_class("mass-per-volume") == "MassPerVolumeUnit"
        assert units._dimension_class("amount per volume") == "AmountPerVolumeUnit"


class TestDefinitionTriples:
    def test_exact_description_of_milligram_per_liter(self):
        store = TripleStore()
        store.add_all(units.definition_triples(MG_L))
        assert serialize(store) == (
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://qudt.org/schema/qudt#abbreviation> "
            '"mg/L"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://qudt.org/schema/qudt#conversionMultiplier> "
            '"0.000001"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://qudt.org/schema/qudt#conversionOffset> "
            '"0.0"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://qudt.org/schema/qudt#symbol> "
            '"mg/dm^3"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://qudt.org/schema/qudt#DerivedUnit> .\n"
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://qudt.org/schema/qudt#MassPerVolumeUnit> .\n"
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://qudt.org/schema/qudt#SIDerivedUnit> .\n"
            "<https://cfpub.epa.gov/ecotox/MilligramPerLiter> "
            "<http://www.w3.org/2000/01/rdf-schema#label> "
            '"Milligram per Liter"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        )

    def test_eight_triples_per_unit(self):
        assert len(units.definition_triples(UG_L)) == 8


class TestConversion:
    def test_milligram_to_microgram(self):
        got = convert(1.0, MG_L, UG_L)
        assert math.isclose(got, 1000.0, rel_tol=1e-12)

    def test_identity(self):
        assert convert(42.0, MG_L, MG_L) == pytest.approx(42.0, rel=1e-12)

    def test_offset_units(self):
        kelvin = UnitDef("k", "Kelvin", "K", 1.0, 0.0, "temperature", "K")
        celsius = UnitDef("c", "Celsius", "degC", 1.0, 273.15, "temperature", "degC")
        assert convert(0.0, celsius, kelvin) == pytest.approx(273.15, rel=1e-12)
        assert convert(300.0, kelvin, celsius) == pytest.approx(26.85, rel=1e-9)

    def test_dimension_mismatch(self):
        diet = UnitDef("d", "x", "mg/kg", 0.000001, 0.0, "mass-per-mass", "mg/kg")
        with pytest.raises(DimensionMismatchError):
            convert(1.0, MG_L, diet)

    def test_round_trip_and_transitivity(self):
        rng = random.Random(23)
        for _ in range(100):
            defs = [
                UnitDef(f"u{i}", f"l{i}", f"a{i}", rng.uniform(1e-9, 1e3),
                        rng.uniform(-10, 10), "dim", f"s{i}")
                for i in range(3)
            ]
            value = rng.uniform(-1e3, 1e3)
            a, b, c = defs
            assert convert(convert(value, a, b), b, a) == pytest.approx(value, rel=1e-9, abs=1e-9)
            direct = convert(value, a, c)
            via = convert(convert(value, a, b), b, c)
            assert via == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestRegistry:
    def test_lookup_by_abbreviation_then_id(self):
        reg = UnitRegistry()
        reg.register(MG_L)
        assert reg.get("mg/L") is MG_L
        assert reg.get(MG_L.id) is MG_L
        assert reg.get("nope") is None
        with pytest.raises(KeyError):
            reg.require("nope")

    def test_duplicate_rejected(self):
        reg = UnitRegistry()
        reg.register(MG_L)
        with pytest.raises(DuplicateUnitError):
            reg.register(MG_L)

    def test_unit_term(self):
        reg = UnitRegistry()
        reg.register(MG_L)
        assert reg.unit_term("mg/L") == iri(MG_L.id)
        assert reg.unit_term("nope") is None

    def test_iteration_sorted_by_id(self):
        reg = UnitRegistry()
        reg.register(MG_L)
        reg.register(UG_L)
        assert list(reg) == [UG_L, MG_L]

    def test_registry_convert(self):
        reg = UnitRegistry()
        reg.register(MG_L)
        reg.register(UG_L)
        assert reg.convert(2.5, "mg/L", "ug/L") == pytest.approx(2500.0, rel=1e-12)


class TestTableLoading:
    def test_fixture_loads_with_triples(self, fixtures, prefixes):
        store = TripleStore(prefixes)
        registry = units.load_registry((fixtures / "units.tsv").read_text(), prefixes, store)
        assert len(registry) == 5
        assert len(store) == 5 * 8
        mg = registry.require("mg/L")
        assert mg.id == ET + "MilligramPerLiter"
        assert mg.multiplier == 0.000001

    def test_column_count_enforced(self, prefixes):
        with pytest.raises(ValueError, match="line 1"):
            units.parse_units("too\tfew\n", prefixes)

    def test_bad_number_reported_with_line(self, prefixes):
        text = "et:U\tlabel\tabbr\tnot-a-number\t0.0\tdim\tsym\n"
        with pytest.raises(ValueError, match="line 1"):
            units.parse_units(text, prefixes)

    @pytest.mark.parametrize(("multiplier", "offset"), [
        ("inf", "0.0"), ("1.0", "nan"), ("1e400", "0.0"), ("1.0", "-inf"), ("inf", "nan"),
    ])
    def test_non_finite_factor_reported_with_line(self, prefixes, multiplier, offset):
        # kg.nt would otherwise carry "inf"/"nan" as xsd:decimal, which has no such value
        text = f"et:A\tA\ta\t1.0\t0.0\tmass\ta\net:B\tB\tb\t{multiplier}\t{offset}\tmass\tb\n"
        with pytest.raises(ValueError, match="^units table line 2: .*must be finite"):
            units.parse_units(text, prefixes)
