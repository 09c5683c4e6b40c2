"""What the package loads, and the checked records of the build path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecokg
from ecokg import align, ecotox, graph, ntriples, query, stats, traits, units

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names of the package root, by the module that defines them.
HOMES = {
    graph: ("FrozenStoreError", "PrefixMap", "Term", "Triple", "TripleStore", "UnknownPrefixError",
            "blank", "iri", "literal"),
    ntriples: ("NTriplesParseError", "parse", "serialize"),
    units: ("UnitDef", "UnitRegistry", "convert"),
    align: ("Mapping", "MappingSet", "align_lexical", "levenshtein", "normalize_label", "similarity"),
    query: ("eval_path", "fuzzy_lookup", "lineage", "parse_path", "parse_query", "select", "siblings"),
    stats: ("GraphCounts", "count_graph", "coverage"),
}


def modules_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestImportSet:
    def test_cli_loads_neither_the_query_engine_nor_dataclasses(self):
        loaded = modules_after("import ecokg.cli")
        assert "ecokg.cli" in loaded and "ecokg.ntriples" in loaded
        assert "ecokg.query" not in loaded
        assert "dataclasses" not in loaded

    def test_package_root_loads_no_submodule(self):
        loaded = modules_after("import ecokg")
        assert {name for name in loaded if name.startswith("ecokg.")} == set()

    def test_a_query_name_loads_the_query_engine(self):
        loaded = modules_after("import ecokg\necokg.parse_path")
        assert "ecokg.query" in loaded


class TestPackageRoot:
    def test_all_lists_every_public_name(self):
        assert sorted(ecokg.__all__) == sorted(name for names in HOMES.values() for name in names)

    @pytest.mark.parametrize("name", sorted(ecokg.__all__))
    def test_name_is_its_home_module_object(self, name):
        (home,) = [module for module, names in HOMES.items() if name in names]
        assert getattr(ecokg, name) is getattr(home, name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from ecokg import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(ecokg.__all__)
        assert namespace["Term"] is graph.Term and namespace["select"] is query.select

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            ecokg.nope
        assert not hasattr(ecokg, "cli_main")

    def test_submodule_import_is_not_an_attribute_lookup(self):
        from ecokg import cli

        assert cli.main is sys.modules["ecokg.cli"].main


class TestCheckedRecords:
    """Records with a validating ``__new__`` re-check on ``_replace`` and ``_make``."""

    @pytest.mark.parametrize(("good", "bad_change"), [
        (align.Mapping("s", "t", 0.5, "m"), {"score": 1.5}),
        (traits.TraitRow("http://x.org/s", "http://x.org/p", "v", "literal"), {"kind": "colour"}),
        (units.UnitDef("u", "l", "a", 1.0, 0.0, "d", "s"), {"multiplier": 0.0}),
    ], ids=["Mapping", "TraitRow", "UnitDef"])
    def test_replace_and_make_recheck(self, good, bad_change):
        cls = type(good)
        assert cls._make(good) == good and type(cls._make(good)) is cls
        (field, value), = bad_change.items()
        with pytest.raises(ValueError):
            good._replace(**bad_change)
        with pytest.raises(ValueError):
            cls._make(value if name == field else getattr(good, name) for name in cls._fields)
        kept = good._replace(**{cls._fields[0]: "other"})
        assert type(kept) is cls and kept[1:] == good[1:]

    @pytest.mark.parametrize("record", [
        align.Mapping("s", "t", 1.0, "m"),
        traits.TraitRow("s", "p", "v", "iri"),
        units.UnitDef("u", "l", "a", 2.0, 0.0, "d", "s"),
        ecotox.SpeciesRecord("1", None, None, None, (), ()),
    ], ids=lambda record: type(record).__name__)
    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], "y")

    def test_ecotox_records_keep_their_defaults(self):
        test = ecotox.TestRecord("5", "50-00-0", "7")
        assert (test.reference_number, test.lifestage) == (None, None)
        result = ecotox.ResultRecord("9", "5", ecotox.code_iri("LC50"))
        assert (result.concentration, result.unit, result.effect) == (None, None, None)
        assert ecotox.ResultRecord("9", "5", ecotox.code_iri("LC50"), unit="mg/L").unit == "mg/L"

    def test_synthesized_lineage_is_a_species_record(self):
        rec = ecotox.SpeciesRecord("7", None, "Bufo bufo", None, (("genus", "Bufo"), ("species", "")),
                                   ecotox.level_terms(["genus", "species"]))
        filled = ecotox.synthesize_lineage(rec)
        assert type(filled) is ecotox.SpeciesRecord
        assert filled.lineage == (("genus", "Bufo"), ("species", "Bufo species"))
        assert filled[:4] == rec[:4] and filled.ranks is rec.ranks
