"""Ecotoxicology knowledge-graph toolkit.

Builds an RDF-style graph from NCBI taxonomy dumps, ECOTOX effect
tables, and trait files; aligns the two taxonomies lexically; bridges
external identifiers; and answers property-path and pattern queries
over the result.

The names below load their home module on first use (PEP 562), so
``import ecokg`` imports no submodule and a build never loads the
query engine.
"""

import importlib

_EXPORTS = {
    "graph": ("FrozenStoreError", "PrefixMap", "Term", "Triple", "TripleStore",
              "UnknownPrefixError", "blank", "iri", "literal"),
    "ntriples": ("NTriplesParseError", "parse", "serialize"),
    "units": ("UnitDef", "UnitRegistry", "convert"),
    "align": ("Mapping", "MappingSet", "align_lexical", "levenshtein", "normalize_label",
              "similarity"),
    "query": ("eval_path", "fuzzy_lookup", "lineage", "parse_path", "parse_query", "select",
              "siblings"),
    "stats": ("GraphCounts", "count_graph", "coverage"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
