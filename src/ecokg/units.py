"""Unit registry with linear conversion and QUDT-style triple emission.

Each unit carries a multiplicative factor and an additive offset
relative to the base unit of its dimension (the unit whose multiplier
is 1 in the loaded table). Conversion between two units of the same
dimension goes through the base:

    ((value * from.multiplier + from.offset) - to.offset) / to.multiplier

Units of different dimension tags never convert. Mass-per-mass
concentrations (e.g. "mg/kg diet") carry their own dimension tag, so
they are deliberately unreachable from mass-per-volume units.
"""

import math
from collections import namedtuple
from decimal import Decimal

from .graph import (
    CheckedRecord, PrefixMap, Term, TripleStore, ValidationError, ascii_float, iri, literal,
    read_tsv_rows,
)
from .ns import QUDT, RDF_TYPE, RDFS_LABEL, XSD_DECIMAL, XSD_STRING


class DuplicateUnitError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class UnitDef(CheckedRecord,
              namedtuple("UnitDef", "id label abbreviation multiplier offset dimension symbol")):
    """One unit: its IRI term, presentation strings, and conversion data."""

    __slots__ = ()

    def __new__(cls, id: Term, label: str, abbreviation: str, multiplier: float, offset: float,
                dimension: str, symbol: str) -> "UnitDef":
        if not multiplier > 0:
            raise ValueError(f"multiplier must be positive: {multiplier!r}")
        # xsd:decimal has no lexical form for inf or nan
        if not math.isfinite(multiplier) or not math.isfinite(offset):
            raise ValueError(f"multiplier and offset must be finite: {multiplier!r}, {offset!r}")
        return tuple.__new__(cls, (id, label, abbreviation, multiplier, offset, dimension, symbol))


def _decimal_lexical(value: float) -> str:
    """Plain decimal rendering without exponent (0.000001, not 1e-06)."""
    return format(Decimal(repr(value)), "f")


def _dimension_class(dimension: str) -> str:
    # "mass-per-volume" -> "MassPerVolumeUnit"
    parts = [p for p in dimension.replace("_", "-").replace(" ", "-").split("-") if p]
    return "".join(p[:1].upper() + p[1:] for p in parts) + "Unit"


def definition_triples(unit: UnitDef) -> list[tuple[Term, Term, Term]]:
    """QUDT-shaped description: types, label, abbreviation, factors, symbol."""
    subject = unit.id
    return [
        (subject, RDF_TYPE, iri(QUDT + _dimension_class(unit.dimension))),
        (subject, RDF_TYPE, iri(QUDT + "SIDerivedUnit")),
        (subject, RDF_TYPE, iri(QUDT + "DerivedUnit")),
        (subject, RDFS_LABEL, literal(unit.label, XSD_STRING)),
        (subject, iri(QUDT + "abbreviation"), literal(unit.abbreviation, XSD_STRING)),
        (subject, iri(QUDT + "conversionMultiplier"), literal(_decimal_lexical(unit.multiplier), XSD_DECIMAL)),
        (subject, iri(QUDT + "conversionOffset"), literal(_decimal_lexical(unit.offset), XSD_DECIMAL)),
        (subject, iri(QUDT + "symbol"), literal(unit.symbol, XSD_STRING)),
    ]


def convert(value: float, from_unit: UnitDef, to_unit: UnitDef) -> float:
    if from_unit.dimension != to_unit.dimension:
        raise DimensionMismatchError(
            f"cannot convert {from_unit.dimension!r} to {to_unit.dimension!r}"
        )
    return ((value * from_unit.multiplier + from_unit.offset) - to_unit.offset) / to_unit.multiplier


class UnitRegistry:
    """Units keyed by id text and abbreviation. Configure once, then read."""

    def __init__(self):
        self._by_id: dict[str, UnitDef] = {}
        self._by_abbreviation: dict[str, UnitDef] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(sorted(self._by_id.values(), key=lambda u: u.id))

    def register(self, unit: UnitDef, store: TripleStore | None = None) -> None:
        """Add a unit and optionally emit its description triples."""
        if unit.id.value in self._by_id:
            raise DuplicateUnitError(f"unit id already registered: {unit.id.value}")
        if unit.abbreviation in self._by_abbreviation:
            raise DuplicateUnitError(f"unit abbreviation already registered: {unit.abbreviation!r}")
        self._by_id[unit.id.value] = unit
        self._by_abbreviation[unit.abbreviation] = unit
        if store is not None:
            store.add_all(definition_triples(unit))

    def get(self, key: str) -> UnitDef | None:
        """Look up by abbreviation first, then by id."""
        return self._by_abbreviation.get(key) or self._by_id.get(key)

    def require(self, key: str) -> UnitDef:
        unit = self.get(key)
        if unit is None:
            raise KeyError(f"unknown unit: {key!r}")
        return unit

    def convert(self, value: float, from_key: str, to_key: str) -> float:
        return convert(value, self.require(from_key), self.require(to_key))

    def unit_term(self, key: str) -> Term | None:
        unit = self.get(key)
        return unit.id if unit is not None else None


def load_registry(text: str, prefixes: PrefixMap, store: TripleStore | None = None) -> UnitRegistry:
    """The registry of the units in 7-column TSV text; each unit's description triples go to ``store``, if given.

    Columns: id, label, abbreviation, multiplier, offset, dimension,
    symbol. The id is an IRI or a curie of ``prefixes``, read into its IRI
    term. Each unit is registered as its row is read, so a bad cell, a
    repeated unit or a dimension whose class is no IRI fails naming its line.
    """
    registry = UnitRegistry()

    def register(unit_id, label, abbreviation, multiplier, offset, dimension, symbol):
        registry.register(UnitDef(prefixes.resolve(unit_id), label, abbreviation, ascii_float(multiplier),
                                  ascii_float(offset), dimension, symbol), store)

    read_tsv_rows(text, "units table", 7, register)
    return registry
