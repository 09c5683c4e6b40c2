"""
Declaring measurement units and converting between them
=======================================================

Units live in a seven-column table: key, label, abbreviation,
multiplier to the SI base, offset, dimension, symbol. Loading the
table gives back both a conversion registry and RDF triples that
describe each unit.
"""

from ecokg.graph import Triple, TripleStore
from ecokg.ns import default_prefix_map
from ecokg.units import DimensionMismatchError, load_registry

TABLE = """\
# mass-per-volume family, base kg/m3
et:MilligramPerLiter\tmilligram per liter\tmg/L\t0.000001\t0\tmass-per-volume\tmg/L
et:MicrogramPerLiter\tmicrogram per liter\tug/L\t0.000000001\t0\tmass-per-volume\tug/L
et:GramPerLiter\tgram per liter\tg/L\t0.001\t0\tmass-per-volume\tg/L
# temperature needs an offset, not just a scale
et:DegreeCelsius\tdegree Celsius\tdegC\t1\t273.15\ttemperature\t°C
et:Kelvin\tkelvin\tK\t1\t0\ttemperature\tK
"""

prefixes = default_prefix_map()
store = TripleStore(prefixes)
registry, added = load_registry(TABLE, prefixes, store)
print(f"{len(registry)} units, {added} description triples")

# each unit contributes eight triples: three types, label,
# abbreviation, symbol, multiplier, offset
assert added == 8 * len(registry)

# lookup accepts either the abbreviation or the full unit id
# scale-only conversion: 2.5 mg/L is 2500 ug/L
v = registry.convert(2.5, "mg/L", "ug/L")
print(f"2.5 mg/L = {v} ug/L")
assert abs(v - 2500.0) / 2500.0 < 1e-12

# affine conversion through the offset
k = registry.convert(25.0, "degC", "K")
print(f"25 degC = {k} K")
assert abs(k - 298.15) < 1e-9

# round trips cancel exactly enough for float work
back = registry.convert(k, "K", "degC")
assert abs(back - 25.0) < 1e-9

# mixing dimensions is refused rather than silently scaled
try:
    registry.convert(1.0, "mg/L", "K")
except DimensionMismatchError as exc:
    print(f"rejected: {exc}")
else:
    raise AssertionError("dimension mismatch not caught")

# multipliers are written as plain decimals, never scientific notation
row = next(
    t
    for t in sorted(store, key=Triple.ntriples)
    if t.predicate.value.endswith("conversionMultiplier")
    and t.subject.value.endswith("MicrogramPerLiter")
)
print(f"stored multiplier: {row.object.value}")
assert row.object.value == "0.000000001"
