"""
Building a small ecotoxicology graph from raw tables
====================================================

Three inputs, one store: a taxonomy dump, two effect tables, and a
trait file. Everything here is inline so the script runs standalone.
"""

from ecokg import dmp, ecotox, traits, units
from ecokg.graph import TripleStore
from ecokg.ns import default_prefix_map
from ecokg.ntriples import serialize

prefixes = default_prefix_map()
store = TripleStore(prefixes)

# taxonomy nodes: id, parent, rank, (embl code), division
NODES = (
    "1\t|\t1\t|\tno rank\t|\t\t|\t8\t|\n"
    "6669\t|\t1\t|\tgenus\t|\t\t|\t1\t|\n"
    "35525\t|\t6669\t|\tspecies\t|\tDM\t|\t1\t|\n"
)
NAMES = (
    "6669\t|\tDaphnia\t|\tDaphnia <crustacean>\t|\tscientific name\t|\n"
    "35525\t|\tDaphnia magna\t|\t\t|\tscientific name\t|\n"
)
DIVISIONS = "1\t|\tINV\t|\tInvertebrates\t|\n8\t|\tUNA\t|\tUnassigned\t|\n"

dmp.ingest_nodes(dmp.parse_nodes(NODES), store)
dmp.ingest_names(dmp.parse_names(NAMES), store)
dmp.ingest_divisions(dmp.parse_divisions(DIVISIONS), store)

# effect data: one species row, one chemical, one test with a result
SPECIES = (
    "species_number|common_name|latin_name|kingdom|phylum_division|class|"
    "tax_order|family|genus|species|ecotox_group\n"
    "5156|Zebra Danio|Danio rerio|Animalia|Chordata|Actinopterygii|"
    "Cypriniformes|Cyprinidae|Danio|rerio|Fish\n"
)
CHEMICALS = "cas_number|chemical_name|ecotox_group\n79-06-1|Acrylamide|Organics\n"
TESTS = "test_id|reference_number|test_cas|species_number|organism_lifestage\n2037887|848|79-06-1|5156|NR\n"
RESULTS = "result_id|test_id|endpoint|conc1_mean|conc1_unit|effect\n2063723|2037887|LC50|220|mg/L|ACUTE\n"

registry = units.load_registry(
    "et:MilligramPerLiter\tmilligram per liter\tmg/L\t0.000001\t0\tmass-per-volume\tmg/L",
    prefixes,
    store,
)
ecotox.ingest_species(ecotox.parse_species(SPECIES), store)
ecotox.ingest_chemicals(ecotox.parse_chemicals(CHEMICALS), store)
ecotox.ingest_tests(
    ecotox.parse_tests(TESTS), ecotox.parse_results(RESULTS), store, registry
)

# trait rows attach habitat facts to taxa
TRAITS = "ncbi:taxon/35525\teol:habitat\tENVO:00000873\tiri\n"
traits.ingest_traits(traits.parse_traits(TRAITS, prefixes), {}, store)

print(f"{len(store)} triples\n")

# the species lineage was padded to uniform depth, so the leaf
# connects through every level down from animalia
leaf = prefixes.expand("et:taxon/5156")
for t in store.match(s=leaf):
    print(" ", t.ntriples())

# canonical serialization sorts rows, so output is reproducible
text = serialize(store)
assert text.splitlines() == sorted(text.splitlines())
print(f"\nserialized {len(text.splitlines())} sorted rows")
