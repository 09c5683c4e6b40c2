"""
Bridging registry identifiers into graph IRIs
=============================================

External mapping files pair registry ids with entities that already
have IRIs elsewhere. Each pair becomes an owl:sameAs triple once the
id side is rewritten into a graph IRI. Chemical registry numbers carry
a checksum, so bad ids are caught before they mint a bogus IRI.
"""

from ecokg.graph import Triple, TripleStore
from ecokg.idmap import (
    IdPair,
    cas_to_iri,
    construct_sameas,
    ncbi_id_to_iri,
    parse_pairs,
    validate_cas,
)
from ecokg.ns import default_prefix_map

# checksum: each digit times its position from the right, mod 10.
# 50-00-0 is formaldehyde; the final 0 matches (5*4 + 0 + 0 + 0) % 10.
assert validate_cas("50-00-0")
assert validate_cas("79-06-1")
assert not validate_cas("79-06-2")  # check digit off by one
assert not validate_cas("79061")  # hyphens are part of the format
assert not validate_cas("1-06-1")  # first segment needs 2-7 digits

print(cas_to_iri("50-00-0"))
assert cas_to_iri("50-00-0") == "https://cfpub.epa.gov/ecotox/chemical/50000"

print(ncbi_id_to_iri(7955))
assert ncbi_id_to_iri(7955) == "https://www.ncbi.nlm.nih.gov/taxonomy/taxon/7955"

# a mapping file: registry id per row, counterpart IRI alongside
PAIRS = """\
# taxa by NCBI id, matched to wikidata entities
7955\twd:Q169444
687295\twd:Q27498982
"""
pairs = parse_pairs(PAIRS)
assert pairs == [IdPair("7955", "wd:Q169444"), IdPair("687295", "wd:Q27498982")]

prefixes = default_prefix_map()
store = TripleStore(prefixes)

# the ncbi rule rewrites the id column into taxon IRIs; the wd: curies
# resolve through the prefix map bound to the store
added, errors = construct_sameas(pairs, "ncbi", store)
print(f"{added} sameAs triples, {len(errors)} rejected")
assert added == 2 and errors == []

# the cas rule validates before rewriting; the broken id is reported
# and the good one still lands
chem_pairs = [
    IdPair("50-00-0", "wd:Q161496"),
    IdPair("79-06-2", "wd:Q2314"),
]
added, errors = construct_sameas(chem_pairs, "cas", store)
print(f"{added} sameAs triples, {len(errors)} rejected")
assert added == 1 and len(errors) == 1
assert "79-06-2" in errors[0]

for t in sorted(store, key=Triple.ntriples):
    print(" ", t.ntriples())
