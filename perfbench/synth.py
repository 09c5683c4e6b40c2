"""Seeded generator of NCBI- and ECOTOX-shaped inputs for the ecokg benchmark.

``generate(seed, out_dir, scale)`` writes a complete ``update`` input set
(``config.json`` plus the dump files, ECOTOX pipe tables, unit, trait,
glossary and identifier pair tables) and returns the ground-truth
sidecar, which it also writes as ``truth.json``. The same seed and scale
always give byte-identical files: only ``random.Random(seed)`` supplies
randomness and nothing iterates a set.

Shape of the data:
- an NCBI tree from a root through kingdom, phylum, class, order, family
  (sometimes subfamily), genus and species, with skewed genus sizes,
  synonyms (some with an author and year after a comma) and common names;
- ECOTOX species sampled from that tree with a seven-level lineage, a
  share of latin names carrying one or two typos, and title-case common
  names;
- chemicals with valid CAS numbers plus a small share with a wrong check
  digit, named with commas, parentheses, primes and non-ASCII letters;
- tests and results whose endpoints include written variants of LC50
  (``LC50/``, ``LC50*``), with qualified and unparsed concentrations;
- trait rows for a share of taxa; NCBI and CAS pair tables covering
  every taxon and chemical.

Left out on purpose, because the program cannot build them yet:
tautonyms and names shared across ranks (they make a subClassOf cycle),
hierarchies deeper than the recursion limit, and the line separators
U+0085, U+2028 and U+2029 (they do not re-parse). Every generated word
therefore has a distinct lineage key, and every generated name avoids
the characters ``str.splitlines`` splits on.

Run ``python3 perfbench/synth.py --seed 1 --out DIR`` to write one set.
"""

import argparse
import json
import random
from pathlib import Path

ET = "https://cfpub.epa.gov/ecotox/"
NCBI = "https://www.ncbi.nlm.nih.gov/taxonomy/"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

DEV_SEED = 1
HELD_OUT_SEED = 7

# Counts per scale. "bench" is what the benchmark runs; "test" keeps the
# unit tests quick.
SCALES = {
    "bench": {
        "kingdoms": 3, "phyla": 4, "classes": 5, "orders": 8, "families": 14,
        "genera": 26, "species": 110, "ecotox_share": 0.6, "chemicals": 110,
        "tests": 320, "trait_share": 0.15,
    },
    "test": {
        "kingdoms": 2, "phyla": 3, "classes": 5, "orders": 8, "families": 12,
        "genera": 25, "species": 90, "ecotox_share": 0.5, "chemicals": 30,
        "tests": 80, "trait_share": 0.2,
    },
}

RANKS = ("kingdom", "phylum", "class", "order", "family", "genus")
ECOTOX_LEVELS = ("kingdom", "phylum_division", "class", "tax_order", "family", "genus", "species")
_RANK_SUFFIXES = {
    "kingdom": ("ia", "ota"),
    "phylum": ("phyta", "poda", "ata", "ozoa"),
    "class": ("opsida", "aceae", "ia", "ida"),
    "order": ("iformes", "ales", "optera", "ida"),
    "family": ("idae", "aceae"),
    "subfamily": ("inae", "oideae"),
    "genus": ("us", "a", "ella", "ops", "ium", "ia"),
    "epithet": ("us", "a", "um", "ensis", "ii", "oides", "ata"),
    "eponym": ("son", "ini", "er", "ez", "ov", "ani"),
}
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "ch", "cl", "dr", "gr", "ph", "pl", "pr", "sc", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "y", "io", "ea")
_ACCENTED = {"e": "ë", "a": "á", "o": "ö", "u": "ü", "i": "ï"}

_DIVISIONS = (
    (0, "BCT", "Bacteria"), (1, "INV", "Invertebrates"), (2, "MAM", "Mammals"),
    (3, "PHG", "Phages"), (4, "PLN", "Plants and Fungi"), (5, "PRI", "Primates"),
    (6, "ROD", "Rodents"), (7, "SYN", "Synthetic and Chimeric"), (8, "UNA", "Unassigned"),
    (9, "VRL", "Viruses"), (10, "VRT", "Vertebrates"), (11, "ENV", "Environmental samples"),
)
_SPECIES_GROUPS = ("Fish", "Crustaceans", "Insects/Spiders", "Worms", "Molluscs", "Algae",
                   "Flowers, Trees, Shrubs, Ferns", "Amphibians", "Birds", "Fungi")
_CHEMICAL_GROUPS = ("Organics", "Metals", "Pesticides", "Polycyclic Aromatic Hydrocarbons",
                    "Esters", "Inorganics")
_CHEM_STEMS = ("methyl", "ethyl", "propyl", "butyl", "chloro", "bromo", "fluoro", "nitro",
               "amino", "hydroxy", "phenyl", "benzyl", "cyano", "sulfonyl", "oxo", "thio")
_CHEM_CORES = ("benzene", "phenol", "quinoline", "naphthalene", "pyridine", "toluene",
               "aniline", "biphenyl", "furan", "acetamide", "triazine", "phosphate",
               "carbamate", "anthracene", "glycine", "urea")
_CHEM_PREFIXES = ("", "", "", "α-", "β-", "N,N-", "(±)-", "cis-", "trans-", "1,1′-", "2,2'-")
_ADJECTIVES = ("spotted", "striped", "common", "lesser", "greater", "banded", "pale",
               "freshwater", "marine", "dwarf", "giant", "red", "black", "golden", "silver",
               "northern", "southern", "eastern", "western", "alpine", "desert", "coastal",
               "hairy", "smooth", "horned", "longtail", "shortfin", "blue", "green", "yellow")
_NOUNS = ("minnow", "water flea", "midge", "mayfly", "snail", "mussel", "frog", "toad",
          "worm", "shrimp", "beetle", "moss", "fern", "alga", "duckweed", "trout", "darter",
          "sculpin", "stonefly", "leech", "caddisfly", "copepod", "rotifer", "clam", "newt",
          "salamander", "perch", "shiner", "chub", "dace", "sedge", "rush", "pondweed",
          "diatom", "amphipod")
_PLACES = ("Oslofjorden", "Oostende", "Wadden Sea", "Lake Malawi", "Río de la Plata",
           "Mälaren", "Danube delta", "Great Lakes", "Île d'Orléans", "Baltic Sea")
_ENDPOINTS = (("LC50", 0.30), ("EC50", 0.22), ("NOEC", 0.16), ("LOEC", 0.12),
              ("LC10", 0.08), ("LC50/", 0.06), ("LC50*", 0.03), ("EC10", 0.03))
_UNITS = ("mg/L", "ug/L", "mg/kg diet", "mol/L", "ppm")
_EFFECTS = ("MOR", "GRO", "REP", "ACUTE", "CHRONIC", "--")
_LIFESTAGES = ("adult", "juvenile", "larva", "egg", "NR", "--")
_UNITS_TSV = (
    "et:KilogramPerLiter\tKilogram per Liter\tkg/L\t1.0\t0.0\tmass-per-volume\tkg/dm^3\n"
    "et:MilligramPerLiter\tMilligram per Liter\tmg/L\t0.000001\t0.0\tmass-per-volume\tmg/dm^3\n"
    "et:MicrogramPerLiter\tMicrogram per Liter\tug/L\t0.000000001\t0.0\tmass-per-volume\tug/dm^3\n"
    "et:MilligramPerKilogramDiet\tMilligram per Kilogram Diet\tmg/kg diet\t0.000001\t0.0"
    "\tmass-per-mass\tmg/kg\n"
    "et:MolePerLiter\tMole per Liter\tmol/L\t1.0\t0.0\tamount-per-volume\tmol/dm^3\n"
)


def cas_check_digit(body: str) -> int:
    """CAS check digit: digits weighted by position from the right, mod 10."""
    return sum(int(d) * i for i, d in enumerate(reversed(body), 1)) % 10


def _key(word: str) -> str:
    """The lineage-node key the ECOTOX ingest derives from a name."""
    return "".join(ch for ch in word.strip().lower() if ch.isalnum() or ch == "_")


class _Words:
    """Unique Latin-looking words; no two share a lowercase key."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def make(self, kind: str, syllables: int = 2, accent: float = 0.0) -> str:
        while True:
            stem = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                for _ in range(syllables + self.rng.randrange(2))
            )
            word = stem + self.rng.choice(_RANK_SUFFIXES[kind])
            if self.rng.random() < accent:
                vowels = [i for i, ch in enumerate(word) if ch in _ACCENTED]
                if vowels:
                    i = self.rng.choice(vowels)
                    word = word[:i] + _ACCENTED[word[i]] + word[i + 1:]
            if _key(word) not in self.used and len(word) >= 5:
                self.used.add(_key(word))
                return word


def _typo(rng: random.Random, name: str) -> str:
    """One random letter edit (substitute, swap, drop or insert) in the name."""
    positions = [i for i, ch in enumerate(name) if ch.isalpha() and ch.islower()]
    while True:
        i = rng.choice(positions)
        letter = rng.choice("abcdefghiklmnoprstuvy")
        op = rng.randrange(4)
        if op == 0:
            edited = name[:i] + letter + name[i + 1:]
        elif op == 1 and i + 1 < len(name) and name[i + 1].isalpha():
            edited = name[:i] + name[i + 1] + name[i] + name[i + 2:]
        elif op == 2 and len(name) > 6:
            edited = name[:i] + name[i + 1:]
        else:
            edited = name[:i] + letter + name[i:]
        if edited != name:
            return edited


def _title(text: str) -> str:
    """ECOTOX-style title case; unlike str.title, leaves "'s" alone."""
    return " ".join(word[:1].upper() + word[1:] for word in text.split(" "))


def _skewed_sizes(rng: random.Random, buckets: int, total: int) -> list[int]:
    """Split ``total`` over ``buckets`` (each at least 1) by a Zipf law.

    The sizes themselves are fixed by (buckets, total); only their order
    is random, so the skew, and the work it causes, is the same for
    every seed.
    """
    weights = [1.0 / rank for rank in range(1, buckets + 1)]
    spare = total - buckets
    shares = [spare * w / sum(weights) for w in weights]
    sizes = [1 + int(share) for share in shares]
    by_remainder = sorted(range(buckets), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: total - sum(sizes)]:
        sizes[i] += 1
    rng.shuffle(sizes)
    return sizes


def _dmp_line(*fields) -> str:
    return "\t|\t".join(str(f) for f in fields) + "\t|\n"


def _weighted(rng: random.Random, table) -> str:
    x = rng.random() * sum(w for _, w in table)
    for value, weight in table:
        x -= weight
        if x < 0:
            return value
    return table[-1][0]


def generate(seed: int, out_dir, scale: str = "bench") -> dict:
    """Write one input set for ``update`` into ``out_dir``; return the sidecar."""
    knobs = SCALES[scale]
    rng = random.Random(seed)
    words = _Words(rng)
    out = Path(out_dir)
    (out / "ncbi").mkdir(parents=True, exist_ok=True)
    (out / "ecotox").mkdir(exist_ok=True)

    # --- NCBI tree -----------------------------------------------------------
    ids = rng.sample(range(2, 3_000_000), knobs["species"] * 2 + 1000)
    next_id = iter(ids).__next__
    nodes: list[tuple[int, int, str, int]] = [(1, 1, "no rank", 8)]
    names: list[tuple[int, str, str, str]] = [(1, "root", "", "scientific name"),
                                              (1, "all", "", "synonym")]
    cellular = next_id()
    nodes.append((cellular, 1, "no rank", 8))
    names.append((cellular, "cellular organisms", "", "scientific name"))
    info: dict[int, dict] = {}
    parent_of: dict[int, int] = {cellular: 1}
    counts = {"kingdom": knobs["kingdoms"], "phylum": knobs["phyla"], "class": knobs["classes"],
              "order": knobs["orders"], "family": knobs["families"], "genus": knobs["genera"]}
    level: list[int] = [cellular]
    by_rank: dict[str, list[int]] = {}
    for rank in RANKS:
        parents = list(level)
        children = []
        for i in range(counts[rank]):
            # every parent gets one child first, then the rest spread at random
            parent = parents[i] if i < len(parents) else rng.choice(parents)
            taxon = next_id()
            name = words.make(rank, accent=0.03 if rank == "genus" else 0.0).capitalize()
            lineage = dict(info[parent]["lineage"]) if parent in info else {}
            lineage[rank] = name
            if rank == "kingdom":
                division = rng.choice((1, 4, 10, 0))
            else:
                division = info[parent]["division"]
            if rank == "phylum" and division in (1, 10):
                division = rng.choice((1, 10, 2))
            real_parent = parent
            if rank == "genus" and rng.random() < 0.3:
                sub = next_id()
                nodes.append((sub, parent, "subfamily", division))
                names.append((sub, words.make("subfamily").capitalize(), "", "scientific name"))
                parent_of[sub] = parent
                real_parent = sub
            nodes.append((taxon, real_parent, rank, division))
            names.append((taxon, name, "", "scientific name"))
            parent_of[taxon] = real_parent
            info[taxon] = {"name": name, "lineage": lineage, "division": division}
            children.append(taxon)
        by_rank[rank] = children
        level = children

    epithet_pool = [words.make("epithet") for _ in range(max(20, knobs["species"] // 3))]
    genus_sizes = _skewed_sizes(rng, len(by_rank["genus"]), knobs["species"])
    species_ids: list[int] = []
    latin: dict[int, str] = {}
    used_common: set[str] = set()

    def common_name(title: bool) -> str | None:
        for _ in range(20):
            eponym = words.make("eponym", syllables=1, accent=0.1).capitalize()
            possessive = "'s" if rng.random() < 0.05 else ""
            text = f"{eponym}{possessive} {rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
            if rng.random() < 0.1:
                text += " (freshwater)"
            if text.lower() not in used_common:
                used_common.add(text.lower())
                return _title(text) if title else text
        return None

    ncbi_common: dict[int, str] = {}
    for genus, size in zip(by_rank["genus"], genus_sizes):
        genus_name = info[genus]["name"]
        epithets = rng.sample(epithet_pool, min(size, len(epithet_pool)))
        while len(epithets) < size:
            epithets.append(words.make("epithet"))
        for epithet in epithets:
            taxon = next_id()
            division = info[genus]["division"]
            nodes.append((taxon, genus, "species", division))
            binomial = f"{genus_name} {epithet}"
            names.append((taxon, binomial, "", "scientific name"))
            parent_of[taxon] = genus
            latin[taxon] = binomial
            lineage = dict(info[genus]["lineage"])
            lineage["species"] = epithet
            info[taxon] = {"name": binomial, "lineage": lineage, "division": division}
            species_ids.append(taxon)
            roll = rng.random()
            if roll < 0.12:
                old_genus = words.make("genus").capitalize()
                names.append((taxon, f"{old_genus} {epithet}", "", "synonym"))
            elif roll < 0.2:
                author = words.make("eponym", syllables=1, accent=0.2).capitalize()
                year = rng.randrange(1758, 2000)
                names.append((taxon, f"{binomial} {author}, {year}", "", "authority"))
            if rng.random() < 0.2:
                name = common_name(title=False)
                if name is not None:
                    ncbi_common[taxon] = name
                    names.append((taxon, name, "", "genbank common name"))

    # --- ECOTOX species --------------------------------------------------------
    ecotox_taxa = rng.sample(species_ids, int(len(species_ids) * knobs["ecotox_share"]))
    numbers = rng.sample(range(1, 200_000), len(ecotox_taxa))
    phylum_group: dict[str, str] = {}
    species_rows = []
    species_pairs = []
    ecotox_species = []
    latin_set = set(latin.values())
    for taxon, number in zip(ecotox_taxa, numbers):
        lineage = info[taxon]["lineage"]
        group = phylum_group.setdefault(lineage["phylum"], rng.choice(_SPECIES_GROUPS))
        name = latin[taxon]
        roll = rng.random()
        if roll < 0.2:
            noisy = _typo(rng, name)
            if roll < 0.05:
                noisy = _typo(rng, noisy)
            if noisy not in latin_set:
                name = noisy
        if taxon in ncbi_common and rng.random() < 0.6:
            common = _title(ncbi_common[taxon])
        elif rng.random() < 0.4:
            common = common_name(title=True) or "--"
        else:
            common = rng.choice(("--", "NR", ""))
        cells = [str(number), common, name] + [lineage[r] for r in RANKS] + [lineage["species"], group]
        species_rows.append("|".join(cells))
        et_iri = f"{ET}taxon/{number}"
        species_pairs.append([et_iri, f"{NCBI}taxon/{taxon}"])
        ecotox_species.append({"iri": et_iri, "number": str(number), "taxon": taxon,
                               "latin": latin[taxon], "common": common if common not in ("--", "NR", "") else None})
    (out / "ecotox" / "species.txt").write_text(
        "species_number|common_name|latin_name|" + "|".join(ECOTOX_LEVELS) + "|ecotox_group\n"
        + "".join(row + "\n" for row in species_rows), encoding="utf-8")

    # --- chemicals ---------------------------------------------------------------
    chemicals = []
    seen_cas: set[str] = set()
    seen_names: set[str] = set()
    while len(chemicals) < knobs["chemicals"]:
        first, second = rng.randrange(50, 1_000_000), rng.randrange(100)
        body = f"{first}{second:02d}"
        cas = f"{first}-{second:02d}-{cas_check_digit(body)}"
        valid = rng.random() >= 0.03
        if not valid:
            cas = cas[:-1] + str((int(cas[-1]) + rng.randrange(1, 10)) % 10)
        name = rng.choice(_CHEM_PREFIXES) + rng.choice(_CHEM_STEMS) + rng.choice(_CHEM_CORES)
        if rng.random() < 0.3:
            name = f"{rng.randrange(1, 6)},{rng.randrange(2, 7)}-di" + name
        if rng.random() < 0.2:
            name += f" ({rng.choice(('technical', 'sodium salt', 'hydrate', 'isomère'))})"
        if cas in seen_cas or name in seen_names:
            continue
        seen_cas.add(cas)
        seen_names.add(name)
        chemicals.append({"cas": cas, "name": name, "group": rng.choice(_CHEMICAL_GROUPS),
                          "valid": valid, "iri": f"{ET}chemical/{cas.replace('-', '')}"})
    (out / "ecotox" / "chemicals.txt").write_text(
        "cas_number|chemical_name|ecotox_group\n"
        + "".join(f"{c['cas']}|{c['name']}|{c['group']}\n" for c in chemicals), encoding="utf-8")

    # --- tests and results ---------------------------------------------------------
    chem_weights = _skewed_sizes(rng, len(chemicals), knobs["tests"])
    test_chems = [c for c, n in zip(chemicals, chem_weights) for _ in range(n)]
    rng.shuffle(test_chems)
    test_ids = rng.sample(range(1, 5_000_000), len(test_chems))
    result_ids = iter(rng.sample(range(1, 9_000_000), len(test_chems) * 4)).__next__
    lc50: dict[str, list[str]] = {c["iri"]: [] for c in chemicals}
    test_lines = []
    result_lines = []
    test_facts = []
    for test_id, chem in zip(test_ids, test_chems):
        sp = rng.choice(ecotox_species)
        test_lines.append(f"{test_id}|{rng.randrange(1, 200000)}|{chem['cas']}|{sp['number']}|"
                          f"{rng.choice(_LIFESTAGES)}\n")
        test_facts.append(f"<{ET}test/{test_id}> <{ET}compound> <{chem['iri']}> .")
        for _ in range(1 + int(rng.random() < 0.5) + int(rng.random() < 0.2)):
            result_id = result_ids()
            endpoint = _weighted(rng, _ENDPOINTS)
            roll = rng.random()
            if roll < 0.75:
                conc = f"{rng.uniform(0.001, 500):.{rng.randrange(0, 4)}f}"
            elif roll < 0.9:
                conc = rng.choice(("<", ">", "~", ">=")) + f"{rng.randrange(1, 900)}"
            else:
                conc = rng.choice(("NR", "--", "ca. 5", "1-2"))
            result_lines.append(f"{result_id}|{test_id}|{endpoint}|{conc}|{rng.choice(_UNITS)}|"
                                f"{rng.choice(_EFFECTS)}\n")
            if endpoint.rstrip("/*") == "LC50":
                lc50[chem["iri"]].append(f"{ET}result/{result_id}")
    (out / "ecotox" / "tests.txt").write_text(
        "test_id|reference_number|test_cas|species_number|organism_lifestage\n"
        + "".join(test_lines), encoding="utf-8")
    (out / "ecotox" / "results.txt").write_text(
        "result_id|test_id|endpoint|conc1_mean|conc1_unit|effect\n" + "".join(result_lines),
        encoding="utf-8")

    # --- NCBI dump files -------------------------------------------------------------
    with open(out / "ncbi" / "nodes.dmp", "w", encoding="utf-8", newline="\n") as fh:
        for taxon, parent, rank, division in nodes:
            fh.write(_dmp_line(taxon, parent, rank, "", division, 1, 1, 1, 0, 1, 1, 0, ""))
    with open(out / "ncbi" / "names.dmp", "w", encoding="utf-8", newline="\n") as fh:
        for taxon, name, unique, name_class in names:
            fh.write(_dmp_line(taxon, name, unique, name_class))
    with open(out / "ncbi" / "division.dmp", "w", encoding="utf-8", newline="\n") as fh:
        for division_id, code, label in _DIVISIONS:
            fh.write(_dmp_line(division_id, code, label, ""))

    # --- traits, glossary, units, pair tables ------------------------------------------
    glossary = {place: "worms:" + "".join(ch for ch in place if ch.isalnum()) for place in _PLACES}
    (out / "glossary.tsv").write_text(
        "".join(f"{term}\t{target}\n" for term, target in glossary.items()), encoding="utf-8")
    trait_lines = []
    for taxon in species_ids:
        if rng.random() < knobs["trait_share"]:
            trait_lines.append(f"ncbi:taxon/{taxon}\teol:habitat\tENVO:{rng.randrange(1, 3000):08d}\tiri\n")
            trait_lines.append(f"ncbi:taxon/{taxon}\teol:endemicTo\t{rng.choice(_PLACES)}\tglossary\n")
    for sp in ecotox_species:
        if rng.random() < knobs["trait_share"]:
            status = rng.choice(('"least concern"', '"vulnérable"@fr', '"endangered"@en'))
            trait_lines.append(f"et:taxon/{sp['number']}\teol:conservationStatus\t{status}\tliteral\n")
    (out / "traits.tsv").write_text("".join(trait_lines), encoding="utf-8")
    (out / "units.tsv").write_text(_UNITS_TSV, encoding="utf-8")
    all_taxa = [row[0] for row in nodes]
    wd = iter(rng.sample(range(1000, 90_000_000), len(all_taxa) + len(chemicals))).__next__
    (out / "pairs_ncbi.tsv").write_text(
        "".join(f"{taxon}\twd:Q{wd()}\n" for taxon in all_taxa), encoding="utf-8")
    (out / "pairs_cas.tsv").write_text(
        "".join(f"{c['cas']}\twd:Q{wd()}\n" for c in chemicals), encoding="utf-8")
    config = {
        "ncbi_nodes": "ncbi/nodes.dmp", "ncbi_names": "ncbi/names.dmp",
        "ncbi_divisions": "ncbi/division.dmp",
        "species": "ecotox/species.txt", "chemicals": "ecotox/chemicals.txt",
        "tests": "ecotox/tests.txt", "results": "ecotox/results.txt",
        "traits": "traits.tsv", "glossary": "glossary.tsv", "units": "units.tsv",
        "pairs_ncbi": "pairs_ncbi.tsv", "pairs_cas": "pairs_cas.tsv", "threshold": 0.8,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    # --- sidecar ---------------------------------------------------------------------
    ancestors = {}
    for taxon in species_ids:
        chain = []
        node = parent_of[taxon]
        while node != 1:
            chain.append(f"{NCBI}taxon/{node}")
            node = parent_of[node]
        chain.append(f"{NCBI}taxon/1")
        ancestors[f"{NCBI}taxon/{taxon}"] = chain
    probes = []
    seen_probes: set[str] = set()
    for sp in ecotox_species:
        names = [("latin", sp["latin"])] + ([("common", sp["common"])] if sp["common"] else [])
        for kind, text in names:
            for noisy in (False, True, True):
                probe = _typo(rng, text) if noisy else text
                if probe not in seen_probes:
                    seen_probes.add(probe)
                    probes.append({"name": probe, "kind": kind, "noisy": noisy,
                                   "expected": [sp["iri"], f"{NCBI}taxon/{sp['taxon']}"]})
    facts = [f"<{NCBI}taxon/{t}> <{RDFS_SUBCLASSOF}> <{NCBI}taxon/{parent_of[t]}> ." for t in species_ids]
    facts += [f"<{sp['iri']}> <{RDF_TYPE}> <{ET}Taxon> ." for sp in ecotox_species]
    facts += test_facts
    truth = {
        "seed": seed,
        "scale": scale,
        "species_pairs": species_pairs,
        "ancestors": ancestors,
        "lc50": {iri: sorted(results) for iri, results in lc50.items()},
        "tests": {c["iri"]: n for c, n in zip(chemicals, chem_weights)},
        "lookup_probes": probes,
        "facts": facts,
        "sizes": {"ncbi_taxa": len(nodes), "ecotox_species": len(ecotox_species),
                  "chemicals": len(chemicals), "tests": len(test_lines),
                  "results": len(result_lines)},
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--out", required=True, help="directory to write the input set into")
    args = parser.parse_args()
    truth = generate(args.seed, args.out, args.scale)
    print(json.dumps(truth["sizes"], sort_keys=True))


if __name__ == "__main__":
    main()
