"""Identifier rewriting and sameAs construction."""

import random

import pytest

from ecokg import ns
from ecokg.graph import PrefixMap, Triple, TripleStore, iri
from ecokg.idmap import (
    IdPair,
    InvalidCasError,
    InvalidNcbiIdError,
    cas_to_iri,
    construct_sameas,
    ncbi_id_to_iri,
    parse_pairs,
    validate_cas,
)

KNOWN_GOOD = ["877-43-0", "79-06-1", "115-86-6", "50-00-0", "7440-50-8"]


def checksum_oracle(cas: str) -> bool:
    # Recompute from the definition: digits left of the check digit,
    # weighted by position counted from the right, summed mod 10.
    parts = cas.strip().split("-")
    if len(parts) != 3:
        return False
    a, b, c = parts
    if not (a.isdigit() and b.isdigit() and c.isdigit()):
        return False
    if not (2 <= len(a) <= 7 and len(b) == 2 and len(c) == 1):
        return False
    body = a + b
    total = 0
    for position, digit in enumerate(reversed(body), start=1):
        total += position * int(digit)
    return total % 10 == int(c)


class TestValidateCas:
    @pytest.mark.parametrize("cas", KNOWN_GOOD)
    def test_known_good(self, cas):
        assert validate_cas(cas)
        assert checksum_oracle(cas)

    def test_perturbed_check_digit(self):
        assert not validate_cas("877-43-1")

    @pytest.mark.parametrize("cas", ["877-43-0", "79-06-1"])
    def test_unit_perturbations_rejected(self, cas):
        # A +-1 change at any digit shifts the weighted sum by a
        # multiple of the weight coprime enough to 10 to be caught;
        # larger deltas can collide (weight 5 x even delta = 0 mod 10),
        # so only the always-detectable class is exhausted here.
        digits = [i for i, ch in enumerate(cas) if ch.isdigit()]
        for i in digits:
            for delta in (1, 9):
                mutated = cas[:i] + str((int(cas[i]) + delta) % 10) + cas[i + 1:]
                assert not validate_cas(mutated), mutated
                assert not checksum_oracle(mutated)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "abc",
            "877430",
            "8-77-43-0",
            "1-43-0",           # first group too short
            "12345678-43-0",    # first group too long
            "877-4-0",
            "877-43-",
            "877-43-00",
            "877 43 0",
            # ASCII digits only: "\d" would take these Arabic-Indic and fullwidth ones
            "\u0665\u0660-\u0660\u0660-\u0660",
            "50-0\u0660-0",
            "877-43-\uff10",
        ],
    )
    def test_malformed(self, bad):
        assert not validate_cas(bad)

    def test_agrees_with_oracle_on_random_shapes(self):
        rng = random.Random(1009)
        for _ in range(500):
            a = "".join(rng.choice("0123456789") for _ in range(rng.randint(2, 7)))
            b = "".join(rng.choice("0123456789") for _ in range(2))
            c = rng.choice("0123456789")
            cas = f"{a}-{b}-{c}"
            assert validate_cas(cas) == checksum_oracle(cas)

    def test_whitespace_tolerated(self):
        assert validate_cas(" 877-43-0 ")


class TestCasToIri:
    def test_hyphens_dropped_onto_namespace(self):
        assert cas_to_iri("877-43-0") == "https://cfpub.epa.gov/ecotox/chemical/877430"
        assert cas_to_iri("79-06-1") == "https://cfpub.epa.gov/ecotox/chemical/79061"

    def test_invalid_raises(self):
        with pytest.raises(InvalidCasError):
            cas_to_iri("abc")
        with pytest.raises(InvalidCasError):
            cas_to_iri("877-43-1")

    def test_injective_on_valid_inputs(self):
        # Hyphen positions are fixed by the format, so the digit
        # string determines the CAS and vice versa.
        rng = random.Random(77)
        seen = {}
        for _ in range(2000):
            a = str(rng.randint(10, 9999999))
            b = f"{rng.randint(0, 99):02d}"
            body = a + b
            check = sum(p * int(d) for p, d in enumerate(reversed(body), 1)) % 10
            cas = f"{a}-{b}-{check}"
            out = cas_to_iri(cas)
            if out in seen:
                assert seen[out] == cas
            seen[out] = cas


class TestNcbiIds:
    def test_to_iri(self):
        assert ncbi_id_to_iri("311871") == (
            "https://www.ncbi.nlm.nih.gov/taxonomy/taxon/311871"
        )

    @pytest.mark.parametrize("bad", ["0", "-3", "01", "", "x", "3.5", "1e3", "1\u0660", "7\u0967"])
    def test_rejects_non_positive_ints(self, bad):
        with pytest.raises(InvalidNcbiIdError):
            ncbi_id_to_iri(bad)


class TestParsePairs:
    def test_rows_and_comments(self):
        text = "# header\n877-43-0\thttp://www.wikidata.org/entity/Q418573\n\n79-06-1\thttp://www.wikidata.org/entity/Q342940\n"
        pairs = parse_pairs(text)
        assert pairs == [
            IdPair("877-43-0", "http://www.wikidata.org/entity/Q418573"),
            IdPair("79-06-1", "http://www.wikidata.org/entity/Q342940"),
        ]

    def test_short_row_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_pairs("a\tb\nonly-one-column\n")


def fresh_store():
    prefixes = PrefixMap()
    prefixes.bind("et", ns.ET)
    prefixes.bind("ncbi", ns.NCBI)
    prefixes.bind("wd", "http://www.wikidata.org/entity/")
    return TripleStore(prefixes=prefixes)


class TestConstructSameas:
    def test_ncbi_rewrite_shape(self):
        store = fresh_store()
        added, errors = construct_sameas(
            [IdPair("311871", "http://www.wikidata.org/entity/Q13828695")],
            "ncbi",
            store,
        )
        assert (added, errors) == (1, [])
        got = next(iter(store))
        assert got == Triple(
            iri("https://www.ncbi.nlm.nih.gov/taxonomy/taxon/311871"),
            ns.OWL_SAMEAS,
            iri("http://www.wikidata.org/entity/Q13828695"),
        )

    def test_cas_rewrite_shape(self):
        store = fresh_store()
        added, errors = construct_sameas(
            [IdPair("115-86-6", "wd:Q418573")], "cas", store
        )
        assert (added, errors) == (1, [])
        got = next(iter(store))
        assert got.subject.value == "https://cfpub.epa.gov/ecotox/chemical/115866"
        assert got.predicate == ns.OWL_SAMEAS
        assert got.object.value == "http://www.wikidata.org/entity/Q418573"

    def test_verbatim_rewrite_resolves_curies(self):
        store = fresh_store()
        added, errors = construct_sameas(
            [IdPair("et:taxon/33155", "ncbi:taxon/311871")], "verbatim", store
        )
        assert (added, errors) == (1, [])
        got = next(iter(store))
        assert got.subject.value == ns.ET + "taxon/33155"
        assert got.object.value == ns.NCBI + "taxon/311871"

    def test_duplicates_deduplicated(self):
        store = fresh_store()
        pair = IdPair("311871", "wd:Q13828695")
        added, errors = construct_sameas([pair, pair], "ncbi", store)
        assert added == 1
        assert errors == []
        assert len(store) == 1

    def test_bad_pairs_collected_good_pairs_kept(self):
        store = fresh_store()
        added, errors = construct_sameas(
            [
                IdPair("877-43-0", "wd:Q1"),
                IdPair("877-43-1", "wd:Q2"),
                IdPair("79-06-1", "wd:Q3"),
            ],
            "cas",
            store,
        )
        assert added == 2
        assert len(errors) == 1
        assert "877-43-1" in errors[0]
        assert len(store) == 2

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            construct_sameas([], "inchikey", fresh_store())

    def test_count_matches_distinct_valid_pairs(self):
        rng = random.Random(31)
        pairs = []
        distinct = set()
        for _ in range(50):
            taxon = str(rng.randint(1, 400))
            target = f"wd:Q{rng.randint(1, 400)}"
            pairs.append(IdPair(taxon, target))
            distinct.add((taxon, target))
        store = fresh_store()
        added, errors = construct_sameas(pairs, "ncbi", store)
        assert errors == []
        assert added == len(distinct) == len(store)
