"""Density and coverage figures."""

import random

import pytest

from ecokg.graph import Triple, TripleStore, iri, literal
from ecokg.stats import (
    EmptyGraphError,
    GraphCounts,
    absolute_density,
    count_graph,
    coverage,
    entity_density,
    relational_density,
    report_rows,
    report_text,
    report_tsv,
)

from helpers import random_literal, random_store, random_triple, reference_count_graph


def brute_counts(store):
    kept = [t for t in store if not t.object.is_literal()]
    relations = {t.predicate for t in kept}
    entities = {t.subject for t in kept} | {t.object for t in kept}
    return len(kept), len(relations), len(entities)


class TestCountGraph:
    def test_literal_objects_excluded(self):
        store = TripleStore()
        s = iri("http://example.org/s")
        p = iri("http://example.org/p")
        store.add(Triple(s, p, iri("http://example.org/o")))
        store.add(Triple(s, p, literal("text")))
        store.add(Triple(s, p, literal("12", "http://www.w3.org/2001/XMLSchema#decimal")))
        counts = count_graph(store)
        assert counts == GraphCounts(triples=1, relations=1, entities=2)

    def test_blank_nodes_are_entities(self):
        from ecokg.graph import blank

        store = TripleStore()
        store.add(Triple(blank("b"), iri("http://example.org/p"), blank("c")))
        assert count_graph(store).entities == 2

    def test_matches_brute_force_on_random_stores(self):
        rng = random.Random(8)
        for _ in range(200):
            store = random_store(rng, max_triples=40)
            counts = count_graph(store)
            assert (counts.triples, counts.relations, counts.entities) == brute_counts(store)

    def test_matches_pair_set_reference_on_random_stores(self):
        # literal objects, blank nodes, a predicate whose objects are all
        # literals, and objects shared by several subjects and predicates
        rng = random.Random(9)
        literal_only = iri("http://example.org/literal-only")
        for _ in range(200):
            store = random_store(rng, max_triples=60)
            for _ in range(rng.randrange(4)):
                store.add(Triple(random_triple(rng).subject, literal_only, random_literal(rng)))
            counts = count_graph(store)
            assert (counts.triples, counts.relations, counts.entities) == reference_count_graph(store)


class TestDensities:
    def test_known_figures(self):
        counts = GraphCounts(triples=12, relations=3, entities=4)
        assert relational_density(counts) == 4.0
        assert entity_density(counts) == 3.0
        assert absolute_density(counts) == 1.0

    def test_absolute_is_entity_over_remaining(self):
        rng = random.Random(88)
        checked = 0
        while checked < 100:
            store = random_store(rng, max_triples=50)
            counts = count_graph(store)
            if counts.triples == 0 or counts.entities < 2:
                continue
            checked += 1
            assert absolute_density(counts) == pytest.approx(
                entity_density(counts) / (counts.entities - 1), rel=1e-12
            )

    def test_exact_ratios_on_random_stores(self):
        rng = random.Random(13)
        checked = 0
        while checked < 100:
            store = random_store(rng, max_triples=50)
            t, r, e = brute_counts(store)
            if t == 0 or e < 2:
                continue
            checked += 1
            counts = count_graph(store)
            assert relational_density(counts) == t / r
            assert entity_density(counts) == t / e
            assert absolute_density(counts) == t / (e * (e - 1))

    def test_empty_graph_rejected(self):
        empty = GraphCounts(0, 0, 0)
        for fn in (relational_density, entity_density, absolute_density):
            with pytest.raises(EmptyGraphError):
                fn(empty)

    def test_single_entity_absolute_rejected(self):
        # a self-loop has one entity; no ordered pair exists
        counts = GraphCounts(triples=1, relations=1, entities=1)
        with pytest.raises(EmptyGraphError):
            absolute_density(counts)
        assert entity_density(counts) == 1.0


class TestCoverage:
    def test_published_figure(self):
        # 940k effect records over a 12k x 13k compound-species grid
        assert coverage(940_000, 12_000, 13_000) == pytest.approx(0.6026, abs=0.005)

    def test_full_grid_is_hundred_percent(self):
        assert coverage(50, 10, 5) == 100.0

    def test_positive_counts_required(self):
        with pytest.raises(ValueError):
            coverage(1, 0, 5)
        with pytest.raises(ValueError):
            coverage(1, 5, 0)

    def test_zero_tests_zero_percent(self):
        assert coverage(0, 10, 10) == 0.0


class TestReports:
    COUNTS = GraphCounts(triples=12, relations=3, entities=4)

    def test_tsv_rows(self):
        lines = report_tsv(self.COUNTS).splitlines()
        assert lines[0] == "triples\t12"
        assert lines[3] == "relational_density\t4.000000"
        assert len(lines) == 6

    def test_coverage_row_optional(self):
        with_cov = report_rows(self.COUNTS, coverage_percent=0.6026)
        without = report_rows(self.COUNTS)
        assert len(with_cov) == len(without) + 1
        assert with_cov[-1] == ("coverage_percent", "0.6026")

    def test_text_alignment(self):
        text = report_text(self.COUNTS)
        lines = text.splitlines()
        assert len(lines) == 6
        # values all start at the same column, two past the widest key
        rows = report_rows(self.COUNTS)
        column = max(len(key) for key, _ in rows) + 2
        for line, (key, value) in zip(lines, rows):
            assert line[:column].rstrip() == key
            assert line[column:] == value
