"""Graph size and density figures.

Literal-object triples are set aside first: |T| counts the remaining
triples, |R| their distinct predicates, |E| the distinct IRI and blank
nodes in subject or object position. Densities are the plain ratios

    RD = |T| / |R|        ED = |T| / |E|        AD = |T| / (|E| * (|E| - 1))

so AD always equals ED / (|E| - 1).
"""

from collections import namedtuple

from .graph import LITERAL, TripleStore, ValidationError


class EmptyGraphError(ValidationError):
    pass


GraphCounts = namedtuple("GraphCounts", "triples relations entities")


def count_graph(store: TripleStore) -> GraphCounts:
    """Count triples, relations, and entities with literals removed, walking ``pos`` once."""
    triples = relations = 0
    entities = set()
    for by_object in store._pos.values():
        before = triples
        for o, subjects in by_object.items():
            if o.kind != LITERAL:
                triples += len(subjects)
                entities.add(o)
                entities.update(subjects)
        relations += triples > before
    return GraphCounts(triples, relations, len(entities))


def _require_nonempty(counts: GraphCounts) -> None:
    if counts.triples == 0:
        raise EmptyGraphError("no non-literal triples to measure")


def relational_density(counts: GraphCounts) -> float:
    _require_nonempty(counts)
    return counts.triples / counts.relations


def entity_density(counts: GraphCounts) -> float:
    _require_nonempty(counts)
    return counts.triples / counts.entities


def absolute_density(counts: GraphCounts) -> float:
    """Triples over the number of possible directed entity pairs."""
    _require_nonempty(counts)
    if counts.entities < 2:
        raise EmptyGraphError("absolute density needs at least two entities")
    return counts.triples / (counts.entities * (counts.entities - 1))


def coverage(tests: int, compounds: int, species: int) -> float:
    """Tested share of the compound-species cross product, as a percentage."""
    if tests < 0:
        raise ValueError("test count must not be negative")
    if compounds <= 0 or species <= 0:
        raise ValueError("compound and species counts must be positive")
    return 100.0 * tests / (compounds * species)


def report_rows(counts: GraphCounts, coverage_percent: float | None = None) -> list[tuple[str, str]]:
    rows = [
        ("triples", str(counts.triples)),
        ("relations", str(counts.relations)),
        ("entities", str(counts.entities)),
        ("relational_density", f"{relational_density(counts):.6f}"),
        ("entity_density", f"{entity_density(counts):.6f}"),
        ("absolute_density", f"{absolute_density(counts):.6g}"),
    ]
    if coverage_percent is not None:
        rows.append(("coverage_percent", f"{coverage_percent:.4f}"))
    return rows


def report_tsv(counts: GraphCounts, coverage_percent: float | None = None) -> str:
    return "".join(f"{key}\t{value}\n" for key, value in report_rows(counts, coverage_percent))


def report_text(counts: GraphCounts, coverage_percent: float | None = None) -> str:
    rows = report_rows(counts, coverage_percent)
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)
