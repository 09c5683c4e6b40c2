"""Consistency scans: hierarchy cycles and disjointness violations."""

from .graph import Term, TripleStore, ValidationError
from .ns import OWL_DISJOINTWITH, RDFS_SUBCLASSOF


class IntegrityError(ValidationError):
    """A consistency scan found cycles or disjointness violations."""


def subclass_cycles(store: TripleStore) -> list[list[Term]]:
    """Cycles in the subClassOf relation; empty means a clean hierarchy.

    A depth-first search in term order with an explicit stack, so chains
    of any depth are scanned without recursion.
    """
    edges: dict[Term, set[Term]] = {}
    for child, parent in store.predicate_pairs(RDFS_SUBCLASSOF):
        edges.setdefault(child, set()).add(parent)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Term, int] = {}
    cycles: list[list[Term]] = []

    def successors(node: Term):
        return iter(sorted(edges.get(node, ()), key=Term.ntriples))

    for root in sorted(edges, key=Term.ntriples):
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [successors(root)]
        while pending:
            for nxt in pending[-1]:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    cycles.append(path[path.index(nxt):] + [nxt])
                elif state == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(successors(nxt))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return cycles


def disjointness_violations(
    store: TripleStore, membership_predicate: Term
) -> list[tuple[Term, Term, Term]]:
    """Entities holding memberships in two groups declared disjoint.

    Returns (entity, group, other-group) sorted; empty means consistent.
    """
    disjoint: set[tuple[Term, Term]] = set()
    for a, b in store.predicate_pairs(OWL_DISJOINTWITH):
        disjoint.add((a, b))
        disjoint.add((b, a))
    memberships: dict[Term, set[Term]] = {}
    for entity, group in store.predicate_pairs(membership_predicate):
        memberships.setdefault(entity, set()).add(group)
    violations = []
    for entity, groups in memberships.items():
        ordered = sorted(groups, key=Term.ntriples)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if (a, b) in disjoint:
                    violations.append((entity, a, b))
    violations.sort(key=lambda v: tuple(term.ntriples() for term in v))
    return violations
