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
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Term, int] = {}
    cycles: list[list[Term]] = []

    def successors(node: Term):
        return iter(sorted(store.objects_of(node, RDFS_SUBCLASSOF), key=Term.ntriples))

    children = {child for child, _ in store.predicate_pairs(RDFS_SUBCLASSOF)}
    for root in sorted(children, key=Term.ntriples):
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
    violations = []
    for entity in {member for member, _ in store.predicate_pairs(membership_predicate)}:
        ordered = sorted(store.objects_of(entity, membership_predicate), key=Term.ntriples)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if store.count(a, OWL_DISJOINTWITH, b) or store.count(b, OWL_DISJOINTWITH, a):
                    violations.append((entity, a, b))
    violations.sort(key=lambda v: tuple(term.ntriples() for term in v))
    return violations
