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
    for t in store.match(p=RDFS_SUBCLASSOF):
        edges.setdefault(t.subject, set()).add(t.object)
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
    for t in store.match(p=OWL_DISJOINTWITH):
        disjoint.add((t.subject, t.object))
        disjoint.add((t.object, t.subject))
    memberships: dict[Term, set[Term]] = {}
    for t in store.match(p=membership_predicate):
        memberships.setdefault(t.subject, set()).add(t.object)
    violations = []
    for entity, groups in memberships.items():
        ordered = sorted(groups, key=Term.ntriples)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if (a, b) in disjoint:
                    violations.append((entity, a, b))
    violations.sort(key=lambda v: tuple(term.ntriples() for term in v))
    return violations
