"""Shared fixtures and independent oracles for the test suite."""

import itertools

import pytest

from bilbiq import (
    FiniteBiquandle,
    LinkDiagram,
    crossing_relations,
    parse_spec,
)


@pytest.fixture
def bb1_spec():
    """The (Z_4)^2 structure with alpha = beta = 3, A = [[0,2],[2,0]]."""
    return parse_spec("4,2,3,3,[[0,2],[2,0]]")


def all_assignments_colorings(diagram: LinkDiagram, target: FiniteBiquandle):
    """Exhaustive coloring oracle: test every total assignment against
    every crossing relation.  Independent of the propagating search."""
    relations = [(getattr(target, r.op), r.x, r.y, r.output) for r in crossing_relations(diagram)]
    out = []
    for assignment in itertools.product(range(target.size), repeat=diagram.n_semiarcs):
        if all(
            table[assignment[x]][assignment[y]] == assignment[output]
            for table, x, y, output in relations
        ):
            out.append(assignment)
    return out
