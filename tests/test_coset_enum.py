"""Coset enumeration: table building, budgets, and agreement with the
direct table constructors."""

from collections import Counter

import pytest

from oracles import element_order, presentation_for_family
from thetadim.conjugacy import compute_classes
from thetadim.coset_enum import (
    DEFAULT_MAX_COSETS,
    ResourceLimitError,
    enumerate_cosets,
    group_from_presentation,
    parse_presentation,
)
from thetadim.expr import Atom
from thetadim.group_core import construct_family


def test_parse_presentation_structure():
    p = parse_presentation("<a,x | a^6, x^2=a^3, x^-1*a*x=a^-1>")
    assert p.generators == ("a", "x")
    assert len(p.relators) == 3
    assert p.relators[0] == (0,) * 6  # column 2i is generator i, 2i+1 its inverse
    assert all(isinstance(c, int) for rel in p.relators for c in rel)


@pytest.mark.parametrize(
    "text",
    [
        "a^2, b^2",  # missing brackets
        "<a | b^2>",  # unknown generator
        "<a | a^>",  # dangling exponent
        "<a,a | a^2>",  # duplicate generator
        "< | a>",  # no generators
    ],
)
def test_parse_presentation_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_presentation(text)


def test_enumeration_of_small_presentations():
    assert enumerate_cosets("<a | a^5>").size == 5
    assert enumerate_cosets("<a | a>").size == 1
    assert enumerate_cosets("<a,b | a^2, b^2, (a*b)^3>").size == 6
    assert enumerate_cosets("<a,b | a^2, b^2, (a*b)^2>").size == 4
    assert enumerate_cosets("<x,y | x^3, y^3, x*y=y*x>").size == 9


def test_coset_table_action_is_consistent():
    t = enumerate_cosets("<a,b | a^2, b^2, (a*b)^3>")
    k = len(t.presentation.generators)
    for row in t.action:
        assert len(row) == 2 * k
        assert all(0 <= c < t.size for c in row)
    # generator and inverse columns are inverse permutations
    for i in range(k):
        fwd = [row[2 * i] for row in t.action]
        bwd = [row[2 * i + 1] for row in t.action]
        assert all(bwd[fwd[c]] == c for c in range(t.size))


def test_expected_order_mismatch_raises():
    with pytest.raises(ValueError):
        group_from_presentation("<a | a^5>", expected_order=6)


def test_infinite_presentation_hits_budget():
    # the (2,3,6) triangle-type presentation has no finite quotient table
    with pytest.raises(ResourceLimitError):
        group_from_presentation("<a,b | (a*b)^2=a^3=b^6>", max_cosets=2000)
    assert DEFAULT_MAX_COSETS >= 2000


def test_group_from_presentation_satisfies_relations():
    G = group_from_presentation("<a,b | a^2, b^2, (a*b)^3>", family_tag="S3")
    assert G.order == 6
    assert G.family_tag == "S3"
    G.check_associativity()
    a, b = G.generators
    assert G.power(a, 2) == 0 and G.power(b, 2) == 0
    assert element_order(G, G.mul(a, b)) == 3


FAMILY_GRID = [
    Atom("Z", (1,)),
    Atom("Z", (2,)),
    Atom("Z", (12,)),
    Atom("Dstar", (1,)),
    Atom("Dstar", (2,)),
    Atom("Dstar", (6,)),
    Atom("Dprime", (0, 3)),
    Atom("Dprime", (1, 5)),
    Atom("Dprime", (2, 3)),
    Atom("Tprime", (1,)),
    Atom("Tprime", (2,)),
    Atom("Tstar", ()),
    Atom("Ostar", ()),
]


def invariants(G):
    orders = Counter(element_order(G, g) for g in range(G.order))
    classes = compute_classes(G)
    return G.order, orders, Counter(classes.sizes)


@pytest.mark.parametrize("atom", FAMILY_GRID, ids=str)
def test_enumerated_group_matches_direct_constructor(atom):
    direct = construct_family(atom)
    text = presentation_for_family(atom)
    enumerated = group_from_presentation(text, expected_order=direct.order)
    assert invariants(enumerated) == invariants(direct)


def test_presentation_relators_hold_in_direct_constructions():
    # evaluate every relator word on the enumerated group's own generators
    for atom in FAMILY_GRID:
        text = presentation_for_family(atom)
        pres = parse_presentation(text)
        G = group_from_presentation(text)
        gens = G.generators
        assert len(gens) == len(pres.generators)
        for rel in pres.relators:
            acc = 0
            for col in rel:
                g = gens[col // 2]
                acc = G.mul(acc, g if col % 2 == 0 else G.inv(g))
            assert acc == 0, (atom, rel)
