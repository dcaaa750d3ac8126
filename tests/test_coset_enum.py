"""Coset enumeration: table building, budgets, and agreement with the
direct table constructors."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_associativity,
    element_order,
    parse_presentation,
    power,
    presentation_for_family,
)
from thetadim.conjugacy import compute_classes
from thetadim.coset_enum import ResourceLimitError, enumerate_cosets, group_from_presentation
from thetadim.expr import Atom
from thetadim.group_core import _tabulate, construct_family


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


def _inverse(columns):
    # column 2i is generator i and 2i+1 its inverse
    return [c ^ 1 for c in reversed(columns)]


@st.composite
def words(draw, names, depth=2):
    """Random word text over `names` with its expected column sequence."""
    text, columns = "", []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["gen", "one", "group"] if depth else ["gen", "one"]))
        if kind == "gen":
            i = draw(st.integers(0, len(names) - 1))
            factor, cols = names[i], [2 * i]
        elif kind == "one":
            factor, cols = "1", []
        else:
            inner, cols = draw(words(names, depth - 1))
            factor = f"({inner})"
        if draw(st.booleans()):
            e = draw(st.integers(-3, 3))
            factor += f"^{e}"
            cols = (_inverse(cols) if e < 0 else cols) * abs(e)
        if text:
            # no bare juxtaposition after an exponent: "a^2" "1" would read as a^21
            seps = ["*", " ", " * "] + ([] if text[-1].isdigit() else [""])
            text += draw(st.sampled_from(seps))
        text += factor
        columns += cols
    return text, columns


@st.composite
def presentations(draw):
    """Presentation text with relation chains, and the relators it should give."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    relations, relators = [], []
    for _ in range(draw(st.integers(1, 3))):
        chain = [draw(words(names)) for _ in range(draw(st.integers(1, 3)))]
        relations.append(" = ".join(text for text, _ in chain))
        if len(chain) == 1:
            candidates = [chain[0][1]]
        else:
            # u = v = w abbreviates u*v^-1 and v*w^-1
            candidates = [u + _inverse(v) for (_, u), (_, v) in zip(chain, chain[1:])]
        relators += [tuple(r) for r in candidates if r]
    text = f"<{','.join(names)} | {', '.join(relations)}>"
    return text, tuple(names), tuple(relators)


@settings(max_examples=100, deadline=1000)
@given(presentations())
def test_presentation_words_expand_to_their_columns(case):
    text, names, relators = case
    p = parse_presentation(text)
    assert p.generators == names
    assert p.relators == relators


def test_relation_chain_gives_consecutive_relators():
    p = parse_presentation("<a,b | a^2 = b = a*b>")
    assert p.relators == ((0, 0, 3), (2, 3, 1))


def _enumerate(text, max_cosets=1000):
    return enumerate_cosets(parse_presentation(text), max_cosets)


def test_enumeration_of_small_presentations():
    assert _enumerate("<a | a^5>").size == 5
    assert _enumerate("<a | a>").size == 1
    assert _enumerate("<a,b | a^2, b^2, (a*b)^3>").size == 6
    assert _enumerate("<a,b | a^2, b^2, (a*b)^2>").size == 4
    assert _enumerate("<x,y | x^3, y^3, x*y=y*x>").size == 9


def test_coset_table_action_is_consistent():
    t = _enumerate("<a,b | a^2, b^2, (a*b)^3>")
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
        group_from_presentation(parse_presentation("<a | a^5>"), 6, "")


def test_infinite_presentation_hits_budget():
    # the (2,3,6) triangle-type presentation has no finite quotient table
    with pytest.raises(ResourceLimitError):
        _enumerate("<a,b | (a*b)^2=a^3=b^6>", max_cosets=2000)


def test_coset_table_is_held_to_the_entries_budget():
    # 1001 cosets enumerate within the coset budget and give a rule, but its
    # table would not fit: _tabulate refuses it, as it refuses every other table
    rule = group_from_presentation(parse_presentation("<a | a^1001>"), 1001, "C1001")
    assert rule.order == 1001
    with pytest.raises(ResourceLimitError) as err:
        _tabulate(rule)
    assert str(err.value) == "C1001 needs 1002001 table entries, budget is 1000000."


def test_group_from_presentation_satisfies_relations():
    G = group_from_presentation(parse_presentation("<a,b | a^2, b^2, (a*b)^3>"), 6, "S3")
    assert G.order == 6
    assert G.family_tag == "S3"
    check_associativity(_tabulate(G))
    a, b = G.generators
    assert power(G, a, 2) == 0 and power(G, b, 2) == 0
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
    pres = parse_presentation(presentation_for_family(atom))
    enumerated = group_from_presentation(pres, direct.order, "")
    assert invariants(enumerated) == invariants(direct)


def test_presentation_relators_hold_in_direct_constructions():
    # evaluate every relator word on the enumerated group's own generators
    for atom in FAMILY_GRID:
        pres = parse_presentation(presentation_for_family(atom))
        G = group_from_presentation(pres, construct_family(atom).order, "")
        gens = G.generators
        assert len(gens) == len(pres.generators)
        for rel in pres.relators:
            acc = 0
            for col in rel:
                g = gens[col // 2]
                acc = G.mul(acc, g if col % 2 == 0 else G.inv(g))
            assert acc == 0, (atom, rel)
