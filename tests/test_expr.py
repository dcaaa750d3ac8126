"""Group-expression parsing: grammar, normalization, and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetadim.expr import Atom, ExprSyntaxError, GroupExpr, expr_to_string, parse_group_expr


def atoms(text):
    return [(a.kind, a.params) for a in parse_group_expr(text).atoms]


def test_single_atoms():
    assert atoms("Z(5)") == [("Z", (5,))]
    assert atoms("Dstar(3)") == [("Dstar", (3,))]
    assert atoms("Dprime(2,9)") == [("Dprime", (2, 9))]
    assert atoms("Tprime(4)") == [("Tprime", (4,))]
    assert atoms("Tstar") == [("Tstar", ())]
    assert atoms("Ostar") == [("Ostar", ())]
    assert atoms("Istar") == [("Istar", ())]


def test_products_preserve_factor_order():
    assert atoms("Z(5) x Tstar") == [("Z", (5,)), ("Tstar", ())]
    assert atoms("Tstar x Z(5)") == [("Tstar", ()), ("Z", (5,))]
    assert atoms("Z(2) x Z(3) x Z(5)") == [("Z", (2,)), ("Z", (3,)), ("Z", (5,))]


def test_case_and_whitespace_insensitive():
    reference = atoms("Z(5)xDstar(3)")
    for text in [
        "z(5) X dstar(3)",
        "  Z ( 5 )  x  DSTAR ( 3 ) ",
        "z(5)\tx\tDstar(3)",
    ]:
        assert atoms(text) == reference


def test_canonical_rendering():
    for text, expected in [
        ("  z ( 5 ) X tstar ", "Z(5)xTstar"),
        ("dprime( 2 , 9 )", "Dprime(2,9)"),
        ("istar", "Istar"),
    ]:
        assert expr_to_string(parse_group_expr(text)) == expected


def test_parse_render_roundtrip():
    for text in ["Z(12)", "Dstar(7)", "Dprime(0,15)", "Z(5)xTstar x Z(7)"]:
        rendered = expr_to_string(parse_group_expr(text))
        assert parse_group_expr(rendered) == parse_group_expr(text)
        assert expr_to_string(parse_group_expr(rendered)) == rendered


def test_expr_is_hashable_value_object():
    a = parse_group_expr("Z(5) x Tstar")
    b = parse_group_expr("z(5)xTSTAR")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_group_expr("Tstar x Z(5)")


@pytest.mark.parametrize(
    "text,offset,fragment",
    [
        ("", 0, "family name"),
        ("Foo(3)", 0, "family name"),
        ("Z", 1, "("),
        ("Z(", 2, "integer"),
        ("Z()", 2, "integer"),
        ("Z(x)", 2, "integer"),
        ("Z(5", 3, ")"),
        ("Z(5) + Tstar", 5, "x"),
        ("Z(5) x", 6, "family name"),
        ("Dprime(1)", 9, "2 parameter"),
        ("Dstar(1,2)", 10, "1 parameter"),
        ("Tstar(3)", 5, "no parameters"),
        ("Z(5) Tstar", 5, "x"),
    ],
)
def test_syntax_errors_report_byte_offset(text, offset, fragment):
    with pytest.raises(ExprSyntaxError) as err:
        parse_group_expr(text)
    message = str(err.value)
    assert message.startswith(f"syntax error at byte {offset}:"), message
    assert fragment in message


def test_syntax_error_is_a_value_error():
    assert issubclass(ExprSyntaxError, ValueError)


def test_parser_accepts_any_integer_parameters():
    # range constraints belong to the constructors, not the grammar
    assert atoms("Z(0)") == [("Z", (0,))]
    assert atoms("Tprime(0)") == [("Tprime", (0,))]


def test_atom_record_keeps_field_order_and_defaults():
    atom = Atom("Z", (3,))
    assert Atom._fields == ("kind", "params")
    assert Atom("Tstar").params == ()
    assert {atom: "cyclic"}[Atom("Z", (3,))] == "cyclic"
    assert str(atom) == "Z(3)" and repr(atom) == "Atom(kind='Z', params=(3,))"
    assert str(GroupExpr((atom, Atom("Tstar")))) == "Z(3)xTstar"


def test_atoms_are_immutable():
    e = parse_group_expr("Z(5)")
    with pytest.raises(AttributeError):
        e.atoms = ()
    with pytest.raises(AttributeError):
        e.atoms[0].kind = "Dstar"
    assert isinstance(e, GroupExpr)
    assert isinstance(e.atoms[0], Atom)


# family name -> parameter count, written out independently of the parser
ARITY = {"Z": 1, "Dstar": 1, "Dprime": 2, "Tstar": 0, "Tprime": 1, "Ostar": 0, "Istar": 0}

_SPACE = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def spelled_exprs(draw):
    """A random atom list and one spelling of it with random case and whitespace."""
    atoms, parts = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(ARITY)))
        params = tuple(draw(st.integers(-50, 10**6)) for _ in range(ARITY[kind]))
        atoms.append(Atom(kind, params))
        text = draw(_SPACE) + "".join(
            c.upper() if draw(st.booleans()) else c.lower() for c in kind
        )
        if params:
            inner = ",".join(draw(_SPACE) + str(p) + draw(_SPACE) for p in params)
            text += draw(_SPACE) + "(" + inner + ")"
        parts.append(text + draw(_SPACE))
    text = parts[0] + "".join(draw(st.sampled_from("xX")) + part for part in parts[1:])
    return GroupExpr(tuple(atoms)), text


@settings(max_examples=100, deadline=1000)
@given(spelled_exprs())
def test_grammar_round_trip_and_spellings(case):
    expr, text = case
    assert parse_group_expr(expr_to_string(expr)) == expr
    assert parse_group_expr(text) == expr
