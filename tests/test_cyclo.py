"""Exact cyclotomic arithmetic against a floating-point embedding oracle.

Every algebraic identity asserted exactly is also embedded into the complex
numbers and compared numerically, so a bug in the exact layer cannot hide
behind a matching bug in the test.  The library's numbers form the ring
Z[z_N]; differences, powers and conjugates are written here with its sums,
negatives and products and the test-side `complex_conjugate`.
"""

import cmath
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import complex_conjugate, conjugate_dot, euler_phi, exact_sum, to_complex
from thetadim.cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
    from_int,
    golden_ratio,
    golden_ratio_conjugate,
    sqrt2,
    sqrt_minus_one,
    zeta,
)

EPS = 1e-9


def embed_close(x: CycloNumber, z: complex) -> bool:
    return abs(to_complex(x) - z) < EPS


def power(x: CycloNumber, e: int) -> CycloNumber:
    """x^e as e products."""
    return reduce(operator.mul, [x] * e, from_int(1))


# low conductors have well-known minimal polynomials; coefficients are
# ascending, leading term last
KNOWN_CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    11: [1] * 11,
    12: [1, 0, -1, 0, 1],
    15: [1, -1, 0, 1, -1, 1, 0, -1, 1],
    105: None,  # checked separately: first index with coefficient +-2
}


@pytest.mark.parametrize("n", sorted(k for k, v in KNOWN_CYCLOTOMIC.items() if v))
def test_cyclotomic_polynomial_known_values(n):
    assert cyclotomic_polynomial(n) == KNOWN_CYCLOTOMIC[n]


def test_cyclotomic_polynomial_degree_is_euler_phi():
    for n in range(1, 40):
        coeffs = cyclotomic_polynomial(n)
        assert len(coeffs) == euler_phi(n) + 1
        assert coeffs[-1] == 1


def test_cyclotomic_polynomial_105_has_coefficient_two():
    # smallest conductor whose cyclotomic polynomial has a coefficient
    # outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomial_vanishes_at_primitive_root():
    for n in (7, 12, 20):
        coeffs = cyclotomic_polynomial(n)
        root = cmath.exp(2j * math.pi / n)
        value = sum(c * root**k for k, c in enumerate(coeffs))
        assert abs(value) < EPS


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_zeta_embeds_to_primitive_root():
    for n in (1, 2, 3, 8, 12, 30):
        for k in range(n):
            assert embed_close(zeta(n, k), cmath.exp(2j * math.pi * k / n))


def test_zeta_power_relation():
    z = zeta(12)
    acc = from_int(1)
    for k in range(25):
        assert acc == zeta(12, k % 12)
        assert acc == power(z, k)
        acc = acc * z


def test_root_of_unity_order():
    assert power(zeta(5), 5) == from_int(1)
    assert power(zeta(5), 4) != from_int(1)
    assert power(zeta(8), 4) == from_int(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 15])
def test_geometric_sum_of_all_roots_vanishes(n):
    total = sum((zeta(n, k) for k in range(n)), from_int(0))
    expected = from_int(1 if n == 1 else 0)
    assert total == expected


def test_arithmetic_matches_embedding_on_random_expressions():
    rng = random.Random(20260816)
    for _ in range(120):
        n = rng.choice([3, 4, 5, 8, 12, 20, 24])
        a = zeta(n, rng.randrange(n)) * from_int(rng.randint(-3, 3))
        b = zeta(n, rng.randrange(n)) + from_int(rng.randint(-2, 2))
        for x, z in [
            (a + b, to_complex(a) + to_complex(b)),
            (a + -b, to_complex(a) - to_complex(b)),
            (a * b, to_complex(a) * to_complex(b)),
            (complex_conjugate(a), to_complex(a).conjugate()),
        ]:
            assert abs(to_complex(x) - z) < EPS


def test_mixed_conductor_arithmetic():
    x = zeta(3) + zeta(4)
    assert embed_close(x, cmath.exp(2j * math.pi / 3) + 1j)
    y = zeta(3) * zeta(4)
    assert y == zeta(12, 7)


def test_scalar_operations_from_either_side():
    z = zeta(7)
    assert 1 + z == z + 1
    assert 2 * z == z * 2
    assert 3 * z + -z == z * 2
    assert (1 + -z) + z == from_int(1)


def test_equality_ignores_representation():
    # z(4)^1 created directly and via conductor 8 must compare equal
    assert zeta(4) == zeta(8) * zeta(8)
    assert zeta(6) == zeta(3) * zeta(3) * -1 == -zeta(3, 2)


def test_truthiness_and_zero():
    assert not from_int(0)
    assert from_int(1)
    assert not (zeta(5) + -zeta(5))
    assert not sum((zeta(7, k) for k in range(7)), from_int(0))


def is_real(x: CycloNumber) -> bool:
    return x == complex_conjugate(x)


def test_is_real_and_conjugation():
    assert is_real(from_int(-7))
    assert not is_real(zeta(5))
    x = zeta(5) + zeta(5, 4)
    assert is_real(x)
    assert complex_conjugate(x) == x
    y = zeta(5) + -zeta(5, 4)
    assert not is_real(y)
    assert complex_conjugate(y) == -y
    assert is_real(y * complex_conjugate(y))


def test_rational_extraction():
    assert from_int(-7).as_int() == -7
    assert (zeta(6) + zeta(6, 5)).as_int() == 1
    assert (zeta(8, 2) * zeta(8, 2)).as_int() == -1
    with pytest.raises(ValueError):
        zeta(5).as_int()
    with pytest.raises(ValueError):
        (zeta(5) + zeta(5, 4)).as_int()


def test_special_constants():
    i = sqrt_minus_one()
    assert i * i == from_int(-1)
    assert embed_close(i, 1j)

    r = sqrt2()
    assert r * r == from_int(2)
    assert embed_close(r, complex(math.sqrt(2)))

    phi = golden_ratio()
    psi = golden_ratio_conjugate()
    assert phi * phi == phi + 1
    assert phi + psi == from_int(1)
    assert phi * psi == from_int(-1)
    assert embed_close(phi, complex((1 + math.sqrt(5)) / 2))
    assert embed_close(psi, complex((1 - math.sqrt(5)) / 2))


def test_unhashable_by_design():
    # equal values can have distinct internal representations, so hashing
    # is disabled rather than risking silent dict corruption
    with pytest.raises(TypeError):
        hash(zeta(5))
    with pytest.raises(TypeError):
        {zeta(3): 1}


def test_str_roundtrip_content():
    s = str(zeta(8) + 2)
    assert "z(8)" in s
    assert str(from_int(0)) == "0"


def dirichlet_sum(n: int, k: int) -> int:
    """Sum of zeta_{2n}^{k*j} + zeta_{2n}^{-k*j} over j = 1..n-1, as an exact integer.

    The value is computed by explicit summation in the cyclotomic field and
    checked against the closed evaluation before being returned.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}.")
    acc = from_int(0)
    for j in range(1, n):
        acc = acc + zeta(2 * n, k * j) + zeta(2 * n, -k * j)
    value = acc.as_int()
    if k % (2 * n) == 0:
        expected = 2 * n - 2
    elif k % 2 == 0:
        expected = -2
    else:
        expected = 0
    if value != expected:
        raise AssertionError(
            f"root-of-unity sum mismatch for n={n}, k={k}: {value} != {expected}"
        )
    return value


def dirichlet_oracle(n: int, k: int) -> complex:
    # literal cosine sum: 2 cos(pi k j / n) over j = 1..n-1
    return sum(2 * math.cos(math.pi * k * j / n) for j in range(1, n))


def closed_dirichlet(n: int, k: int) -> int:
    if k % (2 * n) == 0:
        return 2 * n - 2
    if k % 2 == 0:
        return -2
    return 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 10, 12])
def test_dirichlet_sum_matches_literal_summation(n):
    for k in range(-2 * n, 2 * n + 1):
        got = dirichlet_sum(n, k)
        assert abs(got - dirichlet_oracle(n, k)) < EPS, (n, k, got)
        assert got == closed_dirichlet(n, k)


def test_dirichlet_sum_sampled_large_arguments():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(13, 50)
        k = rng.randint(-200, 200)
        assert dirichlet_sum(n, k) == closed_dirichlet(n, k)


def test_dirichlet_sum_branch_examples():
    assert dirichlet_sum(4, 0) == 6
    assert dirichlet_sum(4, 2) == -2
    assert dirichlet_sum(4, 3) == 0


# -- integer kernel: property tests -------------------------------------------

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 20, 21, 30]

coefficients = st.integers(-5, 5)


@st.composite
def cyclo_numbers(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    terms = draw(st.lists(st.tuples(st.integers(0, n - 1), coefficients), max_size=5))
    return CycloNumber(n, terms)


def stores_only_ints(x: CycloNumber) -> bool:
    return all(type(q) is int and q for q in x.coeffs.values())


@settings(deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), coefficients)
def test_integral_coefficients_are_stored_as_int(a, b, w):
    assert stores_only_ints(a)
    for x in (
        a + b,
        -a,
        a * b,
        w * a,
        conjugate_dot([(w, a, b), (1, b, a)]),
        exact_sum([a, b]),
    ):
        assert stores_only_ints(x)


@settings(deadline=None)
@given(st.lists(cyclo_numbers(), max_size=8))
def test_exact_sum_equals_left_fold(values):
    got = exact_sum(values)
    want = reduce(operator.add, values, from_int(0))
    assert got == want
    assert stores_only_ints(got)
    assert abs(to_complex(got) - sum(to_complex(v) for v in values)) < EPS


def test_non_int_coefficients_are_refused():
    # every value is a cyclotomic integer: a Fraction coefficient, even an
    # integral one, is refused rather than stored, and so is a Fraction scalar
    with pytest.raises(TypeError, match="int"):
        CycloNumber(5, [(1, Fraction(4, 2))])
    with pytest.raises(TypeError, match="int"):
        from_int(Fraction(1, 2))
    with pytest.raises(TypeError):
        Fraction(1, 2) * zeta(7)
    with pytest.raises(TypeError):
        zeta(7) + 0.5
    assert CycloNumber(5, [(1, True)]).coeffs == {1: 1}
    assert type(CycloNumber(5, [(1, True)]).coeffs[1]) is int
