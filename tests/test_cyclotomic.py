import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmkit import Cyclotomic, cyclotomic_polynomial, euler_phi

zeta = Cyclotomic.zeta

small_values = st.builds(
    lambda e, pairs: sum((zeta(e, k) * Fraction(num, den) for k, num, den in pairs),
                         Cyclotomic.zero()),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.lists(st.tuples(st.integers(0, 11), st.integers(-4, 4), st.integers(1, 3)),
             max_size=3),
)


def test_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert euler_phi(20) == 8


def test_low_order_roots():
    assert zeta(1) == Cyclotomic.one()
    assert zeta(2) == Cyclotomic.rational(-1)
    assert zeta(4) * zeta(4) == Cyclotomic.rational(-1)


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 8, 12, 20, 36])
def test_all_roots_sum_to_zero(e):
    total = Cyclotomic.zero()
    for k in range(e):
        total = total + zeta(e, k)
    assert total.is_zero()


def test_cross_conductor_equality():
    assert zeta(3) == zeta(6, 2)
    assert zeta(2) == zeta(6, 3)
    assert zeta(12, 3) == zeta(4)


def test_rational_normalization():
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.is_rational() and x.rational_value() == -1
    assert x.conductor == 1


def test_integer_extraction():
    assert (zeta(8) * zeta(8, 7)).integer_value() == 1
    with pytest.raises(ValueError):
        zeta(8).integer_value()
    with pytest.raises(ValueError):
        (Cyclotomic.rational(Fraction(1, 2))).integer_value()


def test_conjugation_and_norm():
    x = zeta(12, 5) * 3 + Fraction(1, 2)
    assert x.conjugate().conjugate() == x
    root = zeta(20, 7)
    assert root * root.conjugate() == Cyclotomic.one()


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_division_by_rationals():
    assert (zeta(3) * 6) / 3 == zeta(3) * 2
    assert (Cyclotomic.rational(5) / Fraction(5, 2)).rational_value() == 2


def test_string_form():
    assert Cyclotomic.zero().to_string() == "0"
    assert Cyclotomic.rational(Fraction(-3, 2)).to_string() == "-3/2"
    assert (zeta(12, 1) + 1).to_string() == "1+1*z^1"
    assert (zeta(12, 5) * 2 - Fraction(1, 2)).to_string() == "-1/2-2*z^1+2*z^3"


@given(small_values, small_values)
@settings(max_examples=60, deadline=None)
def test_ring_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(small_values, small_values, small_values)
@settings(max_examples=40, deadline=None)
def test_ring_associativity_distributivity(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(small_values, small_values)
@settings(max_examples=40, deadline=None)
def test_conjugation_is_a_ring_map(x, y):
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(small_values)
@settings(max_examples=40, deadline=None)
def test_subtraction_inverts_addition(x):
    assert (x - x).is_zero()
    assert x + Cyclotomic.zero() == x


def as_complex(v):
    """sum_k c_k exp(2 pi i k/e) / d over the numerators c_k and denominator d."""
    return sum(c * cmath.exp(2j * cmath.pi * k / v.conductor)
               for k, c in enumerate(v.numerators)) / v.denominator


def assert_normal_form(v):
    """Numerators on the power basis over a positive denominator, in lowest
    terms; a value with no irrational coefficient has conductor 1."""
    assert v.denominator > 0 and gcd(v.denominator, *v.numerators) == 1
    assert len(v.numerators) == euler_phi(v.conductor)
    assert (v.conductor == 1) == (not any(v.numerators[1:]))


@given(small_values, small_values,
       st.fractions(-20, 20, max_denominator=50).filter(bool),
       st.sampled_from([1, 5, 7, 11, 13, 17, 19, 23]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_arithmetic_agrees_with_complex_evaluation(x, y, q, k):
    """Sums, differences, products, quotients by rationals, Galois images and
    conjugates agree with the same operations on complex numbers, evaluated
    in `cmath` from the numerators alone (k is prime to every conductor the
    strategy draws, all of which divide 24)."""
    a, b = as_complex(x), as_complex(y)
    expected = [
        (x, a), (y, b), (x + y, a + b), (x - y, a - b), (x * y, a * b),
        (x / q, a / complex(q)), (x.conjugate(), a.conjugate()),
        (x.galois(k), sum(c * cmath.exp(2j * cmath.pi * j * k / x.conductor)
                          for j, c in enumerate(x.numerators)) / x.denominator),
    ]
    for value, want in expected:
        assert_normal_form(value)
        assert abs(as_complex(value) - want) <= 1e-9 * max(1.0, abs(want))
