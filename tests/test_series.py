"""Integer polynomial helpers and exact rational power series."""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from polyprod.errors import SeriesError
from polyprod.series import (
    RationalSeries,
    geometric_denominator,
    poly_add,
    poly_divmod_exact,
    poly_mul,
    poly_pow,
    poly_trim,
)


def test_poly_basics():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0,)) == ()
    assert poly_add((1, 2), (0, 0, 3)) == (1, 2, 3)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul((), (1, 2)) == ()
    assert poly_pow((1, 1), 3) == (1, 3, 3, 1)
    assert poly_pow((2,), 0) == (1,)


def test_poly_divmod_exact():
    q, r = poly_divmod_exact((1, 0, -1), (1, -1))      # (1-t^2)/(1-t)
    assert q == (1, 1) and r == ()
    q, r = poly_divmod_exact((1, 0, 0, 1), (1, 1))
    assert q == (1, -1, 1) and r == ()
    q, r = poly_divmod_exact((1, 1, 1), (1, 1))
    assert r != ()


def test_geometric_denominator():
    assert geometric_denominator(1, 2) == (1, -2, 1)          # (1-t)^2
    assert geometric_denominator(2, 1) == (1, 0, -1)          # 1-t^2
    assert geometric_denominator(2, 3) == poly_pow((1, 0, -1), 3)
    assert geometric_denominator(3, 0) == (1,)


def test_geometric_series_expansion():
    s = RationalSeries.make((1,), (1, -1))
    assert s.expansion(6) == (1, 1, 1, 1, 1, 1, 1)   # degrees 0..6 inclusive
    assert s.expansion(100)[100] == 1
    assert not s.is_polynomial()
    with pytest.raises(SeriesError):
        s.as_polynomial()


def test_series_equality_across_representations():
    # (1-t^2)/(1-t) == 1+t, checked by cross-multiplication, not expansion
    a = RationalSeries.make((1, 0, -1), (1, -1))
    b = RationalSeries.make((1, 1))
    assert a == b
    assert a.is_polynomial()
    assert a.as_polynomial() == (1, 1)
    assert a != RationalSeries.make((1, 1, 1))


def test_series_zero_and_one():
    z = RationalSeries.make(())
    o = RationalSeries.one()
    assert not z.num
    assert o.constant_term() == 1
    assert RationalSeries.monomial(3).expansion(5) == (0, 0, 0, 1, 0, 0)
    assert RationalSeries.monomial(2, coeff=-4).expansion(2)[2] == -4


def test_series_ring_axioms_randomized():
    rng = random.Random(123)

    def rand_series():
        num = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4)))
        den = [1] + [rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))]
        return RationalSeries.make(num, tuple(den))

    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a * RationalSeries.one() == a
        assert (a * b) * c == a * (b * c)


def test_series_power_matches_repeated_product():
    s = RationalSeries.make((0, 1), (1, -1))       # t/(1-t)
    assert s ** 3 == s * s * s
    assert s ** 0 == RationalSeries.one()
    assert (s ** 4).expansion(6) == (0, 0, 0, 0, 1, 4, 10)


def test_make_divides_out_the_content_and_makes_the_constant_term_positive():
    s = RationalSeries.make((2, 4), (2, -2))
    assert (s.num, s.den) == ((1, 2), (1, -1))
    s = RationalSeries.make((1,), (-1, 1))
    assert (s.num, s.den) == ((-1,), (1, -1))


def test_is_polynomial_of_zero_and_of_a_non_unit_denominator():
    assert RationalSeries.make(()).is_polynomial()
    assert not RationalSeries.make((1,), (2, 1)).is_polynomial()


_coeffs = st.lists(st.integers(-5, 5), max_size=5)


@settings(max_examples=200, deadline=None)
@given(_coeffs, st.sampled_from((1, -1)), _coeffs, st.integers(0, 30))
def test_expansion_times_the_denominator_gives_the_numerator(num, d0, rest, order):
    s = RationalSeries.make(num, (d0, *rest))
    pad = (0,) * (order + 1)
    product = poly_mul(s.expansion(order), s.den)
    assert (product + pad)[:order + 1] == (s.num + pad)[:order + 1]


@settings(max_examples=200, deadline=None)
@given(_coeffs, st.sampled_from((1, -1, 2, -3)), _coeffs, st.integers(0, 5))
def test_power_is_the_repeated_product(num, d0, rest, k):
    s = RationalSeries.make(num, (d0, *rest))
    product = reduce(lambda acc, _: acc * s, range(k), RationalSeries.one())
    power = s ** k
    assert (power.num, power.den) == (product.num, product.den)


def test_denominator_must_be_invertible():
    with pytest.raises(SeriesError):
        RationalSeries.make((1,), (0, 1))      # constant term 0
