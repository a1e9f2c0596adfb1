"""Face rings: presentations, Hilbert series against a brute-force monomial
count, and the two-route additive comparison."""

import random
from itertools import combinations_with_replacement

import pytest

from polyprod.catalog import all_complexes_on, cycle_complex, simplex_boundary, square
from polyprod.complexes import mask_from_vertices, skeleton
from polyprod.errors import SeriesError
from polyprod.products import contractible_A_series
from polyprod.series import RationalSeries
from polyprod.stanley_reisner import dj_additive_check, sr_hilbert_series, sr_presentation

from fixtures import face_tuples, random_complex


def monomial_count(k, algebra_degree):
    """Number of monomials of the given total degree (in the degree-1
    grading) whose support is a face: the direct count the series must hit."""
    if algebra_degree == 0:
        return 1
    total = 0
    for verts in combinations_with_replacement(range(1, k.m + 1),
                                               algebra_degree):
        if mask_from_vertices(verts, k.m) in k.faces:
            total += 1
    return total


def test_presentation_of_square():
    pres = sr_presentation(square())
    assert pres.generator_degrees == (2, 2, 2, 2)
    assert pres.relation_strings() == ("x1*x3", "x2*x4")


def test_presentation_of_simplex_has_no_relations():
    pres = sr_presentation(skeleton(3, 2))
    assert pres.relations == ()
    assert pres.relation_strings() == ()


def test_presentation_degree_parameter():
    pres = sr_presentation(cycle_complex(5), degree=1)
    assert pres.generator_degrees == (1,) * 5
    assert len(pres.relations) == 5        # the five diagonals


def test_hilbert_series_of_triangle_boundary():
    s = sr_hilbert_series(simplex_boundary(3), degree=2)
    assert s.expansion(8) == (1, 0, 3, 0, 6, 0, 9, 0, 12)


def test_hilbert_series_of_full_polynomial_ring():
    # full simplex: no relations, so the series is 1/(1-t)^m
    s = sr_hilbert_series(skeleton(3, 2), degree=1)
    assert s == RationalSeries.make((1,), (1, -3, 3, -1))


def test_hilbert_series_matches_direct_monomial_count():
    rng = random.Random(64)
    cases = list(all_complexes_on(3)) + [
        random_complex(rng, m) for m in (4, 5, 5)]
    for k in cases:
        series = sr_hilbert_series(k, degree=1)
        coeffs = series.expansion(12)
        for d in range(13):
            assert coeffs[d] == monomial_count(k, d), (face_tuples(k), d)


def test_hilbert_series_degree_two_interleaves_zeros():
    k = square()
    one = sr_hilbert_series(k, degree=1).expansion(6)
    two = sr_hilbert_series(k, degree=2).expansion(12)
    assert two[1::2] == (0,) * 6
    assert two[0::2] == one


def test_generalized_series_specializes_to_hilbert_series():
    # feeding every vertex the reduced series of an infinite polynomial
    # generator (t^2 + t^4 + ...) must reproduce the face-ring series
    gen = RationalSeries.make((0, 0, 1), (1, 0, -1))
    for k in (square(), cycle_complex(5), simplex_boundary(3)):
        generalized = RationalSeries.one() + contractible_A_series(k, [gen] * k.m)
        assert generalized == sr_hilbert_series(k, 2)


def test_generalized_series_rejects_unreduced_factors():
    with pytest.raises(SeriesError):
        contractible_A_series(square(), [RationalSeries.one()] * 4)


def test_dj_additive_check_on_small_catalog():
    for k in (square(), cycle_complex(5), skeleton(4, 3), simplex_boundary(4)):
        comparison = dj_additive_check(k)
        assert comparison.equal
        assert comparison.mismatches == ()
        assert comparison.ring_side == comparison.wedge_side


def test_dj_additive_check_exhaustive_on_four_vertices():
    for k in all_complexes_on(4):
        assert dj_additive_check(k, truncation=24).equal


def test_dj_additive_check_records_window():
    comparison = dj_additive_check(square(), degree=2, truncation=10)
    assert comparison.degree_step == 2
    assert comparison.truncation == 10
    assert len(comparison.ring_side) == len(comparison.wedge_side) == 11
