"""Face rings: ideal presentations and exact Hilbert series.

The face ring of K over m degree-d generators has a monomial basis indexed
by pairs (face, positive exponent vector on that face), which is the
paper's additive decomposition  sum_{I in K} (t^d / (1 - t^d))^{|I|}:  one
plus the reduced Poincare series of the polyhedral product whose every X_i
has the reduced series t^d / (1 - t^d).  The generalized form, with each
generator's geometric series replaced by an arbitrary reduced Poincare
series, is one plus products.contractible_A_series.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import SimplicialComplex, vertices_from_mask
from .errors import InputError
from .products import poincare_polynomial
from .series import RationalSeries, geometric_denominator


@dataclass(frozen=True)
class IdealPresentation:
    """Generators x_1..x_m with their degrees, and squarefree monomial
    relations given as vertex tuples (the minimal non-faces)."""

    generator_degrees: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]

    def relation_strings(self) -> tuple[str, ...]:
        return tuple("*".join(f"x{v}" for v in rel) for rel in self.relations)


def sr_presentation(k: SimplicialComplex, degree: int = 2) -> IdealPresentation:
    """Face-ring presentation: one generator per vertex, one monomial
    relation per minimal non-face."""
    if degree < 1:
        raise InputError("generator degree must be positive")
    relations = tuple(vertices_from_mask(mask) for mask in k.minimal_non_faces())
    return IdealPresentation((degree,) * k.m, relations)


def sr_hilbert_series(k: SimplicialComplex, degree: int = 2) -> RationalSeries:
    """Hilbert series of the face ring with all generators in the given degree.

    1 + sum over nonempty faces of (t^d / (1 - t^d))^{|I|}: one plus the
    poincare_polynomial of K at the reduced series t^d / (1 - t^d), over
    the common denominator (1 - t^d)^n with n = dim K + 1.
    """
    if degree < 1:
        raise InputError("generator degree must be positive")
    generator = RationalSeries.make((0,) * degree + (1,),
                                    geometric_denominator(degree, 1))
    return RationalSeries.one() + poincare_polynomial(k, generator)


@dataclass(frozen=True)
class DJComparison:
    """Coefficient table comparing the rational-function expansion of the
    face-ring Hilbert series against an independent binomial count of
    face-supported monomials, degree by degree."""

    degree_step: int
    truncation: int
    ring_side: tuple[int, ...]
    wedge_side: tuple[int, ...]
    mismatches: tuple[tuple[int, int, int], ...]
    equal: bool


def dj_additive_check(k: SimplicialComplex, degree: int = 2,
                      truncation: int = 32) -> DJComparison:
    """Two-route comparison of the face-ring Hilbert function.

    Route one expands the closed-form rational function by exact long
    division.  Route two counts monomials directly: a face with c vertices
    carries C(j-1, c-1) monomials of exponent-sum j, so the coefficient at
    s^j is  sum_c f_{c-1} C(j-1, c-1).
    """
    if truncation < 0:
        raise InputError("truncation must be >= 0")
    series = sr_hilbert_series(k, degree)
    ring_side = series.expansion(truncation)
    f = (1,) + k.f_vector()
    wedge: list[int] = []
    for t_deg in range(truncation + 1):
        if t_deg % degree:
            wedge.append(0)
            continue
        j = t_deg // degree
        if j == 0:
            wedge.append(1)
            continue
        wedge.append(sum(f[c] * comb(j - 1, c - 1) for c in range(1, len(f))))
    mismatches = tuple((d, a, b) for d, (a, b) in enumerate(zip(ring_side, wedge))
                       if a != b)
    return DJComparison(degree, truncation, ring_side, tuple(wedge),
                        mismatches, not mismatches)
