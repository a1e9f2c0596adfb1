"""Acceptance gate: twelve end-to-end identities, one test per line.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Every check is exact integer or exact rational equality --
homology summaries compare betti numbers AND torsion coefficients, series
compare coefficient-by-coefficient.  The two long-running criteria carry
explicit wall-clock budgets.
"""

import random
import time
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from polyprod.catalog import all_complexes_on, simplex_boundary, square, standard_pair_library
from polyprod.complexes import mask_from_vertices, skeleton
from polyprod.errors import InvalidCharacteristic
from polyprod.homology import HomologySummary, homology, reduced_simplicial_homology
from polyprod.pairs import cone_pair, pair_disk_sphere, rp2_space, sphere_pair
from polyprod.products import (
    contractible_A_series,
    contractible_X_summary,
    hochster_homology,
    moment_angle_chain,
    poincare_polynomial,
    porter_decomposition,
    smash_moment_angle_chain,
    sphere_wedge_report,
    stable_splitting,
    wedge_lemma_decomposition,
)
from polyprod.series import RationalSeries
from polyprod.stanley_reisner import dj_additive_check, sr_hilbert_series
from polyprod.toric import (
    CharacteristicMatrix,
    ensure_characteristic,
    kernel_lattice_basis,
    toric_betti,
    validate_characteristic,
)

from fixtures import (
    face_tuples,
    projective_characteristic,
    random_complex,
    random_shifted_complex,
    s0_space,
    sphere_space,
    square_characteristic,
)
from oracles import porter_decomposition_printed_variant


def ds(n):
    return pair_disk_sphere(n)


def sphere_summary(d):
    """Reduced homology of S^d: a single Z in degree d."""
    return HomologySummary.from_map({d: (1, ())})


def test_c01_sphere_identifications(capsys):
    start = time.perf_counter()
    two = skeleton(2, 0)
    cases = [(two, [ds(1), ds(1)], (1, 1), 3),
             (two, [ds(1), ds(2)], (1, 2), 4)]
    for m in range(2, 6):
        cases.append((simplex_boundary(m), [ds(1)] * m, (1,) * m, 2 * m - 1))
    for k, pairs, dims, d in cases:
        expected = sphere_summary(d)
        oracle = homology(moment_angle_chain(k, pairs), reduced=True)
        total, _ = hochster_homology(k, dims)
        assert oracle == expected, (face_tuples(k), d)
        assert total == expected, (face_tuples(k), d)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 01 PASS  sphere identifications ({elapsed:.2f}s)")


def test_c02_square_betti_vector(capsys):
    z = moment_angle_chain(square(), [ds(1)] * 4)
    full = homology(z)
    assert full.betti_vector(0, 6) == (1, 0, 0, 2, 0, 0, 1)
    assert full.is_torsion_free()
    # graded-group identity only: the reduced groups agree degreewise with
    # the subset-sum decomposition; nothing is asserted about the
    # unsuspended space itself
    total, _ = hochster_homology(square(), 1)
    assert homology(z, reduced=True) == total
    with capsys.disabled():
        print("\nACCEPTANCE 02 PASS  square betti vector (1,0,0,2,0,0,1)")


def test_c03_stable_splitting_exhaustive(capsys):
    start = time.perf_counter()
    library = standard_pair_library()
    assert len(library) == 4
    checked = 0
    for m in (1, 2, 3, 4):
        for k in all_complexes_on(m):
            for pair in library:
                res = stable_splitting(k, [pair] * m)
                assert res.total == res.oracle, (face_tuples(k), pair.name)
                assert res.verified
                checked += 1
    assert checked == (2 + 4 + 9 + 29) * 4
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 03 PASS  {checked} splittings verified "
              f"({elapsed:.1f}s)")


def test_c04_hochster_random_sample(capsys):
    rng = random.Random(20240817)
    for trial in range(100):
        k = random_complex(rng, rng.randrange(1, 6))
        for n in (1, 2):
            total, _ = hochster_homology(k, n)
            oracle = homology(moment_angle_chain(k, [ds(n)] * k.m),
                              reduced=True)
            assert total == oracle, (trial, n, face_tuples(k))
    with capsys.disabled():
        print("\nACCEPTANCE 04 PASS  subset formula = oracle on 100 samples")


def test_c05_wedge_decomposition_exhaustive(capsys):
    library = standard_pair_library()
    assert all(p.null_homotopic_inclusion for p in library)
    for m in (1, 2, 3, 4):
        for k in all_complexes_on(m):
            for pair in library:
                res = wedge_lemma_decomposition(k, [pair] * m)
                assert res.total == res.oracle, (face_tuples(k), pair.name)
                assert res.verified
    with capsys.disabled():
        print("\nACCEPTANCE 05 PASS  face-wedge totals = smash oracle")


def test_c06_contractible_x_join_model(capsys):
    models = (s0_space(), sphere_space(1), rp2_space())
    for m in (1, 2, 3):
        for k in all_complexes_on(m):
            for space in models:
                left = contractible_X_summary(k, [space] * m)
                right = homology(
                    smash_moment_angle_chain(k, [cone_pair(space)] * m))
                assert left == right, (face_tuples(k), space.name)
    with capsys.disabled():
        print("\nACCEPTANCE 06 PASS  join model = smash oracle incl. torsion")


def test_c07_poincare_series_through_degree_20(capsys):
    complexes = (simplex_boundary(3), square(), skeleton(4, 0), skeleton(4, 1))
    for n in (1, 2):
        xbar = RationalSeries.monomial(n)
        for k in complexes:
            series = poincare_polynomial(k, xbar)
            oracle = homology(moment_angle_chain(k, [sphere_pair(n)] * k.m),
                              reduced=True)
            expansion = series.expansion(20)
            for d in range(21):
                assert expansion[d] == oracle.betti(d), (n, face_tuples(k), d)
    with capsys.disabled():
        print("\nACCEPTANCE 07 PASS  poincare series = oracle through t^20")


def test_c08_skeleton_wedge_formula(capsys):
    for m in range(2, 6):
        for q in range(0, m - 1):
            wedge = porter_decomposition(m, q, (1,) * m)
            oracle = homology(
                moment_angle_chain(skeleton(m, q), [ds(1)] * m), reduced=True)
            assert wedge == oracle, (m, q)
            # per-subset bookkeeping: C(j-1, q+1) spheres of dimension
            # j + q + 1 from each of the C(m, j) subsets of size j
            expected = {}
            for j in range(q + 2, m + 1):
                expected[j + q + 1] = comb(m, j) * comb(j - 1, q + 1)
            assert {d: b for d, b, _ in wedge.groups} == expected, (m, q)
    # the rejected bookkeeping (exponent |I|+1, coefficient C(|I|+1, q+1))
    # already fails at m = 3, q = 1
    oracle = homology(
        moment_angle_chain(skeleton(3, 1), [ds(1)] * 3), reduced=True)
    assert porter_decomposition(3, 1, (1, 1, 1)) == oracle
    variant = porter_decomposition_printed_variant(3, 1, (1, 1, 1))
    assert variant != oracle
    with capsys.disabled():
        print("\nACCEPTANCE 08 PASS  skeleton wedge formula; variant rejected")


def monomial_count(k, degree):
    if degree == 0:
        return 1
    return sum(1 for verts in combinations_with_replacement(
        range(1, k.m + 1), degree) if mask_from_vertices(verts, k.m) in k.faces)


def test_c09_face_ring_series(capsys):
    for m in (1, 2, 3, 4, 5):
        for k in all_complexes_on(m):
            coeffs = sr_hilbert_series(k, degree=1).expansion(12)
            for d in range(13):
                assert coeffs[d] == monomial_count(k, d), (face_tuples(k), d)
            comparison = dj_additive_check(k)
            assert comparison.equal and comparison.mismatches == (), \
                face_tuples(k)
    with capsys.disabled():
        print("\nACCEPTANCE 09 PASS  face-ring series on all m <= 5")


def test_c10_toric_invariants(capsys):
    for m in (3, 4, 5, 6):
        k = simplex_boundary(m)
        lam = projective_characteristic(m)
        assert validate_characteristic(k, lam) == []
        report = toric_betti(k, m - 1)
        assert report.betti == tuple(
            1 if i % 2 == 0 else 0 for i in range(2 * m - 1))
        assert report.euler == m
        assert len(kernel_lattice_basis(lam)) == lam.m - lam.n == 1
    sq_lam = square_characteristic()
    assert validate_characteristic(square(), sq_lam) == []
    assert toric_betti(square(), 2).betti == (1, 0, 2, 0, 1)
    assert len(kernel_lattice_basis(sq_lam)) == sq_lam.m - sq_lam.n == 2
    bad = CharacteristicMatrix.from_rows([[1, 0], [0, 1], [-2, 1], [0, -1]])
    diags = validate_characteristic(square(), bad)
    assert ("face_not_unimodular", (2, 3)) in {(d.kind, d.face) for d in diags}
    with pytest.raises(InvalidCharacteristic):
        ensure_characteristic(square(), bad)
    with capsys.disabled():
        print("\nACCEPTANCE 10 PASS  toric betti/euler/kernel + rejection")


def test_c11_equal_f_vectors_equal_series(capsys):
    abars = (RationalSeries.monomial(1), RationalSeries.make((0, 1, 1), (1,)))
    by_f = {}
    for k in all_complexes_on(4, up_to_iso=False):
        key = k.f_vector()
        value = tuple(contractible_A_series(k, [abar] * 4) for abar in abars)
        by_f.setdefault(key, []).append(value)
    pairings = 0
    for group in by_f.values():
        for left, right in combinations(group, 2):
            for a, b in zip(left, right):
                assert a == b
            pairings += 1
    assert pairings > 0
    with capsys.disabled():
        print(f"\nACCEPTANCE 11 PASS  {pairings} equal-f-vector pairings")


def test_c12_shifted_complexes_are_sphere_wedges(capsys):
    rng = random.Random(9041)
    for trial in range(20):
        k = random_shifted_complex(rng, rng.randrange(2, 8))
        for size in range(1, k.m + 1):
            for verts in combinations(range(1, k.m + 1), size):
                sub = reduced_simplicial_homology(k.full_subcomplex(verts))
                assert sub.is_torsion_free(), (trial, verts)
        for n in (1, 2):
            z = moment_angle_chain(k, [ds(n)] * k.m)
            assert sphere_wedge_report(k, n) == \
                homology(z, reduced=True).shifted(1), (trial, n)
    with capsys.disabled():
        print("\nACCEPTANCE 12 PASS  20 shifted complexes, torsion-free")
