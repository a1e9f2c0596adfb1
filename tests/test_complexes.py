"""Combinatorial layer: face sets, subcomplexes, shiftedness, validation."""

import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import polyprod.complexes as complexes
from polyprod.complexes import (
    SimplicialComplex,
    face_sort_key,
    mask_from_vertices,
    skeleton,
    sorted_faces,
    submasks,
    validate,
    vertices_from_mask,
)
from polyprod.catalog import all_complexes_on, cycle_complex, simplex_boundary, square
from polyprod.errors import (
    FaceNotInComplex,
    InputError,
    SearchBoundExceeded,
)
from polyprod.homology import reduced_simplicial_homology

from fixtures import (
    face_tuples,
    from_faces,
    random_complex,
    random_shifted_complex,
    relabeled,
    star_complex,
)
from oracles import (
    all_complexes_per_family,
    join_complex,
    maximal_faces_by_containment,
    minimal_non_faces_by_subsets,
    order_complex_below,
)


def test_mask_roundtrip():
    assert mask_from_vertices((1, 3), 4) == 0b101
    assert vertices_from_mask(0b101) == (1, 3)
    assert vertices_from_mask(0) == ()
    with pytest.raises(InputError):
        mask_from_vertices((5,), 4)
    with pytest.raises(InputError):
        mask_from_vertices((0,), 4)


def test_submasks_enumerates_powerset():
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


def test_face_sort_key_orders_by_cardinality_then_mask():
    masks = [0b11, 0b100, 0b1, 0b111, 0b10]
    assert sorted(masks, key=face_sort_key) == [0b1, 0b10, 0b100, 0b11, 0b111]


def test_from_maximal_faces_closes_downward():
    k = SimplicialComplex.from_maximal_faces(3, [(1, 2, 3)])
    assert len(k.faces) == 8
    assert mask_from_vertices((), 3) in k.faces
    assert mask_from_vertices((1, 3), 3) in k.faces
    assert k.dim() == 2
    assert k.maximal_faces == (0b111,)


def test_from_maximal_faces_counts_the_closure_walk_before_it_walks(monkeypatch):
    # the walk is the sum of 2^|f| over the input faces, repeats included
    monkeypatch.setattr(complexes, "CLOSURE_SUBSET_BOUND", 16)
    k = SimplicialComplex.from_maximal_faces(5, [(1, 2, 3), (3, 4), (3, 4)])
    assert face_tuples(k)[-1] == (1, 2, 3)
    with pytest.raises(SearchBoundExceeded, match="walks 18 subsets; bound is 16"):
        SimplicialComplex.from_maximal_faces(5, [(1, 2, 3), (3, 4), (3, 4), (5,)])


def test_from_faces_refuses_a_face_set_that_is_not_closed():
    # the edge {1,2} without its vertices: the raw constructor trusts it,
    # validate finds both gaps, and from_faces refuses it
    k = SimplicialComplex(2, frozenset({0, 0b11}))
    assert [(d.kind, d.face) for d in validate(k)] == [
        ("not_downward_closed", (2,)), ("not_downward_closed", (1,))]
    with pytest.raises(InputError, match=r"missing subset \(2,\)"):
        from_faces(2, (0, 0b11))
    with pytest.raises(InputError, match="beyond m=2"):
        from_faces(2, (0b100,))


def test_square_f_and_h_vector():
    k = square()
    assert k.f_vector() == (4, 4)
    assert k.h_vector() == (1, 2, 1)
    assert k.minimal_non_faces() == (0b0101, 0b1010)   # the two diagonals


def test_simplex_boundary_h_vector_all_ones():
    for m in (3, 4, 5):
        assert simplex_boundary(m).h_vector() == (1,) * m


def test_full_subcomplex_relabels_and_keeps_names():
    k = square()
    sub = k.full_subcomplex((1, 3))
    assert sub.m == 2
    assert face_tuples(sub) == ((), (1,), (2,))       # two points, no edge
    edge = k.full_subcomplex((3, 4))
    assert mask_from_vertices((1, 2), 2) in edge.faces


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_full_subcomplex_is_the_relabeled_faces_inside_the_subset(m):
    for k in all_complexes_on(m, up_to_iso=False):
        for mask in range(1 << m):
            verts = vertices_from_mask(mask)
            label = {v: i for i, v in enumerate(verts, start=1)}
            expected = {tuple(label[v] for v in face)
                        for face in face_tuples(k) if set(face) <= set(verts)}
            sub = k.full_subcomplex(verts)
            assert sub.m == len(verts)
            assert set(face_tuples(sub)) == expected, (face_tuples(k), verts)


def test_skeleton_is_the_closure_of_its_facets():
    for m in range(1, 12):
        for q in range(-1, m):
            facets = combinations(range(1, m + 1), q + 1)
            assert skeleton(m, q) == SimplicialComplex.from_maximal_faces(m, facets), (m, q)
    assert face_tuples(skeleton(4, -1)) == ((),)


def test_skeleton_costs_its_face_count():
    # a closure of the C(18, 9) facets walks 48,620 * 2^9 subsets for 155,382 faces
    start = time.perf_counter()
    k = skeleton(18, 8)
    elapsed = time.perf_counter() - start
    assert len(k.faces) == sum(comb(18, size) for size in range(10))
    assert elapsed < 1.5


@pytest.mark.parametrize("m, q", [(4, 4), (4, -2), (0, -1), (25, 0)])
def test_skeleton_refuses_a_degree_or_vertex_count_out_of_range(m, q):
    with pytest.raises(InputError):
        skeleton(m, q)


def test_minimal_non_faces_of_boundary_is_full_set():
    for m in (2, 3, 4):
        k = simplex_boundary(m)
        assert k.minimal_non_faces() == ((1 << m) - 1,)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_face_set_queries_match_their_oracles_on_every_labeled_complex(m):
    for k in all_complexes_on(m, up_to_iso=False):
        assert k.minimal_non_faces() == minimal_non_faces_by_subsets(k), k
        assert k.maximal_faces == maximal_faces_by_containment(k), k


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1), st.booleans())
def test_face_set_queries_match_their_oracles_on_random_complexes(m, seed, bare):
    # bare, or m = 0, gives {empty}: each of the m vertices is then a ghost
    if bare or not m:
        k = SimplicialComplex(m, frozenset({0}))
    else:
        k = random_complex(random.Random(seed), m)
    assert k.minimal_non_faces() == minimal_non_faces_by_subsets(k)
    assert k.maximal_faces == maximal_faces_by_containment(k)


def test_maximal_faces_of_many_six_vertex_faces_is_fast():
    # 4,096 six-vertex faces close in 2^18 subsets, the closure bound; a
    # containment walk compares every face with every facet found so far
    rng = random.Random(24)
    facets = [rng.sample(range(1, 25), 6) for _ in range(4096)]
    k = SimplicialComplex.from_maximal_faces(24, facets)
    start = time.perf_counter()
    maximal = k.maximal_faces
    elapsed = time.perf_counter() - start
    assert maximal == sorted_faces({mask_from_vertices(f, 24) for f in facets})
    assert elapsed < 1.5


def test_order_complex_below_vertex_of_square():
    # edges {1,2} and {1,4} strictly contain vertex 1 and are incomparable,
    # so the order complex is two isolated points
    oc = order_complex_below(square(), (1,))
    assert oc.m == 2
    assert oc.f_vector() == (2,)


def test_order_complex_below_empty_face_is_barycentric_subdivision():
    k = square()
    sd = order_complex_below(k, ())
    assert sd.f_vector() == (8, 8)     # 4 vertices + 4 edges, one edge per incidence
    assert reduced_simplicial_homology(sd) == reduced_simplicial_homology(k)


def test_order_complex_below_maximal_face_is_empty_complex():
    oc = order_complex_below(square(), (1, 2))
    assert oc.m == 0
    assert face_tuples(oc) == ((),)


def test_order_complex_requires_a_face():
    with pytest.raises(FaceNotInComplex):
        order_complex_below(square(), (1, 3))


def test_link_of_a_vertex_and_of_the_empty_face():
    k = square()
    assert face_tuples(k.link((1,))) == ((), (2,), (4,))
    assert k.link((1,)).m == 4
    assert k.link(()) == k
    assert face_tuples(k.link((1, 2))) == ((),)
    filled = SimplicialComplex.from_maximal_faces(3, [(1, 2, 3)])
    assert filled.link((3,)) == SimplicialComplex.from_maximal_faces(3, [(1, 2)])


def test_link_requires_a_face():
    with pytest.raises(FaceNotInComplex):
        square().link((1, 3))
    with pytest.raises(FaceNotInComplex):
        simplex_boundary(4).link((1, 2, 3, 4))


def test_link_has_the_homology_of_the_order_complex_above_every_face():
    # the order complex of the faces strictly above sigma is the barycentric
    # subdivision of lk(sigma); checked exhaustively up to isomorphism
    cases = 0
    for m in range(1, 6):
        for k in all_complexes_on(m):
            for sigma in k.faces_sorted():
                verts = vertices_from_mask(sigma)
                assert reduced_simplicial_homology(k.link(verts)) == \
                    reduced_simplicial_homology(order_complex_below(k, verts)), \
                    (face_tuples(k), verts)
                cases += 1
    assert cases == 3653


def test_star_complex_is_shifted_under_identity():
    verdict = star_complex().is_shifted()
    assert verdict.shifted
    assert verdict.labeling == (1, 2, 3)
    assert verdict.counterexample is None


def test_square_is_not_shifted_under_any_labeling():
    verdict = square().is_shifted()
    assert not verdict.shifted
    assert verdict.labeling is None
    assert verdict.counterexample is not None


def test_shifted_search_recovers_scrambled_labeling():
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randrange(2, 6)
        k = random_shifted_complex(rng, m)
        assert k.is_shifted((tuple(range(1, m + 1)))).shifted
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        scrambled = relabeled(k, perm)
        verdict = scrambled.is_shifted()
        assert verdict.shifted
        assert relabeled(scrambled, verdict.labeling).is_shifted(
            tuple(range(1, m + 1))).shifted


def test_shifted_search_bound():
    k = skeleton(9, 0)
    with pytest.raises(SearchBoundExceeded):
        k.is_shifted()
    # explicit labeling bypasses the search
    assert k.is_shifted(tuple(range(1, 10))).shifted


def test_join_of_two_point_pairs_is_a_cycle():
    j = join_complex(skeleton(2, 0), skeleton(2, 0))
    assert j.m == 4
    assert j.f_vector() == (4, 4)
    assert reduced_simplicial_homology(j) == reduced_simplicial_homology(square())


def test_validate_clean_complex_has_no_diagnostics():
    assert validate(cycle_complex(5)) == []
    assert validate(cycle_complex(5), strict=True) == []


def test_validate_flags_ghost_vertex_only_in_strict_mode():
    k = SimplicialComplex.from_maximal_faces(3, [(1, 2)])
    assert validate(k) == []
    kinds = [d.kind for d in validate(k, strict=True)]
    assert kinds == ["ghost_vertex"]


def test_validate_detects_hand_built_closure_gap():
    broken = object.__new__(SimplicialComplex)
    object.__setattr__(broken, "m", 2)
    object.__setattr__(broken, "faces", frozenset({0, 0b11}))
    kinds = {d.kind for d in validate(broken)}
    assert "not_downward_closed" in kinds


def test_cycle_complex_needs_three_vertices():
    with pytest.raises(InputError):
        cycle_complex(2)


def test_all_complexes_on_counts():
    # labeled counts are the Dedekind numbers minus the void family
    assert [len(all_complexes_on(m, up_to_iso=False)) for m in (1, 2, 3, 4)] \
        == [2, 5, 19, 167]
    assert [len(all_complexes_on(m)) for m in (1, 2, 3, 4)] == [2, 4, 9, 29]


@pytest.mark.parametrize("up_to_iso", [True, False])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_all_complexes_on_matches_the_per_family_oracle(m, up_to_iso):
    # one canonicalization per orbit picks the same representatives, in
    # the same order, as canonicalizing every labeled family
    fast = all_complexes_on(m, up_to_iso)
    assert fast == all_complexes_per_family(m, up_to_iso)
    if m == 5:
        assert len(fast) == (209 if up_to_iso else 7580)


def test_all_complexes_are_valid_and_deduplicated():
    seen = set()
    for k in all_complexes_on(3, up_to_iso=False):
        assert validate(k) == []
        assert k.faces not in seen
        seen.add(k.faces)


def test_random_complex_is_always_valid():
    rng = random.Random(2024)
    for _ in range(40):
        k = random_complex(rng, rng.randrange(1, 7))
        assert validate(k) == []


def test_relabeled_requires_permutation():
    with pytest.raises(InputError):
        relabeled(square(), (1, 1, 2, 3))
