"""Polyhedral-product models and their decompositions.

Every decomposition here is checked against the brute-force chain model of
Z(K;(X,A)) itself, so these tests are oracle comparisons, not regressions
against previously recorded output.
"""

import random
import tracemalloc
import weakref
from dataclasses import replace
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyprod.catalog import (
    all_complexes_on,
    cycle_complex,
    simplex_boundary,
    square,
    standard_pair_library,
)
from polyprod.complexes import SimplicialComplex, face_sort_key, skeleton, vertices_from_mask
from polyprod.errors import (
    ArityMismatch,
    BudgetExceeded,
    InputError,
    NotShifted,
    PairNotCertified,
    SearchBoundExceeded,
    SeriesError,
    TorsionInShiftedSubcomplex,
)
from polyprod.homology import (
    HomologySummary,
    check_boundaries,
    direct_sum,
    homology,
    quotient_complex,
    reduced_simplicial_homology,
)
from polyprod.pairs import (
    pair_cone,
    pair_disk_sphere,
    pair_space_basepoint,
    rp2_pair,
    rp2_space,
    sphere_pair,
)
import polyprod.products as products_module
from polyprod.products import (
    SplitSummand,
    contractible_A_series,
    contractible_X_summary,
    hochster_homology,
    moment_angle_blocks,
    moment_angle_chain,
    poincare_polynomial,
    porter_decomposition,
    smash_moment_angle_chain,
    sphere_wedge_report,
    stable_splitting,
    wedge_lemma_decomposition,
)
from polyprod.series import RationalSeries

from fixtures import (
    face_tuples,
    random_complex,
    random_shifted_complex,
    relabeled,
    s0_space,
    star_complex,
)
from oracles import (
    contractible_A_series_by_faces,
    poincare_polynomial_by_faces,
    porter_decomposition_by_subsets,
    porter_decomposition_printed_variant,
    tuple_keyed_product_blocks,
)


def betti_map(summary):
    return {d: betti for d, betti, _ in summary.groups}


def ds(n):
    return pair_disk_sphere(n)


# ---------------------------------------------------------------------------
# the chain model itself
# ---------------------------------------------------------------------------

def test_two_points_gives_s3():
    z = moment_angle_chain(skeleton(2, 0), [ds(1), ds(1)])
    assert z.total_cells() == 8
    assert betti_map(homology(z, reduced=True)) == {3: 1}


def test_mixed_disks_give_s4():
    z = moment_angle_chain(skeleton(2, 0), [ds(1), ds(2)])
    assert betti_map(homology(z, reduced=True)) == {4: 1}


def test_boundary_complexes_give_odd_spheres():
    for m in (2, 3, 4):
        z = moment_angle_chain(simplex_boundary(m), [ds(1)] * m)
        assert betti_map(homology(z, reduced=True)) == {2 * m - 1: 1}


def test_full_simplex_is_contractible():
    z = moment_angle_chain(skeleton(3, 2), [ds(1)] * 3)
    assert homology(z, reduced=True).is_trivial()


def test_square_betti_vector():
    z = moment_angle_chain(square(), [ds(1)] * 4)
    assert homology(z).betti_vector(0, 6) == (1, 0, 0, 2, 0, 0, 1)


def test_pentagon_is_a_connected_sum():
    z = moment_angle_chain(cycle_complex(5), [ds(1)] * 5)
    assert z.total_cells() == 152
    assert homology(z).betti_vector(0, 7) == (1, 0, 0, 5, 5, 0, 0, 1)


def test_cell_count_is_product_over_faces():
    k = square()
    z = moment_angle_chain(k, [ds(1)] * 4)
    # (D^2,S^1) has 1 interior cell and 2 subspace cells per coordinate
    expected = sum(2 ** (4 - mask.bit_count()) for mask in k.faces)
    assert z.total_cells() == expected


def _smash_by_quotient(k, pairs):
    """Zhat by the reference route: build all of Z, then project away every
    basis cell with a basepoint coordinate.  The basis of Z is ordered by
    degree, then by cell tuple, so the kept indices follow from that order."""
    by_degree = {}
    for face in k.faces:
        ranges = [p.x_only_cells() if face >> i & 1 else p.a_cells()
                  for i, p in enumerate(pairs)]
        for cell in product(*ranges):
            deg = sum(p.dims[c] for p, c in zip(pairs, cell))
            by_degree.setdefault(deg, []).append(cell)
    keep = {d: {i for i, cell in enumerate(sorted(cells))
                if all(c != p.basepoint for p, c in zip(pairs, cell))}
            for d, cells in by_degree.items()}
    return quotient_complex(moment_angle_chain(k, pairs), lambda d, i: i in keep[d])


def _assert_same_complex(a, b):
    assert a.dims == b.dims
    assert a.boundaries == b.boundaries


def test_smash_model_equals_quotient_route_exhaustive():
    checked = 0
    for m in (1, 2, 3, 4):
        for k in all_complexes_on(m):
            for pair in standard_pair_library():
                pairs = [pair] * m
                _assert_same_complex(smash_moment_angle_chain(k, pairs),
                                     _smash_by_quotient(k, pairs))
                checked += 1
    assert checked == (2 + 4 + 9 + 29) * 4


def test_smash_model_equals_quotient_route_mixed_pairs():
    # a based pair whose basepoint is not cell 0, next to the library pairs
    mixed = standard_pair_library() + (pair_space_basepoint(square(), 2),)
    assert mixed[-1].basepoint != 0
    for m in (1, 2, 3):
        for k in all_complexes_on(m):
            for start in range(len(mixed)):
                pairs = [mixed[(start + i) % len(mixed)] for i in range(m)]
                _assert_same_complex(smash_moment_angle_chain(k, pairs),
                                     _smash_by_quotient(k, pairs))


def test_smash_budget_counts_smash_cells():
    pairs = [ds(1)] * 4
    cells = smash_moment_angle_chain(square(), pairs).total_cells()
    assert cells < moment_angle_chain(square(), pairs).total_cells()
    with pytest.raises(BudgetExceeded) as err:
        smash_moment_angle_chain(square(), pairs, budget=cells - 1)
    assert err.value.needed == cells
    assert smash_moment_angle_chain(square(), pairs, budget=cells).total_cells() == cells


def test_smash_quotient_of_two_points():
    zhat = smash_moment_angle_chain(skeleton(2, 0), [ds(1), ds(1)])
    assert betti_map(homology(zhat)) == {3: 1}     # already reduced


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded) as err:
        moment_angle_chain(square(), [ds(1)] * 4, budget=10)
    assert err.value.needed > err.value.budget == 10


def test_arity_is_enforced():
    with pytest.raises(ArityMismatch):
        moment_angle_chain(square(), [ds(1)] * 3)


def test_a_pair_model_with_a_repeated_target_is_refused_when_built():
    # one target listed twice: read into a column, the second entry would
    # overwrite the first, so the disk would pass as (D2,S1)
    with pytest.raises(InputError, match="repeats a boundary target"):
        replace(ds(1), boundaries=((), (), ((1, 1), (1, 1))))


# the malformed models are built inside pytest.raises, since building one
# raises; the plane would pass as RP2 read the same way
def _repeated_target_disk():
    return replace(ds(1), boundaries=((), (), ((1, 1), (1, 1))))


def _repeated_target_rp2():
    return replace(rp2_space(), boundaries=((), (), ((1, 2), (1, 2))))


@pytest.mark.parametrize("entry", [
    lambda pairs: moment_angle_chain(square(), pairs()),
    lambda pairs: smash_moment_angle_chain(square(), pairs()),
    # at the bare call, before any block is asked for
    lambda pairs: moment_angle_blocks(square(), pairs()),
    lambda pairs: stable_splitting(square(), pairs()),
    lambda pairs: wedge_lemma_decomposition(square(), pairs()),
    lambda pairs: contractible_X_summary(
        square(), [rp2_space(), rp2_space(), _repeated_target_rp2(), rp2_space()]),
], ids=["moment_angle_chain", "smash_moment_angle_chain", "moment_angle_blocks",
        "stable_splitting", "wedge_lemma_decomposition", "contractible_X_summary"])
def test_a_malformed_pair_model_is_refused(entry):
    with pytest.raises(InputError, match="repeats a boundary target"):
        entry(lambda: [ds(1), ds(1), _repeated_target_disk(), ds(1)])


def test_chain_model_is_deterministic():
    a = moment_angle_chain(cycle_complex(5), [ds(1)] * 5)
    b = moment_angle_chain(cycle_complex(5), [ds(1)] * 5)
    assert a.dims == b.dims and a.boundaries == b.boundaries


# ---------------------------------------------------------------------------
# the split basis: one block per vertex subset
# ---------------------------------------------------------------------------

def _block_homology(blocks, reduced=False):
    return direct_sum(homology(c) for mask, c in blocks.items()
                      if mask or not reduced)


def _assert_blocks_split_the_oracle(k, pairs):
    """Block I is Zhat(K_I) built on its own, the cells add up to the
    cellular model's, and the homology of the blocks is the oracle's."""
    blocks = dict(moment_angle_blocks(k, pairs))
    assert set(blocks) <= set(range(1 << k.m))
    assert all(c.total_cells() for c in blocks.values())
    assert blocks[0].dims == {0: 1} and blocks[0].boundaries == {}
    for mask in range(1, 1 << k.m):
        verts = vertices_from_mask(mask)
        zhat = smash_moment_angle_chain(k.full_subcomplex(verts),
                                        [pairs[v - 1] for v in verts])
        block = blocks.get(mask)
        if block is None:
            assert zhat.total_cells() == 0
        else:
            _assert_same_complex(block, zhat)
    z = moment_angle_chain(k, pairs)
    assert sum(c.total_cells() for c in blocks.values()) == z.total_cells()
    assert _block_homology(blocks) == homology(z)
    assert _block_homology(blocks, reduced=True) == homology(z, reduced=True)


def test_blocks_are_smash_models_exhaustive():
    checked = 0
    for m in (1, 2, 3, 4):
        for k in all_complexes_on(m):
            for pair in standard_pair_library():
                _assert_blocks_split_the_oracle(k, [pair] * m)
                checked += 1
    assert checked == (2 + 4 + 9 + 29) * 4


# (D1,S0) has an A 0-cell besides the basepoint, the cone over the
# triangle's boundary has several (and 13 cells, so cell indices need 4 bits
# and the pair size is not a power of two), and the based pair is based at
# cell 1
MIXED_PAIRS = standard_pair_library() + (pair_cone(simplex_boundary(3), 1),
                                         pair_space_basepoint(square(), 2))


def test_blocks_are_smash_models_mixed_pairs():
    mixed = MIXED_PAIRS
    assert sum(mixed[4].dims[c] == 0 for c in mixed[4].a_cells()) == 3
    assert mixed[-1].basepoint != 0
    for m in (1, 2, 3):
        for k in all_complexes_on(m):
            for start in range(len(mixed)):
                pairs = [mixed[(start + i) % len(mixed)] for i in range(m)]
                _assert_blocks_split_the_oracle(k, pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_blocks_match_the_oracle_on_random_complexes(m, seed, picks):
    k = random_complex(random.Random(seed), m)
    library = standard_pair_library()
    pairs = [library[i] for i in picks[:m]]
    try:
        blocks = dict(moment_angle_blocks(k, pairs, budget=6000))
    except BudgetExceeded:
        assume(False)
    z = moment_angle_chain(k, pairs)
    assert sum(c.total_cells() for c in blocks.values()) == z.total_cells()
    assert _block_homology(blocks) == homology(z)
    assert _block_homology(blocks, reduced=True) == homology(z, reduced=True)


def test_blocks_budget_counts_the_whole_model():
    pairs = [ds(1)] * 4
    cells = moment_angle_chain(square(), pairs).total_cells()
    # the check is made at call time, before any block is asked for
    with pytest.raises(BudgetExceeded) as err:
        moment_angle_blocks(square(), pairs, budget=cells - 1)
    assert err.value.needed == cells
    blocks = list(moment_angle_blocks(square(), pairs, budget=cells))
    assert [mask for mask, _ in blocks] == sorted(mask for mask, _ in blocks)
    assert sum(c.total_cells() for _, c in blocks) == cells


def test_the_block_stream_holds_a_block_not_the_model():
    # 17,664 cells, none of whose blocks has more than 56; the cells of the
    # whole model with their boundary terms take about 2.8 MB
    k, pairs = skeleton(10, 1), [ds(0)] * 10
    tracemalloc.start()
    try:
        cells = 0
        for _, block in moment_angle_blocks(k, pairs):
            cells += block.total_cells()
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells == moment_angle_chain(k, pairs).total_cells() == 17664
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# the integer-coded builder against the tuple-keyed reference
# ---------------------------------------------------------------------------

BASES = ("cellular", "split", "smash")


def _built(blocks):
    """Masks, dims and every column, entry order included."""
    return [(mask, list(c.dims.items()),
             [(d, [list(col.items()) for col in cols])
              for d, cols in c.boundaries.items()])
            for mask, c in blocks]


def _assert_builders_agree(k, pairs, basis, budget=products_module.DEFAULT_CELL_BUDGET):
    # the builder yields its blocks unchecked, so d o d = 0 is asserted here
    pairs = tuple(pairs)
    blocks = list(products_module._product_chain(k, pairs, budget, basis))
    for _, block in blocks:
        check_boundaries(block)
    got = _built(blocks)
    assert got == _built(tuple_keyed_product_blocks(k, pairs, basis))
    return got


@pytest.mark.parametrize("basis", BASES)
def test_builders_agree_exhaustive(basis):
    for m in (1, 2, 3):
        for k in all_complexes_on(m):
            for pair in MIXED_PAIRS:
                _assert_builders_agree(k, [pair] * m, basis)
            for start in range(len(MIXED_PAIRS)):
                _assert_builders_agree(
                    k, [MIXED_PAIRS[(start + i) % len(MIXED_PAIRS)] for i in range(m)], basis)


@pytest.mark.parametrize("basis", BASES)
def test_builders_agree_on_torsion_and_cone_models(basis):
    built = _assert_builders_agree(random_complex(random.Random(3), 5), [rp2_pair()] * 5, basis)
    assert sum(dims for _, degrees, _ in built for _, dims in degrees) > 1000
    assert MIXED_PAIRS[4].n_cells() == 13
    _assert_builders_agree(simplex_boundary(3), [MIXED_PAIRS[4]] * 3, basis)
    _assert_builders_agree(cycle_complex(5), [ds(1)] * 5, basis)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, len(MIXED_PAIRS) - 1), min_size=6, max_size=6),
       st.sampled_from(BASES))
def test_builders_agree_on_random_complexes(m, seed, picks, basis):
    k = random_complex(random.Random(seed), m)
    pairs = [MIXED_PAIRS[i] for i in picks[:m]]
    try:
        _assert_builders_agree(k, pairs, basis, budget=4000)
    except BudgetExceeded:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0, 1, 2]), min_size=3, max_size=3))
def test_builders_agree_with_odd_cells_on_many_coordinates(m, seed, fillers):
    # the walk signs a term before it has chosen the coordinates below it;
    # (C RP2, RP2), the cone and (D1,S0) put odd cells on several of them
    rng = random.Random(seed)
    picks = [3, 4, 1] + fillers[:m - 3]
    rng.shuffle(picks)
    k = random_complex(rng, m)
    for basis in BASES:
        try:
            _assert_builders_agree(k, [MIXED_PAIRS[i] for i in picks], basis, budget=6000)
        except BudgetExceeded:
            assume(False)


# ---------------------------------------------------------------------------
# stable splitting
# ---------------------------------------------------------------------------

def test_splitting_on_square_is_verified():
    res = stable_splitting(square(), [ds(1)] * 4)
    assert res.verified
    assert res.total == res.oracle
    assert len(res.summands) == 15
    # the two diagonals carry the S^3 classes, the full set the S^6 class
    by_subset = {s.subset: s.homology for s in res.summands}
    assert betti_map(by_subset[(1, 3)]) == {3: 1}
    assert betti_map(by_subset[(2, 4)]) == {3: 1}
    assert betti_map(by_subset[(1, 2, 3, 4)]) == {6: 1}
    assert by_subset[(1, 2)].is_trivial()


def test_splitting_carries_torsion():
    k = SimplicialComplex.from_maximal_faces(2, [(1,), (2,)])
    res = stable_splitting(k, [rp2_pair(), rp2_pair()])
    assert res.verified
    assert not res.oracle.is_torsion_free()


def test_splitting_with_mixed_pairs():
    rng = random.Random(8)
    library = standard_pair_library()
    for trial in range(6):
        k = random_complex(rng, 3)
        pairs = [library[rng.randrange(len(library))] for _ in range(3)]
        res = stable_splitting(k, pairs)
        assert res.verified, (trial, face_tuples(k), [p.name for p in pairs])


def test_splitting_reduces_each_block_before_the_next_is_built():
    alive = []

    def job_map(f, items):
        out = []
        for item in items:
            assert all(ref() is None for ref in alive)
            alive.append(weakref.ref(item[1]))
            out.append(f(item))
        return out

    k, pairs = cycle_complex(5), [rp2_pair()] * 5
    res = stable_splitting(k, pairs, job_map=job_map)
    assert len(alive) == len(list(moment_angle_blocks(k, pairs)))
    assert res.verified and res == stable_splitting(k, pairs)


def test_splitting_summand_descriptions():
    res = stable_splitting(skeleton(2, 0), [ds(1)] * 2)
    descriptions = [s.description for s in res.summands]
    assert descriptions == ["Zhat(K_{1})", "Zhat(K_{2})", "Zhat(K_{1,2})"]


# ---------------------------------------------------------------------------
# Hochster-type formula
# ---------------------------------------------------------------------------

def test_hochster_square():
    total, summands = hochster_homology(square(), 1)
    assert betti_map(total) == {3: 2, 6: 1}
    nonzero = {s.subset for s in summands if not s.homology.is_trivial()}
    assert nonzero == {(1, 3), (2, 4), (1, 2, 3, 4)}


def test_hochster_skips_faces():
    total, summands = hochster_homology(skeleton(3, 2), 1)
    assert total.is_trivial()
    assert tuple(summands) == ()


def test_hochster_summands_can_be_read_once():
    _, summands = hochster_homology(square(), 1)
    assert len(tuple(summands)) == 7    # the 16 subsets less 9 faces
    assert tuple(summands) == ()


def test_hochster_total_is_the_direct_sum_of_its_summands():
    rng = random.Random(23)
    for trial in range(20):
        k = random_complex(rng, rng.randrange(1, 7))
        dims = [rng.randrange(3) for _ in range(k.m)]
        total, summands = hochster_homology(k, dims)
        summands = tuple(summands)
        assert total == direct_sum(s.homology for s in summands), (trial, face_tuples(k))
        assert [s.subset for s in summands] == [
            vertices_from_mask(mask) for mask in sorted(range(1, 1 << k.m), key=face_sort_key)
            if mask not in k.faces]


def test_hochster_matches_oracle_on_random_complexes():
    rng = random.Random(19)
    for trial in range(15):
        k = random_complex(rng, rng.randrange(1, 5))
        for n in (1, 2):
            total, _ = hochster_homology(k, n)
            oracle = homology(
                moment_angle_chain(k, [ds(n)] * k.m), reduced=True)
            assert total == oracle, (trial, n, face_tuples(k))


def test_hochster_ghost_vertex_contributes_a_shifted_unit():
    # K = single vertex 1 with ghost vertex 2: I = {2} has empty K_I, whose
    # reduced homology is Z in degree -1; shifted by 1 + n it lands at n
    k = SimplicialComplex.from_maximal_faces(2, [(1,)])
    total, _ = hochster_homology(k, 1)
    oracle = homology(moment_angle_chain(k, [ds(1)] * 2), reduced=True)
    assert total == oracle
    assert total.betti(1) == 1


@pytest.mark.parametrize("job_map", [None, lambda f, xs: [f(x) for x in xs]],
                         ids=["serial", "list-job-map"])
def test_hochster_computes_each_distinct_full_subcomplex_once(monkeypatch, job_map):
    calls = []

    def spy(k):
        calls.append(k)
        return reduced_simplicial_homology(k)

    monkeypatch.setattr(products_module, "reduced_simplicial_homology", spy)
    for k in (square(), random_complex(random.Random(5), 7)):
        non_faces = [vertices_from_mask(mask) for mask in range(1, 1 << k.m)
                     if mask not in k.faces]
        distinct = {k.full_subcomplex(verts) for verts in non_faces}
        assert len(distinct) < len(non_faces)
        for _ in range(2):      # a second call recomputes: nothing carries over
            calls.clear()
            _, summands = hochster_homology(k, 1, job_map=job_map)
            assert set(calls) == distinct and len(calls) == len(distinct)
            assert len(tuple(summands)) == len(non_faces)
            assert len(calls) == len(distinct)     # reading them computes nothing


def test_hochster_rejects_negative_n():
    with pytest.raises(InputError):
        hochster_homology(square(), -1)


def test_hochster_per_vertex_dimensions():
    k = skeleton(2, 0)
    total, _ = hochster_homology(k, (1, 2))
    oracle = homology(
        moment_angle_chain(k, [ds(1), ds(2)]), reduced=True)
    assert total == oracle
    assert betti_map(total) == {4: 1}
    with pytest.raises(ArityMismatch):
        hochster_homology(k, (1, 2, 3))


# ---------------------------------------------------------------------------
# wedge decomposition over faces
# ---------------------------------------------------------------------------

def test_wedge_lemma_on_square():
    res = wedge_lemma_decomposition(square(), [ds(1)] * 4)
    assert res.verified
    # smash collapses everything but the top subset: suspension^5 of the
    # square, i.e. S^6
    assert betti_map(res.total) == {6: 1}


def test_wedge_lemma_mixed_certified_pairs():
    res = wedge_lemma_decomposition(
        star_complex(), [ds(1), ds(0), sphere_pair(2)])
    assert res.verified


def test_wedge_lemma_refuses_uncertified_models():
    with pytest.raises(PairNotCertified):
        wedge_lemma_decomposition(square(), [rp2_space()] * 4)


def test_wedge_lemma_summand_count_is_face_count():
    k = star_complex()
    res = wedge_lemma_decomposition(k, [ds(1)] * 3)
    assert len(res.summands) == len(k.faces)


# ---------------------------------------------------------------------------
# contractible X / contractible A
# ---------------------------------------------------------------------------

def test_contractible_x_rp2_torsion_propagates():
    k = skeleton(2, 0)
    left = contractible_X_summary(k, [rp2_space()] * 2)
    assert sum(betti for _, betti, _ in left.groups) == 0
    assert left.torsion(3) == (2,) and left.torsion(4) == (2,)
    oracle = homology(smash_moment_angle_chain(k, [rp2_pair()] * 2))
    assert left == oracle


def test_contractible_x_matches_smash_oracle():
    rng = random.Random(3)
    models = {"s0": s0_space(), "rp2": rp2_space()}
    from polyprod.pairs import cone_pair
    for trial in range(8):
        k = random_complex(rng, rng.randrange(1, 4))
        name = rng.choice(sorted(models))
        space = models[name]
        left = contractible_X_summary(k, [space] * k.m)
        right = homology(smash_moment_angle_chain(k, [cone_pair(space)] * k.m))
        assert left == right, (trial, name, face_tuples(k))


def test_contractible_a_series_counts_faces():
    t = RationalSeries.monomial(1)
    s = contractible_A_series(square(), [t] * 4)
    assert s.expansion(4) == (0, 4, 4, 0, 0)      # f-vector in disguise


def test_contractible_a_series_rejects_unreduced_input():
    with pytest.raises(SeriesError):
        contractible_A_series(square(), [RationalSeries.one()] * 4)


def _reduced_series(draw_num, draw_den) -> RationalSeries:
    # zero constant term on top, constant term 1 below
    return RationalSeries.make((0,) + tuple(draw_num), (1,) + tuple(draw_den))


_coeffs = st.lists(st.integers(-5, 5), min_size=0, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(_coeffs, _coeffs), min_size=5, max_size=5))
def test_face_series_over_a_common_denominator_match_face_by_face_sums(
        m, seed, drawn):
    k = random_complex(random.Random(seed), m)
    series = [_reduced_series(num, den) for num, den in drawn[:m]]
    fast = contractible_A_series(k, series)
    slow = contractible_A_series_by_faces(k, series)
    assert fast == slow
    assert fast.expansion(30) == slow.expansion(30)
    fast = poincare_polynomial(k, series[0])
    slow = poincare_polynomial_by_faces(k, series[0])
    assert fast == slow
    assert fast.expansion(30) == slow.expansion(30)


def test_boundary_series_denominator_is_the_product_of_the_vertex_ones():
    # t^a/(1-t) per vertex of the boundary of the 8-simplex: one factor
    # (1-t) per vertex, not one per face addition
    exponents = (1, 2, 3, 1, 2, 3, 1, 2, 3)
    x_series = [RationalSeries.make((0,) * a + (1,), (1, -1)) for a in exponents]
    boundary = simplex_boundary(9)
    s = contractible_A_series(boundary, x_series)
    assert len(s.den) - 1 == 9
    # face I adds t^(sum of a_i) / (1-t)^|I|: count its coefficients directly
    order = 30
    expected = [0] * (order + 1)
    for mask in boundary.faces:
        if mask:
            low = sum(a for i, a in enumerate(exponents) if mask >> i & 1)
            size = mask.bit_count()
            for n in range(low, order + 1):
                expected[n] += comb(n - low + size - 1, size - 1)
    assert s.expansion(order) == tuple(expected)


def test_poincare_polynomial_agrees_with_based_oracle():
    t2 = RationalSeries.monomial(2)
    series = poincare_polynomial(square(), t2)
    oracle = homology(
        moment_angle_chain(square(), [sphere_pair(2)] * 4), reduced=True)
    expansion = series.expansion(10)
    for d in range(11):
        assert expansion[d] == oracle.betti(d)


# ---------------------------------------------------------------------------
# skeleton decompositions
# ---------------------------------------------------------------------------

def test_porter_uniform_values():
    wedge = porter_decomposition(4, 0, (1, 1, 1, 1))
    assert wedge.groups == ((3, 6, ()), (4, 8, ()), (5, 3, ()))
    top = porter_decomposition(3, 1, (1, 1, 1))
    assert top.groups == ((5, 1, ()),)


def test_porter_refuses_more_than_the_enumeration_bound():
    with pytest.raises(SearchBoundExceeded, match="m = 25 exceeds 24"):
        porter_decomposition(25, 1, (1,) * 25)


def test_porter_count_table_matches_the_subset_walk():
    rng = random.Random(909)
    for _ in range(150):
        m = rng.randrange(2, 13)
        q = rng.randrange(0, m - 1)
        dims = [rng.randrange(0, 5) for _ in range(m)]
        assert porter_decomposition(m, q, dims) \
            == porter_decomposition_by_subsets(m, q, dims), (m, q, dims)


def test_porter_matches_chain_oracle():
    for m in (2, 3, 4):
        for q in range(0, m - 1):
            wedge = porter_decomposition(m, q, (1,) * m)
            oracle = homology(
                moment_angle_chain(skeleton(m, q), [ds(1)] * m), reduced=True)
            assert wedge == oracle, (m, q)


def test_porter_mixed_dimensions():
    # one S^2 coordinate: subsets containing it rise accordingly
    wedge = porter_decomposition(3, 0, (1, 1, 2))
    oracle = homology(
        moment_angle_chain(skeleton(3, 0), [ds(1), ds(1), ds(2)]),
        reduced=True)
    assert wedge == oracle


def test_porter_printed_variant_disagrees_with_oracle():
    # the alternative bookkeeping already fails at m = 3, q = 1
    oracle = homology(
        moment_angle_chain(skeleton(3, 1), [ds(1)] * 3), reduced=True)
    assert porter_decomposition(3, 1, (1, 1, 1)) == oracle
    variant = porter_decomposition_printed_variant(3, 1, (1, 1, 1))
    assert variant != oracle
    assert variant.groups == ((7, 6, ()),)    # claims 6 x S^7 instead of S^5


def test_porter_input_validation():
    with pytest.raises(InputError):
        porter_decomposition(3, 2, (1, 1, 1))        # q beyond m - 2
    with pytest.raises(ArityMismatch):
        porter_decomposition(3, 0, (1, 1))
    with pytest.raises(InputError):
        porter_decomposition(3, 0, (1, 1, -1))


# ---------------------------------------------------------------------------
# sphere wedge report for shifted complexes
# ---------------------------------------------------------------------------

def _cellular_wedge(k, n):
    """H-tilde of Sigma Z(K;(D^{n+1},S^n)) from the cellular model."""
    z = moment_angle_chain(k, [pair_disk_sphere(n)] * k.m)
    return homology(z, reduced=True).shifted(1)


def test_sphere_wedge_report_star():
    report = sphere_wedge_report(star_complex(), 1)
    assert report.groups == ((4, 1, ()),)
    assert report == _cellular_wedge(star_complex(), 1)


def test_sphere_wedge_report_matches_the_cellular_model_for_random_shifted():
    rng = random.Random(555)
    for trial in range(10):
        k = random_shifted_complex(rng, rng.randrange(2, 6))
        for n in (1, 2):
            assert sphere_wedge_report(k, n) == _cellular_wedge(k, n), (trial, n)


def test_sphere_wedge_report_on_ten_scrambled_vertices_matches_the_cellular_model():
    rng = random.Random(5)
    k = random_shifted_complex(rng, 10)
    k = relabeled(k, rng.sample(range(1, 11), 10))
    assert k.is_shifted().labeling != tuple(range(1, 11))
    for n in (0, 1):
        assert sphere_wedge_report(k, n) == _cellular_wedge(k, n), n


def test_sphere_wedge_report_rejects_unshifted():
    with pytest.raises(NotShifted):
        sphere_wedge_report(square(), 1)


def test_sphere_wedge_report_refuses_a_summand_with_torsion(monkeypatch):
    torsion = HomologySummary(((2, 0, (2,)),))
    summand = SplitSummand((1, 2), "K_{1,2} shifted by 2", torsion)
    monkeypatch.setattr(products_module, "hochster_homology",
                        lambda k, n: (torsion, (summand,)))
    with pytest.raises(TorsionInShiftedSubcomplex, match="K_{1,2}"):
        sphere_wedge_report(star_complex(), 1)


def test_splitting_and_wedge_agree_on_smash_totals():
    # two independent decompositions of the same homology, face-side and
    # subset-side; their verdicts must both hold on the same complexes
    rng = random.Random(41)
    for _ in range(5):
        k = random_complex(rng, 3)
        assert stable_splitting(k, [ds(1)] * 3).verified
        assert wedge_lemma_decomposition(k, [ds(1)] * 3).verified
