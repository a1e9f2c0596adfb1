"""Exact linear algebra and homology: Smith form properties against
independent oracles, classical spaces, Kunneth/product/join consistency."""

import heapq
import random
import types
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

import polyprod.homology as homology_module
from polyprod.complexes import SimplicialComplex, skeleton
from polyprod.catalog import all_complexes_on, cycle_complex, simplex_boundary, square
from polyprod.errors import (
    BoundaryNotSquareZero,
    DimensionMismatch,
    NotASubcomplex,
)
from polyprod.homology import (
    ChainComplex,
    HomologySummary,
    augmented,
    check_boundaries,
    direct_sum,
    empty_chain_complex,
    homology,
    invariant_factors,
    kunneth_product,
    make_chain_complex,
    quotient_complex,
    reduced_simplicial_homology,
    simplicial_chain_complex,
    smith_normal_form,
)
from polyprod.pairs import (
    PairModel,
    pair_chain,
    pair_disk_sphere,
    rp2_pair,
    rp2_space,
    simplicial_space,
)
from polyprod.products import moment_angle_chain

from fixtures import face_tuples, projective_plane, random_complex, sphere_space
from oracles import join_complex, trivial_summary


# ---------------------------------------------------------------------------
# independent helpers (kept deliberately dumb: these are the oracles)
# ---------------------------------------------------------------------------

def det(m):
    """Integer determinant by cofactor expansion; fine for the sizes here."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def rank_over_q(matrix):
    """Row-echelon rank with exact rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def random_matrix(rng, rows, cols):
    return [[rng.randrange(-9, 10) if rng.random() < 0.7 else 0
             for _ in range(cols)] for _ in range(rows)]


def moore_space(k: int) -> PairModel:
    """Cells v, e, f with boundary f = k*e: a mod-k Moore space in degree 1."""
    return PairModel(name=f"M(Z/{k},1)", dims=(0, 1, 2), in_a=(True,) * 3,
                     boundaries=((), (), ((1, k),)), basepoint=0,
                     cell_ids=("v", "e", "f"))


def product_chain(a: PairModel, b: PairModel) -> ChainComplex:
    """Chains of the product of two space models: for all-A models every
    cell of the polyhedral product has empty support, so the model is the
    tensor product of the factors' chains."""
    return moment_angle_chain(skeleton(2, 1), [a, b])


def summary(**groups) -> HomologySummary:
    """summary(d0=(betti, orders), ...) convenience builder."""
    return HomologySummary.from_map(
        {int(k[1:]): v for k, v in groups.items()})


# ---------------------------------------------------------------------------
# invariant factors and Smith normal form
# ---------------------------------------------------------------------------

def test_invariant_factors_recombination():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 3, 4, 6]) == (2, 6, 12)
    assert invariant_factors([4, 2, 2]) == (2, 2, 4)
    assert invariant_factors([1, 1, 5]) == (5,)
    assert invariant_factors([]) == ()
    p = 100000000000000000039          # prime; no factoring may be needed
    assert invariant_factors([p, 2 * p, 4]) == (2 * p, 4 * p)


def test_invariant_factors_canonical_properties():
    rng = random.Random(11)
    for _ in range(60):
        orders = [rng.randrange(2, 200) for _ in range(rng.randrange(0, 6))]
        chain = invariant_factors(orders)
        # divisibility chain, order preserved, idempotent
        assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
        prod = 1
        for o in orders:
            prod *= o
        prod_chain = 1
        for c in chain:
            prod_chain *= c
        assert prod == prod_chain
        assert invariant_factors(chain) == chain


# orders built from a few shared factors, so the gcd refinement has work to do
_shared_orders = st.lists(
    st.sampled_from([2, 3, 4, 6, 9, 12, 25, 100000000000000000039]),
    min_size=1, max_size=4).map(prod)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 10**6), _shared_orders), max_size=6))
def test_invariant_factors_match_sympy_smith_form(orders):
    if orders:
        diagonal = sympy_smith_normal_form(Matrix.diag(*orders), domain=ZZ)
        expected = tuple(abs(int(diagonal[i, i])) for i in range(len(orders)))
    else:
        expected = ()
    assert invariant_factors(orders) == tuple(x for x in expected if x > 1)


def test_homology_submodule_is_not_shadowed():
    import polyprod.homology as module
    assert isinstance(module, types.ModuleType)
    assert module.homology is homology


def test_smith_normal_form_known_values():
    snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert snf.diagonal == (2, 2, 156)
    # zero entries are trimmed: diagonal holds exactly the nonzero factors
    zero = smith_normal_form([[0, 0], [0, 0]])
    assert zero.diagonal == () and zero.rank == 0
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[6]]).diagonal == (6,)
    assert smith_normal_form([[2, 0], [0, 0]]).diagonal == (2,)


def test_smith_normal_form_witnessed_factorization():
    rng = random.Random(99)
    for trial in range(50):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = random_matrix(rng, rows, cols)
        snf = smith_normal_form(a, with_transforms=True)
        u, v = [list(r) for r in snf.u], [list(r) for r in snf.v]
        d = mat_mul(mat_mul(u, a), v)
        for i in range(rows):
            for j in range(cols):
                expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert d[i][j] == expected, (trial, a)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        nonzero = [x for x in snf.diagonal if x]
        assert all(x > 0 for x in nonzero)
        assert all(nonzero[i + 1] % nonzero[i] == 0
                   for i in range(len(nonzero) - 1))
        assert snf.rank == len(nonzero) == rank_over_q(a)


def test_smith_fast_path_agrees_with_witnessed_path():
    rng = random.Random(5)
    for _ in range(80):
        a = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        assert smith_normal_form(a).diagonal == \
            smith_normal_form(a, with_transforms=True).diagonal


def test_smith_transforms_on_degenerate_shapes():
    # U stays rows x rows and V cols x cols when either is 0 or 1
    cases = {
        (): ((), (), ()),
        ((),): ((), ((1,),), ()),
        ((0, 0), (0, 0)): ((), ((1, 0), (0, 1)), ((1, 0), (0, 1))),
        ((3, 6, 9),): ((3,), ((1,),), ((1, -2, -3), (0, 1, 0), (0, 0, 1))),
        ((4,), (6,)): ((2,), ((-1, 1), (3, -2)), ((1,),)),
    }
    for a, (diagonal, u, v) in cases.items():
        snf = smith_normal_form(a, with_transforms=True)
        assert (snf.diagonal, snf.rank, snf.u, snf.v) == \
            (diagonal, len(diagonal), u, v), a


def test_witnessed_smith_form_of_diagonals_that_are_no_chain():
    # no divisibility chain as given: the dense kernel must reach d1 | d2
    for a, diagonal in (([[2, 0], [0, 3]], (1, 6)),
                        ([[4, 0], [0, 6]], (2, 12)),
                        ([[2, 3]], (1,))):
        snf = smith_normal_form(a, with_transforms=True)
        assert snf.diagonal == diagonal and snf.rank == len(diagonal), a
        d = mat_mul(mat_mul([list(r) for r in snf.u], a), [list(r) for r in snf.v])
        assert d == [[diagonal[i] if i == j and i < len(diagonal) else 0
                      for j in range(len(a[0]))] for i in range(len(a))], a
        assert abs(det(snf.u)) == abs(det(snf.v)) == 1, a


_BIG_PRIME = 100000000000000000039
_entry_kinds = (
    st.integers(-9, 9),
    st.integers(-10**15, 10**15),
    st.integers(-3, 3).map(lambda k: k * _BIG_PRIME),
)


@st.composite
def _dense_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = draw(st.sampled_from(_entry_kinds))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(_dense_matrices())
def test_smith_normal_form_matches_sympy_in_both_modes(a):
    expected = sympy_smith_normal_form(Matrix(a), domain=ZZ)
    factors = sorted(abs(int(expected[i, i]))
                     for i in range(min(len(a), len(a[0]))) if expected[i, i])
    witnessed = smith_normal_form(a, with_transforms=True)
    assert smith_normal_form(a).diagonal == witnessed.diagonal == tuple(factors)
    d = mat_mul(mat_mul([list(r) for r in witnessed.u], a),
                [list(r) for r in witnessed.v])
    assert d == [[witnessed.diagonal[i] if i == j and i < witnessed.rank else 0
                  for j in range(len(a[0]))] for i in range(len(a))]
    assert abs(det(witnessed.u)) == abs(det(witnessed.v)) == 1


@settings(max_examples=150, deadline=None)
@given(_dense_matrices())
def test_dense_kernel_returns_the_divisibility_chain(a):
    expected = sympy_smith_normal_form(Matrix(a), domain=ZZ)
    factors = sorted(abs(int(expected[i, i]))
                     for i in range(min(len(a), len(a[0]))) if expected[i, i])
    m = [list(row) for row in a]
    assert homology_module._diagonalize(m, len(a), len(a[0])) == factors


@st.composite
def _sparse_matrices(draw):
    """At least half zeros; either non-unit entries with some +-1, or a +-1
    matrix with rows and columns scaled by 2 or 3 (Smith pivots appear)."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    filled = draw(st.lists(st.sampled_from(cells), max_size=len(cells) // 2,
                           unique=True))
    a = [[0] * cols for _ in range(rows)]
    if draw(st.booleans()):
        for i, j in filled:
            a[i][j] = draw(st.sampled_from((2, 3, 4, 6, 9, 2, 3, 4, 6, 9, 1))) \
                * draw(st.sampled_from((1, -1)))
    else:
        row_scale = draw(st.lists(st.sampled_from((1, 1, 2, 3)),
                                  min_size=rows, max_size=rows))
        col_scale = draw(st.lists(st.sampled_from((1, 1, 2, 3)),
                                  min_size=cols, max_size=cols))
        for i, j in filled:
            a[i][j] = draw(st.sampled_from((1, -1))) * row_scale[i] * col_scale[j]
    return a


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices())
def test_sparse_smith_normal_form_matches_sympy(a):
    expected = sympy_smith_normal_form(Matrix(a), domain=ZZ)
    factors = sorted(abs(int(expected[i, i]))
                     for i in range(min(len(a), len(a[0]))) if expected[i, i])
    snf = smith_normal_form(a)
    assert snf.diagonal == tuple(factors)
    assert snf.rank == len(factors)


def test_smith_pivots_finish_without_the_dense_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(homology_module, "_diagonalize",
                        lambda m, r, c: calls.append((r, c)) or [])
    # each matrix has an entry dividing its row and column at every step
    for a, diagonal in (([[2, 0], [0, 3]], (1, 6)),
                        ([[2, 4], [6, 8]], (2, 4)),
                        ([[6, 0, 0], [0, 4, 2], [0, 2, 0]], (2, 2, 6))):
        assert smith_normal_form(a).diagonal == diagonal, a
    assert calls == []
    # no entry of [2 3] divides its row, so it goes to the dense kernel
    smith_normal_form([[2, 3]])
    assert calls == [(1, 2)]


class _CountingHeapq:
    """heapq for _elimination_orders that counts pops and heapify calls
    (one for the seed, one per refill), and records the columns whose
    popped unit candidate went straight back in (a stale candidate
    re-scored)."""

    def __init__(self):
        self.pops = 0
        self.heapifies = 0
        self.requeued = []
        self._last_pop = None

    def heapify(self, heap):
        self.heapifies += 1
        self._last_pop = None
        heapq.heapify(heap)

    def heappush(self, heap, item):
        last, self._last_pop = self._last_pop, None
        if last is not None and last[0] == item[0] == 1 and last[3] == item[3]:
            self.requeued.append(item[3])
        heapq.heappush(heap, item)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        self.pops += 1
        self._last_pop = item
        return item


def test_unit_queue_cases_finish_without_the_dense_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(homology_module, "_diagonalize",
                        lambda m, r, c: calls.append((r, c)) or [])
    # the pivot row [1 0] is the pivot alone, and its column holds a 2
    assert smith_normal_form([[1, 0], [2, 3]]).diagonal == (1, 3)
    # column 1 has no unit until pivoting on (0, 0) leaves 1 at (1, 1);
    # fill queues it, so the heap is never refilled
    shim = _CountingHeapq()
    monkeypatch.setattr(homology_module, "heapq", shim)
    assert smith_normal_form([[1, 2], [1, 3]]).diagonal == (1, 1)
    assert shim.heapifies == 1
    # column 2's candidate is in row 0, which the first pivot removes;
    # re-scoring the column queues its other unit, in row 1
    shim = _CountingHeapq()
    monkeypatch.setattr(homology_module, "heapq", shim)
    assert smith_normal_form([[1, 0, 1], [0, 2, 1]]).diagonal == (1, 1)
    assert shim.requeued == [2]
    assert calls == []


@st.composite
def _fill_matrices(draw):
    """+-1 entries on up to 24 x 24, 2/5 or 2/3 of them nonzero, with some
    rows and columns scaled by 2 or 3.  At this size a pivot often leaves a
    column's queued unit stale while the column keeps other units (about
    half of the draws re-score one), and the scaled lines leave Smith
    pivots and a dense remainder (about half reach _diagonalize)."""
    rows, cols = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    entry = st.sampled_from(draw(st.sampled_from(((0, 0, 0, 1, -1), (0, 1, -1)))))
    row_scale = draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)),
                              min_size=rows, max_size=rows))
    col_scale = draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)),
                              min_size=cols, max_size=cols))
    return [[draw(entry) * row_scale[i] * col_scale[j] for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=100, deadline=None)
@given(_fill_matrices())
def test_smith_normal_form_matches_sympy_when_pivots_make_units(a):
    expected = sympy_smith_normal_form(Matrix(a), domain=ZZ)
    factors = sorted(abs(int(expected[i, i]))
                     for i in range(min(len(a), len(a[0]))) if expected[i, i])
    snf = smith_normal_form(a)
    assert snf.diagonal == tuple(factors)
    assert snf.rank == len(factors)


def test_the_unit_queue_pops_few_entries_per_pivot(monkeypatch):
    # torsion model 0 of the benchmark: (C RP2, RP2) over the complete graph
    # on 6 vertices plus 10 triangles drawn from Random("7114689:torsion:6:0")
    triangles = random.Random("7114689:torsion:6:0").sample(
        list(combinations(range(1, 7), 3)), 10)
    k = SimplicialComplex.from_maximal_faces(
        6, list(combinations(range(1, 7), 2)) + triangles)
    assert k.f_vector() == (6, 15, 10)
    c = moment_angle_chain(k, [rp2_pair()] * 6)
    shim = _CountingHeapq()
    monkeypatch.setattr(homology_module, "heapq", shim)
    pivots = []
    eliminate = homology_module._elimination_orders

    def counted(*args):
        orders, pivot_rows = eliminate(*args)
        pivots.append(len(pivot_rows))
        return orders, pivot_rows

    monkeypatch.setattr(homology_module, "_elimination_orders", counted)
    homology(c)
    # 28,061 pops for 21,640 pivots; seeding every unit took 72,882 pops
    assert shim.pops < 1.5 * sum(pivots)


# ---------------------------------------------------------------------------
# chain complexes and homology of classical spaces
# ---------------------------------------------------------------------------

def test_check_boundaries_rejects_nonsquare_zero():
    # ChainComplex trusts its caller; make_chain_complex runs the check
    dims, boundaries = {0: 1, 1: 1, 2: 1}, {1: ({0: 1},), 2: ({0: 1},)}
    with pytest.raises(BoundaryNotSquareZero):
        check_boundaries(ChainComplex(dims, boundaries))
    with pytest.raises(BoundaryNotSquareZero):
        make_chain_complex(dims, boundaries)


def test_reduced_homology_refuses_a_1_cell_whose_boundary_does_not_sum_to_zero():
    # d o d = 0 holds without the augmentation, and fails through it
    c = make_chain_complex({0: 1, 1: 1}, {1: [{0: 2}]})
    with pytest.raises(BoundaryNotSquareZero):
        homology(c, reduced=True)
    with pytest.raises(BoundaryNotSquareZero):
        augmented(c)


def test_make_chain_complex_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        make_chain_complex({0: 1, 1: 2}, {1: [{0: 1}]})


def test_empty_chain_complex_is_trivial():
    c = empty_chain_complex()
    assert c.total_cells() == 0
    assert homology(c) == trivial_summary()
    assert homology(c).is_trivial()


def test_simplex_is_contractible():
    for m in (1, 2, 3, 4):
        assert reduced_simplicial_homology(skeleton(m, m - 1)).is_trivial()


def test_boundary_of_simplex_is_a_sphere():
    for m in (2, 3, 4, 5):
        h = reduced_simplicial_homology(simplex_boundary(m))
        assert h == summary(**{f"d{m - 2}": (1, ())})


def test_disjoint_points_reduced_rank():
    for m in (1, 2, 3, 5):
        h = reduced_simplicial_homology(skeleton(m, 0))
        assert h.betti(0) == m - 1
        assert h.is_torsion_free()


def test_cycles_are_circles():
    for k in (square(), cycle_complex(5)):
        assert reduced_simplicial_homology(k) == summary(d1=(1, ()))


def test_projective_plane_torsion():
    h = reduced_simplicial_homology(projective_plane())
    assert h.betti(0) == 0 and h.betti(1) == 0 and h.betti(2) == 0
    assert h.torsion(1) == (2,)
    assert not h.is_torsion_free()
    full = homology(simplicial_chain_complex(projective_plane()))
    assert full.betti(0) == 1
    assert full.torsion(1) == (2,)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_simplicial_chains_square_to_zero(m):
    # simplicial_chain_complex builds its result unchecked
    for k in all_complexes_on(m, up_to_iso=False):
        for reduced in (False, True):
            check_boundaries(simplicial_chain_complex(k, reduced=reduced))


def test_euler_characteristic_matches_alternating_betti():
    rng = random.Random(31)
    for _ in range(25):
        k = random_complex(rng, rng.randrange(1, 6))
        c = simplicial_chain_complex(k)
        h = homology(c)
        assert sum((-1) ** d * n for d, n in c.dims.items()) == sum(
            (-1) ** d * betti for d, betti, _ in h.groups)


def test_augmented_shifts_h0_to_reduced():
    c = simplicial_chain_complex(square())
    assert homology(augmented(c)) == homology(c, reduced=True)
    assert homology(c, reduced=True).betti(0) == 0


# ---------------------------------------------------------------------------
# products, joins, quotients
# ---------------------------------------------------------------------------

def test_torus_from_two_circles():
    t2 = product_chain(sphere_space(1), sphere_space(1))
    check_boundaries(t2)
    assert homology(t2) == summary(d0=(1, ()), d1=(2, ()), d2=(1, ()))


def test_circle_times_projective_plane():
    c = product_chain(sphere_space(1), rp2_space())
    assert homology(c) == summary(d0=(1, ()), d1=(1, (2,)), d2=(0, (2,)))


def test_tor_term_in_product_of_torsion_spaces():
    # mod-2 Moore square: the degree-3 class exists only through Tor
    c = product_chain(moore_space(2), moore_space(2))
    h = homology(c)
    assert h.torsion(2) == (2,)
    assert h.torsion(3) == (2,)
    assert h.betti(3) == 0


def test_kunneth_oracle_on_random_tensors():
    rng = random.Random(404)
    sources = []
    for _ in range(8):
        k = random_complex(rng, rng.randrange(1, 5))
        sources.append(simplicial_space(
            k, min(v for face in face_tuples(k) for v in face)))
    for k in (2, 3, 4, 6, 12):
        sources.append(moore_space(k))
    sources.append(rp2_space())
    sources.append(pair_disk_sphere(2))
    for trial in range(50):
        a = rng.choice(sources)
        b = rng.choice(sources)
        prod = product_chain(a, b)
        check_boundaries(prod)
        predicted = kunneth_product(homology(pair_chain(a)),
                                    homology(pair_chain(b)))
        assert homology(prod) == predicted, trial


def test_join_three_ways():
    # simplicial join and the Kunneth prediction must agree
    rng = random.Random(77)
    for trial in range(25):
        k1 = random_complex(rng, rng.randrange(1, 4))
        k2 = random_complex(rng, rng.randrange(1, 4))
        topological = reduced_simplicial_homology(join_complex(k1, k2))
        predicted = kunneth_product(reduced_simplicial_homology(k1),
                                    reduced_simplicial_homology(k2)).shifted(1)
        assert topological == predicted, trial


def test_join_with_projective_plane_creates_torsion_shift():
    # S^0 * RP^2 = suspension of RP^2: the Z/2 moves from degree 1 to 2
    joined = join_complex(skeleton(2, 0), projective_plane())
    assert reduced_simplicial_homology(joined) == summary(d2=(0, (2,)))


def test_quotient_disk_by_boundary_sphere():
    for n in (0, 1, 2):
        full = pair_chain(pair_disk_sphere(n))
        # the top cell e is the only cell of degree n + 1
        rel = quotient_complex(full, lambda deg, i, _n=n: deg == _n + 1)
        assert homology(rel) == summary(**{f"d{n + 1}": (1, ())})


def test_quotient_rejects_non_subcomplex_complement():
    full = pair_chain(pair_disk_sphere(1))
    # dropping only the top cell leaves its boundary exposed
    with pytest.raises(NotASubcomplex, match="cell 0 of degree 2 .* cell 0 of degree 1"):
        quotient_complex(full, lambda deg, i: deg != 2)


def test_quotient_by_everything_is_empty():
    c = simplicial_chain_complex(square())
    q = quotient_complex(c, lambda deg, i: False)
    assert q.total_cells() == 0


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summary_direct_sum_and_shift():
    a = summary(d1=(2, (2,)), d3=(1, ()))
    b = summary(d1=(1, (3,)), d2=(4, ()))
    s = direct_sum([a, b])
    assert s.betti(1) == 3
    assert s.torsion(1) == (6,)       # Z/2 + Z/3 recombined canonically
    assert s.betti(2) == 4
    assert direct_sum([b, a]) == s
    assert a.shifted(2).betti(3) == 2
    assert a.shifted(2).torsion(3) == (2,)


def test_summary_betti_vector_and_total_rank():
    a = summary(d0=(1, ()), d3=(2, ()))
    assert a.betti_vector(0, 4) == (1, 0, 0, 2, 0)
    assert sum(betti for _, betti, _ in a.groups) == 3


def test_summary_string_form():
    assert str(summary(d1=(1, (2,)))) == "H_1 = Z + Z/2"
    assert str(summary(d2=(3, ()))) == "H_2 = Z^3"
    assert str(trivial_summary()) == "0"


def test_summary_entries_roundtrip():
    a = summary(d0=(1, ()), d2=(1, (2, 4)))
    entries = a.to_entries()
    assert entries == [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": [2, 4]},
    ]
