"""Integral homology against two independent routes.

Field coefficients: the universal coefficient theorem checks the integral
homology of every acceptance model, of (C RP^2, RP^2) products and of every
golden homology input against ranks mod p, and the sparse elimination
leaves the (C RP^2, RP^2) products no dense remainder.

Clearing: homology leaves out of each boundary the columns that the
degree above has already paired.  On the same models, and on drawn chain
complexes that reach the dense kernel, its orders agree with the
elimination of every boundary in full, and no row that reaches the dense
kernel is ever cleared.
"""

import json
import random
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import polyprod.homology as homology_module
from polyprod.catalog import (
    all_complexes_on,
    cycle_complex,
    simplex_boundary,
    square,
    standard_pair_library,
)
from polyprod.complexes import SimplicialComplex, skeleton
from polyprod.errors import BudgetExceeded
from polyprod.files import load_complex, parse_pair_spec
from polyprod.homology import (
    HomologySummary,
    augmented,
    homology,
    invariant_factors,
    make_chain_complex,
    simplicial_chain_complex,
)
from polyprod.pairs import (
    cone_pair,
    pair_disk_sphere,
    rp2_pair,
    rp2_space,
    sphere_pair,
)
from polyprod.products import (
    moment_angle_blocks,
    moment_angle_chain,
    smash_moment_angle_chain,
)

from fixtures import (
    projective_plane,
    random_complex,
    random_shifted_complex,
    s0_space,
    sphere_space,
)
from oracles import mod_p_dims, uncleared_boundary_orders, universal_coefficients

GOLDEN = Path(__file__).parent / "golden"

# (complex file, pair specs) of every golden `homology` case, once each
_GOLDEN_HOMOLOGY_INPUTS = sorted({
    (case["argv"][1],
     tuple(a for a, flag in zip(case["argv"][1:], case["argv"]) if flag == "--pair"))
    for case in json.loads((GOLDEN / "cases.json").read_text())
    if case["argv"][0] == "homology"})

# two complexes with f-vector (6, 15, 10): every edge on 6 vertices plus
# these triangles; their (C RP^2, RP^2) models have 43,281 cells each
_SIX_VERTEX_TRIANGLES = (
    ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 4, 6),
     (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6)),
    ((1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 3, 6), (1, 5, 6),
     (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 5), (4, 5, 6)),
)


def _six_vertex_complex(triangles):
    edges = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    return SimplicialComplex.from_maximal_faces(6, edges + list(triangles))


def _rp2_model(k):
    return moment_angle_chain(k, [rp2_pair()] * k.m)


@pytest.fixture
def dense_calls(monkeypatch):
    """Shapes of every block handed to the dense kernel while the test runs."""
    calls = []
    real = homology_module._diagonalize

    def spy(m, n_rows, n_cols):
        calls.append((n_rows, n_cols))
        return real(m, n_rows, n_cols)

    monkeypatch.setattr(homology_module, "_diagonalize", spy)
    return calls


def _assert_clearing_agrees(c):
    """Cleared and uncleared orders: the same rank and invariant factors in
    every degree, as multisets after invariant_factors."""
    cleared = homology_module._boundary_orders(c)
    full = uncleared_boundary_orders(c)
    assert cleared.keys() == full.keys()
    for d, orders in full.items():
        assert len(cleared[d]) == len(orders), d
        assert invariant_factors(cleared[d]) == invariant_factors(orders), d


def test_mod_p_dims_of_the_projective_plane():
    c = simplicial_chain_complex(projective_plane())
    assert mod_p_dims(c, 2) == {0: 1, 1: 1, 2: 1}
    assert mod_p_dims(c, 3) == {0: 1}
    assert universal_coefficients(homology(c), 2) == {0: 1, 1: 1, 2: 1}


def test_small_rp2_products_leave_no_dense_remainder(dense_calls):
    complexes = [k for m in range(1, 5) for k in all_complexes_on(m)]
    complexes.append(cycle_complex(5))
    for k in complexes:
        h = homology(_rp2_model(k))
        assert dense_calls == [], (k.m, sorted(k.faces))
        assert h.betti(0) == 1


@pytest.mark.parametrize("name", ["C7", "six-vertex-0", "six-vertex-1"])
def test_large_rp2_models_agree_with_field_ranks(name, dense_calls):
    if name == "C7":
        k = cycle_complex(7)
    else:
        k = _six_vertex_complex(_SIX_VERTEX_TRIANGLES[int(name[-1])])
    c = _rp2_model(k)
    assert c.total_cells() >= 40_000
    h = homology(c)
    assert dense_calls == []
    assert not h.is_torsion_free()
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p
    _assert_clearing_agrees(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_universal_coefficients_on_random_products(m, seed, picks):
    k = random_complex(random.Random(seed), m)
    library = standard_pair_library()
    try:
        c = moment_angle_chain(k, [library[i] for i in picks[:m]], budget=3000)
    except BudgetExceeded:
        assume(False)
    h = homology(c)
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p


def test_golden_homology_inputs_include_every_pair_kind():
    specs = {s for _, specs in _GOLDEN_HOMOLOGY_INPUTS for s in specs}
    for kind in ("disk-sphere:", "cone:", "based:"):
        assert any(s.startswith(kind) for s in specs), kind
    assert any(len(specs) > 1 for _, specs in _GOLDEN_HOMOLOGY_INPUTS)


@pytest.mark.parametrize("complex_file, specs", _GOLDEN_HOMOLOGY_INPUTS,
                         ids=[" ".join((f,) + s) for f, s in _GOLDEN_HOMOLOGY_INPUTS])
def test_universal_coefficients_on_golden_inputs(complex_file, specs, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    k = load_complex(complex_file)
    pairs = [parse_pair_spec(s) for s in specs]
    if len(pairs) == 1:
        pairs *= k.m
    c = moment_angle_chain(k, pairs)
    h = homology(c)
    for p in (2, 3):
        assert mod_p_dims(c, p) == universal_coefficients(h, p), p
    for model in (c, augmented(c), smash_moment_angle_chain(k, pairs),
                  *(block for _, block in moment_angle_blocks(k, pairs))):
        _assert_clearing_agrees(model)


@pytest.mark.parametrize("complex_file", sorted({
    case["argv"][1] for case in json.loads((GOLDEN / "cases.json").read_text())
    if case["argv"][0] == "hochster"}))
def test_clearing_agrees_on_the_full_subcomplexes_of_golden_hochster_inputs(
        complex_file, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    k = load_complex(complex_file)
    for size in range(1, k.m + 1):
        for verts in combinations(range(1, k.m + 1), size):
            _assert_clearing_agrees(
                simplicial_chain_complex(k.full_subcomplex(verts), reduced=True))


# -- every model of the acceptance gate ----------------------------------------

def _acceptance_models(criterion):
    """The chain complexes whose homology tests/test_acceptance.py takes,
    for one criterion: products in the cellular basis (augmented where the
    gate takes reduced homology), the blocks of the split basis, smash
    models and reduced simplicial chains."""
    ds = pair_disk_sphere
    library = standard_pair_library()
    if criterion == "c01":
        cases = [(skeleton(2, 0), [ds(1), ds(1)]),
                 (skeleton(2, 0), [ds(1), ds(2)])]
        cases += [(simplex_boundary(m), [ds(1)] * m) for m in range(2, 6)]
        return [augmented(moment_angle_chain(k, pairs)) for k, pairs in cases]
    if criterion == "c02":
        z = moment_angle_chain(square(), [ds(1)] * 4)
        return [z, augmented(z)]
    if criterion == "c03":
        models = []
        for m in (1, 2, 3, 4):
            for k in all_complexes_on(m):
                for pair in library:
                    models.append(augmented(moment_angle_chain(k, [pair] * m)))
                    models.extend(block for _, block in moment_angle_blocks(k, [pair] * m))
        return models
    if criterion == "c04":
        rng = random.Random(20240817)
        models = []
        for _ in range(100):
            k = random_complex(rng, rng.randrange(1, 6))
            models.extend(augmented(moment_angle_chain(k, [ds(n)] * k.m))
                          for n in (1, 2))
        return models
    if criterion == "c05":
        return [smash_moment_angle_chain(k, [pair] * m)
                for m in (1, 2, 3, 4) for k in all_complexes_on(m)
                for pair in library]
    if criterion == "c06":
        return [smash_moment_angle_chain(k, [cone_pair(space)] * m)
                for m in (1, 2, 3) for k in all_complexes_on(m)
                for space in (s0_space(), sphere_space(1), rp2_space())]
    if criterion == "c07":
        return [augmented(moment_angle_chain(k, [sphere_pair(n)] * k.m))
                for n in (1, 2)
                for k in (simplex_boundary(3), square(), skeleton(4, 0),
                          skeleton(4, 1))]
    if criterion == "c08":
        return [augmented(moment_angle_chain(skeleton(m, q), [ds(1)] * m))
                for m in range(2, 6) for q in range(0, m - 1)]
    assert criterion == "c12"
    rng = random.Random(9041)
    models = []
    for _ in range(20):
        k = random_shifted_complex(rng, rng.randrange(2, 8))
        models.extend(simplicial_chain_complex(k.full_subcomplex(verts), reduced=True)
                      for size in range(1, k.m + 1)
                      for verts in combinations(range(1, k.m + 1), size))
    return models


@pytest.mark.parametrize("criterion",
                         ["c01", "c02", "c03", "c04", "c05", "c06", "c07", "c08", "c12"])
def test_acceptance_models_agree_with_field_ranks_and_without_clearing(criterion):
    models = _acceptance_models(criterion)
    assert models
    for c in models:
        h = homology(c)
        for p in (2, 3):
            assert mod_p_dims(c, p) == universal_coefficients(h, p), p
        _assert_clearing_agrees(c)


# -- clearing and the dense kernel ---------------------------------------------

@contextmanager
def _spy(name):
    """Record every call of homology_module.<name>: its arguments and what
    it returned."""
    calls = []
    real = getattr(homology_module, name)

    def spy(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    setattr(homology_module, name, spy)
    try:
        yield calls
    finally:
        setattr(homology_module, name, real)


@st.composite
def _rebased_elementary_complexes(draw):
    """A direct sum of elementary complexes Z --q--> Z and free cells in
    degrees 0..3, under random unimodular changes of basis of each C_d,
    together with its homology read off the summands."""
    top = 3
    dims = dict.fromkeys(range(top + 1), 0)
    mats = {d: {} for d in range(1, top + 1)}
    found: dict[int, tuple[int, list[int]]] = {d: (0, []) for d in dims}
    for d, q in draw(st.lists(st.tuples(st.integers(1, top),
                                        st.sampled_from((2, 3, 4, 6, 9, 1))),
                              min_size=3, max_size=8)):
        mats[d][dims[d - 1], dims[d]] = q
        dims[d] += 1
        dims[d - 1] += 1
        found[d - 1][1].append(q)
    for d in draw(st.lists(st.integers(0, top), max_size=3)):
        dims[d] += 1
        found[d] = (found[d][0] + 1, found[d][1])
    rows = {d: [[mats[d].get((r, j), 0) for j in range(dims[d])]
                for r in range(dims[d - 1])] for d in mats}
    # e_j -> e_j + k e_i in C_d: column j of the boundary of C_d gains k times
    # column i, and row i of the boundary into C_d loses k times row j
    for d, i, j, k in draw(st.lists(st.tuples(
            st.integers(0, top), st.integers(0, 15), st.integers(0, 15),
            st.sampled_from((-2, -1, 1, 2, 3))), min_size=12, max_size=40)):
        n = dims[d]
        i, j = i % max(n, 1), j % max(n, 1)
        if i == j:
            continue
        if d >= 1:
            for row in rows[d]:
                row[j] += k * row[i]
        if d < top:
            up = rows[d + 1]
            up[i] = [a - k * b for a, b in zip(up[i], up[j])]
    cols = {d: [{r: row[j] for r, row in enumerate(m) if row[j]}
                for j in range(dims[d])] for d, m in rows.items()}
    return make_chain_complex(dims, cols), HomologySummary.from_map(found)


@settings(max_examples=150, deadline=None)
@given(_rebased_elementary_complexes())
def test_clearing_agrees_on_drawn_complexes_that_reach_the_dense_kernel(drawn):
    c, expected = drawn
    with _spy("_diagonalize") as dense:
        h = homology(c)
    assume(dense)
    assert h == expected
    _assert_clearing_agrees(c)


def test_rows_that_reach_the_dense_kernel_are_never_cleared(dense_calls):
    # boundary 2 sends w1 -> 2e1 + 2e2, w2 -> 3e1 + 3e2, w3 -> e3: e3 is a
    # unit pivot, and no entry of the rows e1, e2 divides its row, so both
    # go to the dense kernel; boundary 1 sends e1 -> f, e2 -> -f, e3 -> 0
    c = make_chain_complex({0: 1, 1: 3, 2: 3},
                           {1: [{0: 1}, {0: -1}, {}],
                            2: [{0: 2, 1: 2}, {0: 3, 1: 3}, {2: 1}]})
    with _spy("_elimination_orders") as calls:
        h = homology(c)
    assert dense_calls == [(2, 2)]
    # degree 2 runs first with nothing cleared; degree 1 skips e3 alone
    cleared = [set(args[1]) if len(args) > 1 else set() for args, _ in calls]
    assert cleared == [set(), {2}]
    assert calls[0][1][1] == {2}
    # clearing e1 or e2 as well would leave boundary 1 of rank 0
    assert h == HomologySummary.from_map({2: (1, ())})
    _assert_clearing_agrees(c)
