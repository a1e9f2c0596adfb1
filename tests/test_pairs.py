"""Cellular pair models: validation, homology of the standard library,
cone construction, certificates."""

import pytest

import polyprod.homology as homology_module
from polyprod.catalog import square, standard_pair_library
from polyprod.errors import BoundaryNotSquareZero, InputError
from polyprod.homology import check_boundaries, homology
from polyprod.pairs import (
    PairModel,
    cone_pair,
    pair_chain,
    pair_cone,
    pair_disk_sphere,
    pair_space_basepoint,
    rp2_pair,
    rp2_space,
    simplicial_space,
    sphere_pair,
)
from polyprod.products import stable_splitting

from fixtures import point_space, s0_space, sphere_space


def betti_map(summary):
    return {d: betti for d, betti, _ in summary.groups}


def test_library_pairs_validate_and_square_to_zero():
    for pair in standard_pair_library():
        check_boundaries(pair_chain(pair))
        check_boundaries(pair_chain(pair, a_only=True))


def test_disk_sphere_homology():
    for n in (0, 1, 2, 3):
        pair = pair_disk_sphere(n)
        assert homology(pair_chain(pair), reduced=True).is_trivial()
        sphere = homology(pair_chain(pair, a_only=True), reduced=True)
        assert betti_map(sphere) == {n: 1}
        assert pair.null_homotopic_inclusion


def test_disk_sphere_cell_budget():
    assert pair_disk_sphere(0).n_cells() == 3      # two points and an arc
    assert pair_disk_sphere(1).n_cells() == 3      # v, a, e
    assert pair_disk_sphere(5).n_cells() == 3


def test_sphere_pair_is_based_sphere():
    for n in (1, 2, 4):
        pair = sphere_pair(n)
        assert pair.all_in_a() is False
        h = homology(pair_chain(pair), reduced=True)
        assert betti_map(h) == {n: 1}
        assert tuple(pair.a_cells()) == (pair.basepoint,)
        assert pair.null_homotopic_inclusion
    with pytest.raises(InputError) as err:
        sphere_pair(0)
    assert str(err.value) == "sphere_pair needs n >= 1"
    with pytest.raises(InputError) as err:
        sphere_space(0)
    assert str(err.value) == "sphere_space needs n >= 1"


def test_space_models():
    assert homology(pair_chain(point_space())).betti(0) == 1
    assert homology(pair_chain(s0_space())).betti(0) == 2
    assert betti_map(homology(pair_chain(sphere_space(1)), reduced=True)) == {1: 1}
    assert betti_map(homology(pair_chain(sphere_space(3)), reduced=True)) == {3: 1}
    rp2 = homology(pair_chain(rp2_space()))
    assert rp2.betti(0) == 1 and rp2.betti(1) == 0 and rp2.torsion(1) == (2,)


def test_space_models_are_not_certified():
    for space in (point_space(), s0_space(), sphere_space(1), rp2_space()):
        assert not space.null_homotopic_inclusion
        assert space.all_in_a()


def test_cone_over_rp2():
    pair = rp2_pair()
    assert pair.n_cells() == 7
    assert pair.null_homotopic_inclusion
    # total space contractible, subspace keeps the torsion
    assert homology(pair_chain(pair), reduced=True).is_trivial()
    sub = homology(pair_chain(pair, a_only=True))
    assert sub.torsion(1) == (2,)


def test_cone_pair_over_arbitrary_space():
    for space in (s0_space(), sphere_space(1), sphere_space(2)):
        pair = cone_pair(space)
        assert pair.n_cells() == 2 * space.n_cells() + 1
        assert homology(pair_chain(pair), reduced=True).is_trivial()


def test_simplicial_space_of_square_is_a_circle():
    space = simplicial_space(square(), basepoint_vertex=1)
    h = homology(pair_chain(space), reduced=True)
    assert betti_map(h) == {1: 1}
    with pytest.raises(InputError):
        simplicial_space(square(), basepoint_vertex=9)


def test_pair_cone_matches_cone_of_simplicial_space():
    direct = pair_cone(square(), 1)
    composed = cone_pair(simplicial_space(square(), 1))
    assert direct.n_cells() == composed.n_cells()
    assert homology(pair_chain(direct, a_only=True)) == \
        homology(pair_chain(composed, a_only=True))


def test_pair_space_basepoint_certificate():
    pair = pair_space_basepoint(square(), 2)
    assert pair.null_homotopic_inclusion      # inclusion of a point
    assert len(tuple(pair.a_cells())) == 1


def test_drop_basepoint_removes_one_zero_cell():
    pair = pair_disk_sphere(1)
    full = pair_chain(pair)
    based = pair_chain(pair, drop_basepoint=True)
    assert based.total_cells() == full.total_cells() - 1
    basedA = pair_chain(pair, a_only=True, drop_basepoint=True)
    assert basedA.total_cells() == 1          # the circle minus its basepoint


def test_validate_pair_rejects_broken_models():
    good = pair_disk_sphere(1)

    # basepoint outside of A
    with pytest.raises(InputError):
        PairModel(name="bad", dims=good.dims, in_a=(False,) + good.in_a[1:],
                  boundaries=good.boundaries, basepoint=good.basepoint,
                  cell_ids=good.cell_ids, null_homotopic_inclusion=False)

    # 1-cell whose boundary coefficients do not cancel
    with pytest.raises(InputError):
        PairModel(name="bad2", dims=(0, 1), in_a=(True, True),
                  boundaries=((), ((0, 1),)), basepoint=0,
                  cell_ids=("v", "e"), null_homotopic_inclusion=False)

    # A not closed under the boundary
    with pytest.raises(InputError):
        PairModel(name="bad3", dims=(0, 0, 1), in_a=(True, False, True),
                  boundaries=((), (), ((0, 1), (1, -1))), basepoint=0,
                  cell_ids=("v", "w", "e"), null_homotopic_inclusion=False)

    # boundary target not one dimension down
    with pytest.raises(InputError):
        PairModel(name="bad4", dims=(0, 2), in_a=(True, True),
                  boundaries=((), ((0, 1), (0, -1))), basepoint=0,
                  cell_ids=("v", "f"), null_homotopic_inclusion=False)

    # product columns are built from boundary lists as they stand, so each
    # target appears once and with a nonzero coefficient
    rp2 = dict(name="rp2", dims=(0, 1, 2), in_a=(True,) * 3, basepoint=0,
               cell_ids=("v", "e", "f"), null_homotopic_inclusion=False)
    PairModel(boundaries=((), (), ((1, 2),)), **rp2)
    with pytest.raises(InputError, match="zero boundary coefficient"):
        PairModel(boundaries=((), (), ((1, 0),)), **rp2)
    with pytest.raises(InputError, match="repeats a boundary target"):
        PairModel(boundaries=((), (), ((1, 1), (1, 1))), **rp2)


def test_validate_pair_checks_that_the_boundary_squares_to_zero_once(monkeypatch):
    # each cell meets every structural rule, yet d(d(g)) = e
    with pytest.raises(BoundaryNotSquareZero):
        PairModel(name="bad", dims=(0, 1, 2, 3), in_a=(True,) * 4,
                  boundaries=((), (), ((1, 1),), ((2, 1),)), basepoint=0,
                  cell_ids=("v", "e", "f", "g"), null_homotopic_inclusion=False)
    calls = []
    monkeypatch.setattr(homology_module, "check_boundaries", calls.append)
    rp2_space()
    assert len(calls) == 1                # one check per construction
    pairs = [rp2_pair()] * 4
    calls.clear()
    stable_splitting(square(), pairs)
    assert calls == []                    # the product builders trust them
