"""Characteristic matrices, quotient Betti numbers, kernel lattices."""

import pytest
from hypothesis import given, settings, strategies as st

import polyprod.toric as toric_module
from polyprod.catalog import cycle_complex, simplex_boundary, square
from polyprod.complexes import SimplicialComplex
from polyprod.errors import (
    DimensionMismatch,
    InputError,
    InvalidCharacteristic,
    NonpolynomialQuotient,
    NotPure,
    RankDeficient,
)
from polyprod.homology import smith_normal_form
from polyprod.toric import (
    CharacteristicMatrix,
    ensure_characteristic,
    kernel_lattice_basis,
    toric_betti,
    toric_presentation,
    validate_characteristic,
)

from fixtures import polytopal_catalog, projective_characteristic, square_characteristic


def test_matrix_constructor_checks_shape():
    with pytest.raises(InputError):
        CharacteristicMatrix.from_rows([[1, 0], [1]])
    lam = CharacteristicMatrix.from_rows([[1, 0], [0, 1], [-1, -1]])
    assert (lam.m, lam.n) == (3, 2)
    assert tuple(lam.column(0)) == (1, 0, -1)
    assert [list(r) for r in lam.submatrix((1, 3))] == [[1, 0], [-1, -1]]


def test_projective_data_is_admissible():
    for m in (3, 4, 5):
        k = simplex_boundary(m)
        lam = projective_characteristic(m)
        assert validate_characteristic(k, lam) == []
        ensure_characteristic(k, lam)


def test_non_primitive_row_is_flagged():
    lam = CharacteristicMatrix.from_rows([[2, 0], [0, 1], [-1, -1]])
    diags = validate_characteristic(simplex_boundary(3), lam)
    # the same row also spoils every maximal face containing vertex 1
    assert diags[0].kind == "row_not_primitive"
    assert diags[0].vertex == 1
    assert {d.kind for d in diags} == {"row_not_primitive",
                                       "face_not_unimodular"}
    with pytest.raises(InvalidCharacteristic):
        ensure_characteristic(simplex_boundary(3), lam)


def test_non_unimodular_face_is_flagged_with_the_face():
    lam = CharacteristicMatrix.from_rows([[1, 0], [0, 1], [-2, 1], [0, -1]])
    diags = validate_characteristic(square(), lam)
    kinds = {(d.kind, d.face) for d in diags}
    assert ("face_not_unimodular", (2, 3)) in kinds


def test_dependent_face_rows_are_flagged():
    lam = CharacteristicMatrix.from_rows([[1, 0], [1, 0], [-1, -1], [0, -1]])
    diags = validate_characteristic(square(), lam)
    assert any(d.kind == "face_rows_dependent" and d.face == (1, 2)
               for d in diags)


def test_shape_errors_raise_rather_than_diagnose():
    with pytest.raises(DimensionMismatch):
        validate_characteristic(square(), projective_characteristic(3))
    mixed = SimplicialComplex.from_maximal_faces(3, [(1, 2), (3,)])
    with pytest.raises(NotPure):
        validate_characteristic(mixed, CharacteristicMatrix.from_rows(
            [[1, 0], [0, 1], [1, 1]]))


def test_projective_space_betti():
    for m in (3, 4, 5, 6):
        report = toric_betti(simplex_boundary(m), m - 1)
        assert report.betti == tuple(
            1 if i % 2 == 0 else 0 for i in range(2 * m - 1))
        assert report.euler == m
        assert report.h_vector == (1,) * m


def test_square_and_pentagon_betti():
    sq = toric_betti(square(), 2)
    assert sq.betti == (1, 0, 2, 0, 1)
    assert sq.euler == 4
    assert sq.quotient_polynomial == (1, 0, 2, 0, 1)
    pent = toric_betti(cycle_complex(5), 2)
    assert pent.betti == (1, 0, 3, 0, 1)
    assert pent.euler == 5


def test_polytopal_catalog_h_vectors_are_symmetric():
    for name, k in polytopal_catalog():
        h = k.h_vector()
        assert h == tuple(reversed(h)), name
        report = toric_betti(k, k.dim() + 1)
        assert report.betti[::2] == h


def test_toric_betti_shape_checks():
    with pytest.raises(DimensionMismatch):
        toric_betti(square(), 3)
    with pytest.raises(InputError):
        toric_betti(square(), 0)


def test_non_cohen_macaulay_complex_is_rejected():
    # two disjoint edges: h = (1, 2, -1), no even-cell structure exists
    k = SimplicialComplex.from_maximal_faces(4, [(1, 2), (3, 4)])
    with pytest.raises(NonpolynomialQuotient):
        toric_betti(k, 2)


def test_presentation_of_projective_plane_data():
    pres = toric_presentation(simplex_boundary(3), projective_characteristic(3))
    assert pres.ideal.relation_strings() == ("x1*x2*x3",)
    assert pres.linear_relations == ((1, 0, -1), (0, 1, -1))
    assert pres.display_relations == ("x1 - x3", "x2 - x3")


def test_presentation_of_square_data():
    pres = toric_presentation(square(), square_characteristic())
    assert pres.ideal.relation_strings() == ("x1*x3", "x2*x4")
    assert pres.display_relations == ("x1 - x3", "x2 - x4")


@pytest.mark.parametrize("rows", [
    [[1, 1], [0, 1], [-1, 0], [0, -1]],         # a row operation below a pivot
    [[-1, 0], [0, 1], [1, 1], [0, -1]],         # a negative pivot
])
def test_presentation_reduces_columns_that_are_not_in_echelon_form(rows):
    pres = toric_presentation(square(), CharacteristicMatrix.from_rows(rows))
    assert pres.display_relations == ("x1 - x3", "x2 + x3 - x4")


def _is_reduced_echelon(rows):
    """Echelon form with positive pivots and each entry above a pivot in
    [0, pivot); zero rows come last."""
    last = -1
    for i, row in enumerate(rows):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            if any(any(r) for r in rows[i:]):
                return False
            continue
        if lead <= last or row[lead] <= 0:
            return False
        if any(not 0 <= above[lead] < row[lead] for above in rows[:i]):
            return False
        last = lead
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(st.integers(-6, 6), min_size=width, max_size=width),
    min_size=1, max_size=4)))
def test_display_reduction_is_an_echelon_basis_of_the_same_lattice(rows):
    reduced = toric_module._reduce_rows_for_display(rows)
    assert _is_reduced_echelon(reduced)
    # the stacked rows span both lattices, so equal Smith diagonals make
    # each lattice the whole sum
    stacked = smith_normal_form(rows + reduced).diagonal
    assert smith_normal_form(rows).diagonal == stacked
    assert smith_normal_form(reduced).diagonal == stacked


def test_presentation_requires_admissible_matrix():
    lam = CharacteristicMatrix.from_rows([[2, 0], [0, 1], [-1, -1]])
    with pytest.raises(InvalidCharacteristic):
        toric_presentation(simplex_boundary(3), lam)


def test_kernel_lattice_pairs_to_zero():
    cases = [
        projective_characteristic(3),
        projective_characteristic(5),
        square_characteristic(),
        CharacteristicMatrix.from_rows(
            [[1, 0], [0, 1], [-1, 2], [3, -1], [1, 1]]),
    ]
    for lam in cases:
        basis = kernel_lattice_basis(lam)
        assert len(basis) == lam.m - lam.n
        for vec in basis:
            for j in range(lam.n):
                assert sum(v * c for v, c in zip(vec, lam.column(j))) == 0


def test_kernel_of_projective_data_is_the_diagonal():
    (vec,) = kernel_lattice_basis(projective_characteristic(3))
    assert tuple(abs(x) for x in vec) == (1, 1, 1)


def test_rank_deficient_matrix_is_rejected():
    lam = CharacteristicMatrix.from_rows([[1, 0], [2, 0], [3, 0]])
    with pytest.raises(RankDeficient):
        kernel_lattice_basis(lam)
