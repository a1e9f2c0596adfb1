"""Data the tests draw from: named complexes, characteristic matrices,
space models, seeded random complexes and a checked constructor of face
sets, none of which a library caller needs."""

from random import Random
from typing import Sequence

from polyprod.catalog import cycle_complex, simplex_boundary, square
from polyprod.complexes import (
    SimplicialComplex,
    mask_from_vertices,
    validate,
    vertices_from_mask,
)
from polyprod.errors import InputError
from polyprod.pairs import PairModel
from polyprod.toric import CharacteristicMatrix


def face_tuples(k: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    return tuple(vertices_from_mask(mask) for mask in k.faces_sorted())


def from_faces(m: int, faces: Sequence[int]) -> SimplicialComplex:
    """The complex with these faces and the empty one; InputError names
    the first fault that validate finds."""
    k = SimplicialComplex(m, frozenset(faces) | {0})
    faults = validate(k)
    if faults:
        raise InputError(faults[0].message)
    return k


def relabeled(k: SimplicialComplex, perm: Sequence[int]) -> SimplicialComplex:
    """Apply the vertex permutation perm (perm[i-1] = new label of i)."""
    if sorted(perm) != list(range(1, k.m + 1)):
        raise InputError("perm must be a permutation of 1..m")
    return SimplicialComplex(k.m, frozenset(
        mask_from_vertices((perm[v - 1] for v in vertices_from_mask(mask)), k.m)
        for mask in k.faces))


# -- named complexes -----------------------------------------------------------

def star_complex() -> SimplicialComplex:
    """Two edges sharing vertex 1; shifted under the identity labeling."""
    return SimplicialComplex.from_maximal_faces(3, [(1, 2), (1, 3)])


def projective_plane() -> SimplicialComplex:
    """Minimal 6-vertex triangulation of the real projective plane."""
    return SimplicialComplex.from_maximal_faces(6, [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
        (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
    ])


def polytopal_catalog() -> tuple[tuple[str, SimplicialComplex], ...]:
    """Boundary complexes of simple-polytope duals used by invariant tests."""
    return (
        ("triangle", simplex_boundary(3)),
        ("tetrahedron-boundary", simplex_boundary(4)),
        ("4-simplex-boundary", simplex_boundary(5)),
        ("square", square()),
        ("pentagon", cycle_complex(5)),
    )


# -- characteristic matrices -----------------------------------------------------

def projective_characteristic(m: int) -> CharacteristicMatrix:
    """Standard matrix over the boundary of the (m-1)-simplex: identity rows
    followed by the all-minus-ones row; the quotient is CP^{m-1}."""
    if m < 2:
        raise InputError("projective data needs m >= 2")
    n = m - 1
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows.append([-1] * n)
    return CharacteristicMatrix.from_rows(rows)


def square_characteristic() -> CharacteristicMatrix:
    """Standard matrix over the square (quotient is a Hirzebruch-type surface)."""
    return CharacteristicMatrix.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1]])


# -- space models (everything in A) ---------------------------------------------

def point_space() -> PairModel:
    return PairModel(name="pt", dims=(0,), in_a=(True,), boundaries=((),),
                     basepoint=0, cell_ids=("v",))


def s0_space() -> PairModel:
    return PairModel(name="S0", dims=(0, 0), in_a=(True, True), boundaries=((), ()),
                     basepoint=0, cell_ids=("v", "w"))


def sphere_space(n: int) -> PairModel:
    if n < 1:
        raise InputError("sphere_space needs n >= 1")
    return PairModel(name=f"S{n}", dims=(0, n), in_a=(True, True), boundaries=((), ()),
                     basepoint=0, cell_ids=("v", "s"))


# -- randomized generators ----------------------------------------------------------

def random_complex(rng: Random, m: int) -> SimplicialComplex:
    """Downward closure of a few random faces; unused vertices are possible."""
    if m < 1:
        raise InputError("random_complex needs m >= 1")
    count = rng.randrange(1, m + 2)
    faces = []
    for _ in range(count):
        size = rng.randrange(1, m + 1)
        faces.append(rng.sample(range(1, m + 1), size))
    return SimplicialComplex.from_maximal_faces(m, faces)


def random_shifted_complex(rng: Random, m: int) -> SimplicialComplex:
    """Random complex closed under vertex-lowering moves, so it is shifted
    under the identity labeling by construction."""
    faces = set(random_complex(rng, m).faces)
    changed = True
    while changed:
        changed = False
        for mask in list(faces):
            for v in range(m):
                if not mask >> v & 1:
                    continue
                smaller = mask & ~(1 << v)
                for u in range(v):
                    if mask >> u & 1:
                        continue
                    moved = smaller | (1 << u)
                    if moved not in faces:
                        faces.add(moved)
                        changed = True
    return SimplicialComplex(m, frozenset(faces))
