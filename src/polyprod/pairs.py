"""Cellular chain models of based CW pairs (X, A).

A PairModel lists every cell of X with its dimension, an in_a flag (the
cells of A must form a subcomplex containing the basepoint), and an integer
boundary.  Models where every cell lies in A double as models of plain based
spaces; cone_pair builds (CA, A) over any such space model.

A PairModel checks itself when it is built, by hand, by a constructor here
or by dataclasses.replace, so the product builders trust every pair they
are given.  A pair has a handful of cells and no hot path builds one.

null_homotopic_inclusion is a structural certificate that A -> X is
null-homotopic: constructors set it when the construction guarantees it
(disk/sphere pairs, cones, single-point A), and decompositions that are only
valid under that hypothesis refuse uncertified models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .complexes import SimplicialComplex, mask_from_vertices, vertices_from_mask
from .errors import InputError
from .homology import ChainComplex, make_chain_complex


@dataclass(frozen=True)
class PairModel:
    name: str
    dims: tuple[int, ...]
    in_a: tuple[bool, ...]
    boundaries: tuple[tuple[tuple[int, int], ...], ...]
    basepoint: int
    cell_ids: tuple[str, ...]
    null_homotopic_inclusion: bool = False

    def __post_init__(self) -> None:
        """Raise InputError on a malformed model, BoundaryNotSquareZero if
        d o d != 0.  A boundary lists each target once, with a nonzero
        coefficient, one dimension down, and inside A for a cell of A.
        """
        n = self.n_cells()
        if not n:
            raise InputError("pair model has no cells")
        if len(self.in_a) != n or len(self.boundaries) != n or len(self.cell_ids) != n:
            raise InputError("pair model field lengths disagree")
        b = self.basepoint
        if not 0 <= b < n:
            raise InputError("basepoint index out of range")
        if self.dims[b] != 0 or not self.in_a[b] or self.boundaries[b]:
            raise InputError("basepoint must be a 0-cell of A with zero boundary")
        for i, bnd in enumerate(self.boundaries):
            if self.dims[i] < 0:
                raise InputError(f"cell {self.cell_ids[i]} has negative dimension")
            for t, coeff in bnd:
                if not 0 <= t < n:
                    raise InputError("boundary target out of range")
                if not coeff:
                    raise InputError(
                        f"cell {self.cell_ids[i]} has a zero boundary coefficient")
                if self.dims[t] != self.dims[i] - 1:
                    raise InputError(
                        f"cell {self.cell_ids[i]}: boundary target {self.cell_ids[t]} "
                        f"is not one dimension down")
                if self.in_a[i] and not self.in_a[t]:
                    raise InputError(
                        f"A is not a subcomplex: {self.cell_ids[i]} hits {self.cell_ids[t]}")
            if len({t for t, _ in bnd}) != len(bnd):
                raise InputError(f"cell {self.cell_ids[i]} repeats a boundary target")
            if self.dims[i] == 1 and sum(c for _, c in bnd) != 0:
                raise InputError(
                    f"1-cell {self.cell_ids[i]} has boundary with nonzero vertex sum")
        pair_chain(self)        # make_chain_complex checks d o d = 0

    def n_cells(self) -> int:
        return len(self.dims)

    def a_cells(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.in_a) if flag)

    def x_only_cells(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.in_a) if not flag)

    def all_in_a(self) -> bool:
        return all(self.in_a)


def _build(name: str, cells, basepoint_id: str,
           null_homotopic: bool) -> PairModel:
    """cells: iterable of (id, dim, in_a, {target_id: coeff})."""
    ids = [c[0] for c in cells]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate cell ids")
    pos = {cid: i for i, cid in enumerate(ids)}
    dims = tuple(c[1] for c in cells)
    in_a = tuple(bool(c[2]) for c in cells)
    boundaries = tuple(
        tuple(sorted((pos[t], int(v)) for t, v in c[3].items() if v))
        for c in cells)
    return PairModel(name=name, dims=dims, in_a=in_a, boundaries=boundaries,
                     basepoint=pos[basepoint_id], cell_ids=tuple(ids),
                     null_homotopic_inclusion=null_homotopic)


def pair_chain(pair: PairModel, *, a_only: bool = False,
               drop_basepoint: bool = False) -> ChainComplex:
    """Chain complex of X (default), of A, or of their basepoint-deleted models.

    drop_basepoint=True projects away the basepoint cell, giving the reduced
    model of the pointed space (its homology is the reduced homology).
    """
    selected = [i for i in range(pair.n_cells())
                if (pair.in_a[i] or not a_only)
                and not (drop_basepoint and i == pair.basepoint)]
    by_degree: dict[int, list[int]] = {}
    for i in selected:
        by_degree.setdefault(pair.dims[i], []).append(i)
    pos = {i: (d, p) for d, cells in by_degree.items() for p, i in enumerate(cells)}
    dims = {d: len(cells) for d, cells in by_degree.items()}
    boundaries = {}
    for d, cells in by_degree.items():
        cols = []
        for i in cells:
            col: dict[int, int] = {}
            for t, coeff in pair.boundaries[i]:
                if t in pos:
                    col[pos[t][1]] = coeff
            cols.append(col)
        boundaries[d] = cols
    return make_chain_complex(dims, boundaries)


# -- disk/sphere and sphere pairs ----------------------------------------------

def pair_disk_sphere(n: int) -> PairModel:
    """(D^{n+1}, S^n): three cells for n >= 1, the interval model for n = 0."""
    if n < 0:
        raise InputError("pair_disk_sphere needs n >= 0")
    if n == 0:
        cells = [("v", 0, True, {}), ("w", 0, True, {}),
                 ("e", 1, False, {"w": 1, "v": -1})]
    else:
        cells = [("v", 0, True, {}), ("a", n, True, {}),
                 ("e", n + 1, False, {"a": 1})]
    return _build(f"(D{n + 1},S{n})", cells, "v", null_homotopic=True)


def sphere_pair(n: int) -> PairModel:
    """(S^n, *) with the minimal CW structure, n >= 1."""
    if n < 1:
        raise InputError("sphere_pair needs n >= 1")
    cells = [("v", 0, True, {}), ("s", n, False, {})]
    return _build(f"(S{n},pt)", cells, "v", null_homotopic=True)


# -- space models (everything in A) ---------------------------------------------

def rp2_space() -> PairModel:
    """Real projective plane as one cell per dimension; the 2-cell doubles the 1-cell."""
    cells = [("v", 0, True, {}), ("e", 1, True, {}), ("f", 2, True, {"e": 2})]
    return _build("RP2", cells, "v", null_homotopic=False)


def simplicial_space(k: SimplicialComplex, basepoint_vertex: int) -> PairModel:
    """All simplices of K as an all-A model based at the given vertex."""
    bmask = mask_from_vertices((basepoint_vertex,), k.m)
    if bmask not in k.faces:
        raise InputError(f"basepoint vertex {basepoint_vertex} is not a face")
    cells = []
    for mask in sorted(k.faces):
        if not mask:
            continue
        verts = vertices_from_mask(mask)
        bnd = {}
        for pos, vtx in enumerate(verts):
            sub = mask & ~(1 << (vtx - 1))
            if sub:
                bnd[_face_id(sub)] = 1 if pos % 2 == 0 else -1
        cells.append((_face_id(mask), len(verts) - 1, True, bnd))
    return _build("|K|", cells, _face_id(bmask), null_homotopic=False)


def _face_id(mask: int) -> str:
    return "f" + ".".join(map(str, vertices_from_mask(mask)))


# -- based pairs from spaces -----------------------------------------------------

def pair_space_basepoint(k: SimplicialComplex, vertex: int) -> PairModel:
    """(X, *) for a simplicial X: only the basepoint vertex lies in A."""
    space = simplicial_space(k, vertex)
    return replace(space, name=f"(|K|,{vertex})",
                   in_a=tuple(i == space.basepoint for i in range(space.n_cells())),
                   null_homotopic_inclusion=True)


def cone_pair(space: PairModel) -> PairModel:
    """(CA, A) over any all-A space model: apex p plus one cone cell per cell.

    del cone(c) = c - cone(del c); for a 0-cell u, del cone(u) = u - p.
    """
    if not space.all_in_a():
        raise InputError("cone_pair needs a space model (all cells in A)")
    cells = [(cid, space.dims[i], True,
              {space.cell_ids[t]: c for t, c in space.boundaries[i]})
             for i, cid in enumerate(space.cell_ids)]
    cells.append(("p", 0, False, {}))
    for i, cid in enumerate(space.cell_ids):
        if space.dims[i] == 0:
            bnd = {cid: 1, "p": -1}
        else:
            bnd = {cid: 1}
            for t, c in space.boundaries[i]:
                bnd["C" + space.cell_ids[t]] = -c
        cells.append(("C" + cid, space.dims[i] + 1, False, bnd))
    return _build(f"(C{space.name},{space.name})", cells,
                  space.cell_ids[space.basepoint], null_homotopic=True)


def pair_cone(k: SimplicialComplex, vertex: int) -> PairModel:
    """(C|K|, |K|) for a simplicial complex, based at the given vertex of K."""
    return cone_pair(simplicial_space(k, vertex))


def rp2_pair() -> PairModel:
    """(C RP^2, RP^2) over the small CW model; A carries Z/2 in degree 1."""
    return cone_pair(rp2_space())
