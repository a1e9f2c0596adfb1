"""Independent oracles used only by the tests.

Porter's skeleton wedges by a walk over every subset, and the rejected
bookkeeping the tests pin down; homology dimensions over F_p from a rank
mod p that never leaves the field; the order complex of the faces above a
face, which the link replaces in the wedge lemma; minimal non-faces by a
scan of every subset and maximal faces by a containment walk; shiftedness
by a search over all m! labelings; the simplicial join and the zero
graded group; the complex enumeration that canonicalizes every labeled
family; the face-series sums taken one RationalSeries addition at a time;
the elimination of every boundary in full, without clearing; and the
product model built cell tuple by cell tuple.
"""

from itertools import permutations, product
from math import comb
from operator import getitem
from typing import Iterable, Iterator, Sequence

from polyprod.complexes import (
    ShiftedVerdict,
    SimplicialComplex,
    mask_from_vertices,
    sorted_faces,
    vertices_from_mask,
)
from polyprod.errors import ArityMismatch, FaceNotInComplex, InputError
from polyprod.homology import ChainComplex, HomologySummary, _elimination_orders
from polyprod.pairs import PairModel
from polyprod.series import RationalSeries

from fixtures import from_faces


# -- Porter's skeleton wedges -------------------------------------------------

def porter_decomposition_by_subsets(m: int, q: int,
                                    y_dims: Sequence[int]) -> HomologySummary:
    """The oracle-confirmed bookkeeping, summed over every subset I with
    |I| > q+1: a sphere of dimension q + 1 + sum of the y_i over I, with
    multiplicity C(|I|-1, q+1)."""
    counts: dict[int, int] = {}
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        if size <= q + 1:
            continue
        dim = q + 1 + sum(y_dims[i] for i in range(m) if mask >> i & 1)
        counts[dim] = counts.get(dim, 0) + comb(size - 1, q + 1)
    return HomologySummary.from_map({d: (count, ()) for d, count in counts.items()})


def porter_decomposition_printed_variant(m: int, q: int,
                                         y_dims: Sequence[int]) -> HomologySummary:
    """Alternative bookkeeping with suspension |I| + 1 and multiplicity
    C(|I|+1, q+1) over the same subsets.

    Rejected: it disagrees with the brute-force chain oracle (already at
    m = 3, q = 1, where the correct answer is a single S^5).  Kept so the
    test suite can pin down exactly where it fails.
    """
    dims = tuple(int(d) for d in y_dims)
    if len(dims) != m:
        raise ArityMismatch(f"{len(dims)} sphere dimensions for m = {m}")
    if not 0 <= q <= m - 2:
        raise InputError(f"skeleton degree q = {q} outside 0..{m - 2}")
    counts: dict[int, int] = {}
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        if size <= q + 1:
            continue
        dim = size + 1 + sum(dims[i] for i in range(m) if mask >> i & 1)
        counts[dim] = counts.get(dim, 0) + comb(size + 1, q + 1)
    return HomologySummary.from_map({d: (count, ()) for d, count in counts.items()})


# -- field coefficients -------------------------------------------------------

def rank_mod_p(cols, p: int) -> int:
    """Rank over F_p of a sparse column-major integer matrix.

    Column reduction: each column is reduced against the pivot column that
    owns its largest row index until it vanishes or owns a new one.  Every
    nonzero of F_p is a unit, so nothing is left for a dense phase.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        col = {i: v % p for i, v in col.items() if v % p}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {i: v * inv % p for i, v in col.items()}
                break
            factor = col[low]
            for i, v in other.items():
                new = (col.get(i, 0) - factor * v) % p
                if new:
                    col[i] = new
                else:
                    col.pop(i, None)
    return len(pivots)


def mod_p_dims(c: ChainComplex, p: int) -> dict[int, int]:
    """dim H_n(C; F_p) per degree n, zeros omitted."""
    ranks = {d: rank_mod_p(cols, p) for d, cols in c.boundaries.items()}
    dims = {d: n - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d, n in c.dims.items()}
    return {d: n for d, n in dims.items() if n}


def universal_coefficients(h: HomologySummary, p: int) -> dict[int, int]:
    """dim H_n(-; F_p) = b_n + t_n(p) + t_{n-1}(p) from integral homology.

    t_n(p) counts the invariant factors of H_n that p divides.
    """
    dims: dict[int, int] = {}
    for d, betti, chain in h.groups:
        t = sum(1 for o in chain if o % p == 0)
        dims[d] = dims.get(d, 0) + betti + t
        dims[d + 1] = dims.get(d + 1, 0) + t
    return {d: n for d, n in dims.items() if n}


# -- order complexes ----------------------------------------------------------

def order_complex_below(k: SimplicialComplex,
                        sigma: Iterable[int]) -> SimplicialComplex:
    """Order complex of the poset of faces of k strictly containing sigma.

    Vertices of the result are those faces, ordered by (size, mask) and
    re-labeled 1..N; faces of the result are the chains in the strict
    containment order.  Every chain is enumerated, so the size is
    exponential; it is the barycentric subdivision of the link of sigma.
    """
    smask = mask_from_vertices(sigma, k.m)
    if smask not in k.faces:
        raise FaceNotInComplex(vertices_from_mask(smask))
    above = sorted_faces(t for t in k.faces if t != smask and t & smask == smask)
    n = len(above)
    succ = [[j for j in range(n) if above[i] != above[j]
             and above[i] & above[j] == above[i]] for i in range(n)]
    chains = [0]
    stack = [(i, 1 << i) for i in range(n - 1, -1, -1)]
    while stack:
        i, chain = stack.pop()
        chains.append(chain)
        for j in succ[i]:
            stack.append((j, chain | 1 << j))
    return from_faces(n, chains)


# -- minimal non-faces and maximal faces --------------------------------------

def minimal_non_faces_by_subsets(k: SimplicialComplex) -> tuple[int, ...]:
    """Every one of the 2^m subsets that is not a face while each of its
    one-vertex deletions is, sorted."""
    return sorted_faces(
        mask for mask in range(1 << k.m) if mask not in k.faces
        and all(mask & ~(1 << b) in k.faces for b in range(k.m) if mask >> b & 1))


def maximal_faces_by_containment(k: SimplicialComplex) -> tuple[int, ...]:
    """The faces, largest first, that lie in no maximal face found before
    them, sorted."""
    maximal: list[int] = []
    for mask in sorted(k.faces, key=lambda f: (f.bit_count(), f), reverse=True):
        if not any(mask & big == mask for big in maximal):
            maximal.append(mask)
    return sorted_faces(maximal)


# -- shiftedness by search ----------------------------------------------------

def shifted_verdict_by_search(k: SimplicialComplex) -> ShiftedVerdict:
    """Try all m! labelings in lexicographic order and return the first
    under which K is shifted.  Otherwise the counterexample is the least
    face that some downward move takes out of K under the identity.
    labeling[i-1] is the new label of vertex i.  The faces are checked
    largest first, where most labelings fail."""
    faces = sorted_faces(k.faces)[::-1]
    for perm in permutations(range(1, k.m + 1)):
        if next(downward_move_violations(k, faces, perm), None) is None:
            return ShiftedVerdict(True, perm, None)
    identity = range(1, k.m + 1)
    return ShiftedVerdict(False, None, vertices_from_mask(
        min(downward_move_violations(k, faces, identity))))


def downward_move_violations(k: SimplicialComplex, faces: Iterable[int],
                             perm: Sequence[int]) -> Iterator[int]:
    """Each face F, in the order given, once per pair v in F, u not in F
    with perm[u] < perm[v] for which F - v + u is not in K: K relabeled by
    perm is shifted iff there is none."""
    verts = range(k.m)
    return (f for f in faces for v in verts if f >> v & 1
            for u in verts if not f >> u & 1 and perm[u] < perm[v]
            and f ^ (1 << u | 1 << v) not in k.faces)


# -- joins and the zero group -------------------------------------------------

def join_complex(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: faces are unions sigma | tau on m1 + m2 vertices."""
    faces = set()
    for a in k1.faces:
        for b in k2.faces:
            faces.add(a | (b << k1.m))
    return SimplicialComplex(k1.m + k2.m, frozenset(faces))


def trivial_summary() -> HomologySummary:
    return HomologySummary(())


# -- exhaustive enumeration ---------------------------------------------------

def all_complexes_per_family(m: int, up_to_iso: bool = True
                             ) -> tuple[SimplicialComplex, ...]:
    """Every downward-closed face family on m labeled vertices, optionally
    one per isomorphism class, with every labeled family canonicalized: the
    least, over all m! vertex permutations, of its sorted image."""
    n_subsets = 1 << m
    candidates = sorted(range(1, n_subsets), key=lambda s: (s.bit_count(), s))
    families: list[int] = []

    def closure(tops: list[int]) -> int:
        fam = 1
        for top in tops:
            sub = top
            while True:
                fam |= 1 << sub
                if sub == 0:
                    break
                sub = (sub - 1) & top
        return fam

    def extend(start: int, tops: list[int]) -> None:
        families.append(closure(tops))
        for idx in range(start, len(candidates)):
            cand = candidates[idx]
            if all(cand & t not in (cand, t) for t in tops):
                tops.append(cand)
                extend(idx + 1, tops)
                tops.pop()

    extend(0, [])

    def faces_of(fam: int) -> tuple[int, ...]:
        return tuple(s for s in range(n_subsets) if fam >> s & 1)

    if up_to_iso:
        tables = [[sum(1 << perm[b] for b in range(m) if mask >> b & 1)
                   for mask in range(n_subsets)]
                  for perm in permutations(range(m))]
        seen = set()
        chosen = []
        for fam in families:
            faces = faces_of(fam)
            canon = min(tuple(sorted(table[f] for f in faces)) for table in tables)
            if canon not in seen:
                seen.add(canon)
                chosen.append(canon)
    else:
        chosen = [faces_of(fam) for fam in families]
    complexes = [from_faces(m, faces) for faces in chosen]
    complexes.sort(key=lambda k: (len(k.faces), tuple(sorted(k.faces))))
    return tuple(complexes)


# -- face series, one addition at a time --------------------------------------

def contractible_A_series_by_faces(k: SimplicialComplex,
                                   x_series: Sequence[RationalSeries]
                                   ) -> RationalSeries:
    """Sum over nonempty faces I of the product of the series with i in I,
    each product and sum a RationalSeries operation."""
    total = RationalSeries.make(())
    for mask in k.faces_sorted():
        if not mask:
            continue
        term = RationalSeries.one()
        for v in vertices_from_mask(mask):
            term = term * x_series[v - 1]
        total = total + term
    return total


def poincare_polynomial_by_faces(k: SimplicialComplex,
                                 px: RationalSeries) -> RationalSeries:
    """Sum over j of f_j * px^(j+1), one RationalSeries operation at a time."""
    total = RationalSeries.make(())
    for deg, count in enumerate(k.f_vector()):
        if count:
            total = total + RationalSeries.make((count,)) * px ** (deg + 1)
    return total


# -- elimination without clearing ---------------------------------------------

def uncleared_boundary_orders(c: ChainComplex) -> dict[int, list[int]]:
    """Diagonal orders of every nonzero boundary, each eliminated in full.

    The reference for homology's clearing, which leaves out the columns
    that the degree above has already paired: the two must give the same
    rank and invariant factors in every degree.
    """
    return {d: _elimination_orders(cols)[0]
            for d, cols in c.boundaries.items() if c.dim(d - 1)}


# -- the product model, cell tuple by cell tuple ------------------------------

def tuple_keyed_product_blocks(k: SimplicialComplex, pairs: Sequence[PairModel],
                               basis: str) -> Iterator[tuple[int, ChainComplex]]:
    """The (mask, block) pairs of the product model in the given basis, with
    cells kept as tuples: each boundary target is the cell tuple with one
    coordinate replaced, looked up by hash, and every entry is accumulated.

    The reference for the integer-coded builder behind moment_angle_blocks:
    the two must agree on the masks, the dims and every column, entry order
    included.
    """
    drop = [-1 if basis == "cellular" else p.basepoint for p in pairs]
    a_cells = [tuple(c for c in p.a_cells()
                     if basis != "smash" or c != p.basepoint) for p in pairs]
    x_cells = [p.x_only_cells() for p in pairs]
    # one sum per cell gives its degree (high bits) and its block (low m bits)
    weight = [[(p.dims[c] << k.m) | (0 if c == drop[i] else 1 << i)
               for c in range(p.n_cells())] for i, p in enumerate(pairs)]
    groups: dict[int, list[tuple[int, ...]]] = {}
    for face in k.faces:
        ranges = [x_cells[i] if face >> i & 1 else a_cells[i]
                  for i in range(k.m)]
        for cell in product(*ranges):
            groups.setdefault(sum(map(getitem, weight, cell)), []).append(cell)
    low = (1 << k.m) - 1
    by_block: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    for key in sorted(groups):
        by_block.setdefault(key & low, {})[key >> k.m] = groups.pop(key)

    # per coordinate and cell: the boundary left after dropping the
    # basepoint, and whether the cell flips the sign of later coordinates
    terms = [[tuple((t, c) for t, c in p.boundaries[ci] if t != drop[i])
              for ci in range(p.n_cells())] for i, p in enumerate(pairs)]
    odd = [[d & 1 for d in p.dims] for p in pairs]
    for block in sorted(by_block):
        by_degree = by_block.pop(block)
        for cells in by_degree.values():
            cells.sort()
        pos = {cell: i for cells in by_degree.values() for i, cell in enumerate(cells)}
        boundaries: dict[int, tuple[dict[int, int], ...]] = {}
        for d, cells in by_degree.items():
            cols = []
            for cell in cells:
                col: dict[int, int] = {}
                sign = 1
                for i, ci in enumerate(cell):
                    for t, coeff in terms[i][ci]:
                        row = pos[cell[:i] + (t,) + cell[i + 1:]]
                        col[row] = col.get(row, 0) + sign * coeff
                    if odd[i][ci]:
                        sign = -sign
                cols.append(col)
            if any(cols):
                boundaries[d] = tuple(cols)
        yield block, ChainComplex(
            {d: len(cells) for d, cells in by_degree.items()}, boundaries)
