"""Independent oracles used only by the tests.

The rejected Porter bookkeeping the tests pin down, homology dimensions
over F_p from a rank mod p that never leaves the field, and the order
complex of the faces above a face, which the link replaces in the wedge
lemma.
"""

from math import comb
from typing import Iterable, Sequence

from polyprod.complexes import (
    SimplicialComplex,
    mask_from_vertices,
    sorted_faces,
    vertices_from_mask,
)
from polyprod.errors import ArityMismatch, FaceNotInComplex, InputError
from polyprod.homology import ChainComplex, HomologySummary
from polyprod.products import SphereList


# -- Porter's skeleton wedges: the rejected bookkeeping -----------------------

def porter_decomposition_printed_variant(m: int, q: int,
                                         y_dims: Sequence[int]) -> SphereList:
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
    return SphereList.from_counts(counts)


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
    return SimplicialComplex.from_faces(n, chains)
