"""Exact integer homological algebra.

Smith normal form over Z (Python ints, so arithmetic never wraps), chain
complexes with a first-class degree -1 (augmentation), quotient complexes,
finitely generated abelian groups presented as (betti rank, invariant-factor
chain), and the Kunneth formula for the homology of a tensor product of free
complexes from the homology of its factors.

Elimination has one sparse phase and one dense kernel, _diagonalize.  The
sparse phase pivots on units and on every entry that divides its whole row
and column (a Smith pivot), in order of size and then of Markowitz fill.
Homology and the plain Smith form run the kernel on what is left, a
remainder in which no entry divides its row and column; the witnessed Smith
form runs it on the augmented matrix [A | I ; I | 0] and reads U and V off
the identity blocks.  The kernel returns the Smith form itself, a
diagonal d1 | d2 | ....  Homology eliminates the boundaries from the top
degree down, and each one leaves out the columns that the sparse phase one
degree up has already paired (clearing; see homology).

A chain complex is only its dims and boundaries: a basis cell has no name
beyond its degree and its index in that degree.
Boundary matrices are stored sparse and column-major: boundaries[d] is a
tuple with one {row_index: coefficient} dict per degree-d basis cell.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Callable, Container, Iterable, Mapping, Sequence

from .complexes import SimplicialComplex, vertices_from_mask
from .errors import (
    BoundaryNotSquareZero,
    DimensionMismatch,
    InputError,
    NotASubcomplex,
    NotDownwardClosed,
)


# -- abelian group bookkeeping ------------------------------------------------

def _coprime_base(values: Iterable[int]) -> set[int]:
    """Pairwise-coprime integers > 1 of which every value is a product.

    Two members a, b sharing a factor g > 1 are replaced by g, a/g, b/g.
    That divides the product of all members and pending values by g, so
    the refinement terminates without factoring anything.
    """
    base: set[int] = set()
    pending = list(values)
    while pending:
        a = pending.pop()
        if a == 1:
            continue
        for b in base:
            g = gcd(a, b)
            if g > 1:
                base.remove(b)
                pending.extend((g, a // g, b // g))
                break
        else:
            base.add(a)
    return base


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisibility chain (entries > 1) of the group  + Z/o.

    The input orders need not satisfy any divisibility relation; e.g.
    (2, 3) -> (6,) and (4, 2, 2) -> (2, 2, 4).  Every order is a product of
    powers of one pairwise-coprime base, so the exponents are bucketed per
    base element the way p-primary parts are bucketed per prime.
    """
    counts: dict[int, int] = {}
    for o in orders:
        o = abs(int(o))
        if o > 1:
            counts[o] = counts.get(o, 0) + 1
    by_base: dict[int, list[int]] = {}
    for p in _coprime_base(counts):
        for o, count in counts.items():
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            if e:
                by_base.setdefault(p, []).extend([e] * count)
    if not by_base:
        return ()
    width = max(len(v) for v in by_base.values())
    slots = [1] * width
    for p, exps in by_base.items():
        exps.sort(reverse=True)
        for s, e in enumerate(exps):
            slots[s] *= p ** e
    slots.reverse()
    return tuple(slots)


# -- Smith normal form --------------------------------------------------------

@dataclass(frozen=True)
class SmithNormalForm:
    """diagonal is nonnegative with d1 | d2 | ... (unit entries included)."""

    diagonal: tuple[int, ...]
    rank: int
    u: tuple[tuple[int, ...], ...] | None = None
    v: tuple[tuple[int, ...], ...] | None = None


def smith_normal_form(matrix: Sequence[Sequence[int]],
                      with_transforms: bool = False) -> SmithNormalForm:
    """Smith normal form of an integer matrix.

    Without transforms only the invariant factors are computed (fast sparse
    elimination).  With transforms, unimodular U (rows x rows) and
    V (cols x cols) are returned such that U * matrix * V is diagonal with
    the invariant factors on the diagonal.  Both modes finish in the same
    dense kernel, _diagonalize: with transforms it runs on the augmented
    matrix [A | I ; I | 0], whose identity blocks record U and V, and its
    diagonal is read off as the kernel returns it.
    """
    rows = [list(map(int, r)) for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    if any(len(r) != n_cols for r in rows):
        raise DimensionMismatch("ragged matrix")
    if not with_transforms:
        cols: list[dict[int, int]] = [{} for _ in range(n_cols)]
        for i, row in enumerate(rows):
            for j, val in enumerate(row):
                if val:
                    cols[j][i] = val
        orders, _ = _elimination_orders(cols)
        chain = invariant_factors(orders)
        diag = (1,) * (len(orders) - len(chain)) + chain
        return SmithNormalForm(diag, len(orders))
    m = [row + [int(i == k) for k in range(n_rows)] for i, row in enumerate(rows)]
    m += [[int(i == j) for j in range(n_cols)] + [0] * n_rows
          for i in range(n_cols)]
    diag = tuple(_diagonalize(m, n_rows, n_cols))
    return SmithNormalForm(diag, len(diag),
                           tuple(tuple(r[n_cols:]) for r in m[:n_rows]),
                           tuple(tuple(r[:n_cols]) for r in m[n_rows:]))


def _elimination_orders(cols: Sequence[Mapping[int, int]],
                        cleared: Container[int] = ()) -> tuple[list[int], set[int]]:
    """Diagonal orders of the matrix under unimodular row/column operations,
    and the rows of its sparse-phase pivots.

    The columns indexed by `cleared` are left out, and only the first loop
    looks at them, so no column list is copied.  homology passes the
    sparse pivot rows of the boundary one degree up: a sparse pivot p at
    row i leaves every other row's basis vector as it was and maps onto
    p * v_i, so the next boundary kills v_i and its column there is zero
    (the full argument is in homology).  The returned rows are those
    sparse pivots only; the dense kernel's row additions change the basis
    vectors of rows that may end as non-pivots, so none of its rows is
    returned.

    Values come back unsorted and without divisibility structure; feed them
    to invariant_factors for the canonical chain.  The sparse phase pops
    pivots from one heap in (|p|, Markowitz fill) order.  Units go in at
    the start and as they appear; each time the heap runs dry it is
    refilled with every entry p with |p| equal to the gcd of its row and of
    its column, and the phase ends when none is left.  Such a p divides its
    row and its column, so the matrix is equivalent to (p) + A' and p is
    one diagonal order.
    A queued candidate q whose value has not changed still qualifies when
    it is popped: each pivot p subtracts (a/p) * (pivot row) from every
    row with an entry a in the pivot column.  In q's row q divides a, and
    in q's column q divides the pivot row's entry, so every change to q's
    row or column is a multiple of q.  Only a remainder in which no entry
    qualifies is finished densely, by _diagonalize.
    """
    row_data: dict[int, dict[int, int]] = {}
    col_data: dict[int, dict[int, int]] = {}
    for j, col in enumerate(cols):
        if j in cleared:
            continue
        for i, val in col.items():
            row_data.setdefault(i, {})[j] = val
            col_data.setdefault(j, {})[i] = val
    # (|p|, Markowitz fill, row, col); units go in as they appear
    queue = [(1, (len(row) - 1) * (len(col_data[j]) - 1), i, j)
             for i, row in row_data.items()
             for j, val in row.items() if val == 1 or val == -1]
    heapq.heapify(queue)
    orders: list[int] = []
    pivot_rows: set[int] = set()
    while True:
        if not queue:
            # no unit is left: queue every entry dividing its row and column
            col_gcd = {j: gcd(*col.values()) for j, col in col_data.items()}
            for i, row in row_data.items():
                g = gcd(*row.values())
                for j, val in row.items():
                    if (val == g or val == -g) and col_gcd[j] == g:
                        queue.append(
                            (g, (len(row) - 1) * (len(col_data[j]) - 1), i, j))
            if not queue:
                break
            heapq.heapify(queue)
        p, _, pi, pj = heapq.heappop(queue)
        prow = row_data.get(pi)
        if prow is None:
            continue
        pval = prow.get(pj, 0)
        if pval != p and pval != -p:
            continue
        pcol = col_data[pj]
        # clear column pj with row operations (pval divides, so exact)
        pivot_items = list(prow.items())
        for i2 in list(pcol.keys()):
            if i2 == pi:
                continue
            factor = pcol[i2] // pval
            target = row_data[i2]
            for j2, val in pivot_items:
                new = target.get(j2, 0) - factor * val
                if new:
                    target[j2] = new
                    col_data[j2][i2] = new
                    if new == 1 or new == -1:
                        heapq.heappush(queue, (
                            1, (len(target) - 1) * (len(col_data[j2]) - 1), i2, j2))
                elif j2 in target:
                    del target[j2]
                    del col_data[j2][i2]
            if not target:
                del row_data[i2]
        # pivot row entries in other columns vanish under column operations
        # that touch nothing else (column pj now holds only the pivot)
        for j2 in list(prow.keys()):
            cd = col_data[j2]
            del cd[pi]
            if not cd:
                del col_data[j2]
        del row_data[pi]
        orders.append(p)
        pivot_rows.add(pi)
    if row_data:
        live_rows = sorted(row_data)
        live_cols = sorted({j for row in row_data.values() for j in row})
        col_pos = {j: a for a, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for a, i in enumerate(live_rows):
            for j, val in row_data[i].items():
                dense[a][col_pos[j]] = val
        orders.extend(_diagonalize(dense, len(live_rows), len(live_cols)))
    return orders, pivot_rows


def _diagonalize(m: list[list[int]], n_rows: int, n_cols: int) -> list[int]:
    """Bring the top-left n_rows x n_cols block of m to Smith form in place.

    Returns the positive diagonal values in pivot order, d1 | d2 | ....
    Once a pivot's row and column are clear, a row of the rest of the block
    holding an entry the pivot does not divide is added to the pivot row,
    and clearing again leaves a strictly smaller pivot; so each pivot ends
    up dividing everything after it.  Pivots are sought in that block only,
    but row operations act on whole rows and column operations on every row
    of m, so blocks bordering it record the transforms (see
    smith_normal_form).
    """
    orders = []
    t = 0
    while True:
        best = None
        for i in range(t, n_rows):
            row = m[i]
            for j in range(t, n_cols):
                val = row[j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            return orders
        _, bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        while True:
            pivot = m[t][t]
            moved = False
            for i in range(t + 1, n_rows):
                if m[i][t]:
                    q = m[i][t] // pivot
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    if m[i][t]:        # remainder: strictly smaller new pivot
                        m[t], m[i] = m[i], m[t]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, n_cols):
                if m[t][j]:
                    q = m[t][j] // pivot
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                        break
            if not moved and pivot != 1:
                # row and column are clear: add in a row holding an entry
                # the pivot does not divide, and the row pass leaves a
                # strictly smaller pivot
                for i in range(t + 1, n_rows):
                    if any(x % pivot for x in m[i][t + 1:n_cols]):
                        m[t] = [a + b for a, b in zip(m[t], m[i])]
                        moved = True
                        break
            if not moved:
                break
        orders.append(m[t][t])
        t += 1



# -- chain complexes ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainComplex:
    """Bounded complex of free Z-modules; degree -1 (augmentation) is legal.

    dims maps degree -> basis size (only nonzero entries are stored);
    boundaries[d] sends C_d into C_{d-1}; degrees with a zero boundary map
    may omit their key entirely.
    """

    dims: dict[int, int]
    boundaries: dict[int, tuple[dict[int, int], ...]]

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.dims))

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def boundary(self, d: int) -> tuple[dict[int, int], ...]:
        stored = self.boundaries.get(d)
        if stored is not None:
            return stored
        return tuple({} for _ in range(self.dim(d)))

    def total_cells(self) -> int:
        return sum(self.dims.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in self.dims.items())


def make_chain_complex(dims: Mapping[int, int],
                       boundaries: Mapping[int, Sequence[Mapping[int, int]]]) -> ChainComplex:
    """Validated constructor: shapes line up, indices in range, zero entries dropped."""
    clean_dims = {int(d): int(n) for d, n in dims.items() if n}
    clean_bnd: dict[int, tuple[dict[int, int], ...]] = {}
    for d, cols in boundaries.items():
        n_d = clean_dims.get(d, 0)
        n_low = clean_dims.get(d - 1, 0)
        if len(cols) != n_d:
            raise DimensionMismatch(
                f"degree {d}: {len(cols)} boundary columns for {n_d} cells")
        converted = []
        any_entry = False
        for col in cols:
            new = {int(i): int(val) for i, val in col.items() if val}
            for i in new:
                if not 0 <= i < n_low:
                    raise DimensionMismatch(
                        f"degree {d}: boundary row {i} outside 0..{n_low - 1}")
            any_entry = any_entry or bool(new)
            converted.append(new)
        if any_entry:
            clean_bnd[d] = tuple(converted)
    return ChainComplex(clean_dims, clean_bnd)


def empty_chain_complex() -> ChainComplex:
    return ChainComplex({}, {})


def check_boundaries(c: ChainComplex) -> None:
    """Verify del o del = 0; raise BoundaryNotSquareZero at the first failure."""
    for d in sorted(c.boundaries):
        upper = c.boundaries[d]
        lower = c.boundaries.get(d - 1)
        if lower is None:      # lower map is zero, composite vanishes
            continue
        for j, col in enumerate(upper):
            acc: dict[int, int] = {}
            for i, val in col.items():
                for r, low in lower[i].items():
                    new = acc.get(r, 0) + val * low
                    if new:
                        acc[r] = new
                    elif r in acc:
                        del acc[r]
            if acc:
                raise BoundaryNotSquareZero(d, f"column {j}")


def augmented(c: ChainComplex) -> ChainComplex:
    """Add a degree -1 augmentation cell; every 0-cell maps to it with +1."""
    if -1 in c.dims:
        raise InputError("complex already has degree -1 cells")
    if any(d < 0 for d in c.dims):
        raise InputError("cannot augment below existing negative degrees")
    dims = dict(c.dims)
    dims[-1] = 1
    boundaries = dict(c.boundaries)
    n0 = c.dim(0)
    if n0:
        boundaries[0] = tuple({0: 1} for _ in range(n0))
    return ChainComplex(dims, boundaries)


# -- homology -----------------------------------------------------------------

@dataclass(frozen=True)
class HomologySummary:
    """Graded f.g. abelian group: per degree a free rank and torsion chain.

    groups holds (degree, betti, invariant factors) triples, sorted by
    degree, with trivial degrees omitted; torsion chains are canonical, so
    two summaries are equal iff the graded groups are isomorphic.
    """

    groups: tuple[tuple[int, int, tuple[int, ...]], ...]

    @classmethod
    def from_map(cls, mapping: Mapping[int, tuple[int, Iterable[int]]]) -> "HomologySummary":
        entries = []
        for d in sorted(mapping):
            betti, torsion = mapping[d]
            chain = invariant_factors(torsion)
            if betti or chain:
                entries.append((int(d), int(betti), chain))
        return cls(tuple(entries))

    def betti(self, d: int) -> int:
        for deg, betti, _ in self.groups:
            if deg == d:
                return betti
        return 0

    def torsion(self, d: int) -> tuple[int, ...]:
        for deg, _, chain in self.groups:
            if deg == d:
                return chain
        return ()

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _, _ in self.groups)

    def is_trivial(self) -> bool:
        return not self.groups

    def is_torsion_free(self) -> bool:
        return all(not chain for _, _, chain in self.groups)

    def shifted(self, k: int) -> "HomologySummary":
        return HomologySummary(tuple((d + k, b, c) for d, b, c in self.groups))

    def betti_vector(self, lo: int = 0, hi: int | None = None) -> tuple[int, ...]:
        if hi is None:
            hi = max((d for d, _, _ in self.groups), default=lo)
        return tuple(self.betti(d) for d in range(lo, hi + 1))

    def total_rank(self) -> int:
        return sum(b for _, b, _ in self.groups)

    def to_entries(self) -> list[dict]:
        return [{"degree": d, "betti": b, "torsion": list(chain)}
                for d, b, chain in self.groups]

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        parts = []
        for d, b, chain in self.groups:
            terms = []
            if b == 1:
                terms.append("Z")
            elif b:
                terms.append(f"Z^{b}")
            terms.extend(f"Z/{n}" for n in chain)
            parts.append(f"H_{d} = " + " + ".join(terms))
        return ", ".join(parts)


def trivial_summary() -> HomologySummary:
    return HomologySummary(())


def direct_sum(summaries: Iterable[HomologySummary]) -> HomologySummary:
    acc: dict[int, tuple[int, list[int]]] = {}
    for s in summaries:
        for d, b, chain in s.groups:
            betti, orders = acc.get(d, (0, []))
            acc[d] = (betti + b, orders + list(chain))
    return HomologySummary.from_map(acc)


def kunneth_product(a: HomologySummary, b: HomologySummary) -> HomologySummary:
    """H(C @ D) of free complexes C, D from H(C), H(D) by the Kunneth formula:
    free parts and Z/gcd tensor terms at i+j, Tor terms at i+j+1."""
    acc: dict[int, tuple[int, list[int]]] = {}

    def add(deg: int, betti: int, orders: Iterable[int]):
        cur_b, cur_t = acc.get(deg, (0, []))
        acc[deg] = (cur_b + betti, cur_t + list(orders))

    for d1, b1, t1 in a.groups:
        for d2, b2, t2 in b.groups:
            tensor_tor = ([x] * b2 for x in t1)
            orders = [x for sub in tensor_tor for x in sub]
            orders += [y for y in t2 for _ in range(b1)]
            orders += [gcd(x, y) for x in t1 for y in t2]
            add(d1 + d2, b1 * b2, orders)
            tor = [gcd(x, y) for x in t1 for y in t2]
            if tor:
                add(d1 + d2 + 1, 0, tor)
    return HomologySummary.from_map(acc)


def _boundary_orders(c: ChainComplex) -> dict[int, list[int]]:
    """Diagonal orders of each nonzero boundary, from the top degree down.

    The columns of boundary d at the sparse pivot rows of boundary d+1 are
    cleared, that is left out (see homology for why that is sound).
    """
    orders: dict[int, list[int]] = {}
    pivot_rows: set[int] = set()
    for d in sorted(c.boundaries, reverse=True):
        if c.dim(d - 1):
            # pivot_rows are boundary d+1's only if it was the last one done
            orders[d], pivot_rows = _elimination_orders(
                c.boundaries[d], pivot_rows if d + 1 in orders else ())
    return orders


def homology(c: ChainComplex, reduced: bool = False) -> HomologySummary:
    """Integral homology of a chain complex, with torsion.

    reduced=True augments at degree -1 unless the complex already carries an
    augmentation cell; it is only meaningful when every 0-cell is a point.

    The boundaries are eliminated from the top degree down, and boundary d
    skips the columns at the sparse pivot rows of boundary d+1 (clearing,
    after Chen-Kerber's twist, carried from a field to Z).  Let p be such a
    pivot, at row i and column j.  Each row operation R_r -= (a/p) * R_i is
    exact and changes only the basis vector of the pivot row, so rows that
    never become pivots keep their original basis vectors.  Once the sparse
    phase is over, the boundary sends the new basis vector w_j to p * v_i,
    so p * d(v_i) = d(d(w_j)) = 0, and d(v_i) = 0 since C_{d-1} is free.
    Boundary d in the new basis of C_d is therefore zero on the v_i and
    equal to the original columns elsewhere: the same invariant factors as
    the original columns with the cleared ones left out.  Rows that reach
    the dense kernel _diagonalize are not cleared, because its row
    additions change the basis vectors of rows that may end as non-pivots.
    Clearing only passes between adjacent degrees d+1 and d.
    """
    if reduced and -1 not in c.dims:
        c = augmented(c)
    check_boundaries(c)
    orders = _boundary_orders(c)
    result: dict[int, tuple[int, Iterable[int]]] = {}
    for d, n in c.dims.items():
        rank_down = len(orders.get(d, ()))
        up = orders.get(d + 1, ())
        betti = n - rank_down - len(up)
        result[d] = (betti, up)
    return HomologySummary.from_map(result)


def simplicial_chain_complex(k: SimplicialComplex,
                             reduced: bool = False) -> ChainComplex:
    """Cellular chains of a simplicial complex, ordered by face mask.

    reduced=True keeps the empty face as the degree -1 cell, so homology of
    the result is reduced homology; the {empty} complex then has H_{-1} = Z.
    A face set that is not downward closed raises NotDownwardClosed.
    """
    lowest = -1 if reduced else 0
    by_degree: dict[int, list[int]] = {}
    for mask in sorted(k.faces):
        d = mask.bit_count() - 1
        if d >= lowest:
            by_degree.setdefault(d, []).append(mask)
    index = {d: {mask: i for i, mask in enumerate(masks)}
             for d, masks in by_degree.items()}
    dims = {d: len(masks) for d, masks in by_degree.items()}
    boundaries: dict[int, list[dict[int, int]]] = {}
    for d, masks in by_degree.items():
        if d == lowest:
            continue
        cols = []
        for mask in masks:
            col: dict[int, int] = {}
            for pos, vtx in enumerate(vertices_from_mask(mask)):
                sub = mask & ~(1 << (vtx - 1))
                try:
                    col[index[d - 1][sub]] = 1 if pos % 2 == 0 else -1
                except KeyError:
                    raise NotDownwardClosed(vertices_from_mask(sub)) from None
            cols.append(col)
        boundaries[d] = cols
    return make_chain_complex(dims, boundaries)


def reduced_simplicial_homology(k: SimplicialComplex) -> HomologySummary:
    """Reduced integral homology of |K|, from its reduced simplicial chains.

    Nothing is cached: a caller that meets the same complex twice
    deduplicates it itself, as hochster_homology does.
    """
    return homology(simplicial_chain_complex(k, reduced=True))


# -- constructions ------------------------------------------------------------

def quotient_complex(c: ChainComplex,
                     keep: Mapping[int, Iterable[int]] | Callable[[int, int], bool]) -> ChainComplex:
    """Project onto a subset of basis cells whose complement spans a subcomplex.

    keep is either a degree -> kept-indices mapping or a predicate
    keep(degree, index).  Raises NotASubcomplex when a discarded cell's
    boundary touches a kept cell.
    """
    kept: dict[int, list[int]] = {}
    for deg, n in c.dims.items():
        if callable(keep):
            sel = [i for i in range(n) if keep(deg, i)]
        else:
            chosen = set(keep.get(deg, ()))
            bad = [i for i in chosen if not 0 <= i < n]
            if bad:
                raise DimensionMismatch(f"kept index {bad[0]} outside degree {deg}")
            sel = sorted(chosen)
        if sel:
            kept[deg] = sel
    kept_sets = {deg: set(sel) for deg, sel in kept.items()}
    for deg, cols in c.boundaries.items():
        low = kept_sets.get(deg - 1, set())
        if not low:
            continue
        chosen = kept_sets.get(deg, set())
        for j, col in enumerate(cols):
            if j in chosen:
                continue
            hit = [i for i in col if i in low]
            if hit:
                raise NotASubcomplex(
                    f"discarded cell {j} of degree {deg} has boundary in kept "
                    f"cell {hit[0]} of degree {deg - 1}")
    position = {deg: {i: a for a, i in enumerate(sel)} for deg, sel in kept.items()}
    dims = {deg: len(sel) for deg, sel in kept.items()}
    boundaries: dict[int, list[dict[int, int]]] = {}
    for deg, sel in kept.items():
        cols = c.boundary(deg)
        low_pos = position.get(deg - 1)
        new_cols = []
        for i in sel:
            if low_pos:
                new_cols.append({low_pos[r]: val for r, val in cols[i].items()
                                 if r in low_pos})
            else:
                new_cols.append({})
        boundaries[deg] = new_cols
    return make_chain_complex(dims, boundaries)
