"""Chain models of polyhedral products and their decompositions.

Z(K; (X,A)) is modeled inside the tensor product of the m pair chain
complexes: the basis is every tensor c_1 @ ... @ c_m whose support
{i : c_i is an X-only cell} is a face of K.  Boundaries shrink support, and
K is downward closed, so this span really is a subcomplex.

One builder gives the model in two bases.  The cellular basis is the
oracle.  The split basis replaces each 0-cell u other than a basepoint *
by u - *; there the complex is block-diagonal over the vertex subsets
I = {i : c_i != *}, and block I is the smash model Zhat(K_I) -- the
stable splitting, holding at chain level.  H(Z) is computed block by
block, and the stable splitting's summands are the blocks, checked
against the cellular model.  The smash model Zhat(K) alone is the block
of all vertices, built with the basepoint cells left out; its homology is
the reduced homology of the smash-image space.  The remaining functions
compute the right-hand sides of the various additive decompositions of Z
and Zhat so the two sides can be compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .complexes import (
    MAX_ENUMERATION_VERTICES,
    SimplicialComplex,
    face_sort_key,
    vertices_from_mask,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    InputError,
    NotShifted,
    PairNotCertified,
    SearchBoundExceeded,
    SeriesError,
    TorsionInShiftedSubcomplex,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    direct_sum,
    empty_chain_complex,
    homology,
    kunneth_product,
    reduced_simplicial_homology,
)
from .pairs import PairModel, pair_chain
from .series import RationalSeries, poly_add, poly_mul, poly_pow

DEFAULT_CELL_BUDGET = 2_000_000
SPLITTING_SUBSET_BOUND = 12
HOCHSTER_NONFACE_BOUND = 1 << 17

MapFn = Callable[[Callable, Iterable], Iterable]


@dataclass(frozen=True)
class SplitSummand:
    """One piece of an additive decomposition, tagged by its index subset
    (or face) and a human-readable description of the formula side."""

    subset: tuple[int, ...]
    description: str
    homology: HomologySummary


@dataclass(frozen=True)
class SplittingResult:
    """Summands, their direct sum, the brute-force oracle, and the verdict."""

    summands: tuple[SplitSummand, ...]
    total: HomologySummary
    oracle: HomologySummary
    verified: bool


def _subset_label(vertices: Sequence[int]) -> str:
    return "{" + ",".join(map(str, vertices)) + "}"


# -- the two chain models -------------------------------------------------------


def _check_arity(k: SimplicialComplex, pairs: Sequence[PairModel]) -> tuple[PairModel, ...]:
    pairs = tuple(pairs)
    if len(pairs) != k.m:
        raise ArityMismatch(f"{len(pairs)} pair models for m = {k.m} vertices")
    return pairs


def _product_chain(k: SimplicialComplex, pairs: tuple[PairModel, ...],
                   budget: int, basis: str) -> Iterator[tuple[int, ChainComplex]]:
    """Chain complex of the Z(K;(X,A)) model as (vertex mask, block) pairs.

    basis "cellular" is the tensor product of the pairs' cellular bases,
    yielded as one block under the full mask.  basis "split" replaces each
    0-cell u other than a coordinate's basepoint * by u - *.  A PairModel
    checks itself when it is built, and makes the vertices of every 1-cell
    boundary sum to zero, so in the new basis a boundary only loses its
    entries on *.  The complex is then the direct sum of the blocks
    I = {i : c_i != *}, and block I is Zhat(K_I;(X,A)_I); block 0 is the
    single cell (*, ..., *).  basis "smash" is block [m] alone: * is left
    out of every coordinate's A-cells.  That check also rules out zero
    coefficients and repeated boundary targets, so every built column is
    free of zero entries, and no entry is ever accumulated: two terms moving
    the same coordinate hit distinct targets, and terms moving distinct
    coordinates hit distinct cells.  The blocks are not checked: each pair
    checked d o d = 0 when it was built, so with the Koszul sign and K
    closed it holds.

    The budget counts the cells of the whole model and is checked at call
    time, before any is built.  The blocks are then built one at a time, in
    mask order, as the caller asks for them.  While a caller uses a block
    the stream holds that block and the partial cells pending on the
    walk's stack: at most one list per coordinate, none longer than a
    block.  Within a block the basis is ordered by degree, then by cell
    tuple.
    """
    a_cells = [tuple(c for c in p.a_cells()
                     if basis != "smash" or c != p.basepoint) for p in pairs]
    x_cells = [p.x_only_cells() for p in pairs]
    needed = 0
    for face in k.faces:
        count = 1
        for i in range(k.m):
            count *= len(x_cells[i]) if face >> i & 1 else len(a_cells[i])
        needed += count
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    return _product_blocks(k, pairs, basis)


def _product_blocks(k: SimplicialComplex, pairs: tuple[PairModel, ...],
                    basis: str) -> Iterator[tuple[int, ChainComplex]]:
    """The blocks of _product_chain, built as they are asked for.

    A cell (c_0, ..., c_{m-1}) is the integer code sum c_i << bits*(m-1-i),
    with bits wide enough for the largest pair's cell indices.  Coordinate
    0 sits in the top bits, so codes sort as the cell tuples do and the
    basis order is the tuple order.  Each cell carries its boundary terms as
    (code offset, coefficient) pairs: the term moving coordinate i from c_i
    to t has offset (t - c_i) << bits*(m-1-i).  An offset moves only its
    own coordinate, so the terms stay valid while the cell is extended by
    other coordinates, and a column is {pos[code + offset]: coefficient},
    with no loop over coordinates and no tuple built.

    The cells are chosen depth-first, from coordinate m-1 down to 0.  At
    coordinate i a partial cell takes one branch after another: in the
    split basis first the basepoint (i not in the block), then any other
    cell (i in the block); in the other bases any cell, and * is left out
    of the smash basis.  It takes an X-only cell only when its support plus
    i is a face of K.  So the blocks are finished in mask order, each
    partial cell is made once and shared by every block below it, and only
    the partial cells pending on the walk's stack outlive a block.  Partial
    cells are listed by degree, and the new coordinate is the outer loop of
    each extension, so every list stays in code order and a block's cells
    of each degree come out in basis order with no sort.

    The Koszul sign of the term at coordinate i is the parity of the cells
    below i, which the walk has not chosen yet.  It is the parity of the
    cell's degree plus that of the cells at i and above, so a term is
    signed by the latter and a column of odd degree is negated when it is
    built.
    """
    m = k.m
    faces = k.faces
    bits = max(p.n_cells() - 1 for p in pairs).bit_length()

    def row(i: int, cells: Iterable[int]) -> tuple[tuple, ...]:
        # per cell: its shifted code, its degree, its boundary after the
        # basepoint drop signed for a partial cell of even and of odd degree,
        # and the support bit of an X-only cell
        p = pairs[i]
        drop = -1 if basis == "cellular" else p.basepoint
        shift = bits * (m - 1 - i)
        x_only = set(p.x_only_cells())
        out = []
        for c in cells:
            terms = tuple(((t - c) << shift, coeff)
                          for t, coeff in p.boundaries[c] if t != drop)
            negated = tuple((off, -coeff) for off, coeff in terms)
            out.append((c << shift, p.dims[c],
                        (negated, terms) if p.dims[c] & 1 else (terms, negated),
                        1 << i if c in x_only else 0))
        return tuple(out)

    # per coordinate, its branches in mask order: (its bit in the block
    # mask, the cells it may take there)
    branches = []
    for i, p in enumerate(pairs):
        cells = row(i, (c for c in range(p.n_cells())
                        if basis == "cellular" or c != p.basepoint))
        if basis == "split":
            branches.append(((0, row(i, (p.basepoint,))), (1 << i, cells)))
        else:
            branches.append(((1 << i, cells),))
    # a pending item extends its partial cells at coordinate i along one
    # branch; they are kept by degree, as (code, support, terms) lists
    stack = [(m - 1, 0, {0: [(0, 0, ())]}, branch) for branch in reversed(branches[m - 1])]
    while stack:
        i, mask, cells, (bit, choices) = stack.pop()
        free = {deg: [cell for cell in group if cell[1] | 1 << i in faces]
                for deg, group in cells.items()}
        grown: dict[int, list[tuple[int, int, tuple]]] = {}
        for shifted, dim, signed, x_bit in choices:
            for deg, group in (free if x_bit else cells).items():
                if group:
                    own = signed[deg & 1]
                    grown.setdefault(deg + dim, []).extend(
                        [(code + shifted, support | x_bit, own + terms)
                         for code, support, terms in group])
        # this level's lists must not outlive it while a block is in use
        cells = free = None
        if not grown:
            continue
        if i:
            stack.extend((i - 1, mask | bit, grown, branch)
                         for branch in reversed(branches[i - 1]))
        else:
            yield mask | bit, _assembled(grown)


def _assembled(by_degree: dict[int, list[tuple[int, int, tuple]]]) -> ChainComplex:
    """The chain complex of one block's cells, listed by degree in code
    order; each degree's list is released as its columns are built."""
    dims = {d: len(by_degree[d]) for d in sorted(by_degree)}
    pos = {code: n for group in by_degree.values() for n, (code, _, _) in enumerate(group)}
    boundaries: dict[int, tuple[dict[int, int], ...]] = {}
    for d in dims:
        if d & 1:
            cols = tuple({pos[code + off]: -coeff for off, coeff in terms}
                         for code, _, terms in by_degree.pop(d))
        else:
            cols = tuple({pos[code + off]: coeff for off, coeff in terms}
                         for code, _, terms in by_degree.pop(d))
        if any(cols):
            boundaries[d] = cols
    return ChainComplex(dims, boundaries)


def moment_angle_chain(k: SimplicialComplex, pairs: Sequence[PairModel],
                       budget: int = DEFAULT_CELL_BUDGET) -> ChainComplex:
    """Chain model of Z(K;(X,A)) in the cellular basis; its homology is the
    unreduced homology of Z.  This is the oracle the decompositions are
    checked against."""
    ((_, chain),) = _product_chain(k, _check_arity(k, pairs), budget, "cellular")
    return chain


def smash_moment_angle_chain(k: SimplicialComplex, pairs: Sequence[PairModel],
                             budget: int = DEFAULT_CELL_BUDGET) -> ChainComplex:
    """Chain model of Zhat(K;(X,A)); its homology is H-tilde of the smash image."""
    blocks = dict(_product_chain(k, _check_arity(k, pairs), budget, "smash"))
    return blocks.get((1 << k.m) - 1, empty_chain_complex())


def moment_angle_blocks(k: SimplicialComplex, pairs: Sequence[PairModel],
                        budget: int = DEFAULT_CELL_BUDGET
                        ) -> Iterator[tuple[int, ChainComplex]]:
    """Z(K;(X,A)) in the split basis, as (vertex mask I, block I) pairs in
    mask order; dict(...) collects them.

    Block I is Zhat(K_I;(X,A)_I), so H(Z) is the direct sum of the blocks'
    homology, and H-tilde(Z) leaves out block 0 (one cell in degree 0).
    Empty blocks are omitted.  The budget counts the cells of the whole
    model, as for moment_angle_chain, and is checked at call time; each
    block is built when it is asked for, and the stream holds no more than
    the current block and the partial cells pending on its walk, at most
    one list per vertex and none longer than a block.
    """
    return _product_chain(k, _check_arity(k, pairs), budget, "split")


# -- stable splitting over full subcomplexes -------------------------------------


def stable_splitting(k: SimplicialComplex, pairs: Sequence[PairModel],
                     budget: int = DEFAULT_CELL_BUDGET,
                     job_map: MapFn | None = None) -> SplittingResult:
    """Reduced homology of Z against the direct sum over nonempty subsets I
    of the reduced homology of Zhat(K_I); verified is the exact comparison.

    The summands are the blocks of moment_angle_blocks, each reduced as it
    is built, so only their homology is kept; a subset with no block has
    trivial homology.  The oracle is the cellular model, eliminated as one
    matrix per degree.
    """
    pairs = _check_arity(k, pairs)
    if k.m > SPLITTING_SUBSET_BOUND:
        raise SearchBoundExceeded(f"splitting enumerates 2^{k.m} subsets; "
                                  f"bound is m <= {SPLITTING_SUBSET_BOUND}")
    results = dict((job_map or map)(_block_homology, moment_angle_blocks(k, pairs, budget)))
    masks = sorted(range(1, 1 << k.m), key=face_sort_key)
    trivial = HomologySummary(())
    summands = tuple(
        SplitSummand(verts, f"Zhat(K_{_subset_label(verts)})", results.get(mask, trivial))
        for mask, verts in zip(masks, map(vertices_from_mask, masks)))
    total = direct_sum(s.homology for s in summands)
    oracle = homology(moment_angle_chain(k, pairs, budget), reduced=True)
    return SplittingResult(summands, total, oracle, total == oracle)


def _block_homology(item: tuple[int, ChainComplex]) -> tuple[int, HomologySummary]:
    mask, block = item
    return mask, homology(block)


# -- Hochster-type formula for (D^{n+1}, S^n) -------------------------------------


def hochster_homology(k: SimplicialComplex, n: int | Sequence[int],
                      job_map: MapFn | None = None
                      ) -> tuple[HomologySummary, tuple[SplitSummand, ...]]:
    """H-tilde of Z(K;(D^{n+1},S^n)) as the sum over subsets I not in K of the
    reduced homology of K_I shifted up by 1 + n|I|.

    Subsets that are faces contribute nothing (K_I is then a full simplex),
    so only the non-faces are enumerated.  `n` may also be one sphere
    dimension per vertex, in which case a subset I is shifted up by
    1 + sum of its dimensions.  Many non-faces have equal relabeled K_I, so
    the distinct ones are collected first and `job_map` computes each one's
    reduced homology once; nothing is kept across calls.  More than
    HOCHSTER_NONFACE_BOUND non-faces, 2^m - |K|, are refused up front.
    """
    dims = tuple(n for _ in range(k.m)) if isinstance(n, int) else tuple(n)
    if len(dims) != k.m:
        raise ArityMismatch(f"expected {k.m} sphere dimensions, got {len(dims)}")
    if any(d < 0 for d in dims):
        raise InputError("sphere dimension n must be >= 0")
    nonfaces = (1 << k.m) - len(k.faces)
    if nonfaces > HOCHSTER_NONFACE_BOUND:
        raise SearchBoundExceeded(f"Hochster's formula walks {nonfaces} non-faces; "
                                  f"bound is {HOCHSTER_NONFACE_BOUND}")
    masks = sorted((mask for mask in range(1, 1 << k.m) if mask not in k.faces),
                   key=face_sort_key)
    subsets = [vertices_from_mask(mask) for mask in masks]
    subcomplexes = [k.full_subcomplex(verts) for verts in subsets]
    distinct = list(dict.fromkeys(subcomplexes))
    reduced = dict(zip(distinct, (job_map or map)(reduced_simplicial_homology, distinct)))
    summands = []
    for verts, sub in zip(subsets, subcomplexes):
        shift_by = 1 + sum(dims[v - 1] for v in verts)
        summands.append(SplitSummand(verts,
                                     f"K_{_subset_label(verts)} shifted by {shift_by}",
                                     reduced[sub].shifted(shift_by)))
    total = direct_sum(s.homology for s in summands)
    return total, tuple(summands)


# -- wedge decomposition over faces (null-homotopic inclusions) -------------------


def wedge_lemma_decomposition(k: SimplicialComplex, pairs: Sequence[PairModel],
                              budget: int = DEFAULT_CELL_BUDGET) -> SplittingResult:
    """Per-face join decomposition of Zhat for certified pair models.

    Each face sigma contributes the join of the order complex of faces
    strictly containing sigma with the smash of (X_i for i in sigma, A_i
    otherwise).  That order complex is the barycentric subdivision of the
    link of sigma (of K itself when sigma is empty), so the link computes
    the factor with far fewer cells; the descriptions keep the paper's name.
    Each summand's homology comes by Kunneth from the reduced homology of
    the link and of each X_i or A_i, so no join is built.  The factors'
    homology is computed once per pair, and a face whose smash is acyclic
    contributes zero without its link being computed.
    Valid when every inclusion A_i -> X_i is null-homotopic; models carry
    that certificate structurally, and uncertified ones are refused.  The
    direct sum is compared against the smash model oracle, which is built
    as a chain complex.
    """
    pairs = _check_arity(k, pairs)
    for p in pairs:
        if not p.null_homotopic_inclusion:
            raise PairNotCertified(
                f"pair model {p.name} carries no null-homotopy certificate")
    a_homology = [_factor_homology(p, a_only=True) for p in pairs]
    x_homology = [_factor_homology(p, a_only=False) for p in pairs]
    summands = []
    for sigma in k.faces_sorted():
        verts = vertices_from_mask(sigma)
        smash = _smash_homology(x_homology[i] if sigma >> i & 1 else a_homology[i]
                                for i in range(k.m))
        summands.append(SplitSummand(
            verts,
            f"order complex above {_subset_label(verts)} joined with Dhat",
            smash if smash.is_trivial() else _join_homology(k.link(verts), smash)))
    total = direct_sum(s.homology for s in summands)
    oracle = homology(smash_moment_angle_chain(k, pairs, budget))
    return SplittingResult(tuple(summands), total, oracle, total == oracle)


def _factor_homology(p: PairModel, a_only: bool) -> HomologySummary:
    """H-tilde of X (of A when a_only), from its basepoint-deleted chains."""
    return homology(pair_chain(p, a_only=a_only, drop_basepoint=True))


def _smash_homology(factors: Iterable[HomologySummary]) -> HomologySummary:
    """H-tilde of the smash of spaces whose reduced homology is `factors`.

    Their basepoint-deleted chains are free, so Kunneth folds the factors'
    homology, starting at H-tilde(S^0) = Z in degree 0, the unit of the
    smash.
    """
    smash = HomologySummary(((0, 1, ()),))
    for h in factors:
        smash = kunneth_product(smash, h)
    return smash


def _join_homology(left: SimplicialComplex,
                   smash: HomologySummary) -> HomologySummary:
    """H-tilde of |left| joined with a space whose reduced homology is smash.

    The join's chains are the augmented chains of |left| tensored with the
    smash's basepoint-deleted chains, shifted up by 1, so Kunneth gives its
    homology and no product complex is built.  An acyclic smash gives an
    acyclic join, whatever left is.
    """
    return kunneth_product(reduced_simplicial_homology(left), smash).shifted(1)


# -- contractible X: join model ----------------------------------------------------


def contractible_X_summary(k: SimplicialComplex,
                           a_models: Sequence[PairModel]) -> HomologySummary:
    """H-tilde of Zhat(K;(CA,A)) computed as the join of |K| with the smash
    of the A's (no cone cells are ever built): the wedge lemma's summand at
    the empty face, whose link is K."""
    return _join_homology(k, _smash_homology(
        _factor_homology(p, a_only=True) for p in _check_arity(k, a_models)))


# -- contractible A: additive series ----------------------------------------------


def _require_reduced(series: RationalSeries) -> RationalSeries:
    if series.constant_term() != 0:
        raise SeriesError("reduced series must have zero constant term")
    return series


def contractible_A_series(k: SimplicialComplex,
                          x_series: Sequence[RationalSeries]) -> RationalSeries:
    """Reduced Poincare series of Z(K;(X,*)): sum over nonempty faces I of
    the product of the reduced series of the X_i with i in I.

    The sum is taken over the common denominator prod_i den_i: face I
    contributes prod_{i in I} num_i * prod_{i not in I} den_i to the
    numerator, so the denominator's degree is the sum of the den_i's."""
    series = tuple(x_series)
    if len(series) != k.m:
        raise ArityMismatch(f"{len(series)} series for m = {k.m} vertices")
    for s in series:
        _require_reduced(s)
    num: tuple[int, ...] = ()
    for mask in k.faces:
        if not mask:
            continue
        term: tuple[int, ...] = (1,)
        for i, s in enumerate(series):
            term = poly_mul(term, s.num if mask >> i & 1 else s.den)
        num = poly_add(num, term)
    den: tuple[int, ...] = (1,)
    for s in series:
        den = poly_mul(den, s.den)
    return RationalSeries.make(num, den)


def poincare_polynomial(k: SimplicialComplex,
                        px: RationalSeries) -> RationalSeries:
    """Identical-X special case: sum over j of f_j * (reduced series)^(j+1),
    taken over the common denominator den^n with n = dim K + 1, that is
    sum_j f_j * num^(j+1) * den^(n-j-1) / den^n."""
    _require_reduced(px)
    f = k.f_vector()
    n = len(f)
    num: tuple[int, ...] = ()
    for j, count in enumerate(f):
        term = poly_mul(poly_pow(px.num, j + 1), poly_pow(px.den, n - j - 1))
        num = poly_add(num, poly_mul((count,), term))
    return RationalSeries.make(num, poly_pow(px.den, n))


# -- skeleton decompositions --------------------------------------------------------


def porter_decomposition(m: int, q: int,
                         y_dims: Sequence[int]) -> HomologySummary:
    """H-tilde of Z(Delta[m-1]_q; (CY, Y)), Y_i = S^{y_i}, a wedge of spheres:
    the Betti number in degree d counts its spheres S^d.

    Every subset I with |I| > q+1 contributes a sphere of dimension
    q + 1 + sum of the y_i over I, with multiplicity C(|I|-1, q+1).  This is
    the oracle-confirmed bookkeeping.  A contribution depends only on |I|
    and the y-sum over I, so no subset is enumerated: a table counts the
    subsets of each size and y-sum, one vertex at a time.  m runs from 2,
    the least m with a skeleton degree q in 0..m-2, to
    MAX_ENUMERATION_VERTICES, the bound of the subset formulas.
    """
    if m < 2:
        raise InputError(f"m must be at least 2 (q lies in 0..m-2), got {m}")
    dims = tuple(int(d) for d in y_dims)
    if len(dims) != m:
        raise ArityMismatch(f"{len(dims)} sphere dimensions for m = {m}")
    if any(d < 0 for d in dims):
        raise InputError("sphere dimensions must be >= 0")
    if not 0 <= q <= m - 2:
        raise InputError(f"skeleton degree q = {q} outside 0..{m - 2}")
    if m > MAX_ENUMERATION_VERTICES:
        raise SearchBoundExceeded(f"m = {m} exceeds {MAX_ENUMERATION_VERTICES}")
    # table[s][d]: the number of subsets of size s whose y_i sum to d
    table: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m)]
    for n, y in enumerate(dims):
        for s in range(n, -1, -1):
            bigger = table[s + 1]
            for d, count in table[s].items():
                bigger[d + y] = bigger.get(d + y, 0) + count
    counts: dict[int, int] = {}
    for s in range(q + 2, m + 1):
        for d, count in table[s].items():
            dim = q + 1 + d
            counts[dim] = counts.get(dim, 0) + comb(s - 1, q + 1) * count
    return HomologySummary.from_map({d: (count, ()) for d, count in counts.items()})


def sphere_wedge_report(k: SimplicialComplex, n: int,
                        labeling: Sequence[int] | None = None) -> HomologySummary:
    """H-tilde of Sigma Z(K;(D^{n+1},S^n)) for a shifted K, a wedge of spheres:
    the Betti number in degree d counts its spheres S^d.

    It is the Hochster total shifted up by 1.  Full subcomplexes of a
    shifted complex are torsion-free, and a torsion violation is reported
    as its own error.  Subtract 1 from a degree to land on Z itself.
    """
    verdict = k.is_shifted(labeling)
    if not verdict.shifted:
        raise NotShifted(
            f"no labeling makes the complex shifted "
            f"(counterexample face {verdict.counterexample})")
    total, summands = hochster_homology(k, n)
    for s in summands:
        if not s.homology.is_torsion_free():
            raise TorsionInShiftedSubcomplex(
                f"summand {s.description} has torsion {s.homology}")
    return total.shifted(1)
