"""Finite simplicial complexes on vertices 1..m, stored as bitmask face sets.

Vertices are 1-based integers 1..m.  A face is an int bitmask: bit i-1 set
means vertex i belongs to the face, so the empty face is 0 and masks compare
deterministically.  All face listings in this package are ordered by
(cardinality, numeric mask value).  A complex is its face set: maximal
faces, links and subcomplexes are computed from it when asked for.
Only from_faces checks closure: the builders here keep it by construction.

Operations that enumerate all 2^m subsets (skeleta, minimal non-faces,
subset sums) are capped at m <= MAX_ENUMERATION_VERTICES, and closing a
list of faces at CLOSURE_SUBSET_BOUND subsets walked in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import (
    FaceNotInComplex,
    InputError,
    NotDownwardClosed,
    SearchBoundExceeded,
)

MAX_ENUMERATION_VERTICES = 24
SHIFTED_SEARCH_BOUND = 8
CLOSURE_SUBSET_BOUND = 1 << 18


# -- bitmask helpers ----------------------------------------------------------

def mask_from_vertices(vertices: Iterable[int], m: int) -> int:
    """Bitmask of a 1-based vertex collection, range-checked against m."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= m:
            raise InputError(f"vertex {v} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def vertices_from_mask(mask: int) -> tuple[int, ...]:
    """Increasing 1-based vertex tuple of a face mask."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def face_sort_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def sorted_faces(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(masks, key=face_sort_key))


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; kind is a stable machine-readable tag."""

    kind: str
    message: str
    face: tuple[int, ...] | None = None
    vertex: int | None = None


# -- the complex --------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex: a downward-closed set of face masks.

    `faces` always contains the empty face 0.  Equality and hashing are
    those of (m, faces); nothing else is stored.  The constructor trusts
    its caller; a face set from outside goes through from_faces.
    """

    m: int
    faces: frozenset[int]

    # construction ------------------------------------------------------

    @classmethod
    def from_maximal_faces(cls, m: int,
                           maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given faces on vertex set {1..m}.

        The input faces need not be maximal or distinct.  m = 0 is
        rejected; use from_faces(0, (0,)) for the empty complex with no
        vertices.  The closure walks every subset of every input face, so
        more than CLOSURE_SUBSET_BOUND subsets in all are refused before
        any is walked.
        """
        if m < 1:
            raise InputError("from_maximal_faces needs m >= 1")
        if m > MAX_ENUMERATION_VERTICES:
            raise InputError(f"m = {m} exceeds enumeration cap {MAX_ENUMERATION_VERTICES}")
        input_masks = [mask_from_vertices(f, m) for f in maximal]
        walk = sum(1 << mask.bit_count() for mask in input_masks)
        if walk > CLOSURE_SUBSET_BOUND:
            raise SearchBoundExceeded(f"closing the input faces walks {walk} subsets; "
                                      f"bound is {CLOSURE_SUBSET_BOUND}")
        faces = {0}
        for mask in input_masks:
            faces.update(submasks(mask))
        return cls(m=m, faces=frozenset(faces))

    @classmethod
    def from_faces(cls, m: int, faces: Iterable[int]) -> "SimplicialComplex":
        """The complex with these faces and the empty one, checked: a missing
        face raises NotDownwardClosed, a mask beyond m InputError."""
        k = cls(m=m, faces=frozenset(faces) | {0})
        for d in validate(k):
            if d.kind == "not_downward_closed":
                raise NotDownwardClosed(d.face)
            raise InputError(d.message)
        return k

    # basic queries -----------------------------------------------------

    def dim(self) -> int:
        """Dimension: max face cardinality - 1; the {empty} complex has dim -1."""
        return max(mask.bit_count() for mask in self.faces) - 1

    def faces_sorted(self) -> tuple[int, ...]:
        return sorted_faces(self.faces)

    @property
    def maximal_faces(self) -> tuple[int, ...]:
        """The faces contained in no other face, sorted."""
        return _maximal_of(self.faces)

    # f- and h-vectors --------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_dim): face counts by dimension, empty face excluded."""
        d = self.dim()
        counts = [0] * (d + 1)
        for mask in self.faces:
            k = mask.bit_count()
            if k:
                counts[k - 1] += 1
        return tuple(counts)

    def h_vector(self) -> tuple[int, ...]:
        """(h_0, ..., h_n) with n = dim + 1, via sum_i f_{i-1} (t-1)^{n-i}."""
        n = self.dim() + 1
        f = (1,) + self.f_vector()          # f[-1] = 1 shifted to index 0
        # accumulate coefficients of sum_i f[i] * (t-1)^(n-i) as a poly in t
        coeffs = [0] * (n + 1)
        for i in range(n + 1):
            # (t-1)^(n-i): term t^j has coefficient C(n-i, j) * (-1)^(n-i-j)
            for j in range(n - i + 1):
                coeffs[j] += f[i] * comb(n - i, j) * (-1) ** (n - i - j)
        # h_k is the coefficient of t^(n-k)
        return tuple(coeffs[n - k] for k in range(n + 1))

    # subcomplexes ------------------------------------------------------

    def full_subcomplex(self, subset: Iterable[int]) -> "SimplicialComplex":
        """K_I = {sigma in K : sigma is a subset of I}, relabeled 1..|I|.

        The i-th smallest vertex of I becomes vertex i.  Only the faces
        inside I are kept and relabeled; K is downward closed, so this is
        the same set as {sigma /\\ I : sigma in K}.
        """
        sel = sorted(set(subset))
        sel_mask = mask_from_vertices(sel, self.m)
        labels = [0] * self.m
        for i, v in enumerate(sel, start=1):
            labels[v - 1] = i
        return SimplicialComplex(len(sel), frozenset({
            _relabel_mask(mask, labels) for mask in self.faces if mask | sel_mask == sel_mask}))

    def minimal_non_faces(self) -> tuple[int, ...]:
        """Subsets not in K all of whose proper subsets are in K, sorted."""
        if self.m > MAX_ENUMERATION_VERTICES:
            raise SearchBoundExceeded(f"m = {self.m} exceeds {MAX_ENUMERATION_VERTICES}")
        out = []
        for mask in range(1 << self.m):
            if mask in self.faces:
                continue
            if all((mask & ~(1 << b)) in self.faces
                   for b in range(self.m) if mask >> b & 1):
                out.append(mask)
        return sorted_faces(out)

    def link(self, sigma: Iterable[int]) -> "SimplicialComplex":
        """lk(sigma) = { tau in K : tau /\\ sigma = 0, tau | sigma in K }.

        It stays on the same m vertices.  The link of the empty face is K
        itself, and the link of a maximal face is the {empty} complex.
        """
        smask = mask_from_vertices(sigma, self.m)
        if smask not in self.faces:
            raise FaceNotInComplex(vertices_from_mask(smask))
        return SimplicialComplex(self.m, frozenset({
            t ^ smask for t in self.faces if t & smask == smask}))

    # shiftedness -------------------------------------------------------

    def is_shifted(self, labeling: Sequence[int] | None = None):
        """Search for a vertex relabelling making K shifted.

        Returns ShiftedVerdict.  With an explicit labeling only that one is
        checked; otherwise all m! relabellings are tried
        (m <= SHIFTED_SEARCH_BOUND).
        labeling[i-1] is the new label of vertex i.
        """
        if labeling is not None:
            perm = tuple(labeling)
            if sorted(perm) != list(range(1, self.m + 1)):
                raise InputError("labeling must be a permutation of 1..m")
            bad = self._shift_violation(perm)
            return ShiftedVerdict(bad is None, perm if bad is None else None, bad)
        if self.m > SHIFTED_SEARCH_BOUND:
            raise SearchBoundExceeded(
                f"shifted search over {self.m}! labelings exceeds bound "
                f"m <= {SHIFTED_SEARCH_BOUND}")
        identity_violation = None
        for perm in permutations(range(1, self.m + 1)):
            bad = self._shift_violation(perm)
            if bad is None:
                return ShiftedVerdict(True, perm, None)
            if identity_violation is None:
                identity_violation = bad
        return ShiftedVerdict(False, None, identity_violation)

    def _shift_violation(self, perm: tuple[int, ...]):
        """First face (relabeled) witnessing failure, or None if shifted."""
        relabeled = frozenset(_relabel_mask(mask, perm) for mask in self.faces)
        for mask in sorted(relabeled):
            for v in range(self.m - 1, -1, -1):
                if not mask >> v & 1:
                    continue
                for u in range(v):
                    if mask >> u & 1:
                        continue
                    if (mask & ~(1 << v)) | (1 << u) not in relabeled:
                        return vertices_from_mask(mask)
        return None


@dataclass(frozen=True)
class ShiftedVerdict:
    shifted: bool
    labeling: tuple[int, ...] | None
    counterexample: tuple[int, ...] | None


# -- free functions -----------------------------------------------------------

def skeleton(m: int, q: int) -> SimplicialComplex:
    """q-skeleton of the full simplex on m vertices; q = m-1 is the simplex.

    The faces are listed size by size, so the work is the face count: a
    closure of the C(m, q+1) facets would visit each face once per facet
    above it.
    """
    if q < -1 or q > m - 1:
        raise InputError(f"skeleton degree {q} outside -1..{m - 1}")
    if m < 1:
        raise InputError("skeleton needs m >= 1")
    if m > MAX_ENUMERATION_VERTICES:
        raise InputError(f"m = {m} exceeds enumeration cap {MAX_ENUMERATION_VERTICES}")
    return SimplicialComplex(m, frozenset(
        sum(1 << b for b in face)
        for size in range(q + 2) for face in combinations(range(m), size)))


def validate(k: SimplicialComplex, strict: bool = False) -> list[Diagnostic]:
    """Check the empty face, closure and mask ranges; strict adds ghosts."""
    out = []
    if 0 not in k.faces:
        out.append(Diagnostic("missing_empty_face", "face set lacks the empty face"))
    for mask in k.faces_sorted():
        if mask >> k.m:
            out.append(Diagnostic("vertex_out_of_range",
                                  f"face {vertices_from_mask(mask)} uses vertices beyond m={k.m}",
                                  face=vertices_from_mask(mask)))
            continue
        for b in range(k.m):
            if mask >> b & 1 and (mask & ~(1 << b)) not in k.faces:
                missing = vertices_from_mask(mask & ~(1 << b))
                out.append(Diagnostic("not_downward_closed",
                                      f"missing subset {missing} of face {vertices_from_mask(mask)}",
                                      face=missing))
    if strict:
        used = 0
        for mask in k.faces:
            used |= mask
        for v in range(1, k.m + 1):
            if not used >> (v - 1) & 1:
                out.append(Diagnostic("ghost_vertex", f"vertex {v} lies in no face",
                                      vertex=v))
    return out


# -- internals ----------------------------------------------------------------

def _maximal_of(faces) -> tuple[int, ...]:
    sorted_desc = sorted(faces, key=face_sort_key, reverse=True)
    maximal: list[int] = []
    for mask in sorted_desc:
        if not any(mask & big == mask for big in maximal):
            maximal.append(mask)
    return sorted_faces(maximal)


def _relabel_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    for v in vertices_from_mask(mask):
        out |= 1 << (perm[v - 1] - 1)
    return out
