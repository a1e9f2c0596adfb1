"""Named complexes, the standard pair library and the exhaustive
enumeration of small complexes, as the bench and README's example use them."""

from __future__ import annotations

from itertools import permutations

from .complexes import SimplicialComplex, _relabel_mask, face_sort_key, skeleton
from .errors import InputError
from .pairs import PairModel, pair_disk_sphere, rp2_pair, sphere_pair


# -- named complexes -----------------------------------------------------------

def simplex_boundary(m: int) -> SimplicialComplex:
    return skeleton(m, m - 2)


def cycle_complex(m: int) -> SimplicialComplex:
    """m-gon: edges {i, i+1} and {m, 1}."""
    if m < 3:
        raise InputError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, m)] + [(m, 1)]
    return SimplicialComplex.from_maximal_faces(m, edges)


def square() -> SimplicialComplex:
    return cycle_complex(4)


# -- pair families ----------------------------------------------------------------

def standard_pair_library() -> tuple[PairModel, ...]:
    """The four pair models exercised by the splitting and wedge checks."""
    return (pair_disk_sphere(1), pair_disk_sphere(0), sphere_pair(2), rp2_pair())


# -- exhaustive enumeration --------------------------------------------------------

def all_complexes_on(m: int, up_to_iso: bool = True) -> tuple[SimplicialComplex, ...]:
    """Every downward-closed face family on m labeled vertices (including
    families with unused vertices), optionally one per isomorphism class.

    Families are generated as antichains of maximal faces (depth-first, so
    the work is proportional to the Dedekind-number count, not 2^(2^m));
    m = 5 yields 7580 labeled families and is the practical ceiling.

    Up to isomorphism, each class is canonicalized once: the first family
    met of an orbit has its image under every vertex permutation computed,
    all of them are marked seen, and the least sorted image represents the
    class.  Later families of the orbit are skipped by bitmap lookup.
    """
    if not 1 <= m <= 5:
        raise InputError("exhaustive complex enumeration supports 1 <= m <= 5")
    n_subsets = 1 << m
    candidates = sorted(range(1, n_subsets), key=face_sort_key)

    families: list[int] = []        # bitmap over the 2^m subsets; bit 0 = empty face

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
        tables = [
            [_relabel_mask(mask, perm) for mask in range(n_subsets)]
            for perm in permutations(range(1, m + 1))
        ]
        seen: set[int] = set()
        chosen = []
        for fam in families:
            if fam in seen:
                continue
            faces = faces_of(fam)
            orbit = {sum(1 << table[f] for f in faces) for table in tables}
            seen |= orbit
            chosen.append(min(map(faces_of, orbit)))
    else:
        chosen = [faces_of(fam) for fam in families]

    complexes = [SimplicialComplex(m, frozenset(faces)) for faces in chosen]
    complexes.sort(key=lambda k: (len(k.faces), tuple(sorted(k.faces))))
    return tuple(complexes)
