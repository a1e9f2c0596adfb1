"""Characteristic matrices over pure complexes and the invariants they carry.

An m x n integer matrix assigns a primitive vector to each vertex; it is
admissible when the rows indexed by any face are independent and the rows of
any maximal face span a unimodular lattice.  Under that contract the
associated quotient space has cells only in even dimensions, so its Betti
numbers are the h-vector and its cohomology is the face ring modulo n linear
forms (the columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .complexes import Diagnostic, SimplicialComplex, vertices_from_mask
from .errors import (
    DimensionMismatch,
    InputError,
    InvalidCharacteristic,
    NonpolynomialQuotient,
    NotPure,
    RankDeficient,
)
from .homology import smith_normal_form
from .series import RationalSeries, geometric_denominator
from .stanley_reisner import IdealPresentation, sr_hilbert_series, sr_presentation


@dataclass(frozen=True)
class CharacteristicMatrix:
    """Integer matrix with one row per vertex; columns span the acting torus."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CharacteristicMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if not data:
            raise InputError("characteristic matrix needs at least one row")
        width = len(data[0])
        if width < 1:
            raise InputError("characteristic matrix needs at least one column")
        if any(len(r) != width for r in data):
            raise DimensionMismatch("ragged characteristic matrix")
        return cls(data)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def submatrix(self, vertices: Sequence[int]) -> list[list[int]]:
        return [list(self.rows[v - 1]) for v in vertices]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)


def _require_pure(k: SimplicialComplex, n: int) -> None:
    for mask in k.maximal_faces:
        if mask.bit_count() != n:
            raise NotPure(
                f"maximal face {vertices_from_mask(mask)} has {mask.bit_count()} "
                f"vertices, expected {n}")


def validate_characteristic(k: SimplicialComplex,
                            lam: CharacteristicMatrix) -> list[Diagnostic]:
    """Diagnostics for the admissibility conditions; empty means valid.

    Raises NotPure / DimensionMismatch when the shapes themselves are wrong;
    condition failures (non-primitive row, dependent or non-unimodular face)
    come back as the diagnostic list.
    """
    if lam.m != k.m:
        raise DimensionMismatch(f"{lam.m} rows for m = {k.m} vertices")
    _require_pure(k, lam.n)
    out: list[Diagnostic] = []
    for i, row in enumerate(lam.rows, start=1):
        if gcd(*row) != 1:
            out.append(Diagnostic("row_not_primitive",
                                  f"row {i} = {row} has entry gcd != 1",
                                  vertex=i))
    for mask in k.faces_sorted():
        size = mask.bit_count()
        if size == 0:
            continue
        verts = vertices_from_mask(mask)
        snf = smith_normal_form(lam.submatrix(verts))
        if snf.rank < size:
            out.append(Diagnostic(
                "face_rows_dependent",
                f"rows of face {verts} have rank {snf.rank} < {size}",
                face=verts))
        elif size == lam.n and any(d != 1 for d in snf.diagonal):
            det = 1
            for d in snf.diagonal:
                det *= d
            out.append(Diagnostic(
                "face_not_unimodular",
                f"rows of maximal face {verts} have |det| = {det}",
                face=verts))
    return out


def ensure_characteristic(k: SimplicialComplex,
                          lam: CharacteristicMatrix) -> None:
    problems = validate_characteristic(k, lam)
    if problems:
        raise InvalidCharacteristic("; ".join(d.message for d in problems))


@dataclass(frozen=True)
class ToricReport:
    """Even-dimensional Betti numbers b_0..b_{2n}, their sum, and the
    polynomial (1 - t^2)^n * Hilbert series backing them."""

    betti: tuple[int, ...]
    euler: int
    h_vector: tuple[int, ...]
    quotient_polynomial: tuple[int, ...]


def toric_betti(k: SimplicialComplex, n: int) -> ToricReport:
    """Betti numbers of the quotient space: b_{2i} = h_i, odd degrees zero.

    Derives the h-vector twice — combinatorially from the f-vector and as
    the polynomial (1 - t^2)^n * Hilbert series — and requires the two to
    agree with nonnegative entries.
    """
    if n < 1:
        raise InputError("torus rank n must be >= 1")
    if n != k.dim() + 1:
        raise DimensionMismatch(
            f"torus rank {n} does not match dim K + 1 = {k.dim() + 1}")
    _require_pure(k, n)
    product = (RationalSeries.make(geometric_denominator(2, n))
               * sr_hilbert_series(k, 2))
    if not product.is_polynomial():
        raise NonpolynomialQuotient(
            "(1 - t^2)^n * Hilbert series has a nontrivial denominator")
    poly = product.as_polynomial()
    h = k.h_vector()
    expected = tuple(h[i // 2] if i % 2 == 0 else 0
                     for i in range(2 * n + 1))
    padded = poly + (0,) * (2 * n + 1 - len(poly))
    if padded != expected:
        raise NonpolynomialQuotient(
            f"series h-polynomial {poly} disagrees with the f-vector "
            f"transform {h}")
    if any(x < 0 for x in h):
        raise NonpolynomialQuotient(
            f"h-vector {h} has negative entries; no cell structure with "
            f"even cells only can realize it")
    betti = expected
    return ToricReport(betti, sum(h), h, poly)


@dataclass(frozen=True)
class ToricPresentation:
    """Face-ring presentation plus the n linear forms cutting it down.

    linear_relations holds the raw columns (theta_j = sum_i lambda_ij x_i);
    display_relations is a row-reduced, sign-normalized rendering of the
    same lattice for human consumption.
    """

    ideal: IdealPresentation
    linear_relations: tuple[tuple[int, ...], ...]
    display_relations: tuple[str, ...]


def _reduce_rows_for_display(rows: list[list[int]]) -> list[list[int]]:
    """Integer row reduction (echelon over Z, leading entries positive)."""
    rows = [r[:] for r in rows]
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    top = 0
    for col in range(width):
        pivot = None
        for i in range(top, n_rows):
            if rows[i][col]:
                if pivot is None or abs(rows[i][col]) < abs(rows[pivot][col]):
                    pivot = i
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        while True:
            done = True
            for i in range(top + 1, n_rows):
                if rows[i][col]:
                    q = rows[i][col] // rows[top][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[top])]
                    if rows[i][col]:
                        rows[top], rows[i] = rows[i], rows[top]
                        done = False
                        break
            if done:
                break
        if rows[top][col] < 0:
            rows[top] = [-x for x in rows[top]]
        for i in range(top):
            q = rows[i][col] // rows[top][col]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[top])]
        top += 1
        if top == n_rows:
            break
    return rows


def _linear_form_string(coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for i, c in enumerate(coeffs, start=1):
        if not c:
            continue
        term = f"x{i}" if abs(c) == 1 else f"{abs(c)}*x{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def toric_presentation(k: SimplicialComplex,
                       lam: CharacteristicMatrix) -> ToricPresentation:
    """Generators x_1..x_m in degree 2, monomial relations from the minimal
    non-faces, and one linear relation per column of the matrix."""
    ensure_characteristic(k, lam)
    ideal = sr_presentation(k, 2)
    columns = tuple(lam.column(j) for j in range(lam.n))
    reduced = _reduce_rows_for_display([list(c) for c in columns])
    display = tuple(_linear_form_string(r) for r in reduced)
    return ToricPresentation(ideal, columns, display)


def kernel_lattice_basis(lam: CharacteristicMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the left-kernel lattice {v : v * lam = 0}, as m-vectors.

    The last m - n rows of the unimodular row transform U from U*lam*V = D
    span exactly that lattice, so the basis extends to a basis of Z^m.
    """
    snf = smith_normal_form([list(r) for r in lam.rows], with_transforms=True)
    if snf.rank < lam.n:
        raise RankDeficient(
            f"column rank {snf.rank} < n = {lam.n}; kernel is not a torus "
            f"complement")
    return tuple(snf.u[snf.rank:])
