"""Exact rational power series in one variable over Z.

Polynomials are plain coefficient lists (index = exponent).  A RationalSeries
is a reduced fraction num/den of integer polynomials with den(0) > 0; equality
is exact cross-multiplication, expansion is exact integer long division
(requires den(0) = 1, which every series built by this package satisfies).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import SeriesError


# -- integer polynomial helpers ------------------------------------------------

def poly_trim(p: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_neg(a: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in a)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a: Sequence[int], k: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_divmod_exact(num: Sequence[int], den: Sequence[int]):
    """(quotient, remainder) of integer polynomial division; needs den[0] = +-1.

    Division runs from the constant term upward, which is the right direction
    for series denominators like (1 - t^d)^k.
    """
    den = poly_trim(den)
    if not den or abs(den[0]) != 1:
        raise SeriesError("exact division requires a unit constant term")
    rem = list(num)
    if len(rem) < len(den):
        rem += [0] * (len(den) - len(rem))
    quot = [0] * max(len(rem) - len(den) + 1, 1)
    for i in range(len(rem) - len(den) + 1):
        q = rem[i] * den[0]          # den[0] in {1, -1}
        quot[i] = q
        if q:
            for j, y in enumerate(den):
                rem[i + j] -= q * y
    return poly_trim(quot), poly_trim(rem)


def geometric_denominator(d: int, k: int) -> tuple[int, ...]:
    """(1 - t^d)^k as a coefficient tuple."""
    base = [1] + [0] * (d - 1) + [-1]
    return poly_pow(base, k)


def _content(p: Sequence[int]) -> int:
    g = 0
    for x in p:
        g = gcd(g, abs(x))
    return g


# -- rational series -----------------------------------------------------------

@dataclass(frozen=True)
class RationalSeries:
    """num/den with den(0) > 0, reduced by integer content.

    Use RationalSeries.make (or the module helpers) rather than the raw
    constructor so normalization always runs.
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    @classmethod
    def make(cls, num: Sequence[int], den: Sequence[int] = (1,)) -> "RationalSeries":
        num = poly_trim(num)
        den = poly_trim(den)
        if not den:
            raise SeriesError("zero denominator")
        if den[0] == 0:
            raise SeriesError("denominator must have a nonzero constant term")
        if not num:
            return cls((), (1,))
        g = gcd(_content(num), _content(den))
        if g > 1:
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
        if den[0] < 0:
            num = poly_neg(num)
            den = poly_neg(den)
        return cls(num, den)

    @classmethod
    def one(cls) -> "RationalSeries":
        return cls.make((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "RationalSeries":
        return cls.make([0] * degree + [coeff])

    # arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries.make(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries.make(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __pow__(self, k: int) -> "RationalSeries":
        if k < 0:
            raise SeriesError("negative powers are not supported")
        return RationalSeries.make(poly_pow(self.num, k), poly_pow(self.den, k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    # cross-multiplied equality has no cheap consistent hash; keep unhashable
    __hash__ = None

    # queries -----------------------------------------------------------

    def constant_term(self) -> int:
        if not self.num:
            return 0
        if abs(self.den[0]) != 1:
            raise SeriesError("constant term not integral")
        return self.num[0] * self.den[0]

    def is_polynomial(self) -> bool:
        if not self.num:
            return True
        if abs(self.den[0]) != 1:
            return False
        _, rem = poly_divmod_exact(self.num, self.den)
        return not rem

    def as_polynomial(self) -> tuple[int, ...]:
        quot, rem = poly_divmod_exact(self.num, self.den)
        if rem:
            raise SeriesError("series is not a polynomial")
        return quot

    def expansion(self, order: int) -> tuple[int, ...]:
        """Coefficients through degree `order` (inclusive), exact integers:
        the quotient of num by den, both cut after degree `order`."""
        if order < 0:
            raise SeriesError("expansion order must be >= 0")
        if not self.num:
            return (0,) * (order + 1)
        if abs(self.den[0]) != 1:
            raise SeriesError("expansion requires a unit constant term")
        den = poly_trim(self.den[:order + 1])
        dividend = list(self.num[:order + 1])
        dividend += [0] * (order + len(den) - len(dividend))
        quot, _ = poly_divmod_exact(dividend, den)
        return quot + (0,) * (order + 1 - len(quot))
