"""Exception types shared across the library.

Everything inherits from PolyprodError so callers can catch library failures
with one except clause; input-shaped problems additionally inherit ValueError.
"""


class PolyprodError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PolyprodError, ValueError):
    """Malformed or out-of-contract input."""


# -- simplicial complexes -----------------------------------------------------

class FaceNotInComplex(InputError):
    def __init__(self, face):
        self.face = tuple(face)
        super().__init__(f"{self.face} is not a face of the complex")


class SearchBoundExceeded(PolyprodError):
    """An exhaustive search (relabellings, subsets) would exceed its bound."""


# -- chain complexes ----------------------------------------------------------

class BoundaryNotSquareZero(PolyprodError):
    """The composite of two consecutive boundary maps is nonzero."""

    def __init__(self, degree, detail=""):
        self.degree = degree
        msg = f"boundary does not square to zero at degree {degree}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class NotASubcomplex(InputError):
    """Quotient requested along a basis split whose complement is not closed."""


class ArityMismatch(InputError):
    """Number of pair models does not match the number of vertices."""


class BudgetExceeded(PolyprodError):
    """A tensor basis would exceed the configured cell budget."""

    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(f"construction needs {needed} cells, budget is {budget}")


# -- polyhedral products ------------------------------------------------------

class PairNotCertified(InputError):
    """A pair model lacks a structural certificate that A -> X is null-homotopic."""


class NotShifted(InputError):
    """Operation requires a shifted complex (under some vertex relabelling)."""


class TorsionInShiftedSubcomplex(PolyprodError):
    """A full subcomplex of a shifted complex showed torsion; input was not shifted."""


# -- series and toric ---------------------------------------------------------

class SeriesError(InputError):
    """Invalid rational-series operand (zero denominator, non-unit constant term...)."""


class NotPure(InputError):
    """Operation requires all maximal faces to share one dimension."""


class DimensionMismatch(InputError):
    """Matrix or vector shapes are inconsistent with the complex."""


class NonpolynomialQuotient(PolyprodError):
    """(1-t^d)^n * Hilbert series failed to be a polynomial with nonnegative coefficients."""


class InvalidCharacteristic(InputError):
    """Characteristic matrix fails primitivity/independence/unimodularity."""


class RankDeficient(InputError):
    """Matrix does not have the full column rank the operation requires."""
