"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GassmannError",
    "InvalidPermutation",
    "NotASubgroup",
    "OrderCapExceeded",
    "IndexMismatch",
    "NotFoundWithinBudget",
    "MixedSigns",
    "NonSquare",
    "SingularMatrix",
    "PreconditionViolated",
    "DimensionMismatch",
    "CoprimalityViolated",
    "NotPrime",
    "EvenIndex",
    "UnsupportedSignature",
    "NotNormal",
    "NotCoprime",
    "ParseError",
]


class GassmannError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutation(GassmannError):
    """Image list is not a bijection, or degrees do not match."""


class NotASubgroup(GassmannError):
    """Asserted subgroup relation between two groups does not hold."""


class OrderCapExceeded(GassmannError):
    """Element enumeration passed the configured order cap."""


class IndexMismatch(GassmannError):
    """Two subgroups were required to have equal index but do not."""


class NotFoundWithinBudget(GassmannError):
    """Search exhausted its budget without a hit; not a nonexistence proof.

    Carries the search statistics so callers can report the outcome.
    """

    def __init__(self, message: str, *, trials: int, exhausted: bool,
                 coeff_bound: int = 0, basis_size: int = 0) -> None:
        super().__init__(message)
        self.trials = trials
        self.exhausted = exhausted
        self.coeff_bound = coeff_bound
        self.basis_size = basis_size


class MixedSigns(GassmannError):
    """Row-sum and column-sum eigenvalues disagree (non-equivariant input)."""


class NonSquare(GassmannError):
    """Operation requires a square matrix."""


class SingularMatrix(GassmannError):
    """Operation requires a nonsingular matrix."""


class PreconditionViolated(GassmannError):
    """Stated precondition of a bound check does not hold."""


class DimensionMismatch(GassmannError):
    """Matrix and lattice dimensions are incompatible."""


class CoprimalityViolated(GassmannError):
    """A coprimality precondition fails."""


class NotPrime(GassmannError):
    """Argument must be a prime number."""


class EvenIndex(GassmannError):
    """K-group index n must be odd."""


class UnsupportedSignature(GassmannError):
    """Structure rule is ill-formed for this signature (r1 = 0, n = 3 mod 8)."""


class NotNormal(GassmannError):
    """Subgroup fails the required normality/containment condition."""


class NotCoprime(GassmannError):
    """Coefficient order shares a factor with the subgroup index."""


class ParseError(GassmannError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, *, line: int | None = None,
                 path: str | None = None) -> None:
        where = ""
        if path is not None:
            where += f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)
        self.line = line
        self.path = path
