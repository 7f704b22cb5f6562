"""Exception types shared across the package, and the one integer
syntax its input parsers accept."""

from __future__ import annotations

import re

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
    "ParseError",
]


class GassmannError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutation(GassmannError):
    """Image list is not a bijection, degrees do not match, or a group's
    degree exceeds the cap."""


class NotASubgroup(GassmannError):
    """Asserted subgroup relation between two groups does not hold."""


class OrderCapExceeded(GassmannError):
    """An enumeration, of elements or of candidates, passed its cap."""


class IndexMismatch(GassmannError):
    """Two subgroups were required to have equal index but do not."""


class NotFoundWithinBudget(GassmannError):
    """Search exhausted its budget without a hit; not a nonexistence proof.

    Carries the search statistics so callers can report the outcome.
    """

    def __init__(self, message: str, *, trials: int, exhausted: bool,
                 basis_size: int = 0) -> None:
        super().__init__(message)
        self.trials = trials
        self.exhausted = exhausted
        self.basis_size = basis_size


class MixedSigns(GassmannError):
    """Row or column sums of a matrix are not constant, or not +-1."""


class NonSquare(GassmannError):
    """Operation requires a square matrix."""


class SingularMatrix(GassmannError):
    """Operation requires a nonsingular matrix."""


class PreconditionViolated(GassmannError):
    """Stated precondition of a bound check does not hold."""


class DimensionMismatch(GassmannError):
    """A matrix's size clashes with a lattice rank or a coset index."""


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


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """int(text) for an optionally signed run of ASCII digits; ValueError
    for anything else that int() would take, such as "1_2", " 3" or
    non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
