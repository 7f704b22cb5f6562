"""Local lattice model of corresponding abelian extensions.

Over a prime split completely into n primes, a norm lattice sits inside
Z^n with finite index; a unimodular intertwiner transports it by its
transpose, and the largest normal sublattice reads off the splitting
type on the other side.  Chaining these gives the constructive
separation of weak Kronecker equivalence: start from diag(1, q, ..., q)
and watch the transported gcd jump from 1 to q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from ._primes import iter_primes
from .errors import (
    CoprimalityViolated,
    DimensionMismatch,
    NonSquare,
    PreconditionViolated,
)
from .lattice import (
    IntMat,
    LocalNormLattice,
    adjugate,  # unused here; perfbench/selftest.py reads abelext.adjugate
    maximal_normal_sublattice,
)
from .permgroup import GroupLike, _require_subgroup, coset_action
from .splitting import SplittingType
from .triples import CorrespondenceMatrix, _fixed_cosets, is_gassmann

__all__ = [
    "LocalModel",
    "transport_lattice",
    "local_splitting_type",
    "choose_q",
    "notwkeq_construct",
    "decomposition_count_check",
]

MatrixLike = Union[IntMat, CorrespondenceMatrix]


def _raw_matrix(a: MatrixLike) -> IntMat:
    return a.A if isinstance(a, CorrespondenceMatrix) else a


def _require_unimodular(a: IntMat) -> set[int]:
    """Check that A is square with det A = +-1 and return its nonzero
    |cofactors|, the |entries| of adj A = +-A^-1, from A's cached pass."""
    if not a.is_square:
        raise NonSquare("transport needs a square matrix")
    d, adj = a._elimination
    if d not in (1, -1):
        raise PreconditionViolated(f"not unimodular: det = {d}")
    return {abs(entry) for row in adj.rows for entry in row} - {0}


@dataclass(frozen=True)
class LocalModel:
    """One completely split prime's worth of data.

    `synthetic` is True when the matrix came without a verified triple,
    which the construction permits: the lattice pipeline is meaningful
    for any unimodular matrix.
    """

    n: int
    L1_prime: LocalNormLattice
    A: MatrixLike
    q: int

    @property
    def synthetic(self) -> bool:
        return not (isinstance(self.A, CorrespondenceMatrix)
                    and self.A.triple is not None)

    @classmethod
    def standard(cls, a: MatrixLike, q: int) -> "LocalModel":
        """The model with L1' = diag(1, q, ..., q)."""
        raw = _raw_matrix(a)
        _require_unimodular(raw)
        n = raw.nrows
        basis = IntMat.diagonal([1] + [q] * (n - 1))
        return cls(n, LocalNormLattice(basis), a, q)


def transport_lattice(a: MatrixLike,
                      l1_prime: LocalNormLattice) -> LocalNormLattice:
    """L2' = A^T . L1' (column span of the transformed basis).

    A unimodular transpose preserves the index.
    """
    raw = _raw_matrix(a)
    _require_unimodular(raw)
    if raw.ncols != l1_prime.rank:
        raise DimensionMismatch(
            f"matrix size {raw.ncols} != lattice rank {l1_prime.rank}")
    return LocalNormLattice(raw.transpose() @ l1_prime.basis)


def local_splitting_type(
        l_prime: Union[LocalNormLattice, IntMat]) -> SplittingType:
    """Residue degrees of the modeled extension: the multipliers of the
    largest sublattice spanned by multiples of the standard basis."""
    basis = l_prime.basis if isinstance(l_prime, LocalNormLattice) else l_prime
    return SplittingType(maximal_normal_sublattice(basis))


def choose_q(a: MatrixLike) -> int:
    """Least prime dividing no nonzero cofactor of the unimodular A.

    Cofactors are the adjugate's entries (transposed, which does not
    change the set).  PreconditionViolated when det A is not +-1.
    """
    cofactors = _require_unimodular(_raw_matrix(a))
    return next(p for p in iter_primes()
                if all(value % p for value in cofactors))


def notwkeq_construct(
        a: MatrixLike,
        q: int) -> tuple[SplittingType, SplittingType, int, int]:
    """The separation pipeline: (S1, S2, gcd S1, gcd S2).

    S1 is the splitting type of diag(1, q, ..., q), always {{1, q, ..., q}}
    with gcd 1.  S2 is the type of the transported lattice; when every
    row of A^-1 has a nonzero entry outside the first column, S2 is
    {{q, ..., q}} with gcd q, separating the two sides under the gcd test.
    """
    cofactors = _require_unimodular(_raw_matrix(a))
    if q < 2:
        raise ValueError(f"q must be at least 2: {q}")
    offenders = sorted(v for v in cofactors if gcd(q, v) > 1)
    if offenders:
        raise CoprimalityViolated(
            f"q = {q} shares a factor with cofactor(s) {offenders}")
    l1_prime = LocalModel.standard(a, q).L1_prime
    s1 = local_splitting_type(l1_prime)
    s2 = local_splitting_type(transport_lattice(a, l1_prime))
    return s1, s2, s1.gcd(), s2.gcd()


def decomposition_count_check(group: GroupLike, h1: GroupLike,
                              h2: GroupLike, d: GroupLike) -> bool:
    """Whether the two subgroups absorb equally many conjugates of a
    decomposition group D; counts group elements g with gDg^-1 inside
    each side.  gDg^-1 lies in H exactly when D fixes the coset g^-1 H,
    so the count is |H| times the mark of D on G/H, the number of cosets
    that D fixes on the cached coset action.  A Gassmann triple has
    equal |H| and equal marks on cyclic D, so it can fail only for a
    non-cyclic D."""
    _require_subgroup(group, d)
    if not is_gassmann(group, h1, h2):
        raise PreconditionViolated("not a Gassmann triple")
    marks = [len(_fixed_cosets(coset_action(group, h), d)) for h in (h1, h2)]
    return h1.order * marks[0] == h2.order * marks[1]
