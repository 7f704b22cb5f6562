"""Gassmann triples and integral equivalence.

A triple (G, H1, H2) of a group with two finite-index subgroups has
equal permutation characters when every conjugacy class has the same
number of fixed cosets on G/H1 and on G/H2.  Integral equivalence asks
for more: a unimodular matrix intertwining the two coset actions.
"""

from __future__ import annotations

import itertools
import random
from operator import add, mul
from typing import Iterator, Sequence, Union

from .errors import (
    MixedSigns,
    NonSquare,
    NotFoundWithinBudget,
    PreconditionViolated,
)
from .lattice import IntMat, det
from .permgroup import (
    CosetSpace,
    GroupLike,
    Permutation,
    _orbits,
    _require_equal_index,
    _require_subgroup,
    coset_action,
)
from .splitting import splitting_table

__all__ = [
    "GassmannTriple",
    "CorrespondenceMatrix",
    "is_gassmann",
    "are_conjugate",
    "permutation_character",
    "intertwiner_basis",
    "integral_search",
    "verify_integral_triple",
]


def permutation_character(group: GroupLike,
                          subgroup: GroupLike) -> tuple[int, ...]:
    """Fixed-coset counts on G/H, one entry per conjugacy class of G
    (in conjugacy_classes order): the 1-parts of its splitting type."""
    return tuple(s.count(1) for s in splitting_table(group, subgroup))


def is_gassmann(group: GroupLike, h1: GroupLike, h2: GroupLike) -> bool:
    """Equal permutation characters on G/H1 and G/H2.

    Fixed-point counts are class functions, so checking one
    representative per class is exact.
    """
    _require_equal_index(group, h1, h2)
    return permutation_character(group, h1) == \
        permutation_character(group, h2)


def are_conjugate(group: GroupLike, h1: GroupLike, h2: GroupLike) -> bool:
    """Whether gH1g^-1 = H2 for some g in the group."""
    _require_subgroup(group, h1)
    _require_subgroup(group, h2)
    if h1.order != h2.order:
        return False
    return _conjugator(group, h1, h2) is not None


def _conjugator(group: GroupLike, h1: GroupLike,
                h2: GroupLike) -> Permutation | None:
    """The first g in element order with gH1g^-1 = H2, or None.

    For subgroups of equal order, gH1g^-1 = H2 exactly when H2 fixes
    the coset gH1, so the search reads the cached table of G/H1, which a
    caller testing many H2 against one H1 builds only once."""
    if h1.order != h2.order:
        return None
    cosets = coset_action(group, h1)
    fixed = _fixed_cosets(cosets, h2)
    if not fixed:
        return None
    return next(g for g in group.elements
                if cosets.coset_index_of(g) in fixed)


def _fixed_cosets(cosets: CosetSpace, d: GroupLike) -> set[int]:
    """The cosets that every generator of D fixes; their number is the
    mark of D on G/H."""
    moves = [cosets.permutation_of(x) for x in d.generators]
    return {c for c in range(cosets.index)
            if all(move[c] == c for move in moves)}


class GassmannTriple:
    """(G, H1, H2) with equal index and equal permutation characters,
    both checked at construction by is_gassmann."""

    def __init__(self, group: GroupLike, h1: GroupLike,
                 h2: GroupLike) -> None:
        if not is_gassmann(group, h1, h2):
            raise PreconditionViolated(
                "permutation characters differ: not a Gassmann triple")
        self.group = group
        self.h1 = h1
        self.h2 = h2
        self.cosets1 = coset_action(group, h1)
        self.cosets2 = coset_action(group, h2)
        self.index = self.cosets1.index

    def __repr__(self) -> str:
        return (f"GassmannTriple(|G|={self.group.order}, "
                f"index={self.index})")


class CorrespondenceMatrix:
    """Unimodular matrix intertwining the two coset actions.

    Rows are indexed by G/H2 cosets and columns by G/H1 cosets, so the
    equivariance condition reads A[s2(r)][s1(c)] = A[r][c].  The all-ones
    vector is an eigenvector of A and of A^T with a common eigenvalue
    `sign` in {+1, -1}.  `triple` may be None for a matrix supplied
    without group context (the lattice pipeline accepts those).
    """

    def __init__(self, a: IntMat,
                 triple: GassmannTriple | None = None) -> None:
        if not a.is_square:
            raise NonSquare("correspondence matrices are square")
        d = det(a)
        if d not in (1, -1):
            raise ValueError(f"not unimodular: det = {d}")
        eps = _ones_eigenvalue(a)
        if triple is not None:
            if a.nrows != triple.index:
                raise NonSquare(
                    f"size {a.nrows} does not match index {triple.index}")
            bad = _equivariance_failures(a, triple)
            if bad:
                raise PreconditionViolated(
                    "not equivariant on generators: " + ", ".join(bad))
        self.A = a
        self.triple = triple
        self.sign = eps
        self.det = d

    def __repr__(self) -> str:
        return (f"CorrespondenceMatrix(n={self.A.nrows}, det={self.det}, "
                f"sign={self.sign})")


def _ones_eigenvalue(a: IntMat) -> int:
    """The common row/column sum; MixedSigns when sums are inconsistent
    or not a unit (a unimodular equivariant matrix always has one)."""
    row_sums = {sum(row) for row in a.rows}
    col_sums = {sum(a.column(j)) for j in range(a.ncols)}
    if len(row_sums) != 1 or len(col_sums) != 1:
        raise MixedSigns("row or column sums are not constant")
    (eps_row,), (eps_col,) = row_sums, col_sums
    if eps_row != eps_col:
        raise MixedSigns(
            f"row-sum eigenvalue {eps_row} != column-sum {eps_col}")
    if eps_row not in (1, -1):
        raise MixedSigns(f"eigenvalue {eps_row} is not a unit")
    return eps_row


def _equivariance_failures(a: IntMat, triple: GassmannTriple) -> list[str]:
    failures = []
    n = a.nrows
    for g in triple.group.generators:
        s1 = triple.cosets1.permutation_of(g)
        s2 = triple.cosets2.permutation_of(g)
        ok = all(a[s2[r], s1[c]] == a[r, c]
                 for r in range(n) for c in range(n))
        if not ok:
            failures.append(g.format())
    return failures


def intertwiner_basis(group: GroupLike, h1: GroupLike,
                      h2: GroupLike) -> list[IntMat]:
    """0/1 basis of the integer intertwiner space.

    The group acts on (G/H2)-row x (G/H1)-column index pairs, the cell
    r*n + c; each orbit gives one basis matrix, and the orbits partition
    all of the pairs, so every equivariant integer matrix is a unique
    integer combination.  Orbits are sorted by their least pair.
    """
    _require_equal_index(group, h1, h2)
    cosets1 = coset_action(group, h1)
    cosets2 = coset_action(group, h2)
    n = cosets1.index
    actions = [(cosets2.permutation_of(g), cosets1.permutation_of(g))
               for g in group.generators]
    # the moves of the n^2 cells are freed before the basis is built
    orbit, count = _orbits([[row * n + col for row in s2 for col in s1]
                            for s2, s1 in actions], n * n)
    basis = [[[0] * n for _ in range(n)] for _ in range(count)]
    for cell, d in enumerate(orbit):
        basis[d][cell // n][cell % n] = 1
    return [IntMat(rows) for rows in basis]


def _orbit_structure(basis: Sequence[IntMat]) -> tuple[list[list[int]],
                                                       list[int]]:
    """(orbit number of each cell, per-orbit count of cells in each row).

    The orbits are disjoint, so the orbit numbers are sum(d B_d).  Row
    transitivity makes the per-row count constant, so the row sum of any
    combination sum(c_d B_d) is sum(c_d k_d) independent of the row.
    """
    orbit_id = [[0] * len(row) for row in basis[0].rows]
    for d, b in enumerate(basis[1:], start=1):
        for row, cells in zip(orbit_id, b.rows):
            row[:] = map(add, row, map(d.__mul__, cells))
    return orbit_id, [sum(b.rows[0]) for b in basis]


def _assemble(orbit_id: Sequence[Sequence[int]],
              coeffs: Sequence[int]) -> IntMat:
    return IntMat([[coeffs[oid] for oid in row] for row in orbit_id])


def _conjugate_correspondence(triple: GassmannTriple,
                              g: Permutation) -> CorrespondenceMatrix:
    """The coset bijection xH1 -> xg^-1 H2 as a permutation matrix."""
    n = triple.index
    g_inv = g.inverse()
    rows = [[0] * n for _ in range(n)]
    for c, rep in enumerate(triple.cosets1.coset_reps):
        rows[triple.cosets2.coset_index_of(rep * g_inv)][c] = 1
    return CorrespondenceMatrix(IntMat(rows), triple)


def _compositions(total: int, k: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every k-tuple of integers in [0, cap] summing to total <= k * cap,
    in lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(max(0, total - cap * (k - 1)), min(cap, total) + 1):
        for rest in _compositions(total - first, k - 1, cap):
            yield (first, *rest)


def _box_in_l1_order(k: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Every point of {-bound..bound}^k, lazily, by L1 norm, then by the
    tuple of magnitudes, then by signs with + before -."""
    for norm in range(k * bound + 1):
        for m in _compositions(norm, k, bound):
            yield from itertools.product(*[(x, -x) if x else (0,) for x in m])


def integral_search(group: GroupLike, h1: GroupLike, h2: GroupLike,
                    coeff_bound: int, budget: int, *,
                    seed: int = 0) -> CorrespondenceMatrix:
    """Search for a unimodular intertwiner.

    Conjugate subgroups short-circuit to the coset bijection.  Otherwise
    candidates are integer combinations of the k orbit-basis matrices
    with coefficients in [-coeff_bound, coeff_bound].  When the whole
    box fits the budget, (2 coeff_bound + 1)^k <= budget, the search is
    exhaustive and tries the box in order of L1 norm; beyond that it
    draws `budget` seeded-random points of the box.  Only combinations
    whose constant row sum is +-1 can be unimodular, which prunes most
    candidates before any determinant is computed; a hit is scaled by
    its row sum, so the matrix found has row sums +1.

    Raises NotFoundWithinBudget with search statistics on failure; that
    is a report, not a nonexistence proof (except when `exhausted`).
    ValueError for a negative bound or budget.
    """
    if coeff_bound < 0 or budget < 0:
        raise ValueError(f"bound and budget must be nonnegative: "
                         f"{coeff_bound}, {budget}")
    triple = GassmannTriple(group, h1, h2)
    g = _conjugator(group, h1, h2)
    if g is not None:
        return _conjugate_correspondence(triple, g)

    # the grid stands in for the k dense 0/1 matrices, which then need
    # not stay alive through the determinants
    orbit_id, row_counts = _orbit_structure(
        intertwiner_basis(group, h1, h2))
    k = len(row_counts)
    exhaustive = (2 * coeff_bound + 1) ** k <= budget
    if exhaustive:
        candidates = _box_in_l1_order(k, coeff_bound)
    else:
        rng = random.Random(seed)
        candidates = ([rng.randint(-coeff_bound, coeff_bound)
                       for _ in range(k)] for _ in range(budget))
    trials = 0
    for coeffs in candidates:
        trials += 1
        row_sum = sum(map(mul, coeffs, row_counts))
        if row_sum in (1, -1):
            a = _assemble(orbit_id, [row_sum * c for c in coeffs])
            if det(a) in (1, -1):
                return CorrespondenceMatrix(a, triple)
    raise NotFoundWithinBudget(
        "no unimodular combination in the coefficient box" if exhaustive
        else f"no unimodular combination in {budget} random samples",
        trials=trials, exhausted=exhaustive, coeff_bound=coeff_bound,
        basis_size=k)


def verify_integral_triple(triple: GassmannTriple,
                           a: Union[IntMat, CorrespondenceMatrix]) -> dict:
    """Full report on a candidate intertwiner.

    Checks unimodularity, equivariance generator by generator, the
    common +-1 eigenvalue on the all-ones vector, and, for non-conjugate
    subgroup pairs, that every row of A and of A^-1 has at least two
    nonzero entries.  Failures are reported, never raised.
    """
    if isinstance(a, CorrespondenceMatrix):
        a = a.A
    if not a.is_square:
        raise NonSquare("candidate must be square")
    if a.nrows != triple.index:
        raise NonSquare(
            f"size {a.nrows} does not match index {triple.index}")
    conjugate = are_conjugate(triple.group, triple.h1, triple.h2)
    # A^-1 is only read for a non-conjugate pair
    d, adj = (det(a), None) if conjugate else a._elimination
    unimodular = d in (1, -1)
    failures = _equivariance_failures(a, triple)

    try:
        sign = _ones_eigenvalue(a)
    except MixedSigns:
        sign = None
    sign_consistent = sign is not None

    report = {
        "det": d,
        "unimodular": unimodular,
        "equivariant": not failures,
        "equivariance_failures": failures,
        "sign": sign,
        "sign_consistent": sign_consistent,
        "conjugate_pair": conjugate,
    }
    if not conjugate:
        report["rows_multi_support"] = _rows_multi_support(a)
        # adj A = +-A^-1 when A is unimodular, with the same supports
        report["inverse_rows_multi_support"] = \
            _rows_multi_support(adj) if unimodular else None
    passed = unimodular and not failures and sign_consistent
    if not conjugate:
        passed = passed and report["rows_multi_support"] \
            and bool(report["inverse_rows_multi_support"])
    report["passed"] = passed
    return report


def _rows_multi_support(a: IntMat) -> bool:
    return all(sum(1 for x in row if x) >= 2 for row in a.rows)
