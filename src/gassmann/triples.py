"""Gassmann triples and integral equivalence.

A triple (G, H1, H2) of a group with two finite-index subgroups has
equal permutation characters when every conjugacy class has the same
number of fixed cosets on G/H1 and on G/H2.  Integral equivalence asks
for more: a unimodular matrix intertwining the two coset actions.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from operator import mul
from typing import Iterator, Sequence, Union

from .errors import (
    DimensionMismatch,
    MixedSigns,
    NonSquare,
    NotFoundWithinBudget,
    OrderCapExceeded,
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

# k*n^2, the entries of the k dense n x n orbit matrices of a basis: room
# for 33 orbits at index 620 (12,685,200 entries)
_BASIS_CAP = 16_000_000


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
    _require_subgroup(group, h1, h2)
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
        self.index = group.order // h1.order

    @property
    def cosets1(self) -> CosetSpace:
        """G/H1: the group's cached coset action, built when first read."""
        return coset_action(self.group, self.h1)

    @property
    def cosets2(self) -> CosetSpace:
        return coset_action(self.group, self.h2)

    @cached_property
    def _space(self) -> _IntertwinerSpace:
        return _IntertwinerSpace(self)

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
                raise DimensionMismatch(
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
    """The common row/column sum of a square matrix (n r = n c when both
    are constant); MixedSigns when the sums are not constant or not a
    unit (a unimodular equivariant matrix always has one)."""
    row_sums = {sum(row) for row in a.rows}
    col_sums = {sum(a.column(j)) for j in range(a.ncols)}
    if len(row_sums) != 1 or len(col_sums) != 1:
        raise MixedSigns("row or column sums are not constant")
    (eps,) = row_sums
    if eps not in (1, -1):
        raise MixedSigns(f"eigenvalue {eps} is not a unit")
    return eps


def _equivariance_failures(a: IntMat, triple: GassmannTriple) -> list[str]:
    failures = []
    for g in triple.group.generators:
        s1 = triple.cosets1.permutation_of(g)
        s2 = triple.cosets2.permutation_of(g)
        if any(a.rows[s2[r]][s1[c]] != x
               for r, row in enumerate(a.rows) for c, x in enumerate(row)):
            failures.append(g.format())
    return failures


def intertwiner_basis(group: GroupLike, h1: GroupLike,
                      h2: GroupLike) -> list[IntMat]:
    """0/1 basis of the integer intertwiner space.

    The group acts on (G/H2)-row x (G/H1)-column cells; each orbit gives
    one basis matrix, and the orbits partition the cells, so every
    equivariant integer matrix is a unique integer combination.  Every
    orbit meets column 0, the coset H1, in one orbit of H1 on G/H2, so
    the search runs on n points.  The other columns follow G/H1's coset
    walk: coset j was reached from coset i by a generator g, and (r, i)
    and (s2[r], j) share an orbit, s2 being g's permutation of G/H2, so
    column j is column i read through s2^-1.  An orbit's least cell lies
    in row 0, so the orbits are numbered by their first cell there.
    OrderCapExceeded, before any column is built, when the k matrices
    would hold more than _BASIS_CAP entries.
    """
    _require_equal_index(group, h1, h2)
    cosets1 = coset_action(group, h1)
    cosets2 = coset_action(group, h2)
    n = cosets1.index
    column0, k = _orbits([cosets2.permutation_of(h) for h in h1.generators],
                         n)
    if k * n * n > _BASIS_CAP:
        raise OrderCapExceeded(
            f"{k} orbit matrices of size {n}x{n} hold {k * n * n} entries, "
            f"over the cap {_BASIS_CAP}")
    moves = [cosets2.permutation_of(g).inverse() for g in group.generators]
    columns = [column0]
    for i, via in zip(cosets1.parent, cosets1.via):
        columns.append(list(map(columns[i].__getitem__, moves[via])))
    # basis[d] is the orbit through H1's orbit d in column 0, listed by
    # its first cell in row 0
    basis = [[[0] * n for _ in range(n)] for _ in range(k)]
    for r, row in enumerate(zip(*columns)):
        rows = [b[r] for b in basis]
        for c, d in enumerate(row):
            rows[d][c] = 1
    row0 = dict.fromkeys(column[0] for column in columns)
    return [IntMat(basis[d]) for d in row0]


class _IntertwinerSpace:
    """The intertwiners A = sum(c_d B_d) over the k orbit matrices B_d.

    `grid[r][c]` is the orbit of the cell (r, c).  G is transitive on
    rows and on columns, so orbit d has `counts[d]` cells in every row
    and as many in every column, and it meets row 0.

    M(c)[f][e] = sum(gamma[f][e][d] c_d) is the matrix of B -> B A,
    Hom_G(Z[G/H2], Z[G/H1]) -> End_G(Z[G/H1]): the coefficient of T_f
    (orbit f of G on G/H1 x G/H1) in B_e^T A is its entry at (0, c_f),
    c_f the least point of the f-th H1-orbit on G/H1 (k of them by the
    Gassmann property, else PreconditionViolated), so gamma[f][e][d]
    counts the rows j with orbit(j, 0) = e and orbit(j, c_f) = d.  A is
    unimodular exactly when det M(c) = +-1 (B A = I forces det A = +-1;
    conversely A^-1 is equivariant), singular exactly when det M(c) = 0.
    """

    def __init__(self, triple: GassmannTriple) -> None:
        basis = intertwiner_basis(triple.group, triple.h1, triple.h2)
        self.grid = [[cell.index(1) for cell in zip(*rows)]
                     for rows in zip(*(b.rows for b in basis))]
        self.counts = [sum(b.rows[0]) for b in basis]
        h1_orbit, k = _orbits(
            [triple.cosets1.permutation_of(h) for h in triple.h1.generators],
            triple.index)
        if k != len(basis):
            raise PreconditionViolated(
                f"H1 has {k} orbits on G/H1 but k = {len(basis)}")
        self.gamma = [[[0] * k for _ in range(k)] for _ in range(k)]
        for gamma_f, c_f in zip(self.gamma, map(h1_orbit.index, range(k))):
            for row in self.grid:
                gamma_f[row[0]][row[c_f]] += 1

    def assemble(self, coeffs: Sequence[int]) -> IntMat:
        return IntMat([[coeffs[d] for d in row] for row in self.grid])

    def hecke(self, coeffs: Sequence[int]) -> IntMat:
        """M(c): row f, column e."""
        return IntMat([[sum(map(mul, gamma_fe, coeffs))
                        for gamma_fe in gamma_f] for gamma_f in self.gamma])

    def inverse(self, coeffs: Sequence[int]) -> list[int]:
        """x with A^-1 = assemble(x)^T, for a unimodular A = assemble(c):
        A^-1 = sum(x_e B_e^T) is equivariant and A^-1 A = I = T_0, so
        M(c) x = e_0.  AssertionError when det M(c) is not a unit."""
        d, adj = self.hecke(coeffs)._elimination
        if d not in (1, -1):
            raise AssertionError(f"det M(c) = {d} is not a unit")
        return [d * row[0] for row in adj.rows]

    def inverse_rows_multi_support(self, a: IntMat) -> bool:
        """Whether each row of A^-1, for a unimodular equivariant A, has
        two nonzero entries: it has counts[e] for each x_e != 0."""
        x = self.inverse([a.rows[0][c] for c in map(
            self.grid[0].index, range(len(self.counts)))])
        return sum(n for n, x_e in zip(self.counts, x) if x_e) >= 2


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
    candidates.

    A survivor is decided by the k x k determinant of M(c) on the
    triple's `_IntertwinerSpace`, which a verification of the hit shares
    (Scott 1993; Curtis-Reiner on Hecke algebras).  Only a hit is
    assembled, scaled by its row sum to row sums +1; CorrespondenceMatrix
    takes its n x n determinant once.

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

    space = triple._space
    k = len(space.counts)
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
        row_sum = sum(map(mul, coeffs, space.counts))
        if row_sum in (1, -1) and det(space.hecke(coeffs)) in (1, -1):
            return CorrespondenceMatrix(
                space.assemble([row_sum * c for c in coeffs]), triple)
    raise NotFoundWithinBudget(
        "no unimodular combination in the coefficient box" if exhaustive
        else f"no unimodular combination in {budget} random samples",
        trials=trials, exhausted=exhaustive, basis_size=k)


def verify_integral_triple(triple: GassmannTriple,
                           a: Union[IntMat, CorrespondenceMatrix]) -> dict:
    """Full report on a candidate intertwiner.

    Checks unimodularity, equivariance generator by generator, the
    common +-1 eigenvalue on the all-ones vector, and, for non-conjugate
    subgroup pairs, that every row of A and of A^-1 has at least two
    nonzero entries.  Failures are reported, never raised.

    A unimodular equivariant A is inverted in k dimensions on the
    triple's `_IntertwinerSpace` (AssertionError if det M(c) is not a
    unit); only a non-equivariant one takes the n x n Gauss-Jordan pass.
    A CorrespondenceMatrix built on this triple was found equivariant
    when it was built, and is not scanned again.
    """
    checked = False
    if isinstance(a, CorrespondenceMatrix):
        checked = a.triple is triple
        a = a.A
    if not a.is_square:
        raise NonSquare("candidate must be square")
    if a.nrows != triple.index:
        raise DimensionMismatch(
            f"size {a.nrows} does not match index {triple.index}")
    conjugate = are_conjugate(triple.group, triple.h1, triple.h2)
    failures = [] if checked else _equivariance_failures(a, triple)
    d = a._elimination[0] if failures and not conjugate else det(a)
    unimodular = d in (1, -1)

    try:
        sign = _ones_eigenvalue(a)
    except MixedSigns:
        sign = None

    report = {
        "det": d,
        "unimodular": unimodular,
        "equivariant": not failures,
        "equivariance_failures": failures,
        "sign": sign,
        "sign_consistent": sign is not None,
        "conjugate_pair": conjugate,
    }
    passed = unimodular and not failures and sign is not None
    if not conjugate:
        # adj A = +-A^-1, with the same supports
        inverse = None if not unimodular \
            else _rows_multi_support(a._elimination[1]) if failures \
            else triple._space.inverse_rows_multi_support(a)
        report["rows_multi_support"] = _rows_multi_support(a)
        report["inverse_rows_multi_support"] = inverse
        passed = passed and report["rows_multi_support"] and bool(inverse)
    report["passed"] = passed
    return report


def _rows_multi_support(a: IntMat) -> bool:
    return all(sum(1 for x in row if x) >= 2 for row in a.rows)
