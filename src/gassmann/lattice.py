"""Exact integer-matrix toolkit and maximal normal sublattices.

All arithmetic is arbitrary-precision; nothing here ever rounds. Matrices
are immutable, entries are plain Python ints, and lattices are column
spans of nonsingular square matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import gcd, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import (NonSquare, OrderCapExceeded, ParseError, SingularMatrix,
                     parse_int)

__all__ = [
    "IntMat",
    "LocalNormLattice",
    "det",
    "adjugate",
    "hnf",
    "snf",
    "smith_with_transforms",
    "maximal_normal_sublattice",
    "parse_matrix_file",
    "format_matrix_file",
]

_COFACTOR_CAP = 20  # largest singular matrix whose adjugate takes cofactors


# no slots: the cached eliminations live in the instance dict
@dataclass(frozen=True, repr=False)
class IntMat:
    """Immutable integer matrix.

    >>> IntMat.identity(2) @ IntMat([[1, 2], [3, 4]])
    IntMat([[1, 2], [3, 4]])
    """

    rows: Iterable[Iterable[int]]

    def __post_init__(self) -> None:
        materialized = tuple(map(tuple, self.rows))
        if not materialized or not materialized[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(materialized[0])
        for row in materialized:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")
            if not all(map(isinstance, row, repeat(int))):
                entry = next(x for x in row if not isinstance(x, int))
                raise ValueError(f"non-integer entry {entry!r}")
        object.__setattr__(self, "rows", materialized)

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMat":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.rows[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "IntMat":
        return IntMat(zip(*self.rows))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        return IntMat([[sum(map(mul, row, col)) for col in cols]
                       for row in self.rows])

    def scale(self, c: int) -> "IntMat":
        return IntMat([[c * entry for entry in row] for row in self.rows])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"IntMat({self.to_lists()!r})"

    @cached_property
    def _det(self) -> int:
        """det M by forward-only Bareiss elimination: see `_bareiss`."""
        return _bareiss(self, full=False)[0]

    @cached_property
    def _elimination(self) -> tuple[int, IntMat | None]:
        """(det M, adj M) of a square matrix; adj M is None when det M = 0.
        One Gauss-Jordan pass: see `_bareiss`."""
        return _bareiss(self, full=True)

    @cached_property
    def _hnf(self) -> IntMat:
        """Column HNF by integer column operations: see `hnf`."""
        # operate on columns via rows of the transpose
        rows = [list(row) for row in self.transpose().rows]
        nrows, ncols = self.ncols, self.nrows
        pivot_row = 0
        for col in range(ncols):
            if pivot_row >= nrows:
                break
            while True:
                nonzero = [i for i in range(pivot_row, nrows) if rows[i][col]]
                if not nonzero:
                    break
                if len(nonzero) == 1:
                    i = nonzero[0]
                    rows[pivot_row], rows[i] = rows[i], rows[pivot_row]
                    break
                smallest = min(nonzero, key=lambda i: abs(rows[i][col]))
                for i in nonzero:
                    if i != smallest:
                        q = rows[i][col] // rows[smallest][col]
                        rows[i] = [a - q * b
                                   for a, b in zip(rows[i], rows[smallest])]
            if rows[pivot_row][col]:
                if rows[pivot_row][col] < 0:
                    rows[pivot_row] = [-entry for entry in rows[pivot_row]]
                pivot = rows[pivot_row][col]
                for i in range(pivot_row):
                    q = rows[i][col] // pivot
                    if q:
                        rows[i] = [a - q * b
                                   for a, b in zip(rows[i], rows[pivot_row])]
                pivot_row += 1
        return IntMat(rows).transpose()


def _bareiss(m: IntMat, full: bool) -> tuple[int, IntMat | None]:
    """Fraction-free elimination (Bareiss 1968) of a square matrix.

    Each step takes the first nonzero pivot in the column, flips the sign
    on a row swap and drops the pivot column; every division is exact,
    every entry being a minor of the input.  Forward only (full=False),
    the rows below each pivot are eliminated and the last pivot is
    +-det M.  With full=True every other row is eliminated too, a
    Gauss-Jordan pass that ends with d M^-1, d = +-det M, in place of
    M, and the result is (det M, adj M).  Before step k the identity
    columns of the rows not yet pivoted would hold only d_(k-1) in their
    own row, so none is stored: the pivot row appends d_(k-1) and every
    other row 0, and the appended columns are put back in the order of
    the pivots' original rows at the end.  A zero pivot column gives
    (0, None).
    """
    n = m.nrows
    rows = [list(row) for row in m.rows]
    origin = list(range(n))  # the input row now at each position
    sign = prev = 1
    for k in range(n):
        if not rows[k][0]:
            pivot_row = next((i for i in range(k + 1, n) if rows[i][0]), None)
            if pivot_row is None:
                return 0, None
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            origin[k], origin[pivot_row] = origin[pivot_row], origin[k]
            sign = -sign
        if full:
            for i, row in enumerate(rows):
                row.append(prev if i == k else 0)
        pivot, *tail = rows[k]
        for i in range(n) if full else range(k + 1, n):
            if i != k:
                factor, *row = rows[i]
                rows[i] = [(pivot * x - factor * y) // prev
                           for x, y in zip(row, tail)]
        rows[k] = tail
        prev = pivot
    if not full:
        return sign * prev, None
    columns = dict(zip(origin, zip(*rows)))
    return sign * prev, IntMat(zip(*map(columns.get, range(n)))).scale(sign)


def _require_square(m: IntMat, op: str) -> None:
    if not m.is_square:
        raise NonSquare(f"{op} requires a square matrix, got "
                        f"{m.nrows}x{m.ncols}")


def det(m: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    >>> det(IntMat.diagonal([2, 3]))
    6
    """
    _require_square(m, "det")
    return m._det


def _minor_det(m: IntMat, drop_row: int, drop_col: int) -> int:
    rows = [[entry for j, entry in enumerate(row) if j != drop_col]
            for i, row in enumerate(m.rows) if i != drop_row]
    if not rows:
        return 1
    return det(IntMat(rows))


def adjugate(m: IntMat) -> "IntMat":
    """Adjugate matrix: M @ adjugate(M) == det(M) * I.

    A nonsingular M takes one fraction-free Gauss-Jordan pass; a singular
    one of at most _COFACTOR_CAP rows falls back to cofactor expansion.

    >>> adjugate(IntMat.diagonal([2, 3]))
    IntMat([[3, 0], [0, 2]])
    """
    _require_square(m, "adjugate")
    _, adj = m._elimination
    if adj is not None:
        return adj
    n = m.nrows
    if n > _COFACTOR_CAP:
        raise OrderCapExceeded(f"adjugate of a singular {n}x{n} matrix needs "
                               f"cofactors, capped at n = {_COFACTOR_CAP}")
    return IntMat([[(-1) ** (i + j) * _minor_det(m, j, i) for j in range(n)]
                   for i in range(n)])


def hnf(m: IntMat) -> IntMat:
    """Canonical column Hermite normal form; column span is preserved.

    The result is lower triangular with positive pivots, and in each
    pivot row the entries left of the pivot lie in [0, pivot).  Cached on m.
    """
    return m._hnf


def _square_hnf(mat: IntMat) -> IntMat:
    """HNF basis of the column span, cut down to its square leading part.

    ValueError unless the lattice has full row rank, as a relation
    lattice of a finite abelian group does: the HNF of a k-row matrix has
    at most k nonzero columns, first, so full rank is k positive pivots.
    """
    reduced = hnf(mat)
    k = reduced.nrows
    if reduced.ncols < k or any(row[i] <= 0
                                for i, row in enumerate(reduced.rows)):
        raise ValueError("rank-deficient lattice basis")
    return IntMat([row[:k] for row in reduced.rows])


def smith_with_transforms(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: returns (D, U, V), U @ M @ V = D.

    U and V are unimodular; D is diagonal with a nonnegative divisibility
    chain d1 | d2 | ...  One working matrix is eliminated: M bordered by
    I_m on the right and by I_n below.  A row operation acts on a whole
    bordered row and a column operation on the first n columns of every
    row, so U rides in the right border and V in the rows below.
    """
    nrows, ncols = m.nrows, m.ncols
    a = [list(row) + [int(i == j) for j in range(nrows)]
         for i, row in enumerate(m.rows)] + IntMat.identity(ncols).to_lists()
    for t in range(min(nrows, ncols)):
        while True:
            candidates = [(abs(a[i][j]), i, j)
                          for i in range(t, nrows)
                          for j in range(t, ncols) if a[i][j]]
            if not candidates:
                break
            _, pi, pj = min(candidates)
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    dirty = dirty or a[t][j] != 0
            if dirty:
                continue
            pivot = a[t][t]
            offender = next((i for i in range(t + 1, nrows)
                             if any(a[i][j] % pivot
                                    for j in range(t + 1, ncols))), None)
            if offender is None:
                break
            # pull the bad entry into row t
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    top = a[:nrows]
    return (IntMat([row[:ncols] for row in top]),
            IntMat([row[ncols:] for row in top]), IntMat(a[nrows:]))


def snf(m: IntMat) -> tuple[IntMat, tuple[int, ...]]:
    """Smith normal form: (diagonal matrix, nonzero invariant factors)."""
    d, _, _ = smith_with_transforms(m)
    factors = tuple(d[i, i] for i in range(min(d.nrows, d.ncols))
                    if d[i, i] != 0)
    return d, factors


def maximal_normal_sublattice(m: IntMat) -> tuple[int, ...]:
    """Least positive m_i with m_i * e_i in the column span of M, for each i.

    The lattice spanned by the m_i * e_i is the largest sublattice of the
    column span of M that has a basis of integer multiples of the standard
    basis vectors.  Each m_i comes from a forward substitution of s * e_i
    down the rows i, i+1, ... of the HNF basis H: where a residue r is not
    a multiple of the pivot h_jj, the scale s and the partial solution are
    multiplied by h_jj / gcd(r, h_jj), the least factor that makes it one.

    >>> maximal_normal_sublattice(IntMat([[1, 1], [0, 2]]))
    (1, 2)
    >>> maximal_normal_sublattice(IntMat([[2, 1], [1, 2]]))
    (3, 3)
    """
    _require_square(m, "maximal_normal_sublattice")
    h = hnf(m).rows
    if not all(row[i] for i, row in enumerate(h)):  # zero iff singular
        raise SingularMatrix("lattice basis must be nonsingular")
    out = []
    for i in range(len(h)):
        scale, solution = h[i][i], [1]
        for row in h[i + 1:]:
            pivot = row[i + len(solution)]
            residue = -sum(a * x for a, x in zip(row[i:], solution))
            factor = pivot // gcd(residue, pivot)
            if factor > 1:
                scale *= factor
                solution = [factor * x for x in solution]
                residue *= factor
            solution.append(residue // pivot)
        out.append(scale)
    return tuple(out)


def _in_hnf_span(h: Iterable[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether the vector is in the column span of a square HNF basis,
    given by its rows h (an IntMat iterates its rows): forward
    substitution, failing at the first residue h[i, i] leaves."""
    solution: list[int] = []
    for i, row in enumerate(h):
        residue = vector[i] - sum(a * x for a, x in zip(row, solution))
        if residue % row[i]:
            return False
        solution.append(residue // row[i])
    return True


@dataclass(frozen=True, eq=False, repr=False)
class LocalNormLattice:
    """Full-rank sublattice of Z^r spanned by the columns of a basis matrix.

    Its nonsingularity check, index (the product of the HNF diagonal),
    membership, equality and hash all read the basis's canonical HNF,
    computed once at construction and cached on the basis.

    >>> lat = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    >>> lat.contains((1, 3)), lat.contains((1, 0)), lat.index
    (True, False, 6)
    """

    basis: IntMat

    def __post_init__(self) -> None:
        if not self.basis.is_square:
            raise NonSquare("lattice basis must be square")
        if not self.index:  # an HNF diagonal has a zero iff singular
            raise SingularMatrix("lattice basis must be nonsingular")

    @property
    def rank(self) -> int:
        return self.basis.nrows

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.rank:
            raise ValueError(
                f"vector of length {len(vector)} against rank {self.rank}")
        return _in_hnf_span(hnf(self.basis), vector)

    @property
    def index(self) -> int:
        return prod(row[i] for i, row in enumerate(hnf(self.basis)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalNormLattice)
                and hnf(self.basis) == hnf(other.basis))

    def __hash__(self) -> int:
        return hash(hnf(self.basis))

    def __repr__(self) -> str:
        return f"LocalNormLattice({self.basis!r})"


def parse_matrix_file(text: str, *, path: str | None = None) -> IntMat:
    """Parse the matrix file format: `size: N` then N integer rows."""
    size: int | None = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if size is None:
            if not line.startswith("size:"):
                raise ParseError("expected `size: N` header",
                                 line=lineno, path=path)
            body = line[len("size:"):].strip()
            try:
                size = parse_int(body)
            except ValueError:
                raise ParseError(f"bad size {body!r}",
                                 line=lineno, path=path) from None
            if size <= 0:
                raise ParseError("size must be positive",
                                 line=lineno, path=path)
            continue
        try:
            row = [parse_int(token) for token in line.split()]
        except ValueError:
            raise ParseError(f"non-integer row {line!r}",
                             line=lineno, path=path) from None
        if len(row) != size:
            raise ParseError(
                f"expected {size} entries per row, got {len(row)}",
                line=lineno, path=path)
        rows.append(row)
    if size is None:
        raise ParseError("missing `size: N` header", path=path)
    if len(rows) != size:
        raise ParseError(f"expected {size} rows, got {len(rows)}", path=path)
    return IntMat(rows)


def format_matrix_file(m: IntMat) -> str:
    lines = [f"size: {m.nrows}"]
    lines.extend(" ".join(str(entry) for entry in row) for row in m.rows)
    return "\n".join(lines) + "\n"
