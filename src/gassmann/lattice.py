"""Exact integer-matrix toolkit and maximal normal sublattices.

All arithmetic is arbitrary-precision; nothing here ever rounds. Matrices
are immutable, entries are plain Python ints, and lattices are column
spans of nonsingular square matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import NonSquare, ParseError, SingularMatrix

__all__ = [
    "IntMat",
    "LocalNormLattice",
    "det",
    "adjugate",
    "hnf",
    "snf",
    "smith_with_transforms",
    "maximal_normal_sublattice",
    "contains",
    "lattice_index",
    "parse_matrix_file",
    "format_matrix_file",
]


# no slots: the cached eliminations live in the instance dict
@dataclass(frozen=True, repr=False)
class IntMat:
    """Immutable integer matrix.

    >>> IntMat.identity(2) @ IntMat([[1, 2], [3, 4]])
    IntMat([[1, 2], [3, 4]])
    """

    rows: Iterable[Iterable[int]]

    def __post_init__(self) -> None:
        materialized = tuple(tuple(entry for entry in row)
                             for row in self.rows)
        if not materialized or not materialized[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(materialized[0])
        for row in materialized:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")
            for entry in row:
                if not isinstance(entry, int):
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

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

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
        return IntMat([[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.rows])

    def __neg__(self) -> "IntMat":
        return IntMat([[-entry for entry in row] for row in self.rows])

    def scale(self, c: int) -> "IntMat":
        return IntMat([[c * entry for entry in row] for row in self.rows])

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vector))
                     for row in self.rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"IntMat({self.to_lists()!r})"

    @cached_property
    def _det(self) -> int:
        """Bareiss det, forward only: a third of the Gauss-Jordan pass."""
        n = self.nrows
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0),
                                 None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # exact division is guaranteed by the Bareiss identity
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    @cached_property
    def _elimination(self) -> tuple[int, IntMat | None]:
        """(det M, adj M) of a square matrix; adj M is None when det M = 0.

        One fraction-free Gauss-Jordan pass (Bareiss 1968) turns [M | I] into
        [d I | d M^-1], d = +-det M by the row swaps; every division is exact,
        every entry being a minor of [M | I].  Pivot columns are dropped.
        """
        n = self.nrows
        rows = [list(row) + [int(i == j) for j in range(n)]
                for i, row in enumerate(self.rows)]
        sign = prev = 1
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if rows[i][0]), None)
            if pivot_row is None:
                return 0, None
            if pivot_row != k:
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                sign = -sign
            pivot, *tail = rows[k]
            for i, row in enumerate(rows):
                if i != k:
                    factor = row[0]
                    rows[i] = [(pivot * x - factor * y) // prev
                               for x, y in zip(row[1:], tail)]
            rows[k] = tail
            prev = pivot
        return sign * prev, IntMat(rows).scale(sign)


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
    one falls back to cofactor expansion (small inputs only).

    >>> adjugate(IntMat.diagonal([2, 3]))
    IntMat([[3, 0], [0, 2]])
    """
    _require_square(m, "adjugate")
    _, adj = m._elimination
    if adj is not None:
        return adj
    n = m.nrows
    return IntMat([[(-1) ** (i + j) * _minor_det(m, j, i) for j in range(n)]
                   for i in range(n)])


def hnf(m: IntMat) -> IntMat:
    """Canonical column Hermite normal form; column span is preserved.

    The result is lower triangular with positive pivots, and in each
    pivot row the entries left of the pivot lie in [0, pivot).
    """
    # operate on columns via rows of the transpose
    rows = [list(row) for row in m.transpose().rows]
    nrows = len(rows)
    ncols = len(rows[0])
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
                if i == smallest:
                    continue
                q = rows[i][col] // rows[smallest][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[smallest])]
        if pivot_row < nrows and rows[pivot_row][col]:
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


def _square_hnf(mat: IntMat) -> IntMat:
    """HNF basis of the column span, cut down to its square leading part.

    ValueError unless the lattice has full row rank, as a relation
    lattice of a finite abelian group does.
    """
    reduced = hnf(mat)
    k = reduced.nrows
    rows = [row[:k] for row in reduced.rows]
    for i, row in enumerate(reduced.rows):
        if any(row[k:]):
            raise ValueError("matrix does not have full row rank")
        if rows[i][i] <= 0:
            raise ValueError("rank-deficient lattice basis")
    return IntMat(rows)


def smith_with_transforms(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form with transforms: returns (D, U, V), U @ M @ V = D.

    U and V are unimodular; D is diagonal with a nonnegative divisibility
    chain d1 | d2 | ...
    """
    a = m.to_lists()
    nrows, ncols = m.nrows, m.ncols
    u = IntMat.identity(nrows).to_lists()
    v = IntMat.identity(ncols).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    rank_bound = min(nrows, ncols)
    for t in range(rank_bound):
        while True:
            candidates = [(abs(a[i][j]), i, j)
                          for i in range(t, nrows)
                          for j in range(t, ncols) if a[i][j]]
            if not candidates:
                break
            _, pi, pj = min(candidates)
            swap_rows(t, pi)
            swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            pivot = a[t][t]
            offender = next(((i, j) for i in range(t + 1, nrows)
                             for j in range(t + 1, ncols)
                             if a[i][j] % pivot), None)
            if offender is None:
                break
            add_row(t, offender[0], 1)  # pull the bad entry into row t
        if t < rank_bound and a[t][t] < 0:
            negate_row(t)
    d = IntMat(a)
    return d, IntMat(u), IntMat(v)


def snf(m: IntMat) -> tuple[IntMat, tuple[int, ...]]:
    """Smith normal form: (diagonal matrix, nonzero invariant factors)."""
    d, _, _ = smith_with_transforms(m)
    factors = tuple(d[i, i] for i in range(min(d.nrows, d.ncols))
                    if d[i, i] != 0)
    return d, factors


def maximal_normal_sublattice(m: IntMat) -> tuple[int, ...]:
    """Least positive m_i with m_i * M^-1 e_i integral, for each i.

    The lattice spanned by the m_i * e_i is the largest sublattice of the
    column span of M that has a basis of integer multiples of the standard
    basis vectors.

    >>> maximal_normal_sublattice(IntMat([[1, 1], [0, 2]]))
    (1, 2)
    """
    _require_square(m, "maximal_normal_sublattice")
    d, adj = m._elimination
    if adj is None:
        raise SingularMatrix("lattice basis must be nonsingular")
    return tuple(abs(d) // gcd(d, *adj.column(i)) for i in range(m.nrows))


def _in_hnf_span(h: IntMat, vector: Sequence[int]) -> bool:
    """Whether the vector is in the column span of a square HNF basis h:
    forward substitution, failing at the first residue h[i, i] leaves."""
    solution: list[int] = []
    for i, row in enumerate(h.rows):
        residue = vector[i] - sum(a * x for a, x in zip(row, solution))
        if residue % row[i]:
            return False
        solution.append(residue // row[i])
    return True


@dataclass(frozen=True, eq=False, repr=False)
class LocalNormLattice:
    """Full-rank sublattice of Z^r spanned by the columns of a basis matrix.

    Its canonical HNF basis is computed on first use, then kept; equality
    and hashing are those of the HNF basis.

    >>> lat = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    >>> lat.contains((1, 3)), lat.contains((1, 0))
    (True, False)
    """

    basis: IntMat

    def __post_init__(self) -> None:
        if not self.basis.is_square:
            raise NonSquare("lattice basis must be square")
        if self.basis._elimination[0] == 0:
            raise SingularMatrix("lattice basis must be nonsingular")

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @cached_property
    def _basis_hnf(self) -> IntMat:
        return hnf(self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.rank:
            raise ValueError(
                f"vector of length {len(vector)} against rank {self.rank}")
        return _in_hnf_span(self._basis_hnf, vector)

    @property
    def index(self) -> int:
        return abs(self.basis._elimination[0])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalNormLattice)
                and self._basis_hnf == other._basis_hnf)

    def __hash__(self) -> int:
        return hash(self._basis_hnf)

    def __repr__(self) -> str:
        return f"LocalNormLattice({self.basis!r})"


def contains(lattice: LocalNormLattice, vector: Sequence[int]) -> bool:
    """Exact membership test: one triangular solve in the lattice's HNF."""
    return lattice.contains(vector)


def lattice_index(lattice: LocalNormLattice) -> int:
    """Index of the lattice in Z^r, i.e. |det| of its basis."""
    return lattice.index


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
                size = int(body)
            except ValueError:
                raise ParseError(f"bad size {body!r}",
                                 line=lineno, path=path) from None
            if size <= 0:
                raise ParseError("size must be positive",
                                 line=lineno, path=path)
            continue
        try:
            row = [int(token) for token in line.split()]
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
