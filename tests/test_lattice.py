import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann import permgroup as permgroup_module
from gassmann.catalog import gl3f2, standard_corpus
from gassmann.errors import (NonSquare, OrderCapExceeded, ParseError,
                             SingularMatrix)
from gassmann.lattice import (IntMat, LocalNormLattice, _square_hnf,
                              adjugate, det, format_matrix_file, hnf,
                              maximal_normal_sublattice,
                              parse_matrix_file, smith_with_transforms, snf)

small = st.integers(min_value=-8, max_value=8)

# digests of (D, U, V) on the inputs of the two pinning tests below
SMITH_RANDOM_SHA256 = (
    "f4997554e9a9bb528dc341cc1c1e54a93df862bc9f0a6bfadcd3c7ed73eefae7")
SMITH_ABELIANIZATION_INPUTS = 36
SMITH_ABELIANIZATION_SHA256 = (
    "38db3b7dc5ccfa0f71ca89dd4c85b137c3f3b00cde85e292833272ccf44be1f4")


def square(n):
    return st.lists(st.lists(small, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(IntMat)


def det_by_permutation_expansion(m):
    n = m.nrows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m.rows[i][perm[i]]
        total += sign * prod
    return total


@pytest.mark.parametrize("rows,message", [
    ([], "matrix dimensions must be positive"),
    ([[]], "matrix dimensions must be positive"),
    ([[1, 2], [3, 4], [5]], "ragged rows in matrix"),
    ([[1.5, 2], [3, 4]], "non-integer entry 1.5"),
    ([[1, "2"], [3, 4]], "non-integer entry '2'"),
    ([[1, None], [3, 4]], "non-integer entry None"),
    ([[1, 2], [3, 4], [5, 6], [7, 1.5]], "non-integer entry 1.5"),
    ([[1, 2], [3, 4], [5, 6], ["7", 8]], "non-integer entry '7'"),
    ([[1, 2], [3, 4], [5, 6], [7, None]], "non-integer entry None"),
    # rows are checked in order, each for its width and then its entries
    ([[1, None], [3, 4], [5]], "non-integer entry None"),
    ([[1, 2], [3, 4], [5], [7, None]], "ragged rows in matrix"),
])
def test_intmat_error_messages(rows, message):
    with pytest.raises(ValueError) as excinfo:
        IntMat(rows)
    assert str(excinfo.value) == message


def test_intmat_accepts_bool_entries():
    m = IntMat([[True, False], [0, 1]])
    assert m.rows == ((True, False), (0, 1))
    assert det(m) == 1


@given(square(3))
def test_det_matches_permutation_expansion(m):
    assert det(m) == det_by_permutation_expansion(m)


@given(square(3), square(3))
def test_det_is_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


@given(square(3))
def test_adjugate_identity(m):
    d = det(m)
    product = m @ adjugate(m)
    assert product == IntMat.identity(3).scale(d)


def test_det_requires_square():
    with pytest.raises(NonSquare):
        det(IntMat([[1, 2, 3], [4, 5, 6]]))


def test_matmul_shapes():
    a = IntMat([[1, 2], [3, 4], [5, 6]])
    b = IntMat([[1, 0], [0, 1]])
    assert (a @ b) == a
    with pytest.raises(ValueError):
        b @ a


@given(square(3))
def test_hnf_is_lower_triangular_with_reduced_rows(m):
    h = hnf(m)
    n = h.nrows
    for i in range(n):
        for j in range(i + 1, n):
            assert h.rows[i][j] == 0
    for i in range(n):
        pivot = h.rows[i][i]
        assert pivot >= 0
        if pivot:
            for j in range(i):
                assert 0 <= h.rows[i][j] < pivot
    if det(m):
        assert abs(det(m)) == det(h)


def column_lattice_members(m, box):
    """All integer combinations of the columns with coefficients in box."""
    n = m.nrows
    out = set()
    for coeffs in itertools.product(box, repeat=n):
        out.add(tuple(sum(m.rows[i][j] * coeffs[j] for j in range(n))
                      for i in range(n)))
    return out


def test_square_hnf_cuts_to_the_square_basis_or_refuses():
    """The relation lattice of Z/2 x Z/4 from redundant relations, and
    two lattices of rank 1 in Z^2, which have no square basis: one with
    a spare column, one with fewer columns than rows."""
    relations = IntMat([[2, 0, 4, 2], [0, 4, 4, 8]])
    assert _square_hnf(relations) == IntMat([[2, 0], [0, 4]])
    for rank_one in (IntMat([[1, 2], [2, 4]]), IntMat([[1], [0]])):
        with pytest.raises(ValueError, match="rank-deficient lattice basis"):
            _square_hnf(rank_one)


def test_hnf_of_a_tall_matrix_stops_when_the_pivots_run_out():
    """Three rows and two columns: the second pivot ends the elimination
    before the third row.  The result keeps the shape, is lower
    triangular with positive pivots, and spans what the input spans
    (each column is a combination of the other's, found by a search of
    small coefficients)."""
    m = IntMat([[1, 0], [0, 1], [1, 1]])
    h = hnf(m)
    assert (h.nrows, h.ncols) == (3, 2)
    assert h.rows[0][1] == 0 and h.rows[0][0] > 0 and h.rows[1][1] > 0

    def spans(basis, target):
        combos = {tuple(sum(c * x for c, x in zip(coeffs, row))
                        for row in basis.rows)
                  for coeffs in itertools.product(range(-2, 3), repeat=2)}
        return all(col in combos for col in zip(*target.rows))
    assert spans(m, h) and spans(h, m)


def test_hnf_preserves_column_lattice():
    rng = random.Random(5)
    for _ in range(20):
        m = IntMat([[rng.randint(-4, 4) for _ in range(3)]
                    for _ in range(3)])
        if det(m) == 0:
            continue
        h = hnf(m)
        lat = LocalNormLattice(m)
        lat_h = LocalNormLattice(h)
        for v in column_lattice_members(h, range(-2, 3)):
            assert lat.contains(v)
        for v in column_lattice_members(m, range(-2, 3)):
            assert lat_h.contains(v)


@given(square(3))
def test_smith_transforms_are_exact(m):
    d, u, v = smith_with_transforms(m)
    assert u @ m @ v == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = [d.rows[i][i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            if i != j:
                assert d.rows[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    d_again, factors = snf(m)
    assert d_again == d
    assert list(factors) == [x for x in diag if x]


def test_snf_known_values():
    # invariant factors are ratios of minor gcds, not the naive diagonal
    assert snf(IntMat([[2, 0], [0, 6]]))[1] == (2, 6)
    assert snf(IntMat([[6, 0], [0, 4]]))[1] == (2, 12)
    assert snf(IntMat([[2, 0], [0, 3]]))[1] == (1, 6)
    assert snf(IntMat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))[1] == \
        (2, 2, 156)


def mns_oracle(m):
    """Least m_i with m_i * e_i in the column lattice, by membership tests."""
    n = m.nrows
    lat = LocalNormLattice(m)
    bound = abs(det(m))
    out = []
    for i in range(n):
        for k in range(1, bound + 1):
            vec = [k if r == i else 0 for r in range(n)]
            if lat.contains(vec):
                out.append(k)
                break
        else:
            raise AssertionError("no multiple found up to |det|")
    return tuple(out)


def test_maximal_normal_sublattice_examples():
    assert maximal_normal_sublattice(IntMat([[1, 1], [0, 2]])) == (1, 2)
    assert maximal_normal_sublattice(IntMat.identity(3)) == (1, 1, 1)
    assert maximal_normal_sublattice(
        IntMat([[2, 0], [0, 3]])) == (2, 3)


def test_maximal_normal_sublattice_against_oracle():
    rng = random.Random(11)
    done = 0
    while done < 40:
        m = IntMat([[rng.randint(-5, 5) for _ in range(3)]
                    for _ in range(3)])
        if det(m) == 0:
            continue
        assert maximal_normal_sublattice(m) == mns_oracle(m)
        done += 1


def test_maximal_normal_sublattice_against_the_adjugate():
    # the reference: m_i = |d| / gcd(d, column i of adj M), read off
    # M^-1 = adj M / d; sizes 1-6, unimodular and not
    rng = random.Random(23)
    dets = set()
    for n in range(1, 7):
        done = 0
        while done < 12:
            m = IntMat([[rng.randint(-6, 6) for _ in range(n)]
                        for _ in range(n)])
            d = det(m)
            if d == 0:
                continue
            adj = adjugate(m)
            assert maximal_normal_sublattice(m) == tuple(
                abs(d) // gcd(d, *adj.column(i)) for i in range(n))
            assert LocalNormLattice(m).index == abs(d)
            dets.add(abs(d) == 1)
            done += 1
    assert dets == {True, False}


def test_maximal_normal_sublattice_rejects_singular():
    with pytest.raises(SingularMatrix):
        maximal_normal_sublattice(IntMat([[1, 2], [2, 4]]))


def test_lattice_membership_and_index():
    lat = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    assert lat.index == 6
    assert lat.contains((2, 0))
    assert lat.contains((1, 3))
    assert not lat.contains((1, 0))
    assert not lat.contains((0, 1))
    with pytest.raises(ValueError):
        lat.contains((1, 0, 0))
    with pytest.raises(NonSquare):
        LocalNormLattice(IntMat([[1, 0]]))


def test_lattice_equality_via_hnf():
    a = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    b = LocalNormLattice(IntMat([[1, 2], [3, 0]]))  # same columns, swapped
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_hnf_is_computed_once_per_basis(count_passes):
    computed = count_passes("_hnf")
    a = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    b = LocalNormLattice(IntMat([[1, 2], [3, 0]]))
    # the constructor's nonsingularity check computes each basis's HNF
    assert computed == [a.basis, b.basis]
    for _ in range(2):
        assert a.contains((1, 3)) and a == b and hash(a) == hash(b)
        assert a.index == b.index == 6
        assert maximal_normal_sublattice(a.basis) == (2, 6)
    assert computed == [a.basis, b.basis]
    assert LocalNormLattice(a.basis) == a and computed == [a.basis, b.basis]


def test_lattice_reads_run_no_gauss_jordan_pass(count_passes):
    computed = count_passes("_elimination")
    rng = random.Random(5)
    for n in range(1, 7):
        m = IntMat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if det(m) == 0:
            continue
        lattice = LocalNormLattice(m)
        assert lattice.index == abs(det(m))
        lattice.contains([1] * n)
        maximal_normal_sublattice(m)
    with pytest.raises(SingularMatrix):
        LocalNormLattice(IntMat([[1, 2], [2, 4]]))
    assert computed == []


def test_matrix_file_roundtrip():
    m = IntMat([[2, 1, -2], [-1, 0, 2], [0, 0, 1]])
    assert parse_matrix_file(format_matrix_file(m)) == m


def test_matrix_file_errors():
    with pytest.raises(ParseError) as err:
        parse_matrix_file("size: 2\n1 2\n3\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_matrix_file("1 2\n3 4\n")  # missing header
    with pytest.raises(ParseError):
        parse_matrix_file("size: x\n")


# free text over the format's characters, and headed files whose rows
# may not match the declared size
matrix_texts = st.one_of(
    st.text(alphabet="size:0123456789 -#\n", max_size=40),
    st.builds(lambda n, rows: f"size: {n}\n" + "\n".join(
        " ".join(map(str, row)) for row in rows),
        st.integers(-1, 3), st.lists(st.lists(small, max_size=3),
                                     max_size=3)))


@settings(max_examples=300)
@given(matrix_texts)
def test_matrix_file_parses_or_raises_parse_error(text):
    try:
        m = parse_matrix_file(text)
    except ParseError:
        return
    assert parse_matrix_file(format_matrix_file(m)) == m


def test_matrix_file_accepts_comments():
    m = parse_matrix_file("# header\nsize: 2\n1 2\n3 4\n")
    assert m == IntMat([[1, 2], [3, 4]])


def matrix_of_rank(rng, n, rank):
    """Random n x n integer matrix of exactly the given rank."""
    sympy = pytest.importorskip("sympy")
    while True:
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(rank))
                 for j in range(n)] for i in range(n)]
        if sympy.Matrix(rows).rank() == rank:
            return rows


def with_zero_pivot(rows):
    """rows with a column moved first and the rows reordered so that the
    (0, 0) entry is 0 and the (1, 0) entry is not, so that an elimination
    must swap rows; None when no column holds both a zero and a nonzero."""
    n = len(rows)
    for j in range(n):
        column = [row[j] for row in rows]
        if 0 in column and any(column):
            first = [column.index(0), next(i for i in range(n) if column[i])]
            order = first + [i for i in range(n) if i not in first]
            return [[rows[i][j]] + rows[i][:j] + rows[i][j + 1:]
                    for i in order]
    return None


@pytest.mark.parametrize("n", range(1, 7))
def test_det_and_adjugate_against_sympy(n):
    # without sympy: n = 1, and a row swap forced at the first pivot
    rng = random.Random(n)
    forced = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if n > 1:
        forced[0][0], forced[1][0] = 0, 1
    m = IntMat(forced)
    assert det(m) == m._elimination[0] == det_by_permutation_expansion(m)
    assert m @ adjugate(m) == IntMat.identity(n).scale(det(m))

    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 + n)
    ranks = [n] * 4 + [n - 1] * 3 + [rng.randint(0, max(0, n - 2))
                                      for _ in range(3)]
    swapped = 0
    for rank in ranks:
        rows = matrix_of_rank(rng, n, rank)
        permuted = with_zero_pivot(rows)
        swapped += permuted is not None
        for case in (rows, permuted) if permuted else (rows,):
            expected = sympy.Matrix(case)
            m = IntMat(case)
            for _ in range(2):  # the second read comes from the cache
                assert det(m) == m._elimination[0] == expected.det()
                assert adjugate(m).to_lists() == expected.adjugate().tolist()
    assert swapped or n == 1


def permuted_unit_triangular(rng, n, diagonal=None):
    """P L D U with L unit lower and U unit upper triangular, their
    off-diagonal entries in -2..2 and most of them 0, D the given
    diagonal (I by default) and P a random row permutation, as rows."""
    def entry():
        return rng.choice((0, 0, 0, -2, -1, 1, 2))
    lower = IntMat([[int(i == j) or (entry() if j < i else 0)
                     for j in range(n)] for i in range(n)])
    upper = IntMat([[int(i == j) or (entry() if j > i else 0)
                     for j in range(n)] for i in range(n)])
    middle = IntMat.diagonal(diagonal or [1] * n)
    rows = (lower @ middle @ upper).to_lists()
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("n", range(3, 13))
def test_det_and_adjugate_with_swaps_at_later_pivots(n):
    """Unimodular P L U products with a nonzero first pivot and a zero
    leading minor of size 2 to n - 1, so that the first row swap comes
    after the first pivot, against sympy: adj M = det M * M^-1."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(300 + n)
    checked = 0
    for _ in range(100):
        if checked == 3:
            break
        rows = permuted_unit_triangular(rng, n)
        expected = sympy.Matrix(rows)
        if not rows[0][0] or all(expected[:k, :k].det()
                                 for k in range(2, n)):
            continue
        m = IntMat(rows)
        assert det(m) == m._elimination[0] == expected.det() in (1, -1)
        assert adjugate(m).to_lists() == \
            (expected.det() * expected.inv()).tolist()
        checked += 1
    assert checked == 3


def test_singular_permuted_adjugate_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(313)
    diagonal = [1] * 9
    diagonal[5] = 0
    rows = permuted_unit_triangular(rng, 9, diagonal)
    m = IntMat(rows)
    assert det(m) == m._elimination[0] == 0
    assert m._elimination[1] is None
    assert adjugate(m).to_lists() == sympy.Matrix(rows).adjugate().tolist()
    assert any(adjugate(m).rows)


def test_singular_adjugate_is_capped_before_any_minor(monkeypatch):
    import gassmann.lattice as lattice_module

    def no_minor(*args):
        raise AssertionError("a minor was evaluated")
    monkeypatch.setattr(lattice_module, "_minor_det", no_minor)
    singular = IntMat([[i + j for j in range(21)] for i in range(21)])
    with pytest.raises(OrderCapExceeded, match="21x21.*n = 20"):
        adjugate(singular)
    monkeypatch.undo()
    # the cap itself still takes cofactors, one more row does not
    monkeypatch.setattr(lattice_module, "_COFACTOR_CAP", 3)
    assert adjugate(IntMat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == \
        IntMat([[-2, 1, 0], [-2, 1, 0], [2, -1, 0]])
    with pytest.raises(OrderCapExceeded):
        adjugate(IntMat([[i + j for j in range(4)] for i in range(4)]))


def transforms_digest(matrices):
    """SHA-256 over each input with its (D, U, V), in the given order."""
    digest = hashlib.sha256()
    for m in matrices:
        d, u, v = smith_with_transforms(m)
        digest.update(repr((m.rows, d.rows, u.rows, v.rows)).encode())
    return digest.hexdigest()


def test_smith_transforms_pinned_on_random_matrices():
    """(D, U, V) of 500 seeded matrices, 1-6 x 1-6 with entries in -9..9
    and about 30% zeros, pinned by digest: a rewrite of the elimination
    must keep its pivots and its order of operations."""
    rng = random.Random(33)
    matrices = []
    for _ in range(500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(IntMat([[0 if rng.random() < 0.3
                                 else rng.randint(-9, 9)
                                 for _ in range(ncols)]
                                for _ in range(nrows)]))
    assert transforms_digest(matrices) == SMITH_RANDOM_SHA256


def test_smith_transforms_pinned_on_abelianization_inputs(monkeypatch):
    """(D, U, V) of every matrix that the abelianizations of all subgroups
    of the corpus to order 120 and of GL(3,2) take a Smith form of."""
    seen = set()
    real = permgroup_module.smith_with_transforms

    def recording(m):
        seen.add(m)
        return real(m)
    monkeypatch.setattr(permgroup_module, "smith_with_transforms", recording)
    for _, group in standard_corpus(120) + [("GL(3,2)", gl3f2())]:
        for sub in group.all_subgroups():
            permgroup_module.Abelianization(sub)
    assert len(seen) == SMITH_ABELIANIZATION_INPUTS
    assert transforms_digest(sorted(seen, key=lambda m: (
        m.nrows, m.ncols, m.rows))) == SMITH_ABELIANIZATION_SHA256


def test_snf_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9)))
                 for _ in range(ncols)] for _ in range(nrows)]
        expected = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        factors = tuple(abs(expected[i, i])
                        for i in range(min(nrows, ncols)) if expected[i, i])
        assert snf(IntMat(rows))[1] == factors


def rational_membership(basis_rows):
    """Membership in the column lattice of a nonsingular basis: solve
    over Q with sympy's inverse and check that the solution is integral."""
    sympy = pytest.importorskip("sympy")
    inverse = sympy.Matrix(basis_rows).inv()
    return lambda vector: all(
        entry.is_integer for entry in inverse * sympy.Matrix(vector))


def membership_probes(rng, basis_rows):
    """Random vectors and random lattice points, about half of each."""
    n = len(basis_rows)
    for _ in range(12):
        yield [rng.randint(-6, 6) for _ in range(n)]
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        yield [sum(row[j] * coeffs[j] for j in range(n))
               for row in basis_rows]


def test_lattice_membership_against_sympy_solve():
    pytest.importorskip("sympy")
    rng = random.Random(13)
    outcomes = set()
    for n in range(1, 6):
        for _ in range(8):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if det(IntMat(rows)) == 0:
                continue
            lattice = LocalNormLattice(IntMat(rows))
            oracle = rational_membership(rows)
            for vector in membership_probes(rng, rows):
                expected = oracle(vector)
                assert lattice.contains(vector) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_cached_eliminations_leave_the_value_alone():
    m = IntMat([[2, 1], [1, 1]])
    fresh = IntMat([[2, 1], [1, 1]])
    assert det(m) == 1 and adjugate(m) == IntMat([[1, -1], [-1, 2]])
    assert m == fresh and hash(m) == hash(fresh)
    assert hnf(m) == IntMat.identity(2)
    for name in ("rows", "_det", "_elimination", "_hnf"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
