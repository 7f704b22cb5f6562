import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann.errors import NonSquare, ParseError, SingularMatrix
from gassmann.homology import CoordSubgroup
from gassmann.lattice import (IntMat, LocalNormLattice, _square_hnf,
                              adjugate, det, format_matrix_file, hnf,
                              lattice_index, maximal_normal_sublattice,
                              parse_matrix_file, smith_with_transforms, snf)

small = st.integers(min_value=-8, max_value=8)


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
    """The relation lattice of Z/2 x Z/4 from redundant relations, and a
    lattice of rank 1 in Z^2, which has no square basis."""
    relations = IntMat([[2, 0, 4, 2], [0, 4, 4, 8]])
    assert _square_hnf(relations) == IntMat([[2, 0], [0, 4]])
    with pytest.raises(ValueError):
        _square_hnf(IntMat([[1, 2], [2, 4]]))


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


def test_maximal_normal_sublattice_rejects_singular():
    with pytest.raises(SingularMatrix):
        maximal_normal_sublattice(IntMat([[1, 2], [2, 4]]))


def test_lattice_membership_and_index():
    lat = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    assert lattice_index(lat) == 6
    assert lat.contains((2, 0))
    assert lat.contains((1, 3))
    assert not lat.contains((1, 0))
    assert not lat.contains((0, 1))
    with pytest.raises(ValueError):
        lat.contains((1, 0, 0))


def test_lattice_equality_via_hnf():
    a = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    b = LocalNormLattice(IntMat([[1, 2], [3, 0]]))  # same columns, swapped
    assert a == b
    assert hash(a) == hash(b)


def test_lattice_hnf_is_lazy_and_computed_once(monkeypatch):
    import gassmann.lattice as lattice_module
    calls = []
    real_hnf = lattice_module.hnf
    monkeypatch.setattr(lattice_module, "hnf",
                        lambda m: calls.append(m) or real_hnf(m))
    a = LocalNormLattice(IntMat([[2, 1], [0, 3]]))
    b = LocalNormLattice(IntMat([[1, 2], [3, 0]]))
    assert calls == []
    for _ in range(2):
        assert a.contains((1, 3)) and a == b and hash(a) == hash(b)
    assert calls == [a.basis, b.basis]


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


@pytest.mark.parametrize("n", range(1, 7))
def test_det_and_adjugate_against_sympy(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 + n)
    ranks = [n] * 4 + [n - 1] * 3 + [rng.randint(0, max(0, n - 2))
                                      for _ in range(3)]
    for rank in ranks:
        rows = matrix_of_rank(rng, n, rank)
        expected = sympy.Matrix(rows)
        m = IntMat(rows)
        for _ in range(2):  # the second read comes from the cache
            assert det(m) == expected.det()
            assert adjugate(m).to_lists() == expected.adjugate().tolist()


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


def test_coord_subgroup_membership_against_sympy_solve():
    pytest.importorskip("sympy")
    rng = random.Random(17)
    outcomes = set()
    for k in range(1, 6):
        for _ in range(8):
            # a lower-triangular basis with positive pivots, the shape
            # CoordSubgroup stores; its lattice contains det * Z^k
            rows = [[rng.randint(1, 6) if i == j else
                     (rng.randint(-5, 5) if j < i else 0)
                     for j in range(k)] for i in range(k)]
            basis = IntMat(rows)
            subgroup = CoordSubgroup([det(basis)] * k, basis)
            oracle = rational_membership(rows)
            for vector in membership_probes(rng, rows):
                expected = oracle(vector)
                assert subgroup.contains(vector) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_cached_eliminations_leave_the_value_alone():
    m = IntMat([[2, 1], [1, 1]])
    fresh = IntMat([[2, 1], [1, 1]])
    assert det(m) == 1 and adjugate(m) == IntMat([[1, -1], [-1, 2]])
    assert m == fresh and hash(m) == hash(fresh)
    for name in ("rows", "_det", "_elimination"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
