import random
from collections import Counter
from math import gcd

import pytest

from gassmann.abelext import (LocalModel, choose_q,
                              decomposition_count_check,
                              local_splitting_type, notwkeq_construct,
                              transport_lattice)
from gassmann.errors import (CoprimalityViolated, DimensionMismatch,
                             NonSquare, PreconditionViolated)
from gassmann.lattice import IntMat, LocalNormLattice, det
from gassmann.permgroup import Permutation

A_PAPER = IntMat([[2, 1, -2], [-1, 0, 2], [0, 0, 1]])


def test_separation_pipeline_canonical_example():
    s1, s2, g1, g2 = notwkeq_construct(A_PAPER, 5)
    assert list(s1) == [1, 5, 5]
    assert list(s2) == [5, 5, 5]
    assert (g1, g2) == (1, 5)


def test_pipeline_rejects_bad_q():
    with pytest.raises(CoprimalityViolated):
        notwkeq_construct(A_PAPER, 2)  # 2 divides a cofactor
    with pytest.raises(ValueError):
        notwkeq_construct(A_PAPER, 1)
    with pytest.raises(PreconditionViolated, match="not unimodular: det = 2"):
        notwkeq_construct(IntMat([[2, 0], [0, 1]]), 5)
    with pytest.raises(NonSquare, match="transport needs a square matrix"):
        notwkeq_construct(IntMat([[1, 0, 0], [0, 1, 0]]), 5)


def test_choose_q_values():
    assert choose_q(A_PAPER) == 3
    assert choose_q(IntMat.identity(2)) == 2
    # both cofactors of [[1,1],[0,1]] include 1s only, so 2 works
    assert choose_q(IntMat([[1, 1], [0, 1]])) == 2


def test_choose_q_and_construct_share_one_elimination(count_passes):
    computed = count_passes("_elimination")
    a = IntMat(A_PAPER.rows)  # a fresh matrix, nothing cached on it yet
    s1, s2, _, _ = notwkeq_construct(a, choose_q(a))
    assert (list(s1), list(s2)) == ([1, 3, 3], [3, 3, 3])
    assert [m for m in computed if m is a] == [a]
    # besides A, only the two lattice bases are eliminated, once each
    assert len(computed) == 3


def test_choose_q_skips_cofactor_primes():
    m = IntMat([[1, 0, 0], [0, 2, 3], [0, 1, 2]])  # det 1
    q = choose_q(m)
    from gassmann.lattice import adjugate
    for row in adjugate(m).rows:
        for entry in row:
            if entry:
                assert entry % q != 0


def test_local_model_standard_shape():
    model = LocalModel.standard(A_PAPER, 5)
    assert model.n == 3
    assert model.q == 5
    basis = model.L1_prime.basis
    assert basis.rows[0][0] == 1
    assert basis.rows[1][1] == 5
    assert basis.rows[2][2] == 5
    assert model.synthetic


def test_transport_lattice_applies_transpose():
    lattice = LocalNormLattice(IntMat.identity(3))
    moved = transport_lattice(A_PAPER, lattice)
    assert moved.basis == A_PAPER.transpose()
    with pytest.raises(DimensionMismatch):
        transport_lattice(A_PAPER, LocalNormLattice(IntMat.identity(2)))


def test_local_splitting_type_of_diagonal():
    s = local_splitting_type(LocalNormLattice(
        IntMat([[1, 0, 0], [0, 5, 0], [0, 0, 5]])))
    assert list(s) == [1, 5, 5]
    s2 = local_splitting_type(IntMat([[2, 1], [0, 3]]))
    assert list(s2) == [2, 6]


def random_unimodular(rng, n):
    """Product of elementary shears and sign flips; det is +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntMat(m)


def test_pipeline_left_side_always_splits_one():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        a = random_unimodular(rng, n)
        q = choose_q(a)
        s1, s2, g1, g2 = notwkeq_construct(a, q)
        assert g1 == 1
        assert list(s1) == [1] + [q] * (n - 1)
        # S2 entries are powers of q bounded by the lattice index
        for part in s2:
            assert q ** (n - 1) % part == 0
            while part % q == 0:
                part //= q
            assert part == 1
        assert g2 == min(s2)


def test_pipeline_gcds_separate_iff_inverse_rows_avoid_column_one():
    rng = random.Random(29)
    seen_separating = 0
    for _ in range(40):
        n = rng.choice([2, 3])
        a = random_unimodular(rng, n)
        q = choose_q(a)
        _, s2, _, g2 = notwkeq_construct(a, q)
        from gassmann.lattice import adjugate
        inverse = adjugate(a).scale(det(a))
        expects_split = all(
            any(row[j] for j in range(1, n)) for row in inverse.rows)
        assert (g2 == q) == expects_split
        seen_separating += expects_split
    assert seen_separating  # the sample must include separating cases


def test_decomposition_count_check_trivial_and_involution(fano):
    group, h1, h2 = fano
    trivial = group.trivial_subgroup()
    assert decomposition_count_check(group, h1, h2, trivial)
    involution = next(g for g in h1.elements
                      if g.order() == 2 and g in h2.element_set)
    d = group.subgroup([involution])
    assert decomposition_count_check(group, h1, h2, d)


def test_decomposition_count_check_reads_marks_on_fano(fano):
    """Every subgroup D of GL(3,2) against the brute-force count of g
    with gDg^-1 inside each side: the Klein four-groups and the
    subgroups of order 12 and 24 absorb different numbers of conjugates
    into the point and the hyperplane stabilizer."""
    group, h1, h2 = fano

    def absorbed(h, d):
        return sum(all(x.conjugate(g) in h for x in d.elements)
                   for g in group.elements)

    subgroups = group.all_subgroups()
    assert len(subgroups) == 179
    failing = Counter()
    for d in subgroups:
        expected = absorbed(h1, d) == absorbed(h2, d)
        assert decomposition_count_check(group, h1, h2, d) == expected
        if not expected:
            failing[d.order] += 1
    assert failing == {4: 14, 12: 14, 24: 14}


def test_decomposition_count_check_requires_gassmann(d4):
    c4 = d4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    klein = d4.subgroup([Permutation.parse(4, "(0 2)"),
                         Permutation.parse(4, "(1 3)")])
    with pytest.raises(PreconditionViolated):
        decomposition_count_check(d4, c4, klein, d4.trivial_subgroup())
