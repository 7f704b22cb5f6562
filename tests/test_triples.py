import itertools
import operator
import random
import tracemalloc
from collections import Counter

import pytest

from gassmann import splitting, triples
from gassmann.abelext import decomposition_count_check
from gassmann.catalog import fano_stabilizers, psl2, scott_triple
from gassmann.errors import (DimensionMismatch, IndexMismatch, MixedSigns,
                             NonSquare, NotFoundWithinBudget,
                             OrderCapExceeded, PreconditionViolated)
from gassmann.lattice import IntMat, adjugate, det
from gassmann.permgroup import (CosetSpace, Permutation, Subgroup,
                                coset_action, double_cosets)
from gassmann.splitting import (arithmetically_equivalent,
                                kronecker_equivalent, splitting_table,
                                ultra_coarse_equivalent,
                                weakly_kronecker_equivalent)
from gassmann.triples import (CorrespondenceMatrix, GassmannTriple,
                              _box_in_l1_order, are_conjugate,
                              integral_search, intertwiner_basis,
                              is_gassmann, permutation_character,
                              verify_integral_triple)


def brute_character(group, subgroup):
    """Fixed-coset counts per class, on explicit frozenset cosets."""
    cosets = []
    seen = set()
    for x in group.elements:
        coset = frozenset(x * h for h in subgroup.elements)
        if coset not in seen:
            seen.add(coset)
            cosets.append(coset)
    counts = []
    for cls in group.conjugacy_classes():
        g = cls.representative
        counts.append(sum(1 for c in cosets
                          if frozenset(g * x for x in c) == c))
    return tuple(counts)


def test_permutation_character_matches_bruteforce(s4):
    for sub in s4.all_subgroups():
        assert permutation_character(s4, sub) == brute_character(s4, sub)


def test_coset_action_is_built_once_per_subgroup(monkeypatch):
    group, h1, h2 = fano_stabilizers()
    involution = group.subgroup([next(g for g in group.elements
                                      if g.order() == 2)])
    built = []
    tabled = []
    init = CosetSpace.__init__
    cycle_types = splitting._cycle_types

    def counting_init(self, group, subgroup):
        built.append(subgroup.element_set)
        init(self, group, subgroup)

    def counting_cycle_types(group, subgroup):
        tabled.append(subgroup.element_set)
        return cycle_types(group, subgroup)

    monkeypatch.setattr(CosetSpace, "__init__", counting_init)
    monkeypatch.setattr(splitting, "_cycle_types", counting_cycle_types)
    assert is_gassmann(group, h1, h2)
    triple = GassmannTriple(group, h1, h2)
    splitting_table(group, h1)
    splitting_table(group, h2)
    for equivalent in (arithmetically_equivalent, kronecker_equivalent,
                       weakly_kronecker_equivalent, ultra_coarse_equivalent):
        assert equivalent(group, h1, h2)
    # one splitting table per subgroup, kept in the group's memo, and
    # read from class counts: no coset space is built for it
    assert tabled == [h1.element_set, h2.element_set]
    assert built == []
    # the decomposition counts read the marks of D on the coset actions,
    # which the triple and the intertwiner basis then share
    for d in (group.trivial_subgroup(), involution):
        assert decomposition_count_check(group, h1, h2, d)
    intertwiner_basis(group, h1, h2)
    assert triple.cosets1 is coset_action(group, h1)
    assert triple.cosets2 is coset_action(group, h2)
    assert built == [h1.element_set, h2.element_set]
    same = Subgroup(group, h1.elements)
    assert same is not h1 and same == h1
    permutation_character(group, same)
    coset_action(group, same)
    assert len(tabled) == 2 and len(built) == 2
    other = group.point_stabilizer(1)
    assert other.order == h1.order and other != h1
    permutation_character(group, other)
    assert tabled[2:] == [other.element_set] and len(built) == 2


def test_conjugate_pairs_are_gassmann(s4):
    h = s4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    g = Permutation.parse(4, "(1 2)")
    h2 = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    assert is_gassmann(s4, h, h2)
    assert are_conjugate(s4, h, h2)


def test_is_gassmann_rejects_unequal_index(s4):
    h1 = s4.subgroup([Permutation.parse(4, "(0 1)")])
    h2 = s4.subgroup([Permutation.parse(4, "(0 1 2)")])
    with pytest.raises(IndexMismatch):
        is_gassmann(s4, h1, h2)


def test_same_order_non_gassmann_pair(d4):
    # C4 vs the Klein subgroup of the square's diagonals
    c4 = d4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    klein = d4.subgroup([Permutation.parse(4, "(0 2)"),
                         Permutation.parse(4, "(1 3)")])
    assert c4.order == klein.order == 4
    assert not is_gassmann(d4, c4, klein)


def test_fano_pair_is_gassmann_not_conjugate(fano):
    group, h1, h2 = fano
    assert is_gassmann(group, h1, h2)
    assert not are_conjugate(group, h1, h2)
    triple = GassmannTriple(group, h1, h2)
    assert triple.index == 7


def test_gassmann_triple_rejects_non_gassmann(d4):
    c4 = d4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    klein = d4.subgroup([Permutation.parse(4, "(0 2)"),
                         Permutation.parse(4, "(1 3)")])
    with pytest.raises(PreconditionViolated):
        GassmannTriple(d4, c4, klein)


def average_equivariant(triple, rng):
    """Random integer intertwiner, built by averaging over the group.

    sum_g P2(g) R P1(g)^-1 commutes with both actions by construction,
    independently of the orbit bookkeeping in intertwiner_basis.
    """
    n = triple.index
    r = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    total = [[0] * n for _ in range(n)]
    for g in triple.group.elements:
        s1 = triple.cosets1.permutation_of(g)
        s2 = triple.cosets2.permutation_of(g)
        # entry (s2(i), s1(j)) accumulates r[i][j]
        for i in range(n):
            for j in range(n):
                total[s2.images[i]][s1.images[j]] += r[i][j]
    return IntMat(total)


def in_span(basis, candidate):
    """Exact span test: basis matrices have disjoint 0/1 supports."""
    n = candidate.nrows
    residual = [[candidate.rows[i][j] for j in range(n)] for i in range(n)]
    for b in basis:
        cells = [(i, j) for i in range(n) for j in range(n)
                 if b.rows[i][j]]
        values = {residual[i][j] for i, j in cells}
        if len(values) != 1:
            return False
        coeff = values.pop()
        for i, j in cells:
            residual[i][j] -= coeff
    return all(x == 0 for row in residual for x in row)


def test_intertwiner_basis_spans_equivariants(fano, s4):
    group, h1, h2 = fano
    triple = GassmannTriple(group, h1, h2)
    basis = intertwiner_basis(group, h1, h2)
    assert len(basis) == len(double_cosets(group, h1, h2))
    rng = random.Random(3)
    for _ in range(5):
        avg = average_equivariant(triple, rng)
        assert in_span(basis, avg)

    h = s4.subgroup([Permutation.parse(4, "(0 1 2)")])
    g = Permutation.parse(4, "(0 3)")
    h2b = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    triple_b = GassmannTriple(s4, h, h2b)
    basis_b = intertwiner_basis(s4, h, h2b)
    assert len(basis_b) == len(double_cosets(s4, h, h2b))
    for _ in range(3):
        assert in_span(basis_b, average_equivariant(triple_b, rng))


def test_basis_matrices_partition_all_cells(fano):
    """The orbit matrices partition the cells, and each has as many ones
    in every row as in every column (G is transitive on both sides), one
    or more of them in row 0: the facts `_IntertwinerSpace` reads."""
    scott = scott_triple(seed=0)
    for group, h1, h2 in (fano, (scott.group, scott.h1, scott.h2)):
        basis = intertwiner_basis(group, h1, h2)
        n = group.order // h1.order
        coverage = [[0] * n for _ in range(n)]
        for b in basis:
            for i in range(n):
                for j in range(n):
                    assert b.rows[i][j] in (0, 1)
                    coverage[i][j] += b.rows[i][j]
            row_counts = {sum(row) for row in b.rows}
            col_counts = {sum(b.column(j)) for j in range(n)}
            assert row_counts == col_counts and len(row_counts) == 1
            assert any(b.rows[0])
        assert all(x == 1 for row in coverage for x in row)


def test_basis_cap_refuses_psl2_29_trivial_pair():
    """k = n = 12,180: the k*n^2 entries are refused once H1's orbits are
    counted, before any column of n entries is built."""
    group = psl2(29)
    trivial = group.trivial_subgroup()
    with pytest.raises(OrderCapExceeded, match="over the cap"):
        intertwiner_basis(group, trivial, trivial)


def test_basis_cap_boundary(monkeypatch):
    """Scott's basis holds k*n^2 = 8 * 203^2 = 329,672 entries."""
    scott = scott_triple(seed=0)
    args = (scott.group, scott.h1, scott.h2)
    monkeypatch.setattr(triples, "_BASIS_CAP", 329_672)
    assert len(intertwiner_basis(*args)) == 8
    monkeypatch.setattr(triples, "_BASIS_CAP", 329_671)
    with pytest.raises(OrderCapExceeded, match="329672 entries"):
        intertwiner_basis(*args)


def test_integral_search_conjugate_fast_path(s4):
    h = s4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    g = Permutation.parse(4, "(0 1)")
    h2 = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    found = integral_search(s4, h, h2, 2, 1000)
    assert found.det in (1, -1)
    assert found.sign == 1
    # a coset bijection: permutation matrix
    assert sorted(sum(row) for row in found.A.rows) == [1] * 6
    triple = GassmannTriple(s4, h, h2)
    report = verify_integral_triple(triple, found)
    assert report["passed"]
    assert report["conjugate_pair"]


def test_search_hit_is_scanned_for_equivariance_once(s4, monkeypatch):
    h = s4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    g = Permutation.parse(4, "(0 1)")
    h2 = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    scans = []
    scan = triples._equivariance_failures
    monkeypatch.setattr(triples, "_equivariance_failures",
                        lambda a, triple: scans.append(a) or scan(a, triple))
    found = integral_search(s4, h, h2, 2, 1000)
    assert len(scans) == 1
    # the hit's own triple reuses the scan made when the hit was built
    report = verify_integral_triple(found.triple, found)
    assert len(scans) == 1
    # another triple, or the bare matrix, is scanned again, to the same
    # report
    assert verify_integral_triple(GassmannTriple(s4, h, h2), found) == \
        report == verify_integral_triple(found.triple, found.A)
    assert len(scans) == 3 and report["passed"]


def test_integral_search_identity_pair(s4):
    h = s4.point_stabilizer(0)
    found = integral_search(s4, h, h, 2, 100)
    assert found.A == IntMat.identity(4)


def test_integral_search_hit_runs_bareiss_once(s4, monkeypatch,
                                               count_passes):
    # without the conjugate short cut the identity pair goes through the
    # candidate loop, whose first unimodular combination is I
    monkeypatch.setattr(triples, "_conjugator", lambda *args: None)
    computed = count_passes("_det")
    h = s4.point_stabilizer(0)
    found = integral_search(s4, h, h, 2, 100)
    assert found.A == IntMat.identity(4) and found.det == 1
    # the survivors are decided by 2x2 Hecke determinants; the hit is
    # the one 4x4 matrix eliminated, and CorrespondenceMatrix shares it
    full = [m for m in computed if m.nrows == 4]
    assert full == [found.A] and full[0] is found.A
    assert {m.nrows for m in computed} == {2, 4}


def test_scott_search_miss_runs_no_full_determinant(count_passes):
    triple = scott_triple(seed=0)
    computed = count_passes("_det")
    with pytest.raises(NotFoundWithinBudget) as err:
        integral_search(triple.group, triple.h1, triple.h2, 2, 400,
                        seed=103)
    assert err.value.trials == 400 and not err.value.exhausted
    # every row-sum survivor is decided by an 8x8 Hecke determinant
    assert computed and {m.nrows for m in computed} == {8}


def orbit_coordinates(basis, m):
    """The coordinates of m in a 0/1 orbit basis, read at each basis
    matrix's first cell; None when m is not their combination."""
    n = m.nrows
    coords = [next(m.rows[i][j] for i in range(n) for j in range(n)
                   if b.rows[i][j]) for b in basis]
    combination = [[sum(c * b.rows[i][j] for c, b in zip(coords, basis))
                    for j in range(n)] for i in range(n)]
    return coords if IntMat(combination) == m else None


def check_inverse(space, a):
    """For a unimodular equivariant A: assemble(x)^T is A^-1 = det(A)
    adj(A) of the n x n elimination, entry by entry, and the space's
    row-support answer is that of A^-1."""
    d, adj = a._elimination
    assert d in (1, -1)
    coeffs = [a.rows[0][space.grid[0].index(e)]
              for e in range(len(space.counts))]
    assert space.assemble(coeffs) == a
    assert space.assemble(space.inverse(coeffs)).transpose() == adj.scale(d)
    assert space.inverse_rows_multi_support(a) == \
        triples._rows_multi_support(adj)


def test_hecke_criterion_matches_full_determinant(fano, s4, monkeypatch):
    """M(c) holds the T_f coordinates of the brute products B_e^T A, and
    its determinant is a unit, or zero, exactly when det A is; x =
    M(c)^-1 e_0 gives A^-1 of every unimodular combination met."""
    rng = random.Random(5)
    # the S4 self-pairs of H = S3, C4 and <(0 1)>
    self_pairs = [(s4, h, h) for h in (
        s4.point_stabilizer(0),
        s4.subgroup([Permutation.parse(4, "(0 1 2 3)")]),
        s4.subgroup([Permutation.parse(4, "(0 1)")]))]
    supports = Counter()
    for (group, h1, h2), k in zip([fano, *self_pairs], (2, 2, 3, 7)):
        basis = intertwiner_basis(group, h1, h2)
        hecke = intertwiner_basis(group, h1, h1)
        assert len(basis) == len(hecke) == k
        space = GassmannTriple(group, h1, h2)._space
        assert len(space.counts) == k
        # a self-pair's row-count-1 basis matrices are permutation
        # matrices, hence unimodular
        units = [tuple(int(d == e) for d in range(k))
                 for e in range(k) if space.counts[e] == 1]
        assert bool(units) == (h1 is h2)
        box = itertools.islice(_box_in_l1_order(k, 3 - k // 3), 150)
        randoms = [tuple(rng.randint(-3, 3) for _ in range(k))
                   for _ in range(20)]
        found = Counter()
        for coeffs in [*units, *box, *randoms]:
            a = space.assemble(coeffs)
            m = space.hecke(coeffs)
            assert [orbit_coordinates(hecke, b.transpose() @ a)
                    for b in basis] == [list(col) for col in zip(*m.rows)]
            d_a, d_m = det(a), det(m)
            assert (d_a in (1, -1)) == (d_m in (1, -1))
            assert (d_a == 0) == (d_m == 0)
            found[d_a in (1, -1), d_a == 0] += 1
            if d_a in (1, -1):
                check_inverse(space, a)
            else:
                with pytest.raises(AssertionError):
                    space.inverse(coeffs)
        assert found[False, True] and found[False, False]
        assert bool(found[True, False]) == (h1 is h2)
        # and every unimodular point of the bound-1 box, found by M(c)
        for coeffs in itertools.product((-1, 0, 1), repeat=k):
            if det(space.hecke(coeffs)) in (1, -1):
                a = space.assemble(coeffs)
                check_inverse(space, a)
                supports[k, space.inverse_rows_multi_support(a)] += 1
        # a wrong k
        monkeypatch.setattr(triples, "intertwiner_basis",
                            lambda *args: [*basis, basis[0]])
        with pytest.raises(PreconditionViolated):
            triples._IntertwinerSpace(GassmannTriple(group, h1, h2))
        monkeypatch.undo()
    # units are +-1 times a permutation matrix but for k = 7, where 16
    # have inverses with two or more nonzero entries in every row
    assert supports == {(2, False): 2, (3, False): 4, (7, False): 4,
                        (7, True): 16}


def test_scott_hit_inverse_in_k_dimensions():
    triple = scott_triple(seed=0)
    found = integral_search(triple.group, triple.h1, triple.h2, 1, 20000)
    space = found.triple._space
    assert len(space.counts) == 8
    check_inverse(space, found.A)
    assert space.inverse_rows_multi_support(found.A)


def test_integral_search_rejects_non_gassmann(d4):
    c4 = d4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    klein = d4.subgroup([Permutation.parse(4, "(0 2)"),
                         Permutation.parse(4, "(1 3)")])
    with pytest.raises(PreconditionViolated):
        integral_search(d4, c4, klein, 2, 100)


def test_integral_search_fano_exhausts_small_box(fano):
    """Recorded outcome: no unimodular intertwiner in the coeff box.

    Two orbit matrices with constant row sums 3 and 4; a row sum
    a*3 + b*4 = +-1 forces the candidates, none of which is unimodular.
    The full 7x7 box is tried once the budget covers its 49 points;
    below that the search samples within the budget.
    """
    group, h1, h2 = fano
    for budget, exhausted, trials in ((100000, True, 49), (49, True, 49),
                                      (48, False, 48)):
        with pytest.raises(NotFoundWithinBudget) as err:
            integral_search(group, h1, h2, 3, budget)
        assert err.value.exhausted is exhausted
        assert err.value.basis_size == 2
        assert err.value.trials == trials


def test_box_order_is_the_sorted_box():
    """The lazy box order equals sorting the whole box by L1 norm, then
    magnitudes, then signs (+ before -)."""
    for k in range(5):
        for bound in range(4):
            box = itertools.product(range(-bound, bound + 1), repeat=k)
            expected = sorted(box, key=lambda c: (
                sum(abs(x) for x in c), tuple(abs(x) for x in c),
                tuple(x < 0 for x in c)))
            assert list(_box_in_l1_order(k, bound)) == expected
    # the 390,625 points of (8, 2) are streamed, not listed: the reference
    # sorts only the 3^8 magnitude tuples and expands each one's signs
    magnitudes = sorted(itertools.product(range(3), repeat=8),
                        key=lambda m: (sum(m), m))
    expected = (c for m in magnitudes for c in itertools.product(
        *[(x, -x) if x else (0,) for x in m]))
    assert all(itertools.starmap(operator.eq, itertools.zip_longest(
        _box_in_l1_order(8, 2), expected)))


def test_box_first_points_need_no_whole_box():
    """The first points of a large box come without listing its
    (bound+1)^k magnitude tuples: 5^8 = 390,625 of them here."""
    tracemalloc.start()
    try:
        first = list(itertools.islice(_box_in_l1_order(8, 4), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first[:2] == [(0,) * 8, (0,) * 7 + (1,)]
    assert peak < 1 << 20


def test_verify_report_flags_broken_candidates(fano):
    group, h1, h2 = fano
    triple = GassmannTriple(group, h1, h2)
    basis = intertwiner_basis(group, h1, h2)
    # equivariant but not unimodular: the incidence matrix itself
    report = verify_integral_triple(triple, basis[0])
    assert not report["passed"]
    assert report["equivariant"]
    assert not report["unimodular"]
    assert report["inverse_rows_multi_support"] is None
    # unimodular but not equivariant
    n = triple.index
    shear = IntMat([[1 if i == j else (1 if (i, j) == (0, 1) else 0)
                     for j in range(n)] for i in range(n)])
    report2 = verify_integral_triple(triple, shear)
    assert not report2["passed"]
    assert report2["unimodular"]
    assert not report2["equivariant"]
    assert report2["equivariance_failures"]
    # the shear's inverse has a single entry in every row but the first
    assert report2["inverse_rows_multi_support"] is False


def test_verify_multi_support_fields(s4):
    h = s4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    g = Permutation.parse(4, "(0 1)")
    h2 = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    triple = GassmannTriple(s4, h, h2)
    found = integral_search(s4, h, h2, 2, 1000)
    report = verify_integral_triple(triple, found)
    # multi-support only applies (and is only reported) when the pair
    # is not conjugate; permutation matrices are fine here
    assert report["conjugate_pair"]
    assert report["passed"]
    assert "rows_multi_support" not in report
    assert "inverse_rows_multi_support" not in report


def test_correspondence_matrix_validation(fano):
    group, h1, h2 = fano
    triple = GassmannTriple(group, h1, h2)
    with pytest.raises(ValueError):
        CorrespondenceMatrix(IntMat.identity(3).scale(2))
    assert CorrespondenceMatrix(IntMat.identity(4).scale(-1)).sign == -1
    with pytest.raises(MixedSigns):
        CorrespondenceMatrix(IntMat([[1, 0], [0, -1]]))
    with pytest.raises(PreconditionViolated):
        CorrespondenceMatrix(IntMat.identity(7), triple)  # not equivariant
    with pytest.raises(NonSquare):
        CorrespondenceMatrix(IntMat([[1, 0]]))


def test_square_matrix_of_the_wrong_size_is_a_dimension_mismatch(fano):
    """A unimodular 3x3 matrix is square, but the Fano index is 7."""
    triple = GassmannTriple(*fano)
    message = "size 3 does not match index 7"
    with pytest.raises(DimensionMismatch, match=message):
        CorrespondenceMatrix(IntMat.identity(3), triple)
    with pytest.raises(DimensionMismatch, match=message):
        verify_integral_triple(triple, IntMat.identity(3))
    with pytest.raises(NonSquare):
        verify_integral_triple(triple, IntMat([[1, 0]]))


def test_ones_eigenvalue_needs_constant_unit_sums():
    """Constant row and column sums of a square matrix agree, so the
    only failures are sums that vary and a common sum other than +-1."""
    with pytest.raises(MixedSigns, match="not constant"):
        triples._ones_eigenvalue(IntMat([[1, 0], [1, 0]]))
    with pytest.raises(MixedSigns, match="not a unit"):
        triples._ones_eigenvalue(IntMat.identity(2).scale(2))
    assert triples._ones_eigenvalue(IntMat([[2, -1], [-1, 2]])) == 1


def test_search_is_deterministic_per_seed(fano):
    group, h1, h2 = fano
    outcomes = []
    for _ in range(2):
        try:
            integral_search(group, h1, h2, 4, 500, seed=9)
            outcomes.append(("found",))
        except NotFoundWithinBudget as exc:
            outcomes.append((exc.trials, exc.exhausted))
    assert outcomes[0] == outcomes[1]
