"""End-to-end acceptance gate: eight criteria, one recorded verdict
line each, printed in the terminal summary.  Every numeric target is
checked against an independent in-test oracle or a pinned exact value.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from gassmann.abelext import choose_q, notwkeq_construct
from gassmann.catalog import scott_triple, standard_corpus
from gassmann.cli import main
from gassmann.homology import conjugation_sweep
from gassmann.kgroups import FieldModel, k_group
from gassmann.lattice import (IntMat, LocalNormLattice, adjugate, det,
                              format_matrix_file, maximal_normal_sublattice)
from gassmann.permgroup import (AbHom, FinAbGroup, abelianization,
                                coset_action, format_group_file,
                                inclusion_induced, normal_core,
                                parse_group_file, transfer)
from gassmann.splitting import (SplittingType, arithmetically_equivalent,
                                kronecker_equivalent, numerical_set,
                                splitting_table, splitting_type,
                                ultra_coarse_bound_check,
                                weakly_kronecker_equivalent)
from gassmann.triples import are_conjugate, is_gassmann


def run_criterion(acceptance, label, body, budget=None):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed <= budget, \
                f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        acceptance(f"{label}: FAIL")
        raise
    acceptance(f"{label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_scott_triple(acceptance):
    def body():
        triple = scott_triple(seed=0)
        group = triple.group
        assert group.order == 12180  # q(q^2 - 1)/2 for q = 29
        assert triple.h1.order == 60 and triple.h2.order == 60
        # perfect order-60 groups are A5; the constructor enforced the
        # Gassmann property and non-conjugacy
        assert abelianization(triple.h1).structure == FinAbGroup()
        assert abelianization(triple.h2).structure == FinAbGroup()
        assert is_gassmann(group, triple.h1, triple.h2)
        assert not are_conjugate(group, triple.h1, triple.h2)
        again = scott_triple(seed=0)
        assert again.h1.element_set == triple.h1.element_set
        assert again.h2.element_set == triple.h2.element_set

    run_criterion(acceptance, "criterion 1 (scott triple)", body, budget=300)


def brute_cycle_type(group, subgroup, g):
    """Cycle lengths of g on explicit frozenset cosets."""
    cosets = []
    seen = set()
    for x in group.elements:
        c = frozenset(x * h for h in subgroup.elements)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    lengths = []
    visited = set()
    for c in cosets:
        if c in visited:
            continue
        length = 0
        current = c
        while True:
            visited.add(current)
            length += 1
            current = frozenset(g * x for x in current)
            if current == c:
                break
        lengths.append(length)
    return sorted(lengths)


def test_criterion_2_classical_pair(acceptance, fano):
    def body():
        group, h1, h2 = fano
        assert is_gassmann(group, h1, h2)
        assert not are_conjugate(group, h1, h2)
        assert arithmetically_equivalent(group, h1, h2)
        for sub in (h1, h2):
            table = splitting_table(group, sub)
            for cls, s in zip(group.conjugacy_classes(), table):
                assert sorted(s) == brute_cycle_type(group, sub,
                                                     cls.representative)

    run_criterion(acceptance, "criterion 2 (classical pair)", body, budget=1)


def brute_normal_parts(m):
    """Least k with k*e_i inside the column lattice, by membership tests."""
    n = m.nrows
    lat = LocalNormLattice(m)
    bound = abs(det(m))
    out = []
    for i in range(n):
        for k in range(1, bound + 1):
            if lat.contains([k if r == i else 0 for r in range(n)]):
                out.append(k)
                break
        else:
            raise AssertionError("no multiple found up to |det|")
    return tuple(out)


def test_criterion_3_separation_pipeline(acceptance):
    def body():
        a = IntMat([[2, 1, -2], [-1, 0, 2], [0, 0, 1]])
        s1, s2, gcd1, gcd2 = notwkeq_construct(a, 5)
        assert list(s1) == [1, 5, 5]
        assert list(s2) == [5, 5, 5]
        assert (gcd1, gcd2) == (1, 5)
        assert gcd1 != gcd2  # the two sides are not weakly Kronecker
        rng = random.Random(11)
        for size, half_width in ((3, 6), (4, 3)):
            checked = 0
            while checked < 100:
                m = IntMat([[rng.randint(-half_width, half_width)
                             for _ in range(size)] for _ in range(size)])
                d = det(m)
                if d == 0 or abs(d) > 720:
                    continue
                assert maximal_normal_sublattice(m) == brute_normal_parts(m)
                checked += 1

    run_criterion(acceptance, "criterion 3 (separation pipeline)", body,
                  budget=10)


def test_criterion_4_k_group_rule(acceptance):
    def body():
        q = FieldModel.rationals()
        assert k_group(q, 3) == FinAbGroup(0, (48,))
        assert k_group(q, 5) == FinAbGroup(1, ())
        assert k_group(q, 7) == FinAbGroup(0, (240,))
        assert k_group(q, 9) == FinAbGroup(1, (2,))

    run_criterion(acceptance, "criterion 4 (k-group rule)", body)


def test_criterion_5_homology_suite(acceptance):
    def body():
        corpus = standard_corpus(120)
        for _, group in corpus:
            if group.order > 60:
                continue
            factors = abelianization(group).factors
            for h in group.all_subgroups():
                index = group.order // h.order
                composite = inclusion_induced(h, group).compose(
                    transfer(group, h))
                assert composite == AbHom.scalar(factors, index)
        report = conjugation_sweep(corpus, max_order=120)
        assert report["diagram_failures"] == []
        assert report["gthm_failures"] == []
        assert report["passed"]
        assert report["correspondences"] > 0 and report["gthm_checks"] > 0

    run_criterion(acceptance, "criterion 5 (homology suite)", body,
                  budget=120)


def test_criterion_6_equivalence_implications(acceptance, fano):
    def body():
        pairs = [fano]
        for _, group in standard_corpus(24):
            by_order = {}
            for sub in group.all_subgroups():
                by_order.setdefault(sub.order, []).append(sub)
            for bucket in by_order.values():
                for h1, h2 in itertools.combinations(bucket, 2):
                    pairs.append((group, h1, h2))
        assert len(pairs) >= 30
        set_cache = {}

        def span(s, cap):
            key = (tuple(s), cap)
            if key not in set_cache:
                set_cache[key] = numerical_set(s, cap).members
            return set_cache[key]

        for group, h1, h2 in pairs:
            arithmetic = arithmetically_equivalent(group, h1, h2)
            kronecker = kronecker_equivalent(group, h1, h2)
            weak = weakly_kronecker_equivalent(group, h1, h2)
            if arithmetic:
                assert kronecker
            if kronecker:
                assert weak
            cap = 2 * (group.order // h1.order) ** 2
            by_sets = all(
                span(splitting_type(group, h1, cls), cap)
                == span(splitting_type(group, h2, cls), cap)
                for cls in group.conjugacy_classes())
            assert kronecker == by_sets
        for _, group in standard_corpus(24):
            for sub in group.all_subgroups():
                if normal_core(group, sub).order != 1:
                    continue
                for cls in group.conjugacy_classes():
                    s = splitting_type(group, sub, cls)
                    assert s.lcm() == cls.element_order

    run_criterion(acceptance, "criterion 6 (equivalence implications)", body)


def test_criterion_7_ultra_coarse_bound(acceptance):
    def body():
        rng = random.Random(5)

        def random_type(lam):
            divisors = [d for d in range(1, lam + 1) if lam % d == 0]
            parts = [lam] + [rng.choice(divisors)
                             for _ in range(rng.randint(0, 3))]
            rng.shuffle(parts)
            return SplittingType(parts)

        checks = 0
        while checks < 120:
            lam = rng.choice([2, 3, 4, 5, 6, 8, 10, 12])
            s1 = random_type(lam)
            s2 = random_type(lam)
            assert s1.lcm() == s2.lcm() == lam
            cap = 6 * lam
            c = rng.choice(sorted(numerical_set(s1, cap).members))
            d = ultra_coarse_bound_check(s1, s2, c, cap)
            assert abs(c - d) < lam
            assert d in numerical_set(s2, cap + lam).members
            checks += 1
        assert checks >= 100

    run_criterion(acceptance, "criterion 7 (ultra-coarse bound)", body)


def brute_coset_actions(group, subgroup):
    """Generator permutations on explicit frozenset cosets xH, labelled
    by the program's coset representatives."""
    label = {frozenset(rep * h for h in subgroup.elements): i
             for i, rep in enumerate(coset_action(group,
                                                  subgroup).coset_reps)}
    assert len(label) == group.order // subgroup.order
    return [[label[frozenset(g * x for x in coset)] for coset in label]
            for g in group.generators]


# SHA-256 of the `gassmann search --bound 1` report on Scott's triple at
# seed 0: a change to how the search or the verifier works keeps its bytes
SCOTT_SEARCH_SHA256 = \
    "a64b5a9887e01e342585aa6718e4ad011352c550518c47c89906131fc31be4de"


def test_criterion_8_scott_intertwiner(acceptance, tmp_path, capsys,
                                       count_passes):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix

    def body():
        triple = scott_triple(seed=0)
        paths = []
        for name, g in (("g", triple.group), ("h1", triple.h1),
                        ("h2", triple.h2)):
            path = tmp_path / f"{name}.grp"
            path.write_text(format_group_file(g))
            paths.append(path)
        pair = [str(paths[0]), "--h1", str(paths[1]), "--h2", str(paths[2])]
        eliminated = count_passes("_elimination")
        code = main(["gassmann", "search", *pair, "--bound", "1"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SCOTT_SEARCH_SHA256
        assert report["found"] and report["verification"]["passed"]
        rows = report["matrix"]["rows"]
        n = len(rows)
        assert n == 203
        # the hit, read back from a matrix file, verifies as in the search
        hit = tmp_path / "hit.mat"
        hit.write_text(format_matrix_file(IntMat(rows)))
        code = main(["gassmann", "verify", *pair, "--matrix", str(hit)])
        verified = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {key: value for key, value in verified.items()
                if key not in ("command", "schema")} == report["verification"]
        # the program inverts an equivariant candidate in k = 8 dimensions
        # and eliminates no 203x203 matrix before the oracle below does
        assert {m.nrows for m in eliminated} == {8}
        d = DomainMatrix([[ZZ(x) for x in row] for row in rows],
                         (n, n), ZZ).det()
        assert d in (1, -1)
        # equivariance on the groups the program reads from the files
        group, h1, h2 = (parse_group_file(path.read_text())
                         for path in paths)
        h1, h2 = group.subgroup(h1.generators), group.subgroup(h2.generators)
        for s1, s2 in zip(brute_coset_actions(group, h1),
                          brute_coset_actions(group, h2)):
            assert all(rows[s2[r]][s1[c]] == rows[r][c]
                       for r in range(n) for c in range(n))
        # the separation on this matrix: adj A is +-A^-1, checked by a
        # plain product, and predicts q (the least prime dividing no
        # nonzero entry) and S2 (q where a row of A^-1 is nonzero outside
        # its first column, else 1)
        a = IntMat(rows)
        inverse = adjugate(a).rows
        columns = list(zip(*inverse))
        product = [[sum(x * y for x, y in zip(row, col)) for col in columns]
                   for row in rows]
        assert product in ([[int(i == j) for j in range(n)]
                            for i in range(n)],
                           [[-int(i == j) for j in range(n)]
                            for i in range(n)])
        entries = {abs(x) for row in inverse for x in row} - {0}
        q = next(p for p in (2, 3, 5, 7, 11, 13)
                 if all(x % p for x in entries))
        assert q == 2
        s1, s2, gcd1, gcd2 = notwkeq_construct(a, choose_q(a))
        assert list(s1) == [1] + [q] * (n - 1)
        assert list(s2) == sorted(q if any(row[1:]) else 1
                                  for row in inverse) == [q] * n
        assert (gcd1, gcd2) == (1, q)

    run_criterion(acceptance, "criterion 8 (scott intertwiner)", body,
                  budget=120)
