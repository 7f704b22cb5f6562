import itertools
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassmann.errors import IndexMismatch, PreconditionViolated
from gassmann.permgroup import Permutation, normal_core
from gassmann.splitting import (NumericalSet, SplittingType,
                                arithmetically_equivalent,
                                kronecker_equivalent, norm_count,
                                numerical_set, splitting_table,
                                splitting_type, ultra_coarse_bound_check,
                                ultra_coarse_equivalent,
                                weakly_kronecker_equivalent)


def oracle_type(group, subgroup, g):
    """Cycle lengths of g on explicit frozenset cosets."""
    cosets = []
    seen = set()
    for x in group.elements:
        c = frozenset(x * h for h in subgroup.elements)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    move = {c: frozenset(g * x for x in c) for c in cosets}
    lengths = []
    visited = set()
    for c in cosets:
        if c in visited:
            continue
        length = 0
        cur = c
        while cur not in visited:
            visited.add(cur)
            cur = move[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def test_splitting_type_matches_coset_oracle(s4, d6):
    for group in (s4, d6):
        for sub in group.all_subgroups():
            for cls in group.conjugacy_classes():
                s = splitting_type(group, sub, cls)
                assert s.parts == oracle_type(group, sub,
                                              cls.representative)


def test_splitting_type_accepts_raw_permutation(s4):
    h = s4.point_stabilizer(0)
    g = Permutation.parse(4, "(0 1)")
    assert splitting_type(s4, h, g).parts == (1, 1, 2)


def test_splitting_type_rejects_element_outside_group(a4):
    trivial = a4.trivial_subgroup()
    for outside in (Permutation.parse(4, "(0 1)"),
                    Permutation.parse(5, "(0 1 2)")):
        with pytest.raises(ValueError, match="not an element of this group"):
            splitting_type(a4, trivial, outside)


def test_splitting_type_basic_properties():
    s = SplittingType([2, 1, 2])
    assert s.parts == (1, 2, 2)
    assert s.degree == 5
    assert s.gcd() == 1
    assert s.lcm() == 2
    assert s.contains_one
    assert repr(s) == "{{1, 2, 2}}"
    with pytest.raises(ValueError):
        SplittingType([0, 1])
    with pytest.raises(ValueError):
        SplittingType([])


def test_splitting_type_is_its_sorted_tuple():
    assert SplittingType.__hash__ is tuple.__hash__
    assert SplittingType.__eq__ is tuple.__eq__
    s = SplittingType([2, 1, 2])
    assert s == (1, 2, 2) and hash(s) == hash((1, 2, 2))
    assert list(s) == [1, 2, 2] and len(s) == 3
    for name in ("parts", "degree", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, (1,))
    with pytest.raises(TypeError):
        SplittingType()
    for bad in ([-2], [3, 1.5]):
        with pytest.raises(ValueError):
            SplittingType(bad)


def test_splitting_table_alignment(fano):
    group, h1, _ = fano
    table = splitting_table(group, h1)
    classes = group.conjugacy_classes()
    assert len(table) == len(classes)
    for cls, s in zip(classes, table):
        assert s.degree == 7
        assert s == splitting_type(group, h1, cls)


def test_identity_class_splits_completely(s4):
    h = s4.point_stabilizer(0)
    s = splitting_type(s4, h, s4.identity)
    assert s.parts == (1, 1, 1, 1)


def test_arithmetic_equivalence(fano, d4):
    group, h1, h2 = fano
    assert arithmetically_equivalent(group, h1, h2)
    c4 = d4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    klein = d4.subgroup([Permutation.parse(4, "(0 2)"),
                         Permutation.parse(4, "(1 3)")])
    assert not arithmetically_equivalent(d4, c4, klein)
    with pytest.raises(IndexMismatch):
        arithmetically_equivalent(d4, c4, d4.full_subgroup())


def test_degree_free_relations_allow_unequal_index(s4):
    # Kronecker-style relations compare membership/gcd/lcm, not degree
    h = s4.point_stabilizer(0)
    full = s4.full_subgroup()
    assert not kronecker_equivalent(s4, h, full)
    assert kronecker_equivalent(s4, h, h)
    assert weakly_kronecker_equivalent(s4, h, h)
    assert ultra_coarse_equivalent(s4, h, h)


def test_conjugates_satisfy_every_relation(s4):
    h = s4.subgroup([Permutation.parse(4, "(0 1)(2 3)"),
                     Permutation.parse(4, "(0 1)")])
    g = Permutation.parse(4, "(1 2 3)")
    h2 = s4.subgroup_from_elements(x.conjugate(g) for x in h.elements)
    assert arithmetically_equivalent(s4, h, h2)
    assert kronecker_equivalent(s4, h, h2)
    assert weakly_kronecker_equivalent(s4, h, h2)
    assert ultra_coarse_equivalent(s4, h, h2)


def brute_numerical_set(parts, cap):
    reachable = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for p in parts:
            w = v + p
            if w <= cap and w not in reachable:
                reachable.add(w)
                frontier.append(w)
    return frozenset(reachable)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                max_size=4),
       st.integers(min_value=0, max_value=60))
def test_numerical_set_matches_bruteforce(parts, cap):
    s = SplittingType(parts)
    assert numerical_set(s, cap).members == brute_numerical_set(
        s.parts, cap)


def test_numerical_set_equality_is_capped():
    a = numerical_set(SplittingType([2, 3]), 10)
    b = numerical_set(SplittingType([2, 3]), 11)
    assert a != b  # different caps are different observations
    assert a == numerical_set(SplittingType([3, 2]), 10)
    # {{1}} and {{1, 2}} generate the same semigroup
    c = numerical_set(SplittingType([1]), 10)
    d = numerical_set(SplittingType([1, 2]), 10)
    assert c.base != d.base and c == d and hash(c) == hash(d)


def brute_norm_count(parts, k):
    """Solutions of sum(c_i p_i) = k in c_i >= 0: every choice of all
    but the last c_i, and the last one when the remainder allows it."""
    count = 0
    *first, last = parts
    ranges = [range(0, k // p + 1) for p in first]
    for combo in itertools.product(*ranges):
        rest = k - sum(c * p for c, p in zip(combo, first))
        if rest >= 0 and rest % last == 0:
            count += 1
    return count


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                max_size=4),
       st.integers(min_value=0, max_value=24))
def test_norm_count_matches_bruteforce(parts, k):
    assert norm_count(SplittingType(parts), k) == brute_norm_count(parts, k)


def test_negative_caps_are_refused():
    s = SplittingType([1, 2])
    with pytest.raises(ValueError, match="nonnegative"):
        numerical_set(s, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        norm_count(s, -1)


def test_norm_count_distinguishes_multiplicity():
    assert norm_count(SplittingType([1, 1]), 3) == 4
    assert norm_count(SplittingType([1]), 3) == 1


def test_ultra_coarse_bound_check_basics():
    s1 = SplittingType([2, 4])
    s2 = SplittingType([4])
    c = 6
    d = ultra_coarse_bound_check(s1, s2, c, 40)
    assert abs(c - d) < 4
    assert d % 4 == 0
    with pytest.raises(PreconditionViolated):
        ultra_coarse_bound_check(s1, SplittingType([2]), 4, 40)
    with pytest.raises(PreconditionViolated):
        ultra_coarse_bound_check(s1, s2, 3, 40)  # 3 not in N1


def test_ultra_coarse_bound_check_prefers_exact_match():
    s1 = SplittingType([2, 3])
    s2 = SplittingType([6, 2, 3])
    assert ultra_coarse_bound_check(s1, s2, 12, 40) == 12


def random_type_with_lcm(rng, lam):
    divisors = [d for d in range(1, lam + 1) if lam % d == 0]
    parts = [lam] + [rng.choice(divisors)
                     for _ in range(rng.randint(0, 3))]
    rng.shuffle(parts)
    return SplittingType(parts)


def test_ultra_coarse_witness_property():
    rng = random.Random(17)
    for _ in range(60):
        lam = rng.choice([2, 3, 4, 6, 8, 12])
        s1 = random_type_with_lcm(rng, lam)
        s2 = random_type_with_lcm(rng, lam)
        cap = 6 * lam
        members = sorted(numerical_set(s1, cap).members)
        c = rng.choice(members)
        d = ultra_coarse_bound_check(s1, s2, c, cap)
        assert abs(c - d) < lam
        assert d in numerical_set(s2, cap + lam)


def test_core_free_lcm_equals_element_order(s4, f20):
    # when the coset action is faithful the lcm of the cycle type is
    # the order of the acting element
    for group in (s4, f20):
        for sub in group.all_subgroups():
            if normal_core(group, sub).order != 1:
                continue
            for cls in group.conjugacy_classes():
                s = splitting_type(group, sub, cls)
                assert s.lcm() == cls.element_order
