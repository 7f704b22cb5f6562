"""Coset-table answers against the direct computations they replace.

Conjugacy, double cosets, the intertwiner orbits and the decomposition
counts all read a group's cached coset table.  Each reference below
answers the same question by enumerating group elements instead, and
the two must agree on every subgroup pair of S4, A5, D6 and F20 and on
the Fano triple.  Group orders and conjugacy-class sizes are checked
against sympy where it is installed.
"""

from collections import Counter

import pytest

from gassmann.abelext import decomposition_count_check
from gassmann.catalog import psl2, standard_corpus
from gassmann.lattice import IntMat
from gassmann.permgroup import coset_action, double_cosets
from gassmann.triples import (_conjugator, are_conjugate, intertwiner_basis,
                              is_gassmann)


def conjugator_by_scan(group, h1, h2):
    """The first g in element order with every gxg^-1 in H2."""
    if h1.order != h2.order:
        return None
    for g in group.elements:
        if all(x.conjugate(g) in h2.element_set for x in h1.generators):
            return g
    return None


def double_cosets_by_products(group, h1, h2):
    """First-seen representatives, marking all of H1 x H2 as seen."""
    seen = set()
    reps = []
    for x in group.elements:
        if x in seen:
            continue
        reps.append(x)
        seen.update(a * x * b for a in h1.elements for b in h2.elements)
    return reps


def intertwiner_basis_by_pairs(group, h1, h2):
    """Orbits of (row, column) pairs by depth-first search, numbered by
    their least pair."""
    cosets1 = coset_action(group, h1)
    cosets2 = coset_action(group, h2)
    n = cosets1.index
    pairs = [(cosets2.permutation_of(g).images,
              cosets1.permutation_of(g).images) for g in group.generators]
    orbit_id = [[-1] * n for _ in range(n)]
    orbits = []
    for r0 in range(n):
        for c0 in range(n):
            if orbit_id[r0][c0] >= 0:
                continue
            orbit_id[r0][c0] = len(orbits)
            stack, members = [(r0, c0)], []
            while stack:
                r, c = stack.pop()
                members.append((r, c))
                for s2, s1 in pairs:
                    if orbit_id[s2[r]][s1[c]] < 0:
                        orbit_id[s2[r]][s1[c]] = len(orbits)
                        stack.append((s2[r], s1[c]))
            orbits.append(members)
    basis = []
    for members in orbits:
        rows = [[0] * n for _ in range(n)]
        for r, c in members:
            rows[r][c] = 1
        basis.append(IntMat(rows))
    return basis


def absorbed_conjugates(group, h, d):
    """Number of g in the group with gDg^-1 inside H."""
    return sum(all(x.conjugate(g) in h.element_set for x in d.generators)
               for g in group.elements)


GROUPS = {name: group for name, group in standard_corpus(60)
          if name in ("S4", "A5", "D6", "F20")}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_conjugators_and_double_cosets_match_scans(name):
    group = GROUPS[name]
    subgroups = group.all_subgroups()
    conjugate_pairs = 0
    for h1 in subgroups:
        for h2 in subgroups:
            expected = conjugator_by_scan(group, h1, h2)
            assert _conjugator(group, h1, h2) == expected
            assert are_conjugate(group, h1, h2) == (expected is not None)
            conjugate_pairs += expected is not None
            assert double_cosets(group, h1, h2) == \
                double_cosets_by_products(group, h1, h2)
    # every subgroup is conjugate to itself, and the classes are not all
    # singletons
    assert conjugate_pairs > len(subgroups)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_intertwiner_orbits_and_decomposition_counts_match(name):
    group = GROUPS[name]
    subgroups = group.all_subgroups()
    # conjugate D give equal counts: one D per class of subgroups of
    # order 1 or 2
    small = []
    for d in subgroups:
        if d.order <= 2 and all(conjugator_by_scan(group, e, d) is None
                                for e in small):
            small.append(d)
    # each subgroup's brute counts, computed once for all of its pairs
    counts = {h: [absorbed_conjugates(group, h, d) for d in small]
              for h in subgroups}
    for h1 in subgroups:
        for h2 in subgroups:
            if h1.order != h2.order:
                continue
            assert intertwiner_basis(group, h1, h2) == \
                intertwiner_basis_by_pairs(group, h1, h2)
            if not is_gassmann(group, h1, h2):
                continue
            for d, count1, count2 in zip(small, counts[h1], counts[h2]):
                assert decomposition_count_check(group, h1, h2, d) == \
                    (count1 == count2)


def test_fano_matches_the_references(fano):
    group, h1, h2 = fano
    assert _conjugator(group, h1, h2) is None
    assert conjugator_by_scan(group, h1, h2) is None
    assert double_cosets(group, h1, h2) == \
        double_cosets_by_products(group, h1, h2)
    assert intertwiner_basis(group, h1, h2) == \
        intertwiner_basis_by_pairs(group, h1, h2)
    involution = next(s for s in group.all_subgroups() if s.order == 2)
    for d in (group.trivial_subgroup(), involution):
        count1 = absorbed_conjugates(group, h1, d)
        count2 = absorbed_conjugates(group, h2, d)
        assert decomposition_count_check(group, h1, h2, d) == \
            (count1 == count2)


def _sympy_group(group):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images))
         for g in group.generators] or
        [combinatorics.Permutation(list(range(group.degree)))])


ORACLE_GROUPS = standard_corpus(120) + [(f"PSL(2,{q})", psl2(q))
                                        for q in (5, 7, 11, 13)]


@pytest.mark.parametrize("name,group", ORACLE_GROUPS,
                         ids=[name for name, _ in ORACLE_GROUPS])
def test_order_and_class_sizes_match_sympy(name, group):
    reference = _sympy_group(group)
    assert group.order == reference.order()
    assert Counter(c.size for c in group.conjugacy_classes()) == \
        Counter(len(c) for c in reference.conjugacy_classes())
