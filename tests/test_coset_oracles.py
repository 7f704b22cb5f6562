"""Coset-table and class-map answers against the direct computations
they replace.

Conjugacy, double cosets, the intertwiner orbits and the decomposition
counts all read a group's cached coset table.  Each reference below
answers the same question by enumerating group elements instead, and
the two must agree on every subgroup pair of S4, A5, D6 and F20 and on
the Fano triple.  The conjugacy classes, read off one orbit computation
on element indices, must match a breadth-first search over conjugates,
and every splitting type must match the cycle type of the element's own
coset permutation.  Group orders, conjugacy-class sizes and the
abelianization of every subgroup are checked against sympy where it is
installed.
"""

from collections import Counter

import pytest

from gassmann.abelext import decomposition_count_check
from gassmann.catalog import gl3f2, psl2, standard_corpus
from gassmann.lattice import IntMat
from gassmann.permgroup import (FinAbGroup, Permutation, abelianization,
                                coset_action, double_cosets)
from gassmann.splitting import splitting_type
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


def conjugacy_classes_by_search(group):
    """(representative, members) per class: breadth-first search over
    conjugates by the generators, seeded in element order."""
    classes = []
    assigned = set()
    for seed in group.elements:
        if seed in assigned:
            continue
        orbit = [seed]
        for current in orbit:  # grows while it is walked
            for g in group.generators:
                moved = current.conjugate(g)
                if moved not in orbit:
                    orbit.append(moved)
        assigned.update(orbit)
        classes.append((seed, frozenset(orbit)))
    return classes


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
    # conjugate D give equal counts: one D per class of subgroups
    classes = []
    for d in subgroups:
        if all(conjugator_by_scan(group, e, d) is None for e in classes):
            classes.append(d)
    # each subgroup's brute counts, computed once for all of its pairs
    counts = {h: [absorbed_conjugates(group, h, d) for d in classes]
              for h in subgroups}
    for h1 in subgroups:
        for h2 in subgroups:
            if h1.order != h2.order:
                continue
            assert intertwiner_basis(group, h1, h2) == \
                intertwiner_basis_by_pairs(group, h1, h2)
            if not is_gassmann(group, h1, h2):
                continue
            for d, count1, count2 in zip(classes, counts[h1], counts[h2]):
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


LATTICE_GROUPS = standard_corpus(120) + [("GL(3,2)", gl3f2())]


@pytest.mark.parametrize("name,group", LATTICE_GROUPS,
                         ids=[name for name, _ in LATTICE_GROUPS])
def test_subgroup_abelianizations_match_sympy(name, group):
    """The walk over each subgroup's derived generators gives the
    abelian invariants sympy finds for the group they generate."""
    for sub in group.all_subgroups():
        reference = _sympy_group(sub)
        assert reference.order() == sub.order
        assert abelianization(sub).structure == \
            FinAbGroup.from_cyclic_orders(reference.abelian_invariants())


CLASS_GROUPS = standard_corpus(120) + [(f"PSL(2,{q})", psl2(q))
                                       for q in (7, 11)]


@pytest.mark.parametrize("name,group", CLASS_GROUPS,
                         ids=[name for name, _ in CLASS_GROUPS])
def test_class_map_matches_the_search(name, group):
    classes = group.conjugacy_classes()
    assert [(c.representative, c.members) for c in classes] == \
        conjugacy_classes_by_search(group)
    own = {x.images: x for x in group.elements}
    assert all(own[x.images] is x for c in classes for x in c.members)
    assert all(own[c.representative.images] is c.representative
               for c in classes)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_class_of_and_splitting_type_match_the_action(name):
    group = GROUPS[name]
    reference = conjugacy_classes_by_search(group)
    for x in group.elements:
        assert group.class_of(x).members == \
            next(members for _, members in reference if x in members)
    for h in group.all_subgroups():
        action = coset_action(group, h)
        for x in group.elements:
            cycle_type = action.permutation_of(x).cycle_type()
            assert splitting_type(group, h, x).parts == cycle_type
            assert splitting_type(group, h, group.class_of(x)).parts == \
                cycle_type
    outside = Permutation.identity(group.degree + 1)
    with pytest.raises(ValueError):
        group.class_of(outside)
    with pytest.raises(ValueError):
        splitting_type(group, group.trivial_subgroup(), outside)
