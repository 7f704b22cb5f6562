"""Coset-table and class-map answers against the direct computations
they replace.

Conjugacy, double cosets, the intertwiner orbits and the decomposition
counts all read a group's cached coset table.  Each reference below
answers the same question by enumerating group elements instead, and
the two must agree on every subgroup pair of S4, A5, D6 and F20 and on
the Fano triple; the intertwiner orbits also on Scott's index-203 pair
and on Subgroups used as groups.  The conjugacy classes, read off one
orbit computation on walks of the Cayley-graph tables, must match a
breadth-first search over conjugates, for groups and for subgroups
taken as groups in their own right.  Each coset representative must
be its walk parent's times the generator that reached it.  Every
splitting type, read from
class counts, must match the cycle type of a coset permutation.  The
transfer, read off the coset table's places, must equal the product of
the H-parts on every subgroup of the corpus to order 120, of GL(3,2)
and of PSL(2,11), and form no product doing so.  Group
orders, conjugacy-class sizes and the abelianization of every subgroup
are checked against sympy where it is installed.
"""

from collections import Counter

import pytest

from gassmann import triples
from gassmann.abelext import decomposition_count_check
from gassmann.catalog import (gl3f2, psl2, scott_triple, standard_corpus,
                              symmetric)
from gassmann.lattice import IntMat
from gassmann.permgroup import (AbHom, CosetSpace, FinAbGroup, Permutation,
                                _CayleyGraph, _orbits, abelianization,
                                coset_action, double_cosets, transfer)
from gassmann.splitting import splitting_table, splitting_type
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


def transfer_by_products(group, subgroup):
    """g goes to the product over the cosets r_i H of its H-parts
    r_j^-1 * g * r_i, with g * r_i in r_j H, projected to H^ab."""
    ab_g, ab_h = abelianization(group), abelianization(subgroup)
    cosets = coset_action(group, subgroup)
    columns = []
    for g in ab_g.basis_reps:
        product = group.identity
        for rep in cosets.coset_reps:
            moved = g * rep
            target = cosets.coset_reps[cosets.coset_index_of(moved)]
            product = product * (target.inverse() * moved)
        columns.append(ab_h.project(product))
    return AbHom.from_columns(ab_g.factors, ab_h.factors, columns)


def conjugacy_classes_by_search(group):
    """(representative, members) per class: breadth-first search over
    conjugates by the generators, seeded in element order."""
    classes = []
    assigned = set()
    for seed in group.elements:
        if seed in assigned:
            continue
        orbit, members = [seed], {seed}
        for current in orbit:  # grows while it is walked
            for g in group.generators:
                moved = current.conjugate(g)
                if moved not in members:
                    members.add(moved)
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


def test_transfer_matches_the_product_reference():
    ambients = [g for _, g in standard_corpus(120)] + [gl3f2(), psl2(11)]
    pairs = [(g, h) for g in ambients for h in g.all_subgroups()]
    assert len(pairs) == 1132
    for group, sub in pairs:
        assert transfer(group, sub) == transfer_by_products(group, sub)


def test_transfer_on_subgroup_ambients_matches_the_product_reference(
        subgroup_ambients):
    for group in subgroup_ambients:
        for sub in group.all_subgroups():
            assert transfer(group, sub) == transfer_by_products(group, sub)


def test_transfer_forms_no_products(monkeypatch):
    fano = gl3f2()
    pairs = [(g, h) for g in (symmetric(4), fano, fano.point_stabilizer(0))
             for h in g.all_subgroups()]
    products, mul = [], Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda p, q: products.append(None) or mul(p, q))
    for group, sub in pairs:
        transfer(group, sub)
    assert products == []


def test_coset_spaces_walk_each_generator_once(monkeypatch):
    group = gl3f2()
    subgroups, graph = group.all_subgroups(), group._cayley_graph
    walks, left_multiples = [], _CayleyGraph.left_multiples
    monkeypatch.setattr(
        _CayleyGraph, "left_multiples",
        lambda graph, i: walks.append((graph, i)) or left_multiples(graph, i))
    for sub in subgroups:
        CosetSpace(group, sub)
    assert walks == [(graph, graph.index[g]) for g in graph.generators]


def test_coset_walk_tree_rebuilds_the_representatives(subgroup_ambients):
    """Coset j > 0 was reached from coset parent[j - 1] by the generator
    via[j - 1], so its representative is that generator times the
    parent's, on groups and on Subgroups used as groups."""
    scott = scott_triple(seed=0)
    pairs = [(group, sub)
             for group in [g for _, g in standard_corpus(120)]
             + [gl3f2(), *subgroup_ambients]
             for sub in group.all_subgroups()]
    pairs += [(scott.group, scott.h1), (scott.group, scott.h2)]
    for group, sub in pairs:
        cosets = coset_action(group, sub)
        reps = cosets.coset_reps
        assert len(cosets.parent) == len(cosets.via) == len(reps) - 1
        for j, (i, k) in enumerate(zip(cosets.parent, cosets.via), start=1):
            assert i < j and reps[j] == group.generators[k] * reps[i]


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


def test_double_cosets_on_subgroup_ambients_match_scans(subgroup_ambients):
    """A Subgroup's coset table is indexed in its Cayley-graph order, but
    each double coset is still represented by its first element in the
    Subgroup's own element order."""
    for group in subgroup_ambients:
        subgroups = group.all_subgroups()
        for h1 in subgroups:
            for h2 in subgroups:
                assert double_cosets(group, h1, h2) == \
                    double_cosets_by_products(group, h1, h2)


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


def test_intertwiner_basis_on_subgroup_ambients_matches_pairs(
        subgroup_ambients):
    for group in subgroup_ambients:
        subgroups = group.all_subgroups()
        for h1 in subgroups:
            for h2 in subgroups:
                if h1.order == h2.order:
                    assert intertwiner_basis(group, h1, h2) == \
                        intertwiner_basis_by_pairs(group, h1, h2)


@pytest.mark.parametrize("seed", [0, 3])
def test_scott_intertwiner_basis_matches_pairs(seed):
    triple = scott_triple(seed=seed)
    args = (triple.group, triple.h1, triple.h2)
    basis = intertwiner_basis(*args)
    assert len(basis) == 8 and basis[0].nrows == 203
    assert basis == intertwiner_basis_by_pairs(*args)


def test_intertwiner_basis_searches_n_points(fano, monkeypatch):
    """The orbit search runs on the n rows of column 0, not on the n^2
    cells."""
    sizes = []

    def spy(moves, n):
        sizes.append(n)
        return _orbits(moves, n)

    monkeypatch.setattr(triples, "_orbits", spy)
    scott = scott_triple(seed=0)
    for group, h1, h2 in (fano, (scott.group, scott.h1, scott.h2)):
        sizes.clear()
        intertwiner_basis(group, h1, h2)
        assert sizes and max(sizes) <= group.order // h1.order


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


CLASS_GROUPS = standard_corpus(120) + [("GL(3,2)", gl3f2())] + [
    (f"PSL(2,{q})", psl2(q)) for q in (7, 11, 29)]


def assert_class_map_matches_the_search(group):
    """Classes, representatives, members and every element's class
    number against the search, with the members the group's own
    element objects."""
    classes = group.conjugacy_classes()
    reference = conjugacy_classes_by_search(group)
    assert [(c.representative, c.members) for c in classes] == reference
    number = {x: i for i, (_, members) in enumerate(reference)
              for x in members}
    for x in group.elements:
        assert group._class_index(x) == number[x]
        assert group.class_of(x) is classes[number[x]]
    own = {x.images: x for x in group.elements}
    assert all(own[x.images] is x for c in classes for x in c.members)
    assert all(own[c.representative.images] is c.representative
               for c in classes)


@pytest.mark.parametrize("name,group", CLASS_GROUPS,
                         ids=[name for name, _ in CLASS_GROUPS])
def test_class_map_matches_the_search(name, group):
    assert_class_map_matches_the_search(group)


def breadth_first_order(generators):
    """Each element once, in the order a queue first reaches it from the
    identity by right multiplication with the generators in turn: the
    order every class-ordered list and report digest follows."""
    elements = [Permutation.identity(generators[0].degree)]
    seen = set(elements)
    for current in elements:
        for g in generators:
            if current * g not in seen:
                seen.add(current * g)
                elements.append(current * g)
    return tuple(elements)


def test_cayley_graph_tables_hold_the_products():
    """The closure's tables: right[k][i] indexes elements[i] * g_k, the
    tree edges rebuild each element, the left multiples of a are
    a * x, and each conjugation walk is x -> g^-1 x g on element
    indices."""
    for group in (GROUPS["S4"], gl3f2(), psl2(11)):
        graph = group._cayley_graph
        index = group._element_index
        assert graph.elements is group.elements and graph.index is index
        assert group.elements == breadth_first_order(group.generators)
        for g, right in zip(group.generators, graph.right):
            assert right == [index[x * g] for x in group.elements]
        for j, (p, k) in enumerate(zip(graph.parent, graph.via), start=1):
            assert group.elements[j] == \
                group.elements[p] * group.generators[k]
        for a in (group.identity, group.elements[-1], *group.generators):
            assert graph.left_multiples(index[a]) == \
                [index[a * x] for x in group.elements]
        for g, move in zip(group.generators, graph.conjugations()):
            assert move == [index[x.conjugate(g.inverse())]
                            for x in group.elements]


def _subgroups_as_groups():
    fano = gl3f2()
    s5 = dict(standard_corpus(120))["S5"]
    s4 = fano.point_stabilizer(0)
    return [("S4 in GL(3,2)", s4),
            ("A4 in S4 in GL(3,2)",
             next(h for h in s4.all_subgroups() if h.order == 12)),
            ("D4 in GL(3,2)",
             next(h for h in fano.all_subgroups() if h.order == 8)),
            ("F20 in S5",
             next(h for h in s5.all_subgroups() if h.order == 20)),
            ("A5 in S5",
             next(h for h in s5.all_subgroups() if h.order == 60)),
            ("C6 in S5",
             next(h for h in s5.all_subgroups()
                  if h.order == 6 and
                  any(x.order() == 6 for x in h.elements)))]


SUBGROUPS = _subgroups_as_groups()


@pytest.mark.parametrize("name,sub", SUBGROUPS,
                         ids=[name for name, _ in SUBGROUPS])
def test_subgroup_class_map_matches_the_search(name, sub):
    """A `Subgroup` relabels its own Cayley-graph walks onto its sorted
    element order: the classes are those of the subgroup as a group in
    its own right."""
    assert list(sub.elements) == sorted(sub.elements)
    assert_class_map_matches_the_search(sub)
    for cls in sub.conjugacy_classes():
        g = cls.representative
        assert cls.members == frozenset(g.conjugate(x)
                                        for x in sub.elements)


def cycle_types_on_the_cosets(group, sub):
    act = coset_action(group, sub).permutation_of
    return [act(cls.representative).cycle_type()
            for cls in group.conjugacy_classes()]


SMALL_GROUPS = [(name, group) for name, group in standard_corpus(24)]


@pytest.mark.parametrize("name,group", SMALL_GROUPS + [("GL(3,2)", gl3f2())],
                         ids=[name for name, _ in SMALL_GROUPS] + ["GL(3,2)"])
def test_class_count_splitting_tables_match_the_coset_action(name, group):
    for sub in group.all_subgroups():
        assert [s.parts for s in splitting_table(group, sub)] == \
            cycle_types_on_the_cosets(group, sub)


def test_scott_splitting_tables_match_the_coset_action():
    triple = scott_triple(seed=0)
    for sub in (triple.h1, triple.h2):
        assert [s.parts for s in splitting_table(triple.group, sub)] == \
            cycle_types_on_the_cosets(triple.group, sub)


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
