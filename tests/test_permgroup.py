import gc
import hashlib
import itertools
import random
import time
import weakref
from collections import Counter
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gassmann.permgroup as permgroup_module
import gassmann.splitting as splitting_module
from gassmann.catalog import (_FANO_VECTORS, alternating, cyclic, dihedral,
                              gl3f2, psl2, standard_corpus, symmetric)
from gassmann.errors import (InvalidPermutation, NotASubgroup,
                             OrderCapExceeded, ParseError)
from gassmann.homology import (Correspondence, CoordSubgroup,
                               conjugation_sweep, corresponding_subgroups,
                               gthm_check)
from gassmann.lattice import (IntMat, LocalNormLattice, _square_hnf,
                              smith_with_transforms)
from gassmann.permgroup import (_DEGREE_CAP, AbHom, FinAbGroup, PermGroup,
                                Permutation, Subgroup, abelianization,
                                coset_action, double_cosets,
                                format_group_file, inclusion_induced,
                                normal_core, parse_group_file, transfer)
from gassmann.splitting import SplittingType, numerical_set, splitting_table

perms5 = st.permutations(range(5)).map(Permutation)


def test_parse_and_format_roundtrip():
    p = Permutation.parse(6, "(0 1 2)(3 4)")
    assert p.images == (1, 2, 0, 4, 3, 5)
    assert Permutation.parse(6, p.format()) == p
    assert Permutation.parse(4, "()") == Permutation.identity(4)
    assert Permutation.identity(3).format() == "()"


def test_parse_rejects_garbage():
    with pytest.raises(InvalidPermutation):
        Permutation.parse(3, "(0 1")
    with pytest.raises(InvalidPermutation):
        Permutation.parse(3, "(0 5)")
    with pytest.raises(InvalidPermutation):
        Permutation.parse(3, "(0 0)")


def test_negative_powers_invert():
    p = Permutation.parse(4, "(0 1 2 3)")
    assert p ** -3 == p
    assert p ** -1 == p.inverse()


def test_permutation_is_its_image_tuple():
    assert Permutation.__hash__ is tuple.__hash__
    assert Permutation.__eq__ is tuple.__eq__
    p = Permutation.parse(4, "(0 1 2)")
    assert p == (1, 2, 0, 3) and hash(p) == hash((1, 2, 0, 3))
    assert tuple(p) == p.images
    for name in ("images", "degree", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, (0, 1, 2, 3))
    with pytest.raises(TypeError):
        Permutation()
    for bad in ([0, 0, 1], [0, 3, 1], [-1, 0], [0, 1.0]):
        with pytest.raises(InvalidPermutation):
            Permutation(bad)


# cycle strings: free text over the notation's characters, and
# well-formed cycles whose points may fall outside degree 6
cycle_texts = st.one_of(
    st.text(alphabet="()0123456789 ,", max_size=24),
    st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=3).map(
        lambda cycles: "".join("(" + " ".join(map(str, c)) + ")"
                               for c in cycles)))


@settings(max_examples=300)
@given(cycle_texts)
def test_parse_returns_a_permutation_or_raises_invalid(text):
    try:
        p = Permutation.parse(6, text)
    except InvalidPermutation:
        return
    assert type(p) is Permutation and p.degree == 6
    assert Permutation.parse(6, p.format()) == p


@given(perms5, perms5)
def test_composition_acts_right_to_left(p, q):
    for i in range(5):
        assert (p * q).images[i] == p.images[q.images[i]]


@given(perms5)
def test_inverse_and_order(p):
    assert p * p.inverse() == Permutation.identity(5)
    assert p ** p.order() == Permutation.identity(5)
    assert p.order() == next(
        k for k in range(1, 121) if p ** k == Permutation.identity(5))


@given(perms5, perms5)
def test_conjugate_matches_composition(p, g):
    assert p.conjugate(g) == g * p * g.inverse()


def test_cycle_type_includes_fixed_points():
    p = Permutation.parse(6, "(0 1 2)(3 4)")
    assert p.cycle_type() == (1, 2, 3)


def test_closure_orders():
    assert symmetric_order(4) == 24
    assert PermGroup(5, [Permutation.parse(5, "(0 1 2 3 4)")]).order == 5


def test_gl3f2_generators_preserve_point_hyperplane_incidence():
    group = gl3f2()
    assert group.generators == (
        (0, 5, 6, 3, 4, 1, 2, 7, 8, 9, 12, 13, 10, 11),
        (3, 0, 4, 1, 5, 2, 6, 10, 7, 11, 8, 12, 9, 13))

    def vanishes(point, hyperplane):
        return sum(map(mul, _FANO_VECTORS[point],
                       _FANO_VECTORS[hyperplane - 7])) % 2 == 0
    # g maps v to g.v and f to f o g^-1, and (f o g^-1)(g.v) = f(v)
    for g in group.generators:
        for point in range(7):
            for hyperplane in range(7, 14):
                assert (vanishes(g[point], g[hyperplane])
                        == vanishes(point, hyperplane))


def symmetric_order(n):
    gens = [Permutation.parse(n, "(0 1)"),
            Permutation([(i + 1) % n for i in range(n)])]
    return PermGroup(n, gens).order


def test_order_cap_enforced():
    # |S9| = 362,880: enumeration stops at DEFAULT_ORDER_CAP + 1 elements
    with pytest.raises(OrderCapExceeded):
        symmetric(9)


def test_permgroup_rejects_bad_generators():
    with pytest.raises(InvalidPermutation, match="not a permutation"):
        PermGroup(4, [(1, 0, 2, 3)])
    with pytest.raises(InvalidPermutation,
                       match="generator degree 3 != group degree 4"):
        PermGroup(4, [Permutation.parse(3, "(0 1)")])
    with pytest.raises(NotASubgroup):
        symmetric(4).subgroup_from_elements([Permutation.identity(5)])


def test_group_file_with_a_second_degree_line_is_refused():
    with pytest.raises(ParseError) as info:
        parse_group_file("degree: 4\ndegree: 4\ngen: (0 1)\n")
    assert info.value.line == 2


def test_catalog_edge_sizes():
    assert cyclic(1).order == symmetric(1).order == alternating(2).order == 1
    assert alternating(3).order == 3
    for build in (lambda: cyclic(0), lambda: dihedral(2), lambda: psl2(4),
                  lambda: symmetric(0), lambda: alternating(0)):
        with pytest.raises(ValueError):
            build()


def test_degree_cap_covers_permgroup():
    """Every image of a group's elements fits in a byte."""
    top = Permutation.parse(_DEGREE_CAP, f"(0 {_DEGREE_CAP - 1})")
    assert PermGroup(_DEGREE_CAP, [top]).order == 2
    with pytest.raises(InvalidPermutation):
        PermGroup(_DEGREE_CAP + 1, [])
    with pytest.raises(InvalidPermutation):
        cyclic(_DEGREE_CAP + 1)
    # the group-file range: below 1, or not an int, is no degree
    for degree in (0, -3, 1.5):
        with pytest.raises(InvalidPermutation):
            PermGroup(degree, [])
    trivial = parse_group_file(format_group_file(PermGroup(1, [])))
    assert (trivial.degree, trivial.order) == (1, 1)


def reference_cayley_graph(degree, generators):
    """The closure on plain tuples, a product by indexing: (elements,
    index, right, parent, via) in breadth-first order."""
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    right = [[] for _ in generators]
    parent, via = [], []
    for f, current in enumerate(elements):
        for k, g in enumerate(generators):
            product = tuple(current[point] for point in g)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
                parent.append(f)
                via.append(k)
            right[k].append(index[product])
    return elements, index, right, parent, via


def test_closure_matches_reference():
    a, b = Permutation.parse(4, "(0 1 2 3)"), Permutation.parse(4, "(0 1)")
    graphs = [group._cayley_graph for _, group in standard_corpus(120)]
    graphs += [psl2(7)._cayley_graph, psl2(29)._cayley_graph,
               PermGroup(1, [])._cayley_graph,
               permgroup_module._closure(1, [Permutation.identity(1)], 1),
               PermGroup(4, [a, b, a])._cayley_graph]
    for graph in graphs:
        degree = len(graph.elements[0])
        elements, index, right, parent, via = \
            reference_cayley_graph(degree, graph.generators)
        assert list(graph.elements) == elements
        assert graph.index == index
        assert (graph.right, graph.parent, graph.via) == (right, parent, via)
        # the index holds the very Permutations that `elements` holds
        assert all(type(x) is Permutation for x in graph.elements)
        assert list(map(id, graph.index)) == list(map(id, graph.elements))


def test_closure_cap_boundary():
    for group in (symmetric(4), psl2(7)):
        closure = permgroup_module._closure
        assert len(closure(group.degree, group.generators,
                           group.order)) == group.order
        with pytest.raises(OrderCapExceeded):
            closure(group.degree, group.generators, group.order - 1)


def test_conjugacy_classes_partition(s4):
    classes = s4.conjugacy_classes()
    assert sum(c.size for c in classes) == 24
    assert sorted(c.size for c in classes) == [1, 3, 6, 6, 8]
    seen = set()
    for c in classes:
        assert s4.order % c.size == 0
        assert len({m.cycle_type() for m in c.members}) == 1
        seen |= set(c.members)
    assert len(seen) == 24


def test_class_of_is_consistent(s4):
    for c in s4.conjugacy_classes():
        for m in c.members:
            assert s4.class_of(m) is c


def test_subgroup_requires_membership(s4, q8):
    with pytest.raises(NotASubgroup):
        s4.subgroup([q8.generators[0]])
    with pytest.raises(NotASubgroup):
        s4.subgroup_from_elements(
            [Permutation.identity(4), Permutation.parse(4, "(0 1)"),
             Permutation.parse(4, "(0 2)")])


def test_empty_subgroup_is_refused(s4):
    # an empty element set is no subgroup, not an order to divide by
    with pytest.raises(NotASubgroup, match="at least the identity"):
        Subgroup(s4, [])
    with pytest.raises(NotASubgroup, match="at least the identity"):
        s4.subgroup_from_elements([])


def test_subgroup_from_elements_decides_closure_without_products(
        monkeypatch):
    s4 = symmetric(4)
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda p, q: products.append(p) or mul(p, q))
    # <(0 1 2)> has 3 elements too, so the search stops with (0 1 3) unseen
    for text in ("(0 1 3)", "(0 1)"):
        with pytest.raises(NotASubgroup, match="^set not closed"):
            s4.subgroup_from_elements([Permutation.identity(4),
                                       Permutation.parse(4, "(0 1 2)"),
                                       Permutation.parse(4, text)])
    with pytest.raises(NotASubgroup, match="^set not closed"):
        s4.subgroup_from_elements([Permutation.parse(4, "(0 1)")])
    for h in s4.all_subgroups():
        assert s4.subgroup_from_elements(reversed(h.elements)) == h
    assert products == []


def test_subgroup_from_elements_against_brute_force_closure():
    s3 = symmetric(3)
    for size in range(1, s3.order + 1):
        for subset in itertools.combinations(s3.elements, size):
            closed = all(a * b in subset for a in subset for b in subset)
            try:
                s3.subgroup_from_elements(subset)
            except NotASubgroup as error:
                assert not closed and str(error).startswith("set not closed")
            else:
                assert closed


def test_subgroup_from_elements_on_psl2_29_is_fast():
    group = psl2(29)
    started = time.perf_counter()
    whole = group.subgroup_from_elements(group.elements)
    assert time.perf_counter() - started < 2.0
    assert whole.order == 12180


def test_subgroup_from_elements_searches_generators_once(monkeypatch):
    """The closure check is the generator search of the returned
    subgroup's Cayley graph, so reading its generators searches no more."""
    group = psl2(29)
    calls = []
    reduce = permgroup_module._reduce_generators
    monkeypatch.setattr(permgroup_module, "_reduce_generators",
                        lambda *args: calls.append(args) or reduce(*args))
    whole = group.subgroup_from_elements(group.elements)
    assert len(whole.generators) >= 2
    assert len(calls) == 1


def test_unclosed_subgroup_refuses_its_generators(s4):
    """A Subgroup built on a set that is not closed raises NotASubgroup,
    not a KeyError, when its generators are first read."""
    unclosed = Subgroup(s4, [Permutation.identity(4),
                             Permutation.parse(4, "(0 1 2)"),
                             Permutation.parse(4, "(0 1 3)")])
    for _ in range(2):
        with pytest.raises(NotASubgroup, match="^set not closed"):
            unclosed.generators
    with pytest.raises(NotASubgroup, match="^set not closed"):
        Subgroup(s4, [Permutation.parse(4, "(0 1)")]).generators


def test_all_subgroups_counts(s4, d4, q8):
    # classical subgroup counts
    assert len(s4.all_subgroups()) == 30
    assert len(d4.all_subgroups()) == 10
    assert len(q8.all_subgroups()) == 6
    by_order = Counter(sub.order for sub in symmetric(5).all_subgroups())
    assert by_order == {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15,
                        10: 6, 12: 15, 20: 6, 24: 5, 60: 1, 120: 1}
    assert sum(by_order.values()) == 156


def reference_closure(identity, generators):
    elements = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for g in generators:
            product = current * g
            if product not in elements:
                elements.add(product)
                frontier.append(product)
    return frozenset(elements)


def reference_subgroups(group):
    """Element tuples of every subgroup, by closing <S, x> from scratch
    for each subgroup S (from its generators of first discovery) and
    each x outside it."""
    trivial = frozenset([group.identity])
    found = {trivial: ()}
    worklist = [trivial]
    while worklist:
        current = worklist.pop()
        for x in group.elements:
            if x in current:
                continue
            gens = found[current] + (x,)
            key = reference_closure(group.identity, gens)
            if key not in found:
                found[key] = gens
                worklist.append(key)
    ordered = sorted(found, key=lambda k: (len(k), sorted(k)))
    return [tuple(sorted(k)) for k in ordered]


def relabelled_s4(seed):
    """S4 moved onto six points by a random relabelling."""
    sigma = Permutation(random.Random(seed).sample(range(6), 6))
    gens = [Permutation(g.images + (4, 5)).conjugate(sigma)
            for g in symmetric(4).generators]
    return PermGroup(6, gens)


def test_all_subgroups_matches_reference(corpus60):
    groups = [group for _, group in corpus60] + [relabelled_s4(7)]
    for group in groups:
        subgroups = group.all_subgroups()
        assert [sub.elements for sub in subgroups] == \
            reference_subgroups(group)
        for sub in subgroups:
            assert reference_closure(sub.identity, sub.generators) == \
                sub.element_set


def test_all_subgroups_refuses_large_groups():
    with pytest.raises(OrderCapExceeded):
        symmetric(7).all_subgroups()


def test_point_stabilizer_orbit_stabilizer(s4):
    stab = s4.point_stabilizer(0)
    assert stab.order == 6
    assert stab.index == 4
    # the index is taken in the group a subgroup is built in, which the
    # subgroup does not keep
    assert not hasattr(stab, "parent")
    assert stab.point_stabilizer(1).index == 3
    with pytest.raises(NotASubgroup):
        Subgroup(stab, [Permutation.parse(4, "(0 3)")])


def test_coset_space_is_transitive_action(s4):
    h = s4.point_stabilizer(0)
    cosets = coset_action(s4, h)
    assert cosets.index == 4
    for g in s4.generators:
        sigma = cosets.permutation_of(g)
        # the action permutation must agree with left multiplication
        for i, rep in enumerate(cosets.coset_reps):
            assert cosets.coset_index_of(g * rep) == sigma.images[i]


def test_coset_action_is_homomorphism(s4):
    h = s4.subgroup([Permutation.parse(4, "(0 1 2)")])
    cosets = coset_action(s4, h)
    for a in s4.generators:
        for b in s4.generators:
            assert (cosets.permutation_of(a * b)
                    == cosets.permutation_of(a) * cosets.permutation_of(b))


class ReferenceCosets:
    """The coset space before the coset table: a coset is keyed by
    min(x * h for h in H), and representatives are found by the same
    breadth-first search over the generators."""

    def __init__(self, group, subgroup):
        self.subgroup = subgroup
        reps = [group.identity]
        self.key_to_index = {self.key_of(group.identity): 0}
        for current in reps:
            for g in group.generators:
                candidate = g * current
                key = self.key_of(candidate)
                if key not in self.key_to_index:
                    self.key_to_index[key] = len(reps)
                    reps.append(candidate)
        self.coset_reps = tuple(reps)

    def key_of(self, x):
        return min(x * h for h in self.subgroup.elements)

    def coset_index_of(self, x):
        return self.key_to_index[self.key_of(x)]


def test_coset_table_matches_reference(s4, fano, subgroup_ambients):
    a5 = alternating(5)
    gl32, h1, h2 = fano
    cases = ([(group, h) for group in [s4, a5, *subgroup_ambients]
              for h in group.all_subgroups()]
             + [(gl32, h1), (gl32, h2)])
    for group, h in cases:
        cosets = coset_action(group, h)
        reference = ReferenceCosets(group, h)
        assert cosets.coset_reps == reference.coset_reps
        indices = [cosets.coset_index_of(x) for x in group.elements]
        assert indices == [reference.coset_index_of(x)
                           for x in group.elements]
        for x, i in zip(group.elements, indices):
            x_inv = x.inverse()
            for y, j in zip(group.elements, indices):
                assert (i == j) == (x_inv * y in h.element_set)


def test_coset_space_forms_no_products(monkeypatch):
    """The coset table walks the ambient's Cayley graph, and its
    representatives are the ambient's own element objects."""
    groups = [symmetric(4), gl3f2(), psl2(7), gl3f2().point_stabilizer(0)]
    cases = [(group, h) for group in groups for h in group.all_subgroups()]
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda p, q: products.append(p) or mul(p, q))
    spaces = [(group, permgroup_module.CosetSpace(group, h))
              for group, h in cases]
    assert products == []
    for group, cosets in spaces:
        own = {id(x) for x in group.elements}
        assert all(id(rep) in own for rep in cosets.coset_reps)


# (memo kind, module, builder, table of (group, subgroup))
PER_SUBGROUP_TABLES = [
    ("cosets", permgroup_module, "CosetSpace", coset_action),
    ("splitting", splitting_module, "_cycle_types", splitting_table),
    ("transfer", permgroup_module, "_transfer", transfer),
    ("inclusion", permgroup_module, "_inclusion",
     lambda group, h: inclusion_induced(h, group)),
    ("core", permgroup_module, "_normal_core", normal_core),
]


@pytest.mark.parametrize("kind, module, builder, table", PER_SUBGROUP_TABLES,
                         ids=[case[0] for case in PER_SUBGROUP_TABLES])
def test_per_subgroup_tables_are_built_once_and_checked(
        monkeypatch, kind, module, builder, table):
    a4 = alternating(4)
    v4 = a4.subgroup([Permutation.parse(4, "(0 1)(2 3)"),
                      Permutation.parse(4, "(0 2)(1 3)")])
    built = []
    build = getattr(module, builder)
    monkeypatch.setattr(module, builder,
                        lambda group, h: built.append(h) or build(group, h))
    first = table(a4, v4)
    assert table(a4, a4.subgroup_from_elements(v4.elements)) == first
    assert table(a4, v4) == first
    assert built == [v4]
    s4, s5 = symmetric(4), symmetric(5)
    for foreign in (s4.subgroup([Permutation.parse(4, "(0 1)")]),
                    s5.subgroup([Permutation.parse(5, "(0 1 2)")])):
        with pytest.raises(NotASubgroup):
            table(a4, foreign)
    assert [key for k, key in a4._memo if k == kind] == [v4]


def test_coset_lookup_outside_group_raises(s4):
    a4 = s4.subgroup([Permutation.parse(4, "(0 1 2)"),
                      Permutation.parse(4, "(1 2 3)")])
    cosets = coset_action(a4, a4.trivial_subgroup())
    with pytest.raises(KeyError):
        cosets.coset_index_of(Permutation.parse(4, "(0 1)"))


@pytest.mark.parametrize("degree", [0, 1, 2, 30])
def test_product_and_conjugate_match_definitions(degree):
    rng = random.Random(degree)

    def draw():
        images = list(range(degree))
        rng.shuffle(images)
        return Permutation(images)

    for _ in range(50):
        p, g = draw(), draw()
        g_inv = [g.images.index(i) for i in range(degree)]
        product = p * g
        assert type(product.images) is tuple
        assert product.images == tuple(p.images[g.images[i]]
                                       for i in range(degree))
        conjugate = p.conjugate(g)  # g p g^-1
        assert type(conjugate.images) is tuple
        assert conjugate.images == tuple(g.images[p.images[g_inv[i]]]
                                         for i in range(degree))
    with pytest.raises(InvalidPermutation):
        Permutation.identity(degree) * Permutation.identity(degree + 1)
    with pytest.raises(InvalidPermutation):
        Permutation.identity(degree).conjugate(
            Permutation.identity(degree + 1))


def brute_core(group, subgroup):
    """Intersection of all conjugates, element by element."""
    core = set(subgroup.element_set)
    for g in group.elements:
        core &= {g * h * g.inverse() for h in subgroup.element_set}
    return frozenset(core)


def test_element_set_subgroup_finds_generators_on_first_read(
        s4, monkeypatch):
    calls = []
    reduce = permgroup_module._reduce_generators
    monkeypatch.setattr(permgroup_module, "_reduce_generators",
                        lambda *args: calls.append(args) or reduce(*args))
    d4 = s4.subgroup([Permutation.parse(4, "(0 1 2 3)"),
                      Permutation.parse(4, "(0 2)")])
    core = normal_core(s4, d4)
    assert core.order == 4 and calls == []
    generators = core.generators
    assert core.generators is generators and len(calls) == 1
    assert s4.subgroup(generators) == core


def relabelled_a5(seed):
    """A5 moved onto seven points by a random relabelling."""
    sigma = Permutation(random.Random(seed).sample(range(7), 7))
    gens = [Permutation(g.images + (5, 6)).conjugate(sigma)
            for g in alternating(5).generators]
    return PermGroup(7, gens)


def test_normal_core_matches_bruteforce(s4, d6):
    for group in (s4, d6, relabelled_a5(3)):
        for sub in group.all_subgroups():
            expected = brute_core(group, sub)
            core = normal_core(group, sub)
            assert core.element_set == expected
            # the second call reads the group's memo, and so does an
            # equal subgroup built afresh
            fresh = Subgroup(group, sub.elements)
            assert normal_core(group, sub) is core
            assert normal_core(group, fresh).element_set == expected


def test_is_normal_subgroup_matches_bruteforce():
    """S is normal iff g S g^-1 = S for every g; the group itself is
    passed as a PermGroup too, and a set outside the group raises."""
    s4, d6 = symmetric(4), dihedral(6)
    for group in (s4, d6):
        for sub in group.all_subgroups() + (group,):
            expected = all({x.conjugate(g) for x in sub.elements}
                           == sub.element_set for g in group.elements)
            assert group.is_normal_subgroup(sub) == expected
    with pytest.raises(NotASubgroup):
        s4.is_normal_subgroup(d6)


def test_join_matches_brute_closure():
    """<S, x> on element indices, for every lattice key S and index x,
    is the closure of S and x under permutation products."""
    for group in (symmetric(4), dihedral(6)):
        graph = group._cayley_graph
        table = list(map(graph.left_multiples, range(group.order)))
        for key in group._subgroup_lattice:
            for x in range(group.order):
                closure = {graph.elements[i] for i in key | {x}}
                while True:
                    grown = closure | {a * b for a in closure
                                       for b in closure}
                    if grown == closure:
                        break
                    closure = grown
                assert permgroup_module._join(
                    table, key, sorted(key) + [x]) == \
                    {graph.index[g] for g in closure}


def test_double_cosets_partition(fano):
    group, h1, h2 = fano
    reps = double_cosets(group, h1, h2)
    assert len(reps) == 2  # incidence or not, for point vs hyperplane
    blocks = [frozenset(a * x * b for a in h1.elements for b in h2.elements)
              for x in reps]
    assert sum(len(b) for b in blocks) == group.order
    assert frozenset().union(*blocks) == group.element_set


def test_abelianization_known_values(s3, s4, a4, d4, q8, c6):
    assert str(abelianization(s3).structure) == "Z/2"
    assert str(abelianization(s4).structure) == "Z/2"
    assert str(abelianization(a4).structure) == "Z/3"
    assert str(abelianization(d4).structure) == "Z/2 x Z/2"
    assert str(abelianization(q8).structure) == "Z/2 x Z/2"
    assert str(abelianization(c6).structure) == "Z/6"


ABELIANIZATION_GROUPS = standard_corpus(120) + [("GL(3,2)", gl3f2())]


@pytest.mark.parametrize("name,group", ABELIANIZATION_GROUPS,
                         ids=[name for name, _ in ABELIANIZATION_GROUPS])
def test_abelianization_projection_is_homomorphism(name, group):
    """On every subgroup: the projection is a homomorphism onto the
    invariant-factor group, its kernel is the derived subgroup closed
    by brute force from all commutators, and each basis representative
    projects to its basis vector."""
    for sub in group.all_subgroups():
        ab = abelianization(sub)
        factors = ab.factors
        image = {x: ab.project(x) for x in sub.elements}
        for a in sub.elements:
            for b in sub.elements:
                assert image[a * b] == tuple(
                    (x + y) % d
                    for x, y, d in zip(image[a], image[b], factors))
        assert len(set(image.values())) == ab.structure.torsion_order()
        assert set(image.values()) == set(
            itertools.product(*(range(d) for d in factors)))
        derived = reference_closure(
            sub.identity, {a * b * a.inverse() * b.inverse()
                           for a in sub.elements for b in sub.elements})
        kernel = {x for x, v in image.items() if not any(v)}
        assert kernel == derived
        assert ab.derived_subgroup_order() == len(derived)
        assert [ab.project(rep) for rep in ab.basis_reps] == [
            tuple(int(i == j) for j in range(len(factors)))
            for i in range(len(factors))]
        outside = [x for x in group.elements if x not in sub]
        if outside:
            with pytest.raises(ValueError):
                ab.project(outside[0])


def test_abelianization_builds_no_coset_space(monkeypatch):
    """The coordinates come from the tables of the group's Cayley graph,
    with no coset space of the derived subgroup."""
    built = []
    init = permgroup_module.CosetSpace.__init__

    def counting_init(self, group, subgroup):
        built.append(subgroup.order)
        init(self, group, subgroup)
    monkeypatch.setattr(permgroup_module.CosetSpace, "__init__",
                        counting_init)
    group = symmetric(4)
    for sub in (group, *group.all_subgroups()):
        abelianization(sub)
    assert built == []


def abelianization_by_walk(group):
    """(factors, basis representatives, coordinates of each element) by
    a breadth-first walk of the group's own, one product per element
    and distinct generator, with a repeated generator dropped."""
    gens = list(dict.fromkeys(group.generators))
    k = len(gens)
    words = {group.identity: (0,) * k}
    walk = [group.identity]
    relations = set()
    for x in walk:
        for t, g in enumerate(gens):
            y, word = x * g, words[x]
            stepped = word[:t] + (word[t] + 1,) + word[t + 1:]
            if y not in words:
                words[y] = stepped
                walk.append(y)
            elif stepped != words[y]:
                relations.add(tuple(a - b for a, b in zip(stepped, words[y])))
    kept = []
    if k:
        diag, u, _ = smith_with_transforms(_square_hnf(IntMat(
            [[rel[r] for rel in relations] for r in range(k)])))
        kept = [(u.rows[i], diag[i, i]) for i in range(k) if diag[i, i] > 1]
    coords = {x: tuple(sum(r * w for r, w in zip(row, words[x])) % d
                       for row, d in kept) for x in walk}
    first = {}
    for x in walk:
        first.setdefault(coords[x], x)
    reps = tuple(first[tuple(int(i == j) for j in range(len(kept)))]
                 for i in range(len(kept)))
    return tuple(d for _, d in kept), reps, coords


def test_abelianization_matches_walk(corpus60):
    """Factors, basis representatives and every element's coordinates
    read off the Cayley-graph tables equal those of the walk, on every
    subgroup of the corpus to order 60 and of GL(3,2), and on a group
    whose generators repeat one and include the identity."""
    s4 = symmetric(4)
    a, b = s4.generators
    repeated = PermGroup(4, [a, b, s4.identity, a])
    assert repeated.generators == (a, b, a)
    groups = [group for _, group in corpus60] + [gl3f2()]
    for group in groups + [repeated]:
        for sub in (group, *group.all_subgroups()):
            ab = abelianization(sub)
            factors, reps, coords = abelianization_by_walk(sub)
            assert (ab.factors, ab.basis_reps) == (factors, reps)
            assert [ab.project(x) for x in sub.elements] == \
                [coords[x] for x in sub.elements]


def test_subgroup_closes_its_elements_once(monkeypatch):
    """Once its generators are read, a subgroup's classes and
    abelianization read the closure that found them."""
    group = PermGroup(5, symmetric(5).generators)
    subgroups = group.all_subgroups()
    closures = []
    closure = permgroup_module._closure
    monkeypatch.setattr(permgroup_module, "_closure",
                        lambda *args, **kwargs: closures.append(args)
                        or closure(*args, **kwargs))
    for sub in subgroups:
        assert sub.generators is sub._cayley_graph.generators
        before = len(closures)
        sub.conjugacy_classes()
        abelianization(sub)
        assert len(closures) == before


def test_subgroup_cayley_graph_holds_its_own_elements():
    """A subgroup's kept graph lists and indexes the subgroup's own
    element objects, not the closure's equal copies, in the closure's
    order."""
    for group in (symmetric(4), relabelled_a5(3)):
        for sub in group.all_subgroups():
            graph = sub._cayley_graph
            own = {id(x) for x in sub.elements}
            assert all(id(x) in own for x in graph.elements)
            assert all(id(x) in own for x in graph.index)
            assert sorted(graph.elements) == list(sub.elements)
            assert [graph.index[x] for x in graph.elements] == \
                list(range(sub.order))
            assert all(graph.elements[j] ==
                       graph.elements[graph.parent[j - 1]] *
                       graph.generators[graph.via[j - 1]]
                       for j in range(1, sub.order))


def test_subgroup_lattice_forms_no_products(monkeypatch):
    """The lattice's Cayley table is the graph's left multiples."""
    groups = [PermGroup(g.degree, g.generators)
              for g in (symmetric(4), gl3f2())]
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda p, q: products.append(p) or mul(p, q))
    for group in groups:
        assert group.all_subgroups()
    assert products == []


def test_subgroup_lattice_of_a_subgroup_is_its_own():
    """A subgroup's lattice, built in the order of its Cayley graph,
    equals that of the group its generators generate."""
    s5 = symmetric(5)
    for sub in (gl3f2().point_stabilizer(0),
                s5.subgroup(alternating(5).generators)):
        own = PermGroup(sub.degree, sub.generators).all_subgroups()
        assert [h.elements for h in sub.all_subgroups()] == \
            [h.elements for h in own]


@pytest.mark.parametrize("name, count, digest", [
    ("gl3f2", 179,
     "5fd8800ebedf4a1fe397bf2a2a68c684e2e6493eaefff75aa7084427ac004742"),
    ("psl2_11", 620,
     "73cc0ecbc92ddcff331e8ce7085bd8b354ff311b3b53dd52730122a94cdaf422"),
])
def test_subgroup_lattice_is_pinned(name, count, digest):
    """Every subgroup's elements, in the lattice's order, hash as they
    did when the lattice joined every subgroup it found."""
    group = gl3f2() if name == "gl3f2" else psl2(11)
    subgroups = group.all_subgroups()
    assert len(subgroups) == count
    text = repr([[tuple(x) for x in h.elements] for h in subgroups])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def brute_conjugacy_classes(group, subgroups):
    """The subgroups' conjugacy classes, by conjugating element sets."""
    classes = {}
    for sub in subgroups:
        conjugates = frozenset(
            frozenset(x.conjugate(g) for x in sub.elements)
            for g in group.elements)
        classes.setdefault(conjugates, sub)
    return list(classes.values())


@pytest.mark.parametrize("name, joins", [
    ("s4", 73), ("a5", 150), ("s5", 496), ("gl3f2", 543)])
def test_lattice_joins_once_per_coset_of_each_class(monkeypatch, name,
                                                     joins):
    """Only one subgroup S per conjugacy class is extended, by one x per
    right coset Sx other than S: sum over the classes of [G:S] - 1."""
    group = {"s4": lambda: symmetric(4), "a5": lambda: alternating(5),
             "s5": lambda: symmetric(5), "gl3f2": gl3f2}[name]()
    calls = []
    join = permgroup_module._join
    monkeypatch.setattr(permgroup_module, "_join",
                        lambda *args: calls.append(args) or join(*args))
    subgroups = group.all_subgroups()
    monkeypatch.undo()
    representatives = brute_conjugacy_classes(group, subgroups)
    assert len(calls) == sum(sub.index - 1 for sub in representatives)
    assert len(calls) == joins


@pytest.mark.parametrize("name", ["s4", "d6", "a5", "a5_in_s5", "trivial"])
def test_sweep_conjugates_match_conjugate(monkeypatch, name):
    """For each H1 and coset representative g, the lattice entry the sweep
    reads off the coset walk is g H1 g^-1, by Permutation.conjugate; a
    subgroup's graph order is not its sorted order."""
    group = {"s4": lambda: symmetric(4), "d6": lambda: dihedral(6),
             "a5": lambda: relabelled_a5(5),
             "a5_in_s5": lambda: symmetric(5).subgroup(
                 alternating(5).generators),
             "trivial": lambda: PermGroup(1, [])}[name]()
    calls, conjugation = [], Correspondence._conjugation
    monkeypatch.setattr(Correspondence, "_conjugation", classmethod(
        lambda cls, *args: calls.append(args) or conjugation(*args)))
    conjugation_sweep([(name, group)])
    lattice, index = group._subgroup_lattice, group._cayley_graph.index
    assert [(h1, g) for _, h1, _, g in calls] == [
        (h1, g) for h1 in lattice.values()
        for g in coset_action(group, h1).coset_reps]
    for _, h1, h2, g in calls:
        key = frozenset(index[x.conjugate(g)] for x in h1.elements)
        assert lattice[key] is h2


@pytest.mark.parametrize("name", ["s4", "d6", "a5"])
def test_lattice_keys_are_closed_under_conjugation(name):
    """Each lattice key S, conjugated by any g in G, is a key whose
    subgroup is g S g^-1."""
    group = {"s4": lambda: symmetric(4), "d6": lambda: dihedral(6),
             "a5": lambda: relabelled_a5(3)}[name]()
    lattice = group._subgroup_lattice
    index, elements = group._cayley_graph.index, group._cayley_graph.elements
    for g in group.elements:
        for key in lattice:
            conjugate = {elements[i].conjugate(g) for i in key}
            image = frozenset(map(index.__getitem__, conjugate))
            assert lattice[image].element_set == conjugate


def test_abelianization_kills_commutators(a4):
    ab = abelianization(a4)
    for a in a4.elements:
        for b in a4.elements:
            comm = a * b * a.inverse() * b.inverse()
            assert ab.project(comm) == (0,) * len(ab.factors)


def test_transfer_composite_is_multiplication_by_index(s4, q8, d6):
    for group in (s4, q8, d6):
        for sub in group.all_subgroups():
            v = transfer(group, sub)
            inc = inclusion_induced(sub, group)
            ab = abelianization(group)
            assert inc.compose(v) == AbHom.scalar(ab.factors, sub.index)


def test_transfer_conjugation_compatibility(s4):
    # transfer(G, gHg^-1) = c_g* . transfer(G, H)
    h = s4.subgroup([Permutation.parse(4, "(0 1 2 3)")])
    g = Permutation.parse(4, "(0 1)")
    h2 = s4.subgroup_from_elements(
        [x.conjugate(g) for x in h.element_set])
    ab1, ab2 = abelianization(h), abelianization(h2)
    cg = AbHom.from_columns(
        ab1.factors, ab2.factors,
        [ab2.project(rep.conjugate(g)) for rep in ab1.basis_reps])
    assert cg.compose(transfer(s4, h)) == transfer(s4, h2)


def _coordinates_and_maps(group, sub):
    ab = abelianization(sub)
    return ([ab.project(x) for x in sub.elements], ab.basis_reps,
            transfer(group, sub), inclusion_induced(sub, group))


def test_equal_subgroups_share_coordinates_and_maps():
    """A subgroup's coordinates follow its element set alone, however it
    was built, so equal instances share one memo entry per map."""
    group = symmetric(4)
    t, u = Permutation.parse(4, "(0 1)"), Permutation.parse(4, "(2 3)")
    a = group.subgroup([t, u])
    b = group.subgroup([t, t * u])
    c = Subgroup(group, a.elements)
    results = []
    for sub in (a, b, c):
        results.append(_coordinates_and_maps(group, sub))
        fresh = PermGroup(group.degree, group.generators)
        assert results[-1] == _coordinates_and_maps(
            fresh, Subgroup(fresh, sub.elements))
    assert results[0] == results[1] == results[2]
    assert transfer(group, a) is transfer(group, c)
    assert inclusion_induced(b, group) is inclusion_induced(c, group)


def test_permgroup_subgroups_keep_their_own_coordinates():
    """A PermGroup passed as the subgroup compares by identity, so two
    with the same elements and different generators each get the maps
    in the coordinates of their own generators."""
    group = symmetric(4)
    t, u = Permutation.parse(4, "(0 1)"), Permutation.parse(4, "(2 3)")
    subs = [PermGroup(4, [t, u]), PermGroup(4, [t, t * u])]
    assert subs[0].element_set == subs[1].element_set
    assert abelianization(subs[0]).basis_reps != \
        abelianization(subs[1]).basis_reps
    for sub in subs:
        got = (transfer(group, sub), inclusion_induced(sub, group))
        fresh = PermGroup(group.degree, group.generators)
        assert got == (transfer(fresh, sub), inclusion_induced(sub, fresh))


def test_group_caches_make_no_reference_cycle():
    """The per-group caches, the cached subgroup lattice among them, hold
    nothing that refers back to the group, so refcounting alone frees
    it."""
    gc.disable()
    try:
        group = symmetric(4)
        sub = group.subgroup([Permutation.parse(4, "(0 1 2 3)")])
        coset_action(group, sub)
        transfer(group, sub)
        inclusion_induced(sub, group)
        subgroups = group.all_subgroups()
        abelianization(group)
        normal_core(group, subgroups[-2])
        # the homology memos: the whole abelianization, its index-t
        # subgroups and their lifts on H1 and H2, the cores on the group
        d4 = subgroups[-3]
        assert abelianization(d4).factors == (2, 2)
        corr = Correspondence.conjugation(group, d4,
                                          Permutation.parse(4, "(0 1)"))
        assert all(gthm_check(cs) for t in (1, 2, 4)
                   for cs in corresponding_subgroups(corr, t))
        ref = weakref.ref(group)
        del group, sub, subgroups, d4, corr
        assert ref() is None
    finally:
        gc.enable()


def test_finabgroup_normalizes_cyclic_orders():
    g = FinAbGroup.from_cyclic_orders([2, 3, 4])
    assert g.invariant_factors == (2, 12)
    assert g.torsion_order() == 24
    assert str(FinAbGroup(2, (2,))) == "Z^2 x Z/2"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 200), max_size=8), st.integers(0, 3),
       st.booleans())
def test_finabgroup_from_cyclic_orders_matches_sympy(orders, rank, lazily):
    """The invariant factors of diag(orders) by sympy's Smith form,
    entries above 1; the orders go in as a list or, as tensor_mod
    passes them, as a generator."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    expected = tuple(int(d) for d in invariant_factors(
        sympy.diag(*orders) if orders else sympy.zeros(0, 0),
        domain=sympy.ZZ) if d > 1)
    group = FinAbGroup.from_cyclic_orders(
        (o for o in orders) if lazily else orders, rank)
    assert group.invariant_factors == expected
    assert group.torsion_order() == prod(orders)
    assert group.free_rank == rank


def test_finabgroup_tensor_mod():
    g = FinAbGroup(0, (2, 12))
    assert g.tensor_mod(4).invariant_factors == (2, 4)
    assert g.tensor_mod(5).invariant_factors == ()
    # each free slot contributes one Z/k
    assert FinAbGroup(1, (2, 12)).tensor_mod(4).invariant_factors == (2, 4, 4)
    assert FinAbGroup(1, (2, 12)).tensor_mod(4).free_rank == 0


@pytest.mark.parametrize("value, name", [
    (IntMat([[1, 2], [3, 4]]), "rows"),
    (LocalNormLattice(IntMat([[2, 1], [0, 3]])), "basis"),
    (AbHom((2,), (4,), [[2]]), "entries"),
    (CoordSubgroup.full((2, 4)), "elements"),
    (numerical_set(SplittingType([2, 3]), 10), "members"),
], ids=["IntMat", "LocalNormLattice", "AbHom", "CoordSubgroup",
        "NumericalSet"])
def test_value_types_are_frozen(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


def test_abelian_value_types_reject_bad_shapes():
    with pytest.raises(ValueError, match="vector length mismatch"):
        AbHom([2], [2], [[1]]).apply((1, 1))
    with pytest.raises(ValueError, match="entry shape"):
        AbHom([2], [2], [[1, 1]])
    with pytest.raises(ValueError, match="divisibility"):
        FinAbGroup(0, (4, 2))
    with pytest.raises(ValueError, match="invariant factor 1 < 2"):
        FinAbGroup(0, (1,))
    with pytest.raises(ValueError, match="free rank"):
        FinAbGroup(-1)
    with pytest.raises(ValueError, match="cyclic order 0"):
        FinAbGroup.from_cyclic_orders([0])


def test_abhom_rejects_ill_defined_entries():
    # Z/2 -> Z/4 sending 1 to 1 is not a homomorphism
    with pytest.raises(ValueError):
        AbHom((2,), (4,), [[1]])
    AbHom((2,), (4,), [[2]])  # 1 -> 2 is fine


def test_abhom_compose_associates_with_apply():
    f = AbHom((6,), (2, 4), [[1], [2]])
    g = AbHom((2, 4), (4,), [[2, 1]])
    for x in range(6):
        assert g.apply(f.apply((x,))) == g.compose(f).apply((x,))


@st.composite
def factor_chains(draw):
    """Invariant factors d1 | d2 | ..., each at least 2; () is the
    trivial group."""
    factors = []
    for step in draw(st.lists(st.sampled_from([1, 2, 3]), max_size=3)):
        factors.append(factors[-1] * step if factors else step + 1)
    return tuple(factors)


@st.composite
def homs(draw, source, target):
    """A homomorphism: entry (r, c) is a multiple of t / gcd(s, t), for
    the source factor s of column c and the target factor t of row r,
    drawn unreduced."""
    return AbHom(source, target, [
        [draw(st.integers(0, 2 * gcd(s, t) - 1)) * (t // gcd(s, t))
         for s in source] for t in target])


@given(st.data())
def test_abhom_compose_matches_the_checked_constructor(data):
    a, b, c = (data.draw(factor_chains()) for _ in range(3))
    f = data.draw(homs(a, b))
    g = data.draw(homs(b, c))
    composite = g.compose(f)
    assert composite == AbHom.from_columns(
        a, c, [g.apply(f.column(j)) for j in range(len(a))])
    assert AbHom(composite.source_factors, composite.target_factors,
                 composite.entries) == composite
    with pytest.raises(ValueError, match="factor mismatch"):
        g.compose(AbHom((), b + (2,), [[]] * (len(b) + 1)))


def test_abhom_tensor_mod_drops_coprime_slots():
    f = AbHom((6, 2), (2, 4), [[1, 1], [2, 0]])
    f3 = f.tensor_mod(3)
    assert f3.source_factors == (3,)
    assert f3.target_factors == ()


@pytest.mark.parametrize("k", [0, -2])
def test_abhom_tensor_mod_refuses_nonpositive_modulus(k):
    f = AbHom((6, 2), (2, 4), [[1, 1], [2, 0]])
    with pytest.raises(ValueError, match="modulus must be positive"):
        f.tensor_mod(k)
    with pytest.raises(ValueError, match="modulus must be positive"):
        FinAbGroup(0, (2, 6)).tensor_mod(k)


def test_group_file_roundtrip(s4):
    text = format_group_file(s4)
    again = parse_group_file(text)
    assert again.order == 24
    assert again.element_set == s4.element_set


def test_group_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_group_file("degree: 3\ngen: (0 1 2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_group_file("gen: (0 1)\n")  # degree must come first
    with pytest.raises(ParseError):
        parse_group_file("degree: 0\n")
    # rejected at the degree line, before a degree-sized identity exists
    with pytest.raises(ParseError) as err:
        parse_group_file(f"# cap\ndegree: {_DEGREE_CAP + 1}\ngen: (0 1)\n")
    assert err.value.line == 2
    assert parse_group_file(f"degree: {_DEGREE_CAP}\n").degree == _DEGREE_CAP


def test_group_file_ignores_comments_and_blanks():
    g = parse_group_file("# a comment\ndegree: 3\n\ngen: (0 1) # inline\n")
    assert g.order == 2


@settings(max_examples=30)
@given(st.permutations(range(6)), st.permutations(range(6)))
def test_generated_group_contains_generators(a, b):
    pa, pb = Permutation(a), Permutation(b)
    group = PermGroup(6, [pa, pb])
    assert pa in group.element_set
    assert pb in group.element_set
    assert group.order % pa.order() == 0  # Lagrange


def test_subgroup_equality_is_by_elements(s4):
    h1 = s4.subgroup([Permutation.parse(4, "(0 1 2)")])
    h2 = s4.subgroup_from_elements(h1.elements)
    assert h1 == h2
    assert hash(h1) == hash(h2)
    assert len({h1, h2}) == 1
