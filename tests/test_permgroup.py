import gc
import itertools
import random
import weakref
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gassmann.permgroup as permgroup_module
from gassmann.catalog import alternating, gl3f2, standard_corpus, symmetric
from gassmann.errors import (InvalidPermutation, NotASubgroup,
                             OrderCapExceeded, ParseError)
from gassmann.homology import CoordSubgroup
from gassmann.lattice import IntMat, LocalNormLattice
from gassmann.permgroup import (_DEGREE_CAP, AbHom, FinAbGroup, PermGroup,
                                Permutation, Subgroup, abelianization,
                                coset_action, double_cosets,
                                format_group_file, inclusion_induced,
                                normal_core, parse_group_file, transfer)
from gassmann.splitting import SplittingType, numerical_set

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


def symmetric_order(n):
    gens = [Permutation.parse(n, "(0 1)"),
            Permutation([(i + 1) % n for i in range(n)])]
    return PermGroup(n, gens).order


def test_order_cap_enforced():
    # |S9| = 362,880: enumeration stops at DEFAULT_ORDER_CAP + 1 elements
    with pytest.raises(OrderCapExceeded):
        symmetric(9)


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


def test_coset_table_matches_reference(s4, fano):
    a5 = alternating(5)
    gl32, h1, h2 = fano
    cases = ([(s4, h) for h in s4.all_subgroups()]
             + [(a5, h) for h in a5.all_subgroups()]
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


def test_normal_core_matches_bruteforce(s4, d6):
    for group in (s4, d6):
        for sub in group.all_subgroups():
            assert normal_core(group, sub).element_set == \
                brute_core(group, sub)


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
    """The coordinates come from one walk of the group's own Cayley
    graph, with no coset space of the derived subgroup."""
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
        ref = weakref.ref(group)
        del group, sub, subgroups
        assert ref() is None
    finally:
        gc.enable()


def test_finabgroup_normalizes_cyclic_orders():
    g = FinAbGroup.from_cyclic_orders([2, 3, 4])
    assert g.invariant_factors == (2, 12)
    assert g.torsion_order() == 24
    assert str(FinAbGroup(2, (2,))) == "Z^2 x Z/2"


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
    (CoordSubgroup.full((2, 4)), "basis"),
    (numerical_set(SplittingType([2, 3]), 10), "members"),
], ids=["IntMat", "LocalNormLattice", "AbHom", "CoordSubgroup",
        "NumericalSet"])
def test_value_types_are_frozen(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


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


def test_abhom_tensor_mod_drops_coprime_slots():
    f = AbHom((6, 2), (2, 4), [[1, 1], [2, 0]])
    f3 = f.tensor_mod(3)
    assert f3.source_factors == (3,)
    assert f3.target_factors == ()


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
