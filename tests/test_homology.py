import json
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gassmann.homology as homology_module
import gassmann.permgroup as permgroup_module
from gassmann.catalog import (alternating, dihedral, standard_corpus,
                              symmetric)
from gassmann.cli import main
from gassmann.errors import (CoprimalityViolated, IndexMismatch, NotASubgroup,
                             NotNormal, OrderCapExceeded)
from gassmann.homology import (Correspondence, CoordSubgroup, _full, _image,
                               _index_subgroups, conjugation_sweep,
                               corresponding_subgroups,
                               diagram_check, gthm_check, h1_isomorphic,
                               index_subgroups, modq_check, modq_legs)
from gassmann.permgroup import (AbHom, PermGroup, Permutation,
                                abelianization, coset_action, normal_core)

FACTORS = (2, 4)
VECTORS = [(a, b) for a in range(2) for b in range(4)]


def c2_times_c4():
    """C2 x C4 on 6 points, with abelianization FACTORS."""
    group = PermGroup(6, [Permutation.from_cycles(6, [(0, 1)]),
                          Permutation.from_cycles(6, [(2, 3, 4, 5)])])
    assert abelianization(group).factors == FACTORS
    return group


def brute_close(factors, gens):
    """Subgroup of Z/factors[0] x Z/factors[1] x ... generated by the
    given vectors."""
    elems = {(0,) * len(factors)} | {tuple(x % d for x, d in zip(g, factors))
                                     for g in gens}
    while True:
        new = {tuple((x + y) % d for x, y, d in zip(a, b, factors))
               for a in elems for b in elems} - elems
        if not new:
            return frozenset(elems)
        elems |= new


def member_set(u, vectors=VECTORS):
    return frozenset(v for v in vectors if u.contains(list(v)))


@given(st.lists(st.sampled_from(VECTORS), max_size=4))
def test_coord_subgroup_matches_brute_closure(gens):
    u = CoordSubgroup.from_generators(FACTORS, gens)
    brute = brute_close(FACTORS, gens)
    assert member_set(u) == brute
    assert u.index == 8 // len(brute)


def test_coord_subgroup_basics():
    full = CoordSubgroup.full(FACTORS)
    assert full.index == 1
    assert member_set(full) == frozenset(VECTORS)
    u = CoordSubgroup.from_generators(FACTORS, [[0, 2]])
    assert u.index == 4
    assert u.contains([0, 2]) and u.contains([0, 6])
    assert not u.contains([1, 0]) and not u.contains([0, 1])
    with pytest.raises(ValueError):
        u.contains([1])
    assert u.elements == frozenset({(0, 0), (0, 2)})
    assert u == CoordSubgroup.from_generators(FACTORS, [[2, 6], [0, -2]])
    # non-chain factors are accepted
    assert CoordSubgroup.full((4, 2)).index == 1
    assert len(index_subgroups((4, 2), 2)) == 3


def test_coord_subgroup_generator_length_must_match():
    with pytest.raises(ValueError, match="vector length mismatch"):
        CoordSubgroup.from_generators([2, 4], [(1,)])


@pytest.mark.parametrize("factors", [(0,), (-2,), (2, 0), (2.0,), ("2",)],
                         ids=repr)
def test_coord_subgroup_builders_need_positive_int_factors(factors):
    for build in (CoordSubgroup.full,
                  lambda f: CoordSubgroup.from_generators(f, []),
                  lambda f: index_subgroups(f, 2)):
        with pytest.raises(ValueError, match="positive ints"):
            build(factors)


def test_coord_subgroup_of_the_trivial_group():
    for trivial in (CoordSubgroup.from_generators((), []),
                    CoordSubgroup.full(())):
        assert trivial.elements == frozenset({()})
        assert trivial.index == 1 and trivial.contains([])
    assert index_subgroups((), 1) == [CoordSubgroup.full(())]
    assert index_subgroups((), 2) == []


def test_conjugation_between_perfect_subgroups():
    # A5 has trivial abelianization: phi is the empty map, and the one
    # corresponding pair at t = 1 is (A5, A5)
    s5 = symmetric(5)
    a5 = s5.subgroup([Permutation.from_cycles(5, [(0, 1, 2)]),
                      Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    corr = Correspondence.conjugation(
        s5, a5, Permutation.from_cycles(5, [(0, 1)]))
    assert corr.phi.source_factors == corr.phi.target_factors == ()
    assert diagram_check(corr)["commutes"]
    [cs] = corresponding_subgroups(corr, 1)
    assert cs.u1.elements == cs.u2.elements == frozenset({()})
    assert cs.gamma1p == cs.gamma2p == a5
    assert gthm_check(cs)


def test_index_subgroups_diagonals_divide_the_factors():
    assert homology_module._ordered_factorizations(4, (2, 4)) == \
        [(1, 4), (2, 2)]
    assert homology_module._ordered_factorizations(3, (2, 4)) == []


def test_index_subgroups_cap_raises_before_any_basis(monkeypatch):
    """(2,)*10 at index 32 has about 1.1e11 candidate HNF bases: the
    count is made from the diagonals and raises before any is built."""
    def no_span(*args):
        raise AssertionError("a candidate basis was built")
    monkeypatch.setattr(homology_module, "_in_hnf_span", no_span)
    with pytest.raises(OrderCapExceeded, match="111842970624"):
        index_subgroups((2,) * 10, 32)
    monkeypatch.undo()
    assert len(index_subgroups((2,) * 4, 4)) == 35


def test_coordinate_subgroups_are_capped_before_enumeration(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(OrderCapExceeded, match="50000"):
        index_subgroups((2 ** 22,), 2)
    with pytest.raises(OrderCapExceeded, match="4194304"):
        CoordSubgroup.full((2 ** 22,))
    with pytest.raises(OrderCapExceeded):
        CoordSubgroup.from_generators((2 ** 22,), [(1,)])
    assert time.perf_counter() - started < 1.0
    # a small subgroup of a large ambient is still listed
    assert CoordSubgroup.from_generators((10 ** 9,), [(5 * 10 ** 8,)]) \
        .elements == frozenset({(0,), (5 * 10 ** 8,)})
    assert len(index_subgroups((2 ** 22,), 2 ** 21)) == 1
    # the cap itself is allowed, one more element is not
    monkeypatch.setattr(homology_module, "DEFAULT_ORDER_CAP", 12)
    assert len(CoordSubgroup.full((3, 4)).elements) == 12
    assert len(CoordSubgroup.from_generators((24,), [(2,)]).elements) == 12
    assert len(index_subgroups((2, 12), 2)) == 3
    with pytest.raises(OrderCapExceeded):
        CoordSubgroup.full((13,))
    with pytest.raises(OrderCapExceeded):
        CoordSubgroup.from_generators((2, 12), [(1, 0), (0, 1)])
    with pytest.raises(OrderCapExceeded):
        index_subgroups((2, 13), 2)


def test_corpus_sweep_counts_under_the_coordinate_cap():
    report = conjugation_sweep(standard_corpus(120), max_order=120)
    assert report["passed"]
    assert (report["correspondences"], report["gthm_checks"]) == (5946, 8509)


@pytest.mark.parametrize("factors", [(2, 4), (2, 2, 2), (3, 6), (2, 2, 4),
                                     (12,)],
                         ids=lambda f: "x".join(map(str, f)))
def test_index_subgroups_against_brute_enumeration(factors):
    vectors = list(product(*map(range, factors)))
    order = len(vectors)
    # a group with k invariant factors has subgroups of rank <= k only
    all_subs = {brute_close(factors, gens)
                for gens in {frozenset(g)
                             for g in product(vectors, repeat=len(factors))}}
    for t in range(1, order + 1):
        if order % t:
            continue
        expected = {s for s in all_subs if len(s) == order // t}
        got = index_subgroups(factors, t)
        assert {member_set(u, vectors) for u in got} == expected
        assert len(got) == len(expected)  # no duplicates
    assert index_subgroups(factors, order + 1) == []
    assert index_subgroups(factors, 2 * order) == []
    assert index_subgroups(factors, 1) == [CoordSubgroup.full(factors)]
    with pytest.raises(ValueError):
        index_subgroups(factors, 0)


HOMS_2X4 = st.builds(
    lambda a, b, c, d: AbHom((2, 4), (2, 4), [[a, b], [c, d]]),
    st.integers(0, 1), st.integers(0, 1), st.sampled_from([0, 2]),
    st.integers(0, 3))


@given(HOMS_2X4, st.lists(st.sampled_from(VECTORS), max_size=3))
def test_image_subgroup_and_surjectivity_against_brute_images(phi, gens):
    # C2 x C4 with abelianization (2, 4): phi is accepted exactly when
    # it is a bijection, and only a bijection is ever imaged
    c2xc4 = c2_times_c4()
    u = CoordSubgroup.from_generators(FACTORS, gens)
    if len({phi.apply(v) for v in VECTORS}) == len(VECTORS):
        Correspondence(c2xc4, c2xc4, c2xc4, phi)
        image = _image(c2xc4, phi, u)
        assert image.elements == {phi.apply(v)
                                  for v in brute_close(FACTORS, gens)}
        assert any(image is v for v in _index_subgroups(c2xc4, u.index))
        assert _image(c2xc4, phi, u) is image
    else:
        with pytest.raises(ValueError, match="not surjective"):
            Correspondence(c2xc4, c2xc4, c2xc4, phi)


def test_a_rejected_phi_leaves_no_image_in_the_memo():
    """The surjectivity test counts phi's values and memoizes no image:
    of the 8 diagonal phis on (2, 4), 6 are refused."""
    c2xc4 = c2_times_c4()
    refused = 0
    for a, d in product(range(2), range(4)):
        phi = AbHom(FACTORS, FACTORS, [[a, 0], [0, d]])
        try:
            Correspondence(c2xc4, c2xc4, c2xc4, phi)
        except ValueError as error:
            assert "not surjective" in str(error)
            refused += 1
    assert refused == 6
    assert [key for key in c2xc4._memo if key[0] == "image"] == []


def test_sweep_runs_the_hnf_only_for_abelianizations(count_passes):
    # fresh groups, so that no abelianization is cached yet
    groups = [("S4", symmetric(4)), ("D6", dihedral(6))]
    computed = count_passes("_hnf")
    relation_lattices = 0
    for _, group in groups:
        for h in [group, *group.all_subgroups()]:
            abelianization(h)
            relation_lattices += bool(h.generators)
    assert len(computed) == relation_lattices
    report = conjugation_sweep(groups)
    assert report["passed"] and report["gthm_checks"]
    assert len(computed) == relation_lattices


def test_sweep_builds_each_subgroups_work_once(monkeypatch):
    """A normal core, the index-t subgroups of H1(H) and the lift of a U
    depend on one subgroup alone: the sweep builds each once, not once
    per coset gH, and its report is the same."""
    groups = [("S4", symmetric(4)), ("D6", dihedral(6))]
    asked = {"index": [], "lift": [], "core": []}
    built = {"index": [], "lift": [], "core": []}

    def spy(module, name, calls, key):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(
            key(*args)) or original(*args))

    # what the sweep asks for: (subgroup object, t or U) and, through the
    # checks, the lifted subgroups of each group
    spy(homology_module, "_index_subgroups", asked["index"],
        lambda h, t: (id(h), t))
    spy(homology_module, "_lift", asked["lift"], lambda h, u: (id(h), u))
    spy(homology_module, "gthm_check", asked["core"],
        lambda cs: (id(cs.correspondence.group), cs.gamma1p))
    spy(homology_module, "gthm_check", asked["core"],
        lambda cs: (id(cs.correspondence.group), cs.gamma2p))
    # what is built
    spy(homology_module, "index_subgroups", built["index"],
        lambda factors, t: t)
    spy(homology_module, "_preimage", built["lift"], lambda h, u: (id(h), u))
    spy(permgroup_module, "_normal_core", built["core"],
        lambda group, sub: (id(group), sub))

    report = conjugation_sweep(groups)
    assert report == {
        "max_order": 120, "correspondences": 308, "gthm_checks": 425,
        "diagram_failures": [], "gthm_failures": [], "passed": True,
        "groups": [
            {"group": "S4", "order": 24, "subgroups": 30,
             "correspondences": 234},
            {"group": "D6", "order": 12, "subgroups": 16,
             "correspondences": 74}]}
    # one index_subgroups call per distinct (H, t) (it sees t, not H),
    # one lift per (H, U) and one core per lifted subgroup of a group
    assert Counter(built["index"]) == \
        Counter(t for _, t in set(asked["index"]))
    for kind in ("lift", "core"):
        assert len(built[kind]) == len(set(built[kind]))
        assert set(built[kind]) == set(asked[kind])


def test_corresponding_subgroups_need_a_positive_int_index(d6):
    c6 = d6.subgroup([d6.generators[0]])
    corr = Correspondence.conjugation(d6, c6, d6.generators[1])
    assert len(corresponding_subgroups(corr, 2)) == 1
    # 2.0 == 2 would find the cached list of t = 2
    for t in (0, -2, 2.0, 1.0, "2"):
        with pytest.raises(ValueError, match="positive int"):
            corresponding_subgroups(corr, t)
        with pytest.raises(ValueError, match="positive int"):
            index_subgroups((6,), t)


def test_conjugation_correspondence_diagram_commutes(d6):
    for h1 in d6.all_subgroups():
        for g in (d6.generators[0], d6.generators[1]):
            corr = Correspondence.conjugation(d6, h1, g)
            outcome = diagram_check(corr)
            assert outcome["commutes"], (h1.order, g.format())
            assert outcome["index"] == d6.order // h1.order


def lattice_conjugations(group):
    """(h1, g, correspondence) for every subgroup H1 and coset
    representative g, built unchecked as the sweep builds it, onto the
    lattice's own instance of gH1g^-1 and from the graph indices of the
    conjugated basis reps, both found here by Permutation.conjugate."""
    subgroups = group.all_subgroups()
    canonical = {s.element_set: s for s in subgroups}
    index = group._cayley_graph.index
    for h1 in subgroups:
        for g in coset_action(group, h1).coset_reps:
            h2 = canonical[frozenset(x.conjugate(g) for x in h1.elements)]
            basis = [index[rep.conjugate(g)]
                     for rep in abelianization(h1).basis_reps]
            yield h1, g, Correspondence._trusted_conjugation(
                group, h1, h2, g, basis)


def test_conjugation_onto_the_lattice_instance_agrees(s4):
    # the sweep passes the lattice's own instance of gH1g^-1; the phi is
    # the one the public constructor builds on a fresh instance
    for h1, g, shared in lattice_conjugations(s4):
        public = Correspondence.conjugation(s4, h1, g)
        assert public.h2 == shared.h2
        assert public.phi == shared.phi
        assert public.provenance is shared.provenance


@pytest.mark.parametrize("name", ["s4", "d6"])
def test_conjugation_phi_equals_the_checked_constructor(name):
    """phi, stored without the entry check, is the map that the checked
    `AbHom.from_columns` builds, for every coset of every subgroup."""
    group = symmetric(4) if name == "s4" else dihedral(6)
    for h1 in group.all_subgroups():
        ab1 = abelianization(h1)
        for g in coset_action(group, h1).coset_reps:
            corr = Correspondence.conjugation(group, h1, g)
            ab2 = abelianization(corr.h2)
            checked = AbHom.from_columns(
                ab1.factors, ab2.factors,
                [ab2.project(rep.conjugate(g)) for rep in ab1.basis_reps])
            assert corr.phi == checked
            assert hash(corr.phi) == hash(checked)
            assert corr.provenance == f"conjugation({g.format()})"
            # the label of g is made once and kept on the group
            again = Correspondence.conjugation(group, h1, g)
            assert again.provenance is corr.provenance


def test_conjugation_refuses_a_conjugator_outside_the_group(a4):
    """(0 1) lies outside A4: conjugating C3 by it would give a phi whose
    diagram fails on both legs, and V4 by it one that passes."""
    swap = Permutation.from_cycles(4, [(0, 1)])
    c3 = a4.subgroup([Permutation.from_cycles(4, [(0, 1, 2)])])
    v4 = a4.subgroup([Permutation.from_cycles(4, [(0, 1), (2, 3)]),
                      Permutation.from_cycles(4, [(0, 2), (1, 3)])])
    for h1 in (c3, v4):
        with pytest.raises(NotASubgroup, match=r"conjugator \(0 1\)"):
            Correspondence.conjugation(a4, h1, swap)
    with pytest.raises(NotASubgroup, match="conjugator"):
        Correspondence.conjugation(a4, c3, Permutation.identity(5))


def test_sweep_finds_each_conjugate_without_conjugating(monkeypatch):
    """The sweep reads gHg^-1 and the conjugated basis reps of H1(H) off
    the coset walk: it makes no `Permutation.conjugate` call."""
    groups = [("S4", symmetric(4)), ("D6", dihedral(6))]
    calls = []
    conjugate = Permutation.conjugate
    monkeypatch.setattr(Permutation, "conjugate",
                        lambda x, g: calls.append(x) or conjugate(x, g))
    report = conjugation_sweep(groups)
    assert report["passed"] and report["correspondences"] == 308
    assert calls == []


def test_each_image_is_built_once_as_the_targets_own(monkeypatch):
    """phi(U) is built once per (H2, phi, U), kept in H2's memo, and is
    H2's own index-t instance.  The sweep asks only at t > 1."""
    groups = [("S4", symmetric(4)), ("D6", dihedral(6))]
    asked, built = [], []
    memoized = homology_module._memoized

    def spy(owner, kind, key, build):
        if kind == "image":
            asked.append((id(owner), key))
        return memoized(owner, kind, key, lambda owner, key: (
            kind == "image" and built.append((id(owner), key))
            or build(owner, key)))
    monkeypatch.setattr(homology_module, "_memoized", spy)
    assert conjugation_sweep(groups)["gthm_checks"] == 425
    # one image per pair at t > 1 (the 308 pairs at t = 1 read H1(H2)
    # itself)
    assert len(asked) == 425 - 308
    assert len(built) == len(set(asked)) < len(asked)
    for _, group in groups:
        for h1, _, corr in lattice_conjugations(group):
            h2 = corr.h2
            assert _image(h2, corr.phi, _full(h1)) is _full(h2)
            for t in (2, 3, 4):
                for cs in corresponding_subgroups(corr, t):
                    assert any(cs.u2 is u for u in _index_subgroups(h2, t))
    assert len(built) == len(set(asked))


def test_a_non_surjective_phi_still_raises(s4):
    """A phi that is not onto raises on a subgroup that an onto phi has
    already been accepted on."""
    c4 = s4.subgroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    Correspondence(s4, c4, c4, AbHom.scalar((4,), 1))
    for c in (2, 0):
        with pytest.raises(ValueError, match="not surjective"):
            Correspondence(s4, c4, c4, AbHom.scalar((4,), c))
    assert Correspondence(s4, c4, c4, AbHom.scalar((4,), 3)).phi.entries \
        == ((3,),)


def test_correspondence_validates_phi(s4):
    c4 = s4.subgroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(ValueError):  # not surjective
        Correspondence(s4, c4, c4, AbHom.scalar((4,), 2))
    with pytest.raises(ValueError):  # wrong coordinates
        Correspondence(s4, c4, c4, AbHom.scalar((2,), 1))
    # equal factors declared but different homology orders
    c2 = s4.subgroup([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        Correspondence(s4, c2, c4, AbHom.from_columns((2,), (4,), [[2]]))


def test_diagram_check_requires_equal_index(s4):
    c2 = s4.subgroup([Permutation.from_cycles(4, [(0, 1)])])
    s3 = s4.subgroup([Permutation.from_cycles(4, [(0, 1)]),
                      Permutation.from_cycles(4, [(0, 1, 2)])])
    corr = Correspondence(s4, c2, s3, AbHom.scalar((2,), 1))
    with pytest.raises(IndexMismatch):
        diagram_check(corr)
    with pytest.raises(IndexMismatch):
        modq_check(corr, s4.trivial_subgroup(), 5)


def test_modq_commutes_for_inner_conjugation(d6):
    # g inside H1 induces the identity on homology, so both mod-k legs
    # collapse to literal equalities whatever normal N sits below
    c6 = d6.subgroup([d6.generators[0]])
    g = d6.generators[0]
    corr = Correspondence.conjugation(d6, c6, g)
    assert corr.phi == AbHom.scalar((6,), 1)
    center = d6.subgroup([d6.generators[0] ** 3])
    for n_sub in (center, c6):
        result = modq_check(corr, n_sub, 5)
        assert result["commutes"] and result["m"] == 2


def test_modq_trivial_n_is_vacuous(d6):
    c6 = d6.subgroup([d6.generators[0]])
    corr = Correspondence.conjugation(d6, c6, d6.generators[1])
    result = modq_check(corr, d6.trivial_subgroup(), 3)
    assert result["commutes"]


def test_modq_gates():
    from gassmann.catalog import dihedral, symmetric
    d4 = dihedral(4)
    c4 = d4.subgroup([d4.generators[0]])
    corr = Correspondence.conjugation(d4, c4, d4.generators[1])
    with pytest.raises(CoprimalityViolated):
        modq_check(corr, c4, 4)  # index 2, k = 4
    with pytest.raises(ValueError):
        modq_legs(corr, c4, 0)
    s4 = symmetric(4)
    a4 = s4.subgroup(alternating(4).generators)
    corr_a4 = Correspondence.conjugation(s4, a4, Permutation.identity(4))
    # a k below 1 is refused as such before its gcd with the index 2
    for k in (0, -1, -2):
        with pytest.raises(ValueError, match="modulus must be positive"):
            modq_check(corr_a4, a4, k)
    h1 = s4.subgroup([Permutation.from_cycles(4, [(0, 1)]),
                      Permutation.from_cycles(4, [(2, 3)])])
    corr2 = Correspondence.conjugation(s4, h1, Permutation.identity(4))
    with pytest.raises(NotNormal):
        modq_check(corr2, s4.subgroup([Permutation.from_cycles(4, [(0, 1)])]),
                   5)
    d6 = dihedral(6)
    c6 = d6.subgroup([d6.generators[0]])
    corr3 = Correspondence.conjugation(d6, c6, d6.generators[1])
    half = d6.subgroup([d6.generators[0] ** 2, d6.generators[1]])
    assert d6.is_normal_subgroup(half)  # index 2, but not inside C6
    with pytest.raises(NotASubgroup):
        modq_legs(corr3, half, 5)


def test_modq_noncoprime_legs_survive_only_multiplied():
    # reflection conjugation inverts the rotation line; with k = 4 the
    # divided corestriction identity fails outright, but multiplying both
    # sides by the index m = 2 restores equality, which is exactly why
    # the coprimality gate exists
    from gassmann.catalog import dihedral
    d4 = dihedral(4)
    c4 = d4.subgroup([d4.generators[0]])
    corr = Correspondence.conjugation(d4, c4, d4.generators[1])
    legs = modq_legs(corr, c4, 4)
    lhs = legs["phi_k"].compose(legs["cor1_k"])
    rhs = legs["cor2_k"]
    assert lhs != rhs
    double = AbHom.scalar(lhs.target_factors, 2)
    assert double.compose(lhs) == double.compose(rhs)


def test_modq_outer_conjugation_can_fail_even_coprime(s3):
    # documented observation: with N = H1 = H2 the rotation subgroup and
    # phi induced by a transposition, cor2 is the identity but
    # phi . cor1 is inversion, and 3 is coprime to the index 2; the
    # mod-k rectangle is only guaranteed for maps that restrict from the
    # ambient group, not for every correspondence
    a3 = s3.subgroup([Permutation.from_cycles(3, [(0, 1, 2)])])
    corr = Correspondence.conjugation(
        s3, a3, Permutation.from_cycles(3, [(0, 1)]))
    result = modq_check(corr, a3, 3)
    assert not result["cor_leg"]
    assert not result["commutes"]


def test_corresponding_subgroups_t1(d6):
    c6 = d6.subgroup([d6.generators[0]])
    corr = Correspondence.conjugation(d6, c6, d6.generators[1])
    pairs = corresponding_subgroups(corr, 1)
    assert len(pairs) == 1
    cs = pairs[0]
    assert cs.u1 == CoordSubgroup.full((6,))
    assert cs.gamma1p.element_set == c6.element_set
    assert cs.gamma2p.element_set == c6.element_set


def test_corresponding_subgroups_enumeration(d6):
    c6 = d6.subgroup([d6.generators[0]])
    corr = Correspondence.conjugation(d6, c6, d6.generators[1])
    pairs = corresponding_subgroups(corr, 3)
    assert len(pairs) == 1
    cs = pairs[0]
    assert cs.gamma1p.order == 2  # kernel of Z/6 ->> Z/3
    assert cs.gamma2p.order == 2
    assert cs.u2.index == 3
    assert corresponding_subgroups(corr, 4) == []
    assert len(corresponding_subgroups(corr, 6)) == 1


def test_gthm_check_passes_and_gates(d6):
    c6 = d6.subgroup([d6.generators[0]])
    corr = Correspondence.conjugation(d6, c6, d6.generators[1])
    cs = corresponding_subgroups(corr, 3)[0]
    assert gthm_check(cs)
    bad = corresponding_subgroups(corr, 2)[0]
    with pytest.raises(CoprimalityViolated):  # t = 2 vs index 2
        gthm_check(bad)


def test_gthm_uses_cores_of_the_lifted_pair(s3):
    # the projections genuinely disagree on the core of the subgroup
    # itself (inversion is not the identity on Z/3), so the statement
    # checked is the one about the cores of the lifted pair, which are
    # trivial here
    a3 = s3.subgroup([Permutation.from_cycles(3, [(0, 1, 2)])])
    g = Permutation.from_cycles(3, [(0, 1)])
    corr = Correspondence.conjugation(s3, a3, g)
    ab = abelianization(a3)
    rotation = Permutation.from_cycles(3, [(0, 1, 2)])
    assert corr.phi.apply(ab.project(rotation)) != ab.project(rotation)
    for cs in corresponding_subgroups(corr, 3):
        assert normal_core(s3, cs.gamma1p).order == 1
        assert gthm_check(cs)


def test_gthm_check_refuses_unequal_cores(s4):
    """V4 and K = <(0 1), (2 3)> in S4 both have H1 = Z/2 x Z/2 and index
    6, so the identity on (2, 2) is a valid correspondence; but V4 is
    normal and K has a trivial core, so the check fails, and so does
    the diagram."""
    v4, k = (s4.subgroup([Permutation.parse(4, c) for c in gens])
             for gens in (("(0 1)(2 3)", "(0 2)(1 3)"), ("(0 1)", "(2 3)")))
    assert abelianization(v4).factors == abelianization(k).factors == (2, 2)
    corr = Correspondence(s4, v4, k, AbHom.scalar((2, 2), 1))
    cs = corresponding_subgroups(corr, 1)[0]
    assert gthm_check(cs) is False
    assert diagram_check(corr)["commutes"] is False

    def brute_core(sub):
        members = set(sub.elements)
        return set.intersection(*({x.conjugate(g) for x in members}
                                  for g in s4.elements))
    for lifted, order in ((cs.gamma1p, 4), (cs.gamma2p, 1)):
        core = normal_core(s4, lifted)
        assert core.order == order
        assert set(core.elements) == brute_core(lifted)


@pytest.fixture
def sweep_fails_once(monkeypatch):
    """The sweep's diagram_check reports a failed square on its first
    call, and its gthm_check returns False on its first call; `reset()`
    re-arms both for a second sweep."""
    real_diagram = homology_module.diagram_check
    real_gthm = homology_module.gthm_check
    calls = {"diagram": 0, "gthm": 0}

    def diagram(corr):
        calls["diagram"] += 1
        outcome = real_diagram(corr)
        return {**outcome, "commutes": False} if calls["diagram"] == 1 \
            else outcome

    def gthm(cs):
        calls["gthm"] += 1
        return calls["gthm"] > 1 and real_gthm(cs)
    monkeypatch.setattr(homology_module, "diagram_check", diagram)
    monkeypatch.setattr(homology_module, "gthm_check", gthm)
    return lambda: calls.update(diagram=0, gthm=0)


def test_sweep_lists_each_failure_and_fails(sweep_fails_once, capsys):
    report = conjugation_sweep([("S3", symmetric(3))])
    assert report["passed"] is False
    [square] = report["diagram_failures"]
    [core] = report["gthm_failures"]
    assert set(square) == {"group", "h1_order", "g", "report"}
    assert square["group"] == "S3" and square["report"]["commutes"] is False
    assert set(core) == {"group", "h1_order", "g", "t"}
    assert core["group"] == "S3"
    sweep_fails_once()
    assert main(["homology", "sweep", "--max-order", "6"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_lifted_subgroups_are_conjugate(s4):
    # the lift of phi(U) is exactly the conjugate of the lift of U
    c4 = s4.subgroup([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    g = Permutation.from_cycles(4, [(0, 1)])
    corr = Correspondence.conjugation(s4, c4, g)
    for t in (1, 2, 4):
        for cs in corresponding_subgroups(corr, t):
            moved = frozenset(x.conjugate(g)
                              for x in cs.gamma1p.element_set)
            assert moved == cs.gamma2p.element_set


@pytest.mark.parametrize("name", ["s4", "a5"])
def test_corresponding_subgroups_keep_the_index(name):
    """phi is an isomorphism, so phi(U1) has the index t of U1, for every
    conjugation correspondence over the group and every divisor t of the
    homology order; a t that does not divide it gives no pairs."""
    group = symmetric(4) if name == "s4" else alternating(5)
    pairs = 0
    for h1 in group.all_subgroups():
        order = abelianization(h1).structure.torsion_order()
        divisors = [t for t in range(1, order + 1) if order % t == 0]
        for g in coset_action(group, h1).coset_reps:
            corr = Correspondence.conjugation(group, h1, g)
            for t in divisors:
                for cs in corresponding_subgroups(corr, t):
                    assert cs.u1.index == cs.u2.index == t
                    pairs += 1
            assert corresponding_subgroups(corr, order + 1) == []
    assert pairs > 0


def test_h1_isomorphic(s3, fano):
    c2 = s3.subgroup([Permutation.from_cycles(3, [(0, 1)])])
    c2b = s3.subgroup([Permutation.from_cycles(3, [(1, 2)])])
    a3 = s3.subgroup([Permutation.from_cycles(3, [(0, 1, 2)])])
    assert h1_isomorphic(s3, c2, c2b)
    assert not h1_isomorphic(s3, c2, a3)
    group, h1, h2 = fano
    assert h1_isomorphic(group, h1, h2)


def test_conjugation_sweep_small(s3, d4):
    report = conjugation_sweep([("s3", s3), ("d4", d4)], max_order=24)
    assert report["passed"]
    assert report["diagram_failures"] == []
    assert report["gthm_failures"] == []
    assert report["correspondences"] > 0
    assert report["gthm_checks"] > 0
    assert [row["group"] for row in report["groups"]] == ["s3", "d4"]
    skipped = conjugation_sweep([("s3", s3), ("d4", d4)], max_order=7)
    assert [row["group"] for row in skipped["groups"]] == ["s3"]


@pytest.mark.parametrize("name, correspondences, checks", [
    ("s3", 18, 30), ("a5", 1019, 1616)])
def test_sweep_over_a_subgroup_equals_its_permgroup(name, correspondences,
                                                    checks):
    """A `Subgroup` as the ambient group, whose Cayley graph is ordered
    apart from its sorted elements, gives the rows of the `PermGroup`
    its generators generate."""
    sub = (symmetric(4).point_stabilizer(0) if name == "s3"
           else symmetric(5).subgroup(alternating(5).generators))
    report = conjugation_sweep([(name, sub)])
    assert report == conjugation_sweep(
        [(name, PermGroup(sub.degree, sub.generators))])
    assert report["passed"]
    assert (report["correspondences"], report["gthm_checks"]) == \
        (correspondences, checks)


def test_sweep_counts_cosets_not_elements(s3):
    # one correspondence per coset gH per subgroup H: sum over H of [G:H]
    report = conjugation_sweep([("s3", s3)], max_order=6)
    expected = sum(s3.order // h.order for h in s3.all_subgroups())
    assert report["correspondences"] == expected
