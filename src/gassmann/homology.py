"""Degree-one homology diagrams for subgroup correspondences.

Everything runs on explicit matrices: a correspondence carries an
isomorphism phi between the abelianizations of two finite-index
subgroups, the two-leg diagram against the ambient group is checked by
comparing the rows of transfer and inclusion products with the cached
maps, and the mod-k variant tensors all four maps with Z/k.  A subgroup
of an abelianization is its set of coordinate tuples.  The index-t
subgroups are enumerated once each through the HNF bases of their
preimage lattices in Z^k, mapped through phi element by element, and
lifted back to honest subgroups, where normal cores settle the
coprime-index theorem.  A subgroup's index-t subgroups and lifts, like
the group's cores, are built once per subgroup and kept in its memo,
not once per coset, and so is each image phi(U) of a correspondence
into it, once per (phi, U).  The sweep reads its conjugations off the
coset walk and skips the checks that hold by construction there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod
from operator import add, eq, mod, mul
from typing import Iterable, Sequence

from .errors import (
    CoprimalityViolated,
    IndexMismatch,
    NotASubgroup,
    NotNormal,
    OrderCapExceeded,
)
from .lattice import _in_hnf_span
from .permgroup import (
    DEFAULT_ORDER_CAP,
    AbHom,
    GroupLike,
    Permutation,
    Subgroup,
    _memoized,
    _require_subgroup,
    abelianization,
    coset_action,
    inclusion_induced,
    normal_core,
    transfer,
)

__all__ = [
    "Correspondence",
    "CorrespondingSubgroups",
    "CoordSubgroup",
    "diagram_check",
    "modq_check",
    "modq_legs",
    "corresponding_subgroups",
    "index_subgroups",
    "gthm_check",
    "h1_isomorphic",
    "conjugation_sweep",
]

# candidate HNF bases per index_subgroups call; the corpus sweep needs 6
_INDEX_BASIS_CAP = 100_000


def _positive_factors(factors: Sequence[int]) -> tuple[int, ...]:
    factors = tuple(factors)
    if not all(isinstance(d, int) and d > 0 for d in factors):
        raise ValueError(f"invariant factors must be positive ints, "
                         f"got {factors}")
    return factors


@dataclass(frozen=True, repr=False)
class CoordSubgroup:
    """Subgroup of a finite abelian group in invariant-factor coordinates.

    Stored as its set of elements, each a coordinate tuple reduced mod
    the factors.  The builders below make only subgroups, of at most
    DEFAULT_ORDER_CAP elements; the constructor trusts its caller.

    >>> sorted(CoordSubgroup.from_generators((2, 4), [(0, 2)]).elements)
    [(0, 0), (0, 2)]
    >>> CoordSubgroup.full(()).elements
    frozenset({()})
    """

    factors: tuple[int, ...]
    elements: frozenset[tuple[int, ...]]

    @classmethod
    def full(cls, factors: Sequence[int]) -> "CoordSubgroup":
        factors = tuple(factors)
        k = len(factors)  # the unit vectors generate it, under one cap
        return cls.from_generators(
            factors, [[int(i == j) for j in range(k)] for i in range(k)])

    @classmethod
    def from_generators(cls, factors: Sequence[int],
                        vectors: Iterable[Sequence[int]]) -> "CoordSubgroup":
        """Subgroup generated by the vectors (mod the factors), closed by
        cosets: <U, x> is the union of U + jx over j = 0, 1, ... until
        jx lies in U."""
        factors = _positive_factors(factors)

        def plus(a, b):
            return tuple(map(mod, map(add, a, b), factors))

        zero = (0,) * len(factors)
        elements = {zero}
        for x in vectors:
            if len(x) != len(factors):
                raise ValueError("vector length mismatch")
            multiples = [zero]
            shift = plus(x, zero)
            while shift not in elements:
                multiples.append(shift)
                if len(elements) * len(multiples) > DEFAULT_ORDER_CAP:
                    raise OrderCapExceeded(f"subgroup of {factors} over "
                                           f"the cap {DEFAULT_ORDER_CAP}")
                shift = plus(shift, x)
            elements = {plus(u, v) for u in elements for v in multiples}
        return cls(factors, frozenset(elements))

    @property
    def index(self) -> int:
        return prod(self.factors) // len(self.elements)

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != len(self.factors):
            raise ValueError("vector length mismatch")
        return tuple(x % d for x, d in zip(vector, self.factors)) \
            in self.elements

    def __repr__(self) -> str:
        return f"CoordSubgroup(index={self.index}, factors={self.factors})"


def _positive_index(t: int) -> int:
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"index must be a positive int, got {t!r}")
    return t


def _ordered_factorizations(t: int, bounds: Sequence[int]) -> list[tuple]:
    """Every (h_0, ..., h_k-1) with product t and h_i dividing bounds[i]."""
    if not bounds:
        return [()] if t == 1 else []
    g = gcd(t, bounds[0])
    return [(h,) + rest for h in range(1, g + 1) if g % h == 0
            for rest in _ordered_factorizations(t // h, bounds[1:])]


def index_subgroups(factors: Sequence[int], t: int) -> list[CoordSubgroup]:
    """All subgroups of index t, empty when t does not divide the group
    order.  Each is listed once, as the canonical HNF basis of its
    preimage lattice in Z^k, a lattice that contains diag(factors) Z^k;
    the subgroups come in the order of those bases' rows.  Over
    _INDEX_BASIS_CAP candidate bases raise OrderCapExceeded at once."""
    factors = _positive_factors(factors)
    _positive_index(t)
    k = len(factors)
    # a pivot divides its factor, and row i has pivot ** i choices below it
    diagonals = _ordered_factorizations(t, factors)
    count = sum(prod(h ** i for i, h in enumerate(d)) for d in diagonals)
    if count > _INDEX_BASIS_CAP:
        raise OrderCapExceeded(f"index-{t} subgroups need {count} candidate "
                               f"bases, over the cap {_INDEX_BASIS_CAP}")
    axes = [tuple(d if j == i else 0 for j in range(k))
            for i, d in enumerate(factors)]
    found = []
    for diagonal in diagonals:
        # row i of the HNF basis: i entries below the diagonal, each
        # reduced modulo diagonal[i]
        choices = [[below + (h,) + (0,) * (k - i - 1)
                    for below in itertools.product(range(h), repeat=i)]
                   for i, h in enumerate(diagonal)]
        found.extend(rows for rows in itertools.product(*choices)
                     if all(_in_hnf_span(rows, axis) for axis in axes))
    found.sort()
    return [CoordSubgroup.from_generators(factors, zip(*rows))
            for rows in found]


class Correspondence:
    """Isomorphism between the degree-one homology of two subgroups.

    phi is a matrix in the invariant-factor coordinates of the two
    abelianizations; the constructor checks the subgroups, and that phi
    is an isomorphism by equal orders and a full image.  Only the sweep
    skips the checks (`_trusted_conjugation`).  `provenance` is "user"
    by default, and "conjugation(<g>)" for a conjugation, a string made
    once per g and kept in the group's memo under "label", keyed on g.
    """

    def __init__(self, group: GroupLike, h1: GroupLike, h2: GroupLike,
                 phi: AbHom, *, provenance: str = "user") -> None:
        _require_subgroup(group, h1, h2)
        ab1 = abelianization(h1)
        ab2 = abelianization(h2)
        if phi.source_factors != ab1.factors or \
                phi.target_factors != ab2.factors:
            raise ValueError(
                f"phi maps {phi.source_factors} -> {phi.target_factors}, "
                f"but the abelianizations are {ab1.factors} and "
                f"{ab2.factors}")
        if ab1.structure.torsion_order() != ab2.structure.torsion_order():
            raise ValueError("abelianization orders differ: phi cannot "
                             "be an isomorphism")
        # the orders are equal, so phi is onto exactly when it is one-to-one
        if len(set(map(phi.apply, _full(h1).elements))) != \
                ab2.structure.torsion_order():
            raise ValueError("phi is not surjective")
        self.group, self.h1, self.h2 = group, h1, h2
        self.phi, self.provenance = phi, provenance

    @classmethod
    def conjugation(cls, group: GroupLike, h1: GroupLike,
                    g: Permutation) -> "Correspondence":
        """The map induced by x -> gxg^-1 from H1 onto gH1g^-1, g in G:
        built as the sweep builds it, then put through every check."""
        if g not in group:
            raise NotASubgroup(f"conjugator {g.format()} not in the group")
        h2 = Subgroup(group, [x.conjugate(g) for x in h1.elements])
        index = group._cayley_graph.index
        unchecked = cls._trusted_conjugation(group, h1, h2, g, [
            index[rep.conjugate(g)] for rep in abelianization(h1).basis_reps])
        return cls(group, h1, h2, unchecked.phi,
                   provenance=unchecked.provenance)

    @classmethod
    def _trusted_conjugation(cls, group: GroupLike, h1: GroupLike,
                             h2: GroupLike, g: Permutation,
                             basis: Sequence[int]) -> "Correspondence":
        """`conjugation` onto the instance h2 of gH1g^-1, given the
        Cayley-graph indices of g b g^-1 for H1's basis reps b; their
        coordinates in H1(H2) are phi's columns.  Unchecked: the sweep's
        subgroups lie in the group, and conjugation by g in G maps H1
        onto H2 and [H1, H1] onto [H2, H2], so phi is an isomorphism."""
        elements, ab2 = group._cayley_graph.elements, abelianization(h2)
        columns = [ab2.project(elements[i]) for i in basis]
        corr = object.__new__(cls)
        corr.group, corr.h1, corr.h2 = group, h1, h2
        corr.phi = AbHom._reduced(abelianization(h1).factors, ab2.factors,
                                  tuple(zip(*columns)))
        corr.provenance = _memoized(
            group, "label", g, lambda _, g: f"conjugation({g.format()})")
        return corr

    def __repr__(self) -> str:
        return (f"Correspondence(|H1|={self.h1.order}, "
                f"|H2|={self.h2.order}, {self.provenance})")


def _image(h2: GroupLike, phi: AbHom, u: CoordSubgroup) -> CoordSubgroup:
    """phi(U) for an isomorphism phi onto H1(H2): H2's own instance of
    that index-t subgroup, so that the memo keeps no new set.  Built once
    per (phi, U) and kept in H2's memo under "image", keyed on (phi, U);
    `corresponding_subgroups` asks at t > 1."""
    def build(h2: GroupLike, key) -> CoordSubgroup:
        image = frozenset(map(phi.apply, u.elements))
        return next(v for v in _index_subgroups(h2, u.index)
                    if v.elements == image)
    return _memoized(h2, "image", (phi, u), build)


def diagram_check(corr: Correspondence) -> dict:
    """Both legs of the two-triangle diagram against the ambient group.

    transfer leg:  phi . transfer(G, H1) = transfer(G, H2)
    inclusion leg: inclusion(H2, G) . phi = inclusion(H1, G)

    Each leg compares rows one by one and builds no product map.
    """
    group, h1, h2, phi = corr.group, corr.h1, corr.h2, corr.phi
    if h1.order != h2.order:
        raise IndexMismatch("the diagram needs equal-index subgroups")
    transfer_leg = all(map(eq, phi._rows_after(transfer(group, h1)),
                           transfer(group, h2).entries))
    inclusion_leg = all(map(eq, inclusion_induced(h2, group)._rows_after(phi),
                            inclusion_induced(h1, group).entries))
    return {
        "transfer_leg": transfer_leg,
        "inclusion_leg": inclusion_leg,
        "commutes": transfer_leg and inclusion_leg,
        "index": group.order // h1.order,
        "provenance": corr.provenance,
    }


def modq_legs(corr: Correspondence, n_sub: GroupLike, k: int) -> dict:
    """The four maps of the mod-k diagram, tensored and untensored.

    No coprimality gate: callers that want to observe what happens for
    bad k (where only the m-multiplied identities survive) use this
    directly.  Normality of N and containment in both subgroups (which
    the corestriction and transfer check) are still required.
    """
    group, h1, h2 = corr.group, corr.h1, corr.h2
    if not group.is_normal_subgroup(n_sub):
        raise NotNormal("N must be normal in the ambient group")
    if k < 1:
        raise ValueError("modulus must be positive")
    cor1 = inclusion_induced(n_sub, h1)
    cor2 = inclusion_induced(n_sub, h2)
    res1 = transfer(h1, n_sub)
    res2 = transfer(h2, n_sub)
    return {
        "phi": corr.phi,
        "cor1": cor1, "cor2": cor2, "res1": res1, "res2": res2,
        "phi_k": corr.phi.tensor_mod(k),
        "cor1_k": cor1.tensor_mod(k), "cor2_k": cor2.tensor_mod(k),
        "res1_k": res1.tensor_mod(k), "res2_k": res2.tensor_mod(k),
    }


def modq_check(corr: Correspondence, n_sub: GroupLike, k: int) -> dict:
    """Mod-k diagram: phi.Cor1 = Cor2 and Res1 = Res2.phi after
    tensoring everything with Z/k, for k coprime to the index."""
    if k < 1:
        raise ValueError("modulus must be positive")
    m = corr.group.order // corr.h1.order
    if corr.group.order // corr.h2.order != m:
        raise IndexMismatch("equal indices required")
    if gcd(k, m) != 1:
        raise CoprimalityViolated(
            f"k = {k} shares a factor with the index m = {m}")
    legs = modq_legs(corr, n_sub, k)
    cor_leg = legs["phi_k"].compose(legs["cor1_k"]) == legs["cor2_k"]
    res_leg = legs["res1_k"] == legs["res2_k"].compose(legs["phi_k"])
    return {
        "cor_leg": cor_leg,
        "res_leg": res_leg,
        "commutes": cor_leg and res_leg,
        "m": m,
        "k": k,
    }


@dataclass(frozen=True)
class CorrespondingSubgroups:
    """Index-t subgroup pair matched through phi, with lifts.

    u1, u2 live in the invariant-factor coordinates of the two
    abelianizations; gamma1p, gamma2p are their preimages in the
    subgroups themselves, and are H1 and H2 when t = 1.
    """

    correspondence: Correspondence
    t: int
    u1: CoordSubgroup
    u2: CoordSubgroup
    gamma1p: GroupLike
    gamma2p: GroupLike


def _index_subgroups(h: GroupLike, t: int) -> tuple[CoordSubgroup, ...]:
    """The index-t subgroups of H1(H), a tuple of CoordSubgroups (t = 1
    gives H1(H) itself), listed once per t and kept in H's memo under
    "index", keyed on t; the caller checks t before the lookup."""
    return _memoized(h, "index", t, lambda h, t: tuple(
        index_subgroups(abelianization(h).factors, t)))


def _full(h: GroupLike) -> CoordSubgroup:
    """H1(H) as a CoordSubgroup: its one subgroup of index 1."""
    [full] = _index_subgroups(h, 1)
    return full


def _lift(h: GroupLike, u: CoordSubgroup) -> Subgroup:
    """The preimage of U in H, a Subgroup, built once per U and kept in
    H's memo under "lift", keyed on the CoordSubgroup U."""
    return _memoized(h, "lift", u, _preimage)


def _preimage(h: GroupLike, u: CoordSubgroup) -> Subgroup:
    project = abelianization(h).project
    return Subgroup(h, [x for x in h.elements if project(x) in u.elements])


def corresponding_subgroups(corr: Correspondence,
                            t: int) -> list[CorrespondingSubgroups]:
    """All pairs (U1, phi(U1)) of index-t subgroups, lifted to subgroups
    of H1 and H2.  Empty when t does not divide the homology order.
    What depends on one subgroup alone (its index-t subgroups, the lift
    of each U) is built once per subgroup and kept in its memo."""
    if _positive_index(t) == 1:
        return [CorrespondingSubgroups(
            corr, 1, _full(corr.h1), _full(corr.h2), corr.h1, corr.h2)]
    # the list is empty unless t divides the order; phi keeps indices
    out = []
    for u1 in _index_subgroups(corr.h1, t):
        u2 = _image(corr.h2, corr.phi, u1)
        out.append(CorrespondingSubgroups(
            corr, t, u1, u2,
            _lift(corr.h1, u1), _lift(corr.h2, u2)))
    return out


def gthm_check(cs: CorrespondingSubgroups) -> bool:
    """Equal normal cores of the lifted subgroups, plus agreement of the
    two projections to H1(Hi)/Ui on that common core (compared through
    phi, which identifies the two quotients).

    Requires the index and t to be coprime.
    """
    corr = cs.correspondence
    group = corr.group
    m = group.order // corr.h1.order
    if gcd(m, cs.t) != 1:
        raise CoprimalityViolated(
            f"t = {cs.t} shares a factor with the index m = {m}")
    core1 = normal_core(group, cs.gamma1p)
    if core1 != normal_core(group, cs.gamma2p):
        return False
    # phi(project1(x)) - project2(x), one coordinate per row of phi
    rows = tuple(zip(corr.phi.entries, corr.phi.target_factors))
    project1 = abelianization(corr.h1).project
    project2 = abelianization(corr.h2).project
    u2 = cs.u2.elements
    return all(tuple((sum(map(mul, row, project1(x))) - y) % d
                     for (row, d), y in zip(rows, project2(x))) in u2
               for x in core1.elements)


def h1_isomorphic(group: GroupLike, h1: GroupLike, h2: GroupLike) -> bool:
    """Structural equality of the two abelianizations."""
    _require_subgroup(group, h1, h2)
    return abelianization(h1).structure == abelianization(h2).structure


def conjugation_sweep(named_groups, *, max_order: int = 120) -> dict:
    """Exhaustive diagram and core checks over conjugation
    correspondences.

    For every group of order at most max_order, every subgroup H, and
    every coset gH (the induced map on homology depends on g only
    through its coset), the sweep runs diagram_check, and, for each
    divisor t of |H1(H)| coprime to the index, gthm_check on every
    corresponding pair.  The coset walk gives each correspondence with
    no product: r_j = s r_i, so x -> s x s^-1 maps r_i's conjugates of
    H's element indices (its lattice key) and of H1(H)'s basis reps to
    r_j's, which give gHg^-1's lattice entry and phi.  Built so, it
    skips Correspondence's checks.  Returns a failure-listing report.
    ValueError unless max_order is positive.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    report = {
        "max_order": max_order,
        "groups": [],
        "correspondences": 0,
        "diagram_failures": [],
        "gthm_checks": 0,
        "gthm_failures": [],
    }
    for name, group in named_groups:
        if group.order > max_order:
            continue
        subgroups = group.all_subgroups()
        lattice, graph = group._subgroup_lattice, group._cayley_graph
        inverses = [sorted(range(group.order), key=move.__getitem__)
                    for move in graph.conjugations()]
        group_row = {"group": name, "order": group.order,
                     "subgroups": len(subgroups), "correspondences": 0}
        for members, h1 in lattice.items():
            m = group.order // h1.order
            cosets = coset_action(group, h1)
            ab1 = abelianization(h1)
            ab_order = ab1.structure.torsion_order()
            t_values = [t for t in range(1, ab_order + 1)
                        if ab_order % t == 0 and gcd(m, t) == 1]
            keys = [members]
            bases = [tuple(map(graph.index.__getitem__, ab1.basis_reps))]
            for i, k in zip(cosets.parent, cosets.via):
                move = inverses[k].__getitem__
                keys.append(frozenset(map(move, keys[i])))
                bases.append(tuple(map(move, bases[i])))
            for g, key, basis in zip(cosets.coset_reps, keys, bases):
                corr = Correspondence._trusted_conjugation(
                    group, h1, lattice[key], g, basis)
                report["correspondences"] += 1
                group_row["correspondences"] += 1
                outcome = diagram_check(corr)
                if not outcome["commutes"]:
                    report["diagram_failures"].append(
                        {"group": name, "h1_order": h1.order,
                         "g": g.format(), "report": outcome})
                for t in t_values:
                    for cs in corresponding_subgroups(corr, t):
                        report["gthm_checks"] += 1
                        if not gthm_check(cs):
                            report["gthm_failures"].append(
                                {"group": name, "h1_order": h1.order,
                                 "g": g.format(), "t": t})
        report["groups"].append(group_row)
    report["passed"] = not report["diagram_failures"] \
        and not report["gthm_failures"]
    return report
