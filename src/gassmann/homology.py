"""Degree-one homology diagrams for subgroup correspondences.

Everything runs on explicit matrices: a correspondence carries an
isomorphism phi between the abelianizations of two finite-index
subgroups, the two-leg diagram against the ambient group is checked by
composing transfer and inclusion matrices, and the mod-k variant
tensors all four maps with Z/k.  Corresponding index-t subgroups are
enumerated as sublattices of the invariant-factor coordinates and
lifted back to honest subgroups, where normal cores settle the
coprime-index theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    CoprimalityViolated,
    IndexMismatch,
    NotCoprime,
    NotNormal,
)
from .lattice import IntMat, _in_hnf_span, _square_hnf
from .permgroup import (
    AbHom,
    GroupLike,
    Permutation,
    Subgroup,
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


@dataclass(frozen=True, repr=False)
class CoordSubgroup:
    """Subgroup of a finite abelian group in invariant-factor coordinates.

    Stored as the canonical HNF basis of its preimage lattice in Z^k;
    the lattice contains diag(factors) Z^k, and the subgroup index equals
    the lattice index, the product of the basis diagonal.
    """

    factors: Sequence[int]
    basis: IntMat | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if (self.basis is None) != (len(self.factors) == 0):
            raise ValueError("basis must be present exactly for k > 0")

    @classmethod
    def full(cls, factors: Sequence[int]) -> "CoordSubgroup":
        if not factors:
            return cls((), None)
        return cls(factors, IntMat.identity(len(factors)))

    @classmethod
    def from_generators(cls, factors: Sequence[int],
                        vectors: Iterable[Sequence[int]]) -> "CoordSubgroup":
        """Subgroup generated by the vectors (mod the factors)."""
        k = len(factors)
        if k == 0:
            return cls((), None)
        columns = [list(v) for v in vectors]
        for i, d in enumerate(factors):
            columns.append([d if j == i else 0 for j in range(k)])
        rows = [[col[i] for col in columns] for i in range(k)]
        return cls(factors, _square_hnf(IntMat(rows)))

    @property
    def index(self) -> int:
        if self.basis is None:
            return 1
        result = 1
        for i in range(self.basis.nrows):
            result *= self.basis[i, i]
        return result

    def contains(self, vector: Sequence[int]) -> bool:
        """Solve the lower-triangular basis system over the integers."""
        if len(vector) != len(self.factors):
            raise ValueError("vector length mismatch")
        return self.basis is None or _in_hnf_span(self.basis, vector)

    def __repr__(self) -> str:
        return f"CoordSubgroup(index={self.index}, factors={self.factors})"


def _ordered_factorizations(t: int, slots: int) -> list[tuple[int, ...]]:
    if slots == 0:
        return [()] if t == 1 else []
    out = []
    for d in range(1, t + 1):
        if t % d == 0:
            out.extend((d,) + rest
                       for rest in _ordered_factorizations(t // d, slots - 1))
    return out


def index_subgroups(factors: Sequence[int], t: int) -> list[CoordSubgroup]:
    """All subgroups of index t, as canonical HNF sublattices of Z^k
    containing diag(factors) Z^k.  Empty when t does not divide the
    group order."""
    if t < 1:
        raise ValueError("index must be positive")
    k = len(factors)
    order = 1
    for d in factors:
        order *= d
    if order % t:
        return []
    if t == 1:
        return [CoordSubgroup.full(factors)]
    found = []
    for diagonal in _ordered_factorizations(t, k):
        # row i of the HNF basis: i entries below the diagonal, each
        # reduced modulo diagonal[i]
        below = [range(h) for i, h in enumerate(diagonal) for _ in range(i)]
        for entries in itertools.product(*below):
            values = iter(entries)
            rows = [[next(values) for _ in range(i)] + [h] + [0] * (k - i - 1)
                    for i, h in enumerate(diagonal)]
            candidate = CoordSubgroup(factors, IntMat(rows))
            if all(candidate.contains(
                    [d if j == axis else 0 for j in range(k)])
                   for axis, d in enumerate(factors)):
                found.append(candidate)
    found.sort(key=lambda u: u.basis.rows)
    return found


class Correspondence:
    """Isomorphism between the degree-one homology of two subgroups.

    phi is a matrix in the invariant-factor coordinates of the two
    abelianizations; invertibility is checked at construction by
    verifying equal orders and a full image.
    """

    def __init__(self, group: GroupLike, h1: GroupLike, h2: GroupLike,
                 phi: AbHom, *, provenance: str = "user",
                 conjugator: Permutation | None = None) -> None:
        _require_subgroup(group, h1)
        _require_subgroup(group, h2)
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
        columns = [phi.column(j) for j in range(len(phi.source_factors))]
        if CoordSubgroup.from_generators(phi.target_factors,
                                         columns).index != 1:
            raise ValueError("phi is not surjective")
        self.group = group
        self.h1 = h1
        self.h2 = h2
        self.phi = phi
        self.provenance = provenance
        self.conjugator = conjugator

    @classmethod
    def conjugation(cls, group: GroupLike, h1: GroupLike, g: Permutation,
                    h2: GroupLike | None = None) -> "Correspondence":
        """The map induced by x -> gxg^-1 from H1 onto gH1g^-1.

        A precomputed instance of the conjugate subgroup may be passed
        to share cached abelianizations across a sweep.
        """
        conjugated = frozenset(x.conjugate(g) for x in h1.element_set)
        if h2 is None:
            h2 = Subgroup(group, conjugated)
        elif h2.element_set != conjugated:
            raise ValueError("supplied h2 is not the conjugate of h1 by g")
        ab1 = abelianization(h1)
        ab2 = abelianization(h2)
        columns = [ab2.project(rep.conjugate(g)) for rep in ab1.basis_reps]
        phi = AbHom.from_columns(ab1.factors, ab2.factors, columns)
        return cls(group, h1, h2, phi,
                   provenance=f"conjugation({g.format()})", conjugator=g)

    def __repr__(self) -> str:
        return (f"Correspondence(|H1|={self.h1.order}, "
                f"|H2|={self.h2.order}, {self.provenance})")


def _image_subgroup(phi: AbHom, u: CoordSubgroup) -> CoordSubgroup:
    """phi(U) as a subgroup of the target group."""
    if u.factors != phi.source_factors:
        raise ValueError("subgroup lives in the wrong coordinates")
    k1 = len(phi.source_factors)
    vectors = []
    if k1:
        for j in range(k1):
            vectors.append(phi.apply(u.basis.column(j)))
    return CoordSubgroup.from_generators(phi.target_factors, vectors)


def diagram_check(corr: Correspondence) -> dict:
    """Both legs of the two-triangle diagram against the ambient group.

    transfer leg:  phi . transfer(G, H1) = transfer(G, H2)
    inclusion leg: inclusion(H2, G) . phi = inclusion(H1, G)
    """
    group, h1, h2 = corr.group, corr.h1, corr.h2
    if h1.order != h2.order:
        raise IndexMismatch("the diagram needs equal-index subgroups")
    transfer_leg = corr.phi.compose(transfer(group, h1)) == \
        transfer(group, h2)
    inclusion_leg = inclusion_induced(h2, group).compose(corr.phi) == \
        inclusion_induced(h1, group)
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
    directly.  Normality of N and containment in both subgroups are
    still required.
    """
    group, h1, h2 = corr.group, corr.h1, corr.h2
    if not group.is_normal_subgroup(n_sub):
        raise NotNormal("N must be normal in the ambient group")
    _require_subgroup(h1, n_sub)
    _require_subgroup(h2, n_sub)
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
    m = corr.group.order // corr.h1.order
    if corr.group.order // corr.h2.order != m:
        raise IndexMismatch("equal indices required")
    if gcd(k, m) != 1:
        raise NotCoprime(f"k = {k} shares a factor with the index m = {m}")
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


def _lift(h: GroupLike, u: CoordSubgroup) -> Subgroup:
    ab = abelianization(h)
    classes: dict[tuple[int, ...], list[Permutation]] = {}
    for x in h.elements:
        classes.setdefault(ab.project(x), []).append(x)
    # membership depends only on the class: one test per class
    elements = [x for coords, members in classes.items()
                if u.contains(coords) for x in members]
    return Subgroup(h, elements)


def corresponding_subgroups(corr: Correspondence,
                            t: int) -> list[CorrespondingSubgroups]:
    """All pairs (U1, phi(U1)) of index-t subgroups, lifted to subgroups
    of H1 and H2.  Empty when t does not divide the homology order."""
    ab1 = abelianization(corr.h1)
    ab2 = abelianization(corr.h2)
    if t == 1:
        return [CorrespondingSubgroups(
            corr, 1,
            CoordSubgroup.full(ab1.factors), CoordSubgroup.full(ab2.factors),
            corr.h1, corr.h2)]
    # index_subgroups is [] unless t divides the order; phi keeps indices
    out = []
    for u1 in index_subgroups(ab1.factors, t):
        u2 = _image_subgroup(corr.phi, u1)
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
    ab1 = abelianization(corr.h1)
    ab2 = abelianization(corr.h2)
    for x in core1.elements:
        moved = corr.phi.apply(ab1.project(x))
        direct = ab2.project(x)
        difference = [a - b for a, b in zip(moved, direct)]
        if not cs.u2.contains(difference):
            return False
    return True


def h1_isomorphic(group: GroupLike, h1: GroupLike, h2: GroupLike) -> bool:
    """Structural equality of the two abelianizations."""
    _require_subgroup(group, h1)
    _require_subgroup(group, h2)
    return abelianization(h1).structure == abelianization(h2).structure


def conjugation_sweep(named_groups, *, max_order: int = 120) -> dict:
    """Exhaustive diagram and core checks over conjugation
    correspondences.

    For every group of order at most max_order, every subgroup H, and
    every coset gH (the induced map on homology depends on g only
    through its coset), the sweep runs diagram_check, and, for each
    divisor t of |H1(H)| coprime to the index, gthm_check on every
    corresponding pair.  Returns a failure-listing report.
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
        canonical = {s.element_set: s for s in subgroups}
        group_row = {"group": name, "order": group.order,
                     "subgroups": len(subgroups), "correspondences": 0}
        for h1 in subgroups:
            m = group.order // h1.order
            cosets = coset_action(group, h1)
            ab_order = abelianization(h1).structure.torsion_order()
            t_values = [t for t in range(1, ab_order + 1)
                        if ab_order % t == 0 and gcd(m, t) == 1]
            for g in cosets.coset_reps:
                h2 = canonical[frozenset(x.conjugate(g)
                                         for x in h1.element_set)]
                corr = Correspondence.conjugation(group, h1, g, h2=h2)
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
