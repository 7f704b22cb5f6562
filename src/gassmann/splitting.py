"""Group-theoretic model of prime splitting.

A conjugacy class stands in for a Frobenius class; its cycle type on
G/H is the splitting type of the corresponding prime.  Every class
occurs as a Frobenius infinitely often, so "for all but finitely many
primes" becomes "for every conjugacy class" and all four equivalence
relations are decided exactly.  The membership-of-1, gcd, and lcm tests
read the splitting types alone and do not compare degrees, so subgroups
of unequal index may be compared under those relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Union

from .errors import PreconditionViolated
from .permgroup import (
    ConjugacyClass,
    GroupLike,
    Permutation,
    _memoized,
    _require_equal_index,
    _require_subgroup,
)

__all__ = [
    "SplittingType",
    "NumericalSet",
    "splitting_type",
    "splitting_table",
    "arithmetically_equivalent",
    "kronecker_equivalent",
    "weakly_kronecker_equivalent",
    "ultra_coarse_equivalent",
    "numerical_set",
    "norm_count",
    "ultra_coarse_bound_check",
]


class SplittingType(tuple):
    """Multiset of positive integers (residue degrees): the sorted tuple
    of its parts, so it equals, and hashes as, that plain tuple.

    >>> SplittingType([2, 1, 2]) == (1, 2, 2)
    True
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "SplittingType":
        self = tuple.__new__(cls, sorted(parts))
        if not self:
            raise ValueError("a splitting type has at least one part")
        if any(not isinstance(p, int) or p < 1 for p in self):
            raise ValueError(
                f"parts must be positive integers: {tuple(self)}")
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return sum(self)

    def gcd(self) -> int:
        return gcd(*self)

    def lcm(self) -> int:
        return lcm(*self)

    @property
    def contains_one(self) -> bool:
        return self[0] == 1

    def __repr__(self) -> str:
        return "{{" + ", ".join(str(p) for p in self) + "}}"


@dataclass(frozen=True, repr=False)
class NumericalSet:
    """Truncated numerical semigroup generated by a splitting type.

    Equality compares the cap and the member set only, so two types
    generating the same semigroup compare equal.
    """

    base: SplittingType = field(compare=False)
    cap: int
    members: frozenset

    def __contains__(self, value: int) -> bool:
        return value in self.members

    def __repr__(self) -> str:
        return f"NumericalSet(cap={self.cap}, |members|={len(self.members)})"


ClassLike = Union[ConjugacyClass, Permutation]


def splitting_type(group: GroupLike, subgroup: GroupLike,
                   c: ClassLike) -> SplittingType:
    """Cycle type of the class of c (a class or any element of one) on
    G/H: the splitting_table entry at that class.  ValueError for a
    permutation outside the group.
    """
    rep = c.representative if isinstance(c, ConjugacyClass) else c
    return splitting_table(group, subgroup)[group._class_index(rep)]


def splitting_table(group: GroupLike,
                    subgroup: GroupLike) -> list[SplittingType]:
    """One splitting type per conjugacy class, in conjugacy_classes
    order: the cycle type of each class on G/H, read from how many of
    H's elements fall in each class, with no coset space.  Built once
    per subgroup and kept on the group (`_memoized`); each call
    returns a fresh list."""
    return list(_memoized(group, "splitting", subgroup, _cycle_types))


def _cycle_types(group: GroupLike,
                 subgroup: GroupLike) -> tuple[SplittingType, ...]:
    """The cycle type of g on G/H is fixed by the permutation character
    on the powers of g (Perlis 1977), and that character is the class
    count fix(x) = [G:H]·|x^G ∩ H| / |x^G|.  A coset lies on a cycle of
    g whose length divides d exactly when g^d fixes it, so fix(g^d) is
    the sum of e·a_e over e | d, where a_e counts the e-cycles; solving
    for a_d in increasing d is the Moebius inversion
    d·a_d = sum over e | d of mu(d/e)·fix(g^e)."""
    _require_subgroup(group, subgroup)
    classes = group.conjugacy_classes()
    class_number, index = group._class_map[1], group._element_index
    inside = [0] * len(classes)
    for h in subgroup.elements:
        inside[class_number[index[h]]] += 1
    cosets = group.order // subgroup.order
    types = []
    for cls in classes:
        g, order = cls.representative, cls.element_order
        cycles: dict[int, int] = {}
        for d in range(1, order + 1):
            if order % d:
                continue
            c = class_number[index[g ** d]]
            fixed = _exact(cosets * inside[c], classes[c].size)
            cycles[d] = _exact(fixed - sum(e * a for e, a in cycles.items()
                                           if d % e == 0), d)
        types.append(SplittingType(
            d for d, a in cycles.items() for _ in range(a)))
    return tuple(types)


def _exact(total: int, divisor: int) -> int:
    quotient, remainder = divmod(total, divisor)
    if remainder:
        raise AssertionError(f"{total} is not a multiple of {divisor}")
    return quotient


def arithmetically_equivalent(group: GroupLike, h1: GroupLike,
                              h2: GroupLike) -> bool:
    """Equal splitting type at every class; the multiset version of the
    fixed-point condition, so this agrees with the Gassmann test."""
    _require_equal_index(group, h1, h2)
    return splitting_table(group, h1) == splitting_table(group, h2)


# the splitting-type invariant each coarser relation compares per class
_RELATION_KEYS = {
    "kronecker": lambda s: s.contains_one,
    "weak_kronecker": SplittingType.gcd,
    "ultra_coarse": SplittingType.lcm,
}


def _tables_agree(group: GroupLike, h1: GroupLike, h2: GroupLike,
                  relation: str) -> bool:
    """The relation's key is the same on G/H1 and G/H2 at every class."""
    key = _RELATION_KEYS[relation]
    return all(key(s1) == key(s2) for s1, s2 in
               zip(splitting_table(group, h1), splitting_table(group, h2)))


def kronecker_equivalent(group: GroupLike, h1: GroupLike,
                         h2: GroupLike) -> bool:
    """1 belongs to both splitting types or neither, at every class."""
    return _tables_agree(group, h1, h2, "kronecker")


def weakly_kronecker_equivalent(group: GroupLike, h1: GroupLike,
                                h2: GroupLike) -> bool:
    """Equal gcd of the splitting types at every class."""
    return _tables_agree(group, h1, h2, "weak_kronecker")


def ultra_coarse_equivalent(group: GroupLike, h1: GroupLike,
                            h2: GroupLike) -> bool:
    """Equal lcm of the splitting types at every class."""
    return _tables_agree(group, h1, h2, "ultra_coarse")


def numerical_set(s: SplittingType, cap: int) -> NumericalSet:
    """All sums of parts (each part usable any number of times) up to cap."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    reachable = [False] * (cap + 1)
    reachable[0] = True
    for part in set(s):
        for total in range(part, cap + 1):
            if reachable[total - part]:
                reachable[total] = True
    return NumericalSet(s, cap,
                        frozenset(i for i, ok in enumerate(reachable) if ok))


def norm_count(s: SplittingType, k: int) -> int:
    """Number of ways to write k as an ordered choice of multiplicities,
    one multiplicity per part (parts with multiplicity count as distinct
    slots), i.e. the k-th coefficient of prod_j 1/(1 - x^(f_j)).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ways = [0] * (k + 1)
    ways[0] = 1
    for part in s:
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def ultra_coarse_bound_check(s1: SplittingType, s2: SplittingType,
                             c: int, cap: int) -> int:
    """A witness d in the numerical set of s2 with |c - d| < lcm.

    One always exists when the lcms agree: multiples of the common lcm
    lie in both sets, and c is within lcm of one of them.  Ties between
    equally close witnesses go to the smaller d; d = c is returned
    whenever possible.
    """
    lam = s1.lcm()
    if s2.lcm() != lam:
        raise PreconditionViolated(
            f"lcms differ: {lam} vs {s2.lcm()}")
    if c not in numerical_set(s1, cap):
        raise PreconditionViolated(
            f"{c} is not in the numerical set of {s1!r} at cap {cap}")
    candidates = [d for d in numerical_set(s2, cap + lam).members
                  if abs(c - d) < lam]
    if not candidates:
        raise AssertionError(
            "no witness found; the guaranteed multiple-of-lcm fallback "
            "failed, which indicates a bug")
    return min(candidates, key=lambda d: (abs(c - d), d))
