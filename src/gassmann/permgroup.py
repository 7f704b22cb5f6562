"""Finite permutation group engine.

Generation by full enumeration (with an order cap), conjugacy classes
as orbits on element indices, coset and double-coset actions, normal
cores, abelianizations with explicit coordinates, and the degree-one
transfer and inclusion maps.  Conjugacy tests, double cosets and the
intertwiner orbits read the cached coset tables, and an abelianization
reads its coordinates off one breadth-first walk of the group's Cayley
graph.  Neither the tables and maps nor a subgroup refer back to the
group, so no cache makes a reference cycle.

Three rules hold across the package.  A subgroup is its element set: a
`Subgroup`'s generators, hence its abelianization coordinates, follow
from its elements alone, so each table of a (group, subgroup) pair
(coset action, splitting table, transfer, inclusion) is built once by
`_per_subgroup` and kept in the group's memo keyed on the subgroup; a
`PermGroup` passed as the subgroup compares by identity and keeps its
own entry.  A value type (`AbHom`, `FinAbGroup`, and `IntMat`,
`LocalNormLattice`, `CoordSubgroup`, `NumericalSet` elsewhere) is a
frozen dataclass.  A value derived from one object is a
`functools.cached_property` of it, such as an `IntMat`'s `_det`.

Conventions: points are 0-indexed; composition is right-to-left,
(p * q)(i) = p(q(i)); coset 0 of a coset space is the subgroup itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence, Union

from ._primes import factorize
from .errors import (
    IndexMismatch,
    InvalidPermutation,
    NotASubgroup,
    OrderCapExceeded,
    ParseError,
)
from .lattice import IntMat, _square_hnf, smith_with_transforms

__all__ = [
    "DEFAULT_ORDER_CAP",
    "Permutation",
    "PermGroup",
    "Subgroup",
    "ConjugacyClass",
    "CosetSpace",
    "FinAbGroup",
    "AbHom",
    "Abelianization",
    "generate",
    "conjugacy_classes",
    "coset_action",
    "double_cosets",
    "normal_core",
    "abelianization",
    "transfer",
    "inclusion_induced",
    "parse_group_file",
    "format_group_file",
]

DEFAULT_ORDER_CAP = 50_000
# all_subgroups holds a |G| x |G| Cayley table
_LATTICE_ORDER_CAP = 1_000
# a group file's degree is allocated before any generator is read, and
# enumeration holds up to DEFAULT_ORDER_CAP tuples of that length
# (about 60 MB at this cap, 400 MB at degree 1,000)
_DEGREE_CAP = 100


class Permutation(tuple):
    """Permutation of {0, ..., degree-1}: the tuple of its images,
    checked to be a bijection.  Equality, hashing, ordering and
    immutability are the tuple's own, so a permutation equals, and
    hashes as, the plain tuple of its images.

    >>> a = Permutation.parse(3, "(0 1 2)")
    >>> b = Permutation.parse(3, "(0 1)")
    >>> (a * b).format()
    '(0 2)'
    >>> a == (1, 2, 0)
    True
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        self = tuple.__new__(cls, images)
        seen = [False] * len(self)
        for value in self:
            if not isinstance(value, int) or not 0 <= value < len(self):
                raise InvalidPermutation(
                    f"image {value!r} out of range for degree {len(self)}")
            if seen[value]:
                raise InvalidPermutation(f"repeated image {value}")
            seen[value] = True
        return self

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int,
                    cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        touched = set()
        for cycle in cycles:
            for point in cycle:
                if not isinstance(point, int) or not 0 <= point < degree:
                    raise InvalidPermutation(
                        f"point {point!r} out of range for degree {degree}")
                if point in touched:
                    raise InvalidPermutation(
                        f"point {point} appears in two cycles")
                touched.add(point)
            for pos, point in enumerate(cycle):
                images[point] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(0 1 2)(3 4)" or "()"."""
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(degree)
        cycles: list[list[int]] = []
        rest = body
        while rest:
            if not rest.startswith("("):
                raise InvalidPermutation(f"expected '(' in {text!r}")
            end = rest.find(")")
            if end < 0:
                raise InvalidPermutation(f"unbalanced parentheses in {text!r}")
            inner = rest[1:end].replace(",", " ")
            points = []
            for token in inner.split():
                try:
                    points.append(int(token))
                except ValueError:
                    raise InvalidPermutation(
                        f"bad point {token!r} in {text!r}") from None
            if points:
                cycles.append(points)
            rest = rest[end + 1:].strip()
        return cls.from_cycles(degree, cycles)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise InvalidPermutation("degree mismatch in composition")
        # below degree 2 the only permutation is the identity, and
        # itemgetter of fewer than two indices returns no tuple
        return tuple.__new__(Permutation, itemgetter(*other)(self)
                             if len(other) > 1 else self)

    def inverse(self) -> "Permutation":
        inverse_images = [0] * len(self)
        for point, image in enumerate(self):
            inverse_images[image] = point
        return tuple.__new__(Permutation, inverse_images)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g * self * g^-1, which takes g(p) to g(self(p)): one gather of
        the images, then one scatter."""
        if len(self) != len(g):
            raise InvalidPermutation("degree mismatch in conjugation")
        if len(g) < 2:
            return self  # the identity is the only permutation
        images = [0] * len(g)
        for point, image in zip(g, itemgetter(*self)(g)):
            images[point] = image
        return tuple.__new__(Permutation, images)

    def __pow__(self, exponent: int) -> "Permutation":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Permutation.identity(self.degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def is_identity(self) -> bool:
        return all(image == point for point, image in enumerate(self))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            point = self[start]
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = self[point]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, sorted ascending."""
        lengths = [len(c) for c in self.cycles()]
        lengths.extend([1] * (self.degree - sum(lengths)))
        return tuple(sorted(lengths))

    def order(self) -> int:
        result = 1
        for cycle in self.cycles():
            result = lcm(result, len(cycle))
        return result

    def format(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")"
                       for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.parse({self.degree}, {self.format()!r})"


def _closure(degree: int, generators: Sequence[Permutation],
             cap: int) -> list[Permutation]:
    """BFS closure; deterministic order with the identity first."""
    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity}
    frontier = 0
    while frontier < len(elements):
        current = elements[frontier]
        frontier += 1
        for g in generators:
            candidate = current * g
            if candidate not in seen:
                seen.add(candidate)
                elements.append(candidate)
                if len(elements) > cap:
                    raise OrderCapExceeded(
                        f"group order exceeds cap {cap}")
    return elements


def _reduce_generators(elements: Sequence[Permutation],
                       degree: int) -> tuple[Permutation, ...]:
    """Greedy small generating set for an already-closed element list."""
    gens: list[Permutation] = []
    have = {Permutation.identity(degree)}
    for candidate in elements:
        if candidate in have:
            continue
        gens.append(candidate)
        have = set(_closure(degree, gens, cap=len(elements)))
        if len(have) == len(elements):
            break
    return tuple(gens)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    members: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def element_order(self) -> int:
        return self.representative.order()


class _GroupBase:
    """Shared behavior for PermGroup and Subgroup (both "group-likes")."""

    degree: int
    generators: tuple
    elements: tuple
    element_set: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self.element_set

    @cached_property
    def _memo(self) -> dict:
        """(kind, subgroup) -> "cosets": CosetSpace; "splitting": tuple
        of SplittingType, one per class; "transfer", "inclusion": AbHom;
        filled by `_per_subgroup`, under which equal subgroups share."""
        return {}

    @cached_property
    def _element_index(self) -> dict[Permutation, int]:
        """Position of each element in `elements`."""
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def _class_map(self) -> tuple[tuple[ConjugacyClass, ...], list[int]]:
        """(the classes, the class number of each element index): the
        orbits of conjugation by the generators on element indices,
        numbered and represented by their least index; the members are
        the group's own elements."""
        index = self._element_index
        class_number, count = _orbits(
            [[index[x.conjugate(g)] for x in self.elements]
             for g in self.generators], self.order)
        members: list[list[Permutation]] = [[] for _ in range(count)]
        for x, number in zip(self.elements, class_number):
            members[number].append(x)
        return (tuple(ConjugacyClass(m[0], frozenset(m)) for m in members),
                class_number)

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """The classes, in the order of their least element index."""
        return self._class_map[0]

    def _class_index(self, perm: Permutation) -> int:
        """Position of the element's class in conjugacy_classes()."""
        try:
            return self._class_map[1][self._element_index[perm]]
        except KeyError:
            raise ValueError(
                f"{perm!r} is not an element of this group") from None

    def class_of(self, perm: Permutation) -> ConjugacyClass:
        return self.conjugacy_classes()[self._class_index(perm)]

    def subgroup(self, generators: Iterable[Permutation]) -> "Subgroup":
        gens = tuple(generators)
        for g in gens:
            if g not in self.element_set:
                raise NotASubgroup(
                    f"generator {g.format()} lies outside the group")
        return Subgroup(self, _closure(self.degree, gens, cap=self.order))

    def subgroup_from_elements(
            self, elements: Iterable[Permutation]) -> "Subgroup":
        elems = sorted(set(elements))
        if not elems:
            raise NotASubgroup("a subgroup needs at least the identity")
        element_set = set(elems)
        if not element_set <= self.element_set:
            raise NotASubgroup("elements lie outside the group")
        for a in elems:
            for b in elems:
                if a * b not in element_set:
                    raise NotASubgroup(
                        f"set not closed: {(a * b).format()} missing")
        return Subgroup(self, elems)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [Permutation.identity(self.degree)])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.elements)

    def point_stabilizer(self, point: int) -> "Subgroup":
        return Subgroup(self, [g for g in self.elements
                               if g[point] == point])

    def is_normal_subgroup(self, sub: "Subgroup") -> bool:
        _require_subgroup(self, sub)
        return all(h.conjugate(g) in sub.element_set
                   for g in self.generators for h in sub.generators)

    def all_subgroups(self) -> tuple["Subgroup", ...]:
        return self._subgroup_lattice

    @cached_property
    def _subgroup_lattice(self) -> tuple["Subgroup", ...]:
        """Every subgroup, by joins <S, x> for each subgroup S found and
        one x per right coset Sx, on a Cayley table of |G|^2 entries
        (hence the order cap)."""
        if self.order > _LATTICE_ORDER_CAP:
            raise OrderCapExceeded(
                f"subgroup lattice needs group order at most "
                f"{_LATTICE_ORDER_CAP}, got {self.order}")
        index = self._element_index
        table = [[index[a * b] for b in self.elements]
                 for a in self.elements]
        trivial = self.trivial_subgroup()
        key = bytes([1]) + bytes(self.order - 1)  # membership by index
        found = {key: trivial}
        worklist: list[tuple[bytes, list[int]]] = [(key, [])]
        while worklist:  # each S with the indices of its join generators
            key, gens = worklist.pop()
            members = [i for i, inside in enumerate(key) if inside]
            tried = bytearray(key)
            for x in range(self.order):
                if tried[x]:
                    continue
                for s in members:  # <S, sx> = <S, x>
                    tried[table[s][x]] = 1
                joined = _join(table, members, key, gens + [x])
                if joined not in found:
                    found[joined] = Subgroup(
                        self, [g for g, inside in zip(self.elements,
                                                      joined) if inside])
                    worklist.append((joined, gens + [x]))
        return tuple(sorted(found.values(),
                            key=lambda s: (s.order, s.elements)))

    @cached_property
    def _abelianization(self) -> "Abelianization":
        return Abelianization(self)


def _join(table: list[list[int]], members: list[int], key: bytes,
          steps: list[int]) -> bytes:
    """Membership bytes of <S, steps>, where S has the given member
    indices and membership bytes and `steps` includes its generators.
    Dimino: grow from S by right cosets S*r, one per new product r*g."""
    joined = bytearray(key)
    reps = [0]  # the identity's index
    for r in reps:  # grows while it is walked
        for g in steps:
            rg = table[r][g]
            if not joined[rg]:
                reps.append(rg)
                for s in members:
                    joined[table[s][rg]] = 1
    return bytes(joined)


class PermGroup(_GroupBase):
    """Group generated by permutations, fully enumerated at construction;
    more than DEFAULT_ORDER_CAP elements raise OrderCapExceeded."""

    def __init__(self, degree: int,
                 generators: Iterable[Permutation]) -> None:
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise InvalidPermutation(f"not a permutation: {g!r}")
            if g.degree != degree:
                raise InvalidPermutation(
                    f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        self.elements = tuple(_closure(degree, self.generators,
                                       DEFAULT_ORDER_CAP))
        self.element_set = frozenset(self.elements)

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self.order}, "
                f"generators={[g.format() for g in self.generators]})")


class Subgroup(_GroupBase):
    """Subgroup of the group `parent`, which may itself be a Subgroup.
    It is its element set: it compares and hashes by it, and its
    generators, found from it when first read, fix its abelianization
    coordinates, so equal subgroups share each `_per_subgroup` table.
    Only its index in `parent` is kept, not `parent`."""

    def __init__(self, parent: _GroupBase,
                 elements: Iterable[Permutation]) -> None:
        self.degree = parent.degree
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)
        if not self.element_set <= parent.element_set:
            raise NotASubgroup("subgroup elements lie outside the parent")
        self.index = parent.order // self.order

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        return _reduce_generators(self.elements, self.degree)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup)
                and self.degree == other.degree
                and self.element_set == other.element_set)

    def __hash__(self) -> int:
        return hash(self.element_set)

    def __repr__(self) -> str:
        return (f"Subgroup(order={self.order}, index={self.index}, "
                f"generators={[g.format() for g in self.generators]})")


GroupLike = Union[PermGroup, Subgroup]


def _require_subgroup(group: GroupLike, sub: GroupLike) -> None:
    if group.degree != getattr(sub, "degree", None):
        raise NotASubgroup("degree mismatch")
    if not sub.element_set <= group.element_set:
        raise NotASubgroup("claimed subgroup is not contained in the group")


def _require_equal_index(group: GroupLike, h1: GroupLike,
                         h2: GroupLike) -> None:
    _require_subgroup(group, h1)
    _require_subgroup(group, h2)
    if h1.order != h2.order:
        raise IndexMismatch(
            f"indices differ: {group.order // h1.order} vs "
            f"{group.order // h2.order}")


def generate(degree: int, generators: Iterable[Permutation]) -> PermGroup:
    """Closure of the generators as a PermGroup; order is exact."""
    return PermGroup(degree, generators)


def conjugacy_classes(group: GroupLike) -> tuple[ConjugacyClass, ...]:
    return group.conjugacy_classes()


class CosetSpace:
    """Left cosets gH with the action of the group by left multiplication.

    Coset 0 is H itself; representatives are in breadth-first order from
    the identity, so the transversal is canonical.  A table maps each
    element's index in the group to its coset, filled a whole coset xH
    at a time: |G| products in all, and a lookup is two indexings.  The
    representatives are the group's own element objects, so a cached
    space adds no copies of them.
    """

    def __init__(self, group: GroupLike, subgroup: GroupLike) -> None:
        _require_subgroup(group, subgroup)
        sub_elements = subgroup.elements
        elements = group.elements
        index = self._index = group._element_index
        coset_of = [-1] * group.order
        for h in sub_elements:
            coset_of[index[h]] = 0
        reps = [group.identity]
        for current in reps:  # grows while it is walked
            for g in group.generators:
                candidate = g * current
                i = index[candidate]
                if coset_of[i] < 0:
                    for h in sub_elements:
                        coset_of[index[candidate * h]] = len(reps)
                    reps.append(elements[i])
        self.coset_reps = tuple(reps)
        self._coset_of = coset_of

    @property
    def index(self) -> int:
        return len(self.coset_reps)

    def coset_index_of(self, x: Permutation) -> int:
        """KeyError for an element outside the group."""
        return self._coset_of[self._index[x]]

    def permutation_of(self, g: Permutation) -> Permutation:
        """The permutation of coset indices induced by left multiplication."""
        return Permutation(self.coset_index_of(g * rep)
                           for rep in self.coset_reps)

    def h_components(self, g: Permutation) -> list[Permutation]:
        """For each coset i: the H-part of g, i.e. reps[g.i]^-1 * g * reps[i]."""
        out = []
        for rep in self.coset_reps:
            moved = g * rep
            target = self.coset_reps[self.coset_index_of(moved)]
            out.append(target.inverse() * moved)
        return out


def _per_subgroup(group: GroupLike, kind: str, subgroup: GroupLike,
                  build):
    """The group's `kind` table for the subgroup: build(group, subgroup),
    run once per subgroup and kept in the group's memo keyed on it.  A
    `Subgroup`'s element set fixes its coordinates, so equal ones share
    the entry; a `PermGroup` compares by identity and keeps its own (as
    its own subgroup, the one key that refers back to the group)."""
    key = (kind, subgroup)
    table = group._memo.get(key)
    if table is None:
        _require_subgroup(group, subgroup)
        table = group._memo[key] = build(group, subgroup)
    return table


def coset_action(group: GroupLike, subgroup: GroupLike) -> CosetSpace:
    """Action on G/H; its kernel is the normal core of H.  Built once per
    subgroup and kept on the group (`_per_subgroup`)."""
    return _per_subgroup(group, "cosets", subgroup, CosetSpace)


def _orbits(moves: Sequence[Sequence[int]],
            n: int) -> tuple[list[int], int]:
    """Orbits on range(n) of the group generated by the permutations
    `moves` (image sequences): (orbit number of each point, number of
    orbits), with the orbits numbered in order of their least points."""
    orbit = [-1] * n
    count = 0
    for start in range(n):
        if orbit[start] >= 0:
            continue
        orbit[start] = count
        stack = [start]
        while stack:
            point = stack.pop()
            for move in moves:
                image = move[point]
                if orbit[image] < 0:
                    orbit[image] = count
                    stack.append(image)
        count += 1
    return orbit, count


def double_cosets(group: GroupLike, h1: GroupLike,
                  h2: GroupLike) -> list[Permutation]:
    """Representatives of H1\\G/H2 in first-seen element order: the
    orbits of H1 on the cached table of G/H2."""
    _require_subgroup(group, h1)
    cosets = coset_action(group, h2)
    orbit, count = _orbits(
        [cosets.permutation_of(h) for h in h1.generators], cosets.index)
    seen = [False] * count
    reps = []
    # the table lists the coset of each element in element order
    for x, coset in zip(group.elements, cosets._coset_of):
        if not seen[orbit[coset]]:
            seen[orbit[coset]] = True
            reps.append(x)
    return reps


def normal_core(group: GroupLike, subgroup: GroupLike) -> Subgroup:
    """Largest normal subgroup of the group inside the subgroup.

    An element lies in the core iff its whole conjugacy class does.
    """
    _require_subgroup(group, subgroup)
    keep = [cls.members for cls in group.conjugacy_classes()
            if cls.members <= subgroup.element_set]
    return Subgroup(group, [x for members in keep for x in members])


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    >>> FinAbGroup.from_cyclic_orders([2, 3])
    FinAbGroup(free_rank=0, invariant_factors=(6,))
    >>> str(FinAbGroup(1, (2,)))
    'Z x Z/2'
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        previous = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if previous is not None and d % previous:
                raise ValueError(
                    f"broken divisibility chain: {previous} does not "
                    f"divide {d}")
            previous = d

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int],
                           free_rank: int = 0) -> "FinAbGroup":
        """Normalize a direct sum of cyclic groups of the given orders."""
        per_prime: dict[int, list[int]] = {}
        for order in orders:
            if order < 1:
                raise ValueError(f"cyclic order {order} < 1")
            for p, e in factorize(order).items():
                per_prime.setdefault(p, []).append(e)
        width = max((len(v) for v in per_prime.values()), default=0)
        slots = [1] * width
        for p, exponents in per_prime.items():
            for position, e in enumerate(sorted(exponents, reverse=True)):
                slots[position] *= p ** e
        return cls(free_rank, tuple(reversed(slots)))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def torsion_order(self) -> int:
        result = 1
        for d in self.invariant_factors:
            result *= d
        return result

    def tensor_mod(self, k: int) -> "FinAbGroup":
        """Tensor with Z/k: each Z/d becomes Z/gcd(d,k), each Z becomes Z/k."""
        if k < 1:
            raise ValueError("modulus must be positive")
        orders = [gcd(d, k) for d in self.invariant_factors]
        orders.extend([k] * self.free_rank)
        return FinAbGroup.from_cyclic_orders(o for o in orders if o > 1)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True, repr=False)
class AbHom:
    """Homomorphism between finite abelian groups in invariant-factor
    coordinates; entries of row r are stored reduced mod the r-th target
    factor, so equal maps compare equal.
    """

    source_factors: Sequence[int]
    target_factors: Sequence[int]
    entries: Sequence[Sequence[int]]

    def __post_init__(self) -> None:
        src = tuple(self.source_factors)
        tgt = tuple(self.target_factors)
        rows = [tuple(row) for row in self.entries]
        if len(rows) != len(tgt) or any(len(r) != len(src) for r in rows):
            raise ValueError("entry shape does not match the factor lists")
        normalized = tuple(tuple(entry % tgt[r] for entry in row)
                           for r, row in enumerate(rows))
        for r, row in enumerate(normalized):
            for c, entry in enumerate(row):
                if (src[c] * entry) % tgt[r]:
                    raise ValueError(
                        "not a homomorphism: order of source basis vector "
                        f"{c} does not kill entry at ({r}, {c})")
        object.__setattr__(self, "source_factors", src)
        object.__setattr__(self, "target_factors", tgt)
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def scalar(cls, factors: Sequence[int], c: int) -> "AbHom":
        n = len(factors)
        return cls(factors, factors,
                   [[c if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, source_factors: Sequence[int],
                     target_factors: Sequence[int],
                     columns: Sequence[Sequence[int]]) -> "AbHom":
        rows = [[col[r] for col in columns]
                for r in range(len(target_factors))]
        return cls(source_factors, target_factors, rows)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != len(self.source_factors):
            raise ValueError("vector length mismatch")
        return tuple(
            sum(entry * x for entry, x in zip(row, vector)) % d
            for row, d in zip(self.entries, self.target_factors))

    def compose(self, inner: "AbHom") -> "AbHom":
        """self after inner."""
        if inner.target_factors != self.source_factors:
            raise ValueError("composition factor mismatch")
        columns = [self.apply(inner.column(j))
                   for j in range(len(inner.source_factors))]
        return AbHom.from_columns(inner.source_factors, self.target_factors,
                                  columns)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def tensor_mod(self, k: int) -> "AbHom":
        """The induced map after tensoring source and target with Z/k."""
        keep_src = [j for j, d in enumerate(self.source_factors)
                    if gcd(d, k) > 1]
        keep_tgt = [r for r, d in enumerate(self.target_factors)
                    if gcd(d, k) > 1]
        return AbHom(
            [gcd(self.source_factors[j], k) for j in keep_src],
            [gcd(self.target_factors[r], k) for r in keep_tgt],
            [[self.entries[r][j] for j in keep_src] for r in keep_tgt])

    def __repr__(self) -> str:
        return (f"AbHom({list(self.source_factors)} -> "
                f"{list(self.target_factors)}, "
                f"{[list(r) for r in self.entries]})")


class Abelianization:
    """G/[G,G] with explicit coordinates.

    Carries the canonical structure as a FinAbGroup, a projection taking a
    group element to its coordinate vector, and for each invariant-factor
    slot a representative element projecting to that basis vector.  One
    breadth-first walk of the Cayley graph finds them (Schreier's lemma):
    a tree edge gives an element its word, an exponent vector over the
    generators, and every other edge x -> xg the relation
    word(x) + e_g - word(xg).  The relations span the relation lattice
    of G/[G,G]; its square HNF basis goes through one Smith form
    U @ B @ V = D, an element's coordinates are U @ word mod the
    invariant factors, and the representative of slot i is the first
    element of the walk with coordinates e_i.
    """

    def __init__(self, group: GroupLike) -> None:
        gens = list(dict.fromkeys(group.generators))  # none is the identity
        index = self._index = group._element_index
        k = len(gens)
        walk = [0]  # the identity's index
        words: list[tuple[int, ...] | None] = [(0,) * k] + \
            [None] * (group.order - 1)
        relations: set[tuple[int, ...]] = set()  # the HNF is canonical
        for x in walk:  # grows while it is walked
            element, word = group.elements[x], words[x]
            for t, g in enumerate(gens):
                y = index[element * g]
                stepped = word[:t] + (word[t] + 1,) + word[t + 1:]
                if words[y] is None:
                    words[y] = stepped
                    walk.append(y)
                elif stepped != words[y]:
                    relations.add(tuple(
                        a - b for a, b in zip(stepped, words[y])))

        if k:
            diag, u, _ = smith_with_transforms(_square_hnf(IntMat(
                [[rel[r] for rel in relations] for r in range(k)])))
            kept = [(u.row(i), diag[i, i]) for i in range(k)
                    if diag[i, i] > 1]
        else:
            kept = []
        self.structure = FinAbGroup(0, tuple(d for _, d in kept))
        self._coords = [tuple(sum(r * w for r, w in zip(row, word)) % d
                              for row, d in kept) for word in words]
        first: dict[tuple[int, ...], Permutation] = {}
        for x in walk:
            first.setdefault(self._coords[x], group.elements[x])
        if len(first) != self.structure.torsion_order():
            raise AssertionError("coordinates do not fill the invariant "
                                 "factors")
        self.basis_reps = tuple(
            first[tuple(int(i == j) for j in range(len(kept)))]
            for i in range(len(kept)))

    @property
    def factors(self) -> tuple[int, ...]:
        return self.structure.invariant_factors

    def project(self, element: Permutation) -> tuple[int, ...]:
        """Coordinates of the element's class, one entry per factor."""
        try:
            return self._coords[self._index[element]]
        except KeyError:
            raise ValueError("element lies outside the group") from None

    def derived_subgroup_order(self) -> int:
        return len(self._coords) // self.structure.torsion_order()

    def __repr__(self) -> str:
        return f"Abelianization({self.structure})"


def abelianization(group: GroupLike) -> Abelianization:
    """G/[G,G] with invariant factors, projection, and basis lifts; cached."""
    return group._abelianization


def transfer(group: GroupLike, subgroup: GroupLike) -> AbHom:
    """Matrix of the transfer map H1(G) -> H1(H) over the canonical
    transversal: g goes to the product of its H-components on the cosets.
    Built once per subgroup and kept on the group (`_per_subgroup`).
    """
    return _per_subgroup(group, "transfer", subgroup, _transfer)


def _transfer(group: GroupLike, subgroup: GroupLike) -> AbHom:
    ab_g, ab_h = abelianization(group), abelianization(subgroup)
    cosets = coset_action(group, subgroup)
    columns = []
    for rep in ab_g.basis_reps:
        product = group.identity
        for component in cosets.h_components(rep):
            product = product * component
        columns.append(ab_h.project(product))
    return AbHom.from_columns(ab_g.factors, ab_h.factors, columns)


def inclusion_induced(subgroup: GroupLike, group: GroupLike) -> AbHom:
    """Matrix of the map H1(H) -> H1(G) sending a class to its class;
    kept on the group like transfer."""
    return _per_subgroup(group, "inclusion", subgroup, _inclusion)


def _inclusion(group: GroupLike, subgroup: GroupLike) -> AbHom:
    ab_g, ab_h = abelianization(group), abelianization(subgroup)
    columns = [ab_g.project(rep) for rep in ab_h.basis_reps]
    return AbHom.from_columns(ab_h.factors, ab_g.factors, columns)


def parse_group_file(text: str, *, path: str | None = None) -> PermGroup:
    """Parse the group file format: `degree: N`, then `gen: <cycles>` lines."""
    degree: int | None = None
    generators: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("degree:"):
            if degree is not None:
                raise ParseError("duplicate degree line",
                                 line=lineno, path=path)
            body = line[len("degree:"):].strip()
            try:
                degree = int(body)
            except ValueError:
                raise ParseError(f"bad degree {body!r}",
                                 line=lineno, path=path) from None
            if not 0 < degree <= _DEGREE_CAP:
                raise ParseError(f"degree must be 1 to {_DEGREE_CAP}",
                                 line=lineno, path=path)
        elif line.startswith("gen:"):
            if degree is None:
                raise ParseError("gen line before degree line",
                                 line=lineno, path=path)
            body = line[len("gen:"):].strip()
            try:
                generators.append(Permutation.parse(degree, body))
            except InvalidPermutation as exc:
                raise ParseError(str(exc), line=lineno, path=path) from None
        else:
            raise ParseError(f"unrecognized line {line!r}",
                             line=lineno, path=path)
    if degree is None:
        raise ParseError("missing `degree: N` line", path=path)
    return PermGroup(degree, generators)


def format_group_file(group: GroupLike) -> str:
    lines = [f"degree: {group.degree}"]
    generators = group.generators or (group.identity,)
    lines.extend(f"gen: {g.format()}" for g in generators)
    return "\n".join(lines) + "\n"
