"""Finite permutation group engine.

Generation by full enumeration (with an order cap) that keeps the
Cayley graph of the generators as integer tables, conjugacy classes as
orbits on element indices walked off those tables, coset and
double-coset actions, normal cores, abelianizations with explicit
coordinates, and the degree-one transfer and inclusion maps.
Conjugacy tests, double cosets, the intertwiner orbits and the transfer
(each H-part at its place) read the cached coset tables.  The coset
tables and their walk's tree, the classes, the subgroup lattice (one
subgroup extended per class, the class its orbit under the generators'
conjugations) and the abelianization walk the one Cayley graph of a
group, with no products: its closure, or a subgroup's last closure
while finding its generators, kept once they are read.  Neither the
tables and maps nor a subgroup refer back to the group, so no cache
makes a reference cycle.

Three rules hold across the package.  A subgroup is its element set: a
`Subgroup`'s generators, hence its abelianization coordinates, follow
from its elements alone, so each table of a (group, subgroup) pair
(coset action, splitting table, transfer, inclusion, normal core) is
built once by `_memoized` and kept in the group's memo keyed on
the subgroup; a `PermGroup` passed as the subgroup compares by identity
and keeps its own entry.  A value type (`AbHom`, `FinAbGroup`, and `IntMat`,
`LocalNormLattice`, `CoordSubgroup`, `NumericalSet` elsewhere) is a
frozen dataclass.  A value derived from one object is a
`functools.cached_property` of it, such as an `IntMat`'s `_det` and
`_elimination` (one Bareiss loop, run forward or to the end) and its
`_hnf`.

Conventions: points are 0-indexed; composition is right-to-left,
(p * q)(i) = p(q(i)); coset 0 of a coset space is the subgroup itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    IndexMismatch,
    InvalidPermutation,
    NotASubgroup,
    OrderCapExceeded,
    ParseError,
    parse_int,
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
# all_subgroups holds a |G| x |G| Cayley table of left multiples
_LATTICE_ORDER_CAP = 1_000
# a group's closure keys each element on the bytes of its images, so a
# degree must stay below 256; a group file's degree is allocated before
# any generator is read, and enumeration holds up to DEFAULT_ORDER_CAP
# tuples of that length (about 60 MB at this cap, 400 MB at degree 1,000)
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
                    points.append(parse_int(token))
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
                continue
            cycle, point = [start], self[start]
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
        return lcm(*map(len, self.cycles()))

    def format(self) -> str:
        return "".join("(" + " ".join(str(p) for p in c) + ")"
                       for c in self.cycles()) or "()"

    def __repr__(self) -> str:
        return f"Permutation.parse({self.degree}, {self.format()!r})"


def _closure(degree: int, generators: Sequence[Permutation],
             cap: int) -> "_CayleyGraph":
    """BFS closure; deterministic order with the identity first.  The
    |G|·k products it forms are kept as the generators' Cayley graph.
    The search keys each element on the bytes of its images (a degree
    is at most _DEGREE_CAP), so e·g is g's bytes translated through
    e's, one C call; the Permutations are built once, at the end."""
    moves = [bytes(g) for g in generators]
    keys = [bytes(range(degree))]
    index = {keys[0]: 0}
    right: list[list[int]] = [[] for _ in generators]
    parent: list[int] = []
    via: list[int] = []
    for f, current in enumerate(keys):  # grows while it is walked
        table = current.ljust(256, b"\0")
        for k, g in enumerate(moves):
            candidate = g.translate(table)
            j = index.get(candidate)
            if j is None:
                j = index[candidate] = len(keys)
                keys.append(candidate)
                parent.append(f)
                via.append(k)
                if len(keys) > cap:
                    raise OrderCapExceeded(
                        f"group order exceeds cap {cap}")
            right[k].append(j)
    # the bytes dict goes first, and each key's bytes as its tuple is made,
    # so that the tuples reuse that memory and the peak is theirs alone
    del index
    for i, key in enumerate(keys):
        keys[i] = tuple.__new__(Permutation, key)
    elements = tuple(keys)
    return _CayleyGraph(tuple(generators), elements,
                        dict(zip(elements, range(len(elements)))), right,
                        parent, via)


@dataclass(frozen=True, eq=False)
class _CayleyGraph:
    """A closure's result as integer tables: `elements` in breadth-first
    order, `index` mapping each element to its position, `right[k][i]`
    the index of elements[i] * generators[k], and for each element
    j > 0 its tree edge, elements[j] = elements[parent[j - 1]] *
    generators[via[j - 1]].  Conjugation walks them with no products."""

    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]
    index: dict[Permutation, int]
    right: list[list[int]]
    parent: list[int]
    via: list[int]

    def __len__(self) -> int:
        return len(self.elements)

    def left_multiples(self, i: int) -> list[int]:
        """index(elements[i] * x) for each element x: left[0] = i, and
        left[j] = right[via][left[parent]] along the tree."""
        right, left = self.right, [i]
        for p, k in zip(self.parent, self.via):
            left.append(right[k][left[p]])
        return left

    @cached_property
    def lefts(self) -> list[list[int]]:
        """Each generator's left multiples, walked once per graph."""
        return [self.left_multiples(self.index[g]) for g in self.generators]

    def conjugations(self) -> list[list[int]]:
        """For each generator g, x -> g^-1 x g on element indices: the
        left multiples of g^-1, then right multiplication by g."""
        return [list(map(right_g.__getitem__,
                         self.left_multiples(self.index[g.inverse()])))
                for g, right_g in zip(self.generators, self.right)]


def _reduce_generators(elements: Sequence[Permutation],
                       degree: int) -> _CayleyGraph:
    """Greedy small generating set for an already-closed element list,
    as the Cayley graph of its last closure."""
    graph = _closure(degree, (), cap=1)
    for candidate in elements:
        if len(graph) == len(elements):
            break
        if candidate not in graph.index:
            graph = _closure(degree, graph.generators + (candidate,),
                             cap=len(elements))
    return graph


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
    _cayley_graph: "_CayleyGraph"

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
        """(kind, key) -> value, filled by `_memoized`.  Keyed on a
        subgroup, where equal subgroups share:
        "cosets": CosetSpace; "splitting": tuple of SplittingType, one
        per class; "transfer", "inclusion": AbHom; "core": the normal
        core, a Subgroup.  Homology's kinds ("index", "lift", "image",
        "label") are described at their builders in `gassmann.homology`."""
        return {}

    @cached_property
    def _element_index(self) -> dict[Permutation, int]:
        """Position of each element in `elements`; a `PermGroup` takes
        it from its closure."""
        return {g: i for i, g in enumerate(self.elements)}

    @cached_property
    def _class_map(self) -> tuple[tuple[ConjugacyClass, ...], list[int]]:
        """(the classes, the class number of each element index): the
        orbits of conjugation by the generators on element indices,
        numbered and represented by their least index; the members are
        the group's own elements.  Conjugation by each generator is a
        walk of the generators' Cayley-graph tables, with no permutation
        products.  A `PermGroup`'s elements are in the graph's
        breadth-first order already; a `Subgroup` relabels the walks of
        the graph its generators came from onto its sorted element
        order."""
        graph = self._cayley_graph
        moves = graph.conjugations()
        if graph.elements is not self.elements:
            to_own = list(map(self._element_index.__getitem__,
                              graph.elements))
            from_own = list(map(graph.index.__getitem__, self.elements))
            moves = [list(map(to_own.__getitem__,
                              map(move.__getitem__, from_own)))
                     for move in moves]
        class_number, count = _orbits(moves, self.order)
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
        return Subgroup(self, _closure(self.degree, gens,
                                       cap=self.order).elements)

    def subgroup_from_elements(
            self, elements: Iterable[Permutation]) -> "Subgroup":
        elems = set(elements)
        if not self.element_set.issuperset(elems):
            raise NotASubgroup("elements lie outside the group")
        subgroup = Subgroup(self, elems)
        subgroup.generators  # NotASubgroup unless the set is closed
        return subgroup

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [Permutation.identity(self.degree)])

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.elements)

    def point_stabilizer(self, point: int) -> "Subgroup":
        return Subgroup(self, [g for g in self.elements
                               if g[point] == point])

    def is_normal_subgroup(self, sub: "Subgroup") -> bool:
        return normal_core(self, sub).element_set == sub.element_set

    def all_subgroups(self) -> tuple["Subgroup", ...]:
        return tuple(self._subgroup_lattice.values())

    @cached_property
    def _subgroup_lattice(self) -> dict[frozenset, "Subgroup"]:
        """Every subgroup by its set of Cayley-graph element indices, in
        (order, elements) order.  One S per conjugacy class (Neubueser)
        is joined as <S, x> for one x per right coset Sx, on a |G|^2
        Cayley table of the graph's left multiples (hence the order cap);
        a new join's class is its key's orbit under the conjugations."""
        if self.order > _LATTICE_ORDER_CAP:
            raise OrderCapExceeded(
                f"subgroup lattice needs group order at most "
                f"{_LATTICE_ORDER_CAP}, got {self.order}")
        graph = self._cayley_graph
        table = list(map(graph.left_multiples, range(self.order)))
        moves = graph.conjugations()
        trivial = frozenset([0])  # the identity's index
        found = {trivial}
        worklist: list[tuple[frozenset, list[int]]] = [(trivial, [])]
        while worklist:  # one S per class with its join generators
            members, gens = worklist.pop()
            tried = set(members)
            for x in range(self.order):
                if x in tried:
                    continue
                tried.update(table[s][x] for s in members)  # <S, sx> = <S, x>
                joined = _join(table, members, gens + [x])
                if joined not in found:
                    found.add(joined)
                    conjugates = [joined]
                    for key in conjugates:  # grows while it is walked
                        images = {frozenset(map(move.__getitem__, key))
                                  for move in moves} - found
                        found |= images
                        conjugates += images
                    worklist.append((joined, gens + [x]))
        lattice = [(key, Subgroup(self, map(graph.elements.__getitem__, key)))
                   for key in found]
        return dict(sorted(lattice, key=lambda e: (e[1].order, e[1].elements)))

    @cached_property
    def _abelianization(self) -> "Abelianization":
        return Abelianization(self)


def _join(table: list[list[int]], members: frozenset,
          steps: list[int]) -> frozenset:
    """Element indices of <S, steps>, `steps` including S's generators.
    Dimino: grow from S by right cosets S*r, one per new product r*g."""
    joined = set(members)
    reps = [0]  # the identity's index
    for r in reps:  # grows while it is walked
        for g in steps:
            rg = table[r][g]
            if rg not in joined:
                reps.append(rg)
                joined.update(table[s][rg] for s in members)
    return frozenset(joined)


class PermGroup(_GroupBase):
    """Group generated by permutations, fully enumerated at construction;
    more than DEFAULT_ORDER_CAP elements raise OrderCapExceeded, and a
    degree that is not an int from 1 to _DEGREE_CAP raises
    InvalidPermutation."""

    def __init__(self, degree: int,
                 generators: Iterable[Permutation]) -> None:
        if not isinstance(degree, int) or not 0 < degree <= _DEGREE_CAP:
            raise InvalidPermutation(
                f"degree {degree!r} is not an int from 1 to {_DEGREE_CAP}")
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise InvalidPermutation(f"not a permutation: {g!r}")
            if g.degree != degree:
                raise InvalidPermutation(
                    f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in gens if not g.is_identity())
        graph = self._cayley_graph = _closure(
            degree, self.generators, DEFAULT_ORDER_CAP)
        self.elements = graph.elements
        self.element_set = frozenset(self.elements)
        self._element_index = graph.index

    def __repr__(self) -> str:
        return (f"PermGroup(degree={self.degree}, order={self.order}, "
                f"generators={[g.format() for g in self.generators]})")


class Subgroup(_GroupBase):
    """Subgroup of the group `parent`, which may itself be a Subgroup.
    It is its element set: it compares and hashes by it, and its
    generators, found from it when first read, fix its abelianization
    coordinates, so equal subgroups share each `_memoized` table.
    Only its index in `parent` is kept, not `parent`.  The closure that
    found the generators is kept as its Cayley graph, which its classes
    and abelianization then read.  An element set that is not closed
    raises NotASubgroup when the generators are first read."""

    def __init__(self, parent: _GroupBase,
                 elements: Iterable[Permutation]) -> None:
        self.degree = parent.degree
        self.elements = tuple(sorted(set(elements)))
        self.element_set = frozenset(self.elements)
        if not self.elements:
            raise NotASubgroup("a subgroup needs at least the identity")
        if not self.element_set <= parent.element_set:
            raise NotASubgroup("subgroup elements lie outside the parent")
        self.index = parent.order // self.order

    @cached_property
    def _cayley_graph(self) -> _CayleyGraph:
        """Its generators' closure, on the subgroup's own element objects.
        The set is closed when the search, capped at its size, holds it."""
        try:
            graph = _reduce_generators(self.elements, self.degree)
        except OrderCapExceeded:
            graph = None
        if graph is None or not graph.index.keys() >= self.element_set:
            raise NotASubgroup(f"set not closed: its {self.order} elements "
                               f"generate a larger group")
        elements = tuple(sorted(self.elements, key=graph.index.__getitem__))
        return replace(graph, elements=elements,
                       index=dict(zip(elements, range(self.order))))

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._cayley_graph.generators

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


def _require_subgroup(group: GroupLike, *subs: GroupLike) -> None:
    for sub in subs:
        if group.degree != getattr(sub, "degree", None):
            raise NotASubgroup("degree mismatch")
        if not sub.element_set <= group.element_set:
            raise NotASubgroup(
                "claimed subgroup is not contained in the group")


def _require_equal_index(group: GroupLike, h1: GroupLike,
                         h2: GroupLike) -> None:
    _require_subgroup(group, h1, h2)
    if h1.order != h2.order:
        raise IndexMismatch(
            f"indices differ: {group.order // h1.order} vs "
            f"{group.order // h2.order}")


def conjugacy_classes(group: GroupLike) -> tuple[ConjugacyClass, ...]:
    return group.conjugacy_classes()


class CosetSpace:
    """Left cosets gH with the action of the group by left multiplication.

    Coset 0 is H itself; representatives are in breadth-first order from
    the identity, so the transversal is canonical.  Two tables map each
    element's index in the group's Cayley graph to its coset and to its
    place there, filled by walking the graph with no products: coset 0
    lists H's elements in order, identity first, and each coset goes to
    g·xH place by place through each generator g's left multiples, so
    place p of coset j holds r_j·h_p.  A lookup is two indexings.  As in
    the Cayley graph, coset j > 0 keeps its tree edge: r_j = g·r_i for
    g = generators[via[j - 1]] and i = parent[j - 1].  The
    representatives are the group's own element objects, so a cached
    space adds no copies of them.
    """

    def __init__(self, group: GroupLike, subgroup: GroupLike) -> None:
        _require_subgroup(group, subgroup)
        graph = group._cayley_graph
        index = self._index = graph.index
        cosets = [list(map(index.__getitem__, subgroup.elements))]
        coset_of, place = [-1] * len(graph), [0] * len(graph)
        for p, i in enumerate(cosets[0]):
            coset_of[i], place[i] = 0, p
        self.parent, self.via = [], []
        for c, members in enumerate(cosets):  # grows while it is walked
            for k, left in enumerate(graph.lefts):
                if coset_of[left[members[0]]] < 0:
                    image = list(map(left.__getitem__, members))
                    for p, i in enumerate(image):
                        coset_of[i], place[i] = len(cosets), p
                    cosets.append(image)
                    self.parent.append(c)
                    self.via.append(k)
        self.coset_reps = tuple(graph.elements[c[0]] for c in cosets)
        self._coset_of, self._place = coset_of, place

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


def _memoized(owner: GroupLike, kind: str, key, build):
    """The owner's `kind` value for the key: build(owner, key), run once
    per key and kept in the owner's memo under (kind, key).  A subgroup
    key is checked by the build; a key that could equal an invalid one
    (2.0 == 2) is checked by the caller before the lookup."""
    entry = (kind, key)
    value = owner._memo.get(entry)
    if value is None:
        value = owner._memo[entry] = build(owner, key)
    return value


def coset_action(group: GroupLike, subgroup: GroupLike) -> CosetSpace:
    """Action on G/H; its kernel is the normal core of H.  Built once per
    subgroup and kept on the group (`_memoized`)."""
    return _memoized(group, "cosets", subgroup, CosetSpace)


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
    orbit, _ = _orbits(
        [cosets.permutation_of(h) for h in h1.generators], cosets.index)
    first: dict[int, Permutation] = {}  # orbit -> its first element
    for x in group.elements:
        first.setdefault(orbit[cosets.coset_index_of(x)], x)
    return list(first.values())


def normal_core(group: GroupLike, subgroup: GroupLike) -> Subgroup:
    """Largest normal subgroup of the group inside the subgroup.  Built
    once per subgroup and kept on the group (`_memoized`)."""
    return _memoized(group, "core", subgroup, _normal_core)


def _normal_core(group: GroupLike, subgroup: GroupLike) -> Subgroup:
    """An element lies in the core iff its whole conjugacy class does."""
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
        """Normalize a direct sum of cyclic groups of the given orders.

        Each order merges into a chain d1 | d2 | ...: at each entry d in
        turn, Z/d + Z/order becomes Z/gcd + Z/lcm, and the rest of the
        order goes on the end.  gcd(d, order) divides d, which divides the
        next entry and the lcm carried to it, so the chain holds; its
        entries above 1 are the invariant factors, which are unique.
        """
        chain: list[int] = []
        for order in orders:
            if order < 1:
                raise ValueError(f"cyclic order {order} < 1")
            for i, d in enumerate(chain):
                chain[i], order = gcd(d, order), lcm(d, order)
            chain.append(order)
        return cls(free_rank, tuple(d for d in chain if d > 1))

    def torsion_order(self) -> int:
        return prod(self.invariant_factors)

    def tensor_mod(self, k: int) -> "FinAbGroup":
        """Tensor with Z/k: each Z/d becomes Z/gcd(d,k), each Z becomes Z/k."""
        if k < 1:
            raise ValueError("modulus must be positive")
        orders = [gcd(d, k) for d in self.invariant_factors]
        orders.extend([k] * self.free_rank)
        return FinAbGroup.from_cyclic_orders(orders)

    def __str__(self) -> str:
        rank = self.free_rank
        parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) or "0"


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
        """self after inner.  A composite of homomorphisms is one, so the
        reduced product is stored without the entry-by-entry check."""
        if inner.target_factors != self.source_factors:
            raise ValueError("composition factor mismatch")
        return AbHom._reduced(inner.source_factors, self.target_factors,
                              tuple(self._rows_after(inner)))

    def _rows_after(self, inner: "AbHom") -> Iterator[tuple[int, ...]]:
        """The rows of self after inner, one at a time, each reduced mod
        its target factor; the caller has matched the factors."""
        # with no rows, inner still has one empty column per source factor
        columns = list(zip(*inner.entries)) or \
            [()] * len(inner.source_factors)
        for row, d in zip(self.entries, self.target_factors):
            yield tuple(sum(map(mul, row, column)) % d for column in columns)

    @classmethod
    def _reduced(cls, source_factors: tuple, target_factors: tuple,
                 entries: tuple) -> "AbHom":
        """A known homomorphism, its factor tuples and tuple of rows
        reduced mod the target factors stored without the check."""
        hom = object.__new__(cls)
        object.__setattr__(hom, "source_factors", source_factors)
        object.__setattr__(hom, "target_factors", target_factors)
        object.__setattr__(hom, "entries", entries)
        return hom

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def tensor_mod(self, k: int) -> "AbHom":
        """The induced map after tensoring source and target with Z/k."""
        if k < 1:
            raise ValueError("modulus must be positive")
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
    slot a representative element projecting to that basis vector.  The
    group's Cayley graph gives them with no products (Schreier's lemma):
    a tree edge gives an element its word, an exponent vector over the
    distinct generators, and every edge x -> xg the relation
    word(x) + e_g - word(xg).  The relations span the relation lattice
    of G/[G,G]; its square HNF basis goes through one Smith form
    U @ B @ V = D, an element's coordinates are U @ word mod the
    invariant factors, and the representative of slot i is the first
    element of the graph with coordinates e_i.
    """

    def __init__(self, group: GroupLike) -> None:
        graph = group._cayley_graph
        self._index = graph.index
        # a repeated generator takes the slot of its first occurrence
        first: dict[Permutation, int] = {}
        slots = [first.setdefault(g, len(first)) for g in graph.generators]
        k = len(first)
        words = [(0,) * k]
        for p, t in zip(graph.parent, graph.via):
            word, s = words[p], slots[t]
            words.append(word[:s] + (word[s] + 1,) + word[s + 1:])
        relations: set[tuple[int, ...]] = set()  # the HNF is canonical
        for s, row in zip(slots, graph.right):
            for word, y in zip(words, row):
                stepped = word[:s] + (word[s] + 1,) + word[s + 1:]
                if stepped != words[y]:
                    relations.add(tuple(
                        a - b for a, b in zip(stepped, words[y])))

        if k:
            diag, u, _ = smith_with_transforms(_square_hnf(IntMat(
                [[rel[r] for rel in relations] for r in range(k)])))
            kept = [(u.rows[i], diag[i, i]) for i in range(k)
                    if diag[i, i] > 1]
        else:
            kept = []
        self.structure = FinAbGroup(0, tuple(d for _, d in kept))
        self._coords = [tuple(sum(r * w for r, w in zip(row, word)) % d
                              for row, d in kept) for word in words]
        # the first element with each coordinate vector
        reps = dict(zip(reversed(self._coords), reversed(graph.elements)))
        if len(reps) != self.structure.torsion_order():
            raise AssertionError("coordinates do not fill the invariant "
                                 "factors")
        self.basis_reps = tuple(
            reps[tuple(int(i == j) for j in range(len(kept)))]
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
    transversal: g goes to the sum of the H^ab coordinates of its H-parts
    r_j^-1·g·r_i, each H's element at g·r_i's place in the coset table.
    Built once per subgroup and kept on the group (`_memoized`)."""
    return _memoized(group, "transfer", subgroup, _transfer)


def _transfer(group: GroupLike, subgroup: GroupLike) -> AbHom:
    _require_subgroup(group, subgroup)
    ab_g, ab_h = abelianization(group), abelianization(subgroup)
    cosets, graph = coset_action(group, subgroup), group._cayley_graph
    coords = [ab_h.project(h) for h in subgroup.elements]
    reps = [graph.index[r] for r in cosets.coset_reps]
    columns = []
    for g in ab_g.basis_reps:
        left = graph.left_multiples(graph.index[g])
        parts = [coords[cosets._place[left[r]]] for r in reps]
        columns.append([sum(column) for column in zip(*parts)])
    return AbHom.from_columns(ab_g.factors, ab_h.factors, columns)


def inclusion_induced(subgroup: GroupLike, group: GroupLike) -> AbHom:
    """Matrix of the map H1(H) -> H1(G) sending a class to its class;
    kept on the group like transfer."""
    return _memoized(group, "inclusion", subgroup, _inclusion)


def _inclusion(group: GroupLike, subgroup: GroupLike) -> AbHom:
    _require_subgroup(group, subgroup)
    ab_g, ab_h = abelianization(group), abelianization(subgroup)
    columns = [ab_g.project(rep) for rep in ab_h.basis_reps]
    return AbHom.from_columns(ab_h.factors, ab_g.factors, columns)


def parse_group_file(text: str, *, path: str | None = None) -> PermGroup:
    """Parse the group file format: `degree: N`, then `gen: <cycles>` lines."""
    return PermGroup(*_parse_generators(text, path=path))


def _parse_generators(
        text: str, *,
        path: str | None = None) -> tuple[int, list[Permutation]]:
    """(degree, generators) of a group file, without closing them."""
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
                degree = parse_int(body)
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
    return degree, generators


def format_group_file(group: GroupLike) -> str:
    lines = [f"degree: {group.degree}"]
    generators = group.generators or (group.identity,)
    lines.extend(f"gen: {g.format()}" for g in generators)
    return "\n".join(lines) + "\n"
