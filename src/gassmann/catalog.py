"""Named group constructions and the standard test corpus.

Everything here returns fully enumerated permutation groups, so the
constructions stay at degrees where that is cheap.  The largest group
built by default is PSL(2,29) with 12,180 elements.
"""

from __future__ import annotations

import random
from typing import Sequence

from ._primes import is_prime
from .errors import NotFoundWithinBudget
from .lattice import IntMat, adjugate
from .permgroup import PermGroup, Permutation, Subgroup
from .triples import GassmannTriple, are_conjugate

__all__ = [
    "cyclic",
    "symmetric",
    "alternating",
    "dihedral",
    "quaternion",
    "frobenius20",
    "direct_product",
    "psl2",
    "gl3f2",
    "fano_stabilizers",
    "standard_corpus",
    "scott_triple",
]


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return PermGroup(1, [])
    rotation = Permutation([(i + 1) % n for i in range(n)])
    return PermGroup(n, [rotation])


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    if n == 1:
        return PermGroup(1, [])
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation([(i + 1) % n for i in range(n)]))
    return PermGroup(n, gens)


def alternating(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    if n < 3:
        return PermGroup(max(n, 1), [])
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return PermGroup(n, [three])
    if n % 2 == 1:
        long = Permutation([(i + 1) % n for i in range(n)])
    else:
        # an (n-1)-cycle on the points 1..n-1, which is even
        long = Permutation.from_cycles(n, [tuple(range(1, n))])
    return PermGroup(n, [three, long])


def dihedral(n: int) -> PermGroup:
    """Symmetries of the regular n-gon, order 2n, acting on n vertices."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rotation = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rotation, reflection])


def quaternion() -> PermGroup:
    """Q8 in its left regular representation on 8 points."""
    i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    return PermGroup(8, [i, j])


def frobenius20() -> PermGroup:
    """The affine group x -> ax + b over F5, order 20."""
    shift = Permutation([(i + 1) % 5 for i in range(5)])
    double = Permutation([(2 * i) % 5 for i in range(5)])
    return PermGroup(5, [shift, double])


def direct_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H acting on the disjoint union of the two point sets."""
    degree = g.degree + h.degree
    gens = []
    tail = tuple(range(g.degree, degree))
    for p in g.generators:
        gens.append(Permutation(p + tail))
    head = tuple(range(g.degree))
    for p in h.generators:
        gens.append(Permutation(head + tuple(x + g.degree for x in p)))
    return PermGroup(degree, gens)


def psl2(q: int) -> PermGroup:
    """PSL(2,q) on the projective line, degree q + 1; q an odd prime.

    Points 0..q-1 are the field elements and q is the point at
    infinity.  Generated by x -> x + 1 and x -> -1/x.
    """
    if not is_prime(q) or q < 5:
        raise ValueError("need an odd prime q >= 5")
    infinity = q
    shift = Permutation([(x + 1) % q for x in range(q)] + [infinity])
    flip_images = [infinity] + [(-pow(x, -1, q)) % q for x in range(1, q)]
    flip = Permutation(flip_images + [0])
    return PermGroup(q + 1, [shift, flip])


def _f2_mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> tuple:
    return tuple(sum(m[i][j] & v[j] for j in range(3)) & 1 for i in range(3))


def _f2_vec_mat(v: Sequence[int], m: Sequence[Sequence[int]]) -> tuple:
    return tuple(sum(v[i] & m[i][j] for i in range(3)) & 1 for j in range(3))


_FANO_VECTORS = [((k >> 2) & 1, (k >> 1) & 1, k & 1) for k in range(1, 8)]
_FANO_INDEX = {v: i for i, v in enumerate(_FANO_VECTORS)}


def gl3f2() -> PermGroup:
    """GL(3,2) of order 168 on 14 points.

    Points 0..6 are the nonzero vectors of F2^3 and points 7..13 the
    nonzero functionals; a matrix moves vectors directly and
    functionals by composition with its inverse, so incidence
    (functional vanishing on a vector) is preserved.  Each generator has
    det 1, so its inverse over F2 is its adjugate mod 2.
    """
    gens = []
    for mat in ([[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 0, 1], [1, 0, 0], [0, 1, 0]]):
        inv = [[x % 2 for x in row] for row in adjugate(IntMat(mat))]
        images = [0] * 14
        for idx, v in enumerate(_FANO_VECTORS):
            images[idx] = _FANO_INDEX[_f2_mat_vec(mat, v)]
            images[7 + idx] = 7 + _FANO_INDEX[_f2_vec_mat(v, inv)]
        gens.append(Permutation(images))
    return PermGroup(14, gens)


def fano_stabilizers() -> tuple[PermGroup, Subgroup, Subgroup]:
    """(G, H1, H2) with G = GL(3,2), H1 a point stabilizer and H2 a
    hyperplane stabilizer; the classical non-conjugate pair of index 7.
    """
    group = gl3f2()
    return group, group.point_stabilizer(0), group.point_stabilizer(7)


def standard_corpus(max_order: int = 60) -> list[tuple[str, PermGroup]]:
    """Small named groups, filtered to the requested maximum order."""
    entries = [
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("C2xC2", direct_product(cyclic(2), cyclic(2))),
        ("C5", cyclic(5)),
        ("C6", cyclic(6)),
        ("S3", symmetric(3)),
        ("D4", dihedral(4)),
        ("Q8", quaternion()),
        ("C2xC4", direct_product(cyclic(2), cyclic(4))),
        ("A4", alternating(4)),
        ("D6", dihedral(6)),
        ("F20", frobenius20()),
        ("S4", symmetric(4)),
        ("A5", alternating(5)),
        ("S5", symmetric(5)),
    ]
    return [(name, g) for name, g in entries if g.order <= max_order]


def scott_triple(*, seed: int = 0, budget: int = 200) -> GassmannTriple:
    """Two non-conjugate A5 subgroups of PSL(2,29) as a Gassmann triple.

    Random (2,3,5)-generation: a pair a, b with orders 2 and 3 whose
    product has order 5 generates a quotient of the (2,3,5) triangle
    group, hence a copy of A5.  Keeps drawing until two non-conjugate
    copies appear.  Deterministic for a fixed seed.  ValueError for a
    negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative: {budget}")
    group = psl2(29)
    # element order is a class function; the draw lists keep element order
    class_orders = [cls.element_order for cls in group.conjugacy_classes()]
    by_order: dict[int, list[Permutation]] = {2: [], 3: []}
    for g in group.elements:
        k = class_orders[group._class_index(g)]
        if k in by_order:
            by_order[k].append(g)
    rng = random.Random(seed)
    first: Subgroup | None = None
    trials = 0
    while trials < budget:
        trials += 1
        a = rng.choice(by_order[2])
        b = rng.choice(by_order[3])
        if (a * b).order() != 5:
            continue
        sub = group.subgroup([a, b])
        if sub.order != 60:
            continue
        if first is None:
            first = sub
            continue
        if sub.element_set == first.element_set:
            continue
        if not are_conjugate(group, first, sub):
            return GassmannTriple(group, first, sub)
    raise NotFoundWithinBudget(
        f"no non-conjugate pair of A5 subgroups in {trials} draws",
        trials=trials, exhausted=False)
