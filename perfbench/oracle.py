"""Reference computations that the benchmark checks outputs against.

Nothing here imports gassmann.  Permutations are image tuples composed
right to left, (a * b)(x) = a(b(x)), the convention of the group files.
Matrices are lists of integer rows.
"""

from __future__ import annotations

from math import gcd


def compose(a: tuple, b: tuple) -> tuple:
    """a * b: apply b first, then a."""
    return tuple(a[i] for i in b)


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for point, image in enumerate(a):
        out[image] = point
    return tuple(out)


def conjugate(x: tuple, g: tuple) -> tuple:
    """g * x * g^-1."""
    out = [0] * len(x)
    for point, image in enumerate(x):
        out[g[point]] = g[image]
    return tuple(out)


def closure(gens: list[tuple], degree: int) -> set[tuple]:
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def is_perfect(elements: set[tuple], degree: int) -> bool:
    """Whether the commutators generate the whole group."""
    commutators = {compose(compose(a, b), compose(inverse(a), inverse(b)))
                   for a in elements for b in elements}
    return len(closure(sorted(commutators), degree)) == len(elements)


def conjugate_subgroups(group: set[tuple], h1_gens: list[tuple],
                        h2: set[tuple]) -> bool:
    """Direct loop over the group: is g H1 g^-1 = H2 for some g?"""
    return any(all(conjugate(x, g) in h2 for x in h1_gens) for g in group)


def cycles_text(images: tuple) -> str:
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = True
            point = images[point]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def group_file(degree: int, gens: list[tuple]) -> str:
    lines = [f"degree: {degree}"]
    lines.extend(f"gen: {cycles_text(g)}" for g in gens)
    return "\n".join(lines) + "\n"


def matrix_file(rows: list[list[int]]) -> str:
    lines = [f"size: {len(rows)}"]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def coset_actions(gens: list[tuple], h: set[tuple],
                  degree: int) -> list[tuple]:
    """Left-multiplication action of each generator on G/H.

    Cosets are numbered breadth-first from H by left multiplication
    with the generators in file order, the documented numbering of the
    program's coset spaces.
    """
    index_of: dict[frozenset, int] = {}
    reps = [tuple(range(degree))]
    index_of[frozenset(h)] = 0
    k = 0
    while k < len(reps):
        for g in gens:
            x = compose(g, reps[k])
            key = frozenset(compose(x, y) for y in h)
            if key not in index_of:
                index_of[key] = len(reps)
                reps.append(x)
        k += 1

    def locate(x: tuple) -> int:
        return index_of[frozenset(compose(x, y) for y in h)]

    return [tuple(locate(compose(g, r)) for r in reps) for g in gens]


def det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def unit_triangular_inverse(t: list[list[int]], lower: bool) -> list[list[int]]:
    """Inverse of a unit lower or upper triangular integer matrix."""
    n = len(t)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        for i in order:
            inner = range(i) if lower else range(i + 1, n)
            inv[i][col] = int(i == col) - sum(t[i][k] * inv[k][col]
                                              for k in inner)
    return inv


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def units(m: int) -> list[int]:
    return [u for u in range(m) if gcd(u, m) == 1]


def unit_closure(gens: list[int], m: int) -> set[int]:
    group = {1 % m}
    frontier = [1 % m]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g % m
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    return group
