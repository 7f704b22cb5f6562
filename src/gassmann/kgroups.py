"""Odd-index K-groups of abelian number fields via the w-invariant rule.

A field is either the rationals or the subfield of a cyclotomic field
cut out by a unit subgroup mod the conductor; both make the Galois
groups of cyclotomic layers exactly computable inside (Z/M)^x.  The
structure of K_n for odd n >= 3 then follows a four-case rule on n mod 8
driven by the signature and by w_i with i = (n+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod

from ._primes import is_prime, iter_primes
from .errors import (EvenIndex, NotPrime, OrderCapExceeded, ParseError,
                     UnsupportedSignature, parse_int)
from .permgroup import FinAbGroup

__all__ = [
    "FieldModel",
    "WInvariant",
    "cyclo_exponent",
    "w_invariant",
    "k_group",
    "compare_k_groups",
]


# a model enumerates its residues mod m, and closes its subgroup by
# multiplying pairs of them
_CONDUCTOR_CAP = 1_000


# cyclo_exponent refuses a layer with |H| * lcm(m, p^nu) / m over this: the
# count bounds the image's size, and p^nu by m times it
_LIFT_CAP = 1_000_000
# w_invariant refuses a walk whose primes p, summed and times |H|, pass
# this: the sum bounds how many primes, hence first layers, it walks
_WALK_CAP = 10_000_000


def _check_conductor(m: int) -> None:
    if m < 1:
        raise ValueError("conductor must be positive")
    if m > _CONDUCTOR_CAP:
        raise OrderCapExceeded(f"conductor {m} exceeds cap {_CONDUCTOR_CAP}")


def _unit_residues(m: int) -> list[int]:
    if m == 1:
        return [0]
    return [x for x in range(m) if gcd(x, m) == 1]


@dataclass(frozen=True)
class FieldModel:
    """Conductor m and the unit subgroup mod m fixing the field.

    The rationals are the degenerate case m = 1.  The subgroup is stored
    as the full element set, closed under multiplication; parsing closes
    whatever generators it is given.
    """

    conductor: int
    subgroup: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        m = self.conductor
        _check_conductor(m)
        h = set(self.subgroup)
        if not h:
            h = {1 % m}
        if not all(0 <= x < m and gcd(x, m) == 1 for x in h):
            raise ValueError(
                f"subgroup elements must be units mod {m}: {sorted(h)}")
        closed = _multiplicative_closure(h, m)
        if closed != h:
            raise ValueError(
                f"not closed under multiplication mod {m}: {sorted(h)}")
        # a closed set of units is a subgroup, so Lagrange gives that
        # its order divides phi(m)
        object.__setattr__(self, "subgroup", frozenset(h))

    @classmethod
    def rationals(cls) -> "FieldModel":
        return cls(1, frozenset({0}))

    @classmethod
    def abelian(cls, conductor: int, generators) -> "FieldModel":
        """Field fixed by the subgroup generated by the given residues."""
        _check_conductor(conductor)  # before any residue is taken mod it
        h = _multiplicative_closure(
            {g % conductor for g in generators} or {1 % conductor},
            conductor)
        return cls(conductor, frozenset(h))

    @classmethod
    def parse(cls, text: str) -> "FieldModel":
        """Accepts "Q" or "abelian:m=5;H=1,4"."""
        body = text.strip()
        if body in ("Q", "q"):
            return cls.rationals()
        if not body.startswith("abelian:"):
            raise ParseError(f"unrecognized field {text!r}")
        given: dict[str, str] = {}
        for chunk in body[len("abelian:"):].split(";"):
            chunk = chunk.strip()
            if chunk[:2] in ("m=", "H="):
                if chunk[0] in given:
                    raise ParseError(f"repeated {chunk[:2]!r} in {text!r}")
                given[chunk[0]] = chunk[2:]
            elif chunk:
                raise ParseError(f"unrecognized field component {chunk!r}")
        if "m" not in given:
            raise ParseError(f"missing conductor in {text!r}")
        try:
            conductor = parse_int(given["m"])
        except ValueError:
            raise ParseError(f"bad conductor 'm={given['m']}'") from None
        try:
            generators = [parse_int(tok)
                          for tok in given.get("H", "").split(",")
                          if tok]
        except ValueError:
            raise ParseError(f"bad subgroup 'H={given['H']}'") from None
        return cls.abelian(conductor, generators)

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    @cached_property
    def degree(self) -> int:
        return len(_unit_residues(self.conductor)) // len(self.subgroup)

    @property
    def signature(self) -> tuple[int, int]:
        """(r1, r2): totally real iff complex conjugation (-1 mod m)
        fixes the field, i.e. lies in the subgroup."""
        if (-1) % self.conductor in self.subgroup:
            return (self.degree, 0)
        return (0, self.degree // 2)

    def describe(self) -> str:
        if self.is_rational:
            return "Q"
        elems = ",".join(str(x) for x in sorted(self.subgroup))
        return f"abelian:m={self.conductor};H={elems}"


def _multiplicative_closure(elements: set, m: int) -> set:
    closed = set(elements)
    closed.add(1 % m)
    while True:
        extra = {a * b % m for a in closed for b in closed} - closed
        if not extra:
            return closed
        closed |= extra


@dataclass(frozen=True)
class WInvariant:
    """w_i as a factored integer."""

    i: int
    value: int
    factorization: tuple[tuple[int, int], ...]


def cyclo_exponent(f: FieldModel, p: int, nu: int) -> int:
    """Exponent of the Galois group of F(zeta_{p^nu}) over F.

    The group is the image in (Z/p^nu)^x of the units mod lcm(m, p^nu)
    that fix F.  With q = gcd(m, p^nu) = p^min(nu, v_p(m)), CRT makes it
    the units y mod p^nu with y mod q in C = {h mod q : h in H}: all of
    (Z/p^nu)^x when p does not divide m, the textbook case that reads no
    element of H, and otherwise |C| * p^nu / q residues.  For odd p,
    (Z/p^nu)^x is cyclic and the exponent is that size.  For p = 2 it is
    the largest order, found by repeated squaring, among the lifts c + q
    mod 2^nu: by lifting the exponent, a lift x has the larger order the
    smaller v_2(x - 1) + v_2(x + 1), and c + q minimizes that within
    every class but that of -1, whose lifts have order at most that of
    1 + q.  Over _LIFT_CAP of the |H| * lcm(m, p^nu) / m lifts of H,
    OrderCapExceeded is raised before p^nu is formed.

    >>> cyclo_exponent(FieldModel.rationals(), 5, 2)
    20
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0:
        return 1
    # lcm(m, p^nu) / m = p^(nu - v_p(m)) with p^v_p(m) <= m, so past
    # m's and the cap's bit lengths nu only adds lifts over the cap, and
    # pn is p^nu whenever the check below passes
    m = f.conductor
    pn = p ** min(nu, m.bit_length() + _LIFT_CAP.bit_length())
    big = lcm(m, pn)
    if len(f.subgroup) * (big // m) > _LIFT_CAP:
        raise OrderCapExceeded(f"cyclotomic layer p = {p}, nu = {nu} "
                               f"needs over {_LIFT_CAP} lifts")
    q = gcd(m, pn)
    if q == 1:  # (p-1) p^(nu-1), or 1, 2, 2^(nu-2) for p = 2
        if p != 2:
            return pn - pn // p
        return pn // 4 if nu > 2 else nu
    residues = {h % q for h in f.subgroup}
    if p != 2:
        return len(residues) * (pn // q)
    exponent = 1
    for c in residues:
        a, order = (c + q) % pn, 1
        while a != 1:
            a = a * a % pn
            order *= 2
        exponent = max(exponent, order)
    return exponent


def w_invariant(f: FieldModel, i: int) -> WInvariant:
    """Largest integer whose cyclotomic layers over F all have Galois
    exponent dividing i.

    Only primes with p - 1 <= i * degree can contribute: the first layer
    already has a group with index at most the degree in (Z/p)^x.  For
    each such p the level is raised while the exponent divides i; the
    exponents are nondecreasing in the level, so the first failure is
    final.  Each layer is exact (see cyclo_exponent) and reads at most
    |H| residues.  When |H| times the sum of the primes passes
    _WALK_CAP, it raises OrderCapExceeded before computing any layer.

    >>> w_invariant(FieldModel.rationals(), 2).value
    24
    """
    if i < 1:
        raise ValueError("i must be positive")
    bound = i * f.degree + 1
    primes = []
    lifts = 0
    for p in iter_primes():
        if p > bound:
            break
        lifts += len(f.subgroup) * p
        if lifts > _WALK_CAP:
            raise OrderCapExceeded(
                f"w_{i} would test more than {_WALK_CAP} lifts over the "
                f"primes up to {bound}")
        primes.append(p)
    factorization = []
    for p in primes:
        nu = 0
        while i % cyclo_exponent(f, p, nu + 1) == 0:
            nu += 1
            if nu > 64:
                raise AssertionError(
                    "cyclotomic exponent failed to grow; bug")
        if nu:
            factorization.append((p, nu))
    value = prod(p ** nu for p, nu in factorization)
    return WInvariant(i, value, tuple(factorization))


def k_group(f: FieldModel, n: int) -> FinAbGroup:
    """Structure of K_n(F) for odd n >= 3, by the rule on n mod 8.

    With i = (n+1)/2, r1 and r2 the signature, and w = w_i(F):
    n = 1 mod 8: Z^(r1+r2) + Z/w          n = 3 mod 8: Z^r2 + (Z/2)^(r1-1) + Z/2w
    n = 5 mod 8: Z^(r1+r2) + Z/(w/2)      n = 7 mod 8: Z^r2 + Z/w
    The n = 3 mod 8 case needs r1 >= 1; totally imaginary fields are
    refused there rather than guessed at.
    """
    i = _odd_index(n)
    return _k_group_rule(f.signature, n, w_invariant(f, i).value)


def _odd_index(n: int) -> int:
    """i = (n+1)/2 for an odd n >= 3, checked before any w is computed."""
    if n % 2 == 0:
        raise EvenIndex(f"n = {n} is even")
    if n < 3:
        raise ValueError(f"n must be at least 3: {n}")
    return (n + 1) // 2


def _k_group_rule(signature: tuple[int, int], n: int, w: int) -> FinAbGroup:
    """The n mod 8 rule of k_group, given the signature and w_i."""
    r1, r2 = signature
    residue = n % 8
    if residue == 1:
        return FinAbGroup.from_cyclic_orders([w], free_rank=r1 + r2)
    if residue == 3:
        if r1 == 0:
            raise UnsupportedSignature(
                "n = 3 mod 8 with no real place: the (Z/2)^(r1-1) factor "
                "is ill-formed")
        return FinAbGroup.from_cyclic_orders([2] * (r1 - 1) + [2 * w],
                                             free_rank=r2)
    if residue == 5:
        if w % 2:
            raise AssertionError("w must be even")
        return FinAbGroup.from_cyclic_orders([w // 2], free_rank=r1 + r2)
    return FinAbGroup.from_cyclic_orders([w], free_rank=r2)


def compare_k_groups(f1: FieldModel, f2: FieldModel, n_list) -> bool:
    """Structural equality of K_n for every n in the list."""
    return all(k_group(f1, n) == k_group(f2, n) for n in n_list)
