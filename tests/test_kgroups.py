import random
import time
from math import gcd, lcm

import pytest

from gassmann import kgroups
from gassmann.errors import (EvenIndex, NotPrime, OrderCapExceeded,
                             ParseError, UnsupportedSignature)
from gassmann.kgroups import (_CONDUCTOR_CAP, FieldModel, compare_k_groups,
                              cyclo_exponent, k_group, w_invariant)

Q = FieldModel.rationals()
REAL_QUAD = FieldModel.abelian(5, [4])       # the m=5, H={1,4} model
IMAG_QUAD = FieldModel.abelian(4, [])        # m=4, H={1}: no real place


def closed_form_exponent(p, nu):
    """Exponent of (Z/p^nu)^x, textbook formula."""
    if nu == 0:
        return 1
    if p == 2:
        return {1: 1, 2: 2}.get(nu, 2 ** (nu - 2))
    return (p - 1) * p ** (nu - 1)


def brute_cyclo_exponent(f, p, nu):
    """Every unit mod lcm(m, p^nu) fixing F, mapped to (Z/p^nu)^x; the
    lcm of the image's element orders."""
    pn = p ** nu
    big = lcm(f.conductor, pn)
    image = {x % pn for x in range(big)
             if x % f.conductor in f.subgroup and gcd(x, big) == 1}
    exponent = 1
    for a in image:
        order, power = 1, a % pn
        while power != 1 % pn:
            power = power * a % pn
            order += 1
        exponent = lcm(exponent, order)
    return exponent


def unit_subgroups(m, rng):
    """{1}, <-1> and two random <-1, u> mod m."""
    units = [x for x in range(m) if gcd(x, m) == 1]
    yield FieldModel.abelian(m, [])
    yield FieldModel.abelian(m, [-1])
    for _ in range(2):
        yield FieldModel.abelian(m, [-1, rng.choice(units)])


def assert_matches_brute(f):
    for p in (2, 3, 5, 7):
        for nu in range(4):
            assert cyclo_exponent(f, p, nu) == brute_cyclo_exponent(f, p, nu), \
                (f.describe(), p, nu)


def test_cyclo_exponent_matches_brute_force_small_conductors():
    rng = random.Random(0)
    for m in range(1, 61):
        for f in unit_subgroups(m, rng):
            assert_matches_brute(f)


def test_cyclo_exponent_matches_brute_force_arith_sized_fields():
    # real fields of the benchmark's size: conductor 120-360, degree 12-20;
    # 5 divides 240 and 330 only, 7 divides 168 and 252 only
    for m, u in ((168, 13), (240, 31), (252, 55), (330, 89)):
        f = FieldModel.abelian(m, [-1, u])
        assert 12 <= f.degree <= 20, (m, u, f.degree)
        assert_matches_brute(f)


def every_unit_subgroup(m):
    """Each subgroup of (Z/m)^x, as the field it fixes."""
    found = {FieldModel.abelian(m, [])}
    worklist = list(found)
    while worklist:
        f = worklist.pop()
        for u in range(m):
            if gcd(u, m) == 1 and u not in f.subgroup:
                joined = FieldModel.abelian(m, [*f.subgroup, u])
                if joined not in found:
                    found.add(joined)
                    worklist.append(joined)
    return found


def test_cyclo_exponent_lifts_agree_with_gcd_filter():
    """A lift h + m*t of a unit h mod m is a unit mod lcm(m, p^nu)
    exactly when p does not divide it, on every field of conductor at
    most 60 (the rationals are m = 1, H = {0})."""
    powers = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1))
    for m in range(1, 61):
        for f in every_unit_subgroup(m):
            for p, nu in powers:
                big = lcm(m, p ** nu)
                lifts = [x for h in f.subgroup for x in range(h, big, m)]
                assert [x for x in lifts if gcd(x, big) == 1] == \
                    [x for x in lifts if x % p], (f.describe(), p, nu)
                assert cyclo_exponent(f, p, nu) == \
                    brute_cyclo_exponent(f, p, nu), (f.describe(), p, nu)


def test_cyclo_exponent_over_rationals_matches_closed_form():
    for p, depth in ((2, 5), (3, 5), (5, 4), (7, 3), (11, 4), (13, 4)):
        for nu in range(0, depth):
            assert cyclo_exponent(Q, p, nu) == closed_form_exponent(p, nu)


def test_cyclo_exponent_requires_prime():
    with pytest.raises(NotPrime):
        cyclo_exponent(Q, 6, 1)


def test_negative_level_and_nonpositive_degree_are_refused():
    with pytest.raises(ValueError, match="nu must be nonnegative"):
        cyclo_exponent(Q, 3, -1)
    with pytest.raises(ValueError, match="i must be positive"):
        w_invariant(Q, 0)


def test_cyclo_exponent_shrinks_with_larger_unit_group():
    # adjoining sqrt(5) halves the first 5-power layer
    assert cyclo_exponent(REAL_QUAD, 5, 1) == 2
    assert cyclo_exponent(Q, 5, 1) == 4


def test_w_invariants_of_rationals():
    assert [w_invariant(Q, i).value for i in (1, 2, 3, 4, 5)] == \
        [2, 24, 2, 240, 2]


def test_w_invariants_of_rationals_match_bernoulli_denominators():
    # w_i(Q) is 2 for odd i and the denominator of B_i / 2i for even i
    sympy = pytest.importorskip("sympy")
    for i in range(1, 41):
        expected = 2 if i % 2 else \
            (sympy.bernoulli(i) / (2 * i)).as_numer_denom()[1]
        assert w_invariant(Q, i).value == expected, i


def test_w_invariant_of_real_quadratic():
    assert w_invariant(REAL_QUAD, 2).value == 120


def test_w_invariant_factorization_consistent():
    w = w_invariant(Q, 4)
    assert w.value == 240
    prod = 1
    for p, e in w.factorization:
        prod *= p ** e
    assert prod == 240


def test_k_groups_of_rationals():
    assert str(k_group(Q, 3)) == "Z/48"
    assert str(k_group(Q, 5)) == "Z"
    assert str(k_group(Q, 7)) == "Z/240"
    assert str(k_group(Q, 9)) == "Z x Z/2"


def test_k_groups_of_real_quadratic():
    assert str(k_group(REAL_QUAD, 3)) == "Z/2 x Z/240"
    assert k_group(REAL_QUAD, 5).free_rank == 2


def test_k_group_rejects_even_or_small_n():
    with pytest.raises(EvenIndex):
        k_group(Q, 4)
    with pytest.raises(ValueError):
        k_group(Q, 1)


def test_k_group_imaginary_n3_mod8_refused():
    # n = 3 mod 8 with no real embedding is outside the rule
    assert IMAG_QUAD.signature == (0, 1)
    with pytest.raises(UnsupportedSignature):
        k_group(IMAG_QUAD, 3)
    # other residues are fine
    k_group(IMAG_QUAD, 5)
    k_group(IMAG_QUAD, 7)


def test_field_model_parse():
    assert FieldModel.parse("Q") == Q
    parsed = FieldModel.parse("abelian:m=5;H=1,4")
    assert parsed.conductor == 5
    assert parsed.degree == 2
    assert parsed == REAL_QUAD
    # generators get closed: 2 generates all of (Z/5)^x
    assert FieldModel.parse("abelian:m=5;H=2").degree == 1
    # omitted H means the trivial subgroup, the full cyclotomic field
    assert FieldModel.parse("abelian:m=5").degree == 4
    with pytest.raises(ParseError):
        FieldModel.parse("abelian:H=1,4")
    with pytest.raises(ParseError):
        FieldModel.parse("cubic:disc=-23")
    with pytest.raises(ParseError):
        FieldModel.parse("abelian:m=5;x=3")
    for repeated in ("abelian:m=5;m=7", "abelian:m=5;H=1;H=4"):
        with pytest.raises(ParseError, match="repeated"):
            FieldModel.parse(repeated)


def test_field_model_validation():
    with pytest.raises(ValueError):
        FieldModel(5, frozenset({1, 2}))  # not closed under product
    with pytest.raises(ValueError):
        FieldModel(6, frozenset({1, 4}))  # 4 is not a unit mod 6
    model = FieldModel.abelian(8, [3, 5])
    assert model.degree == 1  # {3,5} generates all of (Z/8)^x
    model = FieldModel(7)  # no subgroup given: the trivial one
    assert model.subgroup == frozenset({1}) and model.degree == 6


def test_conductor_cap_rejects_before_enumerating(monkeypatch):
    assert FieldModel.abelian(_CONDUCTOR_CAP, [-1]).conductor == \
        _CONDUCTOR_CAP

    def enumerated(*args):
        raise AssertionError("residues enumerated past the cap")

    monkeypatch.setattr(kgroups, "_unit_residues", enumerated)
    monkeypatch.setattr(kgroups, "_multiplicative_closure", enumerated)
    for make in (lambda m: FieldModel(m), lambda m: FieldModel.abelian(m, [2]),
                 lambda m: FieldModel.parse(f"abelian:m={m};H=2")):
        with pytest.raises(OrderCapExceeded):
            make(_CONDUCTOR_CAP + 1)


def test_lift_cap_rejects_before_enumerating(monkeypatch):
    lifts = len(REAL_QUAD.subgroup) * lcm(5, 5 ** 3) // 5
    monkeypatch.setattr(kgroups, "_LIFT_CAP", lifts)
    assert cyclo_exponent(REAL_QUAD, 5, 3) == 50

    def enumerated(*args):
        raise AssertionError("residues enumerated past the cap")

    monkeypatch.setattr(kgroups, "gcd", enumerated)
    monkeypatch.setattr(kgroups, "_LIFT_CAP", lifts - 1)
    with pytest.raises(OrderCapExceeded):
        cyclo_exponent(REAL_QUAD, 5, 3)
    # within its own cap, w_invariant stops at the first layer past the
    # cyclo_exponent cap: w_64(Q) needs 2^8 lifts mod 2^8
    monkeypatch.setattr(kgroups, "gcd", gcd)
    monkeypatch.setattr(kgroups, "_LIFT_CAP", 64)
    with pytest.raises(OrderCapExceeded):
        w_invariant(Q, 64)


@pytest.mark.parametrize("nu", [10 ** 5, 10 ** 9])
def test_lift_cap_rejects_before_forming_the_power(nu):
    # 3^nu would take unbounded time and memory, and its lift count
    # could not be formatted into the message
    start = time.perf_counter()
    with pytest.raises(OrderCapExceeded, match=f"p = 3, nu = {nu} "):
        cyclo_exponent(Q, 3, nu)
    assert time.perf_counter() - start < 0.5


def test_walk_cap_counts_first_layer_lifts(monkeypatch):
    # w_2(Q) walks the primes 2 and 3: 1 * (2 + 3) first-layer lifts
    monkeypatch.setattr(kgroups, "_WALK_CAP", 5)
    assert w_invariant(Q, 2).value == 24
    monkeypatch.setattr(kgroups, "_WALK_CAP", 4)
    with pytest.raises(OrderCapExceeded):
        w_invariant(Q, 2)


def test_walk_cap_rejects_before_any_layer(monkeypatch):
    def tested(*args):
        raise AssertionError("a layer was tested past the walk cap")

    # w_100001(Q) would walk the primes up to 100,002, whose sum is
    # about 4.5e8
    monkeypatch.setattr(kgroups, "cyclo_exponent", tested)
    with pytest.raises(OrderCapExceeded):
        w_invariant(Q, 100_001)


def test_degree_and_signature():
    assert Q.degree == 1
    assert Q.signature == (1, 0)
    assert REAL_QUAD.degree == 2
    assert REAL_QUAD.signature == (2, 0)
    assert IMAG_QUAD.degree == 2
    assert IMAG_QUAD.signature == (0, 1)


def test_describe_roundtrip():
    for model in (Q, REAL_QUAD, IMAG_QUAD):
        assert FieldModel.parse(model.describe()) == model


def test_compare_k_groups():
    assert compare_k_groups(Q, Q, [3, 5, 7, 9])
    assert not compare_k_groups(Q, REAL_QUAD, [3])
    same = FieldModel.abelian(5, [4])
    assert compare_k_groups(REAL_QUAD, same, [3, 5, 7])


def test_w_invariant_divisibility_tower():
    # restriction embeds each layer group over the extension into the one
    # over Q, so w_i only grows when the field does
    for i in (1, 2, 3, 4):
        assert w_invariant(REAL_QUAD, i).value % w_invariant(Q, i).value == 0
