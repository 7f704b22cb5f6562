"""The benchmark's four workloads.

Each workload function builds its inputs from the seed, then hands back
the operations to time.  An operation is one CLI command or one library
entry call; it returns (exit code, report text).  Its check runs after
the timer stops and uses only `oracle`, never the code under test.

Why these four: `scott` and `search` put the index-203 coset spaces of
PSL(2,29) and the 203x203 determinants under load; `sweep` runs thousands
of tiny coset spaces and the subgroup lattice; `arith` touches no group
code at all and leans on the adjugate and the K-group exponents.  Each
workload bypasses the mechanisms the others stress, so a change aimed at
one shows up as "no change" on the rest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

# scott_triple's draw budget; every seed tried so far succeeds within 200.
SCOTT_BUDGET = 1000
# search: candidates sampled per run; how many of them pass the row-sum
# filter and reach a 203x203 determinant; the band that each survivor's
# squared row norm must lie in, which sets the size of the Bareiss
# intermediates (Hadamard's bound) and so the cost of its determinant.
SEARCH_BUDGET = 400
SEARCH_DETS = 2
SEARCH_NORM2 = (300, 500)
SEARCH_BOUND = 2
# arith: matrix sizes, and for each the median total bit length of the
# inverse's entries over random draws; the adjugate's cost follows it, so
# of MATRIX_DRAWS draws the one nearest the median is kept (a fixed number
# of draws, so that set-up costs the same for every seed).
# The fields for the K-groups: a fixed number of them, each with
# conductor * degree^2 (what the exponent loops cost, at about 8 us a
# unit) in a narrow band.  Every seed then gives as much work of about
# the same cost.
MATRIX_BITS = {16: 122, 24: 441, 32: 1232, 40: 2580}
MATRIX_DRAWS = 5
MATRIX_SIZES = tuple(MATRIX_BITS)
FIELDS = 10
FIELD_COST = (42_000, 54_000)
K_NS = (3, 5, 7, 9, 11, 13)

# (order, number of subgroups) of the corpus groups, from the standard
# tables; 333 subgroups in all.
CORPUS = {
    "C2": (2, 2), "C3": (3, 2), "C4": (4, 3), "C2xC2": (4, 5),
    "C5": (5, 2), "C6": (6, 4), "S3": (6, 6), "D4": (8, 10), "Q8": (8, 6),
    "C2xC4": (8, 8), "A4": (12, 10), "D6": (12, 16), "F20": (20, 14),
    "S4": (24, 30), "A5": (60, 59), "S5": (120, 156),
}
SWEEP_CORRESPONDENCES = 5946
SWEEP_GTHM_CHECKS = 8509


@dataclass
class Op:
    label: str
    call: Callable[[], tuple[int, str]]
    expect: tuple[int, ...]
    check: Callable[[int, str], list[str]]
    cli: bool = True


@dataclass
class Workload:
    ops: list[Op]
    work_units: int
    # what the traced run needs to replay the search's sampling
    facts: dict = field(default_factory=dict)


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    from gassmann import cli

    def call() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue() or err.getvalue()
    return call


def _expect(report: dict, **wanted) -> list[str]:
    return [f"{key} = {report.get(key)!r}, expected {value!r}"
            for key, value in wanted.items() if report.get(key) != value]


def _images(perms) -> list[tuple]:
    return [tuple(p.images) for p in perms]


def _write_triple(triple, workdir: Path) -> tuple[str, str, str]:
    paths = []
    for name, obj in (("G", triple.group), ("H1", triple.h1),
                      ("H2", triple.h2)):
        path = workdir / f"{name}.grp"
        path.write_text(oracle.group_file(obj.degree,
                                          _images(obj.generators)))
        paths.append(str(path))
    return tuple(paths)


# ---------------------------------------------------------------- scott

def scott(seed: int, workdir: Path) -> Workload:
    from gassmann import catalog
    triple = catalog.scott_triple(seed=seed, budget=SCOTT_BUDGET)
    g_path, h1_path, h2_path = _write_triple(triple, workdir)
    degree = triple.group.degree
    g_gens = _images(triple.group.generators)
    h1_gens = _images(triple.h1.generators)
    h2_gens = _images(triple.h2.generators)

    def check_structure(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, found=True, group_order=12180, index=203,
                      h1_order=60, h2_order=60, conjugate=False,
                      gassmann=True, seed=seed)
        group = oracle.closure(g_gens, degree)
        h1 = oracle.closure(h1_gens, degree)
        h2 = oracle.closure(h2_gens, degree)
        if (len(group), len(h1), len(h2)) != (12180, 60, 60):
            bad.append(f"orders {len(group)}, {len(h1)}, {len(h2)}")
        if not (h1 <= group and h2 <= group):
            bad.append("subgroups not inside G")
        if not (oracle.is_perfect(h1, degree)
                and oracle.is_perfect(h2, degree)):
            bad.append("a subgroup is not perfect")
        if oracle.conjugate_subgroups(group, h1_gens, h2):
            bad.append("H1 and H2 are conjugate in G")
        return bad

    def check_pair(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, gassmann=True, conjugate=False, index=203,
                      group_order=12180, h1_order=60, h2_order=60)
        c1, c2 = report.get("character1"), report.get("character2")
        if c1 != c2 or not c1 or c1[0] != 203:
            bad.append("permutation characters differ or miss the identity")
        return bad

    def check_splitting(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, group_order=12180, arithmetic=True,
                      kronecker=True, weak_kronecker=True, ultra_coarse=True)
        rows = report.get("rows", [])
        if sum(r["class_size"] for r in rows) != 12180:
            bad.append("class sizes do not add up to |G|")
        for r in rows:
            if sum(r["type1"]) != 203 or sorted(r["type1"]) != \
                    sorted(r["type2"]):
                bad.append(f"splitting types differ at {r['class_rep']}")
        return bad

    pair = ["--h1", h1_path, "--h2", h2_path]
    ops = [
        Op("scott", cli_call(["scott", "--seed", str(seed),
                              "--budget", str(SCOTT_BUDGET)]),
           (0,), check_structure),
        Op("check", cli_call(["gassmann", "check", g_path] + pair),
           (0,), check_pair),
        Op("splitting", cli_call(["splitting", "report", g_path] + pair),
           (0,), check_splitting),
    ]
    return Workload(ops, work_units=1)


# ---------------------------------------------------------------- sweep

def sweep(seed: int, workdir: Path) -> Workload:
    from gassmann import catalog, homology
    from gassmann.permgroup import PermGroup, Permutation
    rng = random.Random(seed)
    corpus = []
    for name, group in catalog.standard_corpus(120):
        relabel = list(range(group.degree))
        rng.shuffle(relabel)
        relabel = tuple(relabel)
        gens = [Permutation(oracle.conjugate(g, relabel))
                for g in _images(group.generators)]
        corpus.append((name, PermGroup(group.degree, gens)))

    def call() -> tuple[int, str]:
        report = homology.conjugation_sweep(corpus, max_order=120)
        return (0 if report["passed"] else 1,
                json.dumps(report, sort_keys=True))

    def check(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, correspondences=SWEEP_CORRESPONDENCES,
                      gthm_checks=SWEEP_GTHM_CHECKS, passed=True,
                      diagram_failures=[], gthm_failures=[])
        rows = {r["group"]: r for r in report.get("groups", [])}
        if set(rows) != set(CORPUS):
            bad.append(f"groups swept: {sorted(rows)}")
        for name, (order, count) in CORPUS.items():
            row = rows.get(name, {})
            if (row.get("order"), row.get("subgroups")) != (order, count):
                bad.append(f"{name}: {row}")
        return bad

    return Workload([Op("sweep", call, (0,), check, cli=False)],
                    work_units=SWEEP_CORRESPONDENCES)


# ---------------------------------------------------------------- search

def row_sum_survivors(search_seed: int,
                      weights: list[int]) -> list[tuple[int, int]]:
    """(trial, squared row norm) of each candidate with row sum +-1,
    drawing coefficients as the random search does."""
    rng = random.Random(search_seed)
    survivors = []
    for trial in range(SEARCH_BUDGET):
        coeffs = [rng.randint(-SEARCH_BOUND, SEARCH_BOUND) for _ in weights]
        if sum(c * w for c, w in zip(coeffs, weights)) in (1, -1):
            survivors.append((trial, sum(c * c * w
                                         for c, w in zip(coeffs, weights))))
    return survivors


def _steady_sample(search_seed: int, weights: list[int]) -> bool:
    survivors = row_sum_survivors(search_seed, weights)
    low, high = SEARCH_NORM2
    return len(survivors) == SEARCH_DETS and all(
        low <= norm2 <= high for _, norm2 in survivors)


def search(seed: int, workdir: Path) -> Workload:
    """A random search over the Scott triple's intertwiner space.

    The search seed handed to the program is the first one derived from
    the benchmark seed whose sample has exactly SEARCH_DETS row-sum
    survivors, each with its squared row norm in SEARCH_NORM2, so every
    run evaluates as many 203x203 determinants of about the same cost.
    The weights are the per-row cell counts of the orbit basis in the
    program's own order.
    """
    from gassmann import catalog, triples
    triple = catalog.scott_triple(seed=seed, budget=SCOTT_BUDGET)
    g_path, h1_path, h2_path = _write_triple(triple, workdir)
    n = triple.index
    basis = triples.intertwiner_basis(triple.group, triple.h1, triple.h2)
    weights = [sum(map(sum, b.rows)) // n for b in basis]
    search_seed = next(s for s in range(seed * 10000, seed * 10000 + 10000)
                       if _steady_sample(s, weights))
    degree = triple.group.degree
    g_gens = _images(triple.group.generators)
    h1 = oracle.closure(_images(triple.h1.generators), degree)
    h2 = oracle.closure(_images(triple.h2.generators), degree)

    def check(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, coeff_bound=SEARCH_BOUND, budget=SEARCH_BUDGET,
                      seed=search_seed)
        if not report.get("found"):
            return bad + _expect(report, trials=SEARCH_BUDGET, basis_size=8,
                                 exhausted=False)
        # a hit: re-check unimodularity and equivariance independently
        rows = report["matrix"]["rows"]
        if oracle.det(rows) not in (1, -1):
            bad.append("reported matrix is not unimodular")
        act1 = oracle.coset_actions(g_gens, h1, degree)
        act2 = oracle.coset_actions(g_gens, h2, degree)
        for s1, s2 in zip(act1, act2):
            if any(rows[s2[r]][s1[c]] != rows[r][c]
                   for r in range(n) for c in range(n)):
                bad.append("reported matrix is not equivariant")
                break
        return bad

    argv = ["gassmann", "search", g_path, "--h1", h1_path, "--h2", h2_path,
            "--bound", str(SEARCH_BOUND), "--budget", str(SEARCH_BUDGET),
            "--seed", str(search_seed)]
    return Workload([Op("search", cli_call(argv), (0, 1), check)],
                    work_units=SEARCH_BUDGET,
                    facts={"search_seed": search_seed, "weights": weights})


def candidates_sampled(report: dict, facts: dict, dets: int) -> int:
    """Candidates the search drew: the budget on a miss, else up to the
    row-sum survivor whose determinant was the last one evaluated."""
    if not report.get("found"):
        return report["trials"]
    survivors = row_sum_survivors(facts["search_seed"], facts["weights"])
    return survivors[dets - 1][0] + 1


# ---------------------------------------------------------------- arith

def _unimodular(n: int, rng: random.Random):
    """(A, A^-1, det A) with A = P L U: unit triangular L and U with
    sparse +-1 entries, and P a row permutation whose sign is det A."""
    density = 0.15
    lower = [[1 if i == j else (rng.choice((-1, 1))
                                if j < i and rng.random() < density else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1))
                                if j > i and rng.random() < density else 0)
              for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    lu = oracle.matmul(lower, upper)
    a = [lu[p] for p in order]
    inv_lu = oracle.matmul(oracle.unit_triangular_inverse(upper, False),
                           oracle.unit_triangular_inverse(lower, True))
    # row i of A is row order[i] of LU, so A^-1[i][j] = (LU)^-1[i][order[j]]
    inverse = [[inv_lu[i][order[j]] for j in range(n)] for i in range(n)]
    parity = sum(1 for i in range(n) for j in range(i + 1, n)
                 if order[i] > order[j]) % 2
    return a, inverse, -1 if parity else 1


def _real_fields(rng: random.Random) -> list[tuple[int, int, set[int]]]:
    """FIELDS real abelian fields, as (conductor m, unit u, H = <-1, u>),
    of degree 12..20 and cost m * degree^2 within FIELD_COST."""
    fields = []
    low, high = FIELD_COST
    while len(fields) < FIELDS:
        m = rng.randrange(120, 361)
        unit_list = oracle.units(m)
        u = rng.choice(unit_list)
        h = oracle.unit_closure([m - 1, u], m)
        degree = len(unit_list) // len(h)
        if 12 <= degree <= 20 and low <= m * degree * degree <= high:
            fields.append((m, u, h))
    return fields


def _typical_unimodular(n: int, rng: random.Random):
    """Of MATRIX_DRAWS draws of _unimodular, the one whose inverse's
    total bit size is nearest the median for its size."""
    def distance(draw) -> int:
        bits = sum(abs(x).bit_length() for row in draw[1] for x in row)
        return abs(bits - MATRIX_BITS[n])
    return min((_unimodular(n, rng) for _ in range(MATRIX_DRAWS)),
               key=distance)


def arith(seed: int, workdir: Path) -> Workload:
    from gassmann import lattice
    rng = random.Random(seed)
    ops = []
    for size in MATRIX_SIZES:
        a, inverse, det_a = _typical_unimodular(size, rng)
        path = workdir / f"A{size}.mat"
        path.write_text(oracle.matrix_file(a))
        ops.append(Op(f"demo{size}", cli_call(["abelext", "demo", "--matrix",
                                               str(path)]),
                      (0,), _demo_check(a, inverse)))

        def adjugate_call(a=a) -> tuple[int, str]:
            adj = lattice.adjugate(lattice.IntMat(a))
            return 0, json.dumps([list(row) for row in adj.rows])

        def adjugate_check(code: int, text: str, a=a, inverse=inverse,
                           det_a=det_a) -> list[str]:
            adj = json.loads(text)
            n = len(a)
            scalar = [[det_a * (i == j) for j in range(n)] for i in range(n)]
            bad = []
            if oracle.matmul(a, adj) != scalar:
                bad.append("A adj(A) != det(A) I")
            if adj != [[det_a * x for x in row] for row in inverse]:
                bad.append("adjugate differs from det(A) A^-1")
            return bad

        ops.append(Op(f"adjugate{size}", adjugate_call, (0,), adjugate_check,
                      cli=False))
    fields = _real_fields(rng)
    for k, (m, u, h) in enumerate(fields):
        spec = f"abelian:m={m};H={m - 1},{u}"
        argv = ["kgroups", "--field", spec]
        for n in K_NS:
            argv += ["--n", str(n)]
        ops.append(Op(f"kgroups{k}", cli_call(argv), (0,),
                      _kgroups_check(m, h)))
    return Workload(ops, work_units=len(MATRIX_SIZES) + len(fields) * len(K_NS))


def _demo_check(a, inverse):
    n = len(a)
    cofactors = {abs(x) for row in inverse for x in row} - {0}
    q = next(p for p in range(2, 10**6)
             if oracle.is_prime(p) and all(c % p for c in cofactors))
    separates = all(any(row[1:]) for row in inverse)

    def check(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, size=n, q=q, q_chosen=True, gcd1=1,
                      S1=[1] + [q] * (n - 1))
        if separates:
            bad += _expect(report, S2=[q] * n, gcd2=q, weakly_kronecker=False)
        return bad
    return check


def _kgroups_check(m: int, h: set[int]):
    degree = len(oracle.units(m)) // len(h)
    spec = f"abelian:m={m};H=" + ",".join(map(str, sorted(h)))

    def check(code: int, text: str) -> list[str]:
        report = json.loads(text)
        bad = _expect(report, field=spec, degree=degree)
        entries = report.get("entries", [])
        if [e["n"] for e in entries] != list(K_NS):
            return bad + [f"entries for n = {[e['n'] for e in entries]}"]
        for e in entries:
            n, w = e["n"], e["w"]
            # totally real: r1 = degree, r2 = 0
            rank = degree if n % 8 in (1, 5) else 0
            torsion = {1: [w], 3: [2] * (degree - 1) + [2 * w],
                       5: [w // 2], 7: [w]}[n % 8]
            torsion = sorted(t for t in torsion if t > 1)
            if e["free_rank"] != rank:
                bad.append(f"n={n}: free rank {e['free_rank']} != {rank}")
            if w % 2 or sorted(e["torsion"]) != torsion:
                bad.append(f"n={n}: torsion {e['torsion']} with w={w}")
        return bad
    return check


WORKLOADS = {"scott": scott, "sweep": sweep, "search": search,
             "arith": arith}
