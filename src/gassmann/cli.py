"""Command-line front end: file-based inputs, JSON reports.

Exit codes: 0 success, 1 a check or search came back negative,
2 bad input (unparseable files, violated preconditions, missing paths).
Reports are deterministic for fixed arguments: no timestamps, multisets
serialized sorted.  The handlers read the parsed arguments directly;
each option's default is written once, in the parser, and `--help`
shows it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import abelext, catalog, homology, kgroups, splitting, triples
from .errors import GassmannError, NotFoundWithinBudget, ParseError, parse_int
from .lattice import parse_matrix_file
from .permgroup import (PermGroup, Subgroup, _parse_generators,
                        abelianization, parse_group_file)

SCHEMA = 1

__all__ = ["run", "main"]


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_group(path: str) -> PermGroup:
    return parse_group_file(_read(path), path=path)


def _load_subgroup(group: PermGroup, path: str) -> Subgroup:
    # checked against the group before any closure: a file generating
    # a large group outside it fails on membership, not the order cap
    degree, generators = _parse_generators(_read(path), path=path)
    if degree != group.degree:
        raise ParseError(
            f"degree {degree} does not match "
            f"the ambient group's degree {group.degree}", path=path)
    return group.subgroup(generators)


def _load_pair(
        args: argparse.Namespace) -> tuple[PermGroup, Subgroup, Subgroup]:
    group = _load_group(args.group)
    return (group, _load_subgroup(group, args.h1),
            _load_subgroup(group, args.h2))


def _cmd_group_info(args: argparse.Namespace) -> tuple[int, dict]:
    group = _load_group(args.group)
    ab = str(abelianization(group).structure)
    return 0, {
        "degree": group.degree,
        "order": group.order,
        "generators": [g.format() for g in group.generators],
        "num_classes": len(group.conjugacy_classes()),
        "class_sizes": sorted(c.size for c in group.conjugacy_classes()),
        "abelianization": ab,
    }


def _cmd_gassmann_check(args: argparse.Namespace) -> tuple[int, dict]:
    group, h1, h2 = _load_pair(args)
    gassmann = triples.is_gassmann(group, h1, h2)
    # read off the splitting tables that is_gassmann has cached
    character1 = triples.permutation_character(group, h1)
    character2 = triples.permutation_character(group, h2)
    report = {
        "group_order": group.order,
        "h1_order": h1.order,
        "h2_order": h2.order,
        "gassmann": gassmann,
        "conjugate": triples.are_conjugate(group, h1, h2),
        "index": group.order // h1.order,
        "character1": list(character1),
        "character2": list(character2),
    }
    return (0 if report["gassmann"] else 1), report


def _matrix_report(a) -> dict:
    return {"size": a.nrows, "rows": [list(row) for row in a.rows]}


def _cmd_gassmann_search(args: argparse.Namespace) -> tuple[int, dict]:
    group, h1, h2 = _load_pair(args)
    base = {"coeff_bound": args.bound, "budget": args.budget,
            "seed": args.seed}
    try:
        found = triples.integral_search(group, h1, h2, args.bound,
                                        args.budget, seed=args.seed)
    except NotFoundWithinBudget as exc:
        base.update({
            "found": False,
            "trials": exc.trials,
            "exhausted": exc.exhausted,
            "basis_size": exc.basis_size,
        })
        return 1, base
    base.update({
        "found": True,
        "matrix": _matrix_report(found.A),
        "verification": triples.verify_integral_triple(found.triple, found),
    })
    return 0, base


def _cmd_gassmann_verify(args: argparse.Namespace) -> tuple[int, dict]:
    group, h1, h2 = _load_pair(args)
    a = parse_matrix_file(_read(args.matrix), path=args.matrix)
    triple = triples.GassmannTriple(group, h1, h2)
    report = triples.verify_integral_triple(triple, a)
    return (0 if report["passed"] else 1), report


def _cmd_splitting_report(args: argparse.Namespace) -> tuple[int, dict]:
    group, h1, h2 = _load_pair(args)
    table1 = splitting.splitting_table(group, h1)
    table2 = splitting.splitting_table(group, h2)
    relations = splitting._RELATION_KEYS  # as the equivalence tests
    rows = []
    for cls, s1, s2 in zip(group.conjugacy_classes(), table1, table2):
        row = {
            "class_rep": cls.representative.format(),
            "class_size": cls.size,
            "type1": list(s1),
            "type2": list(s2),
            "gcd1": s1.gcd(),
            "gcd2": s2.gcd(),
            "lcm1": s1.lcm(),
            "lcm2": s2.lcm(),
            "arithmetic": s1 == s2,
        }
        row.update((name, key(s1) == key(s2))
                   for name, key in relations.items())
        rows.append(row)
    report = {
        "group_order": group.order,
        "h1_order": h1.order,
        "h2_order": h2.order,
        "rows": rows,
        "arithmetic": (all(r["arithmetic"] for r in rows)
                       if h1.order == h2.order else None),
    }
    report.update((name, all(r[name] for r in rows)) for name in relations)
    return 0, report


def _cmd_abelext_demo(args: argparse.Namespace) -> tuple[int, dict]:
    a = parse_matrix_file(_read(args.matrix), path=args.matrix)
    q = args.q if args.q is not None else abelext.choose_q(a)
    s1, s2, gcd1, gcd2 = abelext.notwkeq_construct(a, q)
    return 0, {
        "size": a.nrows,
        "q": q,
        "q_chosen": args.q is None,
        "S1": list(s1),
        "S2": list(s2),
        "gcd1": gcd1,
        "gcd2": gcd2,
        "weakly_kronecker": gcd1 == gcd2,
    }


def _cmd_kgroups(args: argparse.Namespace) -> tuple[int, dict]:
    if len(args.field) != 1:
        raise ValueError("exactly one --field is required")
    model = kgroups.FieldModel.parse(args.field[0])
    entries = []
    for n in sorted(set(args.n)):
        i = kgroups._odd_index(n)
        w = kgroups.w_invariant(model, i).value
        structure = kgroups._k_group_rule(model.signature, n, w)
        entries.append({
            "n": n,
            "k_group": str(structure),
            "free_rank": structure.free_rank,
            "torsion": list(structure.invariant_factors),
            "w": w,
        })
    return 0, {"field": model.describe(), "degree": model.degree,
               "entries": entries}


def _cmd_homology_sweep(args: argparse.Namespace) -> tuple[int, dict]:
    corpus = catalog.standard_corpus(args.max_order)
    report = homology.conjugation_sweep(corpus, max_order=args.max_order)
    return (0 if report["passed"] else 1), report


def _cmd_scott(args: argparse.Namespace) -> tuple[int, dict]:
    base = {"seed": args.seed, "budget": args.budget}
    try:
        triple = catalog.scott_triple(seed=args.seed, budget=args.budget)
    except NotFoundWithinBudget as exc:
        base.update({"found": False, "trials": exc.trials})
        return 1, base
    group = triple.group
    base.update({
        "found": True,
        "group_order": group.order,
        "index": triple.index,
        "h1_order": triple.h1.order,
        "h2_order": triple.h2.order,
        "conjugate": False,  # scott_triple returns a non-conjugate pair
        "gassmann": True,  # checked by the GassmannTriple constructor
    })
    return 0, base


_COMMANDS = {
    "group.info": _cmd_group_info,
    "gassmann.check": _cmd_gassmann_check,
    "gassmann.search": _cmd_gassmann_search,
    "gassmann.verify": _cmd_gassmann_verify,
    "splitting.report": _cmd_splitting_report,
    "abelext.demo": _cmd_abelext_demo,
    "kgroups": _cmd_kgroups,
    "homology.sweep": _cmd_homology_sweep,
    "scott": _cmd_scott,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch parsed arguments to the handler that `args.command`
    names; returns (exit code, report dict)."""
    handler = _COMMANDS.get(args.command)
    if handler is None:
        raise ValueError(f"unknown command: {args.command}")
    code, report = handler(args)
    report["schema"] = SCHEMA
    report["command"] = args.command
    return code, report


def _render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gassmann",
        description="Gassmann triples, splitting equivalences, odd K-groups"
                    " and degree-one homology diagrams for finite groups.")
    parser.add_argument("--out", help="also write the JSON report here")
    top = parser.add_subparsers(dest="topic", required=True)

    group = top.add_parser("group", help="inspect a group file")
    group_sub = group.add_subparsers(dest="action", required=True)
    info = group_sub.add_parser("info", help="order, classes, abelianization")
    info.add_argument("group", help="group file")

    gm = top.add_parser("gassmann", help="Gassmann pair checks and searches")
    gm_sub = gm.add_subparsers(dest="action", required=True)
    for name, blurb in (("check", "equal permutation characters?"),
                        ("search", "look for a unimodular intertwiner"),
                        ("verify", "verify a supplied intertwiner")):
        sub = gm_sub.add_parser(name, help=blurb)
        sub.add_argument("group", help="ambient group file")
        sub.add_argument("--h1", required=True, help="first subgroup file")
        sub.add_argument("--h2", required=True, help="second subgroup file")
        if name == "search":
            sub.add_argument("--bound", type=parse_int, default=2,
                             help="coefficient box half-width "
                                  "(default %(default)s)")
            sub.add_argument("--budget", type=parse_int, default=20000,
                             help="candidate limit; the whole box is "
                                  "searched when it fits "
                                  "(default %(default)s)")
            sub.add_argument("--seed", type=parse_int, default=0,
                             help="seed of the random draws made when the "
                                  "box does not fit (default %(default)s)")
        if name == "verify":
            sub.add_argument("--matrix", required=True,
                             help="candidate matrix file")

    sp = top.add_parser("splitting", help="splitting-type tables")
    sp_sub = sp.add_subparsers(dest="action", required=True)
    rep = sp_sub.add_parser("report",
                            help="per-class types and equivalence verdicts")
    rep.add_argument("group", help="ambient group file")
    rep.add_argument("--h1", required=True)
    rep.add_argument("--h2", required=True)

    ab = top.add_parser("abelext", help="local lattice separation pipeline")
    ab_sub = ab.add_subparsers(dest="action", required=True)
    demo = ab_sub.add_parser("demo", help="S1, S2 and their gcds")
    demo.add_argument("--matrix", required=True, help="unimodular matrix file")
    demo.add_argument("--q", type=parse_int,
                      help="split prime; least valid prime when omitted")

    kg = top.add_parser("kgroups", help="odd K-groups of integer rings")
    kg.add_argument("--field", required=True, action="append",
                    help='"Q" or "abelian:m=5;H=1,4"')
    kg.add_argument("--n", required=True, action="append", type=parse_int,
                    help="odd degree n >= 3; repeatable")

    hm = top.add_parser("homology", help="transfer diagram sweeps")
    hm_sub = hm.add_subparsers(dest="action", required=True)
    sweep = hm_sub.add_parser("sweep",
                              help="exhaustive conjugation-correspondence"
                                   " checks over the corpus")
    sweep.add_argument("--max-order", type=parse_int, default=120,
                       help="largest group order in the corpus "
                            "(default %(default)s)")

    sc = top.add_parser("scott",
                        help="non-conjugate A5 pair inside PSL(2,29)")
    sc.add_argument("--seed", type=parse_int, default=0,
                    help="seed of the random (2,3,5) draws "
                         "(default %(default)s)")
    sc.add_argument("--budget", type=parse_int, default=200,
                    help="limit on the number of draws (default %(default)s)")

    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Name the command, e.g. "gassmann.search", on the parsed arguments."""
    topic = args.topic
    args.command = topic if topic in ("kgroups", "scott") \
        else f"{topic}.{args.action}"
    return args


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, report = run(_config_from_args(args))
        text = _render(report)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GassmannError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
