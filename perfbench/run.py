"""Benchmark for the gassmann toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py): scott,
sweep, search, arith.  One client in a closed loop: repetitions run one
after another, each in its own process (rep.py), until the next one
would end more than half a repetition after S seconds; at least two
run, so that their report bytes can be compared.

--trace 0 prints the end-to-end metrics, medians over the repetitions.
The times are seconds at a reference speed of the machine (pace.py): a
shared virtual machine can change speed by 1.5x from moment to moment,
so each timed interval is scaled by the speed that short probes, taken
every 10 ms while it runs, measured.
  run_s        wall seconds of the timed calls (per-call medians, summed)
  cpu_s        process CPU seconds of the same calls
  setup_s      interpreter start, imports and input generation
  throughput   work units per second (scott: triples; sweep:
               correspondences checked; search: candidates sampled;
               arith: matrices plus (field, n) pairs)
  peak_rss_mb  peak resident set of a repetition's process
  ok_frac      share of operations that passed every check
               (1 - failed/attempted; a metric that is never 0)

--trace 1 ignores S and runs one untraced, two traced and two counting
repetitions, and prints the per-layer metrics (spans.py) with the
tracing overhead and the benchmark glue time.  The per-layer counts must
agree between repetitions, and each metric must be nonzero on the
workload it is meant to move.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 when the program's
source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("scott", "sweep", "search", "arith")
MIN_REPS, MAX_REPS = 2, 50
# a run must end within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s",
                    "throughput": "1/s", "peak_rss_mb": "MiB",
                    "ok_frac": "ratio"}

# Per-layer metrics each workload is meant to move; the traced run fails
# if one of these reads zero.
MOVED_BY = {
    "scott": (
        "permgroup.self_s", "permgroup.coset_space_s",
        "permgroup.coset_spaces_built", "permgroup.coset_lookups",
        "permgroup.classes_s", "permgroup.perm_products", "triples.self_s",
        "triples.is_gassmann_s", "triples.are_conjugate_s",
        "splitting.self_s", "splitting.tables_built",
        "catalog.scott_triple_s", "catalog.scott_closures", "cli.self_s",
        "cli.parse_s", "cli.report_bytes"),
    "sweep": (
        "permgroup.all_subgroups_s", "permgroup.subgroups_found",
        "permgroup.elements_enumerated", "permgroup.abelianization_s",
        "permgroup.transfer_s", "lattice.snf_s", "lattice.hnf_s",
        "lattice.self_s", "homology.self_s", "homology.diagram_checks",
        "homology.gthm_checks", "homology.gthm_check_s"),
    "search": (
        "permgroup.coset_space_s", "permgroup.perm_products",
        "lattice.det_s", "lattice.det_calls", "triples.intertwiner_basis_s",
        "triples.candidates_sampled", "triples.det_evaluated",
        "triples.filter_yield", "cli.self_s", "cli.parse_s",
        "cli.report_bytes"),
    "arith": (
        "lattice.adjugate_s", "lattice.adjugate_calls", "lattice.mns_s",
        "lattice.self_s", "abelext.self_s", "abelext.choose_q_s",
        "abelext.notwkeq_s", "kgroups.self_s", "kgroups.w_invariant_calls",
        "cli.self_s", "cli.parse_s", "cli.report_bytes"),
}


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, mode: str, index: int,
            deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON result
    with setup_s (spawn to first timed call) and wall_s added."""
    workdir = WORK / f"{workload}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True)
    cmd = [sys.executable, "-I", str(HERE / "rep.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode,
           "--workdir", str(workdir)]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
        ended = time.monotonic()
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} repetition of {workload} ran past the "
                        f"deadline") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{mode} repetition exited {proc.returncode}: "
                        f"{proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["mode"] = mode
    if "setup_error" not in rep:
        rep["setup_s"] = (rep["timed_start"] - spawned
                          - rep.get("setup_probe_s", 0.0)) \
            * rep.get("setup_scale", 1.0)
    rep["wall_s"] = ended - spawned
    return rep


def golden_digests(workload: str, seed: int) -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        entries = json.load(fh).get(workload, {})
    return entries.get(str(seed), entries.get("*", {}))


def tally(reps: list[dict], golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every
    repetition.  An operation fails on an exception, a wrong exit code, a
    failed check, a digest other than the recorded one, or bytes that
    differ from the first repetition's."""
    labels = next((len(r["ops"]) for r in reps if "ops" in r), 1)
    first: dict[str, str] = {}
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        if "setup_error" in rep:
            attempted += labels
            failed += labels
            problems.append(f"rep {i}: set-up failed: {rep['setup_error']}")
            continue
        for op in rep["ops"]:
            attempted += 1
            label, digest = op["label"], op["sha256"]
            found = list(op["problems"])
            if golden.get(label, digest) != digest:
                found.append("report differs from the recorded digest")
            if first.setdefault(label, digest) != digest:
                found.append("report bytes differ between repetitions")
            if found:
                failed += 1
                problems += [f"rep {i} {label}: {p}" for p in found]
    return attempted, failed, problems


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the repetitions.  run_s and cpu_s take the median of
    each timed call separately and add them up: a shared machine has slow
    spells of a few seconds that the scaling does not undo entirely, and a
    per-call median keeps one spell from moving the whole repetition."""
    ok = [r for r in reps if "setup_error" not in r]
    if not ok:
        return {}

    def per_call(key: str) -> float:
        return sum(statistics.median(r["ops"][i][key] for r in ok)
                   for i in range(len(ok[0]["ops"])))

    metrics = {
        "run_s": per_call("wall_s"),
        "cpu_s": per_call("cpu_s"),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "ok_frac": 1 - failed / attempted,
    }
    metrics["throughput"] = ok[0]["work_units"] / metrics["run_s"]
    return metrics


def per_layer(workload: str, plain: dict, traced: list[dict],
              counted: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: median times over the traced repetitions, and
    counts that must agree between repetitions."""
    problems = []
    for rep in traced:
        problems += rep["trace_problems"]
    metrics = {}
    for group in (traced, counted):
        for name in group[0]["layer"]:
            values = [rep["layer"][name] for rep in group]
            if name.endswith("_s") or name == "triples.filter_yield":
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between "
                                    f"repetitions: {values}")
                metrics[name] = values[0]
    metrics["trace.overhead"] = metrics["trace.run_s"] / plain["run_s"]
    for name in MOVED_BY[workload]:
        if not metrics.get(name):
            problems.append(f"{name} is zero on {workload}")
    return metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "triples.filter_yield"):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gassmann" / "__init__.py").is_file():
        print(f"no gassmann source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []

    def rep(mode: str) -> dict:
        reps.append(run_rep(args.workload, args.seed, mode, len(reps),
                            deadline))
        return reps[-1]

    try:
        if args.trace:
            plain = rep("plain")
            traced = [rep("trace"), rep("trace")]
            counted = [rep("count"), rep("count")]
        else:
            while len(reps) < MAX_REPS:
                rep("plain")
                typical = statistics.median(r["wall_s"] for r in reps)
                elapsed = time.monotonic() - start
                if len(reps) >= MIN_REPS and \
                        elapsed + typical / 2 >= args.seconds:
                    break
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()
    attempted, failed, problems = tally(
        reps, golden_digests(args.workload, args.seed))

    if args.trace:
        if any("setup_error" in r for r in reps):
            metrics = {}
        else:
            metrics, more = per_layer(args.workload, plain, traced, counted)
            problems += more
    else:
        metrics = end_to_end(reps, attempted, failed)

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    raw = [round(r.get("run_s", 0), 3) for r in reps]
    scaled = [round(sum(o["wall_s"] for o in r.get("ops", [])), 3)
              for r in reps]
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({' '.join(r['mode'] for r in reps)}), run_s raw {raw}, "
          f"scaled {scaled}, {attempted} "
          f"operations, {failed} failed", file=sys.stderr)
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
