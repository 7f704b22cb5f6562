"""One repetition of one workload, in a fresh interpreter.

Builds the inputs from the seed, times the operations, then checks
their outputs with the timer stopped.  Results are memoised on group
objects, so every repetition runs in its own process: no repetition
measures a warm cache, and the peak resident set belongs to one run.

Modes: `plain` times the operations untraced, each at the reference
speed of pace.py as well as raw; `trace` records spans (see spans.py);
`count` counts the hot methods.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import pace  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "count"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    paced = pace.Pace().start() if args.mode == "plain" else None
    setup_mark = paced.mark() if paced else None

    import gassmann
    if Path(gassmann.__file__).resolve().parent != SRC / "gassmann":
        print(f"gassmann imported from {gassmann.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    try:
        workload = workloads.WORKLOADS[args.workload](args.seed,
                                                      Path(args.workdir))
    except Exception:
        print(json.dumps({"setup_error": traceback.format_exc()}))
        return 0

    tracer = spans.Tracer().install() if args.mode == "trace" else None
    counts = spans.install_counters() if args.mode == "count" else None
    results = []
    if paced:
        setup = paced.scaled(setup_mark)
        setup_probe_s = paced.spent_wall
    timed_start = time.monotonic()
    wall0 = time.perf_counter()
    for op in workload.ops:
        call = op.call if tracer is None else \
            tracer.wrap(f"bench.{op.label}", op.call)
        mark = paced.mark() if paced else None
        op_wall, op_cpu = time.perf_counter(), time.process_time()
        try:
            code, text = call()
            outcome = (code, text, None)
        except Exception:
            outcome = (None, "", traceback.format_exc())
        if paced:
            times = paced.scaled(mark)
        else:
            wall = time.perf_counter() - op_wall
            cpu = time.process_time() - op_cpu
            times = {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": wall,
                     "raw_cpu_s": cpu}
        results.append(outcome + (times,))
    wall1 = time.perf_counter()
    if paced:
        paced.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # probes excluded; the traced run has none
    run_s = sum(t["raw_wall_s"] for *_, t in results) if paced else \
        wall1 - wall0

    ops = []
    for op, (code, text, error, times) in zip(workload.ops, results):
        problems = [error] if error else []
        if error is None and code not in op.expect:
            problems.append(f"exit code {code}: {text[:300]}")
        elif error is None:
            try:
                problems += op.check(code, text)
            except Exception:
                problems.append("check failed: " + traceback.format_exc())
        ops.append({"label": op.label, "problems": problems,
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "bytes": len(text.encode()), "cli": op.cli, **times})

    out = {"timed_start": timed_start, "run_s": run_s,
           "peak_rss_mb": peak_kib / 1024,
           "work_units": workload.work_units, "ops": ops}
    if paced:
        # run.py times set-up from the spawn, interpreter start included;
        # it takes out the probes and applies set-up's scale to the rest
        out["setup_probe_s"] = setup_probe_s
        out["setup_scale"] = setup["wall_s"] / setup["raw_wall_s"]
    if tracer is not None:
        layer, problems = spans.layer_metrics(tracer.spans, run_s)
        layer["cli.report_bytes"] = sum(o["bytes"] for o in ops if o["cli"])
        if args.workload == "search" and not ops[0]["problems"]:
            report = json.loads(results[0][1])
            sampled = workloads.candidates_sampled(
                report, workload.facts, layer["triples.det_evaluated"])
        else:
            sampled = 0
        layer["triples.candidates_sampled"] = sampled
        layer["triples.filter_yield"] = \
            layer["triples.det_evaluated"] / sampled if sampled else 0.0
        out["layer"] = layer
        out["trace_problems"] = problems
    if counts is not None:
        out["layer"] = counts
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
