"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py [--quick]

1. Span accounting: on synthetic nested calls, self times plus glue add
   up to the traced run, and a child's time leaves its parent's self time.
2. Wrapper coverage: after the traced pass is installed, no gassmann
   module still binds an unwrapped traced function by name (for example
   triples.det, abelext.adjugate, permgroup.smith_with_transforms).
3. Unless --quick: a traced run of every workload is correct, which
   requires the per-layer counts of repetition 2 to equal those of
   repetition 1 and every per-layer metric to be nonzero on the workload
   it is meant to move (run.MOVED_BY); and the runs print exactly the
   metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from run import HERE, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))
import spans  # noqa: E402


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_accounting() -> None:
    tracer = spans.Tracer()
    inner = tracer.wrap("lattice.inner", busy)

    def outer_body() -> None:
        busy(0.02)
        inner(0.03)

    outer = tracer.wrap("permgroup.outer", outer_body)

    def op() -> None:
        outer()
        busy(0.01)

    start = time.perf_counter()
    tracer.wrap("bench.op", op)()
    busy(0.01)
    run_s = time.perf_counter() - start
    metrics, problems = spans.layer_metrics(tracer.spans, run_s)
    assert not problems, problems
    # the 0.03 s in `inner` counts for lattice only, not for its caller
    assert metrics["lattice.self_s"] >= 0.03, metrics
    assert 0.02 <= metrics["permgroup.self_s"] < 0.045, metrics
    assert 0.02 <= metrics["trace.glue_s"] < 0.045, metrics
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(total + metrics["trace.glue_s"] - run_s) < 1e-9


def test_coverage() -> None:
    originals = {id(raw): name for name, owner, attr, raw in spans._targets()
                 if not isinstance(owner, type)}
    spans.Tracer().install()
    stale = [f"{module.__name__}.{attr} ({originals[id(value)]})"
             for module in spans._package_modules()
             for attr, value in vars(module).items()
             if id(value) in originals]
    assert not stale, f"unwrapped bindings: {stale}"
    from gassmann import abelext, permgroup, triples
    for fn in (triples.det, abelext.adjugate,
               permgroup.smith_with_transforms, triples.coset_action):
        assert hasattr(fn, "__wrapped__"), fn


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{workload}: {proc.stderr}"
    return result


def test_runs() -> None:
    """Every workload's traced run is correct and prints exactly the
    per-layer metrics of BENCHMARK.json; an untraced run prints exactly
    the end-to-end ones."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {kind: {m["name"] for m in declared[kind]}
             for kind in ("end_to_end", "per_layer")}
    assert set(run("arith", 0)["metrics"]) == names["end_to_end"]
    for workload in WORKLOADS:
        assert set(run(workload, 1)["metrics"]) == names["per_layer"]
        print(f"traced {workload}: correct", file=sys.stderr)


def main() -> int:
    tests = [test_accounting, test_coverage]
    if "--quick" not in sys.argv[1:]:
        tests.append(test_runs)
    for test in tests:
        test()
        print(f"{test.__name__}: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
