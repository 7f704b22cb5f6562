"""Record the SHA-256 digests of the workloads' reports.

    python3 perfbench/record_golden.py SEED [SEED ...]

Runs one untraced repetition per workload and seed and writes
perfbench/golden.json, which run.py compares every later report with.
Refuses to record a report that fails its checks.  The sweep report does
not depend on the relabelling, so it is recorded once, under "*", and
holds for every seed.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, run_rep


def main(seeds: list[int]) -> int:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for seed in seeds[:1] if workload == "sweep" else seeds:
            rep = run_rep(workload, seed, "plain", 0, time.monotonic() + 170)
            bad = rep.get("setup_error") or [
                p for op in rep["ops"] for p in op["problems"]]
            if bad:
                print(f"{workload} seed {seed}: not recorded: {bad}",
                      file=sys.stderr)
                return 1
            key = "*" if workload == "sweep" else str(seed)
            golden.setdefault(workload, {})[key] = {
                op["label"]: op["sha256"] for op in rep["ops"]}
            print(f"{workload} seed {key}: recorded", file=sys.stderr)
            path.write_text(json.dumps(golden, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
