"""Machine-speed normalisation of the untraced timings.

On a shared 2-vCPU VM (the one the bounds were set on) the speed of
pure-Python work swings by about 1.5x, in phases lasting from a fraction
of a second to a few minutes, most likely as other tenants load the
sibling hardware threads.  A phase changes the wall and the CPU time of
the program alike, so neither clock alone gives a steady figure: medians
over a 28 s run moved by 20-30 % from one run to the next.

A Pace samples the speed while the program runs: an interval timer
interrupts the main thread every INTERVAL_S, and the signal handler
times a short fixed probe.  The probe does the kinds of work the program
does (tuple permutation products and set look-ups as in permgroup,
Fraction and big-integer arithmetic as in lattice, a small dict), so a
phase slows it about as much as it slows the program; a tight integer
loop slows only about half as much.  The time spent in probes is
subtracted from every measured interval, and the rest is scaled by the
mean of REF_S / probe time over the probes taken during it (plus one
just before and one just after).  The probes are spaced evenly in wall
time, so this is the interval's length at the speed where one probe
takes REF_S, about the typical speed of that VM.  The probe is fixed
code of the benchmark's own and never calls the program, so a change to
the program moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
# probe wall time at the reference speed (the median on the 2-vCPU VM
# the bounds were set on)
REF_S = 0.00035

# S5 acting on six points
_GENS = ((1, 2, 3, 4, 0, 5), (1, 0, 2, 3, 4, 5))
_BIG = 3 ** 1500
_MOD = 7 ** 900 + 2


def _probe() -> int:
    # forty elements of a permutation group, by products of tuples
    seen = {tuple(range(6))}
    frontier = list(seen)
    while frontier and len(seen) < 40:
        grown = []
        for x in frontier:
            for g in _GENS:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    f = Fraction(1, 3)
    for i in range(1, 6):
        f = f * Fraction(i, i + 2) + Fraction(1, i)
    t = Fraction(0)
    for i in range(1, 16):
        t += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2)
    x = _BIG
    for i in range(3):
        x = (x * _BIG + i) % _MOD
    d = {}
    for i in range(40):
        d[(i, i & 3)] = str(i)
    return len(seen) + f.denominator + t.denominator + (x & 1) + len(d)


class Pace:
    def __init__(self) -> None:
        # (wall, cpu) seconds of each probe
        self.samples: list[tuple[float, float]] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def probe(self) -> None:
        if self._busy:
            # a timer signal that arrived during a probe
            return
        self._busy = True
        # the probe frees all it allocates; with the collector off it
        # never pays for a collection of the program's objects
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        _probe()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if collecting:
            gc.enable()
        self.samples.append((wall, cpu))
        self.spent_wall += wall
        self.spent_cpu += cpu
        self._busy = False

    def start(self) -> "Pace":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float, float, float]:
        """Probe once, then note the clocks; pass to `scaled`."""
        self.probe()
        return (len(self.samples) - 1, self.spent_wall, self.spent_cpu,
                time.perf_counter(), time.process_time())

    def scaled(self, since: tuple) -> dict:
        """Wall and CPU seconds since `since`, without the probes, raw and
        at the reference speed; probes once more to close the interval."""
        wall, cpu = time.perf_counter(), time.process_time()
        first, spent_wall, spent_cpu, wall0, cpu0 = since
        raw_wall = wall - wall0 - (self.spent_wall - spent_wall)
        raw_cpu = cpu - cpu0 - (self.spent_cpu - spent_cpu)
        self.probe()
        taken = self.samples[first:]
        return {
            "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu,
            "wall_s": raw_wall * sum(REF_S / w for w, _ in taken)
            / len(taken),
            "cpu_s": raw_cpu * sum(REF_S / max(c, 1e-6) for _, c in taken)
            / len(taken),
            "probes": len(taken),
        }
