"""Machine-speed reference for the end-to-end part.

The shared 2-CPU host this benchmark was built on runs at two or more
speeds that alternate over seconds to minutes, up to 1.8x apart, and the
same slowdown shows in CPU time, so no statistic over one run removes it.
Each child process is therefore bracketed by a fixed pure-Python
computation, independent of nchodge.  A job's wall time is scaled by
REFERENCE_S / (mean of the reference times just before and just after it):
the time the job would have taken with the machine at its reference speed.
Raw wall times are kept next to the scaled ones.

A child may run on any CPU this process may use, so the reference is timed
on each of them in turn: on two CPUs every before/after bracket holds one
sample of each.  Only the reference is pinned; between samples the process
gets its whole CPU set back, and the children inherit that.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

# reference_work() on the 2-CPU x86 host in its fast state, Python 3.11.
REFERENCE_S = 0.070


def reference_work():
    """Sparse row reduction of four fixed seeded matrices, two over Q and two
    over F_101: dict and Fraction/integer arithmetic, like the program's own
    hot loops, in code the program cannot change."""
    rng = random.Random(5)
    for p in (None, 101, None, 101):
        rows = [{rng.randrange(50): (Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                                     if p is None else rng.randrange(1, p))
                 for _ in range(6)} for _ in range(60)]
        while rows:
            row = min(rows, key=len)
            rows.remove(row)
            pc = min(row)
            inv = 1 / row[pc] if p is None else pow(row[pc], p - 2, p)
            row = {c: (v * inv if p is None else v * inv % p) for c, v in row.items()}
            for rd in rows:
                if pc in rd:
                    f = rd[pc]
                    for c, v in row.items():
                        s = rd.get(c, 0) - f * v
                        if p is not None:
                            s %= p
                        if s == 0:
                            rd.pop(c, None)
                        else:
                            rd[c] = s
            rows = [r for r in rows if r]


class SpeedProbe:
    """Times reference_work() between children, on each CPU of this
    process's set in turn, and converts wall times to reference-speed
    seconds."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        reference_work()                       # warm the allocator and caches
        self.samples: list = []
        self.sample_cpus: list = []
        self.last = self._sample()

    def _sample(self) -> float:
        cpu = self.cpus[len(self.samples) % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            start = time.perf_counter()
            reference_work()
            seconds = time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.samples.append(seconds)
        self.sample_cpus.append(cpu)
        return seconds

    def scale(self, wall_s: float) -> tuple[float, float, float]:
        """(reference-speed seconds, reference before, reference after) of a
        child; call right after the child exits, with its wall time."""
        before, self.last = self.last, self._sample()
        return wall_s * REFERENCE_S / ((before + self.last) / 2), before, self.last
