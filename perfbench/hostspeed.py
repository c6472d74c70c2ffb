"""How fast the CPU runs right now, sampled while a study runs.

On a shared host other tenants slow the core a study runs on by up to 2x,
for stretches from a fraction of a second to minutes.  CPU time rises with
wall time, so the slowdown is contention for the core and its memory path,
not descheduling, and no statistic over the study's own times removes it: a
whole run can sit in one slow stretch.

`SpeedProbe` measures the slowdown as it happens.  A background thread of
the worker process wakes every `INTERVAL_S` and times a fixed piece of work
that does not use polyvem: `READS` reads at random positions of a list of
2**21 floats (64 MiB with the float objects), from an interpreted loop, so
nearly every read waits on memory.  The process is pinned to one CPU first,
so the probe and the study share a core.  `slowdown(t0, t1)` is the mean
probe time inside a window over `REFERENCE_S`.  A study's wall time divided
by its slowdown is its time at reference speed.  A change to polyvem cannot
move the probe, so it cannot move the divisor either.

Why this probe: over 200 s of back-to-back four-level squares studies, the
log of the study time rose 1.06 times as fast as the log of this probe's
time (correlation 0.96), and dividing by it cut the spread of the study
times from 0.125 to 0.053.  Probes whose data stay in cache (an arithmetic
loop, a pass over a small list, random reads within a few MiB) tracked
worse: the study slowed about twice as fast as they did.
"""

from __future__ import annotations

import os
import random
import threading
import time
from array import array

INTERVAL_S = 0.05
READS = 1000
VALUES = 1 << 21
# Typical probe time while a study runs on a quiet 2-core Xeon (Sapphire
# Rapids) KVM guest with Python 3.11.  It only sets the scale of the
# normalised times; comparisons between commits on one host do not depend
# on it.
REFERENCE_S = 6.0e-4


def resident_bytes() -> int:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def pin_to_one_cpu() -> int:
    """Pins this process, and the threads it starts later, to its first allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    def __init__(self):
        before = resident_bytes()
        rng = random.Random(0)
        self._values = [rng.random() for _ in range(VALUES)]
        self._offsets = array("L", (rng.randrange(VALUES) for _ in range(64 * READS)))
        # memory the probe keeps resident, to take out of the peak
        self.nbytes = resident_bytes() - before
        self._next = 0
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _work(self) -> float:
        # Python-level reads hold the GIL throughout, so no time spent
        # waiting for the study's thread is counted as slowness.
        start = self._next
        self._next = (start + READS) % (len(self._offsets) - READS)
        values, total = self._values, 0.0
        for offset in self._offsets[start:start + READS]:
            total += values[offset]
        return total

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            self._work()
            self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time in [t0, t1) over REFERENCE_S (1 = reference speed)."""
        inside = [s for start, s in self.samples if t0 <= start < t1]
        if not inside:
            raise RuntimeError(f"no speed sample in a {t1 - t0:.3f} s window")
        return sum(inside) / len(inside) / REFERENCE_S
