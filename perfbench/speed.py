"""How fast the CPU runs right now, for rescaling measured times.

Each vCPU of a shared VM switches between running fast and about 1.5x
slower, depending on what else its host core is doing, in phases of
seconds to minutes.  A median over the passes of one run then follows how
long that run spent slow.  So every time the benchmark reports is rescaled
to a reference speed: it is multiplied by ``REFERENCE_PROBE_S`` over the
duration of a fixed probe loop timed on the same CPU at the same moment.
Work that gets faster or slower in the program moves the rescaled time;
the machine getting slower for everything does not.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# Duration of ``probe()`` at full speed: about its fastest time on the
# 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest with Python 3.11.7 where
# the bounds in BENCHMARK.json were set.  It only fixes the unit of the
# rescaled times, so that they read about as the fast phase measures.
REFERENCE_PROBE_S = 0.00032
PROBE_EVERY_S = 0.02  # how often Sampler times the probe


def probe() -> dict:
    """The fixed probe loop: integer arithmetic and dict stores, like the
    library's inner loops."""
    table = {}
    x = 1
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 255] = x
    return table


def probe_s(repeat: int = 3) -> float:
    """The fastest of ``repeat`` timed probes, back to back."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - start)
    return best


def fastest_cpu() -> tuple[int | None, float]:
    """The CPU this process may use that runs the probe fastest right now,
    and that probe time.  A child pinned to it spends more of its pass at
    full speed.  Costs a few milliseconds."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, probe_s()
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = probe_s()
    finally:
        os.sched_setaffinity(0, cpus)
    cpu = min(speed, key=speed.get)
    return cpu, speed[cpu]


class Sampler(threading.Thread):
    """Times ``probe`` every ``PROBE_EVERY_S`` while the main thread works.

    Under the GIL the probe runs in place of the main thread, on the same
    CPU when the process is pinned to one, and costs it about 2% of its
    time.  Keeps (end, duration) of every probe.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.wait(PROBE_EVERY_S):
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def stop(self) -> None:
        self.halt.set()
        self.join()

    def mean_between(self, start: float, end: float) -> float | None:
        """Mean probe duration of the probes that ended in [start, end]."""
        durations = [d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(durations) if durations else None
