"""The machine's own speed: a fixed pure-Python loop with no pdsat code in it.

Wall time on a shared machine drifts between fast and slow phases that last
from seconds to minutes, and a loop like the one below takes nearly twice as
long in a slow phase as in a fast one.  A workload run samples the loop between its analyses and scales
every time it reports to the loop's reference time (``REFERENCE_MS``), so two
runs in different phases stay comparable.  A change to pdsat cannot move the
loop: it touches no pdsat code, and the collector is off while it runs, so
the size of the program's heap does not reach it either.

    python3 bench/machine.py --seconds 15

prints the loop's median and quartiles over that many seconds; run it a few
times to see the machine's noise by itself.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from time import perf_counter

REFERENCE_MS = 20.0
SAMPLE_EVERY_S = 0.3
WINDOW_S = 1.5


def loop():
    """Tuples, a frozenset and a dict of sets: the kind of work pdsat does.
    Over 150 s of drifting machine speed, a pdsat task's time divided by this
    loop's varied about half as much as the task's time alone."""
    items = [(i % 1013, f"s{i % 211}", i) for i in range(15_000)]
    index = {}
    for a, b, c in items:
        index.setdefault((a, b), set()).add(c)
    return len(frozenset(items)) + len(index)


def time_loop() -> float:
    """One loop's time in ms, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop()
        return (perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Loop times sampled through a run, at most one per ``SAMPLE_EVERY_S``,
    each with the moment it was taken."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, loop ms)
        self._last = float("-inf")

    def sample(self, force=False):
        if force or perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append((perf_counter(), time_loop()))
            self._last = perf_counter()

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)

    def scale(self) -> float:
        """Factor taking a time measured during the run to reference speed."""
        return REFERENCE_MS / self.median_ms()

    def scale_over(self, start, end) -> float:
        """The same factor from the samples taken between ``WINDOW_S`` before
        ``start`` and ``WINDOW_S`` after ``end`` alone, since the machine's
        speed can change within a run."""
        near = [ms for at, ms in self.samples
                if start - WINDOW_S <= at <= end + WINDOW_S]
        return REFERENCE_MS / (statistics.median(near) if near else self.median_ms())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    times = []
    end = perf_counter() + args.seconds
    while perf_counter() < end:
        times.append(time_loop())
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"loops {len(times)}  median {q2:.2f} ms  q1 {q1:.2f}  q3 {q3:.2f}")


if __name__ == "__main__":
    main()
