"""The reference loop that benchmark timings are read against.

This module imports only the standard library, so a set-up probe can time
the loop in a fresh interpreter before it imports goeritz2.
"""

from __future__ import annotations

import signal
import statistics
import time

# setup_s is reported as seconds at this reference-loop time, about what a
# fresh interpreter measured on the machine the baseline was taken on
REFERENCE_S = 0.002


def reference_loop() -> int:
    """Fixed pure-Python yardstick of ~1 ms: int tuples into a dict, then a sort.

    Costs are read in units of it, which cancels most of the speed drift of a
    shared machine.  It does the kind of work the library does (small int
    tuples, dict lookups, sorting).  Changing it changes the unit of
    `wall_ref` and `setup_s`, so it must stay as it is.
    """
    pairs = [((i * 7919) % 10007, i % 31) for i in range(3000)]
    seen: dict[tuple[int, int], int] = {}
    for key in pairs:
        seen[key] = seen.get(key, 0) + 1
    pairs.sort()
    return len(seen)


def reference_time() -> float:
    """Median time of three reference loops (the first after other work runs
    with cold caches)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Times the reference loop every TICK_S seconds while a pass runs.

    The samples come from a SIGALRM handler, so they also land inside long
    operations.  `wall_ref` divides the time between consecutive samples by
    the mean reference time of the two, which reads the pass in units of the
    reference loop and cancels most of a shared machine's speed drift.
    `busy_s` is the time the samples took; it is not part of the workload.
    """

    TICK_S = 0.5

    def __init__(self) -> None:
        self.marks: list[tuple[float, float, float]] = []  # start, end, reference
        self.busy_s = 0.0

    def sample(self, *_) -> None:
        start = time.perf_counter()
        ref = reference_time()
        end = time.perf_counter()
        self.marks.append((start, end, ref))
        self.busy_s += end - start

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def wall_ref(self) -> float:
        return sum(2 * (s1 - e0) / (r0 + r1)
                   for (_, e0, r0), (s1, _, r1) in zip(self.marks, self.marks[1:]))
