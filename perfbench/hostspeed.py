"""The host's speed, measured with a fixed piece of the benchmark's own work.

The benchmark runs on shared machines whose speed drifts by up to 1.7x for
minutes at a time, longer than one run, and in steps of seconds within it.
A reference loop shaped like the simulator's inner loop (a heap of timed
events, a dict of per-process state, small records appended to a log) is
timed after every few tens of milliseconds of measured work, and that work's
host time is rescaled to a host on which the loop takes ``REFERENCE_S``. The loop is
the benchmark's code, not seqsnap's, so a change to seqsnap cannot move it;
it runs with the collector off, so garbage seqsnap leaves behind cannot
either.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

REFERENCE_S = 0.010     # nominal seconds of one reference_loop()
EVENTS = 6000
PROCS = 15


def reference_loop() -> int:
    """A fixed event loop; returns its checksum so no step can be skipped."""
    heap = [(float(i % 97), i, i % PROCS) for i in range(PROCS * 8)]
    heapq.heapify(heap)
    state = {}
    log = []
    x = 12345
    for _ in range(EVENTS):
        t, seq, proc = heapq.heappop(heap)
        stamp = state.get(proc, 0) + 1
        state[proc] = stamp
        log.append((t, proc, stamp))
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (t + (x % 1000) / 100.0, seq, (proc + x) % PROCS))
    return sum(stamp for _, _, stamp in log) + len(state)


CHECKSUM = reference_loop()


def reference_time(repeats: int = 1) -> float:
    """Median time of `repeats` reference loops, in host seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            if reference_loop() != CHECKSUM:
                raise RuntimeError("the reference loop gave another result")
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def normalized(seconds: float, reference: float) -> float:
    """Host `seconds` measured next to a reference time of `reference`,
    rescaled to the nominal host."""
    return seconds * REFERENCE_S / reference
