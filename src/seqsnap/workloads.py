"""Seeded workload and crash-schedule generators.

Written values encode (writer, write index) so that every value is unique
per writer; the checkers rely on that to resolve snapshot components back to
write versions.
"""

from __future__ import annotations

import random

from .seqspec import READ, SNAPSHOT, WRITE
from .sim import CrashSpec, WorkItem


def encode_value(proc: int, index: int) -> int:
    return (index + 1) * 1000 + proc


def _check_n(n: int) -> None:
    # sizes are plain ints, the rule validate_config applies to n: a bool
    # would count as 0 or 1, and randrange refuses a float
    if type(n) is not int or n < 1:
        raise ValueError(f"need a whole number of processes, at least one, "
                         f"got n={n!r}")


def _split_ops(n: int, ops: int) -> list[int]:
    """Operations per process; the first ops % n processes get one extra."""
    _check_n(n)
    if type(ops) is not int or ops < 0:
        raise ValueError(f"operation count must be a non-negative int, "
                         f"got {ops!r}")
    return [ops // n + (1 if p < ops % n else 0) for p in range(n)]


def random_workload(n: int, ops: int, seed: int,
                    snapshot_ratio: float = 0.45) -> list[WorkItem]:
    """Interleaved writes and snapshots with seeded think times. A zero gap
    now and then puts a write and its successor in the same instant, which
    exercises the postponement path."""
    rng = random.Random(f"workload:{seed}")
    per_proc = _split_ops(n, ops)
    items = []
    for proc in range(n):
        at = rng.uniform(0.0, 2.0)
        writes = 0
        for _ in range(per_proc[proc]):
            if rng.random() < snapshot_ratio:
                items.append(WorkItem(proc, at, SNAPSHOT))
            else:
                items.append(WorkItem(proc, at, WRITE,
                                      value=encode_value(proc, writes)))
                writes += 1
            gap = 0.0 if rng.random() < 0.3 else rng.uniform(0.3, 3.0)
            at += gap
    return items


def write_heavy_workload(n: int, ops: int, seed: int) -> list[WorkItem]:
    """Bursts of back-to-back writes closed by a snapshot: most writes land
    while the previous one is unconfirmed, stressing the write buffer."""
    rng = random.Random(f"write-heavy:{seed}")
    per_proc = _split_ops(n, ops)
    items = []
    for proc in range(n):
        at = rng.uniform(0.0, 2.0)
        writes = 0
        left = per_proc[proc]
        while left > 0:
            burst = min(left, rng.randint(2, 4))
            for _ in range(burst - 1):
                items.append(WorkItem(proc, at, WRITE,
                                      value=encode_value(proc, writes)))
                writes += 1
            items.append(WorkItem(proc, at, SNAPSHOT))
            left -= burst
            at += rng.uniform(0.5, 4.0)
    return items


def abd_workload(n: int, ops: int, seed: int) -> list[WorkItem]:
    """Even odds of a read of a random cell and a write of the caller's."""
    rng = random.Random(f"abd:{seed}")
    per_proc = _split_ops(n, ops)
    items = []
    for proc in range(n):
        at = rng.uniform(0.0, 2.0)
        writes = 0
        for _ in range(per_proc[proc]):
            if rng.random() < 0.5:
                items.append(WorkItem(proc, at, READ,
                                      target=rng.randrange(n)))
            else:
                items.append(WorkItem(proc, at, WRITE,
                                      value=encode_value(proc, writes)))
                writes += 1
            at += rng.uniform(0.3, 3.0)
    return items


def random_crashes(n: int, count: int, seed: int) -> list[CrashSpec]:
    """Up to `count` distinct processes crash, mostly mid-broadcast (a seeded
    recipient subset gets the truncated message), sometimes between
    transitions at a time instant. `count` must be within the crash budget:
    non-negative and below half of n."""
    _check_n(n)
    budget = (n - 1) // 2
    if type(count) is not int or not 0 <= count <= budget:
        raise ValueError(
            f"crash count must be an int between 0 and {budget} for n={n}: "
            f"fewer than half the processes may crash, got {count!r}")
    rng = random.Random(f"crashes:{seed}")
    how_many = rng.randint(0, count) if count else 0
    procs = rng.sample(range(n), how_many)
    crashes = []
    for proc in procs:
        if rng.random() < 0.75:
            crashes.append(CrashSpec(proc, on_send=rng.randint(1, 6)))
        else:
            crashes.append(CrashSpec(proc, at_time=rng.uniform(5.0, 40.0)))
    return crashes


def trim_for_crashes(workload: list[WorkItem],
                     crashes: list[CrashSpec]) -> list[WorkItem]:
    """Drop items a time-scheduled crash would make unrunnable; the config
    validator rejects workloads that still reference a dead process."""
    cutoff = {c.proc: c.at_time for c in crashes if c.at_time is not None}
    return [item for item in workload
            if item.proc not in cutoff or item.at < cutoff[item.proc]]
