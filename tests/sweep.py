"""The crash-prone sweep configuration that the acceptance gate, the golden
digests and the protocol invariant checks all run: the two workload
generators alternate by seed, crashes use the full budget, and the workload
is trimmed to the crashes."""

from __future__ import annotations

from seqsnap.sim import SimConfig
from seqsnap.workloads import (random_crashes, random_workload,
                               trim_for_crashes, write_heavy_workload)

SWEEP_NS = (2, 3, 5, 7)
OPS_PER_RUN = 40


def sweep_config(n: int, seed: int) -> SimConfig:
    generate = write_heavy_workload if seed % 2 else random_workload
    crashes = random_crashes(n, (n - 1) // 2, seed)
    workload = trim_for_crashes(generate(n, OPS_PER_RUN, seed), crashes)
    return SimConfig(n=n, seed=seed, workload=workload, crashes=crashes)
