"""Round-structured executions: one fresh snapshot-memory object per round.

Processes advance through asynchronous rounds at their own pace; each round
uses its own protocol instance and a process never returns to an earlier
round's object. All instances share one network: a process keeps handling
(and relaying) messages for every object, including rounds it has left, so
other processes' validation is unaffected.

The composed history is accepted when a single total order containing every
process order projects to a legal word on each object; with per-round
acceptance and the round discipline, splicing the per-object witnesses in
round order is such an order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from . import workloads
from .checker import (Verdict, check_sc_brute, check_sc_fast,
                      contains_process_order, replay_legal)
from .histories import OpRecord, op_id
from .seqspec import SNAPSHOT, WRITE
from .sim import AsyncDelay, RunResult, SimConfig, WorkItem, run_simulation


class DisciplineError(Exception):
    """The history is not round-structured; no consistency verdict applies."""


@dataclass
class RoundConfig:
    n: int
    rounds: int
    seed: int = 0
    writes_per_round: int = 1
    snapshots_per_round: int = 1
    crashes: list = field(default_factory=list)
    delay: object = AsyncDelay()
    event_cap: int = 1_000_000


def round_workload(config: RoundConfig) -> list[WorkItem]:
    """Per process: writes_per_round writes then snapshots_per_round
    snapshots on each round's object, with seeded think times."""
    if config.rounds < 1:
        raise ValueError(f"need at least one round, got {config.rounds}")
    if config.writes_per_round < 0 or config.snapshots_per_round < 0:
        raise ValueError("per-round operation counts must be non-negative")
    rng = random.Random(f"rounds:{config.seed}")
    items = []
    for proc in range(config.n):
        at = rng.uniform(0.0, 2.0)
        write_index = 0
        for obj in range(config.rounds):
            for _ in range(config.writes_per_round):
                value = workloads.encode_value(proc, write_index)
                write_index += 1
                items.append(WorkItem(proc, at, WRITE, value=value,
                                      object_id=obj))
                at += rng.uniform(0.0, 2.0)
            for _ in range(config.snapshots_per_round):
                items.append(WorkItem(proc, at, SNAPSHOT, object_id=obj))
                at += rng.uniform(0.0, 2.0)
    return items


def run_rounds(config: RoundConfig) -> RunResult:
    workload = workloads.trim_for_crashes(round_workload(config), config.crashes)
    sim_config = SimConfig(n=config.n, seed=config.seed, protocol="snapshot",
                           delay=config.delay, workload=workload,
                           crashes=list(config.crashes),
                           event_cap=config.event_cap)
    return run_simulation(sim_config)


def check_discipline(history: list[OpRecord]) -> None:
    last = {}
    for rec in sorted(history, key=lambda r: (r.proc, r.seq)):
        if rec.object_id < last.get(rec.proc, 0):
            raise DisciplineError(
                f"process {rec.proc} operates on object {rec.object_id} "
                f"after object {last[rec.proc]}")
        last[rec.proc] = rec.object_id


def check_composition(history: list[OpRecord], n: int,
                      brute_bound: int = 10) -> Verdict:
    """Accept iff some total order containing the process orders projects to
    a legal word on every object; built by splicing per-object witnesses in
    round order and verifying the splice by replay."""
    check_discipline(history)
    objects = sorted({rec.object_id for rec in history})
    id_to_record = {op_id(rec): rec for rec in history}
    spliced = []
    for obj in objects:
        sub = [rec for rec in history if rec.object_id == obj]
        verdict = check_sc_fast(sub, n)
        if not verdict.accepted:
            verdict.reason = f"object {obj}: {verdict.reason}"
            return verdict
        spliced.extend(id_to_record[i] for i in verdict.witness)
    included = [rec for rec in history
                if rec.kind == WRITE or rec.completed]
    if contains_process_order(spliced, included) and replay_legal(spliced, n):
        return Verdict(True, witness=[op_id(rec) for rec in spliced])
    return check_composition_brute(history, n, bound=brute_bound)


def check_composition_brute(history: list[OpRecord], n: int,
                            bound: int = 10) -> Verdict:
    """Exhaustive composed check: the interleaving search already folds one
    register array per object id."""
    check_discipline(history)
    return check_sc_brute(history, n, bound=bound)
