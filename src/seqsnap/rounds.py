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

from . import checker, workloads
from .checker import (Verdict, check_sc_brute, check_sc_fast,
                      contains_process_order, replay_legal)
from .histories import OpRecord, op_id
from .seqspec import SNAPSHOT, WRITE
from .sim import (ConfigError, RunResult, SimConfig, WorkItem,
                  run_simulation)


class DisciplineError(checker.CheckRefusal):
    """The history is not round-structured; no consistency verdict applies."""


@dataclass
class RoundConfig:
    n: int
    rounds: int
    seed: int = 0
    crashes: list = field(default_factory=list)

    def __post_init__(self):
        # before round_workload's range() sees them; SimConfig checks n's value
        if type(self.n) is not int:
            raise ConfigError(f"need a whole number of processes, not {self.n!r}")
        if type(self.rounds) is not int or self.rounds < 1:
            raise ConfigError(f"need a whole number of rounds, at least one, "
                              f"not {self.rounds!r}")


def round_workload(config: RoundConfig) -> list[WorkItem]:
    """Per process and round: one write, then one snapshot, on the round's
    object, with seeded think times."""
    rng = random.Random(f"rounds:{config.seed}")
    items = []
    for proc in range(config.n):
        at = rng.uniform(0.0, 2.0)
        for obj in range(config.rounds):
            items.append(WorkItem(proc, at, WRITE,
                                  value=workloads.encode_value(proc, obj),
                                  object_id=obj))
            at += rng.uniform(0.0, 2.0)
            items.append(WorkItem(proc, at, SNAPSHOT, object_id=obj))
            at += rng.uniform(0.0, 2.0)
    return items


def run_rounds(config: RoundConfig) -> RunResult:
    workload = workloads.trim_for_crashes(round_workload(config), config.crashes)
    return run_simulation(SimConfig(n=config.n, seed=config.seed,
                                    workload=workload,
                                    crashes=list(config.crashes)))


def check_discipline(queues: list[list[OpRecord]]) -> None:
    """Refuse a process order (checker._check_ops's queues) in which a
    process returns to an earlier object."""
    for queue in queues:
        for before, after in zip(queue, queue[1:]):
            if after.object_id < before.object_id:
                raise DisciplineError(
                    f"process {after.proc} operates on object "
                    f"{after.object_id} after object {before.object_id}")


def check_composition(history: list[OpRecord], n: int) -> Verdict:
    """Accept iff some total order containing the process orders projects to
    a legal word on every object; built by splicing per-object witnesses in
    round order and verifying the splice by replay. The entry check runs on
    the whole history, since its rules hold across objects."""
    queues = checker._check_ops(history, n)
    check_discipline(queues)
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
    # a witness holds every op that returned, and may leave a cut-off write out
    included = [rec for queue in queues for rec in queue
                if rec.completed or rec in spliced]
    if contains_process_order(spliced, included) and replay_legal(spliced, n):
        return Verdict(True, witness=[op_id(rec) for rec in spliced])
    return check_sc_brute(history, n)   # entry and round rules hold already
