"""Round-structured executions: one fresh snapshot-memory object per round.

Processes advance through asynchronous rounds at their own pace; each round
uses its own protocol instance and a process never returns to an earlier
round's object. All instances share one network: a process keeps handling
(and relaying) messages for every object, including rounds it has left, so
other processes' validation is unaffected.

The composed history is accepted when a single total order containing every
process order projects to a legal word on each object; with per-round
acceptance and the round discipline, splicing the per-object witnesses in
round order is such an order (check_composition's docstring proves it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from . import checker, workloads
# check_sc_brute is not called here; perfbench's tracer wraps it by this name
from .checker import Verdict, check_sc_brute, check_sc_fast
from .histories import OpRecord
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
    a legal word on every object, or return the first object's rejection,
    named. The entry check and the round rule run on the whole history,
    since their rules hold across objects.

    The per-object witnesses spliced in object order are such an order, so
    the splice is not replayed: each witness, structural or exhaustive (when
    a writer wrote 0), is legal on its object, whose state is its own, and
    holds that object's process orders; and the round rule keeps each
    process's object ids nondecreasing, so the splice holds every process
    order."""
    check_discipline(checker._check_ops(history, n))
    by_object = {}
    for rec in history:
        by_object.setdefault(rec.object_id, []).append(rec)
    witness = []
    for obj in sorted(by_object):
        verdict = check_sc_fast(by_object[obj], n)
        if not verdict.accepted:
            verdict.reason = f"object {obj}: {verdict.reason}"
            return verdict
        witness += verdict.witness
    return Verdict(True, witness=witness)
