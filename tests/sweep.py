"""The crash-prone sweep configuration that the acceptance gate, the golden
digests and the protocol invariant checks all run: the two workload
generators alternate by seed, crashes use the full budget, and the workload
is trimmed to the crashes. Also the one snapshot mutant that the checker
cross-validation and the golden verdict digests judge, the replay of an
accepted witness that the checker tests assert, the digest of
everything a run leaves behind that the golden run digests and the C1 sweep
digest pin, the configs of the runs that sim.run_fifo drives in any FIFO
order, the simulator without its FIFO clamp that the non-FIFO gate runs, the
simulator and configs with half the processes crashing that the half-crash
gate runs, and the composed runs of the golden verdict digests.
seqsnap.gates judges their runs."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from heapq import heappush

from seqsnap import sim
from seqsnap.checker import contains_process_order, replay_legal
from seqsnap.histories import op_id
from seqsnap.rounds import RoundConfig
from seqsnap.seqspec import SNAPSHOT, WRITE
from seqsnap.sim import CrashSpec, MessageRecord, SimConfig, serialize_run
from seqsnap.workloads import (random_crashes, random_workload,
                               trim_for_crashes, write_heavy_workload)

SWEEP_NS = (2, 3, 5, 7)
# The protocol's thresholds (known * 2 > n, ahead * 2 <= n) differ from "at
# least half" only at even n, and SWEEP_NS's one even n, 2, has no crash
# budget. The even-n gate runs these apart from SWEEP_NS, so that the C1
# sweep keeps its definition and its digest.
EVEN_NS = (4, 6)
OPS_PER_RUN = 40


def sweep_config(n: int, seed: int) -> SimConfig:
    generate = write_heavy_workload if seed % 2 else random_workload
    crashes = random_crashes(n, (n - 1) // 2, seed)
    workload = trim_for_crashes(generate(n, OPS_PER_RUN, seed), crashes)
    return SimConfig(n=n, seed=seed, workload=workload, crashes=crashes)


def run_digest(run) -> str:
    """SHA-256 of the serialized documents, the delivery and send order, the
    validation log and the crashed set of one run."""
    h = hashlib.sha256()
    docs = serialize_run(run)
    for name in ("history", "metrics", "vctrace"):
        h.update(docs[name].encode())
    h.update(repr((len(run.delivery_log), len(run.message_log))).encode())
    h.update(repr([(time, msg.sender, to)
                   for time, to, msg in run.delivery_log]).encode())
    h.update(repr([(msg.time, msg.sender, msg.chain, msg.recipients)
                   for msg in run.message_log]).encode())
    h.update(repr(run.validation_log).encode())
    h.update(repr(sorted(run.crashed)).encode())
    return h.hexdigest()


def assert_witness_holds(verdict, history, n, realtime=False):
    """An accepted witness replays legally and holds, in process order (and
    in real-time order if asked), every op that returned plus whichever
    cut-off writes it placed."""
    by_id = {op_id(r): r for r in history}
    witness = [by_id[i] for i in verdict.witness]
    assert replay_legal(witness, n)
    included = [r for r in history
                if r.completed or (r.kind == WRITE and op_id(r) in verdict.witness)]
    assert contains_process_order(witness, included)
    assert not realtime or not any(
        later.completed and later.t_ret < earlier.t_inv
        for k, earlier in enumerate(witness) for later in witness[k + 1:])


def mutate_history(history, n, rng):
    """Corrupt one completed snapshot component: another of the writer's
    values, the initial value, or garbage."""
    snaps = [rec for rec in history if rec.kind == SNAPSHOT and rec.completed]
    if not snaps:
        return None
    victim = rng.choice(snaps)
    mutated = []
    for rec in history:
        if rec is not victim:
            mutated.append(rec)
            continue
        cell = rng.randrange(n)
        written = [r.value for r in history
                   if r.kind == WRITE and r.proc == cell]
        choices = [0, 999_999] + written
        result = list(victim.result)
        result[cell] = rng.choice(choices)
        mutated.append(replace(rec, result=tuple(result)))
    return mutated


FIFO_NS = (2, 3, 4, 5, 6, 7)
FIFO_OPS_PER_PROC = 6


def fifo_crash_case(seed: int) -> tuple:
    """(n, crashes) of the crash-injected any-FIFO run with this seed: n
    cycles through FIFO_NS above 2, and crashes through 1..(n - 1) // 2."""
    n = FIFO_NS[1 + seed % (len(FIFO_NS) - 1)]
    return n, 1 + seed % ((n - 1) // 2)


def fifo_config(n: int, seed: int, crashes: int = 0) -> SimConfig:
    """The config of one sim.run_fifo run: FIFO_OPS_PER_PROC seeded writes
    and snapshots per process, and `crashes` processes, within the budget
    (n - 1) // 2, marked to crash: three in four during one of their first
    three broadcasts (if they make that many), the rest at a time after
    their last item, which run_fifo lets its scheduler reach at any step."""
    workload = random_workload(n, FIFO_OPS_PER_PROC * n, seed,
                               snapshot_ratio=0.5)
    last_at = {item.proc: item.at for item in workload}
    rng = random.Random(f"fifo:{n}:{crashes}:{seed}")
    specs = []
    for proc in rng.sample(range(n), crashes):
        if rng.random() < 0.75:
            specs.append(CrashSpec(proc, on_send=rng.randint(1, 3)))
        else:
            specs.append(CrashSpec(proc, at_time=last_at[proc] + 1))
    return SimConfig(n=n, seed=seed, workload=workload, crashes=specs)


class NonFifoSim(sim._Sim):
    """The simulator with each channel's FIFO clamp taken out: a copy arrives
    at its drawn time, so it may overtake an earlier copy on its channel.
    This breaks the paper's model; the non-FIFO gate shows what it costs."""

    def _send(self, proc, obj, payload, recipients, chain, now):
        msg = MessageRecord(now, proc, payload, chain, recipients, obj)
        send_index = self.send_count[proc]
        for recipient in recipients:
            if recipient == proc:
                self.own_copies.append(msg)
                continue
            at = self.arrival(self.rng, now, proc, recipient, send_index)
            heappush(self.heap, (at, self.next_seq(), recipient, msg))
        self.message_log.append(msg)


class HalfCrashSim(sim._Sim):
    """The simulator with the crash budget lifted: validate_config, which
    allows fewer than half the processes to crash, judges the config without
    its crashes, and the run then takes them all. This breaks the paper's
    majority assumption; the half-crash gate shows what it costs."""

    def __init__(self, config):
        super().__init__(replace(config, crashes=[]))
        self.config = config
        for crash in config.crashes:
            if crash.on_send is not None:
                self.crash_on_send[crash.proc] = crash


HALF_CRASH_NS = (2, 4, 6)


def half_crash_config(n: int, seed: int) -> SimConfig:
    """The config of one half-crash run at even n: n/2 seeded processes
    crash, three in four during one of their first three broadcasts (if
    they make that many), the rest at a time in [5, 40]; the workload is
    random_workload's 40 ops, trimmed to the crashes."""
    rng = random.Random(f"half:{n}:{seed}")
    crashes = []
    for proc in rng.sample(range(n), n // 2):
        if rng.random() < 0.75:
            crashes.append(CrashSpec(proc, on_send=rng.randint(1, 3)))
        else:
            crashes.append(CrashSpec(proc, at_time=rng.uniform(5, 40)))
    workload = trim_for_crashes(random_workload(n, OPS_PER_RUN, seed), crashes)
    return SimConfig(n=n, seed=seed, workload=workload, crashes=crashes)


def golden_round_config(seed: int) -> RoundConfig:
    """The composed run with this seed (0..9) whose history and mutants the
    golden verdict digests judge: n = 2 or 3, one to three rounds, and at
    n = 3 one crash during a broadcast."""
    n = (2, 3)[seed % 2]
    crashes = [CrashSpec(seed % n, on_send=1 + seed % 5)] if n > 2 else []
    return RoundConfig(n=n, rounds=1 + seed % 3, seed=seed, crashes=crashes)
