"""The crash-prone sweep configuration that the acceptance gate, the golden
digests and the protocol invariant checks all run: the two workload
generators alternate by seed, crashes use the full budget, and the workload
is trimmed to the crashes. Also the one snapshot mutant that the checker
cross-validation and the golden verdict digests judge, the digest of
everything a run leaves behind that the golden run digests and the C1 sweep
digest pin, and a seeded scheduler that drives the protocol's transitions in
any FIFO order, outside the simulator."""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import replace

from seqsnap import protocol
from seqsnap.histories import OpRecord
from seqsnap.seqspec import SNAPSHOT, WRITE
from seqsnap.sim import SimConfig, serialize_run
from seqsnap.workloads import (encode_value, random_crashes, random_workload,
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
    h.update(repr([(time, sender, to)
                   for time, sender, to, _payload in run.delivery_log]).encode())
    h.update(repr([(msg.time, msg.sender, msg.chain, msg.recipients)
                   for msg in run.message_log]).encode())
    h.update(repr(run.validation_log).encode())
    h.update(repr(sorted(run.crashed)).encode())
    return h.hexdigest()


def waiting_violations(history) -> list:
    """The paper's waiting claim, checked on one history: a write returns at
    its invocation, and a snapshot waits only when it directly follows a
    write of its own process. Returns the (proc, seq) of every completed op
    that waited otherwise."""
    previous = {}       # proc -> kind of its latest op so far
    bad = []
    for rec in history:     # invocation order, so each process's in seq order
        if (rec.t_ret is not None and rec.t_ret != rec.t_inv
                and (rec.kind == "write" or previous.get(rec.proc) != "write")):
            bad.append((rec.proc, rec.seq))
        previous[rec.proc] = rec.kind
    return bad


def mutate_history(history, n, rng):
    """Corrupt one completed snapshot component: another of the writer's
    values, the initial value, or garbage."""
    snaps = [rec for rec in history if rec.kind == "snapshot" and rec.completed]
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
                   if r.kind == "write" and r.proc == cell]
        choices = [0, 999_999] + written
        result = list(victim.result)
        result[cell] = rng.choice(choices)
        mutated.append(replace(rec, result=tuple(result)))
    return mutated


FIFO_NS = (2, 3, 4, 5, 6, 7)
FIFO_OPS_PER_PROC = 6


def fifo_schedule_run(n: int, seed: int, crashes: int = 0):
    """One run of the snapshot protocol's transitions under a seeded
    scheduler instead of the simulator. Each step is drawn uniformly from
    the enabled ones: a process with no op in flight invokes its next op,
    the oldest message on a nonempty channel is delivered, or a process
    marked to crash at a step crashes. So every channel, a process's channel
    to itself included, stays FIFO but may hold its messages arbitrarily
    long, where the simulator hands a sender its own copy first.

    Each process runs FIFO_OPS_PER_PROC seeded writes and snapshots.
    `crashes` processes, within the budget (n - 1) // 2, are marked to
    crash: three in four during a seeded broadcast of theirs (if they make
    that many), which then reaches a seeded subset of the processes, the
    rest at a step the scheduler draws. A crashed process takes no further
    step and receives nothing more. Times in the history are step numbers.

    Returns the history, the states and the set of crashed processes."""
    if not 0 <= crashes <= (n - 1) // 2:
        raise ValueError(f"{crashes} crashes for n={n}: the budget is "
                         f"0..{(n - 1) // 2}")
    rng = random.Random(f"fifo:{n}:{crashes}:{seed}")
    programs = []
    for proc in range(n):
        ops, writes = [], 0
        for _ in range(FIFO_OPS_PER_PROC):
            if rng.random() < 0.5:
                ops.append((WRITE, encode_value(proc, writes)))
                writes += 1
            else:
                ops.append((SNAPSHOT, None))
        programs.append(deque(ops))
    on_send = {}            # proc -> the broadcast, counted from 1, it dies in
    at_step = []            # processes the scheduler may crash at any step
    for proc in rng.sample(range(n), crashes):
        if rng.random() < 0.75:
            on_send[proc] = rng.randint(1, 3)
        else:
            at_step.append(proc)
    states = [protocol.init(n, me) for me in range(n)]
    channels = [[deque() for _ in range(n)] for _ in range(n)]
    busy = []               # (sender, recipient) of every nonempty channel
    alive = [True] * n
    sent = [0] * n
    in_flight = [None] * n
    history = []

    def crash(proc):
        alive[proc] = False
        busy[:] = [pair for pair in busy if pair[1] != proc]

    step = 0
    while True:
        starters = [proc for proc in range(n) if alive[proc]
                    and in_flight[proc] is None and programs[proc]]
        enabled = len(busy) + len(starters) + len(at_step)
        if not enabled:
            break
        pick = rng.randrange(enabled)
        step += 1
        if pick < len(busy):
            sender, proc = busy[pick]
            channel = channels[sender][proc]
            msg = channel.popleft()
            if not channel:
                busy[pick] = busy[-1]
                busy.pop()
            eff = protocol.handle_message(states[proc], msg)
        elif pick < len(busy) + len(starters):
            proc = starters[pick - len(busy)]
            seq = FIFO_OPS_PER_PROC - len(programs[proc])
            kind, value = programs[proc].popleft()
            rec = OpRecord(proc, seq, kind, step, value=value)
            history.append(rec)
            in_flight[proc] = rec
            if kind == WRITE:
                eff = protocol.invoke_write(states[proc], value)
            else:
                eff = protocol.invoke_snapshot(states[proc])
        else:
            crash(at_step.pop(pick - len(busy) - len(starters)))
            continue
        for msg in eff.broadcasts:
            sent[proc] += 1
            reached = range(n)
            if on_send.get(proc) == sent[proc]:
                reached = rng.sample(reached, rng.randint(0, n - 1))
                crash(proc)
            for recipient in reached:
                if alive[recipient]:
                    channel = channels[proc][recipient]
                    if not channel:
                        busy.append((proc, recipient))
                    channel.append(msg)
            if not alive[proc]:
                break
        if not alive[proc]:
            continue
        for kind, result in eff.completions:
            rec = in_flight[proc]
            rec.t_ret = step
            if kind == SNAPSHOT:
                rec.result = result
            in_flight[proc] = None
    crashed = {proc for proc in range(n) if not alive[proc]}
    return history, states, crashed
