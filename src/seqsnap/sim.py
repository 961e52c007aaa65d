"""Seeded deterministic discrete-event network simulator.

Models n asynchronous processes over reliable FIFO channels with FIFO
broadcast: per ordered pair, delivery order equals send order; a process
receives its own broadcast copy instantly, before any other pending event of
its own; a process that crashes mid-broadcast reaches only a seeded subset of
recipients and takes no further transitions.

Identical configs (including seed) produce bit-identical histories, metrics
and stamp traces. Causal depth is accounted per message: a message sent from
an operation invocation starts a chain of length 1, a message sent while
handling message m extends m's chain by one, and an operation that completes
while handling m is charged m's chain length (0 if it completed at
invocation).
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush, heappop
from math import isfinite
from pathlib import Path

from . import abd, protocol
from .histories import OpRecord, history_lines
from .seqspec import READ, SNAPSHOT, WRITE

PRIO_SELF = 0   # own broadcast copies come before anything else at the same time
PRIO_MAIN = 1
EVENT_CAP = 1_000_000   # transitions after which a run stops, not quiescent


class ConfigError(Exception):
    """The run is rejected before it starts."""


# Delay models: validate() rejects bounds that are not finite or that admit a
# negative transit time; arrival() gives the delivery time of one remote copy
# sent at `now` during the sender's send_index-th broadcast, before the
# simulator's FIFO clamp.


@dataclass(frozen=True)
class AsyncDelay:
    """I.i.d. transit times drawn uniformly from [low, high]."""

    low: float = 0.5
    high: float = 8.0

    def validate(self) -> None:
        if not all(isfinite(b) and b >= 0 for b in (self.low, self.high)):
            raise ConfigError(f"async delay bounds {self.low},{self.high} "
                              f"must be finite and non-negative")

    def arrival(self, rng, now, sender, recipient, send_index):
        return now + rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class SyncDelay:
    """Transit times drawn from [latency - uncertainty, latency]."""

    latency: float = 5.0
    uncertainty: float = 2.0

    def validate(self) -> None:
        if not (isfinite(self.latency) and isfinite(self.uncertainty)
                and self.latency >= 0 and self.latency - self.uncertainty >= 0):
            raise ConfigError(f"sync delay {self.latency},{self.uncertainty} "
                              f"is not finite or allows negative transit times")

    def arrival(self, rng, now, sender, recipient, send_index):
        return now + rng.uniform(self.latency - self.uncertainty, self.latency)


@dataclass(frozen=True)
class ScriptedDelays:
    """Absolute delivery times keyed by (sender, nth broadcast of sender).

    Self copies stay instantaneous and need no entry. Every remote recipient
    of a scripted broadcast must be listed.
    """

    table: dict

    def validate(self) -> None:
        """Each channel must deliver a sender's broadcasts in the order they
        were sent. Transit times depend on when each broadcast is sent, so
        arrival() checks them one delivery at a time."""
        last = {}
        for (sender, index), row in sorted(self.table.items()):
            for recipient, at in row.items():
                if at < last.get((sender, recipient), at):
                    raise ConfigError(
                        f"scripted channel {sender}->{recipient} delivers "
                        f"broadcast {index} before an earlier one")
                last[(sender, recipient)] = at

    def arrival(self, rng, now, sender, recipient, send_index):
        try:
            at = self.table[(sender, send_index)][recipient]
        except KeyError:
            raise ConfigError(
                f"scripted delays missing broadcast {send_index} "
                f"of process {sender} to {recipient}") from None
        if at < now:
            raise ConfigError(
                f"scripted delivery at {at} precedes its send at {now}")
        return at


@dataclass(frozen=True)
class WorkItem:
    proc: int
    at: float
    action: str                 # "write" | "snapshot" | "read"
    value: int | None = None
    target: int | None = None
    object_id: int = 0


@dataclass(frozen=True)
class CrashSpec:
    """Kill a process at a time instant or during its k-th broadcast (1-based).

    recipients forces the surviving recipient subset of the truncated
    broadcast; when None the subset is drawn from the run's generator.
    """

    proc: int
    at_time: float | None = None
    on_send: int | None = None
    recipients: tuple[int, ...] | None = None


@dataclass
class SimConfig:
    n: int
    seed: int = 0
    protocol: str = "snapshot"          # "snapshot" | "abd"
    delay: object = AsyncDelay()
    workload: list = field(default_factory=list)
    crashes: list = field(default_factory=list)


@dataclass
class Metrics:
    messages_total: int = 0
    messages_per_update: dict = field(default_factory=dict)  # (obj, writer, stamp) -> sends
    messages_per_op: dict = field(default_factory=dict)      # (proc, seq) -> sends
    op_causal_depth: dict = field(default_factory=dict)      # (proc, seq) -> chain length
    quiescent: bool = True


@dataclass(frozen=True)
class MessageRecord:
    """One sent message; each of its deliveries refers to this record."""

    time: float
    sender: int
    payload: object
    chain: int
    recipients: tuple[int, ...]


@dataclass
class RunResult:
    config: SimConfig
    history: list
    metrics: Metrics
    vc_trace: list               # (proc, time, stamp vector) after every transition
    nodes: list
    message_log: list            # one record per send, in send order
    delivery_log: list           # (time, sender, to, payload), in processing order
    validation_log: list         # (proc, time, (writer, stamp)), on any object
    crashed: frozenset


class SnapshotNode:
    """One snapshot-memory instance per object id, dispatched by object id.

    A plain run uses object 0 only; a round-structured run uses one object
    per round, and a process keeps handling messages for rounds it has left.
    """

    actions = (WRITE, SNAPSHOT)

    def __init__(self, n, me, objects):
        self.states = [protocol.init(n, me, object_id=obj)
                       for obj in range(objects)]

    def invoke(self, item):
        state = self.states[item.object_id]
        if item.action == WRITE:
            return protocol.invoke_write(state, item.value)
        return protocol.invoke_snapshot(state)

    def receive(self, payload):
        return protocol.handle_message(self.states[payload.object_id], payload)

    def stamp_vector(self):
        # stamps of different objects are unrelated: no joint vector
        if len(self.states) == 1:
            return tuple(self.states[0].view_stamps)
        return None

    def view_stamps(self, object_id):
        return self.states[object_id].view_stamps

    def pending_empty(self):
        return all(not st.pending and st.deferred is None for st in self.states)


class AbdNode:
    actions = (WRITE, READ)

    def __init__(self, n, me, objects):
        if objects != 1:
            raise ConfigError("the register baseline runs on object 0 only")
        self.state = abd.init(n, me)

    def invoke(self, item):
        if item.action == WRITE:
            return abd.invoke_write(self.state, item.value)
        return abd.invoke_read(self.state, item.target)

    def receive(self, payload):
        return abd.handle_message(self.state, payload)

    def stamp_vector(self):
        return None

    def pending_empty(self):
        return self.state.phase is None


NODES = {"snapshot": SnapshotNode, "abd": AbdNode}


def validate_config(config: SimConfig) -> None:
    if config.n < 1:
        raise ConfigError("need at least one process")
    if config.protocol not in NODES:
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    config.delay.validate()
    budget = (config.n - 1) // 2
    if len(config.crashes) > budget:
        raise ConfigError(
            f"{len(config.crashes)} crashes exceed the budget of {budget} "
            f"for n={config.n}: fewer than half the processes may crash")
    seen_procs = set()
    crash_time = {}
    for crash in config.crashes:
        if not 0 <= crash.proc < config.n:
            raise ConfigError(f"crash of out-of-range process {crash.proc}")
        if crash.proc in seen_procs:
            raise ConfigError(f"process {crash.proc} crashes twice")
        seen_procs.add(crash.proc)
        if (crash.at_time is None) == (crash.on_send is None):
            raise ConfigError("crash needs exactly one of at_time / on_send")
        if crash.on_send is not None and crash.on_send < 1:
            raise ConfigError(f"crash on broadcast {crash.on_send}: "
                              f"broadcasts are counted from 1")
        if crash.recipients is not None and not all(
                0 <= r < config.n for r in crash.recipients):
            raise ConfigError(f"crash of process {crash.proc} forces "
                              f"out-of-range recipients {crash.recipients}")
        if crash.at_time is not None:
            crash_time[crash.proc] = crash.at_time
    actions = NODES[config.protocol].actions
    last_at = {}
    for item in config.workload:
        if not 0 <= item.proc < config.n:
            raise ConfigError(f"workload references out-of-range process {item.proc}")
        if item.object_id < 0:
            raise ConfigError(f"workload references negative object {item.object_id}")
        if item.action not in actions:
            raise ConfigError(f"{config.protocol} protocol cannot run "
                              f"action {item.action!r}")
        if item.action == WRITE and item.value is None:
            raise ConfigError(f"write by process {item.proc} has no value")
        if item.action == READ and (item.target is None
                                    or not 0 <= item.target < config.n):
            raise ConfigError(f"read by process {item.proc} targets "
                              f"out-of-range cell {item.target}")
        if item.proc in crash_time and item.at >= crash_time[item.proc]:
            raise ConfigError(
                f"workload schedules process {item.proc} at {item.at} "
                f"after its crash at {crash_time[item.proc]}")
        if item.at < last_at.get(item.proc, 0.0):
            raise ConfigError(f"workload times for process {item.proc} go backwards")
        last_at[item.proc] = item.at


class _Sim:
    def __init__(self, config: SimConfig):
        validate_config(config)
        self.config = config
        n = config.n
        objects = 1 + max((item.object_id for item in config.workload), default=0)
        self.rng = random.Random(f"net:{config.seed}")
        self.nodes = [NODES[config.protocol](n, me, objects) for me in range(n)]
        self.heap = []
        self.seq = itertools.count()
        self.alive = [True] * n
        self.current_op = [None] * n
        self.op_count = [0] * n
        self.send_count = [0] * n
        self.queues = [deque() for _ in range(n)]
        for item in config.workload:
            self.queues[item.proc].append(item)
        self.crash_on_send = {c.proc: c for c in config.crashes
                              if c.on_send is not None}
        self.last_arrival = {}
        self.history = []
        self.metrics = Metrics()
        self.vc_trace = []
        self.message_log = []
        self.delivery_log = []
        self.validation_log = []

    def _push(self, time, prio, kind, data):
        heappush(self.heap, (time, prio, next(self.seq), kind, data))

    def run(self) -> RunResult:
        config = self.config
        for proc, queue in enumerate(self.queues):
            if queue:
                self._push(queue[0].at, PRIO_MAIN, "invoke", proc)
        for crash in config.crashes:
            if crash.at_time is not None:
                self._push(crash.at_time, PRIO_MAIN, "crash", crash.proc)
        while self.heap:
            if len(self.delivery_log) + len(self.history) >= EVENT_CAP:
                self.metrics.quiescent = False
                break
            time, _prio, _seq, kind, data = heappop(self.heap)
            if kind == "crash":
                self.alive[data] = False
                continue
            if kind == "deliver":
                msg, to = data
                if not self.alive[to]:
                    continue
                self.delivery_log.append((time, msg.sender, to, msg.payload))
                eff = self.nodes[to].receive(msg.payload)
                self._after_transition(to, eff, msg.chain, time)
            elif kind == "invoke":
                proc = data
                if not self.alive[proc]:
                    continue
                assert self.current_op[proc] is None, \
                    "invocation while an op is mid-flight"
                item = self.queues[proc].popleft()
                rec = OpRecord(proc=proc, seq=self.op_count[proc],
                               kind=item.action, t_inv=time, value=item.value,
                               target=item.target, object_id=item.object_id,
                               run_seed=config.seed)
                self.op_count[proc] += 1
                self.history.append(rec)
                self.current_op[proc] = rec
                eff = self.nodes[proc].invoke(item)
                self._after_transition(proc, eff, 0, time)
        crashed = frozenset(p for p in range(config.n) if not self.alive[p])
        return RunResult(config=config, history=self.history,
                         metrics=self.metrics, vc_trace=self.vc_trace,
                         nodes=self.nodes, message_log=self.message_log,
                         delivery_log=self.delivery_log,
                         validation_log=self.validation_log, crashed=crashed)

    def _after_transition(self, proc, eff, cause_chain, now):
        chain = cause_chain + 1
        for payload in eff.broadcasts:
            if not self.alive[proc]:
                break
            recipients = self._broadcast_recipients(proc)
            self._send(proc, payload, recipients, chain, now)
        for payload, dest in eff.sends:
            if not self.alive[proc]:
                break
            self._send(proc, payload, (dest,), chain, now)
        if not self.alive[proc]:
            return
        for kind, value in eff.completions:
            self._complete(proc, kind, value, now, cause_chain)
        for key in eff.validated:
            self.validation_log.append((proc, now, key))
        vec = self.nodes[proc].stamp_vector()
        if vec is not None:
            self.vc_trace.append((proc, now, vec))

    def _arrival(self, sender, recipient, now):
        at = self.config.delay.arrival(self.rng, now, sender, recipient,
                                       self.send_count[sender])
        # reliable FIFO channel: never overtake an earlier message on this pair
        at = max(at, self.last_arrival.get((sender, recipient), 0.0))
        self.last_arrival[(sender, recipient)] = at
        return at

    def _broadcast_recipients(self, proc):
        """Everyone, or the surviving subset when the sender crashes during
        this broadcast (drawn before any arrival time of it)."""
        self.send_count[proc] += 1
        n = self.config.n
        crash = self.crash_on_send.get(proc)
        if crash is None or self.send_count[proc] != crash.on_send:
            return tuple(range(n))
        self.alive[proc] = False
        if crash.recipients is not None:
            return tuple(sorted(set(crash.recipients)))
        keep = self.rng.randint(0, n - 1)
        return tuple(sorted(self.rng.sample(range(n), keep)))

    def _send(self, proc, payload, recipients, chain, now):
        msg = MessageRecord(now, proc, payload, chain, recipients)
        for recipient in recipients:
            if recipient == proc:
                self._push(now, PRIO_SELF, "deliver", (msg, recipient))
            else:
                self._push(self._arrival(proc, recipient, now), PRIO_MAIN,
                           "deliver", (msg, recipient))
        self.message_log.append(msg)
        count = len(recipients)
        self.metrics.messages_total += count
        if isinstance(payload, protocol.UpdateMsg):
            key = (payload.object_id, payload.writer, payload.stamp)
            self.metrics.messages_per_update[key] = (
                self.metrics.messages_per_update.get(key, 0) + count)
        op_ref = getattr(payload, "op_ref", None)
        if op_ref is not None:
            self.metrics.messages_per_op[op_ref] = (
                self.metrics.messages_per_op.get(op_ref, 0) + count)

    def _complete(self, proc, kind, value, now, cause_chain):
        rec = self.current_op[proc]
        assert rec is not None and rec.kind == kind, "completion without invocation"
        rec.t_ret = now
        if kind in (SNAPSHOT, READ):
            rec.result = value
        self.metrics.op_causal_depth[(proc, rec.seq)] = cause_chain
        self.current_op[proc] = None
        if self.queues[proc]:
            self._push(max(self.queues[proc][0].at, now), PRIO_MAIN,
                       "invoke", proc)


def run_simulation(config: SimConfig) -> RunResult:
    """Execute the workload to quiescence (or EVENT_CAP transitions)."""
    return _Sim(config).run()


# ---------------------------------------------------------------------------
# run-level invariant checks


def vc_total_order_violations(vc_trace) -> list:
    """Pairs of stamp vectors (across all processes and times) that are
    incomparable under componentwise <=. Empty on every healthy run."""
    vectors = sorted({vec for (_proc, _time, vec) in vc_trace})
    bad = []
    for before, after in zip(vectors, vectors[1:]):
        if not all(a <= b for a, b in zip(before, after)):
            bad.append((before, after))
    return bad


def correct_original_updates(run: RunResult) -> list:
    """(object_id, writer, stamp) of every update whose initial broadcast was
    made by a process that never crashed in this run."""
    out = []
    for msg in run.message_log:
        payload = msg.payload
        if (isinstance(payload, protocol.UpdateMsg)
                and msg.sender == payload.writer
                and payload.sender == payload.writer
                and payload.relay_stamp == payload.stamp
                and payload.writer not in run.crashed):
            out.append((payload.object_id, payload.writer, payload.stamp))
    return out


def liveness_violations(run: RunResult) -> list:
    """(update, process) pairs where a correct process has not, at
    quiescence, caught up with an update broadcast by a correct process."""
    bad = []
    for obj, writer, stamp in correct_original_updates(run):
        for proc in range(run.config.n):
            if proc in run.crashed:
                continue
            stamps = run.nodes[proc].view_stamps(obj)
            if stamps[writer] < stamp:
                bad.append(((obj, writer, stamp), proc))
    return bad


def all_pending_empty(run: RunResult) -> bool:
    return all(node.pending_empty() for node in run.nodes)


# ---------------------------------------------------------------------------
# stable serializations (the CLI writes these files; determinism is tested
# byte-for-byte on them)


def metrics_document(metrics: Metrics, run_seed: int) -> str:
    doc = {
        "run_seed": run_seed,
        "messages_total": metrics.messages_total,
        "messages_per_update": {
            f"{obj}:{writer}:{stamp}": count
            for (obj, writer, stamp), count in metrics.messages_per_update.items()
        },
        "messages_per_op": {
            f"{proc}:{seq}": count
            for (proc, seq), count in metrics.messages_per_op.items()
        },
        "op_causal_depth": {
            f"{proc}:{seq}": depth
            for (proc, seq), depth in metrics.op_causal_depth.items()
        },
        "quiescent": metrics.quiescent,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def vc_trace_document(vc_trace, run_seed: int) -> str:
    doc = {
        "run_seed": run_seed,
        "samples": [[proc, time, list(vec)] for (proc, time, vec) in vc_trace],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def serialize_run(run: RunResult) -> dict:
    seed = run.config.seed
    return {
        "history": "".join(line + "\n" for line in history_lines(run.history)),
        "metrics": metrics_document(run.metrics, seed),
        "vctrace": vc_trace_document(run.vc_trace, seed),
    }


def write_run_files(run: RunResult, out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs = serialize_run(run)
    paths = []
    for name, doc in (("history.jsonl", docs["history"]),
                      ("metrics.json", docs["metrics"]),
                      ("vctrace.json", docs["vctrace"])):
        path = out / name
        path.write_text(doc)
        paths.append(path)
    return paths
