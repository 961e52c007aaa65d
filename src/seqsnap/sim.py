"""Seeded deterministic discrete-event network simulator.

Models n asynchronous processes over reliable FIFO channels with FIFO
broadcast: per ordered pair, delivery order equals send order; a process
receives its own broadcast copy instantly, before any other pending event of
its own; a process that crashes mid-broadcast reaches only a seeded subset of
recipients and takes no further transitions. run_fifo runs the same
transitions with every channel, the self channel too, held for any steps.

Identical configs (including seed) produce bit-identical histories, metrics
and stamp traces. Causal depth is accounted per message: a message sent from
an operation invocation starts a chain of length 1, a message sent while
handling message m extends m's chain by one, and an operation that completes
while handling m is charged m's chain length (0 if it completed at
invocation).

validate_config refuses a config before any event runs unless every time
it gives is a time (histories.is_time), its delays cannot carry a run past
the largest time, and the record it builds of each work item, the one the
run invokes, passes the trace rule (histories.trace_error): so a run writes
only what the trace reader reads back.
"""

from __future__ import annotations

import gc
import itertools
import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush, heappop
from pathlib import Path
from typing import NamedTuple

from . import abd, protocol
from .histories import (OpRecord, compact_json, history_lines, is_time,
                        trace_error)
from .seqspec import READ, SNAPSHOT, WRITE

EVENT_CAP = 1_000_000   # transitions after which a run stops, not quiescent
CRASH = object()        # heap payload of a crash at a time instant


class ConfigError(Exception):
    """The run is rejected before it starts."""


# Delay models: validate() rejects a bound or delivery time that is not a
# time (histories.is_time, the trace format's rule, since times reach the
# trace) and a negative or reversed transit range; arrival() gives the
# delivery time of one remote copy sent at `now` during the sender's
# send_index-th broadcast, before the simulator's FIFO clamp.


@dataclass(frozen=True)
class AsyncDelay:
    """I.i.d. transit times drawn uniformly from [low, high]."""

    low: float = 0.5
    high: float = 8.0

    def validate(self) -> None:
        if not (is_time(self.low) and is_time(self.high)
                and 0 <= self.low <= self.high):
            raise ConfigError(f"delay range [{self.low!r}, {self.high!r}] "
                              f"must be times with 0 <= low <= high")

    def arrival(self, rng, now, sender, recipient, send_index):
        # Random.uniform's own formula, inlined: the same floats, one frame
        # fewer per remote copy
        return now + (self.low + (self.high - self.low) * rng.random())


def SyncDelay(latency: float = 5.0, uncertainty: float = 2.0) -> AsyncDelay:
    """Transit times drawn from [latency - uncertainty, latency]: the
    synchronous model, where only the uncertainty u of a latency range
    [d - u, d] matters."""
    return AsyncDelay(latency - uncertainty, latency)


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
                if not is_time(at):
                    raise ConfigError(f"scripted delivery time {at!r} of "
                                      f"broadcast {index} of process {sender} "
                                      f"is not a time")
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


class WorkItem(NamedTuple):
    proc: int
    at: float
    action: str                 # "write" | "snapshot" | "read"
    value: int | None = None
    target: int | None = None
    object_id: int = 0


class CrashSpec(NamedTuple):
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


class MessageRecord(NamedTuple):
    """One sent message, and the object whose state sent it. Each delivery
    names this record and goes to the recipient's state of that object."""

    time: float
    sender: int
    payload: object
    chain: int
    recipients: tuple[int, ...]
    object_id: int


@dataclass
class RunResult:
    config: SimConfig
    history: list
    metrics: Metrics
    # (proc, time, stamp vector) after every transition; the vector is the
    # state's own view_stamps tuple, which only a rising stamp replaces
    vc_trace: list
    states: list                 # states[proc][object_id]: each process state
    message_log: list            # one MessageRecord per send, in send order
    delivery_log: list           # (time, to, record), in processing order
    validation_log: list         # (proc, time, (writer, stamp)), on any object
    crashed: frozenset


# The one map from a protocol name to the module whose functions drive a
# process state, and the workload actions that module can invoke.
PROTOCOLS = {"snapshot": (protocol, (WRITE, SNAPSHOT)),
             "abd": (abd, (WRITE, READ))}


def validate_config(config: SimConfig) -> list[list[OpRecord]]:
    """Each process's queue of its work items' records, in seq order (see
    _Sim); ConfigError for a config no run may start from."""
    # plain ints: n sizes every table, and the seed is written to the history
    # as a JSON integer, which the trace reader requires
    if type(config.n) is not int or config.n < 1:
        raise ConfigError(f"need a whole number of processes, at least one, "
                          f"not {config.n!r}")
    if type(config.seed) is not int:
        raise ConfigError(f"run seed {config.seed!r} is not an int")
    if config.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    if not (callable(getattr(config.delay, "validate", None))
            and callable(getattr(config.delay, "arrival", None))):
        raise ConfigError(f"delay {config.delay!r} is not a delay model: "
                          f"it needs validate() and arrival()")
    config.delay.validate()
    for name, records in (("workload", config.workload),
                          ("crashes", config.crashes)):
        if not isinstance(records, (list, tuple)):
            raise ConfigError(f"{name} {records!r} is not a list or tuple")
    budget = (config.n - 1) // 2
    if len(config.crashes) > budget:
        raise ConfigError(
            f"{len(config.crashes)} crashes exceed the budget of {budget} "
            f"for n={config.n}: fewer than half the processes may crash")
    seen_procs = set()
    crash_time = {}
    for crash in config.crashes:
        # records, not bare tuples: a tuple of the right length would be
        # read field by field whatever its entries mean
        if not isinstance(crash, CrashSpec):
            raise ConfigError(f"crash {crash!r} is not a CrashSpec")
        # plain ints, as for workload ids: a float on_send would never fire
        if type(crash.proc) is not int or not 0 <= crash.proc < config.n:
            raise ConfigError(f"crash of out-of-range process {crash.proc!r}")
        if crash.proc in seen_procs:
            raise ConfigError(f"process {crash.proc} crashes twice")
        seen_procs.add(crash.proc)
        if (crash.at_time is None) == (crash.on_send is None):
            raise ConfigError("crash needs exactly one of at_time / on_send")
        if crash.on_send is not None and (type(crash.on_send) is not int
                                          or crash.on_send < 1):
            raise ConfigError(f"crash on broadcast {crash.on_send!r}: "
                              f"broadcasts are counted from 1")
        if crash.recipients is not None and not (
                isinstance(crash.recipients, (tuple, list))
                and all(type(r) is int and 0 <= r < config.n
                        for r in crash.recipients)):
            raise ConfigError(f"crash of process {crash.proc} forces recipients "
                              f"{crash.recipients!r}, not ints in 0..{config.n - 1}")
        if crash.at_time is not None:
            if not is_time(crash.at_time):
                raise ConfigError(f"crash of process {crash.proc} at "
                                  f"{crash.at_time!r}, not a time")
            crash_time[crash.proc] = crash.at_time
    module, actions = PROTOCOLS[config.protocol]
    queues = [[] for _ in range(config.n)]
    for item in config.workload:
        if not isinstance(item, WorkItem):
            raise ConfigError(f"workload entry {item!r} is not a WorkItem")
        proc, at, action, value, target, object_id = item
        if action not in actions:
            raise ConfigError(f"{config.protocol} protocol cannot run "
                              f"action {action!r}")
        # the trace rule judges the item's record (a bool id or value would
        # be written as true/false); seq is set once proc names a queue
        rec = OpRecord(proc, 0, action, at, None, value, None, target,
                       object_id, config.seed)
        error = trace_error(rec, config.n)
        if error is not None:
            raise ConfigError(f"malformed workload item ({error}): {item!r}")
        if object_id and module is abd:
            raise ConfigError("the register baseline runs on object 0 only")
        if proc in crash_time and at >= crash_time[proc]:
            raise ConfigError(
                f"workload schedules process {proc} at {at} "
                f"after its crash at {crash_time[proc]}")
        queue = queues[proc]
        if at < (queue[-1].t_inv if queue else 0.0):
            raise ConfigError(f"workload times for process {proc} go backwards")
        rec.seq = len(queue)
        queue.append(rec)
    # A transition's copies arrive at most one transit after it, so no run's
    # time passes the latest workload time plus EVENT_CAP transits (scripted
    # times are all given); the factor leaves room for the sums' rounding.
    latest = max((queue[-1].t_inv for queue in queues if queue), default=0)
    if isinstance(config.delay, AsyncDelay) and not is_time(
            (latest + EVENT_CAP * float(config.delay.high)) * (1 + 1e-9)):
        raise ConfigError(f"{EVENT_CAP} transits of up to {config.delay.high!r}"
                          f" after time {latest!r} pass the largest time")
    return queues


class _Sim:
    """One run: a heap of events processed in (time, seq) order, and a queue
    of own broadcast copies that goes before it.

    Each heap entry is (time, seq, proc, msg). msg is the MessageRecord that
    `proc` receives, None for the invocation of `proc`'s next op, or CRASH
    for `proc`'s crash at a time instant. seq counts pushes, so two events
    at the same time run in the order they were scheduled, and the
    comparison never reaches proc or msg.

    A sender receives its own copy of a broadcast at the instant it sends
    it, before any other event at that instant. So own_copies holds the
    MessageRecords of those copies in send order, each delivered to its
    sender at its send time, and the loop drains it before popping the
    heap: no heap entry is earlier than the transition that sent a copy,
    and every copy still queued was sent by that or an earlier transition.

    queues[proc] holds the records validate_config built of proc's items.
    A queued record's t_inv is its earliest start, until _invoke sets it.
    """

    def __init__(self, config: SimConfig):
        self.queues = list(map(deque, validate_config(config)))
        self.config = config
        n = config.n
        objects = 1 + max((item.object_id for item in config.workload), default=0)
        self.rng = random.Random(f"net:{config.seed}")
        self.arrival = config.delay.arrival
        self.module = PROTOCOLS[config.protocol][0]
        # states[proc][object_id]; a process keeps handling the messages of
        # round objects it has left
        self.states = [[self.module.init(n, me) for _ in range(objects)]
                       for me in range(n)]
        self.heap = []
        self.own_copies = deque()
        self.next_seq = itertools.count().__next__
        self.everyone = tuple(range(n))
        # the recipients of a directed send, one shared tuple per process
        self.only = tuple((dest,) for dest in range(n))
        self.alive = [True] * n
        self.current_op = [None] * n
        self.send_count = [0] * n
        self.crash_on_send = [None] * n
        for crash in config.crashes:
            if crash.on_send is not None:
                self.crash_on_send[crash.proc] = crash
        # last_arrival[sender][recipient]: latest delivery time on that channel
        self.last_arrival = [[0.0] * n for _ in range(n)]
        self.history = []
        self.metrics = Metrics()
        # Stamp vectors are traced only where one joint vector exists: in a
        # run of the snapshot memory on one object (stamps of different
        # objects are unrelated).
        self.traced = self.module is protocol and objects == 1
        self.vc_trace = []
        self.message_log = []
        self.delivery_log = []
        self.validation_log = []

    def run(self) -> RunResult:
        for proc, queue in enumerate(self.queues):
            if queue:
                self._ready(proc, queue[0].t_inv)
        # A run makes no reference cycles, so reference counting frees all it
        # drops; the cyclic collector would only rescan its live logs.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        finally:
            if collecting:
                gc.enable()

    def _run(self) -> RunResult:
        config = self.config
        heap, next_seq, alive = self.heap, self.next_seq, self.alive
        own_copies = self.own_copies
        next_own_copy = own_copies.popleft
        # Deliveries call the protocol's handler on the recipient's state of
        # the record's object (its one state, unless the run spans several).
        # The handler is read from its module once per run, so a handler
        # patched before the run sees every delivery.
        handle = self.module.handle_message
        by_object = len(self.states[0]) > 1
        targets = [states if by_object else states[0] for states in self.states]
        log_delivery = self.delivery_log.append
        after_transition = self._after_transition
        traced = self.traced
        log_sample = self.vc_trace.append
        nothing = protocol.NOTHING
        for crash in config.crashes:
            if crash.at_time is not None:
                heappush(heap, (crash.at_time, next_seq(), crash.proc, CRASH))
        cap = EVENT_CAP
        events = 0      # transitions so far: deliveries and invocations
        while heap or own_copies:
            if events >= cap:
                self.metrics.quiescent = False
                break
            if own_copies:
                msg = next_own_copy()
                time, proc = msg.time, msg.sender
            else:
                time, _seq, proc, msg = heappop(heap)
                if msg is CRASH:
                    alive[proc] = False
                    continue
            if not alive[proc]:
                continue
            events += 1
            if msg is None:
                self._invoke(proc, time)
            else:
                log_delivery((time, proc, msg))
                state = targets[proc]
                if by_object:
                    state = state[msg.object_id]
                eff = handle(state, msg.payload)
                if eff is not nothing:
                    after_transition(proc, msg.object_id, eff, msg.chain, time)
            # Sample the stamps as the transition left them: a reading of the
            # state, not of the effect, so that a stamp changed without a
            # validation shows. A transition cut short by its sender's crash
            # is not sampled.
            if traced and alive[proc]:
                log_sample((proc, time, targets[proc].view_stamps))
        return self._result()

    def _result(self) -> RunResult:
        self._count_messages()
        crashed = frozenset(p for p, live in enumerate(self.alive) if not live)
        return RunResult(config=self.config, history=self.history,
                         metrics=self.metrics, vc_trace=self.vc_trace,
                         states=self.states, message_log=self.message_log,
                         delivery_log=self.delivery_log,
                         validation_log=self.validation_log, crashed=crashed)

    def _invoke(self, proc, now):
        assert self.current_op[proc] is None, \
            "invocation while an op is mid-flight"
        rec = self.queues[proc].popleft()
        rec.t_inv = now
        self.history.append(rec)
        self.current_op[proc] = rec
        # each function is read from the run's module at call time, so a
        # patched one sees every invocation
        module, obj, kind = self.module, rec.object_id, rec.kind
        state = self.states[proc][obj]
        if kind == WRITE:
            eff = module.invoke_write(state, rec.value)
        elif kind == SNAPSHOT:
            eff = module.invoke_snapshot(state)
        else:
            eff = module.invoke_read(state, rec.target)
        self._after_transition(proc, obj, eff, 0, now)

    def _after_transition(self, proc, obj, eff, cause_chain, now):
        chain = cause_chain + 1
        for payload in eff.broadcasts:
            recipients = self._broadcast_recipients(proc)
            self._send(proc, obj, payload, recipients, chain, now)
            # a broadcast is the only send a crash cuts short
            if not self.alive[proc]:
                return
        for payload, dest in eff.sends:
            self._send(proc, obj, payload, self.only[dest], chain, now)
        for kind, value in eff.completions:
            self._complete(proc, kind, value, now, cause_chain)
        for key in eff.validated:
            self.validation_log.append((proc, now, key))

    def _broadcast_recipients(self, proc):
        """Everyone, or the surviving subset when the sender crashes during
        this broadcast (drawn before any arrival time of it)."""
        self.send_count[proc] += 1
        crash = self.crash_on_send[proc]
        if crash is None or self.send_count[proc] != crash.on_send:
            return self.everyone
        self.alive[proc] = False
        if crash.recipients is not None:
            return tuple(sorted(set(crash.recipients)))
        n = self.config.n
        keep = self.rng.randint(0, n - 1)
        return tuple(sorted(self.rng.sample(range(n), keep)))

    def _send(self, proc, obj, payload, recipients, chain, now):
        # tuple.__new__ builds the record without the Python frame of the
        # NamedTuple's generated __new__: one frame fewer per send
        msg = tuple.__new__(MessageRecord,
                            (now, proc, payload, chain, recipients, obj))
        heap, next_seq, rng, arrival = (self.heap, self.next_seq, self.rng,
                                        self.arrival)
        last_arrival = self.last_arrival[proc]
        send_index = self.send_count[proc]
        for recipient in recipients:
            if recipient == proc:
                self.own_copies.append(msg)
                continue
            at = arrival(rng, now, proc, recipient, send_index)
            # reliable FIFO channel: never overtake an earlier message on it
            if at < last_arrival[recipient]:
                at = last_arrival[recipient]
            else:
                last_arrival[recipient] = at
            heappush(heap, (at, next_seq(), recipient, msg))
        self.message_log.append(msg)

    def _count_messages(self):
        """Fill the message counts from message_log, the record of every
        send: each send counts its recipients (none, for a broadcast cut off
        by its sender's crash before any copy) towards its update or, for a
        baseline message, its operation, keyed in order of first send."""
        metrics = self.metrics
        per_update = metrics.messages_per_update
        per_op = metrics.messages_per_op
        update_msg = protocol.UpdateMsg
        total = 0
        for msg in self.message_log:
            count = len(msg.recipients)
            total += count
            payload = msg.payload
            if type(payload) is update_msg:
                key = (msg.object_id, payload.writer, payload.stamp)
                per_update[key] = per_update.get(key, 0) + count
                continue
            op_ref = getattr(payload, "op_ref", None)
            if op_ref is not None:
                per_op[op_ref] = per_op.get(op_ref, 0) + count
        metrics.messages_total = total

    def _complete(self, proc, kind, value, now, cause_chain):
        rec = self.current_op[proc]
        assert rec is not None and rec.kind == kind, "completion without invocation"
        rec.t_ret = now
        if kind in (SNAPSHOT, READ):
            rec.result = value
        self.metrics.op_causal_depth[(proc, rec.seq)] = cause_chain
        self.current_op[proc] = None
        queue = self.queues[proc]
        if queue:
            self._ready(proc, max(queue[0].t_inv, now))

    def _ready(self, proc, at):
        """`proc`, alive with no op in flight, may invoke its next item from
        time `at` on."""
        heappush(self.heap, (at, self.next_seq(), proc, None))


def run_simulation(config: SimConfig) -> RunResult:
    """Execute the workload to quiescence (or EVENT_CAP transitions)."""
    return _Sim(config).run()


class _FifoSim(_Sim):
    """A run in any FIFO order. Every copy, the sender's own included, waits
    on its channel, and each step is drawn uniformly from the enabled ones:
    deliver the head of a nonempty channel, invoke the next item of a live
    process with no op in flight, or crash a process that has an at_time
    crash. Times are step numbers, so a config's times only order each
    process's items. All else is _Sim's, whose heap stays empty.
    """

    def __init__(self, config: SimConfig):
        super().__init__(config)
        n = config.n
        self.channels = [[deque() for _ in range(n)] for _ in range(n)]
        self.busy = []      # (sender, recipient) of every nonempty channel
        self.starters = []  # the processes that may invoke, ascending

    def _ready(self, proc, at):
        insort(self.starters, proc)

    def _send(self, proc, obj, payload, recipients, chain, now):
        msg = MessageRecord(now, proc, payload, chain, recipients, obj)
        for recipient in recipients:
            # a crashed process receives nothing more
            if self.alive[recipient]:
                channel = self.channels[proc][recipient]
                if not channel:
                    self.busy.append((proc, recipient))
                channel.append(msg)
        self.message_log.append(msg)

    def _run(self) -> RunResult:
        rng, alive, busy, states = self.rng, self.alive, self.busy, self.states
        starters = self.starters
        handle, nothing = self.module.handle_message, protocol.NOTHING
        traced = self.traced
        at_time = [crash.proc for crash in self.config.crashes
                   if crash.at_time is not None]
        step = events = 0   # steps, and the transitions among them
        while True:
            delivering, starting = len(busy), len(busy) + len(starters)
            enabled = starting + len(at_time)
            if not enabled:
                break
            if events >= EVENT_CAP:
                self.metrics.quiescent = False
                break
            pick = rng.randrange(enabled)
            step += 1
            # deliveries and invocations are transitions; a crash is not
            events += pick < starting
            if pick < delivering:
                sender, proc = busy[pick]
                channel = self.channels[sender][proc]
                msg = channel.popleft()
                if not channel:
                    busy[pick] = busy[-1]
                    busy.pop()
                self.delivery_log.append((step, proc, msg))
                eff = handle(states[proc][msg.object_id], msg.payload)
                if eff is not nothing:
                    self._after_transition(proc, msg.object_id, eff,
                                           msg.chain, step)
            elif pick < starting:
                proc = starters.pop(pick - delivering)
                self._invoke(proc, step)
            else:
                proc = at_time.pop(pick - starting)
                alive[proc] = False
            if not alive[proc]:     # it crashed in this step
                busy[:] = [pair for pair in busy if pair[1] != proc]
                if proc in starters:
                    starters.remove(proc)
            elif traced:
                self.vc_trace.append((proc, step, states[proc][0].view_stamps))
        return self._result()


def run_fifo(config: SimConfig) -> RunResult:
    """Execute the workload in any FIFO order (_FifoSim), to quiescence or
    EVENT_CAP transitions (deliveries and invocations, as in run_simulation)."""
    return _FifoSim(config).run()


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
    made by a process that never crashed in this run. A process never relays
    its own update, so a copy its writer sent is the initial broadcast."""
    out = []
    for msg in run.message_log:
        payload = msg.payload
        if (isinstance(payload, protocol.UpdateMsg)
                and payload.sender == payload.writer
                and payload.writer not in run.crashed):
            out.append((msg.object_id, payload.writer, payload.stamp))
    return out


def liveness_violations(run: RunResult) -> list:
    """(update, process) pairs where a correct process has not, at
    quiescence, caught up with an update broadcast by a correct process."""
    bad = []
    for obj, writer, stamp in correct_original_updates(run):
        for proc in range(run.config.n):
            if proc in run.crashed:
                continue
            if run.states[proc][obj].view_stamps[writer] < stamp:
                bad.append(((obj, writer, stamp), proc))
    return bad


def all_pending_empty(run: RunResult) -> bool:
    idle = PROTOCOLS[run.config.protocol][0].idle
    return all(idle(state) for states in run.states for state in states)


# ---------------------------------------------------------------------------
# stable serializations (the CLI writes these files; determinism is tested
# byte-for-byte on them)


def history_document(history) -> str:
    """The history file: one record_to_json line per op, in invocation
    order, each ending in a newline."""
    lines = history_lines(history)
    return "\n".join(lines) + "\n" if lines else ""


def metrics_document(metrics: Metrics, run_seed: int) -> str:
    """The run's counts as compact_json writes them; the key of a count is
    its tuple's ints joined by colons."""
    return compact_json({
        "messages_per_op": {f"{proc}:{seq}": count for (proc, seq), count
                            in metrics.messages_per_op.items()},
        "messages_per_update": {f"{obj}:{writer}:{stamp}": count
                                for (obj, writer, stamp), count
                                in metrics.messages_per_update.items()},
        "messages_total": metrics.messages_total,
        "op_causal_depth": {f"{proc}:{seq}": depth for (proc, seq), depth
                            in metrics.op_causal_depth.items()},
        "quiescent": metrics.quiescent,
        "run_seed": run_seed,
    }) + "\n"


def vc_trace_document(vc_trace, run_seed: int) -> str:
    """The text compact_json writes for {"run_seed": run_seed, "samples":
    [[proc, time, list(vec)], ...]}, built faster: each sample is three
    pieces, the cached `,[proc,` of its process, its time, and the cached
    `,[...]]` of its vector. So each distinct vector is encoded once, and a
    sample that repeats the previous sample's time or vector object reuses
    its text (about half the samples of a sweep run repeat the time: a self
    copy runs at its send's instant). Process ids are ints, and a time, an
    exact int or float (histories.is_time), is written as its repr, which
    is what json writes."""
    prefixes = {}
    suffixes = {}
    parts = []
    extend = parts.extend
    last_vec = last_suffix = last_time = last_text = None
    for proc, time, vec in vc_trace:
        prefix = prefixes.get(proc)
        if prefix is None:
            prefix = prefixes[proc] = f",[{proc},"
        if vec is not last_vec:
            last_vec = vec
            last_suffix = suffixes.get(vec)
            if last_suffix is None:
                last_suffix = suffixes[vec] = f",{compact_json(list(vec))}]"
        if time is not last_time:
            last_time = time
            last_text = repr(time)
        extend((prefix, last_text, last_suffix))
    if parts:
        parts[0] = parts[0][1:]     # the first sample has no comma before it
    return (f'{{"run_seed":{compact_json(run_seed)},'
            f'"samples":[{"".join(parts)}]}}\n')


def serialize_run(run: RunResult) -> dict:
    seed = run.config.seed
    return {
        "history": history_document(run.history),
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
