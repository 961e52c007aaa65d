"""Per-process state machine of the sequentially consistent snapshot memory.

Writes are zero-latency: they either FIFO-broadcast a freshly stamped update,
or, while an earlier update of ours is still unconfirmed, overwrite a one-slot
buffer that is flushed as soon as that earlier update validates. Snapshots
return the local validated view once it holds our latest write, which is
outstanding from the instant it is broadcast, so the transitions are correct
in any per-channel FIFO order, self channel included.

Every process relays the first message it sees for an update, attaching a
fresh stamp of its own. An update validates once a strict majority of
processes have stamped it and no update that must be ordered before it is
still blocked; validating folds the value into the local view.

A state is one process of one object, and the module never learns which:
the simulator routes each message to the state of the object that sent it,
and names the process that sent it, as a FIFO channel names its sender.

Each state is single-owner: transitions mutate the passed state in place
(the view and its stamps are tuples that a validation replaces, so snapshot
results and trace samples share them), return the Effect they ask of the
network (the shared, immutable NOTHING when they ask nothing), and are meant
to be applied sequentially per process (the simulator enforces this).
Distinct states may be driven concurrently; the module keeps no shared
mutable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .seqspec import SNAPSHOT, WRITE

INF = float("inf")


class UpdateMsg(NamedTuple):
    """Relay of one update. (writer, stamp) identifies the update globally.

    relay_stamp is the stamp attached by the process that sent this copy,
    which handle_message is given; for the writer's own initial broadcast it
    equals the update stamp. The protocol builds it with tuple.__new__,
    without the Python frame of the generated __new__.
    """

    value: int
    writer: int
    stamp: int
    relay_stamp: int


@dataclass
class PendingUpdate:
    """A not-yet-validated update, kept under its (writer, stamp) key, with
    the relay stamps learned so far.

    seen[j] is the stamp p_j attached when relaying this update, INF until a
    message from p_j arrives. The order in which one process stamped two
    updates is what the dependency relation below is computed from.

    known counts the finite stamps in seen, and ahead[key] counts the
    processes that stamped this update before the pending update `key`
    (unknown stamps, INF, never count as earlier). handle_message keeps both
    current, so a receipt costs O(|pending|) instead of rescanning every
    pair of updates.
    """

    value: int
    seen: list[float]
    known: int = 0
    ahead: dict = field(default_factory=dict)


@dataclass(slots=True)
class Effect:
    """What one transition asks of the outside world.

    broadcasts go to all n processes (self included), sends are directed
    (used only by the register baseline). completions carry (op kind,
    return value) for the at most one operation finishing in this
    transition. validated lists the (writer, stamp) pairs folded into the
    view, for observability.

    Most receipts ask for nothing, so a transition allocates an Effect only
    once it has something to put in it, and otherwise returns NOTHING: the
    one shared empty Effect, whose fields are empty tuples so that an append
    to it raises. Callers may test `eff is NOTHING` to skip it.
    """

    broadcasts: list = field(default_factory=list)
    sends: list = field(default_factory=list)
    completions: list = field(default_factory=list)
    validated: list = field(default_factory=list)


NOTHING = Effect((), (), (), ())


@dataclass
class ProcState:
    """One process's state of one object. An own update is in flight while
    view_stamps[me] < written, and it is then the one own entry in pending."""

    me: int
    n: int
    view: tuple[int, ...]         # last validated value per writer
    view_stamps: tuple[int, ...]  # stamp the writer attached to view[j], 0 if none
    clock: int = 0           # bumped on every broadcast; stamps are unique per process
    pending: dict = field(default_factory=dict)  # (writer, stamp) -> PendingUpdate
    written: int = 0         # stamp of our latest own broadcast, 0 if none
    deferred: int | None = None                  # newest write waiting for an older one
    snapshot_pending: bool = False


def init(n: int, me: int) -> ProcState:
    if not 0 <= me < n:
        raise ValueError(f"process id {me} out of range for n={n}")
    return ProcState(me=me, n=n, view=(0,) * n, view_stamps=(0,) * n)


def idle(state: ProcState) -> bool:
    """True when nothing is in flight: no update awaits validation here and
    no write is buffered."""
    return not state.pending and state.deferred is None


def _broadcast_own(state: ProcState, eff: Effect, value: int) -> None:
    state.clock += 1
    state.written = state.clock
    eff.broadcasts.append(tuple.__new__(UpdateMsg, (
        value, state.me, state.clock, state.clock)))
    _admit(state, (state.me, state.clock), value)


def invoke_write(state: ProcState, value: int) -> Effect:
    """Write to our own cell; completes immediately in both branches."""
    eff = Effect(completions=[(WRITE, None)])
    if state.view_stamps[state.me] < state.written:
        # Only the newest postponed write survives; an overwritten one still
        # counts as an operation and lands just before its overwriter in any
        # witness order.
        state.deferred = value
    else:
        _broadcast_own(state, eff, value)
    return eff


def invoke_snapshot(state: ProcState) -> Effect:
    """Snapshot the array; immediate unless our view lacks our latest write."""
    if state.view_stamps[state.me] < state.written:
        state.snapshot_pending = True
        return NOTHING
    return Effect(completions=[(SNAPSHOT, state.view)])


def _clear_closure(pending: dict, key: tuple, n: int) -> set | None:
    """The keys the entry at `key` reaches over depends-on edges, `key`
    included, or None as soon as it reaches an entry short of a majority of
    stamps. An entry x waits on o until a strict majority is known to have
    stamped x before o, i.e. while x.ahead[o] * 2 <= n. The entry at `key`
    itself is not tested."""
    reached = {key}
    stack = [pending[key]]
    while stack:
        for other, count in stack.pop().ahead.items():
            if count * 2 <= n and other not in reached:
                entry = pending[other]
                if entry.known * 2 <= n:
                    return None
                reached.add(other)
                stack.append(entry)
    return reached


def compute_validable(pending: dict, n: int) -> list:
    """Keys of updates that may validate now: the union of the clear
    closures of the majority-stamped entries, so exactly the majority-stamped
    entries from which every entry reached over depends-on edges is
    majority-stamped too. Reads the counts kept on each entry; the tests
    state the same relation on the stamps themselves. An entry already in
    the union is skipped, as its closure lies inside it."""
    ready = set()
    for key, entry in pending.items():
        if entry.known * 2 > n and key not in ready:
            reached = _clear_closure(pending, key, n)
            if reached is not None:
                ready |= reached
    return sorted(ready)


def _admit(state: ProcState, key: tuple, value: int) -> PendingUpdate:
    """Add an update with no stamp yet, and return its entry: it is ahead of
    no other entry, and each other entry is ahead of it at every stamp that
    entry has. Like _retire, it keeps the books whoever wrote the update."""
    pending = state.pending
    entry = PendingUpdate(value, [INF] * state.n,
                          ahead=dict.fromkeys(pending, 0))
    for other in pending.values():
        other.ahead[key] = other.known
    pending[key] = entry
    return entry


def _record_stamp(state: ProcState, key: tuple, j: int, stamp: int) -> None:
    """Learn p_j's stamp on the entry at `key`, where seen[j] is still INF.

    p_j sends one copy of each update, so each seen[j] is set exactly once.
    The entry moves ahead of every entry that p_j stamped later or not yet.
    An entry that p_j stamped later, whose copy overtook this one (which a
    FIFO channel never does), loses its lead over this entry.
    """
    pending = state.pending
    entry = pending[key]
    entry.seen[j] = stamp
    entry.known += 1
    ahead = entry.ahead
    for other_key, other in pending.items():
        theirs = other.seen[j]
        if stamp < theirs:  # never true of the entry itself
            ahead[other_key] += 1
            if theirs < INF:
                other.ahead[key] -= 1


def _retire(state: ProcState, key: tuple) -> PendingUpdate:
    """Drop a validated entry, whoever wrote it, and the counts against it."""
    pending = state.pending
    entry = pending.pop(key)
    for other in pending.values():
        del other.ahead[key]
    return entry


def handle_message(state: ProcState, sender: int, msg: UpdateMsg) -> Effect:
    """Process one update message delivered from process `sender`.

    A stale copy (of an already-validated update) changes nothing. Any other
    copy records its sender's stamp on the update's entry `e`, and the
    validation pass runs only when `e` is then majority-stamped and its
    closure is clear: the pass's own test for `e`. Skipping it otherwise is
    exact, because every transition leaves the state closed (the pass would
    return []). A new entry is stamped by no one and only adds a constraint,
    and a stamp on `e` only removes depends-on edges out of `e`, adds edges
    into `e` and raises no other entry's `known`. So an entry that does not
    reach `e` reaches the same entries as before and is still not validable,
    and an entry that reaches `e` is validable only if `e` is: the pass
    returns something exactly when it returns `e`.
    """
    eff = NOTHING
    value, writer, stamp, relay_stamp = msg
    if stamp > state.view_stamps[writer]:
        key = (writer, stamp)
        pending = state.pending
        entry = pending.get(key)
        if entry is None:
            # first sighting of someone else's update (ours has an entry
            # from its send until it validates): relay it stamped
            state.clock += 1
            eff = Effect([tuple.__new__(UpdateMsg, (
                value, writer, stamp, state.clock))])
            entry = _admit(state, key, value)
        # Record only the sender's stamp. The writer's own stamp must come
        # from the writer's copy: a relay says nothing about the order the
        # writer saw concurrent updates.
        _record_stamp(state, key, sender, relay_stamp)
        n = state.n
        if entry.known * 2 > n and _clear_closure(pending, key, n) is not None:
            validable = compute_validable(pending, n)
            # the pass finds at least `key`
            if eff is NOTHING:
                eff = Effect()
            # copy the view at most once, and only if a stamp rises
            stamps, view = state.view_stamps, None
            for key in validable:
                value = _retire(state, key).value
                writer, stamp = key
                if stamps[writer] < stamp:
                    if view is None:
                        stamps, view = list(stamps), list(state.view)
                    stamps[writer] = stamp
                    view[writer] = value
                eff.validated.append(key)
            if view is not None:
                state.view_stamps, state.view = tuple(stamps), tuple(view)
            if state.view_stamps[state.me] >= state.written:
                # flush a buffered write, which a waiting snapshot waits on
                if state.deferred is not None:
                    _broadcast_own(state, eff, state.deferred)
                    state.deferred = None
                elif state.snapshot_pending:
                    state.snapshot_pending = False
                    eff.completions.append((SNAPSHOT, state.view))
    return eff
