"""Majority-quorum emulation of single-writer registers (comparison baseline).

After Attiya, Bar-Noy & Dolev, every operation is built from two quorum
phases. A query asks every process for its (value, tag) of one register and
waits for replies from a strict majority. A propagate sends a (value, tag)
pair; each process adopts it if it is newer than its own and acks, and the
phase ends at acks from a strict majority. A write is one propagate of a
freshly stamped value. A read is a query, then a propagate of the largest
pair it saw, and then it returns that value. Both operation kinds block,
unlike the snapshot protocol's zero-latency writes.

State is single-owner and driven by the same simulator as the snapshot
protocol, which names each message's sender, as a FIFO channel does: replies
go back to it, and a phase counts one reply per sender. Transitions reuse
the Effect container, and its shared empty NOTHING, from `protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .protocol import NOTHING, Effect
from .seqspec import READ, WRITE


class Tag(NamedTuple):
    """Write version tag, totally ordered by (stamp, writer)."""

    stamp: int
    writer: int


class QueryMsg(NamedTuple):
    reg: int
    op_ref: tuple


class QueryReply(NamedTuple):
    value: int
    tag: Tag
    op_ref: tuple


class PropagateMsg(NamedTuple):
    reg: int
    value: int
    tag: Tag
    op_ref: tuple


class Ack(NamedTuple):
    op_ref: tuple


@dataclass
class Phase:
    """The one operation in flight at a process: a read while it queries, or
    a write or read while it propagates (value, tag) to register reg."""

    kind: str                # WRITE or READ: what completes after the propagate
    reg: int
    op_ref: tuple            # (process, local op index); replies echo it
    querying: bool
    value: int = 0
    replies: dict = field(default_factory=dict)  # sender -> (tag, value) or None


@dataclass
class AbdState:
    me: int
    n: int
    values: list[int]
    tags: list[Tag]
    write_stamp: int = 0     # stamps our own writes
    ops_started: int = 0     # local op index, used to attribute messages
    phase: Phase | None = None  # None when no operation is in flight


def init(n: int, me: int) -> AbdState:
    if not 0 <= me < n:
        raise ValueError(f"process id {me} out of range for n={n}")
    return AbdState(me=me, n=n, values=[0] * n,
                    tags=[Tag(0, j) for j in range(n)])


def idle(state: AbdState) -> bool:
    """True when no operation is in flight at this process."""
    return state.phase is None


def _begin(state: AbdState, kind: str, reg: int, querying: bool) -> Phase:
    assert state.phase is None, "operations are sequential per process"
    state.phase = Phase(kind, reg, (state.me, state.ops_started), querying)
    state.ops_started += 1
    return state.phase


def _propagate(state: AbdState, eff: Effect, value: int, tag: Tag) -> None:
    """Move the operation in flight to its propagate phase for (value, tag)."""
    phase = state.phase
    phase.querying, phase.value, phase.replies = False, value, {}
    eff.broadcasts.append(PropagateMsg(phase.reg, value, tag, phase.op_ref))


def invoke_write(state: AbdState, value: int) -> Effect:
    eff = Effect()
    _begin(state, WRITE, state.me, querying=False)
    state.write_stamp += 1
    _propagate(state, eff, value, Tag(state.write_stamp, state.me))
    return eff


def invoke_read(state: AbdState, target: int) -> Effect:
    eff = Effect()
    phase = _begin(state, READ, target, querying=True)
    eff.broadcasts.append(QueryMsg(target, phase.op_ref))
    return eff


def handle_message(state: AbdState, sender: int, msg) -> Effect:
    kind = type(msg)
    # a reply or an ack is one directed send; the fields it leaves empty are
    # empty tuples, as in NOTHING, not three fresh lists, and tuple.__new__
    # builds the message without the NamedTuple's generated __new__ frame
    if kind is QueryMsg:
        reply = tuple.__new__(QueryReply, (state.values[msg.reg],
                                           state.tags[msg.reg], msg.op_ref))
        return Effect((), ((reply, sender),), (), ())
    if kind is PropagateMsg:
        if state.tags[msg.reg] < msg.tag:
            state.tags[msg.reg] = msg.tag
            state.values[msg.reg] = msg.value
        ack = tuple.__new__(Ack, (msg.op_ref,))
        return Effect((), ((ack, sender),), (), ())
    if kind is not QueryReply and kind is not Ack:
        raise TypeError(f"unknown message {msg!r}")
    phase = state.phase
    if (phase is None or phase.op_ref != msg.op_ref
            or phase.querying != (kind is QueryReply)):
        # a reply counts only towards the phase it answers: a late reply of
        # an earlier operation, or a query reply after the read began to
        # propagate, changes nothing
        return NOTHING
    replies = phase.replies
    replies[sender] = (msg.tag, msg.value) if phase.querying else None
    if len(replies) * 2 <= state.n:     # short of a strict majority
        return NOTHING
    eff = Effect()
    if phase.querying:
        # unconditional write-back: the freshest pair must reach a majority
        # before the read may return
        tag, value = max(replies.values())
        _propagate(state, eff, value, tag)
    else:
        state.phase = None
        eff.completions.append(
            (phase.kind, phase.value if phase.kind == READ else None))
    return eff
