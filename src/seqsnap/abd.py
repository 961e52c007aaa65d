"""Majority-quorum emulation of single-writer registers (comparison baseline).

A writer broadcasts a freshly stamped value and completes after acks from a
strict majority. A reader queries a majority for (value, tag), writes the
largest tag back to a majority, then returns it. Both operation kinds block,
unlike the snapshot protocol's zero-latency writes.

State is single-owner and driven by the same simulator as the snapshot
protocol; messages reuse the Effect container from `protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .protocol import Effect
from .seqspec import READ, WRITE


@dataclass(frozen=True, order=True)
class Tag:
    """Write version tag, totally ordered by (stamp, writer)."""

    stamp: int
    writer: int


@dataclass(frozen=True)
class StoreMsg:
    reg: int
    value: int
    tag: Tag
    sender: int
    op_ref: tuple


@dataclass(frozen=True)
class StoreAck:
    reg: int
    tag: Tag
    sender: int
    op_ref: tuple


@dataclass(frozen=True)
class QueryMsg:
    reg: int
    qid: int
    sender: int
    op_ref: tuple


@dataclass(frozen=True)
class QueryReply:
    reg: int
    qid: int
    value: int
    tag: Tag
    sender: int
    op_ref: tuple


@dataclass(frozen=True)
class WriteBackMsg:
    reg: int
    value: int
    tag: Tag
    qid: int
    sender: int
    op_ref: tuple


@dataclass(frozen=True)
class WriteBackAck:
    reg: int
    qid: int
    sender: int
    op_ref: tuple


@dataclass
class WritePending:
    tag: Tag
    acks: set = field(default_factory=set)


@dataclass
class ReadQuerying:
    qid: int
    target: int
    replies: dict = field(default_factory=dict)  # sender -> (tag, value)


@dataclass
class ReadWritingBack:
    qid: int
    target: int
    value: int
    tag: Tag
    acks: set = field(default_factory=set)


@dataclass
class AbdState:
    me: int
    n: int
    values: list[int]
    tags: list[Tag]
    write_stamp: int = 0     # stamps our own writes
    read_count: int = 0      # distinguishes our read phases
    ops_started: int = 0     # local op index, used to attribute messages
    phase: object = None     # None when no operation is in flight


def init(n: int, me: int) -> AbdState:
    if not 0 <= me < n:
        raise ValueError(f"process id {me} out of range for n={n}")
    return AbdState(me=me, n=n, values=[0] * n,
                    tags=[Tag(0, j) for j in range(n)])


def majority(n: int) -> int:
    return n // 2 + 1


def _adopt(state: AbdState, reg: int, value: int, tag: Tag) -> None:
    if state.tags[reg] < tag:
        state.tags[reg] = tag
        state.values[reg] = value


def invoke_write(state: AbdState, value: int) -> Effect:
    assert state.phase is None, "operations are sequential per process"
    eff = Effect()
    state.write_stamp += 1
    tag = Tag(state.write_stamp, state.me)
    op_ref = (state.me, state.ops_started)
    state.ops_started += 1
    state.phase = WritePending(tag)
    eff.broadcasts.append(StoreMsg(state.me, value, tag, state.me, op_ref))
    return eff


def invoke_read(state: AbdState, target: int) -> Effect:
    assert state.phase is None, "operations are sequential per process"
    eff = Effect()
    state.read_count += 1
    op_ref = (state.me, state.ops_started)
    state.ops_started += 1
    state.phase = ReadQuerying(state.read_count, target)
    eff.broadcasts.append(QueryMsg(target, state.read_count, state.me, op_ref))
    return eff


def handle_message(state: AbdState, msg) -> Effect:
    eff = Effect()
    quorum = majority(state.n)
    if isinstance(msg, StoreMsg):
        _adopt(state, msg.reg, msg.value, msg.tag)
        eff.sends.append((StoreAck(msg.reg, msg.tag, state.me, msg.op_ref),
                          msg.sender))
    elif isinstance(msg, StoreAck):
        phase = state.phase
        if isinstance(phase, WritePending) and phase.tag == msg.tag:
            phase.acks.add(msg.sender)
            if len(phase.acks) >= quorum:
                state.phase = None
                eff.completions.append((WRITE, None))
    elif isinstance(msg, QueryMsg):
        eff.sends.append((QueryReply(msg.reg, msg.qid, state.values[msg.reg],
                                     state.tags[msg.reg], state.me, msg.op_ref),
                          msg.sender))
    elif isinstance(msg, QueryReply):
        phase = state.phase
        if isinstance(phase, ReadQuerying) and phase.qid == msg.qid:
            phase.replies[msg.sender] = (msg.tag, msg.value)
            if len(phase.replies) >= quorum:
                tag, value = max(phase.replies.values())
                # unconditional write-back: the freshest pair must reach a
                # majority before the read may return
                state.phase = ReadWritingBack(phase.qid, phase.target, value, tag)
                op_ref = msg.op_ref
                eff.broadcasts.append(WriteBackMsg(phase.target, value, tag,
                                                   phase.qid, state.me, op_ref))
    elif isinstance(msg, WriteBackMsg):
        _adopt(state, msg.reg, msg.value, msg.tag)
        eff.sends.append((WriteBackAck(msg.reg, msg.qid, state.me, msg.op_ref),
                          msg.sender))
    elif isinstance(msg, WriteBackAck):
        phase = state.phase
        if isinstance(phase, ReadWritingBack) and phase.qid == msg.qid:
            phase.acks.add(msg.sender)
            if len(phase.acks) >= quorum:
                value = phase.value
                state.phase = None
                eff.completions.append((READ, value))
    else:
        raise TypeError(f"unknown message {msg!r}")
    return eff
