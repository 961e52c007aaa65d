"""Sequential specification of a single-writer snapshot memory.

The reference object is an array of n integer cells, one per process. A
process may overwrite only its own cell; a snapshot reads the whole array
atomically. A sequence of operations is a legal word when every snapshot in
it returns exactly the array state at its position. This module is the
ground truth the history checkers fold operation records against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .histories import OpRecord

WRITE = "write"
SNAPSHOT = "snapshot"
READ = "read"


def initial_state(n: int) -> tuple[int, ...]:
    """Fresh register array: every cell holds 0 until its owner writes."""
    if n < 1:
        raise ValueError("need at least one process")
    return (0,) * n


def seq_step(state: tuple[int, ...], op: OpRecord) -> tuple[tuple[int, ...], bool]:
    """Apply one recorded operation to the array.

    A write stores its value in the writer's cell; a snapshot must return
    the whole array and a read the target cell. Returns the next state and
    whether the step was legal. Malformed operations (wrong vector length,
    out-of-range ids) raise ValueError; they are rejected input rather than
    an illegal step.
    """
    n = len(state)
    if not 0 <= op.proc < n:
        raise ValueError(f"proc {op.proc} out of range for n={n}")
    if op.kind == WRITE:
        if op.value is None:
            raise ValueError("write without a value")
        return state[: op.proc] + (op.value,) + state[op.proc + 1 :], True
    if op.kind == SNAPSHOT:
        if op.result is None or len(op.result) != n:
            raise ValueError("snapshot vector must have one entry per process")
        return state, tuple(op.result) == state
    if op.kind == READ:
        if op.target is None or not 0 <= op.target < n:
            raise ValueError("read needs an in-range target cell")
        return state, state[op.target] == op.result
    raise ValueError(f"unknown operation kind {op.kind!r}")
