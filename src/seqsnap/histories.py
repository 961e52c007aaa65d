"""Operation records and the line-oriented trace file format.

One JSON object per line with fields: run_seed, proc, seq, op, t_inv, t_ret
(absent while incomplete), value (writes), result (completed snapshots: the
full vector; reads: the returned scalar), target (reads) and object_id.
A line holds a record that op_error, the one rule for an operation record,
accepts and whose times pass is_time, the one rule for a time, which the
simulator's config checks apply too. The checkers apply op_error as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .seqspec import READ, SNAPSHOT, WRITE


class TraceFormatError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class OpRecord:
    proc: int
    seq: int
    kind: str
    t_inv: float
    t_ret: float | None = None
    value: int | None = None
    result: object = None
    target: int | None = None
    object_id: int = 0
    run_seed: int = 0

    @property
    def completed(self) -> bool:
        return self.t_ret is not None


def op_id(rec: OpRecord) -> tuple[int, int, int]:
    return (rec.object_id, rec.proc, rec.seq)


# The one encoder of every document the package writes: keys sorted, no
# spaces. Documents hold plain values, so the encoder's check for reference
# cycles would only cost time.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                check_circular=False).encode


def is_time(t) -> bool:
    """The one rule for a time: an exact int or float that converts to a
    finite float. A bool, a subclass (whose repr need not be its JSON text)
    and an int too large for a float (the simulator adds float delays to
    times) are not times."""
    try:
        return (type(t) is int or type(t) is float) and math.isfinite(t)
    except OverflowError:
        return False


def op_error(rec: OpRecord) -> str | None:
    """The one rule for an operation record: the reason `rec` breaks it, or
    None. The trace writer and reader, the checkers and
    sim.validate_config (on each work item) apply it.

    kind is write, snapshot or read. proc, seq and object_id are
    non-negative exact ints and run_seed is an exact int (a bool is
    refused). t_inv is an exact int or float, not NaN; t_ret is None or
    such a number no smaller than t_inv. Only the fields of the op's kind
    are set: a write's value (an int), a read's target (a non-negative int)
    and, once the op has returned, a snapshot's result (a tuple or list of
    ints) or a read's (an int). Infinite times pass here; a trace holds
    finite times only, so its writer and reader add is_time."""
    kind, t_inv, t_ret = rec.kind, rec.t_inv, rec.t_ret
    value, result, target = rec.value, rec.result, rec.target
    if kind == WRITE:
        fits = type(value) is int and result is None and target is None
    elif kind == SNAPSHOT:
        fits = (value is None and target is None
                and (result is None) is (t_ret is None)
                and (result is None or type(result) in (tuple, list)))
        if fits and result is not None:
            for cell in result:     # a loop is the fastest on a few cells
                if type(cell) is not int:
                    fits = False
    elif kind == READ:
        fits = value is None and type(target) is int and target >= 0 and (
            result is None if t_ret is None else type(result) is int)
    else:
        return f"unknown op kind {kind!r}"
    if not fits:
        return f"value, result or target that does not fit a {kind}"
    proc, seq, object_id = rec.proc, rec.seq, rec.object_id
    if not (type(proc) is int and proc >= 0 and type(seq) is int and seq >= 0
            and type(object_id) is int and object_id >= 0
            and type(rec.run_seed) is int):
        return "an id that is not a non-negative int"
    # exact types (a bool is an int subclass); `is` beats `in (int, float)`
    if not ((type(t_inv) is float or type(t_inv) is int) and t_inv == t_inv
            and (t_ret is None or (type(t_ret) is float or type(t_ret) is int)
                 and t_inv <= t_ret)):
        return "t_inv not a number, or t_ret before it"
    return None


def _trace_error(rec: OpRecord) -> str | None:
    """op_error, and is_time for each time: a trace holds finite times."""
    error = op_error(rec)
    if error is None and not (is_time(rec.t_inv) and (
            rec.t_ret is None or is_time(rec.t_ret))):
        return "a time that is not finite"
    return error


def record_to_json(rec: OpRecord) -> str:
    """The line of one record, in the bytes compact_json writes for its
    fields (keys in sorted order: object_id, op, proc, result, run_seed,
    seq, t_inv, t_ret, target, value); a time is written as its repr, which
    is json's text for an exact int or float.

    Raises ValueError on a record that op_error or is_time refuses, so the
    writer refuses a record rather than drop a field, and every line it
    writes record_from_json reads back as the same record."""
    error = _trace_error(rec)
    if error is not None:
        raise ValueError(f"{error}: {rec!r}")
    kind, t_ret, result = rec.kind, rec.t_ret, rec.result
    head = f'{{"object_id":{rec.object_id},"op":"{kind}","proc":{rec.proc},'
    if result is not None:      # a snapshot or read that returned
        if kind == SNAPSHOT:
            result = f"[{','.join(map(str, result))}]"
        head = f'{head}"result":{result},'
    tail = f'"run_seed":{rec.run_seed},"seq":{rec.seq},"t_inv":{rec.t_inv!r}'
    if t_ret is not None:
        tail = f'{tail},"t_ret":{t_ret!r}'
    if kind == WRITE:
        return f'{head}{tail},"value":{rec.value}}}'
    if kind == READ:
        return f'{head}{tail},"target":{rec.target}}}'
    return f'{head}{tail}}}'


def history_lines(history: list[OpRecord]) -> list[str]:
    return list(map(record_to_json, history))


# the keys a trace line may hold; record_to_json writes them in sorted order
FIELDS = frozenset(("object_id", "op", "proc", "result", "run_seed", "seq",
                    "t_inv", "t_ret", "target", "value"))


def record_from_json(line: str, lineno: int = 0) -> OpRecord:
    """The record of one line: built from its JSON fields (a list becomes a
    tuple, an absent object_id or run_seed is 0), then refused with
    TraceFormatError if op_error or is_time refuses it. A JSON null is
    refused: the writer leaves an unset field out. A key outside FIELDS is
    refused too, since the line would not read back to its own bytes."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(lineno, f"not valid JSON ({exc.msg})") from exc
    except ValueError as exc:   # an integer literal too long for int()
        raise TraceFormatError(lineno, f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError(lineno, "record is not a JSON object")
    if None in doc.values():
        raise TraceFormatError(lineno, "a field is null")
    unknown = doc.keys() - FIELDS
    if unknown:
        raise TraceFormatError(lineno, f"unknown field {min(unknown)!r}")
    result = doc.get("result")
    try:
        rec = OpRecord(
            proc=doc["proc"], seq=doc["seq"], kind=doc["op"],
            t_inv=doc["t_inv"], t_ret=doc.get("t_ret"), value=doc.get("value"),
            result=tuple(result) if type(result) is list else result,
            target=doc.get("target"), object_id=doc.get("object_id", 0),
            run_seed=doc.get("run_seed", 0))
    except KeyError as exc:
        raise TraceFormatError(lineno, f"missing field {exc}") from exc
    error = _trace_error(rec)
    if error is not None:
        raise TraceFormatError(lineno, error)
    return rec


def load_history(path) -> list[OpRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            records.append(record_from_json(line, lineno))
    return records


def infer_process_count(history: list[OpRecord]) -> int:
    """Width of the register array a history talks about."""
    n = 0
    for rec in history:
        n = max(n, rec.proc + 1)
        if rec.kind == SNAPSHOT and rec.result is not None:
            n = max(n, len(rec.result))
        if rec.kind == READ and rec.target is not None:
            n = max(n, rec.target + 1)
    return max(n, 1)
