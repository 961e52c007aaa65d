"""Operation records and the line-oriented trace file format.

One JSON object per line with fields: run_seed, proc, seq, op, t_inv, t_ret
(absent while incomplete), value (writes), result (completed snapshots: the
full vector; reads: the returned scalar), target (reads) and object_id.
Integer fields must be JSON integers and times finite JSON numbers. The
checkers consume exactly this format.
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


def _json_time(t) -> str:
    """The JSON text of a finite int or float."""
    if type(t) is float and math.isfinite(t):
        return float.__repr__(t)
    if type(t) is int:
        return int.__repr__(t)
    raise ValueError(f"{t!r} is not a finite number")


_INT = {int}


def record_to_json(rec: OpRecord) -> str:
    """The line of one record, in the bytes compact_json writes for its
    fields (keys in sorted order: object_id, op, proc, result, run_seed,
    seq, t_inv, t_ret, target, value).

    Raises ValueError on a record that record_from_json would refuse: an
    id, value, target or result cell that is not an exact int, a time that
    is not a finite int or float, or an unknown kind."""
    kind, proc, seq, t_ret = rec.kind, rec.proc, rec.seq, rec.t_ret
    t_inv = _json_time(rec.t_inv)
    if t_ret is not None:
        t_ret = _json_time(t_ret)
    if (type(proc) is not int or type(seq) is not int
            or type(rec.object_id) is not int or type(rec.run_seed) is not int):
        raise ValueError(f"record ids are not all ints: {rec!r}")
    head = f'{{"object_id":{rec.object_id},"op":"{kind}","proc":{proc},'
    tail = f'"run_seed":{rec.run_seed},"seq":{seq},"t_inv":{t_inv}'
    if t_ret is not None:
        tail = f'{tail},"t_ret":{t_ret}'
    if kind == WRITE:
        if type(rec.value) is int:
            return f'{head}{tail},"value":{rec.value}}}'
    elif kind == SNAPSHOT:
        if t_ret is None:
            return f'{head}{tail}}}'
        result = rec.result
        if type(result) in (tuple, list) and set(map(type, result)) <= _INT:
            return f'{head}"result":[{",".join(map(str, result))}],{tail}}}'
    elif kind == READ:
        target, result = rec.target, rec.result
        if type(target) is int:
            if t_ret is None:
                return f'{head}{tail},"target":{target}}}'
            if type(result) is int:
                return f'{head}"result":{result},{tail},"target":{target}}}'
    raise ValueError(f"record outside the trace format: {rec!r}")


def history_lines(history: list[OpRecord]) -> list[str]:
    return list(map(record_to_json, history))


def _integer(value) -> int:
    # JSON true/false load as bool, a subclass of int
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _time(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def record_from_json(line: str, lineno: int = 0) -> OpRecord:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(lineno, f"not valid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError(lineno, "record is not a JSON object")
    try:
        kind = doc["op"]
        rec = OpRecord(
            proc=_integer(doc["proc"]),
            seq=_integer(doc["seq"]),
            kind=kind,
            t_inv=_time(doc["t_inv"]),
            t_ret=_time(doc["t_ret"]) if "t_ret" in doc else None,
            object_id=_integer(doc.get("object_id", 0)),
            run_seed=_integer(doc.get("run_seed", 0)),
        )
        if kind not in (WRITE, SNAPSHOT, READ):
            raise TraceFormatError(lineno, f"unknown op kind {kind!r}")
        if kind == WRITE:
            rec.value = _integer(doc["value"])
        if kind == SNAPSHOT and rec.t_ret is not None:
            if not isinstance(doc.get("result"), list):
                raise TraceFormatError(lineno, "completed snapshot without result vector")
            rec.result = tuple(_integer(v) for v in doc["result"])
        if kind == READ:
            rec.target = _integer(doc["target"])
            if rec.t_ret is not None:
                rec.result = _integer(doc["result"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(lineno, f"missing or bad field ({exc})") from exc
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
