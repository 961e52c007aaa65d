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
from pathlib import Path

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


# one encoder for every line; a record's fields are plain values, so the
# encoder's check for reference cycles would only cost time
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def record_to_json(rec: OpRecord) -> str:
    doc = {
        "run_seed": rec.run_seed,
        "proc": rec.proc,
        "seq": rec.seq,
        "op": rec.kind,
        "t_inv": rec.t_inv,
        "object_id": rec.object_id,
    }
    if rec.t_ret is not None:
        doc["t_ret"] = rec.t_ret
    if rec.kind == WRITE:
        doc["value"] = rec.value
    if rec.kind == SNAPSHOT and rec.t_ret is not None:
        doc["result"] = list(rec.result)
    if rec.kind == READ:
        doc["target"] = rec.target
        if rec.t_ret is not None:
            doc["result"] = rec.result
    return _encode(doc)


def history_lines(history: list[OpRecord]) -> list[str]:
    return [record_to_json(rec) for rec in history]


def dump_history(history: list[OpRecord], path) -> None:
    Path(path).write_text("".join(line + "\n" for line in history_lines(history)))


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
