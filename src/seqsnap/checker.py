"""Decide whether recorded histories admit a legal total order.

`check_sc_fast` is the structural checker for snapshot histories: it resolves
snapshot results to per-writer versions, tests four order conditions, and
builds an explicit witness order which it verifies by replay, so every accept
carries a proof. `check_sc_brute` / `check_lin_brute` enumerate interleavings
outright and are the authoritative oracles on small histories; the brute
search folds per-object states, so it also serves composed histories.

Rejections carry a certificate: a sufficient (not necessarily minimal)
subset of operations witnessing the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import inf

from .histories import OpRecord, op_id
from .seqspec import READ, SNAPSHOT, WRITE, initial_state, seq_step

# The exhaustive oracles refuse a history with more operations than this.
BRUTE_BOUND = 10


class CheckRefusal(Exception):
    """The check is declined (size bound or unsupported input); no verdict."""


@dataclass
class Verdict:
    accepted: bool
    witness: list | None = None        # op ids in witness order when accepted
    certificate: list | None = None    # op ids evidencing the violation
    reason: str = ""


def replay_legal(records: list[OpRecord], n: int) -> bool:
    """Fold the records through the sequential object, one state per object id."""
    states = {}
    for rec in records:
        state = states.get(rec.object_id, initial_state(n))
        state, ok = seq_step(state, rec)
        if not ok:
            return False
        states[rec.object_id] = state
    return True


def counted_ops(history: list[OpRecord]) -> list[OpRecord]:
    """The ops a legal order accounts for: every op that returned, and every
    write, since one cut off by a crash may still have taken effect."""
    return [rec for rec in history if rec.completed or rec.kind == WRITE]


def _check_ops(history: list[OpRecord], n: int) -> None:
    """Refuse a malformed op, for which no verdict is defined: a repeated
    (object_id, proc, seq), a process outside 0..n-1, an unknown kind, a
    write without a value, a completed snapshot whose result is not a
    vector of n cells, a read whose target is not a cell, an op that
    returns before it is invoked, or an op after one of its process's ops
    that never returned (a process runs one op at a time, so only its last
    op can be cut off)."""
    cut_off = {}    # per process, the lowest seq of an op that never returned
    for rec in history:
        if not rec.completed:
            cut_off[rec.proc] = min(rec.seq, cut_off.get(rec.proc, rec.seq))
    seen = set()
    for rec in history:
        if rec.seq > cut_off.get(rec.proc, rec.seq):
            raise CheckRefusal(f"op {op_id(rec)} follows an op of process "
                               f"{rec.proc} that never returned")
        key = op_id(rec)
        if key in seen:
            raise CheckRefusal(f"op id {key} repeats")
        seen.add(key)
        if not (rec.proc in range(n)
                and rec.kind in (WRITE, SNAPSHOT, READ)
                and (rec.kind != WRITE or rec.value is not None)
                and (rec.kind != SNAPSHOT or not rec.completed
                     or isinstance(rec.result, (tuple, list))
                     and len(rec.result) == n)
                and (rec.kind != READ or rec.target in range(n))
                and (not rec.completed or rec.t_inv <= rec.t_ret)):
            raise CheckRefusal(f"malformed op in an n={n} history: {rec}")


def contains_process_order(records: list[OpRecord], included: list[OpRecord]) -> bool:
    if len(records) != len(included) or set(map(op_id, records)) != set(map(op_id, included)):
        return False
    last = {}
    for rec in records:
        if rec.proc in last and rec.seq <= last[rec.proc]:
            return False
        last[rec.proc] = rec.seq
    return True


# ---------------------------------------------------------------------------
# version resolution


def derive_versions(history: list[OpRecord], n: int):
    """Resolve each completed snapshot to a vector of per-writer versions.

    Version w of writer p is p's w-th write in process order; version 0 is
    the initial cell. Returns (mapping from op id to vector, None), or
    (None, rejecting Verdict) when a snapshot claims a value its writer
    never wrote. The ops must have passed _check_ops.
    """
    writes_by = {p: [] for p in range(n)}
    for rec in sorted(history, key=lambda r: (r.proc, r.seq)):
        if rec.kind == WRITE:
            writes_by[rec.proc].append(rec.value)
    version_of = {}
    for p, values in writes_by.items():
        table = {}
        for idx, value in enumerate(values, 1):
            if value in table:
                raise CheckRefusal(
                    f"process {p} wrote value {value} twice; version resolution "
                    f"needs unique values per writer")
            table[value] = idx
        version_of[p] = table
    versions = {}
    for rec in history:
        if rec.kind != SNAPSHOT or not rec.completed:
            continue
        vector = []
        for q in range(n):
            component = rec.result[q]
            version = version_of[q].get(component)
            if version is None:
                if component == 0:
                    version = 0
                else:
                    return None, Verdict(
                        False, certificate=[op_id(rec)],
                        reason=f"snapshot claims value {component} for cell {q}, "
                               f"never written")
            vector.append(version)
        versions[op_id(rec)] = tuple(vector)
    return versions, None


def _componentwise_leq(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# fast structural check


def check_sc_fast(history: list[OpRecord], n: int) -> Verdict:
    """Structural acceptance test for snapshot histories.

    Accepts iff (1) all snapshot version vectors are pairwise comparable,
    (2) each snapshot's own component equals the number of its own preceding
    writes (which also bounds it below every later own write), and (3) the
    vectors are nondecreasing along each process order - and the witness
    assembled from these facts replays legally. A 0 in the cell of a writer
    that wrote 0 may be version 0 or that write, so such a history goes to
    the exhaustive oracle. The ops judged are counted_ops; a write that
    never returned is kept as if complete, since it is its process's last
    op and, if no snapshot shows it, can go last in the witness.

    Malformed ops (see _check_ops) are refused on entry. Once (1)-(3) pass,
    the witness cannot fail its check on a history whose op ids are unique,
    so the fallback to the oracle after that check cannot be reached and
    stays as safety code only:
    - the witness puts each writer's version-w write just before the first
      snapshot in the sorted chain whose component reaches w. Components
      never decrease along the chain, so exactly versions 1..v[q] of each
      writer q are replayed before a snapshot with vector v;
    - so each snapshot replays its own vector;
    - (3) and the (vector, proc, seq) sort keep each process's snapshots in
      its order, (2) places its own writes before a snapshot exactly when
      they precede it, and one writer's writes keep their version order, so
      the order contains every process order.
    """
    _check_ops(history, n)
    if any(rec.kind == READ for rec in history):
        raise CheckRefusal("single-cell reads are only handled by the "
                           "exhaustive checkers")
    if len({rec.object_id for rec in history}) > 1:
        raise CheckRefusal("multi-object history: use the composition checker")
    included = counted_ops(history)
    versions, rejection = derive_versions(included, n)
    if rejection is not None:
        return rejection
    # A writer that wrote 0 makes a 0 in its cell mean either version 0 or
    # that write; version resolution cannot tell, so the oracle decides.
    zero_writers = {rec.proc for rec in included
                    if rec.kind == WRITE and rec.value == 0}
    if any(rec.kind == SNAPSHOT and rec.result[q] == 0
           for rec in included for q in zero_writers):
        return check_sc_brute(history, n)

    by_proc = {}
    for rec in sorted(included, key=lambda r: (r.proc, r.seq)):
        by_proc.setdefault(rec.proc, []).append(rec)
    for proc, records in by_proc.items():
        writes_before = 0
        last_write = None
        prev_snap = None
        for rec in records:
            if rec.kind == WRITE:
                writes_before += 1
                last_write = rec
                continue
            vec = versions[op_id(rec)]
            if vec[proc] != writes_before:
                cert = [op_id(rec)]
                if last_write is not None:
                    cert.append(op_id(last_write))
                return Verdict(False, certificate=cert,
                               reason=f"snapshot by {proc} shows version "
                                      f"{vec[proc]} of its own cell after "
                                      f"{writes_before} own writes")
            if prev_snap is not None and not _componentwise_leq(
                    versions[op_id(prev_snap)], vec):
                return Verdict(False, certificate=[op_id(prev_snap), op_id(rec)],
                               reason=f"snapshots of process {proc} go backwards")
            prev_snap = rec

    snaps = [rec for rec in included if rec.kind == SNAPSHOT]
    order = sorted(snaps, key=lambda r: (versions[op_id(r)], r.proc, r.seq))
    for before, after in zip(order, order[1:]):
        if not _componentwise_leq(versions[op_id(before)], versions[op_id(after)]):
            return Verdict(False,
                           certificate=[op_id(before), op_id(after)],
                           reason="incomparable snapshots")

    witness = _build_witness(included, n, versions, order)
    if contains_process_order(witness, included) and replay_legal(witness, n):
        return Verdict(True, witness=[op_id(rec) for rec in witness])
    # unreachable (see the docstring); the oracle keeps the verdict exact
    # rather than guess
    return check_sc_brute(history, n)


def _build_witness(included, n, versions, snap_order):
    """Place each writer's version-w write right before the first snapshot
    whose component reaches w; leftovers go at the end in process order."""
    writes_by = {}
    for rec in sorted(included, key=lambda r: (r.proc, r.seq)):
        if rec.kind == WRITE:
            writes_by.setdefault(rec.proc, []).append(rec)
    slots = [[] for _ in range(len(snap_order) + 1)]
    for proc, writes in sorted(writes_by.items()):
        position = 0
        for version, rec in enumerate(writes, 1):
            while (position < len(snap_order)
                   and versions[op_id(snap_order[position])][proc] < version):
                position += 1
            slots[position].append(rec)
    witness = []
    for idx, snap in enumerate(snap_order):
        witness.extend(sorted(slots[idx], key=lambda r: (r.proc, r.seq)))
        witness.append(snap)
    witness.extend(sorted(slots[-1], key=lambda r: (r.proc, r.seq)))
    return witness


# ---------------------------------------------------------------------------
# exhaustive oracles


def _interleave_search(ops: list[OpRecord], n: int, realtime: bool):
    """Depth-first search over interleavings containing every process order.

    Every op that returned must be placed; a write that never returned is
    last in its queue (see _check_ops), so the search may stop before it.
    Register states are a function of the per-process consumed counts, so
    dead count vectors are memoized. Returns a witness list or None.
    """
    by_proc = {}
    for rec in sorted(ops, key=lambda r: (r.proc, r.seq)):
        by_proc.setdefault(rec.proc, []).append(rec)
    queues = list(by_proc.values())     # in process order, by the sort
    # earliest[i][k]: the earliest return among queue i's ops from position k
    # on. In real time an op may be placed only when every op that returned
    # before it was invoked is placed, i.e. no unplaced op returned earlier.
    earliest = [list(accumulate((r.t_ret if r.completed else inf
                                 for r in reversed(queue)), min, initial=inf))[::-1]
                for queue in queues] if realtime else None
    dead = set()

    def search(counts, states, placed, left):
        if left == 0:
            return placed
        if counts in dead:
            return None
        horizon = min(e[c] for e, c in zip(earliest, counts)) if realtime else inf
        for i, queue in enumerate(queues):
            idx = counts[i]
            if idx == len(queue):
                continue
            rec = queue[idx]
            if horizon < rec.t_inv:
                continue
            state = states.get(rec.object_id, initial_state(n))
            new_state, ok = seq_step(state, rec)
            if not ok:
                continue
            new_states = dict(states)
            new_states[rec.object_id] = new_state
            found = search(counts[:i] + (idx + 1,) + counts[i + 1:],
                           new_states, placed + [rec], left - rec.completed)
            if found is not None:
                return found
        dead.add(counts)
        return None

    return search((0,) * len(queues), {}, [], sum(rec.completed for rec in ops))


def _oracle(history: list[OpRecord], n: int, realtime: bool) -> Verdict:
    _check_ops(history, n)
    ops = counted_ops(history)
    if len(ops) > BRUTE_BOUND:
        raise CheckRefusal(f"history has {len(ops)} operations, exhaustive "
                           f"bound is {BRUTE_BOUND}")
    witness = _interleave_search(ops, n, realtime)
    if witness is not None:
        return Verdict(True, witness=[op_id(rec) for rec in witness])
    return Verdict(False,
                   certificate=[op_id(rec) for rec in history if rec.completed],
                   reason="no legal interleaving contains the process order")


def check_sc_brute(history: list[OpRecord], n: int) -> Verdict:
    """Enumerate every interleaving containing the process orders; exact."""
    return _oracle(history, n, realtime=False)


def check_lin_brute(history: list[OpRecord], n: int) -> Verdict:
    """As check_sc_brute, but interleavings must also respect real time:
    an operation that returned before another began is placed before it."""
    return _oracle(history, n, realtime=True)


# ---------------------------------------------------------------------------
# verdict serialization (consumed by the CLI)


def verdict_document(verdict: Verdict) -> str:
    import json

    doc = {
        "accepted": verdict.accepted,
        "witness": [list(i) for i in verdict.witness] if verdict.witness is not None else None,
        "certificate": ([list(i) for i in verdict.certificate]
                        if verdict.certificate is not None else None),
        "reason": verdict.reason,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
