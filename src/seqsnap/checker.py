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
from itertools import accumulate, chain
from math import inf

from .histories import OpRecord, compact_json, op_id
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


def _check_ops(history: list[OpRecord], n: int) -> list[list[OpRecord]]:
    """Refuse a malformed op, for which no verdict is defined: a process,
    seq, write value, snapshot cell, read target or read result that is not
    an int (a bool is refused too, rather than read as 0 or 1), a process
    outside 0..n-1, an unknown kind, a completed snapshot whose result is
    not a vector of n cells, a read whose target is not a cell, an op that
    returns before it is invoked, two ops of one process with the same seq
    (on any object), or an op after one of its process's ops that never
    returned (a process runs one op at a time, so only its last op can be
    cut off).

    Returns the process order: one queue per process id, each in seq order,
    of the ops a legal order accounts for. Those are every op that returned,
    and every write, since one cut off by a crash may still have taken
    effect."""
    for rec in history:
        if not (type(rec.proc) is int and type(rec.seq) is int
                and rec.proc in range(n)
                and rec.kind in (WRITE, SNAPSHOT, READ)
                and (rec.kind != WRITE or type(rec.value) is int)
                and (rec.kind != SNAPSHOT or not rec.completed
                     or isinstance(rec.result, (tuple, list))
                     and len(rec.result) == n
                     and all(type(cell) is int for cell in rec.result))
                and (rec.kind != READ
                     or type(rec.target) is int and rec.target in range(n)
                     and (not rec.completed or type(rec.result) is int))
                and (not rec.completed or rec.t_inv <= rec.t_ret)):
            raise CheckRefusal(f"malformed op in an n={n} history: {rec}")
    queues = [[] for _ in range(n)]
    prev = None
    for rec in sorted(history, key=lambda r: (r.proc, r.seq)):
        if prev is not None and prev.proc == rec.proc:
            if prev.seq == rec.seq:
                raise CheckRefusal(f"process {rec.proc} repeats seq {rec.seq}")
            if not prev.completed:
                raise CheckRefusal(f"op {op_id(rec)} follows an op of process "
                                   f"{rec.proc} that never returned")
        if rec.completed or rec.kind == WRITE:
            queues[rec.proc].append(rec)
        prev = rec
    return queues


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


def derive_versions(queues: list[list[OpRecord]], n: int):
    """Resolve each completed snapshot to a vector of per-writer versions.

    Version w of writer p is p's w-th write in process order; version 0 is
    the initial cell. Takes the process order from _check_ops. Returns
    (mapping from op id to vector, None), or (None, rejecting Verdict) when
    a snapshot claims a value its writer never wrote.
    """
    version_of = []
    for p, queue in enumerate(queues):
        table = {}
        for idx, value in enumerate((rec.value for rec in queue
                                     if rec.kind == WRITE), 1):
            if value in table:
                raise CheckRefusal(
                    f"process {p} wrote value {value} twice; version resolution "
                    f"needs unique values per writer")
            table[value] = idx
        version_of.append(table)
    versions = {}
    for rec in chain.from_iterable(queues):
        if rec.kind != SNAPSHOT:
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
    the exhaustive oracle. The ops judged are those _check_ops counts; a
    write that never returned is kept as if complete, since it is its
    process's last op and, if no snapshot shows it, can go last in the
    witness.

    Malformed ops (see _check_ops) are refused on entry. Once (1)-(3) pass,
    the witness cannot fail its check on a history that passed _check_ops,
    so the fallback to the oracle after that check cannot be reached and
    stays as safety code only:
    - the witness puts each writer's version-w write just before the first
      snapshot in the sorted chain whose component reaches w. Components
      never decrease along the chain, so exactly versions 1..v[q] of each
      writer q are replayed before a snapshot with vector v;
    - so each snapshot replays its own vector;
    - (3) and the sort by vector, stable from process order, keep each
      process's snapshots in its order, (2) places its own writes before a
      snapshot exactly when they precede it, and one writer's writes keep
      their version order, so the order contains every process order.
    """
    queues = _check_ops(history, n)
    if any(rec.kind == READ for rec in history):
        raise CheckRefusal("single-cell reads are only handled by the "
                           "exhaustive checkers")
    if len({rec.object_id for rec in history}) > 1:
        raise CheckRefusal("multi-object history: use the composition checker")
    included = list(chain.from_iterable(queues))
    versions, rejection = derive_versions(queues, n)
    if rejection is not None:
        return rejection
    # A writer that wrote 0 makes a 0 in its cell mean either version 0 or
    # that write; version resolution cannot tell, so the oracle decides.
    zero_writers = {rec.proc for rec in included
                    if rec.kind == WRITE and rec.value == 0}
    if any(rec.kind == SNAPSHOT and rec.result[q] == 0
           for rec in included for q in zero_writers):
        return check_sc_brute(history, n)

    for proc, queue in enumerate(queues):
        writes_before = 0
        last_write = None
        prev_snap = None
        for rec in queue:
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
    # stable, so snapshots with equal vectors stay in process order
    order = sorted(snaps, key=lambda r: versions[op_id(r)])
    for before, after in zip(order, order[1:]):
        if not _componentwise_leq(versions[op_id(before)], versions[op_id(after)]):
            return Verdict(False,
                           certificate=[op_id(before), op_id(after)],
                           reason="incomparable snapshots")

    witness = _build_witness(queues, versions, order)
    if contains_process_order(witness, included) and replay_legal(witness, n):
        return Verdict(True, witness=[op_id(rec) for rec in witness])
    # unreachable (see the docstring); the oracle keeps the verdict exact
    # rather than guess
    return check_sc_brute(history, n)


def _build_witness(queues, versions, snap_order):
    """Place each writer's version-w write right before the first snapshot
    whose component reaches w; leftovers go at the end. Writes are dealt in
    process order, so each slot is already in (proc, seq) order."""
    slots = [[] for _ in range(len(snap_order) + 1)]
    for proc, queue in enumerate(queues):
        position = 0
        writes = (rec for rec in queue if rec.kind == WRITE)
        for version, rec in enumerate(writes, 1):
            while (position < len(snap_order)
                   and versions[op_id(snap_order[position])][proc] < version):
                position += 1
            slots[position].append(rec)
    witness = []
    for idx, snap in enumerate(snap_order):
        witness.extend(slots[idx])
        witness.append(snap)
    witness.extend(slots[-1])
    return witness


# ---------------------------------------------------------------------------
# exhaustive oracles


def _interleave_search(queues: list[list[OpRecord]], n: int, realtime: bool):
    """Depth-first search over interleavings containing every process order,
    given as _check_ops's queues.

    Every op that returned must be placed; a write that never returned is
    last in its queue (see _check_ops), so the search may stop before it.
    Register states are a function of the per-process consumed counts, so
    dead count vectors are memoized. Returns a witness list or None.
    """
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

    return search((0,) * len(queues), {}, [],
                  sum(rec.completed for rec in chain.from_iterable(queues)))


def _oracle(history: list[OpRecord], n: int, realtime: bool) -> Verdict:
    queues = _check_ops(history, n)
    size = sum(map(len, queues))
    if size > BRUTE_BOUND:
        raise CheckRefusal(f"history has {size} operations, exhaustive "
                           f"bound is {BRUTE_BOUND}")
    witness = _interleave_search(queues, n, realtime)
    if witness is not None:
        return Verdict(True, witness=[op_id(rec) for rec in witness])
    return Verdict(False,
                   certificate=[op_id(rec) for rec in chain.from_iterable(queues)
                                if rec.completed],
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
    doc = {
        "accepted": verdict.accepted,
        "witness": [list(i) for i in verdict.witness] if verdict.witness is not None else None,
        "certificate": ([list(i) for i in verdict.certificate]
                        if verdict.certificate is not None else None),
        "reason": verdict.reason,
    }
    return compact_json(doc) + "\n"
