"""Decide whether recorded histories admit a legal total order.

`check_sc_fast` is the structural checker for snapshot histories: it resolves
snapshot results to per-writer versions, tests four order conditions, and
builds an explicit witness order, which those conditions make legal (its
docstring proves it), so every accept carries a witness.
`check_sc_brute` / `check_lin_brute` enumerate interleavings outright and
are the authoritative oracles on small histories; the brute search folds
per-object states, so it also serves composed histories.

Rejections carry a certificate: a sufficient (not necessarily minimal)
subset of operations witnessing the violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import inf
from operator import attrgetter, getitem, le, mul

from .histories import OpRecord, compact_json, op_error, op_id
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
        state = states.get(rec.object_id)
        state, ok = seq_step(initial_state(n) if state is None else state, rec)
        if not ok:
            return False
        states[rec.object_id] = state
    return True


_SEQ = attrgetter("seq")


def _check_ops(history: list[OpRecord], n: int) -> list[list[OpRecord]]:
    """Refuse a process count n that is not an int >= 1 (a bool is not),
    and a malformed op, for which no verdict is defined: one that
    histories.op_error refuses (infinite times are kept), a process outside
    0..n-1, a returned snapshot whose result is not n cells, a read whose
    target is not a cell, two ops of one process with the same seq (on any
    object), or an op after one of its process's ops that never returned (a
    process runs one op at a time, so only its last op can be cut off).

    Returns the process order: one queue per process id, each in seq order,
    of the ops a legal order accounts for. Those are every op that returned,
    and every write, since one cut off by a crash may still have taken
    effect."""
    if type(n) is not int or n < 1:
        raise CheckRefusal(f"process count {n!r} is not an int >= 1")
    queues = [[] for _ in range(n)]
    for rec in history:
        error = op_error(rec)
        if error is None:
            # past op_error only a read has a target; other results are vectors
            proc, result, target = rec.proc, rec.result, rec.target
            if not (proc < n and (target < n if target is not None
                                  else result is None or len(result) == n)):
                error = f"a process, target or result outside n={n}"
        if error is not None:
            raise CheckRefusal(f"malformed op ({error}): {rec}")
        queues[proc].append(rec)
    for proc, queue in enumerate(queues):
        if not queue:
            continue
        queue.sort(key=_SEQ)
        prev = queue[0]
        for rec in queue[1:]:
            if rec.seq == prev.seq:
                raise CheckRefusal(f"process {proc} repeats seq {rec.seq}")
            if prev.t_ret is None:
                raise CheckRefusal(f"op {op_id(rec)} follows an op of process "
                                   f"{proc} that never returned")
            prev = rec
        # only the last op can be cut off; a cut-off write stays
        if prev.t_ret is None and prev.kind != WRITE:
            queue.pop()
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


def _snapshot_vectors(queues):
    """Resolve each completed snapshot to a vector of per-writer versions.

    Version w of writer p is p's w-th write in process order; version 0 is
    the initial cell. Takes the process order from _check_ops. Returns the
    snapshots in process order, their vectors in the same order (None when
    a snapshot claims a value its writer never wrote), the writers that
    wrote 0, and the rejecting Verdict if there is one."""
    version_of = []
    zero_writers = []
    snaps = []
    for p, queue in enumerate(queues):
        table = {}
        version = 0
        for rec in queue:
            kind = rec.kind
            if kind == WRITE:
                version += 1
                if rec.value in table:
                    raise CheckRefusal(
                        f"process {p} wrote value {rec.value} twice; version "
                        f"resolution needs unique values per writer")
                table[rec.value] = version
            elif kind == SNAPSHOT:
                snaps.append(rec)
        # a 0 no write claims is the initial cell
        if 0 in table:
            zero_writers.append(p)
        else:
            table[0] = 0
        version_of.append(table)
    vectors = []
    for rec in snaps:
        vector = tuple(map(dict.get, version_of, rec.result))
        if None in vector:
            q = vector.index(None)
            return snaps, None, zero_writers, Verdict(
                False, certificate=[op_id(rec)],
                reason=f"snapshot claims value {rec.result[q]} for cell {q}, "
                       f"never written")
        vectors.append(vector)
    return snaps, vectors, zero_writers, None


def _componentwise_leq(u, v) -> bool:
    return all(map(le, u, v))


# ---------------------------------------------------------------------------
# fast structural check


def check_sc_fast(history: list[OpRecord], n: int) -> Verdict:
    """Structural acceptance test for snapshot histories.

    Accepts iff (1) all snapshot version vectors are pairwise comparable,
    (2) each snapshot's own component equals the number of its own preceding
    writes (which also bounds it below every later own write), and (3) the
    vectors are nondecreasing along each process order. A 0 in the cell of
    a writer that wrote 0 may be version 0 or that write, so such a history
    goes to the exhaustive oracle. The ops judged are those _check_ops
    counts; a write that never returned is kept as if complete, since it is
    its process's last op and, if no snapshot shows it, can go last in the
    witness.

    Malformed ops (see _check_ops) are refused on entry. Once (1)-(3) pass
    on a history that passed _check_ops, the witness assembled from these
    facts is legal and contains every process order, so it is returned
    without being replayed:
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
    objects = set()
    for rec in history:
        if rec.kind == READ:
            raise CheckRefusal("single-cell reads are only handled by the "
                               "exhaustive checkers")
        objects.add(rec.object_id)
    if len(objects) > 1:
        raise CheckRefusal("multi-object history: use the composition checker")
    snaps, vectors, zero_writers, rejection = _snapshot_vectors(queues)
    if rejection is not None:
        return rejection
    # A writer that wrote 0 makes a 0 in its cell mean either version 0 or
    # that write; version resolution cannot tell, so the oracle decides.
    if zero_writers and any(rec.result[q] == 0
                            for rec in snaps for q in zero_writers):
        return check_sc_brute(history, n)

    position = 0        # snaps and vectors run in process order too
    for proc, queue in enumerate(queues):
        writes_before = 0
        last_write = prev_snap = prev_vec = None
        for rec in queue:
            if rec.kind == WRITE:
                writes_before += 1
                last_write = rec
                continue
            vec = vectors[position]
            position += 1
            if vec[proc] != writes_before:
                cert = [op_id(rec)]
                if last_write is not None:
                    cert.append(op_id(last_write))
                return Verdict(False, certificate=cert,
                               reason=f"snapshot by {proc} shows version "
                                      f"{vec[proc]} of its own cell after "
                                      f"{writes_before} own writes")
            if prev_vec is not None and not _componentwise_leq(prev_vec, vec):
                return Verdict(False, certificate=[op_id(prev_snap), op_id(rec)],
                               reason=f"snapshots of process {proc} go backwards")
            prev_snap, prev_vec = rec, vec

    # stable, so snapshots with equal vectors stay in process order
    order = sorted(range(len(snaps)), key=vectors.__getitem__)
    chain_snaps = [snaps[k] for k in order]
    chain_vecs = [vectors[k] for k in order]
    for k in range(1, len(order)):
        if not _componentwise_leq(chain_vecs[k - 1], chain_vecs[k]):
            return Verdict(False,
                           certificate=[op_id(chain_snaps[k - 1]),
                                        op_id(chain_snaps[k])],
                           reason="incomparable snapshots")

    witness = _build_witness(queues, chain_vecs, chain_snaps)
    return Verdict(True, witness=list(map(op_id, witness)))


def _build_witness(queues, chain_vecs, chain_snaps):
    """Place each writer's version-w write right before the first snapshot
    of the chain whose vector reaches w; leftovers go at the end. Writes are
    dealt in process order, so each slot is already in (proc, seq) order."""
    end = len(chain_snaps)
    slots = [[] for _ in range(end + 1)]
    for proc, queue in enumerate(queues):
        position = 0
        writes = (rec for rec in queue if rec.kind == WRITE)
        for version, rec in enumerate(writes, 1):
            while position < end and chain_vecs[position][proc] < version:
                position += 1
            slots[position].append(rec)
    witness = []
    for idx, snap in enumerate(chain_snaps):
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
    dead count vectors are memoized, each as one mixed-radix int that moves
    by its queue's stride when an op of that queue is placed. The search
    backtracks over one counts list, one path and one register list per
    object id: each op is decoded once into a step that a write applies by
    setting one cell (put back after it) and that a snapshot or read checks
    against the list, which is what seq_step does on the array. A snapshot
    or read that asks a cell for a value other than 0 that the cell's writer
    never writes on its object can never be placed, so such a history is
    rejected before any search. Returns a witness list or None.
    """
    # every op that returned must be placed
    left = sum(rec.t_ret is not None for rec in chain.from_iterable(queues))
    if left == 0:
        return []
    steps = _search_steps(queues, n)
    if steps is None:
        return None
    strides = list(accumulate(map(len, steps), mul, initial=1))
    # earliest[i][k]: the earliest return among queue i's ops from position k
    # on. In real time an op may be placed only when every op that returned
    # before it was invoked is placed, i.e. no unplaced op returned earlier.
    earliest = [list(accumulate((inf if r.t_ret is None else r.t_ret
                                 for r in reversed(queue)), min, initial=inf))[::-1]
                for queue in queues] if realtime else None
    counts = [0] * len(queues)
    path = []
    dead = set()

    def search(key, left):
        # key is neither dead nor done: the caller tests both
        horizon = min(map(getitem, earliest, counts)) if realtime else inf
        for i, row in enumerate(steps):
            idx = counts[i]
            step = row[idx]
            if step is None:
                continue
            rec, cells, cell, value, write, returned, t_inv = step
            if horizon < t_inv:
                continue
            if write:
                old = cells[cell]
                cells[cell] = value
            elif (cells if cell is None else cells[cell]) != value:
                continue
            rest = left - returned
            if rest == 0:
                path.append(rec)
                return True
            child = key + strides[i]
            if child not in dead:
                counts[i] = idx + 1
                path.append(rec)
                if search(child, rest):
                    return True
                path.pop()
                counts[i] = idx
            if write:
                cells[cell] = old
        dead.add(key)
        return False

    found = search(0, left)
    # the closure refers to itself; dropping the name frees the search's
    # state by reference counting alone, without the cyclic collector
    del search
    return path if found else None


def _search_steps(queues, n):
    """Decode each op of the queues into a step (record, its object's
    register list, the cell, the value, is-write, returned, t_inv): a write
    sets cell to value, a read compares cell with value, and a snapshot
    (cell None) compares the whole list with its result as a list. Each
    queue ends in None, so a queue that is used up needs no length test.
    Returns None when a snapshot or read asks for a value that can never be
    in its cell; only writes are cut off in _check_ops's queues, so every
    such op returned and must be placed."""
    # (object id, writer, value) of every write; 0 is in every cell at first
    written = {(rec.object_id, rec.proc, rec.value)
               for rec in chain.from_iterable(queues) if rec.kind == WRITE}
    registers = {}
    steps = []
    for queue in queues:
        row = []
        for rec in queue:
            obj, kind = rec.object_id, rec.kind
            cells = registers.get(obj)
            if cells is None:
                cells = registers[obj] = [0] * n
            if kind == WRITE:
                row.append((rec, cells, rec.proc, rec.value, True,
                            rec.t_ret is not None, rec.t_inv))
                continue
            if kind == SNAPSHOT:
                cell, value = None, list(rec.result)
                for q, got in enumerate(value):
                    if got and (obj, q, got) not in written:
                        return None
            else:
                cell, value = rec.target, rec.result
                if value and (obj, cell, value) not in written:
                    return None
            row.append((rec, cells, cell, value, False, True, rec.t_inv))
        row.append(None)
        steps.append(row)
    return steps


def _oracle(history: list[OpRecord], n: int, realtime: bool) -> Verdict:
    queues = _check_ops(history, n)
    size = sum(map(len, queues))
    if size > BRUTE_BOUND:
        raise CheckRefusal(f"history has {size} operations, exhaustive "
                           f"bound is {BRUTE_BOUND}")
    witness = _interleave_search(queues, n, realtime)
    if witness is not None:
        return Verdict(True, witness=list(map(op_id, witness)))
    return Verdict(False,
                   certificate=[op_id(rec) for rec in chain.from_iterable(queues)
                                if rec.t_ret is not None],
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
