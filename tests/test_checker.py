import gc
import math
import random
from dataclasses import replace
from itertools import accumulate, chain, combinations
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from seqsnap import checker
from seqsnap.checker import (CheckRefusal, check_lin_brute, check_sc_brute,
                             check_sc_fast, replay_legal,
                             contains_process_order)
from seqsnap.histories import OpRecord, op_id
from seqsnap.rounds import RoundConfig, check_composition, run_rounds
from seqsnap.seqspec import initial_state, seq_step
from sweep import assert_witness_holds, mutate_history


def W(proc, seq, value, t_inv=None, t_ret=None):
    t_inv = proc * 100 + seq if t_inv is None else t_inv
    return OpRecord(proc, seq, "write", t_inv,
                    t_inv if t_ret is None else t_ret, value=value)


def S(proc, seq, result, t_inv=None, t_ret=None):
    t_inv = proc * 100 + seq if t_inv is None else t_inv
    return OpRecord(proc, seq, "snapshot", t_inv,
                    t_inv + 1 if t_ret is None else t_ret,
                    result=tuple(result))


def derive_versions(queues, n):
    """checker._snapshot_vectors keyed by op id: (mapping from each
    completed snapshot's op id to its version vector, None), or (None, the
    rejecting Verdict)."""
    snaps, vectors, _, rejection = checker._snapshot_vectors(queues)
    if rejection is not None:
        return None, rejection
    return {op_id(rec): vector for rec, vector in zip(snaps, vectors)}, None


class TestDeriveVersions:
    def test_initial_values_resolve_to_version_zero(self):
        versions, rejection = derive_versions(
            checker._check_ops([S(0, 0, [0, 0])], 2), 2)
        assert rejection is None
        assert versions[(0, 0, 0)] == (0, 0)

    def test_value_maps_to_write_index(self):
        h = [W(0, 0, 1), W(0, 1, 2), S(1, 0, [2, 0])]
        versions, rejection = derive_versions(checker._check_ops(h, 2), 2)
        assert rejection is None
        assert versions[(0, 1, 0)] == (2, 0)

    def test_unknown_value_rejects(self):
        h = [W(0, 0, 1), S(1, 0, [9, 0])]
        versions, rejection = derive_versions(checker._check_ops(h, 2), 2)
        assert versions is None and not rejection.accepted
        assert rejection.certificate == [(0, 1, 0)]

    def test_duplicate_written_values_refused(self):
        with pytest.raises(CheckRefusal):
            derive_versions(checker._check_ops([W(0, 0, 5), W(0, 1, 5)], 2), 2)


class TestFastChecker:
    def test_shared_snapshot_accepted(self):
        h = [W(0, 0, 1), S(0, 1, [1, 0]), S(1, 0, [1, 0])]
        verdict = check_sc_fast(h, 2)
        assert verdict.accepted
        ordered = {op_id(r): r for r in h}
        witness = [ordered[i] for i in verdict.witness]
        assert contains_process_order(witness, h)
        assert replay_legal(witness, 2)
        # an order that leaves an op out, or swaps p0's two ops, does not
        assert not contains_process_order(witness[1:], h)
        assert not contains_process_order([h[1], h[0], h[2]], h)

    def test_incomparable_snapshots_rejected(self):
        h = [W(0, 0, 1), S(0, 1, [1, 0]), W(1, 0, 1), S(1, 1, [0, 1])]
        verdict = check_sc_fast(h, 2)
        assert not verdict.accepted
        assert len(verdict.certificate) == 2

    def test_empty_history_accepted_with_empty_witness(self):
        verdict = check_sc_fast([], 2)
        assert verdict.accepted and verdict.witness == []

    def test_own_write_must_be_visible(self):
        h = [W(0, 0, 1), S(0, 1, [0, 0])]
        assert not check_sc_fast(h, 2).accepted

    def test_snapshot_must_not_see_own_future_write(self):
        h = [S(0, 0, [1, 0]), W(0, 1, 1)]
        assert not check_sc_fast(h, 2).accepted

    def test_per_process_snapshots_must_not_go_backwards(self):
        h = [W(0, 0, 1), S(1, 0, [1, 0], t_inv=0, t_ret=1),
             S(1, 1, [0, 0], t_inv=2, t_ret=3)]
        assert not check_sc_fast(h, 2).accepted

    def test_incomplete_snapshot_is_ignored(self):
        h = [W(0, 0, 1), OpRecord(1, 0, "snapshot", 0.0, None)]
        assert check_sc_fast(h, 2).accepted

    def test_dropped_write_sits_just_before_its_overwriter(self):
        # p0's second write was never seen by anyone; the witness still
        # contains it, immediately before the visible third write
        h = [W(0, 0, 1), W(0, 1, 2), W(0, 2, 3), S(1, 0, [3, 0])]
        verdict = check_sc_fast(h, 2)
        assert verdict.accepted
        witness = verdict.witness
        assert witness.index((0, 0, 1)) == witness.index((0, 0, 2)) - 1
        assert witness.index((0, 0, 2)) < witness.index((0, 1, 0))

    def test_written_zero_is_resolved_by_the_oracle(self):
        # p1's first 0 is version 0, not p0's later write of 0
        h = [W(0, 0, 5), W(0, 1, 0), S(1, 0, [0, 0]), S(1, 1, [5, 0])]
        assert check_sc_brute(h, 2).accepted
        assert check_sc_fast(h, 2).accepted

    def test_written_zero_above_the_oracle_bound_is_refused(self):
        h = ([W(0, 0, 5), W(0, 1, 0), S(1, 0, [0, 0]), S(1, 1, [5, 0])]
             + [W(1, i, i + 1) for i in range(2, 9)])
        with pytest.raises(CheckRefusal):
            check_sc_fast(h, 2)

    def test_reads_are_refused(self):
        h = [OpRecord(0, 0, "read", 0.0, 1.0, target=0, result=0)]
        with pytest.raises(CheckRefusal):
            check_sc_fast(h, 1)


# one process's ops share a seq on two objects; whichever line comes first,
# no process order is defined
SAME_SEQ = [W(0, 0, 1), replace(S(0, 0, [0, 0]), object_id=1)]


@pytest.mark.parametrize("check", [check_sc_fast, check_sc_brute,
                                   check_lin_brute, check_composition])
@pytest.mark.parametrize("history", [
    [W(0, 0, 1), S(0, 0, [1, 0])],
    [OpRecord(3, 0, "snapshot", 0.0, 1.0, result=(0, 0))],
    [OpRecord(-1, 0, "snapshot", 0.0, 1.0, result=(0, 0))],
    [OpRecord(0, 0, "write", 0.0, None, value=1), S(0, 1, [0, 0])],
    [OpRecord(0, 0, "snapshot", 0.0, None), W(0, 1, 1)],
    SAME_SEQ,
    SAME_SEQ[::-1],
    [OpRecord(True, 0, "snapshot", 0.0, 1.0, result=(0, 0))],
    [W(0, False, 1), S(0, 1, [1, 0])],
    [W(0, None, 1, t_inv=0), W(0, 1, 2)],
    [W(0, 1.0, 1)],
], ids=["repeated-op-id", "process-above-n", "negative-process",
        "op-after-cut-off-write", "op-after-cut-off-snapshot",
        "same-seq-two-objects-write-first",
        "same-seq-two-objects-snapshot-first", "bool-process", "bool-seq",
        "none-seq", "float-seq"])
def test_malformed_op_ids_are_refused(check, history):
    with pytest.raises(CheckRefusal):
        check(history, 2)


@pytest.mark.parametrize("check", [check_sc_fast, check_sc_brute,
                                   check_lin_brute, check_composition])
@pytest.mark.parametrize("n", [2.5, 0, -1, True, None, "2"],
                         ids=["float", "zero", "negative", "bool", "none",
                              "string"])
def test_a_process_count_that_is_not_a_positive_int_is_refused(check, n):
    with pytest.raises(CheckRefusal, match="process count"):
        check([], n)


@pytest.mark.parametrize("check", [check_sc_fast, check_sc_brute,
                                   check_lin_brute])
def test_unsortable_seq_is_refused_not_a_type_error(check):
    # sorting by (proc, seq) would compare None with an int
    history = [OpRecord(0, None, "write", 0.0, 1.0, value=1),
               OpRecord(0, 1, "write", 2.0, 3.0, value=2)]
    with pytest.raises(CheckRefusal):
        check(history, 1)


@pytest.mark.parametrize("check", [check_sc_fast, check_sc_brute,
                                   check_lin_brute])
@pytest.mark.parametrize("op", [
    OpRecord(0, 0, "read", 0.0, 1.0, target=-1, result=0),
    OpRecord(0, 0, "read", 0.0, 1.0, target=None, result=0),
    S(0, 0, [0, 0, 0]),
    OpRecord(0, 0, "snapshot", 0.0, 1.0, result=None),
    OpRecord(0, 0, "write", 0.0, 1.0, value=None),
    OpRecord(0, 0, "bogus", 0.0, 1.0),
    OpRecord(0, 0, "write", 5.0, 1.0, value=1),
    OpRecord(0, 0, "read", 0.0, 1.0, target=False, result=0),
    OpRecord(0, 0, "read", 0.0, 1.0, target=0, result=False),
    S(0, 0, [True, 0]),
    OpRecord(0, 0, "write", 0.0, 1.0, value=True),
    OpRecord(0, 0, "write", None, 1.0, value=1),
    OpRecord(0, 0, "write", None, None, value=1),
    OpRecord(0, 0, "write", "a", "b", value=1),
    OpRecord(0, 0, "write", 0, True, value=1),
    OpRecord(0, 0, "write", False, 1.0, value=1),
    OpRecord(0, 0, "write", math.nan, None, value=1),
    OpRecord(0, 0, "snapshot", math.nan, None),
    replace(W(0, 0, 1), object_id=True),
    replace(W(0, 0, 1), object_id=1.0),
    replace(W(0, 0, 1), object_id="0"),
    replace(W(0, 0, 1), object_id=None),
    replace(W(0, 0, 1), seq=-1),
    replace(W(0, 0, 1), object_id=-1),
    replace(W(0, 0, 1), run_seed=1.0),
    replace(W(0, 0, 1), target=1),
    OpRecord(0, 0, "snapshot", 0.0, 1.0, value=1, result=(0, 0)),
    OpRecord(0, 0, "snapshot", 0.0, None, result=(0, 0)),
    OpRecord(0, 0, "read", 0.0, 1.0, value=1, target=0, result=0),
], ids=["read-target-negative", "read-target-none", "snapshot-arity",
        "snapshot-result-none", "write-value-none", "unknown-kind",
        "returns-before-invoked", "read-target-bool", "read-result-bool",
        "snapshot-cell-bool", "write-value-bool", "t-inv-none",
        "cut-off-write-t-inv-none", "string-times", "t-ret-bool",
        "t-inv-bool", "cut-off-write-t-inv-nan", "cut-off-snapshot-t-inv-nan",
        "object-id-bool", "object-id-float", "object-id-string",
        "object-id-none", "seq-negative", "object-id-negative",
        "run-seed-float", "write-with-target", "snapshot-with-value",
        "cut-off-snapshot-with-result", "read-with-value"])
def test_malformed_ops_are_refused(check, op):
    with pytest.raises(CheckRefusal):
        check([op], 2)


def test_infinite_times_are_accepted():
    h = [W(0, 0, 1, t_inv=-math.inf, t_ret=math.inf),
         S(1, 0, [1, 0], t_inv=math.inf, t_ret=math.inf)]
    for check in (check_sc_fast, check_sc_brute, check_lin_brute):
        assert check(h, 2).accepted


class TestBruteChecker:
    def test_single_process_history_accepts_its_own_order(self):
        h = [W(0, 0, 1), S(0, 1, [1, 0]), W(0, 2, 2), S(0, 3, [2, 0])]
        assert check_sc_brute(h, 2).accepted

    def test_stale_then_fresh_snapshot_accepted(self):
        h = [W(0, 0, 1), S(1, 0, [0, 0]), S(1, 1, [1, 0])]
        assert check_sc_brute(h, 2).accepted

    def test_incomparable_rejected(self):
        h = [W(0, 0, 1), S(0, 1, [1, 0]), W(1, 0, 1), S(1, 1, [0, 1])]
        assert not check_sc_brute(h, 2).accepted

    def test_size_bound_refusal(self):
        h = [W(0, i, i + 1) for i in range(11)]
        with pytest.raises(CheckRefusal):
            check_sc_brute(h, 1)

    def test_incomplete_write_tried_both_ways(self):
        # only legal if the cut-off write is treated as never happening
        h = [OpRecord(0, 0, "write", 0.0, None, value=1),
             S(1, 0, [0, 0], t_inv=5, t_ret=6)]
        assert check_sc_brute(h, 2).accepted
        # and only legal if it is treated as complete
        h2 = [OpRecord(0, 0, "write", 0.0, None, value=1),
              S(1, 0, [1, 0], t_inv=5, t_ret=6)]
        assert check_sc_brute(h2, 2).accepted


class TestLinChecker:
    def test_sequential_legal_history_accepted(self):
        h = [W(0, 0, 1, t_inv=0, t_ret=0), S(1, 0, [1, 0], t_inv=1, t_ret=2)]
        assert check_lin_brute(h, 2).accepted

    def test_sc_but_not_linearizable(self):
        h = [W(0, 0, 1, t_inv=0, t_ret=0), S(1, 0, [0, 0], t_inv=5, t_ret=6)]
        assert check_sc_brute(h, 2).accepted
        assert not check_lin_brute(h, 2).accepted

    def test_empty_accepted(self):
        assert check_lin_brute([], 2).accepted

    def test_concurrent_ops_may_reorder(self):
        h = [W(0, 0, 1, t_inv=0, t_ret=10), S(1, 0, [0, 0], t_inv=1, t_ret=2)]
        assert check_lin_brute(h, 2).accepted


# --- randomized cross-validation -------------------------------------------

@st.composite
def tiny_history(draw):
    """Up to 6 ops; now and then a process's last op never returns (a write
    keeps its value, a snapshot has no result) and it takes no more ops."""
    n = draw(st.integers(1, 3))
    records = []
    written = {p: [] for p in range(n)}
    alive = list(range(n))
    time = 0.0
    for _ in range(draw(st.integers(0, 6))):
        if not alive:
            break
        proc = draw(st.sampled_from(alive))
        seq = sum(1 for r in records if r.proc == proc)
        time += draw(st.floats(0.0, 2.0, allow_nan=False))
        returned = draw(st.integers(0, 5)) > 0
        if not returned:
            alive.remove(proc)
        if draw(st.booleans()):
            value = len(written[proc]) * 10 + proc + 1
            # now and then a writer writes 0 (once), so a 0 in its cell may
            # be the initial value or that write
            if 0 not in written[proc] and draw(st.integers(0, 3)) == 0:
                value = 0
            written[proc].append(value)
            records.append(OpRecord(proc, seq, "write", time,
                                    time if returned else None, value=value))
        else:
            # plausible-to-garbled snapshot: per cell pick initial, any
            # written value, or garbage
            result = []
            for q in range(n):
                choice = draw(st.integers(0, len(written[q]) + 1))
                if choice == 0:
                    result.append(0)
                elif choice <= len(written[q]):
                    result.append(written[q][choice - 1])
                else:
                    result.append(draw(st.sampled_from([0, 999])))
            records.append(OpRecord(proc, seq, "snapshot", time,
                                    time + 1 if returned else None,
                                    result=tuple(result) if returned else None))
    return n, records


@given(tiny_history())
@settings(max_examples=400, deadline=None)
def test_fast_checker_agrees_with_oracle(case):
    n, history = case
    fast = check_sc_fast(history, n)
    brute = check_sc_brute(history, n)
    assert fast.accepted == brute.accepted


@given(tiny_history())
@settings(max_examples=200, deadline=None)
def test_lin_accept_implies_sc_accept(case):
    n, history = case
    if check_lin_brute(history, n).accepted:
        assert check_sc_brute(history, n).accepted


@given(tiny_history())
@settings(max_examples=200, deadline=None)
def test_accepted_witnesses_replay_legally(case):
    n, history = case
    verdict = check_sc_fast(history, n)
    if verdict.accepted:
        assert_witness_holds(verdict, history, n)


def restart_reference(check, history, n):
    """The oracle as one search per subset of the cut-off writes, each
    subset forced in as if returned at the end of time."""
    completed = [r for r in history if r.completed]
    cut_off = [r for r in history if not r.completed and r.kind == "write"]
    return any(check(completed + [replace(w, t_ret=math.inf) for w in subset],
                     n).accepted
               for size in range(len(cut_off) + 1)
               for subset in combinations(cut_off, size))


@pytest.mark.parametrize("check", [check_sc_brute, check_lin_brute])
@given(case=tiny_history())
@settings(max_examples=300, deadline=None)
def test_one_search_matches_one_search_per_cut_off_subset(check, case):
    n, history = case
    verdict = check(history, n)
    assert verdict.accepted == restart_reference(check, history, n)
    if verdict.accepted:
        assert_witness_holds(verdict, history, n,
                             realtime=check is check_lin_brute)


@st.composite
def mid_history(draw):
    """11-30 ops with nonzero values unique per writer; about one op in eight
    is left incomplete, and its process then takes no more ops (so the
    history ends early once every process has stopped). A snapshot
    shows either the latest write of each cell in generation order (so many
    histories are SC) or, per cell, any version written so far."""
    n = draw(st.integers(1, 4))
    records = []
    written = {p: [] for p in range(n)}
    alive = list(range(n))
    time = 0.0
    for _ in range(draw(st.integers(11, 30))):
        if not alive:
            break
        proc = draw(st.sampled_from(alive))
        seq = sum(1 for r in records if r.proc == proc)
        time += draw(st.floats(0.0, 2.0, allow_nan=False))
        t_ret = None if draw(st.integers(0, 7)) == 0 else time + 1
        if t_ret is None:
            alive.remove(proc)
        if draw(st.booleans()):
            value = (len(written[proc]) + 1) * 10 + proc + 1
            written[proc].append(value)
            records.append(OpRecord(proc, seq, "write", time, t_ret, value=value))
        else:
            if draw(st.booleans()):
                result = [w[-1] if w else 0 for w in written.values()]
            else:
                result = [draw(st.sampled_from([0] + written[q])) for q in range(n)]
            records.append(OpRecord(proc, seq, "snapshot", time, t_ret,
                                    result=None if t_ret is None else tuple(result)))
    return n, records


@given(mid_history())
@settings(max_examples=300, deadline=None)
def test_witness_construction_never_needs_the_oracle(case):
    # check_sc_fast returns its witness unreplayed; replay it here
    n, history = case
    verdict = check_sc_fast(history, n)
    if verdict.accepted:
        by_id = {op_id(r): r for r in history}
        witness = [by_id[i] for i in verdict.witness]
        assert replay_legal(witness, n)
        included = [r for r in history
                    if r.kind == "write" or (r.kind == "snapshot" and r.completed)]
        assert contains_process_order(witness, included)


# --- the search against the one it replaced ----------------------------------

def reference_interleave_search(queues, n, realtime):
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


def assert_search_matches_reference(history, n):
    """The search finds the reference's witness, the same records in the
    same order, or nothing when the reference finds nothing."""
    queues = checker._check_ops(history, n)
    for realtime in (False, True):
        expected = reference_interleave_search(queues, n, realtime)
        found = checker._interleave_search(queues, n, realtime)
        if expected is None:
            assert found is None
        else:
            assert len(found) == len(expected)
            assert all(a is b for a, b in zip(found, expected))


@given(tiny_history())
@settings(max_examples=300, deadline=None)
def test_search_matches_reference_on_tiny_histories(case):
    assert_search_matches_reference(case[1], case[0])


@given(mid_history())
@settings(max_examples=200, deadline=None)
def test_search_matches_reference_on_mid_histories(case):
    assert_search_matches_reference(case[1], case[0])


@st.composite
def two_object_history(draw):
    """A tiny history whose ops are spread over objects 0 and 1."""
    n, records = draw(tiny_history())
    return n, [replace(rec, object_id=draw(st.integers(0, 1))) for rec in records]


@given(two_object_history())
@settings(max_examples=200, deadline=None)
def test_search_matches_reference_on_two_object_histories(case):
    assert_search_matches_reference(case[1], case[0])


@pytest.mark.parametrize("seed", range(12))
def test_search_matches_reference_on_composed_runs(seed):
    n = (2, 3)[seed % 2]
    history = run_rounds(RoundConfig(n=n, rounds=2, seed=seed)).history
    rng = random.Random(f"composed-search:{seed}")
    mutants = (mutate_history(history, n, rng) for _ in range(3))
    for candidate in [history] + [m for m in mutants if m is not None]:
        assert_search_matches_reference(candidate, n)


@st.composite
def read_history(draw):
    """Up to 7 writes, snapshots and reads spread over objects 0 and 1; now
    and then a process's last op never returns and it takes no more ops.
    Values are unique per writer across both objects. A read's result, and
    each cell of a snapshot's, is 0, a value its writer wrote on either
    object, or 999, which no writer writes."""
    n = draw(st.integers(1, 3))
    records = []
    written = {p: [] for p in range(n)}
    alive = list(range(n))
    time = 0.0
    for _ in range(draw(st.integers(0, 7))):
        if not alive:
            break
        proc = draw(st.sampled_from(alive))
        seq = sum(1 for r in records if r.proc == proc)
        obj = draw(st.integers(0, 1))
        time += draw(st.floats(0.0, 2.0, allow_nan=False))
        t_ret = time + 1 if draw(st.integers(0, 5)) > 0 else None
        if t_ret is None:
            alive.remove(proc)

        def shown(q):
            return draw(st.sampled_from([0, 999] + written[q]))

        kind = draw(st.sampled_from(["write", "snapshot", "read"]))
        if kind == "write":
            value = len(written[proc]) * 10 + proc + 1
            written[proc].append(value)
            rec = OpRecord(proc, seq, kind, time, t_ret, value=value)
        elif kind == "snapshot":
            result = tuple(shown(q) for q in range(n))
            rec = OpRecord(proc, seq, kind, time, t_ret,
                           result=None if t_ret is None else result)
        else:
            target = draw(st.integers(0, n - 1))
            result = shown(target)
            rec = OpRecord(proc, seq, kind, time, t_ret, target=target,
                           result=None if t_ret is None else result)
        records.append(replace(rec, object_id=obj))
    return n, records


@given(read_history())
@settings(max_examples=400, deadline=None)
def test_search_matches_reference_on_read_histories(case):
    assert_search_matches_reference(case[1], case[0])


def R(proc, seq, target, result, object_id=0):
    return OpRecord(proc, seq, "read", proc * 100 + seq, proc * 100 + seq + 1,
                    target=target, result=result, object_id=object_id)


class TestEarlyReject:
    """A returned snapshot or read that asks a cell for a value its writer
    never writes on that object (and not 0) is rejected before any search,
    with the same verdict the search gives."""

    @pytest.mark.parametrize("history", [
        [W(0, 0, 1), S(1, 0, [2, 0])],
        [W(0, 0, 1), R(1, 0, 0, 2)],
        # written, but on the other object
        [W(0, 0, 1), replace(W(1, 0, 5), object_id=1), S(1, 1, [1, 5])],
        [replace(W(0, 0, 1), object_id=1), R(1, 0, 0, 1)],
    ], ids=["snapshot", "read", "snapshot-other-object", "read-other-object"])
    def test_never_written_value_is_rejected(self, history):
        queues = checker._check_ops(history, 2)
        assert checker._search_steps(queues, 2) is None
        for realtime in (False, True):
            assert checker._interleave_search(queues, 2, realtime) is None
            assert reference_interleave_search(queues, 2, realtime) is None
        for check in (check_sc_brute, check_lin_brute):
            verdict = check(history, 2)
            assert not verdict.accepted
            assert verdict.certificate == [op_id(r) for r in history]

    @pytest.mark.parametrize("history", [
        [W(0, 0, 1), S(1, 0, [0, 0]), R(1, 1, 0, 0)],
        [W(0, 0, 0), R(1, 0, 0, 0), S(1, 1, [0, 0])],
        # a cut-off write may still have taken effect
        [OpRecord(0, 0, "write", 0.0, None, value=3), R(1, 0, 0, 3)],
    ], ids=["initial", "written-zero", "cut-off-write"])
    def test_zero_and_written_values_are_searched(self, history):
        queues = checker._check_ops(history, 2)
        assert checker._search_steps(queues, 2) is not None
        assert check_sc_brute(history, 2).accepted


def test_checks_leave_no_cyclic_garbage():
    """Every check frees what it built by reference counting alone: with
    the collector off, nothing is left for it to find."""
    composed = run_rounds(RoundConfig(n=2, rounds=2, seed=0)).history
    snapshot_cases = [
        [W(0, 0, 1), S(1, 0, [0, 0]), S(1, 1, [1, 0])],              # accepted
        [W(0, 0, 1), S(0, 1, [1, 0]), W(1, 0, 1), S(1, 1, [0, 1])],  # rejected
        [W(0, 0, 1), S(1, 0, [7, 0])],                       # never written
        [W(0, 0, 0), S(1, 0, [0, 0])],                  # fast hands to brute
    ]
    read_cases = [[W(0, 0, 1), R(1, 0, 0, 1)], [W(0, 0, 1), R(1, 0, 0, 7)]]
    calls = [(check, history)
             for check in (check_sc_fast, check_sc_brute, check_lin_brute,
                           check_composition)
             for history in snapshot_cases]
    calls += [(check, history)
              for check in (check_sc_brute, check_lin_brute)
              for history in read_cases]
    mutant = mutate_history(composed, 2, random.Random("garbage"))
    calls += [(check_composition, composed), (check_composition, mutant)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for check, history in calls:
            check(history, 2)
            assert gc.collect() == 0, (check.__name__, history)
    finally:
        if enabled:
            gc.enable()
