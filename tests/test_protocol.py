import copy

import pytest
from hypothesis import given, settings, strategies as st

from seqsnap import protocol
from seqsnap.protocol import (INF, PendingUpdate, UpdateMsg, compute_validable,
                              handle_message, init, invoke_snapshot,
                              invoke_write)
from seqsnap.sim import run_simulation
from sweep import SWEEP_NS, sweep_config


def depends(first, second, n):
    """True when `second` must not be validated before `first`: until a
    strict majority of processes is known to have stamped `second` before
    `first`. Unknown stamps (INF) never count as earlier. This is the test
    compute_validable reads from the `ahead` counts that handle_message
    keeps on `second`, stated on the stamps."""
    ahead = sum(1 for j in range(n) if second.seen[j] < first.seen[j])
    return ahead * 2 <= n


def derived_counts(pending):
    """Each entry's (known, ahead), computed from the seen vectors alone."""
    return {key: (sum(1 for s in g.seen if s < INF),
                  {other: sum(1 for mine, theirs in zip(g.seen, h.seen)
                              if mine < theirs)
                   for other, h in pending.items() if other != key})
            for key, g in pending.items()}


def pending_set(seen_by_key):
    """A pending dict of value-1 entries, with the counts their stamps give."""
    pending = {key: PendingUpdate(1, list(seen))
               for key, seen in seen_by_key.items()}
    for key, (known, ahead) in derived_counts(pending).items():
        pending[key].known, pending[key].ahead = known, ahead
    return pending


def with_pending(state, seen_by_key):
    """Enter value-1 updates into state's pending set through the handler's
    own bookkeeping, each stamped as its list says (INF: not yet)."""
    for key, seen in seen_by_key.items():
        protocol._admit(state, key, 1)
        for j, stamp in enumerate(seen):
            if stamp < INF:
                protocol._record_stamp(state, key, j, stamp)
    return state


def own_entries(state):
    return sum(1 for (writer, _stamp) in state.pending if writer == state.me)


def reference_validable(pending, n):
    """The validation fixpoint stated on the stamps through `depends`."""
    ready = {key for key, g in pending.items()
             if sum(1 for s in g.seen if s < INF) * 2 > n}
    changed = True
    while changed:
        changed = False
        for key in sorted(ready):
            second = pending[key]
            for other, first in pending.items():
                if other in ready:
                    continue
                if depends(first, second, n):
                    ready.discard(key)
                    changed = True
                    break
    return sorted(ready)


class TestInit:
    def test_fresh_state(self):
        state = init(3, 1)
        assert state.view == (0, 0, 0)
        assert state.view_stamps == (0, 0, 0)
        assert state.clock == 0
        assert state.pending == {}
        assert state.deferred is None

    def test_single_process(self):
        assert init(1, 0).view == (0,)

    def test_wide_state(self):
        state = init(5, 4)
        assert state.view_stamps == (0,) * 5 and not state.pending

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            init(3, 3)
        with pytest.raises(ValueError):
            init(3, -1)


class TestWrite:
    def test_fresh_write_broadcasts_with_own_stamp(self):
        state = init(5, 4)
        eff = invoke_write(state, 1)
        assert state.clock == 1
        assert eff.broadcasts == [UpdateMsg(1, 4, 1, 1, 4)]
        assert eff.completions == [("write", None)]

    def test_write_with_own_pending_is_buffered(self):
        state = with_pending(init(3, 0), {(0, 1): [1, INF, INF]})
        eff = invoke_write(state, 7)
        assert state.deferred == 7
        assert eff.broadcasts == [] and eff.completions == [("write", None)]

    def test_write_is_buffered_before_the_last_writes_own_copy_arrives(self):
        # the first update is pending from its send, not from its own copy
        state = init(3, 0)
        first = invoke_write(state, 5).broadcasts
        eff = invoke_write(state, 6)
        assert len(first) == 1 and eff.broadcasts == []
        assert state.deferred == 6 and state.own_pending == 1

    def test_newer_buffered_write_drops_older(self):
        state = with_pending(init(3, 0), {(0, 1): [1, INF, INF]})
        invoke_write(state, 7)
        eff = invoke_write(state, 9)
        assert state.deferred == 9
        assert eff.broadcasts == []


class TestSnapshot:
    def test_immediate_when_nothing_outstanding(self):
        state = init(2, 1)
        state.view = (1, 0)
        eff = invoke_snapshot(state)
        assert eff.completions == [("snapshot", (1, 0))]
        assert not state.snapshot_pending

    def test_result_is_the_view_it_read(self):
        # both completions hand out the state's own view tuple, which a
        # later validation replaces and never changes
        state = init(3, 0)
        handle_message(state, invoke_write(state, 5).broadcasts[0])
        assert invoke_snapshot(state) is protocol.NOTHING
        [(kind, waited)] = handle_message(
            state, UpdateMsg(5, 0, 1, 4, 1)).completions
        assert kind == "snapshot" and waited is state.view
        [(kind, immediate)] = invoke_snapshot(state).completions
        assert kind == "snapshot" and immediate is state.view
        relay = handle_message(state, UpdateMsg(7, 1, 1, 1, 1)).broadcasts[0]
        assert handle_message(state, relay).validated == [(1, 1)]
        assert state.view == (5, 7, 0)
        assert waited == immediate == (5, 0, 0)

    def test_waits_for_own_update(self):
        state = with_pending(init(3, 0), {(0, 1): [1, INF, INF]})
        eff = invoke_snapshot(state)
        assert eff is protocol.NOTHING and state.snapshot_pending

    def test_waits_before_the_own_copy_of_a_write_arrives(self):
        state = init(3, 0)
        invoke_write(state, 5)
        assert invoke_snapshot(state) is protocol.NOTHING
        assert state.snapshot_pending

    def test_single_process_write_then_snapshot(self):
        state = init(1, 0)
        eff = invoke_write(state, 5)
        msg = eff.broadcasts[0]
        eff = handle_message(state, msg)  # own copy, instant
        assert eff.validated == [(0, 1)]
        eff = invoke_snapshot(state)
        assert eff.completions == [("snapshot", (5,))]


class TestDepends:
    def test_minority_ahead_keeps_dependency(self):
        first, second = pending_set({(0, 1): [3, 4, INF, INF, INF],
                                     (1, 1): [1, 2, INF, INF, INF]}).values()
        assert depends(first, second, 5)
        assert second.ahead[(0, 1)] == 2

    def test_majority_ahead_breaks_dependency(self):
        first, second = pending_set({(0, 1): [4, 5, 6, INF, INF],
                                     (1, 1): [1, 2, 3, INF, INF]}).values()
        assert not depends(first, second, 5)
        assert second.ahead[(0, 1)] == 3

    def test_reflexive(self):
        g, = pending_set({(0, 1): [1, 2, INF, INF, INF]}).values()
        assert depends(g, g, 5)


class TestComputeValidable:
    def test_empty(self):
        assert compute_validable({}, 5) == []

    def test_single_majority_stamped_entry(self):
        pending = pending_set({(2, 1): [1, 1, 1, INF, INF]})
        assert compute_validable(pending, 5) == [(2, 1)]

    def test_majority_entry_behind_a_blocked_one_stays(self):
        # b has majority stamps, a does not, and no majority saw b before a
        pending = pending_set({(4, 1): [2, INF, 1, INF, INF],
                               (0, 1): [1, 1, 2, INF, INF]})
        b = pending[(0, 1)]
        assert b.known == 3 and b.ahead[(4, 1)] == 2
        assert compute_validable(pending, 5) == []

    def test_chain_of_blocked_entries_is_followed(self):
        # a is blocked (one stamp); b depends on a, c on b only
        state = with_pending(init(3, 0), {(0, 1): [1, INF, INF],
                                          (1, 1): [2, 1, INF],
                                          (2, 1): [3, 2, 1]})
        pending = state.pending
        assert derived_counts(pending) == {
            key: (g.known, g.ahead) for key, g in pending.items()}
        assert pending[(2, 1)].ahead[(0, 1)] == 2
        assert compute_validable(pending, 3) == []
        protocol._retire(state, (0, 1))
        assert compute_validable(pending, 3) == [(1, 1), (2, 1)]
        assert state.own_pending == 0


def deliver_all(states, eff_queue):
    """Synchronous flood delivery; fine for handler-level tests."""
    while eff_queue:
        msg = eff_queue.pop(0)
        for state in states:
            eff = handle_message(state, msg)
            eff_queue.extend(eff.broadcasts)


class TestHandleMessage:
    def test_third_distinct_stamp_validates(self):
        state = init(5, 3)
        eff = handle_message(state, UpdateMsg(1, 4, 1, 1, 4))
        assert eff.broadcasts[0].relay_stamp == 1  # relayed with own stamp
        handle_message(state, eff.broadcasts[0])  # own copy
        eff = handle_message(state, UpdateMsg(1, 4, 1, 1, 2))
        assert eff.validated == [(4, 1)]
        assert state.view_stamps[4] == 1 and state.view[4] == 1

    def test_stale_message_is_ignored(self):
        state = init(3, 0)
        state.view_stamps = (0, 5, 0)
        before = copy.deepcopy(state)
        eff = handle_message(state, UpdateMsg(9, 1, 3, 3, 1))
        assert state == before
        assert not eff.broadcasts and not eff.validated

    def test_duplicate_sighting_only_updates_stamp(self):
        state = init(5, 0)
        handle_message(state, UpdateMsg(1, 4, 1, 1, 4))
        clock_after_first = state.clock
        eff = handle_message(state, UpdateMsg(1, 4, 1, 7, 2))
        assert not eff.broadcasts
        assert state.clock == clock_after_first
        assert state.pending[(4, 1)].seen[2] == 7

    def test_writer_stamp_not_learned_from_relays(self):
        state = init(5, 0)
        handle_message(state, UpdateMsg(1, 4, 1, 3, 2))
        assert state.pending[(4, 1)].seen[4] == INF
        assert state.pending[(4, 1)].seen[2] == 3

    def count_passes(self, monkeypatch):
        calls = []

        def counted(pending, n):
            calls.append(len(pending))
            return compute_validable(pending, n)

        monkeypatch.setattr(protocol, "compute_validable", counted)
        return calls

    def test_stale_copy_skips_the_validation_pass(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        state = init(3, 0)
        state.view_stamps = (0, 5, 0)
        assert handle_message(state, UpdateMsg(9, 1, 5, 5, 1)) is protocol.NOTHING
        assert handle_message(state, UpdateMsg(9, 1, 3, 8, 2)) is protocol.NOTHING
        assert calls == []

    def test_only_a_majority_stamp_runs_the_validation_pass(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        state = init(4, 0)
        relay = handle_message(state, UpdateMsg(1, 3, 1, 1, 3)).broadcasts[0]
        assert calls == []
        # two stamps of four are no strict majority: nothing to do
        assert handle_message(state, UpdateMsg(1, 3, 1, 7, 2)) is protocol.NOTHING
        assert calls == []
        # our own relay copy brings the third stamp
        eff = handle_message(state, relay)
        assert calls == [1] and eff.validated == [(3, 1)]

    def test_a_majority_stamp_behind_a_blocker_runs_no_pass(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        state = init(3, 0)
        # p1 relays b = (2, 1), then writes a = (1, 2): p1 stamped b first
        relay_b = handle_message(state, UpdateMsg(5, 2, 1, 1, 1)).broadcasts[0]
        relay_a = handle_message(state, UpdateMsg(7, 1, 2, 2, 1)).broadcasts[0]
        # our own copy gives a a majority, but a waits on b, which has one
        # stamp: the pass would find nothing, so it does not run
        assert handle_message(state, relay_a) is protocol.NOTHING
        assert state.pending[(1, 2)].known == 2
        assert calls == []
        # the blocker's majority stamp runs the pass, which validates both
        eff = handle_message(state, relay_b)
        assert calls == [2] and eff.validated == [(1, 2), (2, 1)]

    def test_buffered_write_flushes_on_validation(self):
        state = init(3, 0)
        eff = invoke_write(state, 5)
        own = eff.broadcasts[0]
        handle_message(state, own)
        invoke_write(state, 6)  # buffered behind (0, 1)
        assert state.deferred == 6
        eff = handle_message(state, UpdateMsg(5, 0, 1, 4, 1))
        assert eff.validated == [(0, 1)]
        assert state.deferred is None
        flush = eff.broadcasts[0]
        assert (flush.writer, flush.value) == (0, 6)
        assert flush.stamp > own.stamp

    def test_pending_snapshot_waits_for_flushed_write(self):
        # the flush and the snapshot wait race inside one transition: the
        # snapshot must not complete in it
        state = init(3, 0)
        eff = invoke_write(state, 5)
        handle_message(state, eff.broadcasts[0])
        invoke_write(state, 6)
        eff = invoke_snapshot(state)
        assert state.snapshot_pending
        eff = handle_message(state, UpdateMsg(5, 0, 1, 4, 1))
        assert state.snapshot_pending
        assert all(kind != "snapshot" for kind, _ in eff.completions)
        flush = eff.broadcasts[0]
        # nor in a receipt of another process's update before the flush's
        # own copy: the flushed update is pending from its send
        eff = handle_message(state, UpdateMsg(7, 1, 1, 1, 1))
        assert eff.completions == [] and state.snapshot_pending
        handle_message(state, flush)
        eff = handle_message(state, UpdateMsg(6, 0, flush.stamp, 9, 2))
        assert eff.completions == [("snapshot", (6, 0, 0))]
        assert not state.snapshot_pending


@st.composite
def message_soup(draw):
    """A batch of well-formed updates by writers 1 and 2 observed by p0."""
    msgs = []
    for writer in (1, 2):
        stamps = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3,
                               unique=True))
        for stamp in sorted(stamps):
            senders = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                                    unique=True))
            for sender in senders:
                relay = stamp if sender == writer else draw(st.integers(1, 9))
                msgs.append(UpdateMsg(stamp * 10 + writer, writer, stamp,
                                      relay, sender))
    order = draw(st.permutations(msgs))
    return list(order)


@given(message_soup())
@settings(max_examples=200)
def test_handler_is_deterministic_and_stamps_monotone(msgs):
    state_a, state_b = init(3, 0), init(3, 0)
    prev_stamps = list(state_a.view_stamps)
    for msg in msgs:
        eff_a = handle_message(state_a, msg)
        eff_b = handle_message(state_b, msg)
        assert state_a == state_b and eff_a == eff_b
        assert all(a >= b for a, b in zip(state_a.view_stamps, prev_stamps))
        prev_stamps = list(state_a.view_stamps)


@given(message_soup())
@settings(max_examples=200)
def test_at_most_one_entry_per_update_and_no_own_entry_leak(msgs):
    state = init(3, 0)
    seen_keys = set()
    for msg in msgs:
        eff = handle_message(state, msg)
        for bc in eff.broadcasts:
            assert bc.sender == 0
        keys = list(state.pending)
        assert len(keys) == len(set(keys))
        assert sum(1 for (w, _s) in keys if w == 0) <= 1
        seen_keys.update(keys)


@st.composite
def stamp_arrivals(draw):
    """n, and the arrivals (key, sender, stamp) of relays of random updates.

    Each sender stamps a subset of the updates in an order of its own with
    rising stamps, and its copies arrive in that order (FIFO channels); the
    senders' streams interleave at random. One case in two drops FIFO, so
    that a copy may arrive after a copy its sender stamped later.
    """
    n = draw(st.integers(1, 9))
    keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 4)),
                         min_size=1, max_size=7, unique=True))
    fifo = draw(st.booleans())
    streams = []
    for sender in range(n):
        order = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
        gaps = draw(st.lists(st.integers(1, 3), min_size=len(order),
                             max_size=len(order)))
        stamps = [sum(gaps[:i + 1]) for i in range(len(order))]
        if not fifo:
            stamps = draw(st.permutations(stamps))
        streams.append([(key, sender, stamp)
                        for key, stamp in zip(order, stamps)])
    turns = draw(st.permutations([sender for sender, stream in
                                  enumerate(streams) for _ in stream]))
    cursors = [iter(stream) for stream in streams]
    return n, [next(cursors[sender]) for sender in turns]


@given(stamp_arrivals(), st.data())
@settings(max_examples=300)
def test_incremental_counts_match_the_reference_fixpoint(case, data):
    n, arrivals = case
    state, retired = init(n, 0), set()
    pending = state.pending

    def agree():
        got = compute_validable(pending, n)
        assert got == reference_validable(pending, n)
        assert derived_counts(pending) == {
            key: (g.known, g.ahead) for key, g in pending.items()}
        assert state.own_pending == own_entries(state)
        return got

    for key, sender, stamp in arrivals:
        if key in retired:  # a validated update's late copies are stale
            continue
        if key not in pending:
            protocol._admit(state, key, 1)
        protocol._record_stamp(state, key, sender, stamp)
        expected = reference_validable(pending, n)
        if pending[key].known * 2 <= n:
            # the state was closed before this stamp, and handle_message
            # skips the pass here: the pass must have nothing to validate
            assert expected == []
        else:
            # handle_message runs the pass exactly when the stamped entry
            # is not blocked, and the pass then validates that entry
            assert protocol._blocked(pending, key, n) == (expected == [])
            assert expected == [] or key in expected
        validable = agree()
        while validable:
            key = data.draw(st.sampled_from(validable))
            protocol._retire(state, key)
            retired.add(key)
            validable = agree()


def asks_nothing(eff):
    return not (eff.broadcasts or eff.sends or eff.completions
                or eff.validated)


def test_nothing_is_shared_and_cannot_grow():
    with pytest.raises(AttributeError):
        protocol.NOTHING.broadcasts.append(UpdateMsg(1, 0, 1, 1, 0))
    with pytest.raises(AttributeError):
        protocol.NOTHING.validated.append((0, 1))
    assert asks_nothing(protocol.NOTHING)


def run_sweep_checking(monkeypatch, invariant):
    """Run 400 crash-prone sweep configs (n = 2, 3, 5, 7), checking
    `invariant(state)` after every protocol transition, that a transition
    returns the shared NOTHING exactly when it asks nothing, and that every
    receipt leaves the state closed: the reference fixpoint finds nothing
    left to validate, which is what lets handle_message skip the pass. Every
    validation pass that handle_message runs must validate something."""
    passes = [0]

    def counted(pending, n):
        validable = compute_validable(pending, n)
        assert validable, "a validation pass found nothing to validate"
        passes[0] += 1
        return validable

    def checked(transition, closed=False):
        def call(state, *args):
            eff = transition(state, *args)
            assert (eff is protocol.NOTHING) == asks_nothing(eff)
            invariant(state)
            if closed:
                assert reference_validable(state.pending, state.n) == []
            return eff
        return call

    for name in ("invoke_write", "invoke_snapshot"):
        monkeypatch.setattr(protocol, name, checked(getattr(protocol, name)))
    monkeypatch.setattr(protocol, "handle_message",
                        checked(protocol.handle_message, closed=True))
    monkeypatch.setattr(protocol, "compute_validable", counted)
    for n in SWEEP_NS:
        for seed in range(100):
            run_simulation(sweep_config(n, seed))
    assert passes[0] > 0


def test_buffered_write_only_while_own_update_pending(monkeypatch):
    # invoke_snapshot relies on this: a buffered write implies an own
    # pending update, so own_pending alone decides whether to wait. A
    # waiting snapshot implies one too, a flush's included: only a
    # validation pass lowers own_pending, so only a pass releases either.
    buffered, waiting = [0], [0]

    def invariant(state):
        assert state.deferred is None or state.own_pending > 0
        assert not state.snapshot_pending or state.own_pending > 0
        buffered[0] += state.deferred is not None
        waiting[0] += state.snapshot_pending

    run_sweep_checking(monkeypatch, invariant)
    assert buffered[0] > 0 and waiting[0] > 0


def test_pending_counts_match_the_stamps_after_every_transition(monkeypatch):
    largest = [0]

    def invariant(state):
        assert derived_counts(state.pending) == {
            key: (g.known, g.ahead) for key, g in state.pending.items()}
        assert state.own_pending == own_entries(state)
        largest[0] = max(largest[0], len(state.pending))

    run_sweep_checking(monkeypatch, invariant)
    assert largest[0] > 2
