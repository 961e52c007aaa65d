from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from seqsnap import abd, protocol, sim
from seqsnap.protocol import UpdateMsg
from seqsnap.rounds import RoundConfig, run_rounds
from seqsnap.sim import (AsyncDelay, ConfigError, CrashSpec, ScriptedDelays,
                         SimConfig, SyncDelay, WorkItem, all_pending_empty,
                         liveness_violations, run_simulation, serialize_run,
                         vc_total_order_violations)
from seqsnap.workloads import (abd_workload, random_workload, random_crashes,
                               trim_for_crashes)


def snapshot_run(n, workload, seed=0, crashes=(), delay=AsyncDelay(0.5, 3.0)):
    return run_simulation(SimConfig(n=n, seed=seed, delay=delay,
                                    workload=workload, crashes=list(crashes)))


def test_single_process_write_then_snapshot():
    run = snapshot_run(1, [WorkItem(0, 0.0, "write", value=5),
                           WorkItem(0, 1.0, "snapshot")])
    write, snap = run.history
    assert (write.t_inv, write.t_ret) == (0.0, 0.0)
    assert snap.result == (5,)
    assert run.metrics.quiescent


def test_writes_return_immediately_everywhere():
    run = snapshot_run(5, random_workload(5, 30, seed=1))
    for rec in run.history:
        if rec.kind == "write":
            assert rec.t_ret == rec.t_inv
            assert run.metrics.op_causal_depth[(rec.proc, rec.seq)] == 0


def test_update_message_bound_holds_and_is_exact_when_crash_free():
    run = snapshot_run(5, random_workload(5, 25, seed=2))
    assert run.metrics.messages_per_update
    for key, count in run.metrics.messages_per_update.items():
        assert count == 25
    run = snapshot_run(5, trim_for_crashes(random_workload(5, 25, seed=3),
                                           [CrashSpec(1, on_send=2)]),
                       crashes=[CrashSpec(1, on_send=2)])
    for key, count in run.metrics.messages_per_update.items():
        assert count <= 25


def test_crash_free_runs_drain_all_pending_state():
    for seed in range(5):
        run = snapshot_run(3, random_workload(3, 20, seed=seed), seed=seed)
        assert run.metrics.quiescent
        assert all_pending_empty(run)


def test_crash_mid_broadcast_still_validates_via_majority():
    # writer crashes during its broadcast and only p0 hears of the update
    run = snapshot_run(
        3,
        [WorkItem(2, 0.0, "write", value=9)],
        crashes=[CrashSpec(2, on_send=1, recipients=(0,))])
    assert run.crashed == frozenset({2})
    for proc in (0, 1):
        assert run.states[proc][0].view_stamps[2] == 1
        assert run.states[proc][0].view[2] == 9


def test_crashed_process_takes_no_further_transitions():
    run = snapshot_run(3,
                       [WorkItem(1, 0.0, "write", value=4)],
                       crashes=[CrashSpec(1, on_send=1, recipients=())])
    assert run.crashed == frozenset({1})
    # nobody ever heard of the update
    for proc in (0, 2):
        assert run.states[proc][0].view_stamps[1] == 0
    # dying inside the broadcast leaves the write unreturned
    assert len(run.history) == 1 and not run.history[0].completed


def test_fifo_per_ordered_pair():
    run = snapshot_run(4, random_workload(4, 30, seed=5), seed=5)
    sent = {}
    for msg in run.message_log:
        for recipient in msg.recipients:
            sent.setdefault((msg.sender, recipient), []).append(msg.payload)
    delivered = {}
    for _time, sender, to, payload in run.delivery_log:
        delivered.setdefault((sender, to), []).append(payload)
    # every channel delivers exactly what was sent, in send order
    assert delivered == {pair: msgs for pair, msgs in sent.items() if msgs}


def test_stamps_unique_per_sender_and_originals_self_stamped():
    run = snapshot_run(4, random_workload(4, 30, seed=6), seed=6)
    relay_stamps = {}
    for msg in run.message_log:
        payload = msg.payload
        relay_stamps.setdefault(msg.sender, []).append(payload.relay_stamp)
        if payload.sender == payload.writer:
            assert payload.relay_stamp == payload.stamp
    for sender, stamps in relay_stamps.items():
        assert len(stamps) == len(set(stamps))
        assert stamps == sorted(stamps)


def remote_transit_times(delay):
    """Transit times of the remote copies of a lone writer's broadcast. Each
    of its channels carries one message, so the FIFO clamp moves none."""
    run = snapshot_run(3, [WorkItem(0, 0.0, "write", value=1)], delay=delay)
    (original,) = [m for m in run.message_log if m.sender == 0]
    return [time - original.time
            for time, sender, to, payload in run.delivery_log
            if sender == 0 and to != 0 and payload is original.payload]


def test_sync_delay_bounds_respected():
    transit = remote_transit_times(SyncDelay(5.0, 2.0))
    assert len(transit) == 2
    assert all(3.0 <= t <= 5.0 for t in transit)


def test_async_delay_bounds_respected():
    transit = remote_transit_times(AsyncDelay(0.5, 3.0))
    assert len(transit) == 2
    assert all(0.5 <= t <= 3.0 for t in transit)


def test_event_cap_stops_the_run_not_quiescent(monkeypatch):
    monkeypatch.setattr(sim, "EVENT_CAP", 40)
    run = snapshot_run(3, random_workload(3, 12, seed=0))
    assert run.metrics.quiescent is False
    assert len(run.delivery_log) + len(run.history) == 40
    assert '"quiescent":false' in serialize_run(run)["metrics"]


def test_self_delivery_precedes_next_same_time_invocation():
    # two writes at the same instant: the second must observe the first's
    # own pending entry and be buffered
    run = snapshot_run(3, [WorkItem(0, 0.0, "write", value=1),
                           WorkItem(0, 0.0, "write", value=2)])
    originals = [m for m in run.message_log
                 if isinstance(m.payload, UpdateMsg)
                 and m.sender == m.payload.writer]
    assert [m.payload.value for m in originals] == [1, 2]
    assert originals[1].time > 0.0  # flushed only after the first validated


def recorded_handler(monkeypatch, module):
    """Patch module.handle_message to record each call's (state, message)."""
    calls = []
    handle = module.handle_message

    def recorded(state, payload):
        calls.append((state, payload))
        return handle(state, payload)

    monkeypatch.setattr(module, "handle_message", recorded)
    return calls


def assert_every_delivery_handled(calls, run, object_of):
    assert len(calls) == len(run.delivery_log) > 0
    for (state, payload), (_time, _sender, to, delivered) in zip(
            calls, run.delivery_log):
        assert payload is delivered
        assert state is run.states[to][object_of(payload)]


def test_a_patched_abd_handler_sees_every_delivery(monkeypatch):
    calls = recorded_handler(monkeypatch, abd)
    crashes = [CrashSpec(2, on_send=3)]
    run = run_simulation(SimConfig(
        n=5, seed=4, protocol="abd", crashes=crashes,
        workload=trim_for_crashes(abd_workload(5, 60, 4), crashes)))
    assert run.crashed == {2}
    assert_every_delivery_handled(calls, run, lambda payload: 0)


def test_composed_run_delivers_to_the_state_of_each_message_object(monkeypatch):
    calls = recorded_handler(monkeypatch, protocol)
    run = run_rounds(RoundConfig(n=5, rounds=3, seed=2,
                                 crashes=[CrashSpec(3, on_send=2)]))
    assert run.crashed == {3}
    assert_every_delivery_handled(calls, run, lambda payload: payload.object_id)
    assert {payload.object_id for _state, payload in calls} == {0, 1, 2}


def test_snapshot_depth_two_and_four():
    run = snapshot_run(5, [WorkItem(0, 0.0, "write", value=1),
                           WorkItem(0, 0.0, "snapshot"),
                           WorkItem(0, 100.0, "write", value=2),
                           WorkItem(0, 100.0, "write", value=3),
                           WorkItem(0, 100.0, "snapshot")],
                       delay=AsyncDelay(2.0, 3.5))
    depth = run.metrics.op_causal_depth
    assert depth[(0, 1)] == 2
    assert depth[(0, 4)] == 4


def test_vc_trace_total_order_and_liveness():
    for seed in range(10):
        crashes = random_crashes(5, 2, seed)
        workload = trim_for_crashes(random_workload(5, 30, seed), crashes)
        run = snapshot_run(5, workload, seed=seed, crashes=crashes)
        assert run.metrics.quiescent
        assert vc_total_order_violations(run.vc_trace) == []
        assert liveness_violations(run) == []


def test_determinism_bit_identical():
    crashes = random_crashes(5, 2, 11)
    workload = trim_for_crashes(random_workload(5, 30, 11), crashes)
    config = SimConfig(n=5, seed=11, workload=workload, crashes=crashes)
    docs_a = serialize_run(run_simulation(config))
    docs_b = serialize_run(run_simulation(config))
    assert docs_a == docs_b


def test_different_seeds_differ():
    workload = random_workload(3, 12, 0)
    run_a = run_simulation(SimConfig(n=3, seed=1, workload=workload))
    run_b = run_simulation(SimConfig(n=3, seed=2, workload=workload))
    assert serialize_run(run_a) != serialize_run(run_b)


class TestConfigValidation:
    def test_too_many_crashes(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=4, workload=[],
                                     crashes=[CrashSpec(0, at_time=1.0),
                                              CrashSpec(1, at_time=1.0)]))

    def test_out_of_range_process(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=2, workload=[WorkItem(2, 0.0, "snapshot")]))

    def test_workload_after_time_crash_rejected(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(
                n=3, workload=[WorkItem(0, 5.0, "write", value=1)],
                crashes=[CrashSpec(0, at_time=1.0)]))

    def test_wrong_action_for_protocol(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=2, workload=[WorkItem(0, 0.0, "read",
                                                             target=1)]))

    @pytest.mark.parametrize("protocol, workload, crashes", [
        ("snapshot", [], [CrashSpec(1, on_send=0)]),
        ("snapshot", [], [CrashSpec(1, on_send=-2)]),
        ("snapshot", [], [CrashSpec(1, on_send=1, recipients=(0, 5))]),
        ("snapshot", [], [CrashSpec(1, on_send=1, recipients=(-1,))]),
        ("abd", [WorkItem(0, 0.0, "read", target=5)], []),
        ("abd", [WorkItem(0, 0.0, "read", target=-1)], []),
        ("abd", [WorkItem(0, 0.0, "read")], []),
        ("snapshot", [WorkItem(0, 0.0, "write")], []),
        ("snapshot", [WorkItem(0, 0.0, "snapshot", object_id=-1)], []),
        ("snapshot", [WorkItem(0, nan, "write", value=1)], []),
        ("snapshot", [WorkItem(0, inf, "snapshot")], []),
        ("snapshot", [], [CrashSpec(1, at_time=nan)]),
        ("abd", [WorkItem(0, 0.0, "write", value=1, object_id=1)], []),
    ], ids=["on-send-0", "on-send-negative", "recipient-above-n",
            "recipient-negative", "read-target-above-n",
            "read-target-negative", "read-without-target",
            "write-without-value", "object-negative", "item-at-nan",
            "item-at-inf", "crash-at-nan", "abd-object-1"])
    def test_malformed_crash_or_item_rejected(self, protocol, workload,
                                              crashes):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=3, protocol=protocol,
                                     workload=workload, crashes=crashes))

    def test_scripted_table_must_cover_all_recipients(self):
        config = SimConfig(n=2, delay=ScriptedDelays({}),
                           workload=[WorkItem(0, 0.0, "write", value=1)])
        with pytest.raises(ConfigError):
            run_simulation(config)

    def test_scripted_table_must_be_fifo_per_channel(self):
        # channel 0->1 would deliver p0's second broadcast before its first
        table = {(0, 1): {1: 9.0}, (0, 2): {1: 4.0},
                 (1, 1): {0: 1.0}, (1, 2): {0: 10.0}}
        config = SimConfig(n=2, delay=ScriptedDelays(table),
                           workload=[WorkItem(0, 0.0, "write", value=1),
                                     WorkItem(1, 0.0, "write", value=1)])
        with pytest.raises(ConfigError):
            sim.validate_config(config)
        with pytest.raises(ConfigError):
            run_simulation(config)

    @pytest.mark.parametrize("at", [nan, inf], ids=["nan", "inf"])
    def test_scripted_table_times_must_be_finite(self, at):
        config = SimConfig(n=2, delay=ScriptedDelays({(0, 1): {1: at}}),
                           workload=[WorkItem(0, 0.0, "write", value=1)])
        with pytest.raises(ConfigError):
            sim.validate_config(config)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_random_runs_preserve_core_invariants(seed, n):
    crashes = random_crashes(n, (n - 1) // 2, seed)
    workload = trim_for_crashes(random_workload(n, 16, seed), crashes)
    run = run_simulation(SimConfig(n=n, seed=seed, workload=workload,
                                   crashes=crashes))
    assert run.metrics.quiescent
    assert vc_total_order_violations(run.vc_trace) == []
    assert liveness_violations(run) == []
    for count in run.metrics.messages_per_update.values():
        assert count <= n * n
