import gc
import random
import sys
from math import inf, nan
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from seqsnap import abd, histories, protocol, sim
from seqsnap.checker import CheckRefusal
from seqsnap.gates import judge, judge_history
from seqsnap.histories import (OpRecord, TraceFormatError, compact_json,
                               record_from_json)
from seqsnap.protocol import UpdateMsg
from seqsnap.rounds import RoundConfig, run_rounds
from seqsnap.scenarios import replay_scripted
from seqsnap.sim import (AsyncDelay, ConfigError, CrashSpec, ScriptedDelays,
                         SimConfig, SyncDelay, WorkItem, liveness_violations,
                         run_fifo, run_simulation, serialize_run,
                         vc_total_order_violations)
from seqsnap.workloads import (abd_workload, random_workload, random_crashes,
                               trim_for_crashes)
from sweep import SWEEP_NS, sweep_config


RUNNERS = (run_simulation, run_fifo)


def snapshot_run(n, workload, seed=0, crashes=(), delay=AsyncDelay(0.5, 3.0),
                 runner=run_simulation):
    return runner(SimConfig(n=n, seed=seed, delay=delay, workload=workload,
                            crashes=list(crashes)))


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
    assert judge(run)["messages"] == []


def test_crash_free_runs_drain_all_pending_state():
    for seed in range(5):
        run = snapshot_run(3, random_workload(3, 20, seed=seed), seed=seed)
        assert not any(judge(run).values())


def test_crash_mid_broadcast_still_validates_via_majority():
    # writer crashes during its broadcast and only p0 hears of the update
    for runner in RUNNERS:
        run = snapshot_run(
            3,
            [WorkItem(2, 0.0, "write", value=9)],
            crashes=[CrashSpec(2, on_send=1, recipients=(0,))], runner=runner)
        assert run.crashed == frozenset({2})
        for proc in (0, 1):
            assert run.states[proc][0].view_stamps[2] == 1
            assert run.states[proc][0].view[2] == 9


def test_crashed_process_takes_no_further_transitions():
    for runner in RUNNERS:
        run = snapshot_run(3,
                           [WorkItem(1, 0.0, "write", value=4)],
                           crashes=[CrashSpec(1, on_send=1, recipients=())],
                           runner=runner)
        assert run.crashed == frozenset({1})
        # nobody ever heard of the update
        for proc in (0, 2):
            assert run.states[proc][0].view_stamps[1] == 0
        # dying inside the broadcast leaves the write unreturned
        assert len(run.history) == 1 and not run.history[0].completed


def test_fifo_per_ordered_pair():
    for runner in RUNNERS:
        run = snapshot_run(4, random_workload(4, 30, seed=5), seed=5,
                           runner=runner)
        sent = {}
        for msg in run.message_log:
            for recipient in msg.recipients:
                sent.setdefault((msg.sender, recipient), []).append(msg.payload)
        delivered = {}
        for _time, to, msg in run.delivery_log:
            delivered.setdefault((msg.sender, to), []).append(msg.payload)
        # every channel delivers exactly what was sent, in send order
        assert delivered == {pair: msgs for pair, msgs in sent.items() if msgs}


def test_any_fifo_order_lets_a_process_act_before_its_own_copy():
    """In some run_fifo run a process invokes an op or receives a message
    between a broadcast of its own and the delivery of that broadcast's
    copy to itself, which run_simulation never lets happen. Times are step
    numbers there, one transition each."""
    run = snapshot_run(4, random_workload(4, 30, seed=5), seed=5,
                       runner=run_fifo)
    steps = {proc: [] for proc in range(4)}
    for time, to, _msg in run.delivery_log:
        steps[to].append(time)
    for rec in run.history:
        steps[rec.proc].append(rec.t_inv)
    own_copies = [(to, msg.time, time) for time, to, msg in run.delivery_log
                  if to == msg.sender]
    assert own_copies and any(sent < step < delivered
                              for proc, sent, delivered in own_copies
                              for step in steps[proc])


def test_stamps_unique_per_sender_and_originals_self_stamped():
    for runner in RUNNERS:
        run = snapshot_run(4, random_workload(4, 30, seed=6), seed=6,
                           runner=runner)
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
    return [time - original.time for time, to, msg in run.delivery_log
            if msg is original and to != 0]


def test_sync_delay_bounds_respected():
    transit = remote_transit_times(SyncDelay(5.0, 2.0))
    assert len(transit) == 2
    assert all(3.0 <= t <= 5.0 for t in transit)


def test_async_delay_bounds_respected():
    transit = remote_transit_times(AsyncDelay(0.5, 3.0))
    assert len(transit) == 2
    assert all(0.5 <= t <= 3.0 for t in transit)


@pytest.mark.parametrize("delay", [AsyncDelay(), SyncDelay(5, 2),
                                   SyncDelay(1, 0.5), AsyncDelay(2.5, 2.5)],
                         ids=["default", "sync-5-2", "sync-1-0.5", "low-is-high"])
def test_delay_draw_is_random_uniform_bit_for_bit(delay):
    rng, reference = random.Random("draws"), random.Random("draws")
    now = 0.0
    for index in range(10_000):
        at = delay.arrival(rng, now, 0, 1, index)
        assert at == now + reference.uniform(delay.low, delay.high)
        now = at if index % 2 else index * 0.75
    assert rng.getstate() == reference.getstate()


def test_event_cap_stops_the_run_not_quiescent(monkeypatch):
    # the cap counts deliveries and invocations: a crash at a time instant,
    # here after process 2's last item, is not a transition under either
    # runner
    monkeypatch.setattr(sim, "EVENT_CAP", 40)
    workload = random_workload(3, 12, seed=0)
    last = max(item.at for item in workload if item.proc == 2)
    for crashes in ([], [CrashSpec(2, at_time=last + 1)]):
        for runner in RUNNERS:
            run = snapshot_run(3, workload, crashes=crashes, runner=runner)
            assert run.metrics.quiescent is False
            assert len(run.delivery_log) + len(run.history) == 40
            assert '"quiescent":false' in serialize_run(run)["metrics"]


def count_sends(monkeypatch):
    """Wrap _Sim._send to tally each run's sends independently of the
    metrics: copies are counted as the entries the send added to the event
    heap and the own-copy queue, and keyed by payload type, in order of
    first send. Each run appends its tally to the returned list."""
    tallies = []
    real = sim._Sim._send
    baseline = (abd.QueryMsg, abd.QueryReply, abd.PropagateMsg, abd.Ack)

    def counting(self, proc, obj, payload, recipients, chain, now):
        if not tallies or tallies[-1]["sim"] is not self:
            tallies.append({"sim": self, "total": 0, "per_update": {},
                            "per_op": {}, "truncated": []})
        tally = tallies[-1]
        before = len(self.heap) + len(self.own_copies)
        real(self, proc, obj, payload, recipients, chain, now)
        copies = len(self.heap) + len(self.own_copies) - before
        tally["total"] += copies
        if type(payload) is UpdateMsg:
            key = (obj, payload.writer, payload.stamp)
            table = tally["per_update"]
        else:
            assert isinstance(payload, baseline)
            key = payload.op_ref
            table = tally["per_op"]
        table[key] = table.get(key, 0) + copies
        if not self.alive[proc]:      # a broadcast its sender's crash cut off
            tally["truncated"].append((copies, self.config.n))

    monkeypatch.setattr(sim._Sim, "_send", counting)
    return tallies


def counted_runs(monkeypatch):
    """Crash-prone sweep, baseline and composed runs, and one capped run."""
    configs = [config for config in (sweep_config(n, seed)
                                     for seed in range(40) for n in (3, 5, 7))
               if config.crashes][:40]
    yield from map(run_simulation, configs)
    for seed in range(20):
        n = (3, 5, 7)[seed % 3]
        crashes = random_crashes(n, (n - 1) // 2, seed) or [
            CrashSpec(seed % n, on_send=1)]
        workload = trim_for_crashes(abd_workload(n, 30, seed), crashes)
        yield run_simulation(SimConfig(n=n, seed=seed, protocol="abd",
                                       workload=workload, crashes=crashes))
    for seed in range(10):
        n = (3, 5)[seed % 2]
        yield run_rounds(RoundConfig(n=n, rounds=1 + seed % 4, seed=seed,
                                     crashes=[CrashSpec(seed % n, on_send=2)]))
    monkeypatch.setattr(sim, "EVENT_CAP", 150)
    capped = run_simulation(sweep_config(5, 9))
    assert not capped.metrics.quiescent
    yield capped


def test_message_counts_match_an_independent_tally_of_sends(monkeypatch):
    tallies = count_sends(monkeypatch)
    runs = list(counted_runs(monkeypatch))
    assert len(runs) == len(tallies) == 71
    truncated = []
    for run, tally in zip(runs, tallies):
        metrics = run.metrics
        assert metrics.messages_total == tally["total"]
        # values and key order: the documents write the dicts in order
        assert list(metrics.messages_per_update.items()) == list(
            tally["per_update"].items())
        assert list(metrics.messages_per_op.items()) == list(
            tally["per_op"].items())
        truncated += tally["truncated"]
    # crash-cut broadcasts count their surviving recipients only, down to
    # none
    assert all(copies < n for copies, n in truncated)
    assert {0, 1} <= {copies for copies, _n in truncated}


def test_runs_leave_no_cyclic_garbage(monkeypatch):
    """The collector is paused during a run: that is exact only because
    reference counting alone frees everything a dropped run held."""
    def runs():
        yield from counted_runs(monkeypatch)
        yield replay_scripted("fig4a")

    gc.collect()
    count = 0
    for run in runs():
        count += 1
        del run
        assert gc.collect() == 0, count
    assert count == 72
    assert gc.collect() == 0    # the capped run, once its generator ended


def test_run_restores_the_collector_state(monkeypatch):
    during = []
    handle = protocol.handle_message

    def recorded(state, payload):
        during.append(gc.isenabled())
        return handle(state, payload)

    monkeypatch.setattr(protocol, "handle_message", recorded)
    workload = random_workload(3, 6, seed=1)
    try:
        assert gc.isenabled()
        snapshot_run(3, workload)
        assert gc.isenabled()
        gc.disable()
        snapshot_run(3, workload)
        assert not gc.isenabled()
        gc.enable()
        # a scripted table that misses a recipient raises mid-run
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=2, delay=ScriptedDelays({}), workload=[
                WorkItem(0, 0.0, "write", value=1)]))
        assert gc.isenabled()
    finally:
        gc.enable()
    assert during and not any(during)


def test_self_delivery_precedes_next_same_time_invocation(monkeypatch):
    # This pins the network model: a sender receives its own copy of a
    # broadcast before its next invocation at the same instant. The protocol
    # does not rely on it, since an update is pending from its send, so the
    # second of two same-instant writes is buffered in either order.
    steps = []
    write, handle = protocol.invoke_write, protocol.handle_message

    def recorded_write(state, value):
        steps.append(("write", value))
        return write(state, value)

    def recorded_handle(state, payload):
        steps.append(("receive", state.me, payload.sender))
        return handle(state, payload)

    monkeypatch.setattr(protocol, "invoke_write", recorded_write)
    monkeypatch.setattr(protocol, "handle_message", recorded_handle)
    run = snapshot_run(3, [WorkItem(0, 0.0, "write", value=1),
                           WorkItem(0, 0.0, "write", value=2)])
    assert steps[:3] == [("write", 1), ("receive", 0, 0), ("write", 2)]
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


def assert_every_delivery_handled(calls, run):
    assert len(calls) == len(run.delivery_log) > 0
    for (state, payload), (_time, to, msg) in zip(calls, run.delivery_log):
        assert payload is msg.payload
        assert state is run.states[to][msg.object_id]


@pytest.mark.parametrize("make_run", [
    lambda: snapshot_run(4, random_workload(4, 30, seed=3), seed=3,
                         crashes=[CrashSpec(1, on_send=2)]),
    lambda: run_simulation(SimConfig(n=5, seed=4, protocol="abd",
                                     workload=abd_workload(5, 30, 4))),
    lambda: run_rounds(RoundConfig(n=5, rounds=3, seed=2,
                                   crashes=[CrashSpec(3, on_send=2)])),
], ids=["snapshot", "abd", "composed"])
def test_every_delivery_names_its_message_record(make_run):
    run = make_run()
    sent = {id(msg) for msg in run.message_log}
    assert run.delivery_log
    for time, to, msg in run.delivery_log:
        assert id(msg) in sent
        assert to in msg.recipients and time >= msg.time


def test_a_patched_abd_handler_sees_every_delivery(monkeypatch):
    calls = recorded_handler(monkeypatch, abd)
    crashes = [CrashSpec(2, on_send=3)]
    run = run_simulation(SimConfig(
        n=5, seed=4, protocol="abd", crashes=crashes,
        workload=trim_for_crashes(abd_workload(5, 60, 4), crashes)))
    assert run.crashed == {2}
    assert_every_delivery_handled(calls, run)


def test_composed_run_delivers_to_the_state_of_each_message_object(monkeypatch):
    calls = recorded_handler(monkeypatch, protocol)
    run = run_rounds(RoundConfig(n=5, rounds=3, seed=2,
                                 crashes=[CrashSpec(3, on_send=2)]))
    assert run.crashed == {3}
    assert_every_delivery_handled(calls, run)
    assert {msg.object_id for _time, _to, msg in run.delivery_log} == {0, 1, 2}


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


def test_invariant_checks_report_violations():
    assert vc_total_order_violations(
        [(0, 0.0, (0, 0)), (0, 1.0, (1, 0)), (1, 1.0, (0, 1))]) == \
        [((0, 1), (1, 0))]
    run = snapshot_run(3, [WorkItem(0, 0.0, "write", value=1),
                           WorkItem(2, 0.0, "write", value=3)])
    assert liveness_violations(run) == [] and not run.crashed
    # process 1 lags both correct updates once its stamps are reset
    run.states[1][0].view_stamps = (0, 0, 0)
    assert liveness_violations(run) == [((0, 0, 1), 1), ((0, 2, 1), 1)]

    # each criterion of gates.judge, and it alone, fires on a run doctored
    # to break it; history[2] is p0's snapshot, after both writes
    doctorings = [
        ("stuck", lambda run: setattr(run.metrics, "quiescent", False)),
        ("C1", lambda run: setattr(run.history[2], "result", (7, 0, 3))),
        ("C1", lambda run: run.history.append(run.history[0])),
        ("C3", lambda run: run.vc_trace.append((1, 9.0, (0, 5, 0)))),
        ("C4", lambda run: setattr(run.states[1][0], "view_stamps", (0, 0, 0))),
        ("wait", lambda run: setattr(run.history[0], "t_ret", 0.5)),
        # a snapshot that never returned has no result
        ("drained", lambda run: (setattr(run.history[2], "t_ret", None),
                                 setattr(run.history[2], "result", None))),
        ("drained", lambda run: setattr(run.states[1][0], "deferred", 4)),
        ("messages", lambda run: run.metrics.messages_per_update.update(
            {(0, 0, 1): 10})),
    ]
    for criterion, doctor in doctorings:
        run = snapshot_run(3, [WorkItem(0, 0.0, "write", value=1),
                               WorkItem(2, 0.0, "write", value=3),
                               WorkItem(0, 1.0, "snapshot")])
        assert not any(judge(run).values())
        doctor(run)
        assert [c for c, bad in judge(run).items() if bad] == [criterion]
    assert judge(run)["messages"] == [((0, 0, 1), 10)]
    # the fast checker's refusal is reported as one, not as a rejection
    [refused] = judge_history(run.history + [run.history[0]], 3)["C1"]
    assert refused.startswith("refused: ")
    # the criteria are the snapshot memory's claims about one object
    for other in (replay_scripted("abd_baseline_demo"),
                  run_rounds(RoundConfig(n=3, rounds=2, seed=0))):
        with pytest.raises(CheckRefusal):
            judge(other)


def test_vc_trace_total_order_and_liveness():
    for seed in range(10):
        crashes = random_crashes(5, 2, seed)
        workload = trim_for_crashes(random_workload(5, 30, seed), crashes)
        run = snapshot_run(5, workload, seed=seed, crashes=crashes)
        assert not any(judge(run).values())


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


ONE_RECORD_CONFIGS = [
    sweep_config(5, 1),
    SimConfig(n=3, seed=2, protocol="abd", workload=abd_workload(3, 24, 2)),
]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("config", ONE_RECORD_CONFIGS, ids=["snapshot", "abd"])
def test_each_work_item_becomes_one_record(monkeypatch, runner, config):
    """validate_config builds the record of each work item, in its process's
    queue in seq order with its item's time as t_inv, and the run invokes
    that record: a run builds no other."""
    built = []

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    real = sim.OpRecord
    monkeypatch.setattr(sim, "OpRecord", counting)
    queues = sim.validate_config(config)
    assert len(built) == len(config.workload)
    assert [rec for queue in queues for rec in queue] == \
        sorted(built, key=lambda rec: (rec.proc, rec.seq))
    for proc, queue in enumerate(queues):
        items = [item for item in config.workload if item.proc == proc]
        assert [(rec.proc, rec.seq, rec.kind, rec.t_inv, rec.value,
                 rec.target, rec.object_id, rec.run_seed)
                for rec in queue] == [
            (proc, seq, item.action, item.at, item.value, item.target,
             item.object_id, config.seed) for seq, item in enumerate(items)]
    del built[:]
    run = runner(config)
    assert len(built) == len(config.workload)
    assert {id(rec) for rec in run.history} <= {id(rec) for rec in built}


@pytest.mark.parametrize("runner", RUNNERS)
def test_a_config_carries_no_record_into_its_next_run(runner):
    # records are mutable (an invocation sets t_inv, a return t_ret), so
    # each run builds its own
    config = sweep_config(5, 1)
    first, second = runner(config), runner(config)
    assert first.history
    assert not {id(rec) for rec in first.history} & {
        id(rec) for rec in second.history}
    assert serialize_run(first) == serialize_run(second)


def record_stamps(monkeypatch, run_config):
    """Run a config with every protocol transition wrapped to record its
    process and its stamps tuple right after the call. Returns the run and
    the (proc, stamp vector) pairs its trace must hold."""
    recorded = []

    def recording(transition):
        def call(state, *args):
            eff = transition(state, *args)
            assert type(state.view_stamps) is tuple
            recorded.append((state.me, state.view_stamps))
            return eff
        return call

    for name in ("handle_message", "invoke_write", "invoke_snapshot"):
        monkeypatch.setattr(protocol, name, recording(getattr(protocol, name)))
    run = run_config()
    # a transition whose broadcast crashes its sender is cut short there and
    # not sampled; it is that process's last transition
    for crash in run.config.crashes:
        if crash.on_send is not None and crash.proc in run.crashed:
            last = max(i for i, (proc, _) in enumerate(recorded)
                       if proc == crash.proc)
            del recorded[last]
    return run, recorded


TRACED_RUNS = [lambda: replay_scripted("fig4a")] + [
    lambda n=n, seed=seed: run_simulation(sweep_config(n, seed))
    for n in SWEEP_NS for seed in range(12)]


@pytest.mark.parametrize("run_config", TRACED_RUNS)
def test_trace_is_the_state_after_every_transition(monkeypatch, run_config):
    run, recorded = record_stamps(monkeypatch, run_config)
    assert [(proc, vec) for proc, _time, vec in run.vc_trace] == recorded
    last = {}
    for proc, _time, vec in run.vc_trace:
        if proc in last and last[proc] == vec:
            assert last[proc] is vec    # an unchanged vector is shared
        last[proc] = vec


@pytest.mark.parametrize("run_config", TRACED_RUNS)
def test_trace_samples_are_the_states_own_stamps(monkeypatch, run_config):
    run, recorded = record_stamps(monkeypatch, run_config)
    assert len(run.vc_trace) == len(recorded)
    for (proc, _time, vec), (me, own) in zip(run.vc_trace, recorded):
        assert proc == me and vec is own


def test_trace_shows_stamps_that_change_without_a_validation(monkeypatch):
    honest = run_simulation(sweep_config(3, 0))
    real = protocol.handle_message

    def mutant(state, msg):
        eff = real(state, msg)
        stamps = state.view_stamps    # raised below, reported nowhere
        state.view_stamps = (stamps[0] + 1,) + stamps[1:]
        return eff

    monkeypatch.setattr(protocol, "handle_message", mutant)
    run, recorded = record_stamps(
        monkeypatch, lambda: run_simulation(sweep_config(3, 0)))
    assert [(proc, vec) for proc, _time, vec in run.vc_trace] == recorded
    assert run.vc_trace != honest.vc_trace


def reference_vc_document(vc_trace, run_seed):
    return compact_json({"run_seed": run_seed,
                         "samples": [[proc, time, list(vec)]
                                     for proc, time, vec in vc_trace]}) + "\n"


def int_time_runs():
    # WorkItem(at=0) puts the int 0 in the trace, and so does a scripted
    # delivery at an int time
    yield snapshot_run(1, [WorkItem(0, 0, "write", value=5),
                           WorkItem(0, 1, "snapshot")])
    table = {(0, 1): {1: 3}, (1, 1): {0: 5}}
    yield run_simulation(SimConfig(n=2, delay=ScriptedDelays(table),
                                   workload=[WorkItem(0, 0, "write", value=1),
                                             WorkItem(0, 2, "snapshot")]))


def test_vc_document_matches_the_reference_encoding():
    runs = [run_simulation(sweep_config(n, seed))
            for n in SWEEP_NS for seed in range(20)]
    runs.append(snapshot_run(25, random_workload(25, 60, seed=4), seed=4))
    runs.extend(int_time_runs())
    assert any(type(time) is int for run in runs[-2:]
               for _proc, time, _vec in run.vc_trace)
    for run in runs:
        seed = run.config.seed
        assert (sim.vc_trace_document(run.vc_trace, seed)
                == reference_vc_document(run.vc_trace, seed))
    assert sim.vc_trace_document([], 3) == reference_vc_document([], 3)
    assert sim.vc_trace_document([], 3) == '{"run_seed":3,"samples":[]}\n'


def reference_record(rec):
    """A history line as compact_json writes the record's fields."""
    doc = {"run_seed": rec.run_seed, "proc": rec.proc, "seq": rec.seq,
           "op": rec.kind, "t_inv": rec.t_inv, "object_id": rec.object_id}
    if rec.t_ret is not None:
        doc["t_ret"] = rec.t_ret
    if rec.kind == "write":
        doc["value"] = rec.value
    if rec.kind == "snapshot" and rec.t_ret is not None:
        doc["result"] = rec.result      # a tuple is written as a JSON array
    if rec.kind == "read":
        doc["target"] = rec.target
        if rec.t_ret is not None:
            doc["result"] = rec.result
    return compact_json(doc)


def reference_metrics_document(metrics, run_seed):
    return compact_json({
        "run_seed": run_seed,
        "messages_total": metrics.messages_total,
        "messages_per_update": {f"{obj}:{writer}:{stamp}": count
                                for (obj, writer, stamp), count
                                in metrics.messages_per_update.items()},
        "messages_per_op": {f"{proc}:{seq}": count for (proc, seq), count
                            in metrics.messages_per_op.items()},
        "op_causal_depth": {f"{proc}:{seq}": depth for (proc, seq), depth
                            in metrics.op_causal_depth.items()},
        "quiescent": metrics.quiescent,
    }) + "\n"


def document_runs(monkeypatch):
    """The int-time runs, crash-prone sweep runs at every n from 2 to 7, and
    counted_runs: crash-injected ABD runs, composed runs and a capped run."""
    runs = list(int_time_runs())
    runs += [run_simulation(sweep_config(n, seed))
             for n in range(2, 8) for seed in range(12)]
    runs += counted_runs(monkeypatch)
    return runs


def test_documents_match_the_reference_encodings(monkeypatch):
    runs = document_runs(monkeypatch)
    records = [rec for run in runs for rec in run.history]
    # every shape the direct writers cover occurs
    for kind in ("write", "snapshot", "read"):
        assert {rec.completed for rec in records if rec.kind == kind} == {
            True, False}, kind
    assert any(rec.object_id for rec in records)
    assert any(type(rec.t_inv) is int for rec in records)
    assert any(type(rec.t_ret) is int for rec in records)
    assert not runs[-1].metrics.quiescent
    # and no history line takes the compact_json path
    encoded = []
    monkeypatch.setattr(histories, "compact_json", encoded.append)
    for run in runs:
        lines = [reference_record(rec) for rec in run.history]
        assert [histories.record_to_json(rec) for rec in run.history] == lines
        assert sim.history_document(run.history) == "".join(
            line + "\n" for line in lines)
        seed = run.config.seed
        assert (sim.metrics_document(run.metrics, seed)
                == reference_metrics_document(run.metrics, seed))
    assert encoded == []
    assert sim.history_document([]) == ""


def test_reader_reads_back_every_line_the_writer_writes(monkeypatch):
    records = [rec for run in document_runs(monkeypatch) for rec in run.history]
    assert any(rec.kind == "read" and not rec.completed for rec in records)
    assert any(type(rec.t_inv) is int for rec in records)
    for rec in records:
        line = histories.record_to_json(rec)
        back = record_from_json(line)
        assert back == rec
        # and writes out as the same bytes: an int time stays an int
        assert histories.record_to_json(back) == line


def test_metrics_document_sorts_a_key_before_its_extensions():
    metrics = sim.Metrics(
        messages_total=9, quiescent=False,
        messages_per_update={(0, 1, 10): 3, (0, 1, 1): 4, (0, 11, 0): 2},
        messages_per_op={(1, 10): 1, (10, 1): 2, (1, 1): 3},
        op_causal_depth={(0, 10): 2, (0, 1): 0})
    doc = sim.metrics_document(metrics, 5)
    assert doc == reference_metrics_document(metrics, 5)
    # by key text: ":" sorts after the digits, and a key ends before them
    assert doc.index('"0:11:0"') < doc.index('"0:1:1"') < doc.index('"0:1:10"')
    assert sim.metrics_document(sim.Metrics(), 0) == \
        reference_metrics_document(sim.Metrics(), 0)


@pytest.mark.parametrize("rec", [
    OpRecord(True, 0, "write", 0.0, 0.0, value=1),
    OpRecord(0, 1.0, "write", 0.5, 0.5, value=1),
    OpRecord(0, 0, "snapshot", 0.0, inf, result=(1, 2)),
    OpRecord(0, 0, "read", 1.0, 2.0, target=1, result=[7]),
    OpRecord(0, 0, "snapshot", 1.0, 2.0, result=(1, True)),
    OpRecord(0, 0, "snapshot", 1.0, 2.0),
    OpRecord(0, 0, "cas", 1.0, 2.0, value=1),
    OpRecord(0, 0, "write", nan, 1.0, value=1),
], ids=["bool-proc", "float-seq", "infinite-t_ret", "list-result", "bool-cell",
        "snapshot-without-result", "unknown-kind", "nan-t_inv"])
def test_records_outside_the_trace_format_are_refused_by_the_writer(rec):
    with pytest.raises(ValueError):
        histories.record_to_json(rec)
    # the reader refuses the same record written as a dict
    with pytest.raises(TraceFormatError):
        record_from_json(reference_record(rec))


class FloatTime(float):
    pass


class IntTime(int):
    pass


# Every place a config gives a time, as a config with the time `t` there.
TIME_PLACES = {
    "item-at": lambda t: SimConfig(n=3, workload=[
        WorkItem(0, t, "write", value=1)]),
    "crash-at": lambda t: SimConfig(n=3, crashes=[CrashSpec(1, at_time=t)]),
    "delay-low": lambda t: SimConfig(n=3, delay=AsyncDelay(t, 2.0)),
    "delay-high": lambda t: SimConfig(n=3, delay=AsyncDelay(0.5, t)),
    "scripted": lambda t: SimConfig(n=2, delay=ScriptedDelays({(0, 1): {1: t}})),
}


class TestConfigValidation:
    def test_too_many_crashes(self):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=4, workload=[],
                                     crashes=[CrashSpec(0, at_time=1.0),
                                              CrashSpec(1, at_time=1.0)]))

    def test_process_crashing_twice(self):
        with pytest.raises(ConfigError, match="crashes twice"):
            run_simulation(SimConfig(n=5, workload=[],
                                     crashes=[CrashSpec(1, at_time=1.0),
                                              CrashSpec(1, on_send=1)]))

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
        ("snapshot", [WorkItem(0, 0.0, "write", value=1.5)], []),
        ("snapshot", [WorkItem(0, 0.0, "write", value=True)], []),
        ("snapshot", [WorkItem(0, 0.0, "write", value="7")], []),
        ("abd", [WorkItem(0, 0.0, "read", target=1.0)], []),
        ("abd", [WorkItem(0, 0.0, "read", target=True)], []),
        ("snapshot", [WorkItem(0, 0.0, "snapshot", object_id=1.0)], []),
        ("snapshot", [WorkItem(0, 0.0, "snapshot", object_id=True)], []),
        ("snapshot", [WorkItem(1.0, 0.0, "snapshot")], []),
        ("snapshot", [WorkItem(0, True, "snapshot")], []),
        ("snapshot", [WorkItem(0, "0", "snapshot")], []),
        ("snapshot", [], [CrashSpec(1, at_time=True)]),
        ("snapshot", [], [CrashSpec(1, on_send=1.5)]),
        ("snapshot", [], [CrashSpec(1, on_send=True)]),
        ("snapshot", [], [CrashSpec(True, on_send=2)]),
        ("snapshot", [], [CrashSpec(1.0, on_send=2)]),
        ("snapshot", [], [CrashSpec(1, on_send=1, recipients=(0.0, 2))]),
        ("snapshot", [], [CrashSpec(1, on_send=1, recipients=(False,))]),
        ("snapshot", [], [CrashSpec(1, on_send=1, recipients=2)]),
        ("snapshot", [], [CrashSpec(1, at_time=1.0, on_send=1)]),
        ("snapshot", [], [CrashSpec(1)]),
        ("snapshot", [WorkItem(0, 2.0, "snapshot"),
                      WorkItem(0, 1.0, "snapshot")], []),
        ("paxos", [], []),
        # a bare tuple is refused, not read field by field as a record
        ("snapshot", [(0, 1.0, "write", 5)], []),
        ("snapshot", [], [(0, 5.0)]),
        ("snapshot", None, []),
        ("snapshot", [], None),
        # a field the action does not take: its history could not hold it
        ("snapshot", [WorkItem(0, 0.0, "snapshot", value=5)], []),
        ("snapshot", [WorkItem(0, 0.0, "write", value=5, target=1)], []),
        ("abd", [WorkItem(0, 0.0, "read", value=9, target=1)], []),
    ], ids=["on-send-0", "on-send-negative", "recipient-above-n",
            "recipient-negative", "read-target-above-n",
            "read-target-negative", "read-without-target",
            "write-without-value", "object-negative", "item-at-nan",
            "item-at-inf", "crash-at-nan", "abd-object-1",
            "write-value-float", "write-value-bool", "write-value-str",
            "read-target-float", "read-target-bool", "object-float",
            "object-bool", "proc-float", "item-at-bool", "item-at-str",
            "crash-at-bool", "on-send-float", "on-send-bool",
            "crash-proc-bool", "crash-proc-float", "recipient-float",
            "recipient-bool", "recipients-not-a-sequence",
            "crash-at-time-and-on-send", "crash-at-neither",
            "item-times-backwards", "unknown-protocol", "item-tuple",
            "crash-tuple", "workload-none", "crashes-none",
            "snapshot-with-value", "write-with-target", "read-with-value"])
    def test_malformed_crash_or_item_rejected(self, protocol, workload,
                                              crashes):
        with pytest.raises(ConfigError):
            run_simulation(SimConfig(n=3, protocol=protocol,
                                     workload=workload, crashes=crashes))

    @pytest.mark.parametrize("fields", [
        {"n": 2.5}, {"n": "3"}, {"n": None}, {"n": True},
        {"n": 3, "seed": 1.5}, {"n": 3, "seed": True}, {"n": 3, "seed": "1"},
        {"n": 3, "delay": AsyncDelay("1", 2)},
        {"n": 3, "delay": AsyncDelay(1, "2")},
        {"n": 3, "delay": AsyncDelay(False, 2)},
        {"n": 3, "delay": None},
        {"n": 3, "delay": SimpleNamespace(validate=lambda: None)},
    ], ids=["n-float", "n-str", "n-none", "n-bool", "seed-float", "seed-bool",
            "seed-str", "delay-low-str", "delay-high-str", "delay-low-bool",
            "delay-none", "delay-without-arrival"])
    def test_malformed_size_seed_or_delay_rejected(self, fields):
        config = SimConfig(workload=[WorkItem(0, 0.0, "write", value=1)],
                           **fields)
        with pytest.raises(ConfigError):
            sim.validate_config(config)
        for runner in RUNNERS:
            with pytest.raises(ConfigError):
                runner(config)

    @pytest.mark.parametrize("n, rounds", [(3, 2.5), (3, "2"), (3, True),
                                           (3, 0), (2.5, 2)],
                             ids=["rounds-float", "rounds-str", "rounds-bool",
                                  "rounds-0", "n-float"])
    def test_malformed_round_config_rejected(self, n, rounds):
        with pytest.raises(ConfigError):
            run_rounds(RoundConfig(n=n, rounds=rounds))

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

    def test_scripted_delivery_must_not_precede_its_send(self):
        # the table is FIFO, so only the run can see the write sent at 5.0
        config = SimConfig(n=2, delay=ScriptedDelays({(0, 1): {1: 3.0}}),
                           workload=[WorkItem(0, 5.0, "write", value=1)])
        sim.validate_config(config)
        with pytest.raises(ConfigError, match="precedes its send"):
            run_simulation(config)

    @pytest.mark.parametrize("at", [nan, inf, True, "3"],
                             ids=["nan", "inf", "bool", "str"])
    def test_scripted_table_times_must_be_finite(self, at):
        config = SimConfig(n=2, delay=ScriptedDelays({(0, 1): {1: at}}),
                           workload=[WorkItem(0, 0.0, "write", value=1)])
        with pytest.raises(ConfigError):
            sim.validate_config(config)

    def test_a_run_that_could_pass_the_largest_time_is_refused(self):
        # p1's snapshot would return at inf, which no trace can hold
        config = SimConfig(n=2, delay=AsyncDelay(1e308, 1.7e308), workload=[
            WorkItem(0, 1.7e308, "write", value=1),
            WorkItem(0, 1.7e308, "snapshot"), WorkItem(1, 1.7e308, "snapshot")])
        with pytest.raises(ConfigError, match="pass the largest time"):
            sim.validate_config(config)

    def test_the_time_bound_reads_the_event_cap(self, monkeypatch):
        high = sys.float_info.max / 60
        config = SimConfig(n=3, delay=AsyncDelay(high, high),
                           workload=random_workload(3, 20, seed=0))
        monkeypatch.setattr(sim, "EVENT_CAP", 50)
        run = run_simulation(config)
        assert not run.metrics.quiescent
        # every transition is an invocation or a delivery
        times = [time for time, _to, _msg in run.delivery_log]
        times += [rec.t_inv for rec in run.history]
        assert all(map(histories.is_time, times))
        monkeypatch.setattr(sim, "EVENT_CAP", 60)
        with pytest.raises(ConfigError, match="pass the largest time"):
            sim.validate_config(config)

    @pytest.mark.parametrize("at", [FloatTime(1.0), IntTime(1), 10**400],
                             ids=["float-subclass", "int-subclass", "int-10**400"])
    @pytest.mark.parametrize("place", TIME_PLACES)
    def test_times_follow_the_trace_format_rule(self, place, at):
        # the same place takes a plain int or float time
        for plain in (1, 1.0):
            sim.validate_config(TIME_PLACES[place](plain))
        with pytest.raises(ConfigError):
            sim.validate_config(TIME_PLACES[place](at))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_random_runs_preserve_core_invariants(seed, n):
    crashes = random_crashes(n, (n - 1) // 2, seed)
    workload = trim_for_crashes(random_workload(n, 16, seed), crashes)
    run = run_simulation(SimConfig(n=n, seed=seed, workload=workload,
                                   crashes=crashes))
    assert not any(judge(run).values())
