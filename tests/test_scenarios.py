import pytest

from seqsnap.checker import check_sc_brute, check_sc_fast
from seqsnap.gates import judge
from seqsnap.protocol import UpdateMsg
from seqsnap.scenarios import replay_scripted, scenario_config, validation_order
from seqsnap.sim import serialize_run

A, B = (4, 1), (0, 1)   # the two concurrent updates of the n=5 scenario


def batch_time(batches, key):
    return next(t for t, keys in batches if key in keys)


@pytest.fixture(scope="module")
def cross_run():
    return replay_scripted("fig4a")


@pytest.fixture(scope="module")
def chain_run():
    return replay_scripted("fig4b")


class TestTwoWritersCross:
    @pytest.fixture()
    def run(self, cross_run):
        return cross_run

    def test_quiescent_and_converged(self, run):
        assert run.metrics.quiescent
        for states in run.states:
            assert states[0].view == (1, 0, 0, 0, 1)
            assert states[0].view_stamps == (1, 0, 0, 0, 1)
            assert not states[0].pending

    def test_fast_validators_order_first_update_strictly_first(self, run):
        for proc in (3, 4):
            batches = validation_order(run, proc)
            assert batch_time(batches, A) < batch_time(batches, B)

    def test_entangled_processes_validate_together(self, run):
        # the relay overlap forces a dependency either way: neither update
        # may be validated without the other
        for proc in (0, 1, 2):
            batches = validation_order(run, proc)
            assert batch_time(batches, A) == batch_time(batches, B)

    def test_exactly_n_squared_messages_per_update(self, run):
        assert run.metrics.messages_per_update == {(0,) + A: 25, (0,) + B: 25}
        assert run.metrics.messages_total == 50

    def test_run_invariants_hold(self, run):
        assert not any(judge(run).values())

    def test_history_sequentially_consistent(self, run):
        assert check_sc_fast(run.history, 5).accepted
        assert check_sc_brute(run.history, 5).accepted

    def test_replay_is_deterministic(self, run):
        again = replay_scripted("fig4a")
        assert serialize_run(run) == serialize_run(again)


class TestPostponedChain:
    FIRST_A, FIRST_B = (3, 1), (0, 1)   # first writes of p3 and p0 (n=4)

    @pytest.fixture()
    def run(self, chain_run):
        return chain_run

    def test_all_four_updates_validate_everywhere(self, run):
        assert run.metrics.quiescent
        for states in run.states:
            assert states[0].view == (2, 0, 0, 32)
            assert states[0].view_stamps == (3, 0, 0, 3)
            assert not states[0].pending and states[0].deferred is None

    def test_second_writes_were_postponed_until_validation(self, run):
        originals = {}
        for msg in run.message_log:
            payload = msg.payload
            if isinstance(payload, UpdateMsg) and msg.sender == payload.writer:
                originals[(payload.writer, payload.stamp)] = msg
        # first writes go out at invocation time, chain length 1
        assert originals[(3, 1)].time == 0.0 and originals[(3, 1)].chain == 1
        assert originals[(0, 1)].time == 0.0 and originals[(0, 1)].chain == 1
        # buffered writes go out inside the validating transition
        for writer, stamp in ((3, 3), (0, 3)):
            flush = originals[(writer, stamp)]
            assert flush.chain == 3
            batches = validation_order(run, writer)
            assert flush.time == batch_time(batches, (writer, 1))

    def test_cross_dependency_pressure_was_present(self, run):
        # p1 relayed b before a, p2 relayed a before b: the pattern that
        # would chain forever if second writes were broadcast eagerly
        relays = {}
        for msg in run.message_log:
            payload = msg.payload
            if isinstance(payload, UpdateMsg) and msg.sender != payload.writer:
                relays.setdefault((msg.sender, (payload.writer, payload.stamp)),
                                  msg.time)
        assert relays[(1, self.FIRST_B)] < relays[(1, self.FIRST_A)]
        assert relays[(2, self.FIRST_A)] < relays[(2, self.FIRST_B)]

    def test_message_budget(self, run):
        assert set(run.metrics.messages_per_update.values()) == {16}

    def test_run_invariants_and_consistency(self, run):
        assert not any(judge(run).values())


class TestQuorumDemo:
    def test_write_then_read(self):
        run = replay_scripted("abd_baseline_demo")
        write, read = run.history
        assert write.completed and read.result == 7
        assert run.metrics.op_causal_depth[(write.proc, write.seq)] == 2
        assert run.metrics.op_causal_depth[(read.proc, read.seq)] == 4
        assert run.metrics.messages_per_op[(write.proc, write.seq)] == 6
        assert run.metrics.messages_per_op[(read.proc, read.seq)] == 12


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        scenario_config("fig9z")
