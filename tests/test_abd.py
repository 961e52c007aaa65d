import copy

from seqsnap import abd
from seqsnap.checker import check_lin_brute
from seqsnap.protocol import NOTHING
from seqsnap.sim import AsyncDelay, CrashSpec, SimConfig, WorkItem, run_simulation
from seqsnap.workloads import abd_workload, trim_for_crashes


def run_abd(n, workload, seed=0, crashes=()):
    config = SimConfig(n=n, seed=seed, protocol="abd",
                       delay=AsyncDelay(0.5, 3.0), workload=workload,
                       crashes=list(crashes))
    return run_simulation(config)


def test_tags_order_lexicographically():
    assert abd.Tag(1, 2) < abd.Tag(2, 0)
    assert abd.Tag(1, 0) < abd.Tag(1, 2)


def test_two_sequential_writes_have_increasing_tags():
    state = abd.init(3, 0)
    eff1 = abd.invoke_write(state, 1)
    first = eff1.broadcasts[0].tag
    state.phase = None
    eff2 = abd.invoke_write(state, 2)
    assert first < eff2.broadcasts[0].tag


def reply(peer, msg):
    """The one directed message a peer sends back for a broadcast."""
    (answer, _dest), = abd.handle_message(peer, msg).sends
    return answer


def assert_ignored(state, msg):
    before = copy.deepcopy(state)
    assert abd.handle_message(state, msg) is NOTHING
    assert state == before


def test_ack_of_a_finished_write_is_ignored_by_the_next_read():
    state = abd.init(3, 0)
    store = abd.invoke_write(state, 5).broadcasts[0]
    acks = [reply(abd.init(3, j), store) for j in range(3)]
    abd.handle_message(state, acks[0])
    assert abd.handle_message(state, acks[1]).completions == [("write", None)]
    query = abd.invoke_read(state, 1).broadcasts[0]
    assert_ignored(state, acks[2])
    for j in range(2):
        abd.handle_message(state, reply(abd.init(3, j), query))
    assert not state.phase.querying          # now in its write-back
    assert_ignored(state, acks[2])


def test_query_reply_after_the_write_back_began_is_ignored():
    state = abd.init(3, 0)
    query = abd.invoke_read(state, 1).broadcasts[0]
    peers = [abd.init(3, j) for j in range(3)]
    abd.handle_message(peers[1], abd.invoke_write(peers[1], 9).broadcasts[0])
    replies = [reply(peer, query) for peer in peers]
    abd.handle_message(state, replies[0])
    write_back = abd.handle_message(state, replies[1]).broadcasts[0]
    assert (write_back.value, write_back.tag) == (9, abd.Tag(1, 1))
    assert_ignored(state, replies[2])


def test_read_returns_largest_tag_after_majority_of_write_back_acks():
    n = 5
    peers = [abd.init(n, j) for j in range(n)]
    first = abd.invoke_write(peers[2], 12).broadcasts[0]
    peers[2].phase = None
    second = abd.invoke_write(peers[2], 22).broadcasts[0]
    abd.handle_message(peers[1], first)
    abd.handle_message(peers[2], first)
    abd.handle_message(peers[2], second)
    reader = peers[0]
    query = abd.invoke_read(reader, 2).broadcasts[0]
    for peer in peers[:2]:
        assert abd.handle_message(reader, reply(peer, query)) is NOTHING
    write_back = abd.handle_message(reader, reply(peers[2], query)).broadcasts[0]
    assert (write_back.value, write_back.tag) == (22, abd.Tag(2, 2))
    acks = [reply(peer, write_back) for peer in peers]
    assert abd.handle_message(reader, acks[0]) is NOTHING
    assert abd.handle_message(reader, acks[0]) is NOTHING   # same sender again
    assert abd.handle_message(reader, acks[1]) is NOTHING
    assert abd.handle_message(reader, acks[4]).completions == [("read", 22)]
    assert reader.phase is None and reader.values[2] == 22


def test_crash_free_write_uses_one_round_and_majority_acks():
    run = run_abd(3, [WorkItem(0, 0.0, "write", value=5)])
    rec = run.history[0]
    assert rec.completed
    assert run.metrics.op_causal_depth[(0, 0)] == 2
    assert run.metrics.messages_per_op[(0, 0)] == 6  # broadcast + every ack


def test_write_completes_with_two_acks_under_one_crash():
    run = run_abd(3, [WorkItem(0, 0.0, "write", value=5)],
                  crashes=[CrashSpec(2, at_time=0.01)])
    rec = run.history[0]
    assert rec.completed and run.crashed == frozenset({2})


def test_read_after_quiescent_write_returns_it_with_two_rounds():
    run = run_abd(3, [WorkItem(0, 0.0, "write", value=7),
                      WorkItem(1, 50.0, "read", target=0)])
    read = run.history[1]
    assert read.result == 7
    assert run.metrics.op_causal_depth[(1, 0)] == 4
    assert run.metrics.messages_per_op[(1, 0)] == 12  # two rounds of 2n


def test_read_of_never_written_register_returns_default():
    run = run_abd(3, [WorkItem(1, 0.0, "read", target=2)])
    assert run.history[0].result == 0


def test_a_transition_returns_nothing_exactly_when_it_asks_nothing(monkeypatch):
    counted = {True: 0, False: 0}

    def checked(transition):
        def call(state, *args):
            eff = transition(state, *args)
            empty = not (eff.broadcasts or eff.sends or eff.completions
                         or eff.validated)
            assert (eff is NOTHING) == empty
            counted[empty] += 1
            return eff
        return call

    for name in ("handle_message", "invoke_write", "invoke_read"):
        monkeypatch.setattr(abd, name, checked(getattr(abd, name)))
    for seed in range(4):
        crashes = [CrashSpec(4, at_time=6.0)]
        run_abd(5, trim_for_crashes(abd_workload(5, 20, seed=seed), crashes),
                seed=seed, crashes=crashes)
    assert counted[True] > 0 and counted[False] > 0


def test_message_budget_per_operation():
    run = run_abd(5, abd_workload(5, 10, seed=3))
    for (proc, seq), count in run.metrics.messages_per_op.items():
        rec = next(r for r in run.history if (r.proc, r.seq) == (proc, seq))
        budget = 2 * 5 if rec.kind == "write" else 4 * 5
        assert count <= budget


def test_concurrent_histories_are_linearizable():
    for seed in range(12):
        workload = abd_workload(3, 7, seed=seed)
        run = run_abd(3, workload, seed=seed)
        verdict = check_lin_brute(run.history, 3)
        assert verdict.accepted, (seed, verdict.reason)


def test_crashed_histories_stay_linearizable():
    for seed in range(8):
        crashes = [CrashSpec(2, at_time=3.0)]
        workload = trim_for_crashes(abd_workload(3, 6, seed=100 + seed), crashes)
        run = run_abd(3, workload, seed=seed, crashes=crashes)
        verdict = check_lin_brute(run.history, 3)
        assert verdict.accepted, (seed, verdict.reason)
