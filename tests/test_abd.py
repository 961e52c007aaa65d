from seqsnap import abd
from seqsnap.checker import check_lin_brute
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
