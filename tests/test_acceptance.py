"""Acceptance gate: one test per criterion, exact tolerances, with a printed
pass line each (run with -s to see them inline).

The safety sweep (criterion 1) and the even-n runs are executed once, each
run judged by seqsnap.gates.judge, the one definition of the criteria, and
shared with every criterion that quantifies over the same runs.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from unittest import mock

import pytest

from seqsnap import checker, rounds
from seqsnap.bench import measure_abd, measure_snapshot
from seqsnap.checker import (CheckRefusal, check_lin_brute, check_sc_brute,
                             check_sc_fast, verdict_document)
from seqsnap.gates import judge
from seqsnap.histories import OpRecord
from seqsnap.rounds import RoundConfig, check_composition, run_rounds
from seqsnap.scenarios import replay_scripted, validation_order
from seqsnap.sim import (CrashSpec, SimConfig, run_fifo, run_simulation,
                         serialize_run)
from seqsnap.workloads import (abd_workload, random_crashes, random_workload,
                               trim_for_crashes)
from sweep import (EVEN_NS, FIFO_NS, SWEEP_NS, NonFifoSim,
                   assert_witness_holds, fifo_config, fifo_crash_case,
                   golden_round_config, mutate_history, run_digest,
                   sweep_config)

SEEDS_PER_N = 500
# SHA-256 over the run_digest texts of the C1 sweep's runs, n in SWEEP_NS
# and seed 0..SEEDS_PER_N-1 in that order: the whole sweep's bytes, pinned
# before own broadcast copies left the event heap
C1_SWEEP_DIGEST = \
    "d73fa7c0adce6beccaa738a0e8aae8803e61e517a6ac63e2ffe1e7d12af0a3e8"
# The same over the any-FIFO gate's 2,000 sim.run_fifo runs, in run order
FIFO_DIGEST = \
    "ac8e891175017fd37b1a7469289a446c7759363615d9be15f3019ddb76a86141"
# SHA-256 of the repr of the non-FIFO gate's failing runs: the list of
# (n, seed, sorted failed criteria), n in NON_FIFO_NS and seed in order
NON_FIFO_DIGEST = \
    "503732bfe779ea41fa093505f5013d594aefa39990d5756a47dc7f3691e4efb1"
NON_FIFO_NS = (3, 5, 7)


@pytest.fixture(scope="module")
def sweep_results():
    """Every run of the C1 sweep and of the even-n runs, judged: the failing
    (n, seed) runs of each criterion, and the C1 sweep's digest."""
    failures = defaultdict(list)
    histories = []
    runs = waited_snapshots = 0
    digest = hashlib.sha256()
    for n in SWEEP_NS + EVEN_NS:
        for seed in range(SEEDS_PER_N):
            run = run_simulation(sweep_config(n, seed))
            runs += 1
            histories.append((n, run.history))
            if n in SWEEP_NS:
                digest.update(run_digest(run).encode())
            for criterion, violations in judge(run).items():
                if violations:
                    failures[criterion].append((n, seed))
            waited_snapshots += sum(
                rec.kind == "snapshot" and rec.completed
                and rec.t_ret > rec.t_inv for rec in run.history)
    return {"runs": runs, "failures": failures, "digest": digest.hexdigest(),
            "waited_snapshots": waited_snapshots, "histories": histories}


def test_c1_safety_sweep_every_history_sequentially_consistent(sweep_results):
    assert sweep_results["runs"] == len(SWEEP_NS + EVEN_NS) * SEEDS_PER_N
    assert sweep_results["failures"]["stuck"] == []
    assert sweep_results["failures"]["C1"] == []
    print(f"\nC1 PASS: {sweep_results['runs']} seeded crash-prone runs, "
          f"all histories accepted by the fast checker")


def test_c1_sweep_bytes_match_their_golden_digest(sweep_results):
    assert sweep_results["digest"] == C1_SWEEP_DIGEST


def test_c1_fast_accepts_need_no_replay_and_no_oracle(sweep_results):
    # check_sc_fast returns the witness it builds; the C2 cross-validation
    # replays the witnesses
    def never(*args):
        raise AssertionError("check_sc_fast replayed its witness or searched")

    histories = sweep_results["histories"]
    with mock.patch.multiple(checker, replay_legal=never,
                             contains_process_order=never,
                             check_sc_brute=never):
        accepted = sum(check_sc_fast(history, n).accepted
                       for n, history in histories)
    assert accepted == len(histories) == sweep_results["runs"]


def test_c2_checker_cross_validation_on_10k_histories():
    rng = random.Random("mutations")
    checked = 0
    disagreements = []
    seed = 0
    while checked < 10_000:
        n = (2, 3)[seed % 2]
        workload = random_workload(n, 8, seed, snapshot_ratio=0.5)
        run = run_simulation(SimConfig(n=n, seed=seed, workload=workload))
        candidates = [run.history]
        for _ in range(3):
            mutant = mutate_history(run.history, n, rng)
            if mutant is not None:
                candidates.append(mutant)
        for history in candidates:
            fast = check_sc_fast(history, n)
            brute = check_sc_brute(history, n)
            if fast.accepted != brute.accepted:
                disagreements.append((n, seed))
            if fast.accepted:
                assert_witness_holds(fast, history, n)
            checked += 1
        seed += 1
    assert disagreements == []
    # the handcrafted incomparable pair is rejected by both
    handmade = [
        OpRecord(0, 0, "write", 0.0, 0.0, value=1),
        OpRecord(0, 1, "snapshot", 1.0, 2.0, result=(1, 0)),
        OpRecord(1, 0, "write", 0.0, 0.0, value=1),
        OpRecord(1, 1, "snapshot", 1.0, 2.0, result=(0, 1)),
    ]
    assert not check_sc_fast(handmade, 2).accepted
    assert not check_sc_brute(handmade, 2).accepted
    print(f"\nC2 PASS: fast and exhaustive checkers agree on {checked} "
          f"histories (real + mutated); handcrafted violation rejected by both")


def test_verdicts_do_not_depend_on_line_order():
    """Every checker decides on the process order alone: shuffling a
    history's lines leaves the verdict document (witness and certificate
    included) unchanged."""
    rng = random.Random("line-order")

    def outcome(check, history, n):
        try:
            return verdict_document(check(history, n))
        except CheckRefusal:
            return "refused"

    def with_mutants(history, n):
        mutants = (mutate_history(history, n, rng) for _ in range(3))
        return [history] + [m for m in mutants if m is not None]

    cases = []
    for seed in range(60):
        n = (2, 3)[seed % 2]
        run = run_simulation(SimConfig(
            n=n, seed=seed,
            workload=random_workload(n, 8, seed, snapshot_ratio=0.5)))
        cases += [(check, h, n) for h in with_mutants(run.history, n)
                  for check in (check_sc_fast, check_sc_brute, check_lin_brute)]
    for seed in range(30):
        n = (2, 3, 5)[seed % 3]
        crashes = [CrashSpec(seed % n, on_send=1 + seed % 5)] if n > 2 else []
        run = run_rounds(RoundConfig(n=n, rounds=1 + seed % 5, seed=seed,
                                     crashes=crashes))
        cases += [(check_composition, h, n) for h in with_mutants(run.history, n)]
    for check, history, n in cases:
        expected = outcome(check, history, n)
        for _ in range(2):
            shuffled = rng.sample(history, len(history))
            assert outcome(check, shuffled, n) == expected, (check.__name__, history)
    print(f"\nline order: {len(cases)} checks unchanged under 2 shuffles each")


def test_c1_writes_never_wait_and_snapshots_wait_only_after_own_writes(
        sweep_results):
    """The paper's sufficiency claim about waiting: the one wait the
    protocol needs is a snapshot's, right after its own process wrote."""
    assert sweep_results["failures"]["wait"] == []
    assert sweep_results["waited_snapshots"] > 0
    print(f"\nC1 waiting PASS: no write waited in {sweep_results['runs']} "
          f"runs, and each of the {sweep_results['waited_snapshots']} "
          f"snapshots that waited followed a write of its own process")


def test_c3_stamp_vectors_totally_ordered_in_every_sweep_run(sweep_results):
    assert sweep_results["failures"]["C3"] == []
    print(f"\nC3 PASS: stamp-vector comparability held across all "
          f"{sweep_results['runs']} runs")


def test_c1_c3_hold_at_even_n_where_half_is_not_a_majority(sweep_results):
    """Every criterion over 500 sweep runs at each even n with a crash
    budget: there "exactly half the processes" is a possible count, so a
    threshold written as >= instead of > shows here and nowhere in
    SWEEP_NS."""
    failures = [(criterion, n, seed)
                for criterion, runs in sweep_results["failures"].items()
                for n, seed in runs if n in EVEN_NS]
    assert failures == []
    print(f"\neven n PASS: {len(EVEN_NS) * SEEDS_PER_N} runs at n in "
          f"{EVEN_NS} met every criterion")


def test_c1_holds_in_any_fifo_order_even_with_a_slow_self_channel():
    """Every criterion of judge under sim.run_fifo, where any channel, a
    process's channel to itself included, may hold its messages for any
    number of steps: 1,000 crash-free runs at n = 2..7, and 1,000 runs at
    n = 3..7 in which one process up to the crash budget is marked to
    crash, mostly mid-broadcast. The simulator always hands a sender its
    own copy first, so no other gate reaches these orders. The runs' bytes
    are pinned as the C1 sweep's are."""
    runs = 1000
    failures = []
    crashed_total = 0
    digest = hashlib.sha256()
    for crash_runs in (False, True):
        for seed in range(runs):
            if crash_runs:
                n, crashes = fifo_crash_case(seed)
            else:
                n, crashes = FIFO_NS[seed % len(FIFO_NS)], 0
            run = run_fifo(fifo_config(n, seed, crashes))
            crashed_total += len(run.crashed)
            digest.update(run_digest(run).encode())
            failures += [(criterion, n, seed, crashes)
                         for criterion, violations in judge(run).items()
                         if violations]
    assert failures == []
    assert crashed_total > runs
    assert digest.hexdigest() == FIFO_DIGEST
    print(f"\nany-FIFO PASS: {2 * runs} runs in any FIFO order, "
          f"{crashed_total} crashes, every criterion met")


def test_fifo_channels_are_needed_for_safety():
    """The model's FIFO assumption is needed: with each channel's clamp
    taken out (NonFifoSim), the sweep configs at n = 3, 5 and 7, seeds
    0-199, break C1, not only C3."""
    failing = []
    for n in NON_FIFO_NS:
        for seed in range(200):
            verdicts = judge(NonFifoSim(sweep_config(n, seed)).run())
            failed = sorted(c for c, violations in verdicts.items() if violations)
            if failed:
                failing.append((n, seed, failed))
    c1 = sum("C1" in failed for _n, _seed, failed in failing)
    assert c1 > 0
    assert hashlib.sha256(repr(failing).encode()).hexdigest() == NON_FIFO_DIGEST
    print(f"\nnon-FIFO PASS: without the FIFO clamp {len(failing)} of "
          f"{200 * len(NON_FIFO_NS)} runs fail a criterion, {c1} of them C1")


def test_c4_every_correct_update_reaches_every_correct_process(sweep_results):
    assert sweep_results["failures"]["C4"] == []
    assert sweep_results["failures"]["drained"] == []
    print(f"\nC4 PASS: liveness held in all {sweep_results['runs']} runs; "
          f"every correct process returned its ops and ended idle")


def test_c5_snapshot_protocol_cost_row_is_exact(sweep_results):
    assert sweep_results["failures"]["messages"] == []
    witnessed = set()
    for n in (3, 5, 7):
        costs = measure_snapshot(n)
        assert costs.write_depth == 0
        assert set(costs.update_messages.values()) == {n * n}
        assert costs.snapshot_messages == 0
        for depth in costs.snapshot_depths.values():
            assert 0 <= depth <= 4
        witnessed.update(costs.snapshot_depths.values())
        assert costs.snapshot_depths["isolated"] == 0
        assert costs.snapshot_depths["after_two_writes"] == 4
    assert {0, 4} <= witnessed
    print("\nC5 PASS: write depth 0, n^2 messages per update, snapshots free, "
          "snapshot depth in [0, 4] with both endpoints witnessed; at most "
          f"n^2 messages per update in all {sweep_results['runs']} sweep runs")


def test_c6_quorum_baseline_cost_row_is_exact_and_linearizable():
    for n in (3, 5):
        costs = measure_abd(n)
        assert costs.read_depth == 4
        assert costs.write_depth == 2
        assert costs.read_messages <= 4 * n
        assert costs.write_messages <= 2 * n
    for seed in range(25):
        run = run_simulation(SimConfig(n=3, seed=seed, protocol="abd",
                                       workload=abd_workload(3, 8, seed)))
        assert check_lin_brute(run.history, 3).accepted, seed
    depths = {"read": 0, "write": 0}
    for n in (3, 5):
        for seed in range(100):
            crashes = random_crashes(n, (n - 1) // 2, seed)
            workload = trim_for_crashes(abd_workload(n, 8, seed), crashes)
            run = run_simulation(SimConfig(n=n, seed=seed, protocol="abd",
                                           workload=workload, crashes=crashes))
            assert check_lin_brute(run.history, n).accepted, (n, seed)
            # both kinds wait, a read for two quorum phases, a write for one
            for rec in run.history:
                if rec.completed:
                    depth = run.metrics.op_causal_depth[(rec.proc, rec.seq)]
                    assert depth == (4 if rec.kind == "read" else 2), (
                        n, seed, rec.proc, rec.seq)
                    depths[rec.kind] += 1
    assert min(depths.values()) > 0
    print("\nC6 PASS: register baseline shows read depth 4 / write depth 2, "
          "message budget respected, 25 concurrent and 200 crash-injected "
          f"histories linearizable, with every one of their {depths['read']} "
          f"reads at depth 4 and {depths['write']} writes at depth 2")


def test_c7_scripted_scenarios_reproduce_the_validation_patterns():
    cross = replay_scripted("fig4a")
    a, b = (4, 1), (0, 1)

    def when(proc, key):
        return next(t for t, keys in validation_order(cross, proc) if key in keys)

    for proc in (3, 4):
        assert when(proc, a) < when(proc, b)
    for proc in (0, 1, 2):
        assert when(proc, a) == when(proc, b)
    for states in cross.states:
        assert states[0].view == (1, 0, 0, 0, 1)

    chain = replay_scripted("fig4b")
    assert not any(judge(chain).values())
    for states in chain.states:
        assert states[0].view_stamps == (3, 0, 0, 3)
    flushes = [m for m in chain.message_log
               if getattr(m.payload, "writer", None) == m.sender
               and m.payload.stamp == 3]
    assert len(flushes) == 2 and all(m.time > 0.05 for m in flushes)
    print("\nC7 PASS: cross-write scenario validates in the scripted pattern "
          "and converges; postponement scenario terminates with all four "
          "updates validated everywhere")


def c8_config(seed):
    n = (3, 5)[seed % 2]
    crashes = [CrashSpec(seed % n, on_send=1 + seed % 5)] if seed % 3 == 0 else []
    return RoundConfig(n=n, rounds=2 + seed % 4, seed=seed, crashes=crashes)


def test_c8_round_compositions_accepted():
    combos = 0
    for seed in range(100):
        config = c8_config(seed)
        run = run_rounds(config)
        assert run.metrics.quiescent, seed
        verdict = check_composition(run.history, config.n)
        assert verdict.accepted, (seed, verdict.reason)
        assert_witness_holds(verdict, run.history, config.n)
        combos += 1
    small = run_rounds(RoundConfig(n=2, rounds=2, seed=1))
    assert len(small.history) <= 10
    assert check_sc_brute(small.history, 2).accepted
    print(f"\nC8 PASS: {combos} round-structured runs composed consistently; "
          f"small instance confirmed by the exhaustive composed check")


def test_c8_compositions_need_no_replay_and_no_oracle():
    # check_composition splices the per-object witnesses, which the round
    # rule makes a legal order; test_c8_round_compositions_accepted replays
    # them
    def never(*args):
        raise AssertionError("check_composition replayed a splice or searched")

    configs = [c8_config(seed) for seed in range(100)]
    configs += [golden_round_config(seed) for seed in range(10)]
    with mock.patch.multiple(checker, seq_step=never, replay_legal=never,
                             contains_process_order=never,
                             check_sc_brute=never), \
            mock.patch.object(rounds, "check_sc_brute", never):
        accepted = sum(check_composition(run_rounds(config).history,
                                         config.n).accepted
                       for config in configs)
    assert accepted == len(configs) == 110


def test_c9_repeating_any_run_is_byte_identical():
    configs = [sweep_config(5, 123), sweep_config(7, 321)]
    for config in configs:
        first = serialize_run(run_simulation(config))
        second = serialize_run(run_simulation(config))
        assert first == second
    replay_a = serialize_run(replay_scripted("fig4a"))
    replay_b = serialize_run(replay_scripted("fig4a"))
    assert replay_a == replay_b
    rounds_a = serialize_run(run_rounds(RoundConfig(n=3, rounds=3, seed=5)))
    rounds_b = serialize_run(run_rounds(RoundConfig(n=3, rounds=3, seed=5)))
    assert rounds_a == rounds_b
    print("\nC9 PASS: repeated runs serialize byte-identically "
          "(sweep, replay and rounds configurations)")
