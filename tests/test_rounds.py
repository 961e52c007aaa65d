import random

import pytest

from seqsnap.checker import (BRUTE_BOUND, CheckRefusal, check_sc_brute,
                             check_sc_fast)
from seqsnap.histories import OpRecord
from seqsnap.rounds import (DisciplineError, RoundConfig, check_composition,
                            round_workload, run_rounds)
from seqsnap.sim import (CrashSpec, SimConfig, WorkItem, run_simulation,
                         serialize_run)
from seqsnap.workloads import encode_value
from sweep import mutate_history
from test_checker import assert_witness_holds


def test_single_round_degenerates_to_plain_run():
    run = run_rounds(RoundConfig(n=3, rounds=1, seed=0))
    assert run.metrics.quiescent
    assert {rec.object_id for rec in run.history} == {0}
    assert check_sc_fast(run.history, 3).accepted
    assert check_composition(run.history, 3).accepted


@pytest.mark.parametrize("seed", range(4))
def test_one_round_run_serializes_like_a_plain_run(seed):
    config = RoundConfig(n=3, rounds=1, seed=seed)
    plain = run_simulation(SimConfig(n=3, seed=seed,
                                     workload=round_workload(config)))
    assert serialize_run(run_rounds(config)) == serialize_run(plain)


def test_crash_free_multi_round_composition_accepted():
    run = run_rounds(RoundConfig(n=3, rounds=3, seed=4))
    assert run.metrics.quiescent
    assert {rec.object_id for rec in run.history} == {0, 1, 2}
    verdict = check_composition(run.history, 3)
    assert verdict.accepted
    # the spliced witness follows round order
    objects = [obj for (obj, _p, _s) in verdict.witness]
    assert objects == sorted(objects)


def test_crashed_process_leaves_other_rounds_intact():
    run = run_rounds(RoundConfig(n=3, rounds=2, seed=5,
                                 crashes=[CrashSpec(2, on_send=2)]))
    assert run.metrics.quiescent
    assert run.crashed == frozenset({2})
    survivors = {rec.proc for rec in run.history if rec.object_id == 1}
    assert {0, 1} <= survivors
    assert check_composition(run.history, 3).accepted


def test_small_instance_passes_composed_brute_force():
    run = run_rounds(RoundConfig(n=2, rounds=2, seed=6))
    assert len(run.history) <= 10
    assert check_sc_brute(run.history, 2).accepted


def test_composition_agrees_with_the_oracle_on_runs_and_mutants():
    # check_sc_brute folds one register array per object, so it is the
    # exhaustive composed check; every history it can judge must get the
    # same verdict from check_composition
    verdicts = []
    for seed in range(100):
        n = (2, 3)[seed % 2]
        crashes = ([CrashSpec(seed % n, on_send=1 + seed % 5)]
                   if n == 3 and seed % 3 == 0 else [])
        run = run_rounds(RoundConfig(n=n, rounds=1 + seed % 3, seed=seed,
                                     crashes=crashes))
        rng = random.Random(f"mutants:{seed}")
        mutants = (mutate_history(run.history, n, rng) for _ in range(3))
        for history in [run.history] + [m for m in mutants if m is not None]:
            if len(history) <= BRUTE_BOUND:
                composed = check_composition(history, n).accepted
                assert composed == check_sc_brute(history, n).accepted, seed
                verdicts.append(composed)
    # 200 of the 400 histories are within the bound, 125 of them accepted
    assert len(verdicts) >= 100 and True in verdicts and False in verdicts


def test_corrupted_round_snapshot_rejected_with_object_named():
    run = run_rounds(RoundConfig(n=3, rounds=3, seed=7))
    history = [rec for rec in run.history]
    victim = next(rec for rec in history
                  if rec.object_id == 2 and rec.kind == "snapshot" and rec.completed)
    victim.result = tuple(v + 777 for v in victim.result[:-1]) + (999,)
    verdict = check_composition(history, 3)
    assert not verdict.accepted
    assert verdict.reason.startswith("object 2")
    assert all(obj == 2 for (obj, _p, _s) in verdict.certificate)


def test_empty_history_accepted():
    assert check_composition([], 3).accepted


def test_round_discipline_violation_is_an_error_not_a_verdict():
    history = [
        OpRecord(0, 0, "write", 0.0, 0.0, value=1, object_id=1),
        OpRecord(0, 1, "write", 1.0, 1.0, value=2, object_id=0),
    ]
    with pytest.raises(DisciplineError) as caught:
        check_composition(history, 1)
    assert isinstance(caught.value, CheckRefusal)


def test_entry_check_spans_objects():
    # p0's snapshot on object 1 follows its own write on object 0 that never
    # returned: refused, as it would be within one object
    history = [
        OpRecord(0, 0, "write", 0.0, None, value=1, object_id=0),
        OpRecord(0, 1, "snapshot", 2.0, 3.0, result=(0, 0), object_id=1),
        OpRecord(1, 0, "snapshot", 0.0, 1.0, result=(1, 0), object_id=0),
    ]
    with pytest.raises(CheckRefusal):
        check_composition(history, 2)


def test_cut_off_write_left_out_of_a_round_witness():
    # object 0 has a zero write, so its slice goes to the oracle, whose
    # witness leaves p1's cut-off write out; 13 ops are beyond the
    # exhaustive bound, so the splice must hold without a fallback
    history = [
        OpRecord(0, 0, "write", 0.0, 1.0, value=0, object_id=0),
        OpRecord(1, 0, "snapshot", 0.0, 1.0, result=(0, 0), object_id=0),
        OpRecord(1, 1, "write", 2.0, None, value=5, object_id=0),
    ]
    for k in range(5):
        history += [OpRecord(0, 1 + 2 * k, "write", 2.0 + 2 * k, 2.5 + 2 * k,
                             value=k + 1, object_id=1),
                    OpRecord(0, 2 + 2 * k, "snapshot", 3.0 + 2 * k,
                             3.5 + 2 * k, result=(k + 1, 0), object_id=1)]
    for obj in (0, 1):
        assert check_sc_fast([r for r in history if r.object_id == obj],
                             2).accepted
    verdict = check_composition(history, 2)
    assert verdict.accepted
    assert_witness_holds(verdict, history, 2)


def dekker_workload(objects):
    """p0 writes its object and snapshots p1's; p1 the other way round."""
    x, y = objects
    return [WorkItem(0, 0.0, "write", value=encode_value(0, 0), object_id=x),
            WorkItem(0, 0.0, "snapshot", object_id=y),
            WorkItem(1, 0.0, "write", value=encode_value(1, 0), object_id=y),
            WorkItem(1, 0.0, "snapshot", object_id=x)]


def test_dekker_is_sc_per_object_but_not_composed():
    # sequential consistency does not compose in general: each object's
    # projection is SC, the history over both objects is not
    for seed in range(200):
        run = run_simulation(SimConfig(n=2, seed=seed,
                                       workload=dekker_workload((0, 1))))
        for obj in (0, 1):
            projection = [r for r in run.history if r.object_id == obj]
            assert check_sc_fast(projection, 2).accepted, seed
        assert not check_sc_brute(run.history, 2).accepted, seed
        with pytest.raises(DisciplineError):
            check_composition(run.history, 2)
        twin = run_simulation(SimConfig(n=2, seed=seed,
                                        workload=dekker_workload((0, 0))))
        assert check_sc_fast(twin.history, 2).accepted, seed


def test_processes_keep_relaying_for_rounds_they_left():
    # p0 finishes round 0 long before p1 even starts; p1's round-0 update
    # still validates everywhere because p0 keeps handling object-0 traffic
    run = run_rounds(RoundConfig(n=2, rounds=2, seed=8))
    states = run.states[0]
    assert len(states) == 2
    assert states[0].view_stamps[1] >= 1


def test_per_round_acceptance_plus_discipline_implies_composed_acceptance():
    for seed in range(6):
        run = run_rounds(RoundConfig(n=3, rounds=2, seed=seed))
        per_round_ok = all(
            check_sc_fast([r for r in run.history if r.object_id == obj], 3).accepted
            for obj in (0, 1))
        assert per_round_ok
        assert check_composition(run.history, 3).accepted
