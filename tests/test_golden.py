"""Golden outputs: fixed runs whose bytes are pinned, not merely repeatable.

Determinism tests elsewhere compare two runs of the same code, so a change
that reorders a random draw, a heap tie or a log entry would pass them. Each
case here hashes everything a run leaves behind (the serialized documents,
the delivery and send order, the validation log), and the digests were taken
from the simulator before its event loop was last rewritten. A digest that
moves means behaviour moved; update one only for a change that is meant to
alter runs, and say so.

The verdict digests do the same for the checkers: every verdict document
(witness, certificate and reason) of a fixed set of histories and mutants,
taken before the checkers' search and entry pass were last rewritten.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from seqsnap import sim
from seqsnap.checker import (CheckRefusal, check_lin_brute, check_sc_brute,
                             check_sc_fast, verdict_document)
from seqsnap.histories import record_from_json
from seqsnap.rounds import RoundConfig, check_composition, run_rounds
from seqsnap.scenarios import replay_scripted
from seqsnap.sim import CrashSpec, SimConfig, SyncDelay, run_simulation
from seqsnap.workloads import abd_workload, random_workload
from sweep import mutate_history, run_digest, sweep_config

OPS = 40


def forced_recipients_config():
    crashes = [CrashSpec(1, on_send=2, recipients=(3, 0, 3))]
    return SimConfig(n=5, seed=3, crashes=crashes,
                     workload=random_workload(5, OPS, 3))


def sender_among_forced_recipients_configs():
    """A crashing sender whose forced recipients include itself: its own
    copy of the cut-off broadcast is dropped with it."""
    return {
        "snapshot": SimConfig(n=5, seed=3, workload=random_workload(5, OPS, 3),
                              crashes=[CrashSpec(1, on_send=2,
                                                 recipients=(1, 3))]),
        "abd": SimConfig(n=5, seed=4, protocol="abd",
                         workload=abd_workload(5, OPS, 4),
                         crashes=[CrashSpec(2, on_send=3, recipients=(2, 0))]),
    }


def sync_config():
    return SimConfig(n=4, seed=11, delay=SyncDelay(5.0, 2.0),
                     workload=random_workload(4, OPS, 11))


def abd_config(n, ops, seed):
    return SimConfig(n=n, seed=seed, protocol="abd",
                     workload=abd_workload(n, ops, seed))


# Seeds picked so that the sweep cases hold crashes of every kind: at a time
# instant, mid-broadcast with a drawn recipient subset, and several per run.
CASES = {
    **{f"sweep-n{n}-s{seed}": (lambda n=n, seed=seed: run_simulation(
        sweep_config(n, seed)))
       for n, seed in ((2, 0), (2, 1), (3, 0), (3, 9), (5, 9), (5, 11),
                       (7, 0), (7, 8))},
    "forced-recipients": lambda: run_simulation(forced_recipients_config()),
    **{f"forced-self-{name}": (lambda name=name: run_simulation(
        sender_among_forced_recipients_configs()[name]))
       for name in ("snapshot", "abd")},
    "sync-delay": lambda: run_simulation(sync_config()),
    "fig4a": lambda: replay_scripted("fig4a"),
    "abd-n5": lambda: run_simulation(abd_config(5, 60, 4)),
    "abd-n15": lambda: run_simulation(abd_config(15, 90, 5)),
    "rounds-n5": lambda: run_rounds(RoundConfig(
        n=5, rounds=3, seed=2, crashes=[CrashSpec(3, on_send=2)])),
}

GOLDEN = {
    "abd-n15":
        "90e59103a51f1f696b62d62f6d80d84deef00dd4a366c96d7a32bdc31fccbeb7",
    "abd-n5":
        "70f304e4561efd77811688e41f9911727d7bd92f0b498adf6ed25cf3812ffd93",
    "capped-n5-s9":
        "f513723f62accec4532984ad2ca2416ddd0bbfbc52ca57ae482ac06b29b9692d",
    "fig4a":
        "d5aa2f99abcc9caa97f799087059d5369827036e40abcfb9e389582660daa54c",
    "forced-recipients":
        "0fc3fb43d7a692285fd630defddca76fcbe8f38f88c7175b79bee96e3011622f",
    "forced-self-abd":
        "d0ec4c56e924da4933499cae4817fe43ef46e05e53a39cf3e8d6a429b650bae0",
    "forced-self-snapshot":
        "5e1cc831e1409deaefc9c5121906faaca1f6ee94ad0a2a86601309388493fc42",
    "rounds-n5":
        "dac9ffa9bd684de3316e381009f82453d9434b7787d2f11ceb30e326ead027d2",
    "sweep-n2-s0":
        "13188d01d3afcffa62209200aa51132ff347fa9c711ed6abc438220ce4c66c36",
    "sweep-n2-s1":
        "c46afe0164e8e25fb2de1d0ba0c6138484306a331e6e8eeefa20bc57c0f14539",
    "sweep-n3-s0":
        "11892311170221e0c34b61a22100369837c40a7d59c83da5f01df55b2d3b91f4",
    "sweep-n3-s9":
        "4ade09bee707aeda326a6f5bac86e94154b694d7abd88ba01a9f5aa34ee486cb",
    "sweep-n5-s11":
        "1a242981da6ac3839f4084e2a16f55bd7e64f21f494ef25d8eae1abd6b1ac19f",
    "sweep-n5-s9":
        "48b04596b8502219a684282b2f3a3ae2c9c67a57ae523cbc4b5746026455413a",
    "sweep-n7-s0":
        "3ff5f84806596bc25fce4847fe8fd27c16f9cefbac1f1334e50efdababe6837f",
    "sweep-n7-s8":
        "f3b4afdd3f396f1f9a0ddde7ff6b10a7fcb7547e1e1356e6152504a3125d5344",
    "sync-delay":
        "e8204a69822cca19a0f9b31bea90bd039f2adba2666d4a068425aea1279716f9",
}


def test_sweep_cases_cover_every_crash_kind():
    crashes = [c for n, seed in ((3, 9), (5, 11), (7, 8))
               for c in sweep_config(n, seed).crashes]
    assert any(c.at_time is not None for c in crashes)
    assert any(c.on_send is not None and c.recipients is None for c in crashes)
    assert len(sweep_config(7, 8).crashes) == 3


def test_forced_self_cases_drop_the_crashing_senders_own_copy():
    for config in sender_among_forced_recipients_configs().values():
        run = run_simulation(config)
        (crash,) = config.crashes
        (cut,) = [msg for msg in run.message_log
                  if msg.sender == crash.proc and crash.proc in msg.recipients
                  and len(msg.recipients) == 2]
        assert run.crashed == {crash.proc}
        assert [to for _time, to, msg in run.delivery_log if msg is cut] == [
            r for r in cut.recipients if r != crash.proc]


def assert_history_reads_back(run):
    """The run's history document reads back as the run's records."""
    document = sim.history_document(run.history)
    assert list(map(record_from_json, document.splitlines())) == run.history


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(name):
    run = CASES[name]()
    assert run_digest(run) == GOLDEN[name]
    assert_history_reads_back(run)


def test_run_stopped_at_the_event_cap_matches_its_golden_digest(monkeypatch):
    monkeypatch.setattr(sim, "EVENT_CAP", 200)
    run = run_simulation(sweep_config(5, 9))
    assert not run.metrics.quiescent
    assert run_digest(run) == GOLDEN["capped-n5-s9"]
    assert_history_reads_back(run)


def golden_histories():
    """(history, n) pairs: 60 snapshot runs of 8 ops with three mutants
    each, 20 ABD runs of 8 ops, and 10 composed runs (some crash-cut, some
    above the oracles' size bound) with three mutants each."""
    rng = random.Random("golden-verdicts")
    cases = []

    def with_mutants(history, n):
        cases.append((history, n))
        mutants = (mutate_history(history, n, rng) for _ in range(3))
        cases.extend((m, n) for m in mutants if m is not None)

    for seed in range(60):
        n = (2, 3)[seed % 2]
        with_mutants(run_simulation(SimConfig(
            n=n, seed=seed,
            workload=random_workload(n, 8, seed, snapshot_ratio=0.5))).history, n)
    for seed in range(20):
        cases.append((run_simulation(abd_config(3, 8, seed)).history, 3))
    for seed in range(10):
        n = (2, 3)[seed % 2]
        crashes = [CrashSpec(seed % n, on_send=1 + seed % 5)] if n > 2 else []
        with_mutants(run_rounds(RoundConfig(n=n, rounds=1 + seed % 3, seed=seed,
                                            crashes=crashes)).history, n)
    return cases


VERDICT_GOLDEN = {
    "check_composition":
        "594cf7f96592686807fec537bf20efca13bb9eb20280c04bdf1d92bc3d624b81",
    "check_lin_brute":
        "098cacf25e306e437e91a704871afd9d291d1eba9f3bcc135a8ade3a1402e847",
    "check_sc_brute":
        "2cf2ca806391abea3084f3b4dcd0e4fc78ba08cb54f4ad2c4feb1e510886f15a",
    "check_sc_fast":
        "6f8a265bbbe200ac3a8cb2f3d22bcd6a869c5140bc14c02eb2ef0cd6addf3cf9",
}


@pytest.fixture(scope="module")
def verdict_cases():
    return golden_histories()


@pytest.mark.parametrize("check", [check_sc_fast, check_sc_brute,
                                   check_lin_brute, check_composition],
                         ids=lambda check: check.__name__)
def test_verdicts_match_their_golden_digest(verdict_cases, check):
    h = hashlib.sha256()
    for history, n in verdict_cases:
        try:
            h.update(verdict_document(check(history, n)).encode())
        except CheckRefusal:
            h.update(b"refused\n")
    assert h.hexdigest() == VERDICT_GOLDEN[check.__name__]
