"""Golden outputs: fixed runs whose bytes are pinned, not merely repeatable.

Determinism tests elsewhere compare two runs of the same code, so a change
that reorders a random draw, a heap tie or a log entry would pass them. Each
case here hashes everything a run leaves behind (the serialized documents,
the delivery and send order, the validation log), and the digests were taken
from the simulator before its event loop was last rewritten. A digest that
moves means behaviour moved; update one only for a change that is meant to
alter runs, and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from seqsnap import sim
from seqsnap.rounds import RoundConfig, run_rounds
from seqsnap.scenarios import replay_scripted
from seqsnap.sim import (CrashSpec, SimConfig, SyncDelay, run_simulation,
                         serialize_run)
from seqsnap.workloads import abd_workload, random_workload
from sweep import sweep_config

OPS = 40


def forced_recipients_config():
    crashes = [CrashSpec(1, on_send=2, recipients=(3, 0, 3))]
    return SimConfig(n=5, seed=3, crashes=crashes,
                     workload=random_workload(5, OPS, 3))


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


def run_digest(run) -> str:
    h = hashlib.sha256()
    docs = serialize_run(run)
    for name in ("history", "metrics", "vctrace"):
        h.update(docs[name].encode())
    h.update(repr((len(run.delivery_log), len(run.message_log))).encode())
    h.update(repr([(time, sender, to)
                   for time, sender, to, _payload in run.delivery_log]).encode())
    h.update(repr([(msg.time, msg.sender, msg.chain, msg.recipients)
                   for msg in run.message_log]).encode())
    h.update(repr(run.validation_log).encode())
    h.update(repr(sorted(run.crashed)).encode())
    return h.hexdigest()


def test_sweep_cases_cover_every_crash_kind():
    crashes = [c for n, seed in ((3, 9), (5, 11), (7, 8))
               for c in sweep_config(n, seed).crashes]
    assert any(c.at_time is not None for c in crashes)
    assert any(c.on_send is not None and c.recipients is None for c in crashes)
    assert len(sweep_config(7, 8).crashes) == 3


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_digest(name):
    assert run_digest(CASES[name]()) == GOLDEN[name]


def test_run_stopped_at_the_event_cap_matches_its_golden_digest(monkeypatch):
    monkeypatch.setattr(sim, "EVENT_CAP", 200)
    run = run_simulation(sweep_config(5, 9))
    assert not run.metrics.quiescent
    assert run_digest(run) == GOLDEN["capped-n5-s9"]
