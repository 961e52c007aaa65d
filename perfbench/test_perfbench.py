"""The benchmark's own tests, at tiny batch sizes. They assert outputs and
counts only, never timings.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import items
import run
import tracer as tracing

sys.path.insert(0, str(run.SRC))

TINY = {"sweep": 20, "wide": 1, "oracle": 20, "quorum": 2}


def attributes(mods):
    return {(m, a): getattr(getattr(mods, m), a)
            for targets in tracing.PATCHES.values() for m, a in targets}


def measured(workload, seed=3, traced=False):
    """(attributes before the run, modules, tracer, measurement)"""
    _, mods, batch = run.set_up(workload, seed, TINY[workload])
    before = attributes(mods)
    tracer = tracing.Tracer(mods) if traced else None
    return before, mods, tracer, run.measure(mods, batch, 0, tracer)


@pytest.mark.parametrize("workload", items.WORKLOAD_NAMES)
def test_tiny_batch_passes_every_check_and_repeats_its_digest(workload):
    first = measured(workload)[-1]
    second = measured(workload)[-1]
    assert first.attempted == 2 * TINY[workload]
    assert first.failed == 0 and second.failed == 0
    assert first.digest == second.digest


def test_seed_changes_the_inputs():
    digests = {measured("quorum", seed=seed)[-1].digest for seed in (3, 4)}
    assert len(digests) == 2


@pytest.mark.parametrize("workload", ["sweep", "oracle"])
def test_tracing_changes_no_output_and_restores_every_attribute(workload):
    before, mods, tracer, result = measured(workload, traced=True)
    assert attributes(mods) == before and tracer.originals == {}
    # traced passes reproduced the untraced first pass item by item
    assert result.failed == 0 and len(result.layer_passes) == 1
    assert result.digest == measured(workload)[-1].digest
    rows, exact = run.per_layer(result, 0.0)
    assert exact
    assert [name for name, _, _ in rows] == [n for n, _ in tracing.LAYER_METRICS]
    figures = dict((name, value) for name, value, _ in rows)
    assert figures["sim.run.calls"] == TINY[workload]
    assert figures["checker.refusals"] == 0
    assert 0.5 < figures["trace.coverage"] <= 1.0


def test_every_item_time_is_rescaled_by_the_references_around_it():
    result = measured("sweep")[-1]
    assert len(result.records) == 2 and all(r > 0 for r in result.refs)
    for traced, times, scaled in result.records:
        assert not traced and len(times) == len(scaled) == TINY["sweep"]
        ratios = [s / t for s, t in zip(scaled, times)]
        lowest = hostspeed.REFERENCE_S / max(result.refs)
        highest = hostspeed.REFERENCE_S / min(result.refs)
        assert all(lowest * 0.999 <= r <= highest * 1.001 for r in ratios)
    assert hostspeed.reference_loop() == hostspeed.CHECKSUM


def test_mutant_changes_exactly_one_snapshot_component():
    _, mods, batch = run.set_up("oracle", 3, 4)
    history = mods.sim.run_simulation(batch[1].config).history
    rng = random.Random(1)
    for _ in range(20):
        mutant = items.mutate(history, batch[1].n, rng)
        changed = [(a.result, b.result) for a, b in zip(history, mutant) if a != b]
        assert len(changed) == 1
        before, after = changed[0]
        assert sum(x != y for x, y in zip(before, after)) == 1


def test_cli_checks_the_recorded_digest_and_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "quorum",
         "--seed", str(run.load_baseline()["default_seed"]), "--seconds", "0.01"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.RESULT_METRICS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_package_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "items.py", "tracer.py", "hostspeed.py", "baseline.json"):
        shutil.copy(run.HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
