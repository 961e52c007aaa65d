"""The verdicts tools/bench_pairs.py writes beside each case's medians, and
its clean-up when it is stopped."""

from __future__ import annotations

import argparse
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}


def summary_of(entry, parent, change):
    runs = [{"workload": "oracle", "seed": 0, "pair": pair, "side": side,
             "result": {"metrics": {entry["name"]: {"value": value}}}}
            for pair, (p, c) in enumerate(zip(parent, change))
            for side, value in (("parent", p), ("change", c))]
    [row] = bench_pairs.summarize(runs, [("oracle", 0)], [entry])
    return row


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


@pytest.mark.parametrize("change, claim, regressed", [
    ([v + 10 for v in PARENT], True, False),
    # nine wins in ten still hold the claim
    ([v + 10 for v in PARENT[:9]] + [PARENT[9] - 1], True, False),
    # eight wins do not
    ([v + 10 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]], False, False),
    # every pair won, but by less than the parent's interquartile range
    ([v + 0.5 for v in PARENT], False, False),
    ([v * 0.8 for v in PARENT], False, False),
    ([v * 0.7 for v in PARENT], False, True),
])
def test_higher_is_better(change, claim, regressed):
    row = summary_of(HIGHER, PARENT, change)
    assert (row["claim_holds"], row["regressed"]) == (claim, regressed)


def test_summary_line_reads_without_the_json():
    row = summary_of(HIGHER, PARENT, [v * 0.7 for v in PARENT])
    assert bench_pairs.summary_line(row) == (
        "oracle seed 0 items_per_s (higher is better): parent 100, "
        "change 70, change won 0/10, claim_holds False, regressed True")


@pytest.mark.parametrize("change, claim, regressed", [
    ([v - 10 for v in PARENT], True, False),
    ([v * 1.04 for v in PARENT], False, False),
    ([v * 1.06 for v in PARENT], False, True),
])
def test_lower_is_better(change, claim, regressed):
    row = summary_of(LOWER, PARENT, change)
    assert (row["claim_holds"], row["regressed"]) == (claim, regressed)


def test_cases_parse_in_order():
    assert bench_pairs.parse_cases("sweep:0,oracle:9") == [("sweep", 0),
                                                           ("oracle", 9)]


@pytest.mark.parametrize("text", ["sweep", "sweep:", ":0", "sweep:-1",
                                  "sweep:x", "sweep:0,oracle:1,sweep:0"])
def test_malformed_or_repeated_case_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_cases(text)


def test_progress_line_names_every_compared_metric():
    run = {"workload": "sweep", "seed": 0, "pair": 3, "side": "change",
           "result": {"metrics": {"items_per_s": {"value": 281.25},
                                  "peak_rss_mb": {"value": 27.5}}}}
    assert bench_pairs.progress_line(run, [HIGHER | {"unit": "1/s"},
                                           LOWER | {"unit": "MB"}]) == (
        "sweep seed 0 pair 3 change: items_per_s 281.25 1/s, "
        "peak_rss_mb 27.5 MB")


def benchmarks_under(directory: Path) -> list:
    """Process ids of the perfbench runs working in `directory` (Linux)."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if (entry.name.isdigit()
                    and b"perfbench/run.py" in (entry / "cmdline").read_bytes()
                    and os.readlink(entry / "cwd").startswith(
                        f"{directory.resolve()}{os.sep}")):
                found.append(int(entry.name))
        except OSError:     # the process ended, or is not ours to read
            pass
    return found


@pytest.mark.skipif(not Path("/proc/self/cwd").exists()
                    or not (_PATH.parent.parent / ".git").exists(),
                    reason="needs Linux /proc and a git checkout")
def test_sigterm_removes_both_checkouts(tmp_path):
    child = subprocess.Popen(
        [sys.executable, str(_PATH), "--parent", "HEAD",
         "--out", str(tmp_path / "BENCH.json"), "--cases", "sweep:0"],
        env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not benchmarks_under(tmp_path):
            assert child.poll() is None and time.monotonic() < deadline, \
                "bench_pairs started no benchmark"
            time.sleep(0.05)
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=60)
        left = benchmarks_under(tmp_path)
    finally:
        # whatever fails, leave nothing of this test running
        if child.poll() is None:
            child.kill()
            child.wait()
        for pid in benchmarks_under(tmp_path):
            os.kill(pid, signal.SIGKILL)
    assert child.returncode == 143, err
    assert list(tmp_path.iterdir()) == []
    assert left == []
