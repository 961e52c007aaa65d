"""The verdicts tools/bench_pairs.py writes beside each case's medians."""

from __future__ import annotations

import importlib.util
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
