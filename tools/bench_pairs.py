"""Before/after benchmark pairs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_validation.json
    python3 tools/bench_pairs.py --parent HEAD --out BENCH_x.json \
        --cases quorum:0,quorum:1

Exports the parent revision with ``git archive`` and the working tree's
tracked and unignored files into one temporary directory each, then runs
``perfbench/run.py --trace 0`` of each checkout in ten alternating pairs per
case (``--cases workload:seed,...``, by default the five of ``CASES``), each
run as long as ``BENCHMARK.json`` sets (the side that runs first alternates
too, so that a drift of the host's speed falls on both sides alike), and
prints each run's end-to-end metrics to standard error as it ends. Every
result line is written to ``--out``, together with the Python version, the
core count, both commits and a digest of each side's ``src/`` and
``perfbench/``, plus, per case and per end-to-end metric of
``BENCHMARK.json``, both medians, how many pairs the working tree won in
that metric's ``better`` direction, whether a claimed gain holds
(``claim_holds``) and whether the metric fell beyond its ``bound``
(``regressed``). After writing it, prints one line per case and metric of
that summary to standard error. A run that fails or is not correct ends
the job: the runs before it are written to ``--out`` with ``"complete":
false``, the failure and no summary, and the tool exits 1. Stopped by
SIGTERM, it kills its running benchmark, removes both checkouts and exits
143 without writing ``--out``. Stdlib only; run from the root of a git
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the default (workload, seed) cases, in run order
CASES = [("sweep", 0), ("oracle", 0), ("quorum", 0), ("sweep", 1), ("wide", 0)]
PAIRS = 10
# a gain is claimed only when the change wins nine pairs in ten
CLAIM_WINS = 9


class RunFailed(Exception):
    """A perfbench run failed or was not correct."""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def export_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def source_digest(checkout: Path) -> str:
    """SHA-256 over the path and bytes of every file the benchmark runs."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((checkout / top).rglob("*.py")):
            digest.update(str(path.relative_to(checkout)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"perfbench failed in {checkout} ({workload}, seed "
                        f"{seed}, exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(next(json.loads(line) for line in lines
                       if line.startswith('{"environment"')))
    return result


def parse_cases(text: str) -> list:
    """'quorum:0,sweep:1' -> [("quorum", 0), ("sweep", 1)]. A case given
    twice is refused: its runs would be summarized as one case of twice
    the pairs."""
    cases = []
    for part in text.split(","):
        workload, sep, seed = part.strip().partition(":")
        if not sep or not workload or not seed.isdigit():
            raise argparse.ArgumentTypeError(
                f"case {part!r} is not workload:seed")
        if (workload, int(seed)) in cases:
            raise argparse.ArgumentTypeError(f"case {part!r} is given twice")
        cases.append((workload, int(seed)))
    return cases


def summarize(runs: list, cases: list, compared: list) -> list:
    """Per case and compared metric (the end-to-end entries of
    BENCHMARK.json): each side's median, the parent's quartiles, the number
    of pairs the working tree won in the metric's better direction, and two
    verdicts. ``claim_holds``: the working tree won at least nine pairs in
    ten and its median is better than the parent's by more than the
    parent's interquartile range. ``regressed``: its median is worse than
    the parent's by more than the metric's relative ``bound``."""
    summary = []
    for workload, seed in cases:
        case = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        for entry in compared:
            metric, lower = entry["name"], entry["better"] == "lower"
            value = {side: [r["result"]["metrics"][metric]["value"]
                            for r in case if r["side"] == side]
                     for side in ("parent", "change")}
            parent_q = statistics.quantiles(value["parent"], n=4)
            parent_median = statistics.median(value["parent"])
            change_median = statistics.median(value["change"])
            # positive when the working tree is better
            gain = (parent_median - change_median if lower
                    else change_median - parent_median)
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(value["parent"], value["change"]))
            pairs = len(value["parent"])
            summary.append({
                "workload": workload, "seed": seed, "metric": metric,
                "better": entry["better"],
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_quartiles": [parent_q[0], parent_q[2]],
                "change_wins": wins,
                "pairs": pairs,
                "claim_holds": (wins * PAIRS >= CLAIM_WINS * pairs
                                and gain > parent_q[2] - parent_q[0]),
                "regressed": -gain > entry["bound"] * abs(parent_median),
            })
    return summary


def summary_line(row: dict) -> str:
    """One summary row as a line: the case, the metric, both medians, the
    working tree's wins and the two verdicts."""
    return (f"{row['workload']} seed {row['seed']} {row['metric']} "
            f"({row['better']} is better): parent {row['parent_median']:.6g}, "
            f"change {row['change_median']:.6g}, change won "
            f"{row['change_wins']}/{row['pairs']}, claim_holds "
            f"{row['claim_holds']}, regressed {row['regressed']}")


def progress_line(run: dict, compared: list) -> str:
    """One run as a line: the case, the pair, the side and every compared
    metric (the end-to-end entries of BENCHMARK.json) with its unit."""
    metrics = ", ".join(
        f"{entry['name']} {run['result']['metrics'][entry['name']]['value']:.6g}"
        f" {entry['unit']}" for entry in compared)
    return (f"{run['workload']} seed {run['seed']} pair {run['pair']} "
            f"{run['side']}: {metrics}")


def main() -> int:
    # SIGTERM's default action ends the process without unwinding, which
    # would leave both checkouts behind; as SystemExit it unwinds the
    # running perfbench subprocess (killed) and the temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--cases", type=parse_cases, default=CASES,
                        help="comma-separated workload:seed pairs (default: "
                             + ",".join(f"{w}:{s}" for w, s in CASES) + ")")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_commit = git("rev-parse", args.parent).decode().strip()
    head = git("rev-parse", "HEAD").decode().strip()
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_revision(parent_commit, sides["parent"])
        export_working_tree(sides["change"])
        runs, failure = [], None
        try:
            for workload, seed in args.cases:
                for pair in range(PAIRS):
                    order = (("parent", "change") if pair % 2 == 0
                             else ("change", "parent"))
                    for side in order:
                        result = run_once(sides[side], workload, seed, seconds)
                        if not result["correct"]:
                            raise RunFailed(f"{side} is not correct on "
                                            f"{workload}, seed {seed}: "
                                            f"{result}")
                        runs.append({"workload": workload, "seed": seed,
                                     "pair": pair, "side": side,
                                     "result": result})
                        print(progress_line(runs[-1], benchmark["end_to_end"]),
                              file=sys.stderr, flush=True)
        except RunFailed as exc:
            failure = str(exc)
        digests = {side: source_digest(path) for side, path in sides.items()}
    document = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "parent": {"commit": parent_commit, "sources_sha256": digests["parent"]},
        "change": {"commit": "working tree on " + head,
                   "sources_sha256": digests["change"]},
        "seconds_per_run": seconds,
        "pairs": PAIRS,
        "complete": failure is None,
    }
    if failure is None:
        document["summary"] = summarize(runs, args.cases, benchmark["end_to_end"])
    else:
        document["failure"] = failure
    document["runs"] = runs
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    if failure is not None:
        raise SystemExit(failure)
    for row in document["summary"]:
        print(summary_line(row), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
