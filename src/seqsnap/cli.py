"""Command-line front end.

Subcommands: simulate (seeded run, writes history/metrics/stamp-trace files),
replay (named scripted scenario), check (history file against a consistency
mode), bench (per-operation cost table), rounds (round-structured run plus
composition check). Exit codes: 0 success/accepted, 1 rejected, 2 usage
error, refusal or malformed input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, workloads
from .checker import (CheckRefusal, check_lin_brute, check_sc_brute,
                      check_sc_fast, verdict_document)
from .histories import TraceFormatError, infer_process_count, load_history
from .rounds import RoundConfig, check_composition, run_rounds
from .scenarios import SCENARIOS, replay_scripted
from .sim import (AsyncDelay, ConfigError, SimConfig, SyncDelay, _Sim,
                  history_document, write_run_files)

OK, REJECTED, USAGE = 0, 1, 2

# each --workload name: its generator and the protocol that runs it
WORKLOADS = {
    "random": (workloads.random_workload, "snapshot"),
    "write-heavy": (workloads.write_heavy_workload, "snapshot"),
    "abd": (workloads.abd_workload, "abd"),
}


def _parse_delay(text: str):
    if text == "async":
        return AsyncDelay()
    if text.startswith("async:"):
        low, high = (float(x) for x in text[len("async:"):].split(","))
        return AsyncDelay(low, high)
    if text.startswith("sync:"):
        latency, uncertainty = (float(x) for x in text[len("sync:"):].split(","))
        return SyncDelay(latency, uncertainty)
    raise argparse.ArgumentTypeError(
        f"delay must be 'async', 'async:<lo>,<hi>' or 'sync:<d>,<u>', got {text!r}")


def _parse_n_list(text: str) -> list[int]:
    """'3,5,7' -> [3, 5, 7]: every process count is read and checked before
    any table is printed."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a list of process counts of at least 1, "
            f"like 3,5,7")
    return counts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsnap",
        description="snapshot-memory protocol simulator and history checkers")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded simulation")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--ops", type=int, default=20)
    sim.add_argument("--crashes", type=int, default=0)
    sim.add_argument("--delay", type=_parse_delay, default=AsyncDelay())
    sim.add_argument("--workload", default="random", choices=WORKLOADS)
    sim.add_argument("--out", default="out")

    rep = sub.add_parser("replay", help="replay a named scripted scenario")
    rep.add_argument("--scenario", required=True, choices=SCENARIOS)
    rep.add_argument("--out", default="out")

    chk = sub.add_parser("check", help="check a history trace file")
    chk.add_argument("history", help="history file (one JSON record per line)")
    chk.add_argument("--mode", default="fast", choices=("fast", "brute", "lin"))
    chk.add_argument("--out", default=None,
                     help="directory for verdict.json (default: stdout only)")

    ben = sub.add_parser("bench", help="per-operation cost table")
    ben.add_argument("--n", type=_parse_n_list, default="5",
                     help="process count, or comma list like 3,5,7")

    rnd = sub.add_parser("rounds", help="round-structured run plus composition check")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--rounds", type=int, required=True)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--crashes", type=int, default=0)
    rnd.add_argument("--out", default="out")
    return parser


def _out_dir(text: str) -> Path:
    """The --out directory, made before the run: a path that cannot be one
    is refused before any event runs."""
    out = Path(text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    generate, protocol = WORKLOADS[args.workload]
    items = generate(args.n, args.ops, args.seed)
    crashes = workloads.random_crashes(args.n, args.crashes, args.seed)
    items = workloads.trim_for_crashes(items, crashes)
    config = SimConfig(n=args.n, seed=args.seed, protocol=protocol,
                       delay=args.delay, workload=items, crashes=crashes)
    # building the run validates the config and each op's record, so an
    # invalid config leaves no --out behind and no record is built twice
    simulation = _Sim(config)
    out = _out_dir(args.out)
    for path in write_run_files(simulation.run(), out):
        print(path)
    return OK


def _cmd_replay(args) -> int:
    out = _out_dir(args.out)
    for path in write_run_files(replay_scripted(args.scenario), out):
        print(path)
    return OK


def _cmd_check(args) -> int:
    out = _out_dir(args.out) if args.out else None
    history = load_history(args.history)
    n = infer_process_count(history)
    composed = len({rec.object_id for rec in history}) > 1
    if args.mode == "fast":
        verdict = (check_composition(history, n) if composed
                   else check_sc_fast(history, n))
    elif args.mode == "brute":
        verdict = check_sc_brute(history, n)
    else:
        verdict = check_lin_brute(history, n)
    doc = verdict_document(verdict)
    sys.stdout.write(doc)
    if out is not None:
        (out / "verdict.json").write_text(doc)
    return OK if verdict.accepted else REJECTED


def _cmd_bench(args) -> int:
    for n in args.n:
        rows = bench.bench_rows(n)
        sys.stdout.write(bench.format_table(n, rows))
        sys.stdout.write("\n")
    return OK


def _cmd_rounds(args) -> int:
    crashes = workloads.random_crashes(args.n, args.crashes, args.seed)
    config = RoundConfig(n=args.n, rounds=args.rounds, seed=args.seed,
                         crashes=crashes)
    out = _out_dir(args.out)
    run = run_rounds(config)
    (out / "history.jsonl").write_text(history_document(run.history))
    verdict = check_composition(run.history, args.n)
    doc = verdict_document(verdict)
    sys.stdout.write(doc)
    (out / "verdict.json").write_text(doc)
    return OK if verdict.accepted else REJECTED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    handlers = {
        "simulate": _cmd_simulate,
        "replay": _cmd_replay,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "rounds": _cmd_rounds,
    }
    # An OSError (a path that is missing, a directory given as a file, a file
    # where the output directory should be) is bad input, not a rejection.
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckRefusal, TraceFormatError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
