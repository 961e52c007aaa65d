"""seqsnap benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread, one caller: the batch of items generated
from the seed is passed over again and again, each item starting when the
previous one returned, until another pass would end after ``--seconds``.

Host time is what the simulator costs on this machine; simulated time is
what the modelled protocol costs and repeats exactly for a seed. The host's
speed drifts for longer than a run, so host times are rescaled to a nominal
host by a reference loop timed around every pass (``hostspeed.py``), and
host figures are medians over the run.

With ``--trace 0`` every end-to-end metric is printed; with ``--trace 1``
passes alternate between untraced and traced, and the per-layer metrics of
the traced passes are printed (``tracer.py``), with the spans written to
``perfbench/out/``. Every item's outputs are checked, every pass must
reproduce the first pass's outputs, and at the default seed the workload
digest must equal the one recorded in ``baseline.json``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when everything checked out.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
import items
import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline.json"
SEQSNAP_MODULES = ("abd", "checker", "histories", "protocol", "rounds",
                   "seqspec", "sim", "workloads")
# end-to-end metrics of the result line: defined on every workload, never 0
RESULT_METRICS = ("setup_s", "items_per_s", "deliveries_per_s", "peak_rss_mb",
                  "sim_op_latency.p99", "messages_per_op")
# host seconds of items between two timings of the reference loop
SEGMENT_S = 0.05
# reference loops timed after each set-up; their median rescales it
SETUP_REPEATS = 5


def import_seqsnap():
    """Import seqsnap afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "seqsnap" or m.startswith("seqsnap.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module(f"seqsnap.{name}")
                              for name in SEQSNAP_MODULES})
    if not Path(mods.sim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"seqsnap was imported from {mods.sim.__file__}, "
                          f"not from {SRC}")
    return mods


def set_up(workload, seed, size=None):
    """Import the package and generate every config, workload list and
    crash schedule of the batch. Returns (seconds, modules, batch), the
    seconds rescaled to the nominal host by a reference time taken right
    after."""
    start = perf_counter()
    mods = import_seqsnap()
    batch = items.build_batch(mods, workload, seed, size)
    seconds = perf_counter() - start
    ref = hostspeed.reference_time(SETUP_REPEATS)
    return hostspeed.normalized(seconds, ref), mods, batch


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(mods, batch, seconds, tracer=None, between_passes=None):
    """Pass over the batch until another pass would end after `seconds`,
    calling `between_passes` after each pass.

    With a tracer, passes alternate untraced and traced. A reference loop
    (hostspeed.py) is timed after every SEGMENT_S of items, and each item's
    time is also kept rescaled by the mean of the reference times just
    before and just after its segment.
    Returns each pass's item times, rescaled and not, and whether it was
    traced; the reference times; the first pass's simulated totals; the
    traced passes' per-layer figures; the workload digest and the failure
    counts.
    """
    records = []
    refs = []
    totals = items.SimTotals()
    reference = None
    layer_passes = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        pass_start = perf_counter()
        times = []
        scaled = []
        segment_s = 0.0
        fingerprints = []
        try:
            for i, item in enumerate(batch):
                if traced:
                    tracer.item = i
                start = perf_counter()
                outcome = items.run_item(mods, item)
                elapsed = perf_counter() - start
                times.append(elapsed)
                fp = items.fingerprint(outcome)
                attempted += 1
                if not outcome.ok or (reference is not None and fp != reference[i]):
                    failed += 1
                if reference is None:
                    totals.add(mods, item, outcome)
                fingerprints.append(fp)
                segment_s += elapsed
                if segment_s >= SEGMENT_S or i == len(batch) - 1:
                    refs.append(hostspeed.reference_time())
                    ref = statistics.mean(refs[-2:])
                    scaled.extend(hostspeed.normalized(t, ref)
                                  for t in times[len(scaled):])
                    segment_s = 0.0
        finally:
            if traced:
                tracer.uninstall()
        pass_seconds = perf_counter() - pass_start
        records.append((traced, times, scaled))
        if traced:
            figures = tracer.pass_metrics()
            figures["item_s"] = sum(times)
            layer_passes.append(figures)
            tracer.reset()
        if reference is None:
            reference = fingerprints
        if between_passes is not None:
            between_passes()
        if len(records) >= 2 and perf_counter() + pass_seconds > deadline:
            break
    return SimpleNamespace(records=records, refs=refs, totals=totals,
                           layer_passes=layer_passes,
                           digest=items.workload_digest(reference),
                           attempted=attempted, failed=failed,
                           passes=len(records))


def pass_times(run, traced=False, rescale=True):
    """Item times of the untraced (or traced) passes, one list per pass,
    rescaled to the nominal host or as measured."""
    return [scaled if rescale else times
            for was_traced, times, scaled in run.records if was_traced == traced]


def end_to_end(batch, run, setups):
    """Every end-to-end metric: (name, value or None, unit, what it measures).

    Host times are rescaled to the nominal host (hostspeed.py) by the
    reference times taken around them. setup_s is the median over
    set-ups, each a fresh import of seqsnap plus generation of the batch, one
    at the start and one after every pass, so that they sample the whole run
    (interpreter start-up is not included). Throughput divides by the median busy time of
    a pass, item latency takes each item's median; item_ms needs 100 items in
    a pass. The unscaled throughput and the host's speed are printed for
    reference. The simulated figures pool the first pass: op latency is
    t_ret - t_inv of completed operations, validation latency runs from a
    writer's original broadcast to each correct process validating it
    (single-object snapshot runs only), and messages_per_op divides messages
    sent by operations invoked.
    """
    passes = pass_times(run)
    busy = statistics.median(sum(p) for p in passes)
    host_busy = statistics.median(sum(p) for p in pass_times(run, rescale=False))
    item_ms = [statistics.median(p[i] for p in passes) * 1000
               for i in range(len(batch))]
    totals = run.totals
    many = len(batch) >= 100
    item_note = f"{len(batch)} items" + ("" if many else ", needs 100")
    val = totals.validation_latency
    return [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups"),
        ("items_per_s", len(batch) / busy, "1/s", f"median of {len(passes)} passes"),
        ("deliveries_per_s", totals.deliveries / busy, "1/s",
         f"{totals.deliveries} deliveries per pass"),
        ("item_ms.p50", statistics.median(item_ms) if many else None, "ms",
         item_note),
        ("item_ms.p90", percentile(item_ms, 0.9) if many else None, "ms",
         item_note),
        ("items_per_s.unscaled", len(batch) / host_busy, "1/s",
         "host seconds as measured, not rescaled"),
        ("host_speed", hostspeed.REFERENCE_S / statistics.median(run.refs), "ratio",
         f"nominal / measured reference time, median of {len(run.refs)}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MB", "whole process"),
        ("fail_ratio", run.failed / run.attempted, "ratio",
         f"{run.failed} of {run.attempted} items"),
        ("sim_op_latency.p50", percentile(totals.op_latency, 0.5), "sim_t",
         f"simulated, {len(totals.op_latency)} ops"),
        ("sim_op_latency.p99", percentile(totals.op_latency, 0.99), "sim_t",
         f"simulated, {len(totals.op_latency)} ops"),
        ("sim_validation_latency.p50", percentile(val, 0.5) if val else None,
         "sim_t", f"simulated, {len(val)} validations"),
        ("sim_validation_latency.p99", percentile(val, 0.99) if val else None,
         "sim_t", f"simulated, {len(val)} validations"),
        ("messages_per_op", totals.messages / totals.ops, "count",
         f"{totals.messages} messages, {totals.ops} ops"),
    ]


def per_layer(run, generate_s):
    """Every per-layer metric: medians over the traced passes."""
    passes = run.layer_passes
    figures = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    figures["workloads.generate.s"] += generate_s
    plain = statistics.median(sum(p) for p in pass_times(run))
    traced = statistics.median(sum(p) for p in pass_times(run, traced=True))
    figures["trace.overhead_ratio"] = traced / plain
    figures["trace.coverage"] = figures["self_s_total"] / figures["item_s"]
    exact = all(p[name] == passes[0][name]
                for p in passes for name in tracing.EXACT_METRICS)
    return [(name, figures[name], unit) for name, unit in tracing.LAYER_METRICS], exact


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_baseline():
    """The recorded default seed, its digests and the measured baseline."""
    return json.loads(BASELINE.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=items.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "seqsnap" / "__init__.py").is_file():
        print(f"error: no seqsnap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = args.trace == 1

    seconds, mods, batch = set_up(args.workload, args.seed)
    setups = [seconds]
    untouched = {(m, a): getattr(getattr(mods, m), a)
                 for targets in tracing.PATCHES.values() for m, a in targets}
    tracer = None
    generate_s = 0.0
    if trace:
        # generate the batch once more under the tracer, for workloads.generate.s
        tracer = tracing.Tracer(mods)
        tracer.install()
        try:
            batch = items.build_batch(mods, args.workload, args.seed)
        finally:
            tracer.uninstall()
        generate_s = tracer.pass_metrics()["workloads.generate.s"]
        tracer.reset()

    def set_up_again():
        setups.append(set_up(args.workload, args.seed)[0])

    gc.collect()
    gc.freeze()
    run = measure(mods, batch, args.seconds, tracer, None if trace else set_up_again)

    problems = []
    if run.failed:
        problems.append(f"{run.failed} of {run.attempted} items failed a check "
                        f"or did not reproduce the first pass")
    baseline = load_baseline()
    expected = baseline["digests"][args.workload]
    if args.seed == baseline["default_seed"] and expected != run.digest:
        problems.append(f"digest {run.digest} differs from the recorded {expected}")
    environment = {
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "items_per_pass": len(batch), "passes": run.passes,
        "items_attempted": run.attempted, "digest": run.digest,
    }
    print(json.dumps({"environment": environment}))

    if trace:
        rows, exact = per_layer(run, generate_s)
        if not exact:
            problems.append("per-layer counts differ between traced passes")
        moved = [f"{m}.{a}" for (m, a), obj in untouched.items()
                 if getattr(getattr(mods, m), a) is not obj]
        if moved:
            problems.append(f"tracing left patched attributes: {moved}")
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        for name, value, unit in rows:
            print(f"{name:42} {value:>16.6g} {unit}")
        reported = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    else:
        rows = end_to_end(batch, run, setups)
        for name, value, unit, note in rows:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:28} {shown:>14} {unit:6} {note}")
        reported = {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in RESULT_METRICS}
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": reported}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
