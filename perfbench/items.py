"""The benchmark's workloads: how a batch of items is generated from a seed,
what one item runs, and how its outputs are checked.

Every call into seqsnap goes through a module attribute
(``mods.sim.run_simulation`` and so on) so that the tracer can wrap the name on
the module that looks it up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field

# Items in one pass over a batch, at full size. A run repeats its batch, so
# a pass of about a second lets a 30 s run time each item 15-25 times, and
# sweep and oracle hold enough items for item_ms.p90 to have ten beyond it.
BATCH_SIZES = {"sweep": 200, "wide": 2, "oracle": 1000, "quorum": 10}

# Item seeds of one workload seed never overlap those of another.
SEED_STRIDE = 100_000

SWEEP_NS = (2, 3, 5, 7)
SWEEP_OPS = 40
COMPOSED_EVERY = 20          # one item in 20 of `sweep` is a composed run
WIDE_SHAPES = ((25, 100), (15, 200))
ORACLE_OPS = 8
ABD_EVERY = 10               # one item in 10 of `oracle` is a quorum history
QUORUM_N, QUORUM_OPS = 15, 300
NEVER_WRITTEN = 999_999


@dataclass(frozen=True)
class Item:
    kind: str
    n: int
    seed: int
    config: object


@dataclass
class Outcome:
    ok: bool
    runs: list        # RunResults the item produced
    output: list      # strings hashed into the workload digest


# ---------------------------------------------------------------------------
# batch generation (this is the benchmark's set-up)


def build_batch(mods, workload: str, seed: int, size: int | None = None) -> list:
    size = BATCH_SIZES[workload] if size is None else size
    if seed < 0 or not 0 < size <= SEED_STRIDE:
        raise ValueError(f"bad seed {seed} or batch size {size}")
    build = _BUILDERS[workload]
    return [build(mods, i, seed * SEED_STRIDE + i) for i in range(size)]


def _build_sweep(mods, i, s):
    gen, sim = mods.workloads, mods.sim
    if i % COMPOSED_EVERY == COMPOSED_EVERY - 1:
        # shaped like the round-composition acceptance criterion
        n = (3, 5)[s % 2]
        crashes = [sim.CrashSpec(s % n, on_send=1 + s % 5)] if s % 3 == 0 else []
        config = mods.rounds.RoundConfig(n=n, rounds=2 + s % 4, seed=s,
                                         crashes=crashes)
        return Item("composed", n, s, config)
    # shaped like the acceptance safety sweep
    n = SWEEP_NS[i % len(SWEEP_NS)]
    if (i // len(SWEEP_NS)) % 2 == 0:
        workload = gen.random_workload(n, SWEEP_OPS, s)
    else:
        workload = gen.write_heavy_workload(n, SWEEP_OPS, s)
    crashes = gen.random_crashes(n, (n - 1) // 2, s)
    workload = gen.trim_for_crashes(workload, crashes)
    return Item("sweep_run", n, s,
                sim.SimConfig(n=n, seed=s, workload=workload, crashes=crashes))


def _build_wide(mods, i, s):
    n, ops = WIDE_SHAPES[i % len(WIDE_SHAPES)]
    workload = mods.workloads.random_workload(n, ops, s)
    return Item("wide_run", n, s, mods.sim.SimConfig(n=n, seed=s, workload=workload))


def _build_oracle(mods, i, s):
    gen, sim = mods.workloads, mods.sim
    if i % ABD_EVERY == ABD_EVERY - 1:
        workload = gen.abd_workload(3, ORACLE_OPS, s)
        return Item("oracle_abd", 3, s,
                    sim.SimConfig(n=3, seed=s, protocol="abd", workload=workload))
    n = (2, 3)[i % 2]
    workload = gen.random_workload(n, ORACLE_OPS, s, snapshot_ratio=0.5)
    return Item("oracle_snap", n, s, sim.SimConfig(n=n, seed=s, workload=workload))


def _build_quorum(mods, i, s):
    workload = mods.workloads.abd_workload(QUORUM_N, QUORUM_OPS, s)
    return Item("quorum_run", QUORUM_N, s,
                mods.sim.SimConfig(n=QUORUM_N, seed=s, protocol="abd",
                                   workload=workload))


_BUILDERS = {"sweep": _build_sweep, "wide": _build_wide,
             "oracle": _build_oracle, "quorum": _build_quorum}
WORKLOAD_NAMES = tuple(_BUILDERS)


# ---------------------------------------------------------------------------
# one item: run, check, serialize


def run_item(mods, item: Item) -> Outcome:
    return _EXECUTORS[item.kind](mods, item)


def _verdict(mods, check, history, n):
    """True/False for an accept/reject, None for a refusal (counted as a
    failed check)."""
    try:
        return check(history, n).accepted
    except mods.checker.CheckRefusal:
        return None


def _documents(mods, run):
    docs = mods.sim.serialize_run(run)
    return [docs["history"], docs["metrics"], docs["vctrace"]]


def _sweep_run(mods, item):
    sim, n = mods.sim, item.n
    run = sim.run_simulation(item.config)
    checks = [
        run.metrics.quiescent,
        _verdict(mods, mods.checker.check_sc_fast, run.history, n) is True,
        not sim.vc_total_order_violations(run.vc_trace),
        not sim.liveness_violations(run),
        bool(run.crashed) or sim.all_pending_empty(run),
        all(count <= n * n for count in run.metrics.messages_per_update.values()),
    ]
    return Outcome(all(checks), [run], _documents(mods, run))


def _composed(mods, item):
    sim, rounds = mods.sim, mods.rounds
    run = rounds.run_rounds(item.config)
    checks = [
        run.metrics.quiescent,
        _verdict(mods, rounds.check_composition, run.history, item.n) is True,
        not sim.vc_total_order_violations(run.vc_trace),
        not sim.liveness_violations(run),
    ]
    return Outcome(all(checks), [run], _documents(mods, run))


def _wide_run(mods, item):
    sim = mods.sim
    run = sim.run_simulation(item.config)
    checks = [
        run.metrics.quiescent,
        _verdict(mods, mods.checker.check_sc_fast, run.history, item.n) is True,
        sim.all_pending_empty(run),
    ]
    return Outcome(all(checks), [run], _documents(mods, run))


def mutate(history, n, rng):
    """One completed snapshot with one component changed to another value of
    that cell's writer, to 0, or to a value never written; None when the
    history has no completed snapshot."""
    snaps = [rec for rec in history if rec.kind == "snapshot" and rec.completed]
    if not snaps:
        return None
    victim = rng.choice(snaps)
    cell = rng.randrange(n)
    current = victim.result[cell]
    written = [rec.value for rec in history
               if rec.kind == "write" and rec.proc == cell]
    choices = [v for v in [0, NEVER_WRITTEN] + written if v != current]
    result = list(victim.result)
    result[cell] = rng.choice(choices)
    changed = dataclasses.replace(victim, result=tuple(result))
    return [changed if rec is victim else rec for rec in history]


def _oracle_snap(mods, item):
    checker, n = mods.checker, item.n
    run = mods.sim.run_simulation(item.config)
    rng = random.Random(f"perfbench-mutants:{item.seed}")
    candidates = [run.history]
    for _ in range(3):
        mutant = mutate(run.history, n, rng)
        if mutant is not None:
            candidates.append(mutant)
    ok = True
    verdicts = []
    for index, history in enumerate(candidates):
        fast = _verdict(mods, checker.check_sc_fast, history, n)
        brute = _verdict(mods, checker.check_sc_brute, history, n)
        verdicts.append(f"{fast}/{brute}")
        if fast is None or brute is None or fast != brute:
            ok = False
        if index == 0 and not fast:
            ok = False      # an unmutated history of the protocol is SC
    return Outcome(ok, [run], [f"{item.seed} sc {' '.join(verdicts)}\n"])


def _oracle_abd(mods, item):
    run = mods.sim.run_simulation(item.config)
    lin = _verdict(mods, mods.checker.check_lin_brute, run.history, item.n)
    return Outcome(lin is True, [run], [f"{item.seed} lin {lin}\n"])


def _quorum_run(mods, item):
    sim = mods.sim
    run = sim.run_simulation(item.config)
    written = {proc: {0} for proc in range(item.n)}
    for rec in run.history:
        if rec.kind == "write":
            written[rec.proc].add(rec.value)
    checks = [
        run.metrics.quiescent,
        all(rec.completed for rec in run.history),
        all(rec.result in written[rec.target]
            for rec in run.history if rec.kind == "read"),
        sim.all_pending_empty(run),
    ]
    return Outcome(all(checks), [run], _documents(mods, run))


_EXECUTORS = {"sweep_run": _sweep_run, "composed": _composed,
              "wide_run": _wide_run, "oracle_snap": _oracle_snap,
              "oracle_abd": _oracle_abd, "quorum_run": _quorum_run}


# ---------------------------------------------------------------------------
# what an item produced, for digests and the simulated-time metrics


def fingerprint(outcome: Outcome) -> tuple:
    """Everything a behaviour change would move: the digest of the item's
    output plus the counts and logs serialization leaves out."""
    h = hashlib.sha256()
    for text in outcome.output:
        h.update(text.encode())
    counts = tuple((len(run.delivery_log), len(run.message_log),
                    hash(tuple(run.validation_log))) for run in outcome.runs)
    return (h.hexdigest(), outcome.ok, counts)


def workload_digest(fingerprints: list) -> str:
    """SHA-256 over the per-item output digests, in batch order."""
    return hashlib.sha256("".join(fp[0] for fp in fingerprints).encode()).hexdigest()


@dataclass
class SimTotals:
    """Simulated-time and message figures of one pass (deterministic)."""

    deliveries: int = 0
    ops: int = 0
    messages: int = 0
    op_latency: list = field(default_factory=list)
    validation_latency: list = field(default_factory=list)

    def add(self, mods, item: Item, outcome: Outcome) -> None:
        for run in outcome.runs:
            self.deliveries += len(run.delivery_log)
            self.ops += len(run.history)
            self.messages += run.metrics.messages_total
            self.op_latency.extend(rec.t_ret - rec.t_inv
                                   for rec in run.history if rec.completed)
            # validation keys carry no object id, so only single-object runs
            if item.kind != "composed" and run.config.protocol == "snapshot":
                self.validation_latency.extend(validation_latencies(mods, run))


def validation_latencies(mods, run) -> list:
    """Simulated time from a writer's original broadcast of an update to each
    correct process validating it."""
    update_msg = mods.protocol.UpdateMsg
    sent = {}
    for msg in run.message_log:
        p = msg.payload
        if (isinstance(p, update_msg) and msg.sender == p.writer
                and p.relay_stamp == p.stamp):
            sent[(p.writer, p.stamp)] = msg.time
    return [time - sent[key] for proc, time, key in run.validation_log
            if proc not in run.crashed]
