"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of seqsnap's modules from the outside: each
wrapper is set on the module that looks the name up (``checker.seq_step``,
``rounds.check_sc_fast``, ``sim.history_lines`` ...), records a span (id,
parent, item, name, start, end) in memory and takes counts at the same boundary.
``uninstall`` puts every original attribute back.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from time import perf_counter

# span name -> the (module, attribute) pairs wrapped for it
PATCHES = {
    "sim.run": [("sim", "run_simulation"), ("rounds", "run_simulation")],
    "sim.serialize_run": [("sim", "serialize_run")],
    "sim.invariants": [("sim", "vc_total_order_violations"),
                       ("sim", "liveness_violations"),
                       ("sim", "all_pending_empty")],
    "histories.history_lines": [("sim", "history_lines")],
    "protocol.handle_message": [("protocol", "handle_message")],
    "protocol.compute_validable": [("protocol", "compute_validable")],
    "protocol.invoke": [("protocol", "invoke_write"),
                        ("protocol", "invoke_snapshot")],
    "abd.handle_message": [("abd", "handle_message")],
    "checker.check_sc_fast": [("checker", "check_sc_fast"),
                              ("rounds", "check_sc_fast")],
    "checker.check_sc_brute": [("checker", "check_sc_brute"),
                               ("rounds", "check_sc_brute")],
    "checker.check_lin_brute": [("checker", "check_lin_brute")],
    "seqspec.seq_step": [("checker", "seq_step")],
    "rounds.run_rounds": [("rounds", "run_rounds")],
    "rounds.check_composition": [("rounds", "check_composition")],
    "workloads.generate": [("workloads", "random_workload"),
                           ("workloads", "write_heavy_workload"),
                           ("workloads", "abd_workload"),
                           ("workloads", "random_crashes"),
                           ("workloads", "trim_for_crashes"),
                           ("rounds", "round_workload")],
}

# spans that hand out verdicts; a refusal is counted where it leaves them
CHECKER_SPANS = {"checker.check_sc_fast", "checker.check_sc_brute",
                 "checker.check_lin_brute", "rounds.check_composition"}

# every per-layer metric, in report order, with its unit
LAYER_METRICS = [
    ("sim.run.self_s", "s"), ("sim.run.calls", "count"),
    ("sim.events", "count"), ("sim.self_us_per_event", "us"),
    ("sim.serialize_run.s", "s"), ("sim.invariants.s", "s"),
    ("histories.history_lines.s", "s"),
    ("protocol.handle_message.self_s", "s"),
    ("protocol.handle_message.calls", "count"),
    ("protocol.compute_validable.s", "s"),
    ("protocol.compute_validable.calls", "count"),
    ("protocol.compute_validable.useful_ratio", "ratio"),
    ("protocol.pending.mean", "count"), ("protocol.pending.max", "count"),
    ("protocol.invoke.s", "s"), ("protocol.invoke.calls", "count"),
    ("abd.handle_message.s", "s"), ("abd.handle_message.calls", "count"),
    ("checker.check_sc_fast.self_s", "s"),
    ("checker.check_sc_fast.calls", "count"),
    ("checker.brute_fallback.calls", "count"),
    ("checker.check_sc_brute.self_s", "s"),
    ("checker.check_sc_brute.calls", "count"),
    ("checker.check_lin_brute.s", "s"),
    ("checker.check_lin_brute.calls", "count"),
    ("checker.refusals", "count"),
    ("seqspec.seq_step.calls", "count"), ("seqspec.seq_step.s", "s"),
    ("rounds.run_rounds.self_s", "s"),
    ("rounds.check_composition.self_s", "s"),
    ("workloads.generate.s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
]

# counts that must repeat exactly from one traced pass to the next
EXACT_METRICS = [name for name, unit in LAYER_METRICS
                 if unit == "count" or name.endswith("useful_ratio")]

MAX_SPANS = 200_000     # spans kept for the written trace; the rest are counted


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.originals = {}
        self.stack = []             # open spans: [child seconds, span id, name]
        self.stats = {name: [0, 0.0, 0.0] for name in PATCHES}  # calls, total, self
        self.counts = {}
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.item = None            # batch index of the item being run
        self.reset()

    def reset(self) -> None:
        """Zero the per-pass statistics; kept spans stay."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts = {"events": 0, "useful": 0, "pending_sum": 0,
                       "pending_max": 0, "brute_fallback": 0, "refusals": 0}

    def install(self) -> None:
        for name, targets in PATCHES.items():
            for modname, attr in targets:
                module = getattr(self.mods, modname)
                original = getattr(module, attr)
                self.originals[(modname, attr)] = original
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for (modname, attr), original in self.originals.items():
            setattr(getattr(self.mods, modname), attr, original)
        self.originals.clear()

    def _wrap(self, name, fn):
        stack, stat = self.stack, self.stats[name]
        refusal = self.mods.checker.CheckRefusal
        is_checker = name in CHECKER_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                if is_checker and (parent is None or parent[2] not in CHECKER_SPANS):
                    self.counts["refusals"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent and parent[1], self.item,
                                       name, start, end))
                else:
                    self.dropped += 1
            self._count(name, parent, args, result)
            return result

        return wrapper

    def _count(self, name, parent, args, result) -> None:
        counts = self.counts
        if name == "protocol.compute_validable":
            pending = len(args[0])
            counts["pending_sum"] += pending
            counts["pending_max"] = max(counts["pending_max"], pending)
            counts["useful"] += bool(result)
        elif name == "sim.run":
            counts["events"] += len(result.delivery_log) + len(result.history)
        elif (name == "checker.check_sc_brute" and parent is not None
              and parent[2] == "checker.check_sc_fast"):
            counts["brute_fallback"] += 1

    def pass_metrics(self) -> dict:
        """Per-layer figures of the pass traced since the last reset."""
        calls = {name: stat[0] for name, stat in self.stats.items()}
        total = {name: stat[1] for name, stat in self.stats.items()}
        own = {name: stat[2] for name, stat in self.stats.items()}
        counts = self.counts
        events = counts["events"]
        validable = calls["protocol.compute_validable"]
        return {
            "sim.run.self_s": own["sim.run"],
            "sim.run.calls": calls["sim.run"],
            "sim.events": events,
            "sim.self_us_per_event": own["sim.run"] / events * 1e6 if events else 0.0,
            "sim.serialize_run.s": total["sim.serialize_run"],
            "sim.invariants.s": total["sim.invariants"],
            "histories.history_lines.s": total["histories.history_lines"],
            "protocol.handle_message.self_s": own["protocol.handle_message"],
            "protocol.handle_message.calls": calls["protocol.handle_message"],
            "protocol.compute_validable.s": total["protocol.compute_validable"],
            "protocol.compute_validable.calls": validable,
            "protocol.compute_validable.useful_ratio":
                counts["useful"] / validable if validable else 0.0,
            "protocol.pending.mean":
                counts["pending_sum"] / validable if validable else 0.0,
            "protocol.pending.max": counts["pending_max"],
            "protocol.invoke.s": total["protocol.invoke"],
            "protocol.invoke.calls": calls["protocol.invoke"],
            "abd.handle_message.s": total["abd.handle_message"],
            "abd.handle_message.calls": calls["abd.handle_message"],
            "checker.check_sc_fast.self_s": own["checker.check_sc_fast"],
            "checker.check_sc_fast.calls": calls["checker.check_sc_fast"],
            "checker.brute_fallback.calls": counts["brute_fallback"],
            "checker.check_sc_brute.self_s": own["checker.check_sc_brute"],
            "checker.check_sc_brute.calls": calls["checker.check_sc_brute"],
            "checker.check_lin_brute.s": total["checker.check_lin_brute"],
            "checker.check_lin_brute.calls": calls["checker.check_lin_brute"],
            "checker.refusals": counts["refusals"],
            "seqspec.seq_step.calls": calls["seqspec.seq_step"],
            "seqspec.seq_step.s": total["seqspec.seq_step"],
            "rounds.run_rounds.self_s": own["rounds.run_rounds"],
            "rounds.check_composition.self_s": own["rounds.check_composition"],
            "workloads.generate.s": total["workloads.generate"],
            "self_s_total": sum(own.values()),
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON document."""
        doc = {"fields": ["id", "parent", "item", "name", "start_s", "end_s"],
               "spans": self.spans, "dropped": self.dropped}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
