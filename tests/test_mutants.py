"""Mutant-kill gate: each catalogued mutant of the snapshot protocol must
still be caught by the acceptance criteria that catch it today, each as
seqsnap.gates.judge, the acceptance gate's one judge, states it.

A mutant is a list of one-line edits of current `protocol` functions'
source. Each function it edits is compiled in `protocol`'s namespace and
patched over the module global, which is how the simulator calls it. Each
mutant runs only the runs recorded as killing it: sweep runs under
sim.run_simulation and, for three mutants, any-FIFO runs under sim.run_fifo.
Every one must fail its criterion under the mutant and pass without it. So a
change that weakens a gate, or rewrites a line a mutant edits, fails here
instead of passing silently.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from seqsnap import protocol
from seqsnap.gates import judge
from seqsnap.sim import run_fifo, run_simulation
from sweep import fifo_config, sweep_config

READY_AT_HALF = (
    "compute_validable",
    "if entry.known * 2 > n and key not in ready:",
    "if entry.known * 2 >= n and key not in ready:")

# name -> ([(function, line as written, line as mutated), ...], criterion ->
# the first killing (n, seed) sweep runs). Kill totals when recorded, over
# the C1 sweep (n = 2, 3, 5, 7, seeds 0-499) plus the even-n runs (n = 4, 6,
# seeds 0-499) for the first three, over the C1 sweep for the others:
#   no dependency fixpoint: C1 155, C3 1,266;
#   ahead at half: C1 64, C3 1,216;
#   ready set at half: C1 4, C3 7;
#   snapshot never waits: C1 2,000;
#   snapshot waits on any pending entry: wait 571;
#   relay with the writer's stamp: C1 3, C3 234;
#   no relay: C4 2,000;
#   ready set and trigger at half: C1 497, C3 500;
#   waiting snapshot never returns: drained 2,000.
MUTANTS = {
    "no dependency fixpoint": (
        [("compute_validable",
          "reached = _clear_closure(pending, key, n)",
          "reached = {key}")],
        {"C1": [(5, 1), (5, 20), (5, 27)], "C3": [(3, 1), (3, 2), (3, 5)]}),
    "ahead at half": (
        [("_clear_closure",
          "if count * 2 <= n and other not in reached:",
          "if count * 2 < n and other not in reached:")],
        {"C1": [(4, 2), (4, 6), (4, 14)], "C3": [(2, 0), (2, 1), (2, 2)]}),
    "ready set at half": (
        [READY_AT_HALF],
        {"C1": [(4, 129), (4, 165), (4, 231)],
         "C3": [(4, 36), (4, 85), (4, 129)]}),
    "snapshot never waits": (
        [("invoke_snapshot",
          "if state.view_stamps[state.me] < state.written:",
          "if False:")],
        {"C1": [(2, 0), (2, 1), (2, 2)]}),
    "snapshot waits on any pending entry": (
        [("invoke_snapshot",
          "if state.view_stamps[state.me] < state.written:",
          "if state.pending:")],
        {"wait": [(5, 0), (5, 1), (5, 2)]}),
    "relay with the writer's stamp": (
        [("handle_message",
          "value, writer, stamp, state.clock))])",
          "value, writer, stamp, stamp))])")],
        {"C1": [(5, 233), (5, 290), (7, 184)],
         "C3": [(3, 3), (3, 4), (3, 6)]}),
    "no relay": (
        [("handle_message",
          "value, writer, stamp, state.clock))])",
          "value, writer, stamp, state.clock))][:0])")],
        {"C4": [(2, 0), (2, 1), (2, 2)]}),
    "ready set and trigger at half": (
        [READY_AT_HALF,
         ("handle_message",
          "if entry.known * 2 > n and _clear_closure(pending, key, n) is not None:",
          "if entry.known * 2 >= n and _clear_closure(pending, key, n) is not None:")],
        {"C1": [(2, 0), (2, 1), (2, 2)], "C3": [(2, 0), (2, 1), (2, 2)]}),
    "waiting snapshot never returns": (
        [("handle_message",
          "eff.completions.append((SNAPSHOT, state.view))",
          "pass")],
        {"drained": [(2, 0), (2, 1), (2, 2)]}),
}

# name -> criterion -> the first killing (n, seed, crashes) runs of the
# any-FIFO gate (sweep.fifo_config), for the three mutants whose C1-sweep
# kills are rarest. Kill totals over that gate's seeds 0-499 in each half:
#   ahead at half: C1 19, C3 189;
#   ready set at half: C3 1;
#   relay with the writer's stamp: C1 5, C3 122.
FIFO_KILLS = {
    "ahead at half": {"C3": [(6, 226, 0), (4, 236, 0), (4, 242, 0)]},
    "ready set at half": {"C3": [(4, 290, 0)]},
    "relay with the writer's stamp": {"C3": [(5, 9, 0), (6, 10, 0),
                                             (4, 14, 0)]},
}


def mutant(name: str) -> list:
    """The catalogued mutant `name`: (function name, mutated function) for
    each function its edits touch."""
    edits, _kills = MUTANTS[name]
    sources = {}        # function name -> its lines, edited so far
    for func, line, mutated in edits:
        if func not in sources:
            source = textwrap.dedent(inspect.getsource(getattr(protocol, func)))
            sources[func] = source.splitlines(keepends=True)
        lines = sources[func]
        hits = [i for i, text in enumerate(lines) if text.strip() == line]
        assert len(hits) == 1, f"{func} no longer has the line {line!r}"
        [i] = hits
        indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = f"{indent}{mutated}\n"
    patched = []
    for func, lines in sources.items():
        defined = {}
        exec(compile("".join(lines), protocol.__file__, "exec"),
             vars(protocol), defined)
        patched.append((func, defined[func]))
    return patched


def recorded_kills(name: str) -> list:
    """(criterion, runner, config) of each run recorded as killing `name`,
    the sweep's first."""
    return ([(criterion, run_simulation, sweep_config(n, seed))
             for criterion, runs in MUTANTS[name][1].items()
             for n, seed in runs]
            + [(criterion, run_fifo, fifo_config(n, seed, crashes))
               for criterion, runs in FIFO_KILLS.get(name, {}).items()
               for n, seed, crashes in runs])


def criterion_holds(criterion: str, runner, config) -> bool:
    return not judge(runner(config))[criterion]


@pytest.mark.parametrize("name", MUTANTS)
def test_recorded_runs_kill_the_mutant(name, monkeypatch):
    kills = recorded_kills(name)
    for criterion, runner, config in kills:
        assert criterion_holds(criterion, runner, config), (
            criterion, runner.__name__, config.n, config.seed)
    for func, mutated in mutant(name):
        monkeypatch.setattr(protocol, func, mutated)
    survived = [(criterion, runner.__name__, config.n, config.seed)
                for criterion, runner, config in kills
                if criterion_holds(criterion, runner, config)]
    assert survived == [], f"{name} survives at {survived}"
