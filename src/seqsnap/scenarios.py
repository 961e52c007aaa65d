"""Named replay fixtures with fully scripted delivery schedules.

`fig4a` (n=5): two concurrent writes a (by p4) and b (by p0) whose relays
interleave so that p3 and p4 validate a strictly before b, while at p0, p1
and p2 the two updates are entangled by a dependency and validate together.
`fig4b` (n=4): each of two writers issues a second write while its first is
still unconfirmed; the second writes are buffered and released only upon
validation, which is what keeps the cross dependencies from ever forming a
cycle. `abd_baseline_demo` (n=3): a quiescent register write followed by a
read, showing the 2- and 4-hop latencies of the quorum baseline.

Delivery times are absolute and keyed by (sender, nth broadcast of sender);
each table is FIFO-consistent per channel by construction and checked before
the run.
"""

from __future__ import annotations

from .seqspec import READ, WRITE
from .sim import (AsyncDelay, RunResult, ScriptedDelays, SimConfig, WorkItem,
                  run_simulation)

SCENARIOS = ("fig4a", "fig4b", "abd_baseline_demo")

# n=5. Broadcast schedule: p4 writes a=(4,1) and p0 writes b=(0,1) at t=0;
# every other process relays each update exactly once, so each update costs
# exactly 25 messages. Senders' broadcast order: p0: b, relay(a); p1:
# relay(b), relay(a); p2: relay(a), relay(b); p3: relay(a), relay(b); p4: a,
# relay(b).
TWO_WRITERS_CROSS_DELIVERIES = {
    (4, 1): {3: 1.0, 2: 9.0, 1: 9.0, 0: 9.0},
    (0, 1): {1: 1.0, 2: 9.3, 3: 9.5, 4: 9.3},
    (3, 1): {2: 2.5, 4: 2.5, 1: 8.5, 0: 8.5},
    (1, 1): {2: 4.0, 0: 3.0, 4: 3.0, 3: 9.8},
    (2, 1): {3: 4.0, 4: 4.0, 1: 4.5, 0: 4.5},
    (4, 2): {3: 7.0, 0: 9.6, 1: 9.6, 2: 9.6},
    (2, 2): {0: 5.5, 3: 5.0, 4: 5.0, 1: 5.5},
    (1, 2): {0: 7.0, 2: 5.5, 3: 9.85, 4: 9.7},
    (0, 2): {1: 7.0, 2: 9.4, 3: 9.55, 4: 9.4},
    (3, 2): {2: 7.0, 0: 9.9, 1: 9.9, 4: 9.9},
}

# n=4. p3 writes a=(3,1) then c; p0 writes b=(0,1) then d. The second writes
# land while the first are unconfirmed, so c and d sit in the buffer until a
# and b validate at their writers (then go out as (3,3) and (0,3)). Senders'
# broadcast order: p0: b, relay(a), d, relay(c); p1: relay(b), relay(a),
# relay(c), relay(d); p2: relay(a), relay(b), relay(c), relay(d); p3: a,
# relay(b), c, relay(d).
POSTPONED_CHAIN_DELIVERIES = {
    (3, 1): {2: 0.9, 0: 2.05, 1: 2.6},
    (0, 1): {1: 1.0, 3: 2.2, 2: 3.2},
    (2, 1): {3: 2.0, 0: 2.1, 1: 2.8},
    (1, 1): {0: 1.9, 3: 3.4, 2: 3.9},
    (0, 2): {1: 4.3, 2: 4.35, 3: 4.45},
    (3, 2): {0: 4.2, 2: 4.5, 1: 4.6},
    (1, 2): {3: 3.6, 0: 4.7, 2: 4.75},
    (2, 2): {0: 4.4, 1: 4.5, 3: 4.55},
    (3, 3): {2: 4.6, 1: 4.8, 0: 5.0},
    (0, 3): {1: 5.4, 2: 5.6, 3: 5.8},
    (2, 3): {0: 5.2, 1: 5.3, 3: 5.7},
    (1, 3): {3: 5.9, 0: 6.0, 2: 6.1},
    (0, 4): {1: 6.4, 2: 6.5, 3: 6.6},
    (1, 4): {0: 6.7, 2: 6.8, 3: 6.9},
    (2, 4): {0: 6.85, 1: 6.95, 3: 7.05},
    (3, 4): {0: 7.0, 1: 7.1, 2: 7.2},
}


def two_writers_cross_config() -> SimConfig:
    return SimConfig(
        n=5, seed=0, protocol="snapshot",
        delay=ScriptedDelays(TWO_WRITERS_CROSS_DELIVERIES),
        workload=[
            WorkItem(4, 0.0, WRITE, value=1),
            WorkItem(0, 0.0, WRITE, value=1),
        ])


def postponed_chain_config() -> SimConfig:
    return SimConfig(
        n=4, seed=0, protocol="snapshot",
        delay=ScriptedDelays(POSTPONED_CHAIN_DELIVERIES),
        workload=[
            WorkItem(3, 0.0, WRITE, value=31),
            WorkItem(3, 0.05, WRITE, value=32),
            WorkItem(0, 0.0, WRITE, value=1),
            WorkItem(0, 0.05, WRITE, value=2),
        ])


def abd_baseline_demo_config() -> SimConfig:
    return SimConfig(
        n=3, seed=7, protocol="abd",
        delay=AsyncDelay(0.5, 3.0),
        workload=[
            WorkItem(0, 0.0, WRITE, value=7),
            WorkItem(1, 100.0, READ, target=0),
        ])


_CONFIGS = {
    "fig4a": two_writers_cross_config,
    "fig4b": postponed_chain_config,
    "abd_baseline_demo": abd_baseline_demo_config,
}


def scenario_config(name: str) -> SimConfig:
    try:
        return _CONFIGS[name]()
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {', '.join(SCENARIOS)}") from None


def replay_scripted(name: str) -> RunResult:
    """Run a named fixture; same name, same run, byte for byte."""
    return run_simulation(scenario_config(name))


def validation_order(run: RunResult, proc: int) -> list:
    """(time, {update ids}) batches in which `proc` validated updates."""
    batches = []
    for who, time, key in run.validation_log:
        if who != proc:
            continue
        if batches and batches[-1][0] == time:
            batches[-1][1].add(key)
        else:
            batches.append((time, {key}))
    return batches
