"""The acceptance criteria of a snapshot-memory run, defined once. A run
meets a criterion when the criterion's list of violations is empty. The run
checks are called through `sim` and `checker`, so a patched check judges."""

from __future__ import annotations

from . import checker, protocol, sim
from .seqspec import WRITE


def judge_history(history, n: int) -> dict:
    """What a history alone shows. C1: the fast checker's reason to reject
    it, or its refusal. wait: the (proc, seq) of each completed op that
    waited, unless it is a snapshot right after a write of its own process
    (the paper's waiting claim)."""
    try:
        verdict = checker.check_sc_fast(history, n)
        sc = [] if verdict.accepted else [verdict.reason]
    except checker.CheckRefusal as refusal:
        sc = [f"refused: {refusal}"]
    previous = {}       # proc -> kind of its latest op so far
    waited = []
    for rec in history:     # invocation order, so each process's in seq order
        if (rec.t_ret is not None and rec.t_ret != rec.t_inv
                and (rec.kind == WRITE or previous.get(rec.proc) != WRITE)):
            waited.append((rec.proc, rec.seq))
        previous[rec.proc] = rec.kind
    return {"C1": sc, "wait": waited}


def judge(run: sim.RunResult) -> dict:
    """Each criterion's violations: stuck (stopped at the event cap), C1 and
    wait (judge_history), C3 (sim.vc_total_order_violations), C4
    (sim.liveness_violations), drained (the correct processes with an op
    that never returned or a state that is not idle; a process invokes an
    op only once its last one returned), and messages ((update, sends) of
    each update sent more than n^2 times). These are the paper's claims
    about one object of its memory, so any other run is refused
    (CheckRefusal)."""
    if run.config.protocol != "snapshot" or len(run.states[0]) > 1:
        raise checker.CheckRefusal("the criteria judge single-object runs "
                                   "of the snapshot memory only")
    n = run.config.n
    unreturned = {rec.proc for rec in run.history if rec.t_ret is None}
    return {
        "stuck": [] if run.metrics.quiescent else ["not quiescent"],
        **judge_history(run.history, n),
        "C3": sim.vc_total_order_violations(run.vc_trace),
        "C4": sim.liveness_violations(run),
        "drained": [proc for proc, (state,) in enumerate(run.states)
                    if proc not in run.crashed
                    and (proc in unreturned or not protocol.idle(state))],
        "messages": [(update, sends) for update, sends
                     in run.metrics.messages_per_update.items()
                     if sends > n * n],
    }
