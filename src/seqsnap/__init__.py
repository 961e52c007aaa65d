"""Sequentially consistent snapshot memory over simulated message passing:
protocol state machines, a deterministic crash-prone network, history
checkers and a quorum-register baseline."""

from .checker import (CheckRefusal, Verdict, check_lin_brute, check_sc_brute,
                      check_sc_fast)
from .histories import OpRecord, load_history
from .rounds import RoundConfig, check_composition, run_rounds
from .scenarios import replay_scripted
from .seqspec import seq_step
from .sim import (AsyncDelay, ConfigError, CrashSpec, Metrics, RunResult,
                  ScriptedDelays, SimConfig, SyncDelay, WorkItem,
                  all_pending_empty, history_document, liveness_violations,
                  run_simulation, vc_total_order_violations)

__all__ = [
    "AsyncDelay", "CheckRefusal", "ConfigError", "CrashSpec", "Metrics",
    "OpRecord", "RoundConfig", "RunResult", "ScriptedDelays", "SimConfig",
    "SyncDelay", "Verdict", "WorkItem", "all_pending_empty",
    "check_composition", "check_lin_brute", "check_sc_brute", "check_sc_fast",
    "history_document", "liveness_violations", "load_history",
    "replay_scripted", "run_rounds", "run_simulation", "seq_step",
    "vc_total_order_violations",
]
