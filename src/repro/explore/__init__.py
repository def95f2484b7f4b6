"""Deterministic schedule exploration for compiled monitors.

The subsystem adversarially schedules monitors compiled in *coop* mode
(generator-based virtual threads) and differentially checks every execution
against the implicit-signal reference semantics:

* :mod:`repro.explore.scheduler`  — the cooperative virtual-thread scheduler
  (every interleaving is a replayable list of recorded choices);
* :mod:`repro.explore.strategies` — exhaustive DFS extension, seeded random
  walks, and PCT-style priority schedules;
* :mod:`repro.explore.oracle`     — the differential oracle (guard
  violations, lost wakeups, state divergence);
* :mod:`repro.explore.reduce`     — ddmin counterexample reduction;
* :mod:`repro.explore.trace`      — readable interleaving rendering;
* :mod:`repro.explore.engine`     — the campaign driver gluing it together.

The seeded random-monitor generator that fuzzes the whole compile pipeline
end to end lives in :mod:`repro.fuzz.generate`.
"""

from repro.explore.engine import (
    COOP_DISCIPLINES,
    STRATEGIES,
    Counterexample,
    ExplorationResult,
    SegmentRefiner,
    ValueIndependence,
    coop_class_for_explicit,
    coop_monitor_and_class,
    explore_benchmark,
    explore_class,
    explore_explicit,
    footprints_for_explicit,
    replay_schedule,
    wait_info_for_explicit,
)
from repro.explore.oracle import OracleCache, OracleVerdict, ReferenceReplay, check_run
from repro.explore.parallel import (
    MutationReport,
    merge_results,
    mutation_campaign,
    parallel_explore_benchmark,
    parallel_explore_class,
)
from repro.explore.reduce import ddmin
from repro.explore.scheduler import (
    CoopScheduler,
    Decision,
    RunResult,
    SchedulerError,
    TraceEvent,
    run_schedule,
)
from repro.explore.strategies import (
    DporStrategy,
    FirstStrategy,
    IndependenceRelation,
    MethodFootprint,
    PCTStrategy,
    RandomStrategy,
    ScheduleStrategy,
    Strategy,
    make_strategy,
)
from repro.explore.trace import render_trace

__all__ = [
    "COOP_DISCIPLINES", "STRATEGIES",
    "Counterexample", "ExplorationResult",
    "coop_class_for_explicit", "coop_monitor_and_class",
    "explore_benchmark", "explore_class", "explore_explicit",
    "footprints_for_explicit", "replay_schedule",
    "OracleCache", "OracleVerdict", "ReferenceReplay", "check_run",
    "MutationReport", "merge_results", "mutation_campaign",
    "parallel_explore_benchmark", "parallel_explore_class",
    "ddmin",
    "CoopScheduler", "Decision", "RunResult", "SchedulerError", "TraceEvent",
    "run_schedule",
    "DporStrategy", "FirstStrategy", "IndependenceRelation", "MethodFootprint",
    "PCTStrategy", "RandomStrategy", "ScheduleStrategy",
    "Strategy", "make_strategy",
    "render_trace",
]
