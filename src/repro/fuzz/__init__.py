"""Coverage-guided monitor fuzzing.

A corpus-driven search layer on top of the exploration engine: instead of
enumerating schedules of fixed benchmarks (``expresso explore``) or blindly
generating random monitors (the PR 2 fuzzer), the campaign keeps a persistent
corpus of *interesting* monitors, mutates them structurally, and feeds the
coverage every exploration run produces back into the next round of mutation —
the AFL/libFuzzer loop instantiated over signal-placement inputs:

* :mod:`repro.fuzz.generate` — the seeded monitor generators with
  per-entry derived seeds;
* :mod:`repro.fuzz.mutate`   — named, seeded structural mutation and
  crossover operators on monitor ASTs;
* :mod:`repro.fuzz.coverage` — the multi-axis coverage map (scheduler-state
  shapes, independence-matrix shape, DPOR/symmetry class counts, placement
  decisions, oracle verdict kinds) and per-run fingerprints;
* :mod:`repro.fuzz.corpus`   — corpus entries with provenance trails and
  the corpus directory export;
* :mod:`repro.fuzz.campaign` — the deterministic campaign driver
  (``expresso fuzz``), sharded over :mod:`repro.explore.parallel`.
"""

from repro.fuzz.campaign import (
    FuzzCampaignResult,
    FuzzConfig,
    run_campaign,
)
from repro.fuzz.corpus import CorpusEntry, CorpusStore, CorruptCorpusError
from repro.fuzz.coverage import COVERAGE_AXES, CoverageMap, state_shape
from repro.fuzz.generate import (
    FuzzReport,
    GeneratedMonitor,
    derive_seed,
    fuzz_pipeline,
    random_monitor,
)
from repro.fuzz.mutate import OPERATORS, apply_operator

__all__ = [
    "FuzzCampaignResult", "FuzzConfig", "run_campaign",
    "CorpusEntry", "CorpusStore", "CorruptCorpusError",
    "COVERAGE_AXES", "CoverageMap", "state_shape",
    "FuzzReport", "GeneratedMonitor", "derive_seed", "fuzz_pipeline",
    "random_monitor",
    "OPERATORS", "apply_operator",
]
