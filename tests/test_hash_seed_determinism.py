"""Invariant inference must not depend on the string hash seed.

Abduction mines candidate predicates from the atoms of earlier candidates,
and only the first 24 candidates survive.  Iterating those atoms in set
order made the candidate pool, and for Ticketed Readers-Writers the kept
predicates and the printed invariant, vary with ``PYTHONHASHSEED``.  Each
program below differed between seeds 0 and 1 before atoms were iterated in
first-occurrence order.
"""

import json
import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROGRAMS = ("Readers-Writers", "AsyncOperationExecutor", "Ticketed Readers-Writers")

_SCRIPT = """
import json, sys
from repro.benchmarks_lib.registry import ALL_BENCHMARKS
from repro.logic.pretty import pretty
from repro.placement.pipeline import ExpressoPipeline

out = {}
for name in sys.argv[1:]:
    details = ExpressoPipeline(lint=False).compile(ALL_BENCHMARKS[name].source).invariant_details
    out[name] = {
        "invariant": pretty(details.invariant),
        "kept": [repr(expr) for expr in details.kept_predicates],
        "pool": [repr(expr) for expr in details.candidate_pool],
    }
print(json.dumps(out, sort_keys=True))
"""


def _compile_under_seed(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, *_PROGRAMS], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def test_invariant_inference_is_identical_across_hash_seeds():
    first, second = _compile_under_seed(0), _compile_under_seed(1)
    assert sorted(first) == sorted(_PROGRAMS)
    for name in _PROGRAMS:
        assert first[name]["invariant"] == second[name]["invariant"], name
        assert first[name]["kept"] == second[name]["kept"], name
        assert first[name]["pool"] == second[name]["pool"], name
