"""The repository benchmark: compile, explore, fuzz and generated-code speed.

    python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory, nothing is installed.  Every set-up and measurement runs
in a fresh interpreter (``perfbench/child.py``), one at a time and with one
worker, so caches never carry over from one to the next.

``--trace 0`` starts set-up-only processes (two, or up to eight when set-up
is short), then one measuring process, and prints the end-to-end metrics of
BENCHMARK.json; ``setup_s`` is the median of all their set-ups.  ``--trace 1``
starts one untraced and one traced measuring process and prints the
per-layer metrics, with ``trace.overhead`` the traced ``wall_s`` over the
untraced one, minus one.  Metrics of layers a workload does not reach read 0.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Outside a checkout (no ``src/repro``) the benchmark exits with status 2, and
if a process fails or overruns its time it exits with status 1; neither
prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import EXCLUDED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: What ``wall_ref`` (and ``wall_s``, the same in seconds) times on each workload.
WALL = {
    "compile-suite": "the cold suite compile, Table 1 (compile_s)",
    "explore-dpor": "one 4x3 semantic-DPOR DFS pass (explore_s)",
    "fuzz-campaign": "the fuzz command, start to exit (fuzz_s)",
    "saturate": "generated expresso code: sum of per-program median runs",
}
#: Counts that a fixed input determines; two processes must agree on them.
DETERMINISTIC = ("notifications", "broadcasts", "explore.judged", "explore.pruned",
                 "explore.por_skipped", "explore.symmetry_skipped",
                 "explore.distinct_states", "explore.mutants_caught",
                 "explore.mutants_benign", "fuzz.state_shapes", "fuzz.candidates")
#: Set-ups per untraced run: set-up-only processes, then the measuring one.
#: At least MIN_SETUPS; short set-ups (interpreter start and imports, a few
#: tenths of a second and noisy) repeat up to MAX_SETUPS while the set-up-only
#: processes have taken less than SETUP_BUDGET_S.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
#: Wall-clock limit for one whole run, all processes included.
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def spawn(args, phase: str, trace: int, deadline: float) -> dict:
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--phase", phase,
               "--trace", str(trace)]
    t0 = time.monotonic()
    try:
        process = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{phase} process overran the {RUN_LIMIT_S:.0f} s "
                         f"run limit") from exc
    if process.returncode != 0:
        raise ChildError(f"{phase} process exited with status {process.returncode}")
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{phase} process printed no result")
    return json.loads(lines[-1])


def end_to_end(children: list) -> tuple:
    """Combine the set-up-only processes and the measuring one (the last)."""
    measured = children[-1]
    metrics = dict(measured["metrics"])
    samples = dict(measured["samples"])
    failures = list(measured["failures"])
    metrics["setup_s"] = statistics.median(child["setup_s"] for child in children)
    samples["setup_s"] = len(children)
    measured["layer_metrics"]["setup_wall_s"] = statistics.median(
        child["setup_wall_s"] for child in children)
    compiling = [child["metrics"] for child in children if "compile_ref" in child["metrics"]]
    if compiling:
        metrics["compile_ref"] = statistics.median(m["compile_ref"] for m in compiling)
        samples["compile_ref"] = len(compiling)
        for count in ("notifications", "broadcasts"):
            if len({m[count] for m in compiling}) != 1:
                failures.append(f"{count} differ between processes: "
                                f"{[m[count] for m in compiling]}")
    return metrics, samples, failures


def per_layer(children: list, names: list) -> tuple:
    """Combine the untraced (first) and traced (second) measuring children.

    Layer times and call counts come from the traced process; the figures a
    workload computes itself (per-program times, runtime rates, speed-ups,
    exploration counts) from the untraced one, which tracing cannot skew.
    """
    untraced, traced = children
    metrics = {name: 0.0 for name in names}
    unknown = (set(traced["layer_metrics"]) | set(untraced["layer_metrics"])) - set(names)
    if unknown:
        raise ChildError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics.update(traced["layer_metrics"])
    metrics.update(untraced["layer_metrics"])
    metrics["trace.overhead"] = (traced["layer_metrics"]["wall_s"]
                                 / untraced["layer_metrics"]["wall_s"] - 1)
    failures = untraced["failures"] + traced["failures"]
    for name in DETERMINISTIC:
        values = [child["metrics"].get(name, child["layer_metrics"].get(name))
                  for child in children]
        if None not in values and values[0] != values[1]:
            failures.append(f"{name} differs between the untraced and traced "
                            f"process: {values[0]} then {values[1]}")
    return metrics, {}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measuring process repeats its "
                             "work (compile-suite and fuzz-campaign do one "
                             "fixed job however long it takes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a checkout of the program (no src/repro)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in group}

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            children = [spawn(args, "measure", trace, deadline) for trace in (0, 1)]
            metrics, samples, failures = per_layer(children, list(units))
        else:
            setups = []
            start = time.monotonic()
            while (len(setups) < MIN_SETUPS - 1
                   or (len(setups) < MAX_SETUPS - 1
                       and time.monotonic() - start < SETUP_BUDGET_S)):
                setups.append(spawn(args, "setup", 0, deadline))
            children = setups + [spawn(args, "measure", 0, deadline)]
            metrics, samples, failures = end_to_end(children)
    except ChildError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: {args.workload} measured no {missing}", file=sys.stderr)
        return 1

    attempted = sum(child["attempted"] for child in children)
    print(f"workload {args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'})")
    for name, unit in units.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{count}")
    if not args.trace:
        print(f"  wall_ref is {WALL[args.workload]}; figures without a bound "
              f"(--trace 1 reports them with the layer split):")
        for name, value in children[-1]["layer_metrics"].items():
            print(f"    {name:<42} {value:>14.6g}")
    for program, reason in EXCLUDED.get(args.workload, {}).items():
        print(f"  excluded {program}: {reason}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
