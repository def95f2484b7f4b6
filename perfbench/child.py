"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this file once per set-up or measurement, so every process
begins with cold caches, as a command-line user's does
(``smt.solver.SHARED_CACHE``, the saturation harness's compile and class
caches and the explorer's coop-class cache all live for the whole process).

    PYTHONPATH=src python3 perfbench/child.py --workload compile-suite \\
        --seed 1 --seconds 10 --phase measure --trace 0 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up runs from there to the end of the workload's set-up.
The process writes human-readable lines to stderr and one JSON object, its
result, to stdout.

Untraced processes time their work on a :class:`refclock.RefClock` as well
as in seconds: ``wall_ref`` and ``compile_ref`` are the work's duration in
calibration loops, which the machine's changes of speed move much less than
seconds (see ``refclock.py``).  ``setup_s`` is the set-up's ref time at a
fixed ``REF_SECONDS`` per ref; ``setup_wall_s`` is the same in seconds.
Traced processes count seconds only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from refclock import REF_SECONDS, RefClock

ROOT = Path(__file__).resolve().parent.parent

#: Programs each workload leaves out, with the reason; run.py prints these
#: and BENCHMARK.json repeats them in the workload's ``why``.
EXCLUDED = {
    "explore-dpor": {
        "Dining Philosophers": "its 11-16 s compile would swamp set-up; "
                               "compile-suite measures it",
    },
    "saturate": {
        "H2O Barrier": "its workload has no operations below 3 threads "
                       "(_h2o_workload), so a 2-thread run reports 0 ms/op "
                       "and a 0/0 ratio",
        "Dining Philosophers": "its 11-16 s compile would swamp set-up; "
                               "compile-suite measures it",
    },
}

#: compile-suite's reference check: plain DFS (no partial-order reduction,
#: no compiler-proven independence) of every interleaving at this bound,
#: judged against the implicit-signal semantics.
CHECK_THREADS, CHECK_OPS = 3, 2
#: explore-dpor's bounds: the 4x3 DFS pass and the 3x2 mutation sweep.
EXPLORE_THREADS, EXPLORE_OPS = 4, 3
MUTATION_THREADS, MUTATION_OPS = 3, 2
EXPLORE_BUDGET = 20_000
#: fuzz-campaign's command line.  The campaign seed is fixed: the cost of a
#: campaign varies several-fold from seed to seed (24 monitors on one seed,
#: 160 on the next), which no run-to-run bound could absorb.
FUZZ_SEED = 2026
FUZZ_ARGS = ("--budget", "400", "--per-run-budget", "60", "--batch-size", "4",
             "--bootstrap", "4", "--max-findings", "50", "--workers", "1")
#: saturate: threads per run and operations per thread.  2000 operations
#: make one run take tens of milliseconds, well above thread start-up.
SATURATE_THREADS, SATURATE_OPS = 2, 2000
SATURATE_TIMEOUT_S = 30.0


def metric_name(program: str) -> str:
    return program.replace(" ", "")


class Context:
    """What a workload records: metrics, counts, failures and compiles."""

    def __init__(self, seed: int, seconds: float, clock: RefClock) -> None:
        self.seed = seed
        self.seconds = seconds
        self.clock = clock
        self.tracer = None
        #: Every ExplorationResult of a traced run (the fuzz campaign's are
        #: visible only this way).
        self.explorations: list = []
        self.metrics: Dict[str, float] = {}
        self.layer_metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.compiles: List[tuple] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def install_compile_meter(self) -> None:
        """Time every monitor compile in the clock's ``compile`` account and
        record its placement.

        In traced and untraced runs alike: the compiles inside a fuzz
        campaign are only visible this way.
        """
        from repro.placement.pipeline import ExpressoPipeline

        original = ExpressoPipeline.compile
        compiles = self.compiles
        clock = self.clock

        def compile(pipeline, source):
            with clock.account("compile"):
                result = original(pipeline, source)
            compiles.append((result.placement.total_notifications(),
                             result.placement.broadcast_count()))
            return result

        ExpressoPipeline.compile = compile

    def scheduler_runs(self) -> int:
        return self.tracer.stats["explore.scheduler"].calls if self.tracer else 0

    def record_runs_per_judged(self, runs_before: int) -> None:
        """Scheduler runs since *runs_before* per judged schedule recorded
        in ``explore.judged`` (traced runs only)."""
        judged = self.layer_metrics.get("explore.judged", 0)
        if self.tracer and judged:
            runs = self.scheduler_runs() - runs_before
            self.layer_metrics["explore.runs_per_judged"] = runs / judged

    def record_compiles(self) -> None:
        if not self.compiles:
            return
        self.layer_metrics["compile_s"] = self.clock.seconds("compile")
        self.metrics["compile_ref"] = self.clock.ref("compile")
        for index, name in enumerate(("notifications", "broadcasts")):
            self.metrics[name] = sum(entry[index] for entry in self.compiles)

    def record_wall(self) -> None:
        """``wall_s`` and ``wall_ref`` from the clock's ``wall`` account."""
        self.layer_metrics["wall_s"] = self.clock.seconds("wall")
        self.metrics["wall_ref"] = self.clock.ref("wall")
        self.samples["wall_ref"] = 1


def exploration_counts(results) -> Dict[str, int]:
    return {
        "explore.judged": sum(r.schedules_run for r in results),
        "explore.pruned": sum(r.pruned for r in results),
        "explore.por_skipped": sum(r.por_skipped for r in results),
        "explore.symmetry_skipped": sum(r.symmetry_skipped for r in results),
        "explore.distinct_states": sum(r.distinct_states for r in results),
    }


# ---------------------------------------------------------------------------
# Workloads: ``setup(ctx)`` returns state, ``measure(ctx, state)`` times its
# work in the clock's ``wall`` account (``record_wall``) and makes the checks.
# ---------------------------------------------------------------------------


class CompileSuite:
    """The 14 registry programs, each compiled cold (the paper's Table 1)."""

    def setup(self, ctx: Context):
        from repro.benchmarks_lib import ALL_BENCHMARKS

        specs = list(ALL_BENCHMARKS.values())
        random.Random(ctx.seed).shuffle(specs)
        return specs

    def measure(self, ctx: Context, specs) -> None:
        from repro.explore import explore_explicit
        from repro.placement.pipeline import ExpressoPipeline

        compiled = []
        with ctx.clock.account("wall"):
            for spec in specs:
                start = time.perf_counter()
                result = ExpressoPipeline().compile(spec.source)
                compiled.append((spec, result))
                ctx.layer_metrics[f"compile.{metric_name(spec.name)}_s"] = (
                    time.perf_counter() - start)
        ctx.record_wall()
        # Reference check, outside the timed compiles.
        results = []
        for spec, result in compiled:
            ctx.attempted += 1
            outcome = explore_explicit(
                result.explicit, result.monitor,
                spec.workload(CHECK_THREADS, CHECK_OPS), strategy="dfs",
                budget=EXPLORE_BUDGET, por=False)
            results.append(outcome)
            if not (outcome.ok and outcome.exhausted):
                ctx.fail(f"{spec.name}: implicit-semantics check at "
                         f"{CHECK_THREADS}x{CHECK_OPS} ok={outcome.ok} "
                         f"exhausted={outcome.exhausted}")
        ctx.layer_metrics.update(exploration_counts(results))
        ctx.record_runs_per_judged(0)


class ExploreDpor:
    """Semantic-DPOR DFS over 13 registry programs, then the mutation sweep."""

    def setup(self, ctx: Context):
        from repro.benchmarks_lib import ALL_BENCHMARKS
        from repro.explore import coop_monitor_and_class

        specs = [spec for spec in ALL_BENCHMARKS.values()
                 if spec.name not in EXCLUDED["explore-dpor"]]
        return [(spec,) + coop_monitor_and_class(spec, "expresso") for spec in specs]

    def measure(self, ctx: Context, built) -> None:
        from repro.explore import explore_class, mutation_campaign

        # One pass, as one CLI invocation would make it: later passes in the
        # same process run measurably slower (the heap has grown).
        order = list(built)
        random.Random(ctx.seed).shuffle(order)
        results = []
        runs_before = ctx.scheduler_runs()
        with ctx.clock.account("wall"):
            for spec, reference, coop_class in order:
                start = time.perf_counter()
                result = explore_class(
                    reference, coop_class, spec.workload(EXPLORE_THREADS, EXPLORE_OPS),
                    strategy="dfs", budget=EXPLORE_BUDGET,
                    benchmark=spec.name, discipline="expresso")
                ctx.layer_metrics[f"explore.{metric_name(spec.name)}_s"] = (
                    time.perf_counter() - start)
                results.append(result)
        ctx.record_wall()
        for spec, result in zip([entry[0] for entry in order], results):
            ctx.attempted += 1
            if not (result.ok and result.exhausted):
                ctx.fail(f"{spec.name}: ok={result.ok} exhausted={result.exhausted}")
        ctx.layer_metrics.update(exploration_counts(results))
        ctx.record_runs_per_judged(runs_before)

        specs = [entry[0] for entry in built]
        start = time.perf_counter()
        report = mutation_campaign(specs, threads=MUTATION_THREADS,
                                   ops=MUTATION_OPS, workers=1)
        ctx.layer_metrics["explore.mutation_s"] = time.perf_counter() - start
        ctx.layer_metrics["explore.mutants_caught"] = len(report.caught)
        ctx.layer_metrics["explore.mutants_benign"] = len(report.benign)
        ctx.attempted += len(report.mutants)
        for mutant in report.survived + report.errors:
            ctx.fail(f"mutant {mutant['benchmark']} {mutant['site']}: "
                     f"{mutant['status']}")
        print(f"mutation sweep {MUTATION_THREADS}x{MUTATION_OPS}: "
              f"{len(report.caught)} caught, {len(report.benign)} benign, "
              f"{len(report.survived)} survived, {len(report.errors)} errors",
              file=sys.stderr)


class FuzzCampaign:
    """A cold ``expresso fuzz`` invocation with a corpus directory and store."""

    def setup(self, ctx: Context):
        from repro.cli import main

        return main

    def measure(self, ctx: Context, main) -> None:
        directory = Path(tempfile.mkdtemp(prefix=".perfbench-fuzz-", dir=ROOT))
        argv = ["fuzz", "--seed", str(FUZZ_SEED), *FUZZ_ARGS,
                "--corpus-dir", str(directory / "corpus"),
                "--store", str(directory / "store.db"), "--json"]
        output = io.StringIO()
        try:
            with ctx.clock.account("wall"), contextlib.redirect_stdout(output):
                status = main(argv)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        ctx.record_wall()
        document = json.loads(output.getvalue())
        findings = document["findings"]
        findings = findings if isinstance(findings, int) else len(findings)
        errors = document["compile_errors"]
        ctx.attempted += document["monitors"]
        if status != 0 or findings or errors or not document["ok"]:
            ctx.fail(f"fuzz exit {status}, {findings} finding(s), "
                     f"{errors} compile error(s)")
        if ctx.tracer:
            ctx.layer_metrics.update(exploration_counts(ctx.explorations))
            ctx.record_runs_per_judged(0)
        ctx.layer_metrics["fuzz.state_shapes"] = document["coverage_counts"]["state"]
        ctx.layer_metrics["fuzz.candidates"] = document["monitors"]
        ctx.layer_metrics["fuzz.admitted_per_candidate"] = (
            document["corpus_added"] / document["monitors"])
        print(f"fuzz: {document['monitors']} monitors, "
              f"{document['schedules_run']} judged schedules, "
              f"{document['coverage_counts']['state']} state shapes, "
              f"{document['corpus_added']} admitted", file=sys.stderr)


class Saturate:
    """Generated expresso code against AutoSynch under 2-thread saturation."""

    def setup(self, ctx: Context):
        from repro.benchmarks_lib import FIGURE8_BENCHMARKS, FIGURE9_BENCHMARKS
        from repro.harness.saturation import build_monitor_class

        specs = [spec for spec in FIGURE8_BENCHMARKS + FIGURE9_BENCHMARKS
                 if spec.name not in EXCLUDED["saturate"]]
        for spec in specs:
            for discipline in ("expresso", "autosynch"):
                build_monitor_class(spec, discipline)
        return specs

    def measure(self, ctx: Context, specs) -> None:
        from repro.harness.saturation import SaturationTimeout, run_saturation

        # The timer would land its calibration loops among program threads:
        # each run is converted to ref on its own, right after it ends.
        clock = ctx.clock
        clock.stop_timer()
        clock.split()
        disciplines = ("expresso", "autosynch")
        seconds = {(spec.name, d): [] for spec in specs for d in disciplines}
        refs = {spec.name: [] for spec in specs}
        totals = {d: {} for d in disciplines}
        operations = dict.fromkeys(disciplines, 0)
        hung = set()
        rounds = 0
        deadline = time.perf_counter() + ctx.seconds
        while not rounds or time.perf_counter() < deadline:
            for index, spec in enumerate(specs):
                if spec.name in hung:
                    continue
                order = disciplines if (rounds + index + ctx.seed) % 2 == 0 \
                    else disciplines[::-1]
                for discipline in order:
                    ctx.attempted += 1
                    run_seed = (ctx.seed * 1_000_003 + rounds) * 31 + index
                    # Every call of every thread returned, or this raises.
                    try:
                        run = run_saturation(spec, discipline, SATURATE_THREADS,
                                             SATURATE_OPS, SATURATE_TIMEOUT_S,
                                             seed=run_seed)
                    except SaturationTimeout as exc:
                        ctx.fail(str(exc))
                        hung.add(spec.name)
                        break
                    ref = clock.to_ref(run.elapsed_seconds)
                    if discipline == "expresso":
                        refs[spec.name].append(ref)
                    operations[discipline] += run.operations
                    seconds[(spec.name, discipline)].append(run.elapsed_seconds)
                    for key, value in run.metrics.items():
                        totals[discipline][key] = totals[discipline].get(key, 0) + value
            rounds += 1
        median = statistics.median
        specs = [spec for spec in specs if spec.name not in hung]
        ctx.layer_metrics["wall_s"] = sum(median(seconds[(spec.name, "expresso")])
                                          for spec in specs)
        ctx.metrics["wall_ref"] = sum(median(refs[spec.name]) for spec in specs)
        ctx.samples["wall_ref"] = rounds
        logs = []
        for spec in specs:
            ratio = (median(seconds[(spec.name, "autosynch")])
                     / median(seconds[(spec.name, "expresso")]))
            logs.append(math.log(ratio))
            ctx.layer_metrics[f"saturate.{metric_name(spec.name)}.speedup"] = ratio
        ctx.layer_metrics["saturate.speedup_vs_autosynch"] = math.exp(statistics.fmean(logs))
        for discipline, counts in totals.items():
            calls = operations[discipline]
            prefix = f"runtime.{discipline}"
            ctx.layer_metrics[f"{prefix}.signals_per_op"] = (
                (counts["signals"] + counts["broadcasts"]) / calls)
            for key in ("wakeups", "spurious_wakeups", "predicate_evaluations"):
                ctx.layer_metrics[f"{prefix}.{key}_per_op"] = counts[key] / calls
        print(f"saturate: {rounds} round(s) over {len(specs)} programs, "
              f"geomean speedup vs autosynch "
              f"{ctx.layer_metrics['saturate.speedup_vs_autosynch']:.3f}",
              file=sys.stderr)


WORKLOADS = {
    "compile-suite": CompileSuite,
    "explore-dpor": ExploreDpor,
    "fuzz-campaign": FuzzCampaign,
    "saturate": Saturate,
}

#: Layers each workload must reach; a traced run with zero calls into one of
#: them means a wrapper missed its caller, and fails the run.
EXPECTED_LAYERS = {
    "compile-suite": ("lang.parse", "analysis.invariants", "analysis.abduction",
                      "smt.qe", "logic.simplify", "smt.solver", "placement",
                      "analysis.commutativity", "placement.instrument",
                      "analysis.lint", "compile", "codegen.generate", "explore",
                      "explore.scheduler", "explore.oracle"),
    "explore-dpor": ("compile", "smt.solver", "analysis.commutativity.matrix",
                     "codegen.generate", "explore", "explore.scheduler",
                     "explore.oracle", "explore.reduce", "explore.mutation"),
    "fuzz-campaign": ("fuzz.campaign", "fuzz.generate", "fuzz.mutate", "compile",
                      "smt.qe", "smt.solver", "analysis.commutativity.matrix",
                      "codegen.generate", "explore", "explore.scheduler",
                      "explore.oracle", "fuzz.coverage", "fuzz.corpus",
                      "distrib.store"),
    "saturate": ("compile", "smt.solver", "codegen.generate", "harness.saturation"),
}


#: Count metrics named after what the layer's calls are.
CALL_NAMES = {"smt.solver": "queries", "explore.scheduler": "runs",
              "explore.oracle": "checks"}


def layer_metrics(tracer, workload: str) -> Dict[str, float]:
    """Per-layer self time and call counts from a traced run."""
    stats = tracer.stats
    for layer in EXPECTED_LAYERS[workload]:
        if not stats[layer].calls:
            raise RuntimeError(f"traced {workload} made no call into layer {layer}")
    values: Dict[str, float] = {}
    for layer, layer_stats in stats.items():
        values[f"{layer}.self_s"] = layer_stats.self_time
        values[f"{layer}.{CALL_NAMES.get(layer, 'calls')}"] = layer_stats.calls
    durations = sorted(stats["smt.solver"].durations)
    if durations:
        values["smt.solver.query_p50_ms"] = 1000 * statistics.median(durations)
        values["smt.solver.query_p99_ms"] = 1000 * durations[
            math.ceil(0.99 * len(durations)) - 1]
    values["analysis.commutativity.matrix_s"] = stats["analysis.commutativity.matrix"].total
    values["fuzz.corpus.write_s"] = stats["fuzz.corpus"].total
    return values


def count_cache_lookups() -> Dict[str, int]:
    """Count formula-cache hits and misses across every solver."""
    from repro.smt.solver import Solver

    counts = {"hits": 0, "misses": 0}
    original = Solver._check_sat

    def _check_sat(solver, formula):
        before = solver.statistics["cache_hits"], solver.statistics["cache_misses"]
        result = original(solver, formula)
        counts["hits"] += solver.statistics["cache_hits"] - before[0]
        counts["misses"] += solver.statistics["cache_misses"] - before[1]
        return result

    Solver._check_sat = _check_sat
    return counts


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    started = time.monotonic()
    clock = RefClock(calibrating=not args.trace)
    # Interpreter start and imports, before the clock existed.
    startup_ref = clock.to_ref(started - args.t0)
    clock.start_timer()
    try:
        return run_on(args, workload, Context(args.seed, args.seconds, clock),
                      startup_ref)
    finally:
        clock.stop_timer()


def run_on(args, workload, ctx: Context, startup_ref: float) -> dict:
    # Set-up includes the program imports the meters and tracer trigger.
    with ctx.clock.account("setup"):
        ctx.install_compile_meter()
        tracer = None
        if args.trace:
            from layers import LayerTracer

            tracer = ctx.tracer = LayerTracer()
            tracer.install()
            tracer.observers["explore"] = ctx.explorations.append
            cache = count_cache_lookups()
            before_setup = tracer.self_seconds()
        setup_start = time.perf_counter()
        state = workload.setup(ctx)
        setup_end = time.perf_counter()
    setup_wall_s = time.monotonic() - args.t0
    setup_s = (startup_ref + ctx.clock.ref("setup")) * REF_SECONDS
    if args.phase == "measure":
        if tracer:
            before = tracer.self_seconds()
        workload.measure(ctx, state)
        measure_s = time.perf_counter() - setup_end
        if tracer:
            ctx.layer_metrics.update(layer_metrics(tracer, args.workload))
            ctx.layer_metrics["trace.wall_coverage"] = (
                (tracer.self_seconds() - before) / measure_s)
            ctx.layer_metrics["trace.setup_coverage"] = (
                (before - before_setup) / (setup_end - setup_start))
            lookups = cache["hits"] + cache["misses"]
            ctx.layer_metrics["smt.cache.lookups"] = lookups
            ctx.layer_metrics["smt.cache.hit_ratio"] = (
                cache["hits"] / lookups if lookups else 0.0)
        ctx.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    ctx.record_compiles()
    return {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
            "attempted": ctx.attempted,
            "failures": ctx.failures, "metrics": ctx.metrics,
            "layer_metrics": ctx.layer_metrics, "samples": ctx.samples}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        result = run(args)
    stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
