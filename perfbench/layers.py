"""Per-layer tracing from outside the program.

Each layer is one or more public functions of ``repro``.  :class:`LayerTracer`
replaces every reference to such a function -- the defining module's
attribute and every ``from ... import`` copy in other loaded ``repro``
modules, or the method on its class -- with a wrapper that opens a span.
A span's *self time* is its duration minus the durations of the spans it
directly contains, so self times of all layers add up to at most the wall
time they were measured in.

A call that re-enters the layer of the innermost open span (direct or mutual
recursion inside one layer) does not open a new span: its time is already
inside that span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute) -- ``attribute`` may be ``Class.method``.
#: The layer names are the metric prefixes listed in BENCHMARK.json.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_monitor"),
    ("analysis.invariants", "repro.analysis.invariants", "infer_monitor_invariant"),
    ("analysis.abduction", "repro.analysis.abduction", "abduce"),
    ("smt.qe", "repro.smt.qe", "eliminate_exists"),
    ("smt.qe", "repro.smt.qe", "eliminate_forall"),
    ("logic.simplify", "repro.logic.simplify", "simplify"),
    ("smt.solver", "repro.smt.solver", "Solver.check_sat"),
    ("smt.solver", "repro.smt.solver", "Solver.check_valid"),
    ("placement", "repro.placement.algorithm", "place_signals"),
    ("analysis.commutativity", "repro.analysis.commutativity", "ccr_commutes_with_all"),
    ("analysis.commutativity.matrix", "repro.analysis.commutativity",
     "semantic_independence_for_explicit"),
    ("placement.instrument", "repro.placement.instrument", "instrument"),
    ("analysis.lint", "repro.analysis.lint", "lint_explicit"),
    ("compile", "repro.placement.pipeline", "ExpressoPipeline.compile"),
    ("codegen.generate", "repro.codegen.python_gen", "generate_python_explicit"),
    ("codegen.generate", "repro.codegen.python_gen", "generate_python_autosynch"),
    ("codegen.generate", "repro.codegen.python_gen", "materialize_class"),
    ("explore", "repro.explore.engine", "explore_class"),
    ("explore.scheduler", "repro.explore.scheduler", "run_schedule"),
    ("explore.oracle", "repro.explore.oracle", "OracleCache.judge"),
    ("explore.oracle", "repro.explore.oracle", "OracleCache.judge_partial"),
    ("explore.reduce", "repro.explore.reduce", "ddmin"),
    ("explore.mutation", "repro.explore.parallel", "mutation_campaign"),
    ("fuzz.campaign", "repro.fuzz.campaign", "run_campaign"),
    ("fuzz.generate", "repro.fuzz.generate", "random_monitor"),
    ("fuzz.mutate", "repro.fuzz.mutate", "apply_operator"),
    ("fuzz.coverage", "repro.fuzz.coverage", "run_features"),
    ("fuzz.corpus", "repro.fuzz.corpus", "CorpusStore.save_entry"),
    ("fuzz.corpus", "repro.fuzz.corpus", "CorpusStore.save_state"),
    ("distrib.store", "repro.distrib.store", "CampaignStore.transaction"),
    ("harness.saturation", "repro.harness.saturation", "run_saturation"),
)

#: Layers whose per-call durations are kept for percentiles.
_DURATION_LAYERS = frozenset({"smt.solver"})


class LayerStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: List[float] = []


class _Frame:
    __slots__ = ("layer", "children")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.children = 0.0


class LayerTracer:
    """Installs the layer wrappers and accumulates per-layer statistics.

    ``observers`` maps a layer to a callback that receives the return value
    of each call that opened a span; workloads use it to read counts off
    the objects a layer returns.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {layer: LayerStats() for layer, _m, _a in LAYERS}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.observers: Dict[str, Callable] = {}

    # -- span accounting ------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str):
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return None
        frame = _Frame(layer)
        stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, token) -> None:
        frame, start = token
        duration = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children += duration
        stats = self.stats[frame.layer]
        with self._lock:
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - frame.children
            if frame.layer in _DURATION_LAYERS:
                stats.durations.append(duration)

    def _wrap(self, layer: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = tracer._enter(layer)
            if token is None:
                return function(*args, **kwargs)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(token)
            observer = tracer.observers.get(layer)
            if observer is not None:
                observer(result)
            return result

        return traced

    def _wrap_context(self, layer: str, function: Callable) -> Callable:
        """Wrap a method returning a context manager: the span covers the
        ``with`` block, not just the call that builds the manager."""
        tracer = self

        class _Span:
            def __init__(self, manager) -> None:
                self.manager = manager
                self.token = None

            def __enter__(self):
                self.token = tracer._enter(layer)
                try:
                    return self.manager.__enter__()
                except BaseException:
                    if self.token is not None:
                        tracer._exit(self.token)
                        self.token = None
                    raise

            def __exit__(self, *exc_info):
                try:
                    return self.manager.__exit__(*exc_info)
                finally:
                    if self.token is not None:
                        tracer._exit(self.token)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return _Span(function(*args, **kwargs))

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under each name it is looked up by."""
        for layer, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method_name = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method_name]
                wrap = (self._wrap_context if method_name == "transaction"
                        else self._wrap)
                setattr(owner, method_name, wrap(layer, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

    # -- reading --------------------------------------------------------------

    def self_seconds(self) -> float:
        """Self time of all layers so far: spans cover it without overlap."""
        with self._lock:
            return sum(stats.self_time for stats in self.stats.values())
