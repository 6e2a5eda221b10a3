"""Layer timing from outside the program.

In-process workloads: :class:`LayerClock` wraps the public functions of
each layer (every binding of the function object across ``repro.*``
modules, so ``from x import f`` call sites are covered too) and keeps
a stack, so each layer is charged its *self* time: inclusive time
minus the time of wrapped calls nested inside it.  Predictor methods
are wrapped per instance by :meth:`LayerClock.traced_factory`.  Nothing
in the program is edited; the wrappers are removed after the traced
pass.

serve-mix: the daemon runs in its own process, so its layers come
from the spans it already writes with ``--trace-dir``
(:func:`span_layer_seconds`).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: (module, attribute, timer key) of every wrapped module function.
FUNCTIONS = (
    ("repro.sbbt.reader", "read_trace", "sbbt.read"),
    ("repro.core.simulator", "simulate", "simulator.scalar"),
    ("repro.core.vectorized", "simulate_vectorized", "vectorized.group"),
    ("repro.core.vectorized", "run_unit_group", "vectorized.group"),
    ("repro.core.vectorized", "stacked_saturating_runs",
     "vectorized.stacked"),
    ("repro.core.vectorized", "global_history_windows",
     "vectorized.history"),
    ("repro.core.vectorized", "segmented_history_windows",
     "vectorized.history"),
    ("repro.core.vectorized", "xor_fold_array", "vectorized.history"),
    ("repro.core.vectorized", "clamped_walk_states", "vectorized.walk"),
    ("repro.core.plan", "execute_plan", "plan.execute"),
    ("repro.analysis.sweep", "evaluate_param_sets", "plan.execute"),
)

#: (module, class, method, timer key) of every wrapped method.
METHODS = (
    ("repro.core.vectorized", "GskewKernel", "run", "vectorized.hybrid"),
    ("repro.core.vectorized", "YagsKernel", "run", "vectorized.hybrid"),
    ("repro.core.vectorized", "TournamentKernel", "run",
     "vectorized.hybrid"),
)

#: Predictors whose predict/train/track are timed per call.
TIMED_PREDICTORS = ("tage", "batage", "perceptron")


class LayerClock:
    """Self-time accounting for nested wrapped calls (one thread)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.scalar_branches = 0
        # One cell per open wrapped call: time of its wrapped children.
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        seconds = self.seconds
        calls = self.calls
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                seconds[key] += elapsed - cell[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed

        timed.__wrapped__ = fn
        return timed

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module_name, attr, key in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap_simulate(original) if attr == "simulate" \
                else self.wrap(key, original)
            for module in _repro_modules():
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)
        for module_name, cls_name, method, key in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, method, self.wrap(key, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_simulate(self, original: Callable) -> Callable:
        """``simulate`` counts the branches its scalar loop walked:
        calls that dispatched to the vectorized engine don't count."""
        timed = self.wrap("simulator.scalar", original)
        calls = self.calls

        def simulate(*args: Any, **kwargs: Any) -> Any:
            before = calls["vectorized.group"]
            result = timed(*args, **kwargs)
            if calls["vectorized.group"] == before:
                self.scalar_branches += result.num_branch_instructions
            return result

        return simulate

    def traced_factory(self, name: str, factory: Callable) -> Callable:
        """A factory whose construction time is charged to predictors
        and whose instances time predict/train/track per call."""
        build = self.wrap("predictors.build", factory)
        timed = name in TIMED_PREDICTORS

        def make(*args: Any, **kwargs: Any) -> Any:
            predictor = build(*args, **kwargs)
            if timed:
                for method in ("predict", "train", "track"):
                    setattr(predictor, method, self.wrap(
                        f"predictors.{name}.{method}",
                        getattr(predictor, method)))
            return predictor

        return make

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer (the key's first component)."""
        layers: dict[str, float] = defaultdict(float)
        for key, seconds in self.seconds.items():
            layers[key.split(".", 1)[0]] += seconds
        return dict(layers)


def _repro_modules() -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro"
                                       or name.startswith("repro."))]


# ----------------------------------------------------------------------
# Span-based accounting (serve-mix).
# ----------------------------------------------------------------------

#: Span name -> layer, for the daemon's and its workers' spans.
SPAN_LAYERS = {
    "serve_request": "serve", "serve_queue": "serve",
    "serve_unit": "serve", "serve_compute": "serve",
    "serve_reply": "serve", "serve_batch_prewarm": "serve",
    "serve_cache_lookup": "cache", "cache_lookup": "cache",
    "serve_dispatch": "engine", "attach": "engine", "unit": "engine",
    "execute_plan": "plan", "batch_group": "vectorized",
}


def span_layer(span: Any) -> str:
    """The layer a span's self time belongs to.  Both the plan funnel
    and engine workers name a span ``simulate``; the worker's carries a
    ``sim_engine`` attribute and is the simulation itself (every
    serve-mix predictor has a vector kernel)."""
    if span.name == "simulate":
        return "vectorized" if "sim_engine" in span.attributes else "plan"
    return SPAN_LAYERS.get(span.name, "serve")


def span_self_seconds(spans: Iterable[Any]) -> dict[str, float]:
    """Self seconds per span id, summing exactly to the root spans'
    durations.

    A span's children may overlap each other (a chunk's units are in
    flight together), so they are charged their share of the time the
    children cover together, not their summed durations: with children
    covering ``U`` seconds of their parent and lasting ``S`` seconds in
    total, each child is scaled by ``min(1, U / S)``, and the scale
    carries down its subtree.  The parent keeps the rest.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list[Any]] = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent_id in by_id:
            children[span.parent_id].append(span)
        else:
            roots.append(span)
    own: dict[str, float] = {}
    frontier = [(root, root.duration) for root in roots]
    while frontier:
        span, effective = frontier.pop()
        kids = children.get(span.span_id, [])
        scale = effective / span.duration if span.duration > 0 else 0.0
        total = sum(kid.duration for kid in kids)
        if total > 0:
            scale *= min(1.0, _covered(span, kids) / total)
        charged = 0.0
        for kid in kids:
            frontier.append((kid, kid.duration * scale))
            charged += kid.duration * scale
        own[span.span_id] = effective - charged
    return own


def _covered(parent: Any, kids: list[Any]) -> float:
    """Seconds of ``parent`` covered by the union of ``kids``."""
    lo, hi = parent.start, parent.start + parent.duration
    intervals = sorted((max(lo, k.start), min(hi, k.start + k.duration))
                       for k in kids)
    covered = 0.0
    end = lo
    for start, stop in intervals:
        start = max(start, end)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def span_layer_seconds(spans: Iterable[Any]) -> dict[str, float]:
    spans = list(spans)
    own = span_self_seconds(spans)
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        layers[span_layer(span)] += own[span.span_id]
    return dict(layers)
