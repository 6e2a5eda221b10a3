"""Work-plan intermediate representation for the execution pipeline.

Every multi-run driver in the library — :func:`repro.core.batch.run_suite`,
the sweeps and searches in :mod:`repro.analysis`, the serve daemon's
suite/sweep operations and the ``mbp suite|sweep`` CLI — ultimately wants
the same thing: *simulate this set of (predictor configuration, trace)
pairs and give me the outcomes in a known order*.  Historically each
caller assembled that task list itself, with four slightly different
code paths around caching, worker pools and failure isolation.

This module is the single funnel they all lower into:

* :class:`WorkUnit` — one schedulable simulation: a predictor factory, a
  trace, a display name, the simulation config, the probe flag, the
  simulation engine, and an opaque integer ``tag`` callers use to group
  units back into higher-level results (the sweep point index, the
  search candidate index, ...).
* :class:`WorkPlan` — an ordered, immutable sequence of work units with
  lowering constructors (:meth:`WorkPlan.for_suite`,
  :meth:`WorkPlan.for_points`) and grouping helpers.
* :func:`execute_plan` — runs a plan through the cache, then through one
  of the two execution backends (inline, or an
  :class:`~repro.core.engine.ExecutionEngine` with adaptive chunked
  dispatch — the caller's, or a private one :func:`engine_scope` opens
  for ``workers > 1``), preserving per-unit failure isolation and
  returning outcomes in plan order.  Both backends run batch groups
  through one shared sequence (:func:`_run_batch_group`).

The IR deliberately carries *no* scheduling policy: chunking, windowing
and worker counts live in the backends, so the same plan is byte-for-byte
reproducible serially and in parallel (the differential property the
test suite pins).
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, Union

from ..sbbt.trace import TraceData
from ..tracing import join_recorders
from .output import SimulationResult
from .predictor import Predictor, derive_spec
from .simulator import SimulationConfig, _resolve_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.instrumentation import Instrumentation
    from .batch import CacheLike
    from .engine import ExecutionEngine

__all__ = [
    "WorkUnit",
    "WorkPlan",
    "execute_plan",
    "engine_scope",
    "default_trace_names",
    "normalize_batch",
    "normalize_chunk",
]

PredictorFactory = Callable[[], Predictor]
TraceLike = Union[TraceData, str, Path]

#: Outcome of one work unit: a result or a per-unit failure record.
Outcome = Any


def default_trace_names(traces: Sequence[TraceLike]) -> list[str]:
    """The display names :func:`run_suite` has always defaulted to:
    the path string for file traces, ``trace[i]`` for in-memory data."""
    return [
        str(t) if not isinstance(t, TraceData) else f"trace[{i}]"
        for i, t in enumerate(traces)
    ]


def normalize_chunk(chunk: int | str) -> int | None:
    """Validate a chunk spec: ``"auto"`` -> ``None`` (adaptive sizing),
    an integer (or integer string) >= 1 -> that fixed size."""
    if chunk == "auto":
        return None
    try:
        size = int(chunk)
        if size != float(chunk):  # reject silent truncation (2.5 -> 2)
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            f"chunk must be 'auto' or a positive integer, got {chunk!r}"
        ) from None
    if size < 1:
        raise ValueError(f"chunk must be >= 1, got {size}")
    return size


def normalize_batch(batch: str | bool) -> bool:
    """Validate a batch spec: ``"auto"`` (group batchable units per
    trace) -> True, ``"off"`` (always per-unit) -> False."""
    if batch in ("auto", True):
        return True
    if batch in ("off", False):
        return False
    raise ValueError(f"batch must be 'auto' or 'off', got {batch!r}")


@dataclass(frozen=True, slots=True)
class WorkUnit:
    """One schedulable simulation of the pipeline IR.

    ``tag`` is an opaque grouping key owned by the caller that lowered
    the plan — sweep point index, search candidate index, request slot —
    and travels untouched through every backend.
    """

    factory: PredictorFactory
    trace: TraceLike
    name: str
    config: SimulationConfig
    probe: bool = False
    sim_engine: str = "scalar"
    tag: int = 0


@dataclass(frozen=True, slots=True)
class WorkPlan:
    """An ordered, immutable batch of :class:`WorkUnit`.

    Plan order *is* result order: every backend returns (or yields
    indices into) outcomes positionally aligned with ``units``.
    """

    units: tuple[WorkUnit, ...]

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[WorkUnit]:
        return iter(self.units)

    def __getitem__(self, index: int) -> WorkUnit:
        return self.units[index]

    # ------------------------------------------------------------------
    # Lowering constructors.
    # ------------------------------------------------------------------

    @classmethod
    def for_suite(cls, factory: PredictorFactory,
                  traces: Sequence[TraceLike],
                  config: SimulationConfig | None = None, *,
                  names: Sequence[str] | None = None,
                  probe: bool = False,
                  sim_engine: str = "scalar",
                  tag: int = 0) -> "WorkPlan":
        """Lower one predictor over a trace suite (``run_suite`` shape)."""
        config = config or SimulationConfig()
        if names is not None and len(names) != len(traces):
            raise ValueError("names and traces must have the same length")
        resolved = list(names) if names is not None else \
            default_trace_names(traces)
        return cls(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=name, config=config,
                     probe=probe, sim_engine=sim_engine, tag=tag)
            for trace, name in zip(traces, resolved)
        ))

    @classmethod
    def for_points(cls, factories: Sequence[tuple[int, PredictorFactory]],
                   traces: Sequence[TraceLike],
                   config: SimulationConfig | None = None, *,
                   names: Sequence[str] | None = None,
                   probe: bool = False,
                   sim_engine: str = "scalar") -> "WorkPlan":
        """Lower many configurations over one trace set (sweep/search
        shape): the full cross product, grouped by the given tags, trace
        order preserved within each tag."""
        config = config or SimulationConfig()
        if names is not None and len(names) != len(traces):
            raise ValueError("names and traces must have the same length")
        resolved = list(names) if names is not None else \
            default_trace_names(traces)
        return cls(units=tuple(
            WorkUnit(factory=factory, trace=trace, name=name, config=config,
                     probe=probe, sim_engine=sim_engine, tag=tag)
            for tag, factory in factories
            for trace, name in zip(traces, resolved)
        ))

    # ------------------------------------------------------------------
    # Structure helpers.
    # ------------------------------------------------------------------

    def subset(self, indices: Sequence[int]) -> "WorkPlan":
        """A new plan of the units at ``indices``, in that order."""
        return WorkPlan(units=tuple(self.units[i] for i in indices))

    def tags(self) -> list[int]:
        """Distinct tags in first-appearance order."""
        seen: dict[int, None] = {}
        for unit in self.units:
            seen.setdefault(unit.tag, None)
        return list(seen)

    def group_outcomes(self, outcomes: Sequence[Outcome],
                       ) -> dict[int, list[Outcome]]:
        """Outcomes regrouped per tag (plan order within each tag)."""
        if len(outcomes) != len(self.units):
            raise ValueError(
                f"expected {len(self.units)} outcomes, got {len(outcomes)}")
        grouped: dict[int, list[Outcome]] = {}
        for unit, outcome in zip(self.units, outcomes):
            grouped.setdefault(unit.tag, []).append(outcome)
        return grouped


# ----------------------------------------------------------------------
# Plan execution: the single cache + dispatch funnel.
# ----------------------------------------------------------------------


def _batch_groups(plan: WorkPlan, indices: Sequence[int],
                  ) -> tuple[list[list[int]], list[int]]:
    """Partition cache-missed unit indices into per-trace batch groups.

    A unit is *batchable* when its ``sim_engine`` admits the vectorized
    engine (``"vectorized"`` or ``"auto"``).  Batchable units sharing a
    trace — same :class:`~repro.sbbt.trace.TraceData` object, or the
    same path string — form one group; groups of at least two units are
    worth a batched pass (the whole point is amortizing the trace
    context across configs), singletons and non-batchable units stay on
    the per-unit path.  Returns ``(groups, loose)`` with ``loose``
    sorted back into plan order.
    """
    buckets: dict[Any, list[int]] = {}
    loose: list[int] = []
    for i in indices:
        unit = plan[i]
        if unit.sim_engine not in ("vectorized", "auto"):
            loose.append(i)
            continue
        trace = unit.trace
        key = (("data", id(trace)) if isinstance(trace, TraceData)
               else ("path", str(trace)))
        buckets.setdefault(key, []).append(i)
    groups: list[list[int]] = []
    for members in buckets.values():
        if len(members) >= 2:
            groups.append(members)
        else:
            loose.extend(members)
    loose.sort()
    return groups, loose


@contextmanager
def engine_scope(engine: "ExecutionEngine | None",
                 workers: int) -> "Iterator[ExecutionEngine | None]":
    """Yield the engine a driver should dispatch through.

    A caller-provided ``engine`` is yielded as-is (the caller owns its
    lifecycle).  Otherwise, ``workers > 1`` opens a *private*
    :class:`~repro.core.engine.ExecutionEngine` that lives exactly as
    long as the ``with`` block — one pool and one trace shipment for
    everything dispatched inside it — and ``workers == 1`` yields
    ``None`` (serial in-process execution).
    """
    if engine is not None or workers <= 1:
        yield engine
        return
    from .engine import ExecutionEngine
    with ExecutionEngine(workers=workers) as own:
        yield own


def _run_batch_group(fetch: Callable[[], tuple[TraceData, Any]],
                     units: Sequence[tuple],
                     ) -> tuple[list[Outcome], Any, int, int]:
    """Run one batch group: the sequence both backends share.

    ``fetch`` returns ``(trace data, extra)``: the inline backend passes
    :func:`~repro.core.simulator._resolve_trace`, an engine worker
    :func:`~repro.core.engine._attach_resident`.  The trace is fetched
    once; a fetch failure becomes every member's
    :class:`~repro.core.batch.TraceFailure` (the record each would have
    produced alone).  Otherwise ``units`` — the
    :func:`~repro.core.vectorized.run_unit_group` tuples — run in
    stacked passes.  Returns ``(outcomes, extra, failed,
    context_reuse)``, with ``extra`` ``None`` when the fetch failed.
    """
    from .batch import TraceFailure
    from .vectorized import run_unit_group

    try:
        data, extra = fetch()
    except Exception as exc:  # noqa: BLE001 - per-unit isolation
        return ([TraceFailure.from_exception(unit[2], exc) for unit in units],
                None, len(units), 0)
    outcomes, info = run_unit_group(data, units)
    failed = sum(1 for o in outcomes if not isinstance(o, SimulationResult))
    return outcomes, extra, failed, int(info.get("context_reuse", 0))


def execute_plan(plan: WorkPlan, *,
                 workers: int = 1,
                 engine: "ExecutionEngine | None" = None,
                 cache: "CacheLike" = None,
                 instrumentation: "Instrumentation | None" = None,
                 chunk: int | str = "auto",
                 batch: str | bool = "auto",
                 tracer: "Any" = None,
                 trace_parent: "Any" = None,
                 ) -> list[Outcome]:
    """Execute every unit of ``plan``; return outcomes in plan order.

    Each outcome is a :class:`~repro.core.output.SimulationResult` or a
    :class:`~repro.core.batch.TraceFailure` — per-unit failure isolation
    holds on every backend, so one bad trace or predictor bug never
    aborts the rest of the plan.

    There are two backends.  A caller-owned ``engine`` runs the units
    on its persistent pool with resident traces and adaptive chunked
    dispatch (see :meth:`~repro.core.engine.ExecutionEngine.run_plan`).
    Without one, ``workers > 1`` and more than one pending unit open a
    private engine for the length of this call (:func:`engine_scope`);
    otherwise units run inline.  ``chunk`` (``"auto"`` or a fixed size
    >= 1) is forwarded to the engine and ignored inline.

    With ``batch="auto"`` (the default), cache-missed units that share
    a trace and admit the vectorized engine are evaluated in *batched
    groups*: the trace is resolved once per group and
    :func:`repro.core.vectorized.run_unit_group` runs every config over
    the shared trace context in stacked numpy passes.  Each unit still
    produces its own outcome and cache entry, byte-identical (up to
    wall clock) to the per-unit path.  Inline, groups form here; on an
    engine, ``batch`` is forwarded and workers batch within each chunk.
    ``batch="off"`` forces the per-unit path everywhere.

    With ``cache=`` (a :class:`repro.cache.SimulationCache` or directory
    path) cached units are answered without simulating and fresh results
    are stored.  Specs are derived once per distinct factory object, and
    the derivation's cold predictor instance is reused for that factory's
    first inline simulation (the ``derive_spec`` cheap-keying contract).

    ``tracer`` (a :mod:`repro.tracing` object) and ``instrumentation``
    (a :mod:`repro.telemetry` view) are joined into one recorder
    (:func:`~repro.tracing.join_recorders`; both default to off).  It
    receives an ``execute_plan`` span (nested under ``trace_parent``
    when given, counting ``trace_failure``), a ``cache_lookup`` child
    counting ``cache_hit`` / ``cache_miss``, and — when units are
    pending — a ``simulate`` child.  Under it the inline backend emits
    one ``unit`` span per simulation and one ``batch_group`` span per
    group (counting ``context_reuse``; the ``simulate`` span counts
    ``batch_groups`` / ``batch_units``), and the engine backend its
    dispatch/worker span tree (contexts cross the process boundary on
    the chunk payloads).  Phase timers read these as the
    ``cache_lookup``, ``simulate`` and ``batch_eval`` phases.
    """
    from .batch import TraceFailure, _resolve_cache, _run_one

    normalize_chunk(chunk)  # validate early, uniformly for all backends
    use_batch = normalize_batch(batch)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rec = join_recorders(tracer, instrumentation)
    store = _resolve_cache(cache)

    slots: list[Outcome | None] = [None] * len(plan)
    keys: list[str | None] = [None] * len(plan)
    pending: list[int] = []
    # Per-factory derivation artifacts: id(factory) -> (spec, cold
    # instance or None).  Factories are kept alive by the plan, so ids
    # are stable for the duration of this call.
    derived: dict[int, tuple[dict[str, Any], Predictor | None]] = {}

    def _derive(factory: PredictorFactory,
                ) -> tuple[dict[str, Any], Predictor | None]:
        entry = derived.get(id(factory))
        if entry is None:
            entry = derive_spec(factory)
            derived[id(factory)] = entry
        return entry

    def _take_prebuilt(factory: PredictorFactory) -> Predictor | None:
        """The derivation instance, at most once per factory (it is cold
        exactly once — reusing a trained predictor would corrupt runs)."""
        entry = derived.get(id(factory))
        if entry is None or entry[1] is None:
            return None
        derived[id(factory)] = (entry[0], None)
        return entry[1]

    with rec.span("execute_plan", parent=trace_parent,
                  attributes={"units": len(plan),
                              "workers": workers}) as plan_span:
        if store is not None:
            with rec.span("cache_lookup",
                          parent=plan_span.context) as lookup_span:
                for i, unit in enumerate(plan):
                    spec, _ = _derive(unit.factory)
                    try:
                        key = store.key_for(unit.trace, spec, unit.config)
                    except Exception as exc:  # noqa: BLE001 - bad trace
                        slots[i] = TraceFailure.from_exception(unit.name, exc)
                        continue
                    keys[i] = key
                    hit = store.get(key)
                    if hit is not None:
                        hit.trace_name = unit.name
                        slots[i] = hit
                    else:
                        pending.append(i)
                lookup_span.count("cache_hit", sum(
                    1 for s in slots if isinstance(s, SimulationResult)))
                lookup_span.count("cache_miss", len(pending))
        else:
            pending = list(range(len(plan)))

        if pending:
            with rec.span("simulate", parent=plan_span.context,
                          attributes={"pending": len(pending)}) as sim, \
                    engine_scope(engine, workers if len(pending) > 1
                                 else 1) as backend:
                if backend is not None:
                    for position, outcome in backend.run_plan(
                            plan.subset(pending), chunk=chunk,
                            batch=batch, tracer=rec,
                            trace_parent=sim.context):
                        slots[pending[position]] = outcome
                else:
                    groups, loose = (_batch_groups(plan, pending)
                                     if use_batch else ([], list(pending)))
                    if groups:
                        sim.count("batch_groups", len(groups))
                        sim.count("batch_units", sum(len(m) for m in groups))
                    for members in groups:
                        first = plan[members[0]]
                        fetch = functools.partial(_resolve_trace, first.trace)
                        units = [(plan[i].factory, plan[i].config,
                                  plan[i].name, plan[i].probe,
                                  plan[i].sim_engine,
                                  _take_prebuilt(plan[i].factory))
                                 for i in members]
                        with rec.span(
                                "batch_group", parent=sim.context,
                                attributes={"units": len(members),
                                            "trace": first.name},
                        ) as group_span:
                            outcomes, fetched, failed, reuse = \
                                _run_batch_group(fetch, units)
                            if fetched is None:
                                group_span.set_status("error")
                            elif failed:
                                group_span.set_attribute("failures", failed)
                            if reuse:
                                group_span.count("context_reuse", reuse)
                        for i, outcome in zip(members, outcomes):
                            slots[i] = outcome
                    for i in loose:
                        unit = plan[i]
                        with rec.span(
                                "unit", parent=sim.context,
                                attributes={"unit": unit.name}) as unit_span:
                            outcome = _run_one(
                                unit.factory, unit.trace, unit.config,
                                unit.name, unit.probe,
                                predictor=_take_prebuilt(unit.factory),
                                sim_engine=unit.sim_engine)
                            if not isinstance(outcome, SimulationResult):
                                unit_span.set_status("error")
                            slots[i] = outcome
                if store is not None:
                    for i in pending:
                        outcome = slots[i]
                        if isinstance(outcome, SimulationResult) and keys[i]:
                            store.put(keys[i], outcome)
        failed = sum(1 for s in slots if not isinstance(s, SimulationResult))
        if failed:
            plan_span.count("trace_failure", failed)
    return list(slots)


def chunk_cost_size(ema_seconds: float | None, remaining: int,
                    workers: int, *, target_seconds: float,
                    max_chunk: int) -> int:
    """Adaptive chunk size from the measured per-unit cost.

    Cold (no measurement yet) -> 1: the first wave runs as singleton
    probe chunks whose timings seed the estimate.  Warm -> enough units
    to keep a worker busy for ~``target_seconds`` per round-trip, capped
    by ``max_chunk`` and by an even split of the remaining units across
    the workers (so the tail of a plan still parallelizes instead of
    landing on one worker as a single giant chunk).
    """
    if remaining <= 0:
        return 0
    if ema_seconds is None:
        return 1
    size = max(1, round(target_seconds / max(ema_seconds, 1e-9)))
    size = min(size, max_chunk, math.ceil(remaining / max(workers, 1)))
    return max(1, size)
