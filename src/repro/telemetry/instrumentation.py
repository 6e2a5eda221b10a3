"""Phase timers and event counters: a view of the recorded spans.

The paper's speed claims (Table III) are wall-clock measurements of
whole simulations; to *explain* those numbers — how much time goes to
trace decoding versus the predict/train/track loop versus result
finalization — every layer records its work as :mod:`repro.tracing`
spans, and an :class:`Instrumentation` (itself a tracer) folds each
span its :class:`Vocabulary` names into a phase and each count into a
counter: one clock, so a phase is the summed duration of its spans.
This module alone decides which span names are phases.

The design rule is **zero overhead when disabled**: the default
instrumentation is a shared null object whose hooks are no-ops and
whose ``span`` / ``phase`` context managers are one reusable singleton,
and no per-branch hook exists at all — spans are per-run brackets, so
the hot loop of :func:`repro.core.simulator.simulate` is byte-for-byte
the same whether instrumentation is attached or not.  All timings use
``time.perf_counter`` (monotonic); wall-clock ``time.time`` is never
used for durations anywhere in the library.

>>> timers = PhaseTimers()
>>> timers.add_span("trace_read", 0.25)
>>> timers.add_span("trace_read", 0.25)
>>> timers.add_span("unit", 1.0)          # not a phase: structure only
>>> with timers.span("cache_lookup") as lookup:
...     lookup.count("cache_hit")
>>> timers.phases["trace_read"], sorted(timers.phases), timers.counters
(0.5, ['cache_lookup', 'trace_read'], {'cache_hit': 1})
>>> NULL_INSTRUMENTATION.enabled
False
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..tracing.span import NULL_SPAN, Tracer

__all__ = ["Instrumentation", "NULL_INSTRUMENTATION", "PhaseTimers",
           "ServeTimers", "Vocabulary", "LIBRARY_VOCABULARY"]


@dataclass(frozen=True)
class Vocabulary:
    """Which spans a view reads: ``phases`` maps a span name to the
    phase its duration accumulates into (other spans are structure
    only); ``counters`` maps a counted name to the counter it is kept
    under, dropping names it does not list (``None`` keeps them all)."""

    phases: Mapping[str, str]
    counters: Mapping[str, str] | None = None


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


#: Library runs: the simulators and baselines, the cache, execute_plan
#: (``batch_eval`` sums its ``batch_group`` spans) and the engine.
LIBRARY_VOCABULARY = Vocabulary(phases={
    **_same("trace_read", "simulate_loop", "finalize", "header_read",
            "core_run", "cache_lookup", "simulate", "engine_dispatch",
            "chunk_dispatch"),
    "batch_group": "batch_eval"})


class Instrumentation(Tracer):
    """Base class *and* null implementation of the instrumentation view.

    It implements the :class:`~repro.tracing.Tracer` hooks by folding
    each closed span that :attr:`vocabulary` lists into
    ``add_phase(phase, seconds)``, and each count into ``count(name,
    n)`` — the two hooks subclasses override (one that overrides only
    ``add_phase`` still sees every phase).  It mints no trace contexts
    and ignores spans shipped back from worker processes.

    This base class is the null object: it is disabled, so ``span`` and
    ``phase`` return one shared no-op handle and passing
    :data:`NULL_INSTRUMENTATION` (or leaving the default) costs a few
    attribute lookups per *run*, never per branch.
    """

    #: Which spans are phases; a subclass may read another vocabulary.
    vocabulary: Vocabulary = LIBRARY_VOCABULARY

    def add_span(self, name: str, seconds: float, **_fields: Any) -> None:
        """Fold one finished span into its phase, if it names one."""
        phase = self.vocabulary.phases.get(name)
        if phase is not None:
            self.add_phase(phase, seconds)

    def phase(self, name: str) -> Any:
        """Context manager timing phase ``name`` directly (no-op here)."""
        return NULL_SPAN

    def add_phase(self, name: str, seconds: float) -> None:
        """Record ``seconds`` of externally measured ``name`` time."""

    def count(self, name: str, n: int = 1) -> None:
        """Increment the event counter ``name`` by ``n``."""


#: The shared do-nothing instrumentation every simulator defaults to.
NULL_INSTRUMENTATION = Instrumentation()


class PhaseTimers(Instrumentation):
    """Accumulating phase timers and event counters.

    Re-entrant across runs: timing the same phase twice accumulates, so
    one ``PhaseTimers`` attached to a whole suite reports suite totals.
    ``clock`` (for :meth:`phase`) is injectable for deterministic tests
    and defaults to the monotonic ``time.perf_counter``.

    Thread-safe: plans run from several threads (the serve daemon's
    dispatch threads) may bump one shared instance at once, and a
    read-modify-write on a plain dict drops updates under that race —
    so every accumulate and every snapshot holds an internal lock.

    >>> ticks = iter([0.0, 1.5])
    >>> timers = PhaseTimers(clock=lambda: next(ticks))
    >>> with timers.phase("simulate_loop"):
    ...     pass
    >>> timers.phases["simulate_loop"]
    1.5
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        #: Accumulated seconds per phase name.
        self.phases: dict[str, float] = {}
        #: Event counts per counter name.
        self.counters: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager adding its elapsed time to phase ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            self.add_phase(name, self._clock() - start)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` against phase ``name``."""
        with self._lock:
            self.phases[name] = self.phases.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` (as the vocabulary keeps it) by
        ``n``."""
        if self.vocabulary.counters is not None:
            name = self.vocabulary.counters.get(name)
            if name is None:
                return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy of the current state (JSON-ready)."""
        with self._lock:
            return {"phases": dict(self.phases),
                    "counters": dict(self.counters)}

    def __repr__(self) -> str:
        return (f"PhaseTimers(phases={sorted(self.phases)}, "
                f"counters={sorted(self.counters)})")


class ServeTimers(PhaseTimers):
    """The serve daemon's ``stats`` view: its two phases and ``serve_*``
    counters, plus the batching counts of the plans it dispatches under
    a ``serve_`` prefix; the rest its plans record stays in the spans.

    >>> served = ServeTimers()
    >>> served.count("batch_groups", 2); served.count("task_dispatch")
    >>> served.counters
    {'serve_batch_groups': 2}
    """

    vocabulary = Vocabulary(
        phases=_same("serve_cache_lookup", "serve_dispatch"),
        counters={**_same("serve_requests", "serve_units",
                          "serve_coalesced", "serve_cache_hits",
                          "serve_cache_misses", "serve_timeouts",
                          "serve_rejected", "serve_errors"),
                  **{name: f"serve_{name}" for name in (
                      "batch_groups", "batch_units", "context_reuse")}})
