"""One record: phases and counters are a view of the recorded spans.

Two groups of tests:

* :class:`TestVocabularyPins` pins the exact phase key sets and counter
  dicts that the library's entry points report today, so a change to
  how sites record cannot silently add, drop or rename a key;
* :class:`TestPhasesAreSpans` attaches a :class:`PhaseTimers` and a
  :class:`SpanRecorder` to one plan and checks that each phase is the
  summed duration of the spans it is named after, and each counter the
  summed ``count`` attribute of those spans — one clock, one record.
"""

from __future__ import annotations

import functools

import pytest

from repro.cache import SimulationCache
from repro.core.engine import ExecutionEngine
from repro.core.plan import WorkPlan, execute_plan
from repro.predictors import Bimodal, GShare
from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, start_in_thread
from repro.telemetry import PhaseTimers
from repro.tracing import SpanRecorder

#: Picklable sweep points over one predictor (engine workers need them).
GSHARE_POINTS = [(0, functools.partial(GShare, 4, 10)),
                 (1, functools.partial(GShare, 8, 10))]


@pytest.fixture(scope="module")
def trace_paths(tmp_path_factory, small_trace, server_trace):
    directory = tmp_path_factory.mktemp("one-record")
    paths = []
    for name, trace in (("a", small_trace), ("b", server_trace)):
        path = directory / f"{name}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


class TestVocabularyPins:
    def test_inline_plan_with_cache(self, trace_paths, tmp_path):
        timers = PhaseTimers()
        execute_plan(WorkPlan.for_suite(Bimodal, trace_paths),
                     cache=SimulationCache(tmp_path), batch="off",
                     instrumentation=timers)
        assert set(timers.phases) == {"cache_lookup", "simulate"}
        assert timers.counters == {"cache_hit": 0, "cache_miss": 2}

    def test_inline_plan_with_batch_groups(self, trace_paths, tmp_path):
        timers = PhaseTimers()
        execute_plan(WorkPlan.for_points(GSHARE_POINTS, trace_paths,
                                         sim_engine="auto"),
                     cache=SimulationCache(tmp_path), instrumentation=timers)
        assert set(timers.phases) == {"cache_lookup", "batch_eval",
                                      "simulate"}
        counters = dict(timers.counters)
        assert counters.pop("context_reuse") > 0
        assert counters == {"cache_hit": 0, "cache_miss": 4,
                            "batch_groups": 2, "batch_units": 4}

    def test_engine_plan(self, trace_paths):
        timers = PhaseTimers()
        with ExecutionEngine(workers=2) as engine:
            execute_plan(WorkPlan.for_suite(Bimodal, trace_paths),
                         engine=engine, chunk=2, instrumentation=timers)
        assert set(timers.phases) == {"engine_dispatch", "chunk_dispatch",
                                      "simulate"}
        counters = dict(timers.counters)
        # Which worker attaches a trace first, and so how the two units
        # split into attaches and reuses, is up to the pool.
        assert counters.pop("trace_attach") + counters.pop(
            "trace_reuse", 0) == 2
        assert counters == {"task_dispatch": 2, "task_chunk": 1,
                            "chunk_size": 2, "trace_ship": 2}

    def test_serve_stats(self, trace_paths, tmp_path):
        handle = start_in_thread(ServeConfig(
            socket_path=str(tmp_path / "mbp.sock"), workers=0,
            cache_dir=str(tmp_path / "cache")))
        try:
            with MbpClient(socket_path=handle.socket_path) as client:
                client.simulate(trace_paths[0], "gshare")
                client.simulate(trace_paths[0], "gshare")
                stats = client.stats()
        finally:
            handle.stop()
        assert set(stats["phases"]) == {"serve_cache_lookup",
                                        "serve_dispatch"}
        assert stats["counters"] == {
            "serve_requests": 3, "serve_units": 2, "serve_cache_hits": 1,
            "serve_cache_misses": 1}


class TestPhasesAreSpans:
    #: Span name -> the phase its duration accumulates into.
    SHARED = {"cache_lookup": "cache_lookup", "simulate": "simulate",
              "batch_group": "batch_eval"}

    def test_one_clock_per_interval(self, trace_paths, tmp_path):
        traces = trace_paths + [str(tmp_path / "missing.sbbt")]
        timers = PhaseTimers()
        recorder = SpanRecorder()
        outcomes = execute_plan(WorkPlan.for_points(GSHARE_POINTS, traces,
                                                   sim_engine="auto"),
                                cache=SimulationCache(tmp_path / "cache"),
                                instrumentation=timers, tracer=recorder)
        assert sum(1 for o in outcomes if not hasattr(o, "mpki")) == 2
        spans = recorder.spans
        assert set(timers.phases) == set(self.SHARED.values())
        for span_name, phase in self.SHARED.items():
            durations = [s.duration for s in spans if s.name == span_name]
            assert durations, span_name
            assert timers.phases[phase] == pytest.approx(
                sum(durations), rel=1e-12, abs=0.0), phase
        assert set(timers.counters) == {"cache_hit", "cache_miss",
                                        "batch_groups", "batch_units",
                                        "context_reuse", "trace_failure"}
        for name, value in timers.counters.items():
            assert sum(s.attributes.get(name, 0) for s in spans) == value, \
                name
