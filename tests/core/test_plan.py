"""The work-plan IR and its execution funnel (repro.core.plan).

Covers the ISSUE-8 tentpole: every driver lowers into one
WorkPlan/WorkUnit IR, ``execute_plan`` is the single cache + dispatch
funnel, and chunked engine dispatch is byte-identical to the serial
path.
"""

import json

import pytest

from repro.cache import SimulationCache
from repro.core.batch import TraceFailure, run_suite
from repro.core.engine import ExecutionEngine
from repro.core.output import SimulationResult
from repro.core.plan import (WorkPlan, WorkUnit, chunk_cost_size,
                             default_trace_names, engine_scope,
                             execute_plan, normalize_chunk)
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal, GShare
from repro.telemetry import PhaseTimers
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def bimodal_factory():
    return Bimodal(log_table_size=10)


def gshare_factory():
    return GShare(history_length=8, log_table_size=10)


def long_gshare_factory():
    return GShare(history_length=12, log_table_size=10)


@pytest.fixture(scope="module")
def traces():
    return [generate_trace(PROFILES["short_mobile"], seed=700 + i,
                           num_branches=1200)
            for i in range(4)]


def _comparable(result):
    document = result.to_json()
    document["metrics"].pop("simulation_time")
    return json.dumps(document, sort_keys=True)


class TestNormalizeChunk:
    def test_auto_means_adaptive(self):
        assert normalize_chunk("auto") is None

    def test_integers_pass_through(self):
        assert normalize_chunk(1) == 1
        assert normalize_chunk(7) == 7
        assert normalize_chunk("5") == 5

    @pytest.mark.parametrize("bad", [0, -3, "0", "sometimes", None, 2.5])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            normalize_chunk(bad)


class TestChunkCostSize:
    def test_cold_start_probes_singletons(self):
        assert chunk_cost_size(None, 100, 4,
                               target_seconds=0.2, max_chunk=64) == 1

    def test_empty_queue(self):
        assert chunk_cost_size(0.01, 0, 4,
                               target_seconds=0.2, max_chunk=64) == 0

    def test_warm_targets_round_trip_seconds(self):
        # 10 ms per unit, 0.2 s target -> 20 units per chunk.
        assert chunk_cost_size(0.010, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 20

    def test_capped_by_max_chunk(self):
        assert chunk_cost_size(1e-6, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 64

    def test_tail_splits_across_workers(self):
        # 6 units left on 4 workers: never hand one worker all 6.
        assert chunk_cost_size(1e-6, 6, 4,
                               target_seconds=0.2, max_chunk=64) == 2

    def test_slow_units_never_pack(self):
        # Units slower than the target stay singletons.
        assert chunk_cost_size(1.5, 1000, 4,
                               target_seconds=0.2, max_chunk=64) == 1


class TestLowering:
    def test_default_trace_names(self, traces, tmp_path):
        path = tmp_path / "t.sbbt"
        assert default_trace_names([traces[0], path, traces[1]]) == \
            ["trace[0]", str(path), "trace[2]"]

    def test_for_suite_shape(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        assert len(plan) == len(traces)
        assert [u.name for u in plan] == [f"trace[{i}]"
                                          for i in range(len(traces))]
        assert all(u.factory is bimodal_factory for u in plan)
        assert all(u.tag == 0 for u in plan)
        assert plan[0].config == SimulationConfig()

    def test_for_suite_custom_names(self, traces):
        names = [f"n{i}" for i in range(len(traces))]
        plan = WorkPlan.for_suite(bimodal_factory, traces, names=names)
        assert [u.name for u in plan] == names

    def test_for_suite_name_length_mismatch(self, traces):
        with pytest.raises(ValueError):
            WorkPlan.for_suite(bimodal_factory, traces, names=["just-one"])

    def test_for_points_cross_product(self, traces):
        factories = [(0, bimodal_factory), (1, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces)
        assert len(plan) == 2 * len(traces)
        assert plan.tags() == [0, 1]
        # Trace order preserved within each tag, tags in given order.
        assert [u.tag for u in plan] == [0] * len(traces) + [1] * len(traces)
        assert [u.factory for u in plan.units[:len(traces)]] == \
            [bimodal_factory] * len(traces)

    def test_subset_preserves_given_order(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        sub = plan.subset([2, 0])
        assert [u.name for u in sub] == ["trace[2]", "trace[0]"]

    def test_group_outcomes_by_tag(self, traces):
        factories = [(5, bimodal_factory), (9, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces[:2])
        grouped = plan.group_outcomes(["a", "b", "c", "d"])
        assert grouped == {5: ["a", "b"], 9: ["c", "d"]}

    def test_group_outcomes_length_mismatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            plan.group_outcomes(["too", "few"])


class TestExecutePlan:
    def test_serial_matches_run_suite(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        outcomes = execute_plan(plan)
        batch = run_suite(bimodal_factory, traces)
        assert [_comparable(o) for o in outcomes] == \
            [_comparable(r) for r in batch.results]

    def test_engine_chunked_matches_serial(self, traces):
        plan = WorkPlan.for_suite(gshare_factory, traces)
        serial = execute_plan(plan)
        with ExecutionEngine(workers=2) as engine:
            chunked = execute_plan(plan, engine=engine, chunk=2)
            assert engine.stats.chunks_dispatched == 2
            assert engine.stats.tasks_dispatched == len(traces)
        assert [_comparable(o) for o in chunked] == \
            [_comparable(o) for o in serial]

    def test_fixed_chunk_one_is_unit_dispatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=1)
            assert engine.stats.chunks_dispatched == len(traces)

    def test_cache_round_trip(self, traces, tmp_path):
        cache = SimulationCache(tmp_path / "cache")
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        timers = PhaseTimers()
        first = execute_plan(plan, cache=cache, instrumentation=timers)
        assert timers.counters["cache_miss"] == len(traces)
        assert "cache_lookup" in timers.phases
        warm = PhaseTimers()
        second = execute_plan(plan, cache=cache, instrumentation=warm)
        assert warm.counters["cache_hit"] == len(traces)
        assert warm.counters.get("cache_miss", 0) == 0
        assert [_comparable(o) for o in second] == \
            [_comparable(o) for o in first]

    def test_chunk_telemetry_counters(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        timers = PhaseTimers()
        with ExecutionEngine(workers=2) as engine:
            execute_plan(plan, engine=engine, chunk=2,
                         instrumentation=timers)
        assert timers.counters["task_chunk"] == 2
        assert timers.counters["chunk_size"] == len(traces)
        assert "chunk_dispatch" in timers.phases
        assert "chunk_dispatch" in engine.stats.phases

    def test_tagged_plan_regroups_like_separate_suites(self, traces):
        factories = [(0, bimodal_factory), (1, gshare_factory)]
        plan = WorkPlan.for_points(factories, traces)
        with ExecutionEngine(workers=2) as engine:
            grouped = plan.group_outcomes(
                execute_plan(plan, engine=engine))
        bimodal = run_suite(bimodal_factory, traces)
        gshare = run_suite(gshare_factory, traces)
        assert [_comparable(o) for o in grouped[0]] == \
            [_comparable(r) for r in bimodal.results]
        assert [_comparable(o) for o in grouped[1]] == \
            [_comparable(r) for r in gshare.results]

    def test_workers_form_batch_groups(self, traces):
        # workers > 1 without an engine runs on a private engine, which
        # honours batch= like every other backend.
        factories = [(0, bimodal_factory), (1, gshare_factory),
                     (2, long_gshare_factory)]
        plan = WorkPlan.for_points(factories, traces, sim_engine="auto")
        serial = execute_plan(plan)
        timers = PhaseTimers()
        parallel = execute_plan(plan, workers=2, instrumentation=timers)
        assert timers.counters.get("batch_groups", 0) >= 1
        assert [_comparable(o) for o in parallel] == \
            [_comparable(o) for o in serial]

    def test_per_unit_failure_isolation(self, traces, tmp_path):
        missing = tmp_path / "missing.sbbt"
        plan = WorkPlan.for_suite(bimodal_factory,
                                  [traces[0], missing, traces[1]])
        outcomes = execute_plan(plan)
        assert isinstance(outcomes[0], SimulationResult)
        assert isinstance(outcomes[1], TraceFailure)
        assert isinstance(outcomes[2], SimulationResult)

    def test_bad_workers_rejected(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            execute_plan(plan, workers=0)

    def test_bad_chunk_rejected_before_dispatch(self, traces):
        plan = WorkPlan.for_suite(bimodal_factory, traces)
        with pytest.raises(ValueError):
            execute_plan(plan, chunk=0)


class TestEngineScope:
    def test_caller_engine_passes_through_unclosed(self):
        with ExecutionEngine(workers=1) as engine:
            with engine_scope(engine, workers=4) as scoped:
                assert scoped is engine
            assert not engine.closed

    def test_serial_yields_none(self):
        with engine_scope(None, workers=1) as scoped:
            assert scoped is None

    def test_private_engine_opened_and_closed(self):
        with engine_scope(None, workers=2) as scoped:
            assert isinstance(scoped, ExecutionEngine)
            assert scoped.workers == 2
        assert scoped.closed
