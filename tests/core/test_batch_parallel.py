"""Parallel batch execution (multiprocessing workers)."""

import os

import pytest

from repro.core.batch import run_suite
from repro.core.engine import ExecutionEngine
from repro.predictors import Bimodal
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES
from tests.core.test_engine import _segments_alive


def bimodal_factory():
    """Module-level factory: picklable for worker processes."""
    return Bimodal(log_table_size=10)


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    from repro.sbbt.writer import write_trace

    directory = tmp_path_factory.mktemp("parallel")
    paths = []
    for i in range(4):
        trace = generate_trace(PROFILES["short_mobile"], seed=70 + i,
                               num_branches=3000)
        path = directory / f"t{i}.sbbt"
        write_trace(path, trace)
        paths.append(path)
    return paths


class TestParallelSuite:
    def test_parallel_matches_serial(self, trace_files):
        serial = run_suite(bimodal_factory, trace_files, workers=1)
        parallel = run_suite(bimodal_factory, trace_files, workers=2)
        serial_counts = [r.mispredictions for r in serial.results]
        parallel_counts = [r.mispredictions for r in parallel.results]
        assert serial_counts == parallel_counts

    def test_parallel_preserves_order_and_names(self, trace_files):
        names = [f"trace-{i}" for i in range(len(trace_files))]
        batch = run_suite(bimodal_factory, trace_files, workers=2,
                          names=names)
        assert [r.trace_name for r in batch.results] == names

    def test_single_trace_runs_inline(self, trace_files):
        batch = run_suite(bimodal_factory, trace_files[:1], workers=4)
        assert len(batch.results) == 1

    def test_private_engine_leaves_nothing_behind(self, trace_files,
                                                  monkeypatch):
        # workers=2 runs on a private engine; once run_suite returns, its
        # shared-memory segments and crash-recovery spool must be gone.
        segments, spools = [], []
        publish, spool_path = (ExecutionEngine._publish,
                               ExecutionEngine._spool_path)

        def spy_publish(engine, trace):
            ref, fresh = publish(engine, trace)
            segments.append(ref.segment)
            return ref, fresh

        def spy_spool_path(engine):
            spools.append(spool_path(engine))
            return spools[-1]

        monkeypatch.setattr(ExecutionEngine, "_publish", spy_publish)
        monkeypatch.setattr(ExecutionEngine, "_spool_path", spy_spool_path)
        batch = run_suite(bimodal_factory, trace_files, workers=2, chunk=2)
        assert len(batch.results) == len(trace_files)
        assert segments and spools
        assert _segments_alive(segments) == []
        assert not any(os.path.exists(path) for path in spools)
