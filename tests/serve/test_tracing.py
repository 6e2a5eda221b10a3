"""Serve-side span tracing: request roots, client trace ids, coalescing
linkage and the reply echo."""

from __future__ import annotations

import threading

import pytest

from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, ServeError, start_in_thread
from repro.tracing import read_spans


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, small_trace, medium_trace):
    directory = tmp_path_factory.mktemp("serve-tracing")
    paths = []
    for name, trace in (("mobile", small_trace), ("medium", medium_trace)):
        path = directory / f"{name}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


@pytest.fixture
def serve(tmp_path):
    handles = []

    def _start(**overrides):
        overrides.setdefault("socket_path", str(tmp_path / "mbp.sock"))
        overrides.setdefault("workers", 0)
        overrides.setdefault("trace_dir", str(tmp_path / "spans"))
        handle = start_in_thread(ServeConfig(**overrides))
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def _by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


def _load(tmp_path):
    return read_spans([tmp_path / "spans"])


class TestRequestSpans:
    def test_simulate_request_span_tree(self, serve, trace_files,
                                        tmp_path):
        self._assert_request_tree(serve, trace_files, tmp_path, workers=0)

    def test_engine_request_span_tree(self, serve, trace_files, tmp_path):
        self._assert_request_tree(serve, trace_files, tmp_path, workers=1)

    @staticmethod
    def _assert_request_tree(serve, trace_files, tmp_path, *, workers):
        handle = serve(workers=workers)
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
        handle.stop()
        spans = _by_name(_load(tmp_path))
        (request,) = spans["serve_request"]
        assert request.parent_id is None
        assert request.attributes["op"] == "simulate"
        (queue,) = spans["serve_queue"]
        (unit,) = spans["serve_unit"]
        assert queue.parent_id == request.span_id
        assert unit.parent_id == request.span_id
        (lookup,) = spans["serve_cache_lookup"]
        (compute,) = spans["serve_compute"]
        assert lookup.parent_id == unit.span_id
        assert compute.parent_id == unit.span_id
        assert compute.attributes["from_cache"] is False
        (reply_span,) = spans["serve_reply"]
        assert reply_span.parent_id == request.span_id
        # The simulation is the plan's own tree under serve_dispatch:
        # execute_plan -> simulate -> (engine_dispatch ->) unit, and on
        # the engine the worker's attach/simulate spans below the unit.
        (dispatch,) = spans["serve_dispatch"]
        assert dispatch.parent_id == compute.span_id
        (plan,) = spans["execute_plan"]
        assert plan.parent_id == dispatch.span_id
        (plan_sim,) = [s for s in spans["simulate"]
                       if s.parent_id == plan.span_id]
        (plan_unit,) = spans["unit"]
        chain = [request, queue, unit, lookup, compute, dispatch, plan,
                 plan_sim, plan_unit, reply_span]
        if workers:
            (engine,) = spans["engine_dispatch"]
            assert engine.parent_id == plan_sim.span_id
            assert plan_unit.parent_id == engine.span_id
            (attach,) = spans["attach"]
            (worker_sim,) = [s for s in spans["simulate"]
                             if s is not plan_sim]
            assert attach.parent_id == plan_unit.span_id
            assert worker_sim.parent_id == plan_unit.span_id
            assert worker_sim.pid != request.pid
            chain += [engine, attach, worker_sim]
        else:
            assert plan_unit.parent_id == plan_sim.span_id
        # One trace id covers the whole request.
        assert len({s.trace_id for s in chain}) == 1

    def test_client_trace_id_adopted_and_echoed(self, serve, trace_files,
                                                tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal",
                                    trace_id="client-chosen-id")
            assert reply["ok"]
            assert reply["trace_id"] == "client-chosen-id"
        handle.stop()
        spans = _load(tmp_path)
        assert spans, "no spans written"
        assert {s.trace_id for s in spans} == {"client-chosen-id"}

    def test_stats_reports_tracing_section(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            tracing = client.stats()["tracing"]
        assert tracing["enabled"] is True
        assert tracing["log"].endswith(".jsonl")

    def test_tracing_off_by_default(self, serve, trace_files, tmp_path):
        handle = serve(trace_dir=None)
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
            assert "trace_id" not in reply
            tracing = client.stats()["tracing"]
        assert tracing == {"enabled": False, "log": None}
        handle.stop()
        assert not (tmp_path / "spans").exists()

    def test_error_request_closes_span_as_error(self, serve, tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(str(tmp_path / "absent.sbbt"), "bimodal")
        assert excinfo.value.code == "bad_trace"
        handle.stop()
        spans = _by_name(_load(tmp_path))
        (request,) = spans["serve_request"]
        assert request.status == "error"


class TestCoalescedLinkage:
    def test_followers_link_to_the_leader_span(self, serve, trace_files,
                                               tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            replies = client.request_many([
                {"op": "simulate", "trace": trace_files[1],
                 "predictor": "gshare", "trace_id": f"req-{i}"}
                for i in range(4)])
        assert all(reply["ok"] for reply in replies)
        handle.stop()
        spans = _by_name(_load(tmp_path))
        units = spans["serve_unit"]
        assert len(units) == 4
        # Exactly one request actually simulated; late arrivals may be
        # answered by the cache, but racing ones coalesce.
        fresh = [c for c in spans["serve_compute"]
                 if c.attributes.get("from_cache") is False]
        assert len(fresh) == 1
        (compute,) = fresh
        leaders = [u for u in units
                   if u.span_id == compute.parent_id]
        assert len(leaders) == 1
        assert compute.trace_id == leaders[0].trace_id
        followers = [u for u in units if u.attributes.get("coalesced")]
        # The medium trace simulates slowly enough that the pipelined
        # requests overlap the leader's computation.
        assert followers
        # Followers carry a link to the span (and trace) of the
        # computation they piggybacked on, so the shared work is
        # findable from any request's trace.  (A late request may lead
        # a fresh cache-hit compute that others coalesce onto, so the
        # link targets *a* compute span, not necessarily the fresh one.)
        computes = {c.span_id: c for c in spans["serve_compute"]}
        for follower in followers:
            leader_span = follower.attributes["leader_span"]
            assert leader_span in computes
            assert follower.attributes["leader_trace"] \
                == computes[leader_span].trace_id
            assert follower.attributes["leader_trace"] \
                != follower.trace_id

    def test_concurrent_clients_keep_own_request_roots(self, serve,
                                                       trace_files,
                                                       tmp_path):
        handle = serve()
        barrier = threading.Barrier(3)
        errors: list[Exception] = []

        def worker(i):
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    barrier.wait(timeout=30)
                    reply = client.simulate(trace_files[0], "gshare",
                                            trace_id=f"client-{i}")
                    assert reply["ok"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        handle.stop()
        spans = _by_name(_load(tmp_path))
        roots = spans["serve_request"]
        assert sorted(r.trace_id for r in roots) \
            == ["client-0", "client-1", "client-2"]
