"""End-to-end tests for the ``mbp serve`` daemon.

Every test starts a real server (on a background thread, via
``start_in_thread``) and talks to it over a real socket.  Most use
``workers=0`` (in-process thread backend — no multiprocessing) for
speed; the shared-memory hygiene tests use a real engine.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.cache import SimulationCache
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import Bimodal
from repro.cli import PREDICTOR_CHOICES
from repro.sbbt.writer import write_trace
from repro.serve import MbpClient, ServeConfig, ServeError, start_in_thread
from repro.serve.protocol import encode_frame
from repro.serve.server import MbpServer, _Client


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, small_trace, server_trace, medium_trace):
    """Three traces on disk, shared by every test in the module."""
    directory = tmp_path_factory.mktemp("serve-traces")
    paths = []
    for name, trace in (("mobile", small_trace), ("server", server_trace),
                        ("medium", medium_trace)):
        path = directory / f"{name}.sbbt"
        write_trace(path, trace)
        paths.append(str(path))
    return paths


@pytest.fixture
def serve(tmp_path):
    """Factory fixture: start a server, auto-stop at teardown."""
    handles = []

    def _start(**overrides):
        overrides.setdefault("socket_path", str(tmp_path / "mbp.sock"))
        overrides.setdefault("workers", 0)
        handle = start_in_thread(ServeConfig(**overrides))
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        handle.stop()


def _accounted(counters):
    """Every counted unit was a cache hit, a miss or coalesced."""
    return (counters.get("serve_cache_hits", 0)
            + counters.get("serve_cache_misses", 0)
            + counters.get("serve_coalesced", 0)) == counters["serve_units"]


# ----------------------------------------------------------------------
# Basic round trips.
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_ping(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.ping()
        assert reply["ok"] is True
        assert reply["server"] == "mbp-serve"

    def test_simulate_then_cache_hit(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            first = client.simulate(trace_files[0], "gshare")
            second = client.simulate(trace_files[0], "gshare")
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert first["result"] == second["result"]

    def test_suite_aggregates(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite(trace_files, "bimodal")
        assert [entry["trace"] for entry in reply["results"]] == trace_files
        assert reply["failures"] == []
        mpkis = [entry["result"]["metrics"]["mpki"]
                 for entry in reply["results"]]
        assert reply["aggregate"]["mean_mpki"] == pytest.approx(
            sum(mpkis) / len(mpkis))

    def test_sweep_points_and_best(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 8])
        assert [point["parameters"] for point in reply["points"]] == [
            {"history_length": 2}, {"history_length": 8}]
        best = min(reply["points"], key=lambda point: point["mean_mpki"])
        assert reply["best"]["parameters"] == best["parameters"]

    def test_sweep_batches_in_one_plan(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            fresh = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 4, 8])
            counters = client.stats()["counters"]
            again = client.sweep([trace_files[0]], "gshare",
                                 "history_length", [2, 4, 8])
            stats = client.stats()
        # One execute_plan evaluated all three points in one stacked
        # pass; nothing was read back from the cache it just filled.
        assert counters["serve_cache_misses"] == 3
        assert counters["serve_batch_groups"] == 1
        assert counters["serve_batch_units"] == 3
        assert stats["server"]["batch"] == "auto"
        assert all(point["cache_hits"] == 0 for point in fresh["points"])
        # The repeat is answered from the cache, one hit per point.
        assert all(point["cache_hits"] == 1 for point in again["points"])
        assert stats["counters"]["serve_cache_hits"] == 3
        assert stats["counters"]["serve_batch_groups"] == 1

    def test_batch_off_forms_no_groups(self, serve, trace_files):
        handle = serve(batch="off")
        with MbpClient(socket_path=handle.socket_path) as client:
            off = client.sweep([trace_files[0]], "gshare",
                               "history_length", [2, 8])
            stats = client.stats()
        assert "serve_batch_groups" not in stats["counters"]
        assert stats["server"]["batch"] == "off"
        # Same answers either way.
        handle_on = serve(socket_path=None,
                          host="127.0.0.1", port=0)
        kind, host, port = handle_on.address
        with MbpClient(host=host, port=port) as client:
            on = client.sweep([trace_files[0]], "gshare",
                              "history_length", [2, 8])
        assert [p["mean_mpki"] for p in on["points"]] == \
            [p["mean_mpki"] for p in off["points"]]

    def test_suite_repeating_a_trace_computes_once(self, serve,
                                                   trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite([trace_files[0], trace_files[0]],
                                 "bimodal")
            counters = client.stats()["counters"]
        assert [entry["coalesced"] for entry in reply["results"]] == \
            [False, True]
        assert reply["results"][0]["result"] == \
            reply["results"][1]["result"]
        assert counters["serve_cache_misses"] == 1
        assert counters["serve_coalesced"] == 1
        assert _accounted(counters)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_suite_isolates_a_missing_trace(self, serve, trace_files,
                                            tmp_path, workers):
        handle = serve(workers=workers)
        missing = str(tmp_path / "missing.sbbt")
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.suite([trace_files[0], missing, trace_files[1]],
                                 "gshare")
            counters = client.stats()["counters"]
        assert [entry["trace"] for entry in reply["results"]] == \
            [trace_files[0], trace_files[1]]
        assert [(f["trace"], f["code"]) for f in reply["failures"]] == \
            [(missing, "bad_trace")]
        # A unit that cannot be keyed joins no tier and is not counted.
        assert counters["serve_units"] == 2
        assert _accounted(counters)

    def test_bad_batch_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(batch="sometimes")

    def test_tcp_transport(self, serve, trace_files):
        handle = serve(socket_path=None, host="127.0.0.1", port=0)
        kind, host, port = handle.address
        assert kind == "tcp"
        with MbpClient(host=host, port=port) as client:
            reply = client.simulate(trace_files[0], "bimodal")
        assert reply["ok"] is True

    def test_parameters_override_constructor(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            narrow = client.simulate(trace_files[0], "gshare",
                                     parameters={"history_length": 2})
            default = client.simulate(trace_files[0], "gshare")
        spec_narrow = narrow["result"]["metadata"]["predictor"]
        spec_default = default["result"]["metadata"]["predictor"]
        assert spec_narrow != spec_default


# ----------------------------------------------------------------------
# Fidelity: served results vs direct library calls.
# ----------------------------------------------------------------------


PREDICTORS_UNDER_TEST = ("bimodal", "gshare", "two-level")


class TestFidelity:
    def test_result_matches_direct_simulate(self, serve, trace_files):
        """Served JSON == direct simulate() for three predictors, up to
        the wall-clock field (the only nondeterministic byte)."""
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            for name in PREDICTORS_UNDER_TEST:
                served = client.simulate(trace_files[0], name)["result"]
                direct = simulate(PREDICTOR_CHOICES[name](),
                                  trace_files[0],
                                  SimulationConfig()).to_json()
                served["metrics"].pop("simulation_time")
                direct["metrics"].pop("simulation_time")
                assert served == direct, name

    def test_byte_identical_through_shared_cache(self, serve, trace_files,
                                                 tmp_path):
        """With a shared cache directory the round trip is *literally*
        byte-identical to `mbp simulate --cache-dir`, wall clock
        included — under 4 concurrent clients."""
        cache_dir = tmp_path / "shared-cache"
        direct_json: dict[str, str] = {}
        for name in PREDICTORS_UNDER_TEST:
            cache = SimulationCache(cache_dir)
            result = cache.get_or_simulate(
                PREDICTOR_CHOICES[name], trace_files[0], SimulationConfig())
            direct_json[name] = result.to_json_string()

        handle = serve(cache_dir=str(cache_dir))
        served: dict[str, str] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def worker(name):
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    reply = client.simulate(trace_files[0], name)
                    with lock:
                        served[name] = json.dumps(reply["result"], indent=2)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in PREDICTORS_UNDER_TEST + ("gshare",)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for name in PREDICTORS_UNDER_TEST:
            assert served[name] == direct_json[name], name


# ----------------------------------------------------------------------
# Coalescing and concurrency.
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_pipelined_identical_requests_compute_once(self, serve,
                                                       trace_files):
        handle = serve()
        request = {"op": "simulate", "trace": trace_files[0],
                   "predictor": "bimodal"}
        with MbpClient(socket_path=handle.socket_path) as client:
            replies = client.request_many([dict(request) for _ in range(10)])
            counters = client.stats()["counters"]
        assert all(not isinstance(reply, ServeError) for reply in replies)
        results = {json.dumps(reply["result"], sort_keys=True)
                   for reply in replies}
        assert len(results) == 1
        assert counters["serve_units"] == 10
        assert counters["serve_cache_misses"] == 1
        assert (counters.get("serve_coalesced", 0)
                + counters.get("serve_cache_hits", 0)) == 9
        assert _accounted(counters)

    def test_concurrent_clients_coalesce(self, serve, trace_files):
        """4 clients racing the same request: exactly one simulation."""
        handle = serve()
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def worker():
            try:
                with MbpClient(socket_path=handle.socket_path) as client:
                    barrier.wait(timeout=30)
                    reply = client.simulate(trace_files[1], "gshare")
                    assert reply["ok"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with MbpClient(socket_path=handle.socket_path) as client:
            counters = client.stats()["counters"]
        assert counters["serve_units"] == 4
        assert counters["serve_cache_misses"] == 1
        assert (counters.get("serve_coalesced", 0)
                + counters.get("serve_cache_hits", 0)) == 3
        assert _accounted(counters)

    def test_stats_report_engine_and_cache_sections(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            stats = client.stats()
        assert stats["engine"] is None  # workers=0: thread backend
        assert stats["cache"]["entries"] == 0
        assert stats["queue"]["limit_per_client"] == 64
        assert stats["server"]["workers"] == 0


# ----------------------------------------------------------------------
# Error replies: every failure is a frame, not a dropped connection.
# ----------------------------------------------------------------------


def _raw_connection(handle):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(handle.socket_path)
    return sock


class TestErrorReplies:
    def test_malformed_json_gets_bad_request_and_connection_survives(
            self, serve):
        handle = serve()
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        reply = json.loads(reader.readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        sock.sendall(encode_frame({"id": 2, "op": "ping"}))
        reply = json.loads(reader.readline())
        assert reply["ok"] is True and reply["id"] == 2
        sock.close()

    def test_oversized_request_gets_too_large_then_close(self, serve):
        handle = serve(max_request_bytes=4096)
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
        reply = json.loads(reader.readline())
        assert reply["error"]["code"] == "too_large"
        assert reader.readline() == b""  # server closed the connection
        sock.close()

    def test_unknown_predictor(self, serve, trace_files):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(trace_files[0], "nope")
        assert excinfo.value.code == "unknown_predictor"

    def test_unreadable_trace(self, serve, tmp_path):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(str(tmp_path / "missing.sbbt"), "gshare")
        assert excinfo.value.code == "bad_trace"

    def test_timeout_reply_then_retry_hits_cache(self, serve, trace_files):
        # 20ms covers a cache hit but never a fresh ~30k-branch scalar
        # simulation, so the first attempt must time out.  (The scalar
        # engine is pinned: the vectorized kernel would finish in time.)
        handle = serve(request_timeout=0.02, sim_engine="scalar")
        with MbpClient(socket_path=handle.socket_path) as client:
            with pytest.raises(ServeError) as excinfo:
                client.simulate(trace_files[2], "gshare")
            assert excinfo.value.code == "timeout"
            # The computation was NOT cancelled: it finishes into the
            # cache, so retries eventually answer within any budget.
            for _ in range(200):
                try:
                    reply = client.simulate(trace_files[2], "gshare")
                    break
                except ServeError as exc:
                    assert exc.code == "timeout"
                    time.sleep(0.05)
            else:
                pytest.fail("retry never completed")
            # The retry was served by the surviving first computation:
            # either it coalesced onto it mid-flight, or it found the
            # finished result in the cache.  Never a second simulation.
            assert reply["from_cache"] or reply["coalesced"]
            counters = client.stats()["counters"]
        assert counters["serve_timeouts"] >= 1
        assert counters["serve_cache_misses"] == 1
        assert _accounted(counters)

    def test_overloaded_when_client_queue_is_full(self, serve, trace_files):
        handle = serve(max_queue=2, max_inflight=2)
        requests = [
            {"id": index, "op": "simulate", "trace": trace_files[1],
             "predictor": "gshare", "warmup": index}  # distinct keys
            for index in range(30)
        ]
        sock = _raw_connection(handle)
        reader = sock.makefile("rb")
        sock.sendall(b"".join(encode_frame(request) for request in requests))
        replies = [json.loads(reader.readline()) for _ in requests]
        sock.close()
        codes = [reply.get("error", {}).get("code") for reply in replies
                 if not reply["ok"]]
        assert "overloaded" in codes
        assert all(code == "overloaded" for code in codes)
        assert any(reply["ok"] for reply in replies)


# ----------------------------------------------------------------------
# Scheduling fairness.
# ----------------------------------------------------------------------


class TestRoundRobin:
    def test_pick_job_rotates_across_clients(self):
        server = MbpServer(ServeConfig(workers=0))
        for client_id, pending in ((0, 3), (1, 3), (2, 3)):
            client = _Client(client_id, writer=None)
            client.queue = deque(
                ({"id": f"c{client_id}r{index}"}, 0.0, 0.0)
                for index in range(pending))
            server._clients[client_id] = client
            server._queued += pending
        order = []
        while True:
            picked = server._pick_job()
            if picked is None:
                break
            order.append(picked[1]["id"])
        # One request per client per rotation — client 0 cannot drain
        # fully before clients 1 and 2 are served.
        assert order == ["c0r0", "c1r0", "c2r0",
                         "c0r1", "c1r1", "c2r1",
                         "c0r2", "c1r2", "c2r2"]
        assert server._queued == 0

    def test_pick_job_skips_empty_queues(self):
        server = MbpServer(ServeConfig(workers=0))
        busy = _Client(0, writer=None)
        busy.queue = deque([({"id": "a"}, 0.0, 0.0),
                            ({"id": "b"}, 0.0, 0.0)])
        idle = _Client(1, writer=None)
        server._clients = {0: busy, 1: idle}
        server._queued = 2
        assert server._pick_job()[1]["id"] == "a"
        assert server._pick_job()[1]["id"] == "b"
        assert server._pick_job() is None


# ----------------------------------------------------------------------
# Shutdown hygiene: no leaked sockets, segments or processes.
# ----------------------------------------------------------------------


class TestShutdown:
    def test_socket_file_removed(self, serve):
        handle = serve()
        path = handle.socket_path
        assert os.path.exists(path)
        handle.stop()
        assert not os.path.exists(path)

    def test_client_initiated_shutdown(self, serve):
        handle = serve()
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.shutdown()
        assert reply["stopping"] is True
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        assert not os.path.exists(handle.socket_path)

    def test_engine_backend_releases_shared_memory(self, serve,
                                                   trace_files, tmp_path):
        """A real engine publishes traces to /dev/shm; a clean daemon
        shutdown must unlink every segment."""
        handle = serve(workers=1, cache_dir=str(tmp_path / "cache"))
        with MbpClient(socket_path=handle.socket_path) as client:
            reply = client.simulate(trace_files[0], "bimodal")
            assert reply["ok"]
        segments = handle.server.engine.segment_names()
        assert segments  # the trace really was published
        handle.stop()
        assert handle.server.engine.closed
        for name in segments:
            assert not Path("/dev/shm", name).exists()

    def test_temporary_cache_directory_cleaned_up(self, serve, trace_files):
        handle = serve()  # no cache_dir -> private temp directory
        with MbpClient(socket_path=handle.socket_path) as client:
            client.simulate(trace_files[0], "bimodal")
        tmp_cache = handle.server.cache.directory
        assert Path(tmp_cache).exists()
        handle.stop()
        assert not Path(tmp_cache).exists()

    def test_engine_round_trip_matches_thread_backend(self, serve,
                                                      trace_files, tmp_path):
        """workers=1 (engine) and workers=0 (threads) serve identical
        result JSON, wall clock aside."""
        thread_handle = serve()
        engine_handle = serve(
            socket_path=str(tmp_path / "engine.sock"), workers=1)
        with MbpClient(socket_path=thread_handle.socket_path) as client:
            threads = client.simulate(trace_files[0], "gshare")["result"]
        with MbpClient(socket_path=engine_handle.socket_path) as client:
            engine = client.simulate(trace_files[0], "gshare")["result"]
        threads["metrics"].pop("simulation_time")
        engine["metrics"].pop("simulation_time")
        assert threads == engine


class _CrashOnLongTrace(Bimodal):
    """Kills its worker outright once past 10k predictions: the served
    test traces of 5k and 8k branches finish, the 30k one does not."""

    def __init__(self):
        super().__init__(log_table_size=4)
        self._predictions = 0

    def vector_kernel(self):
        return None  # force the scalar loop, where predict() runs

    def predict(self, ip):
        self._predictions += 1
        if self._predictions > 10_000:
            os._exit(13)
        return super().predict(ip)


class TestWorkerCrash:
    @pytest.mark.parametrize("op", ["simulate", "suite"])
    def test_crash_is_a_per_unit_failure(self, serve, trace_files,
                                         tmp_path, monkeypatch, op):
        """A worker dying mid-simulation fails that unit alone; the pool
        is replaced once, the daemon keeps answering and no shared
        segment outlives it."""
        import repro.registry

        monkeypatch.setitem(repro.registry.PREDICTOR_CHOICES, "crasher",
                            _CrashOnLongTrace)
        handle = serve(workers=1, start_method="fork",
                       cache_dir=str(tmp_path / "cache"))
        with MbpClient(socket_path=handle.socket_path) as client:
            if op == "simulate":
                with pytest.raises(ServeError) as excinfo:
                    client.simulate(trace_files[2], "crasher")
                assert excinfo.value.code == "simulation_failed"
            else:
                reply = client.suite(trace_files, "crasher")
                assert [entry["trace"] for entry in reply["results"]] == \
                    trace_files[:2]
                assert [(f["trace"], f["code"])
                        for f in reply["failures"]] == \
                    [(trace_files[2], "simulation_failed")]
            after = client.simulate(trace_files[2], "bimodal")
            assert after["ok"] and after["from_cache"] is False
            stats = client.stats()
        assert stats["engine"]["pool_restarts"] == 1
        segments = handle.server.engine.segment_names()
        assert segments
        handle.stop()
        assert not [name for name in segments
                    if Path("/dev/shm", name).exists()]


# ----------------------------------------------------------------------
# Config validation.
# ----------------------------------------------------------------------


class TestServeConfig:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ServeConfig(workers=-1)

    def test_rejects_socket_and_host_together(self):
        with pytest.raises(ValueError):
            ServeConfig(socket_path="a.sock", host="127.0.0.1")

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ServeConfig(request_timeout=0)

    def test_none_timeout_means_unbounded(self):
        assert ServeConfig(request_timeout=None).request_timeout is None
