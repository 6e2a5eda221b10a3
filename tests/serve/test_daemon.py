"""The documented ``mbp serve`` / ``mbp client`` workflow, end to end.

Each test runs a real ``mbp serve`` subprocess on a unix socket and
talks to it through ``mbp client`` subprocesses, exactly as
``docs/serve.md`` and ``docs/tracing.md`` describe: the daemon's
process boundary, its engine workers and its clean protocol shutdown
are all real.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

_SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SOURCE_ROOT, env.get("PYTHONPATH")]))
    env.pop("MBP_CACHE_DIR", None)
    env.pop("MBP_TRACE_DIR", None)
    env.update(extra)
    return env


def _mbp(cwd: Path, *argv: str, **env: str) -> str:
    """Run one ``mbp`` command to completion; return its stdout."""
    process = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=cwd,
        env=_env(**env), capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    return process.stdout


def _shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir() if p.name.startswith("psm_")} \
        if shm.is_dir() else set()


class _Daemon:
    """``mbp serve --socket SOCK ...`` as a subprocess."""

    def __init__(self, cwd: Path, socket: str, *argv: str, **env: str):
        self.socket = cwd / socket
        self.log = cwd / f"{socket}.log"
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket",
                 socket, *argv], cwd=cwd, env=_env(**env),
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while not self.socket.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.kill()
                pytest.fail(f"mbp serve did not start: {self.log.read_text()}")
            time.sleep(0.05)

    def wait(self) -> int:
        """Wait for a protocol-initiated shutdown to finish."""
        return self.process.wait(timeout=60)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


@pytest.fixture
def workdir(tmp_path):
    _mbp(tmp_path, "generate", "serve-a.sbbt.xz", "--category",
         "short_server", "--branches", "15000", "--seed", "21")
    _mbp(tmp_path, "generate", "serve-b.sbbt.xz", "--category",
         "short_mobile", "--branches", "15000", "--seed", "22")
    return tmp_path


def test_cli_round_trip_over_unix_socket(workdir):
    """Simulate twice (the repeat is a cache hit), run a suite, read the
    stats, shut down through the protocol; the maintenance CLI then sees
    every entry the daemon stored, and no segment outlives it."""
    segments_before = _shm_segments()
    daemon = _Daemon(workdir, "serve.sock", "--workers", "2",
                     "--cache-dir", "serve-cache")
    try:
        client = ("--socket", "serve.sock")
        first = json.loads(_mbp(workdir, "client", "simulate",
                                "serve-a.sbbt.xz", *client,
                                "--predictor", "gshare"))
        second = json.loads(_mbp(workdir, "client", "simulate",
                                 "serve-a.sbbt.xz", *client,
                                 "--predictor", "gshare"))
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert first["result"] == second["result"]
        suite = json.loads(_mbp(workdir, "client", "suite",
                                "serve-a.sbbt.xz", "serve-b.sbbt.xz",
                                *client, "--predictor", "bimodal"))
        assert suite["ok"] and not suite["failures"], suite
        assert len(suite["results"]) == 2
        stats = json.loads(_mbp(workdir, "client", "stats", *client))
        assert stats["counters"]["serve_cache_hits"] >= 1, stats
        assert stats["engine"]["traces_published"] >= 1, stats
        _mbp(workdir, "client", "shutdown", *client)
        assert daemon.wait() == 0
    finally:
        daemon.kill()
    assert not daemon.socket.exists()
    assert _shm_segments() <= segments_before
    # One directory rule everywhere: MBP_CACHE_DIR resolves to the
    # store the daemon wrote.
    store = json.loads(_mbp(workdir, "cache", "stats",
                            MBP_CACHE_DIR="serve-cache"))
    assert store["entries"] >= 3, store


def test_traced_round_trip_reaches_worker_spans(workdir):
    """A client-chosen trace id is followable from the daemon's
    ``serve_request`` root down to the worker's ``simulate`` span, in
    another process, through the exported Chrome trace."""
    daemon = _Daemon(workdir, "traced.sock", "--workers", "2",
                     MBP_TRACE_DIR="spans")
    try:
        for trace_id in ("ci-client-one", "ci-client-two"):
            reply = json.loads(_mbp(
                workdir, "client", "simulate", "serve-a.sbbt.xz",
                "--socket", "traced.sock", "--predictor", "gshare",
                "--trace-id", trace_id))
            assert reply["trace_id"] == trace_id
        _mbp(workdir, "client", "shutdown", "--socket", "traced.sock")
        assert daemon.wait() == 0
    finally:
        daemon.kill()
    assert "serve_request" in _mbp(workdir, "trace", "summary", "spans")
    _mbp(workdir, "trace", "export", "spans", "--output", "chrome.json")
    document = json.loads((workdir / "chrome.json").read_text())
    events = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert events, "no complete events exported"
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event), event
    spans = {e["args"]["span_id"]: e for e in events}
    mine = [e for e in events if e["args"]["trace_id"] == "ci-client-one"]
    assert {"serve_request", "serve_queue", "serve_unit",
            "serve_cache_lookup"} <= {e["name"] for e in mine}
    # The first request computed: its worker simulate span must be
    # reachable from the serve_request root through parent links, and
    # must have run in another process.
    root = next(e for e in mine if e["name"] == "serve_request")
    sim = next(e for e in mine
               if e["name"] == "simulate" and e["pid"] != root["pid"])
    hops, cursor = 0, sim
    while cursor["args"]["span_id"] != root["args"]["span_id"]:
        cursor = spans[cursor["args"]["parent_id"]]
        hops += 1
        assert hops < 16, "parent chain never reached the root"
