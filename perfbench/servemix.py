"""serve-mix: ``mbp serve --workers 1`` under a closed loop of 2 clients.

The daemon is its own process, started from an empty cache (its private
temporary cache directory, placed inside the run directory).  Each
client connection sends its next request only after the previous reply
arrived.  Requests follow a Zipf mix over a catalog of ``simulate`` ops
on uncompressed ``.sbbt`` traces, large enough that misses keep
arriving for the whole round, plus a few ``sweep`` ops.

After every daemon lifetime the run checks that the daemon and its
workers exited, its socket is gone, no new ``/dev/shm`` segment remains
and its temporary directories are gone; each leftover is a failed
operation.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import common
import inputs
from layers import span_layer_seconds

#: Daemon lifetimes per run whose spawn-to-first-ping time is sampled
#: (load rounds first, then bare spawns up to this count).
SETUP_SPAWNS = 5
#: Requests each client sends per round: short rounds, so a run has
#: several to take the best of.
REQUESTS_PER_CLIENT = 500
CLIENTS = 2
WORKERS = 1
#: Catalog entries re-simulated on the scalar engine at another seed.
SCALAR_SAMPLE = 6
SHM = Path("/dev/shm")


class Daemon:
    """One ``mbp serve`` process living in its own run directory."""

    def __init__(self, directory: Path, *, traced: bool = False):
        self.directory = directory
        self.tmp = directory / "tmp"
        self.tmp.mkdir(parents=True)
        self.socket = directory / "serve.sock"
        self.spans = directory / "spans" if traced else None
        self.proc: subprocess.Popen | None = None
        self.workers: list[int] = []
        self.shm_before: set[str] = set()

    def socket_address(self) -> str:
        """The socket path as the client dials it: relative to the
        working directory, so a deep checkout cannot push it past the
        unix-socket path limit."""
        return os.path.relpath(self.socket)

    def start(self) -> float:
        """Spawn; return seconds until the first ``ping`` reply."""
        from repro.serve.client import MbpClient

        self.shm_before = _shm_entries()
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--workers", str(WORKERS), "--socket", self.socket.name]
        if self.spans is not None:
            command += ["--trace-dir", str(self.spans)]
        start = time.perf_counter()
        with open(self.directory / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.directory, stdout=log, stderr=log,
                env=common.child_env({"TMPDIR": str(self.tmp)}))
        deadline = start + 60.0
        while True:
            try:
                with MbpClient(self.socket_address(), timeout=10.0) as c:
                    c.ping()
                return time.perf_counter() - start
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError("mbp serve exited during start-up")
                if time.perf_counter() > deadline:
                    raise RuntimeError("mbp serve did not answer ping")
                time.sleep(0.005)

    def stats(self) -> dict[str, Any]:
        from repro.serve.client import MbpClient

        with MbpClient(self.socket_address()) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its workers (alive now)."""
        self.workers = common.proc_descendants(self.proc.pid)
        return sum(common.proc_peak_rss_mb(pid)
                   for pid in [self.proc.pid, *self.workers])

    def kill(self) -> None:
        """Stop the daemon and its workers if they are still running
        (after a failed run; a clean run has already stopped them).
        SIGTERM first: the daemon then shuts down cleanly and unlinks
        its shared-memory segments."""
        if self.proc is None or self.proc.poll() is not None:
            return
        workers = common.proc_descendants(self.proc.pid)
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, 9)

    def stop(self) -> list[str]:
        """Shut down, wait, and return every leftover found."""
        from repro.serve.client import MbpClient

        self.workers = common.proc_descendants(self.proc.pid)
        leftovers = []
        try:
            with MbpClient(self.socket_address()) as client:
                client.shutdown()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired) as exc:
            leftovers.append(f"shutdown failed: {exc}")
            self.proc.kill()
            self.proc.wait(timeout=30)
        # Children (engine workers, the shared-memory resource tracker)
        # finish their own exit just after the daemon; allow them that.
        deadline = time.perf_counter() + 10.0
        while (any(_alive(pid) for pid in self.workers)
               and time.perf_counter() < deadline):
            time.sleep(0.02)
        for pid in self.workers:
            if _alive(pid):
                leftovers.append(f"child {pid} ({_cmdline(pid)}) still "
                                 "running")
                os.kill(pid, 9)
        if self.socket.exists():
            leftovers.append(f"socket {self.socket.name} left behind")
        # Segments are unlinked by the daemon before it exits; give the
        # kernel a moment to drop names of already-unlinked segments.
        for _ in range(20):
            new = _shm_entries() - self.shm_before
            if not new:
                break
            time.sleep(0.05)
        leftovers += [f"/dev/shm/{name} left behind" for name in sorted(new)]
        leftovers += [f"temporary {p.name} left behind"
                      for p in sorted(self.tmp.iterdir())]
        return leftovers


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()[:120]


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in state


class Load:
    """One round of closed-loop clients; every reply is kept."""

    def __init__(self, simulates, sweeps, seed: int):
        self.streams = [inputs.ZipfStream(simulates, sweeps, seed, client)
                        for client in range(CLIENTS)]
        self.replies: list[tuple[Any, float, Any]] = []
        self.lock = threading.Lock()

    def run(self, daemon: Daemon, count: int) -> float:
        """Each client sends ``count`` requests, one at a time; returns
        the round's wall time."""
        errors: list[BaseException] = []

        def client_loop(stream: inputs.ZipfStream) -> None:
            from repro.serve.client import MbpClient, ServeError

            try:
                with MbpClient(daemon.socket_address()) as client:
                    for _ in range(count):
                        request = stream.next()
                        start = time.perf_counter()
                        try:
                            reply: Any = client.request(request.frame)
                        except ServeError as exc:
                            reply = exc
                        latency = (time.perf_counter() - start) * 1000.0
                        with self.lock:
                            self.replies.append((request, latency, reply))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(stream,))
                   for stream in self.streams]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]
        return elapsed

    def ok(self) -> list[tuple[Any, float, dict]]:
        return [(r, lat, rep) for r, lat, rep in self.replies
                if isinstance(rep, dict)]


def run(workdir: Path, seed: int, seconds: float,
        traced: bool) -> dict[str, Any]:
    """Run serve-mix; returns the run record.

    The run is a sequence of identical rounds, each a fresh daemon with
    an empty cache serving the same seeded request streams, until
    ``seconds`` of round time is measured.  Other tenants of a shared
    host can only slow a round down, so rates and the median latency
    are those of the best round; the tail is the median over rounds
    (medians over rounds are kept in the record beside them).  Traced
    runs alternate untraced and traced rounds, so the tracing overhead
    is a ratio of neighbours.
    """
    traces = inputs.write_traces(workdir / "traces", seed,
                                 inputs.SERVE_TRACES, inputs.SERVE_BRANCHES,
                                 ".sbbt")
    simulates, sweeps = inputs.serve_catalog(traces)
    by_key = {r.key: r for r in [*simulates, *sweeps]}

    attempted = failed = 0
    problems: list[str] = []
    setup: list[float] = []
    daemons: list[Daemon] = []
    rounds: list[dict[str, Any]] = []

    def lifetime(daemon: Daemon) -> None:
        nonlocal attempted, failed
        leftovers = daemon.stop()
        attempted += 1
        failed += len(leftovers)
        problems.extend(leftovers)

    try:
        measured = 0.0
        while measured < seconds or len(rounds) < 2:
            tracing = traced and len(rounds) % 2 == 1
            daemon = Daemon(workdir / f"round-{len(rounds)}", traced=tracing)
            daemons.append(daemon)
            setup.append(daemon.start())
            load = Load(simulates, sweeps, seed)
            wall = load.run(daemon, REQUESTS_PER_CLIENT)
            stats = daemon.stats() if tracing else None
            rss = daemon.peak_rss_mb() + common.self_peak_rss_mb()
            lifetime(daemon)
            rounds.append({"traced": tracing, "wall_s": wall, "load": load,
                           "stats": stats, "rss_mb": rss, "daemon": daemon})
            measured += wall
        while len(setup) < SETUP_SPAWNS:
            daemon = Daemon(workdir / f"spawn-{len(setup)}")
            daemons.append(daemon)
            setup.append(daemon.start())
            lifetime(daemon)
    finally:
        for daemon in daemons:
            daemon.kill()

    reference = common.load_reference("serve-mix") \
        if seed == common.DEFAULT_SEED else None
    seen: dict[str, str] = {}
    for round_ in rounds:
        for request, _latency, reply in round_["load"].replies:
            attempted += 1
            if not isinstance(reply, dict):
                failed += 1
                problems.append(f"{request.key}: {reply}")
                continue
            got = common.digest(canonical_reply(request, reply))
            want = (reference.get(request.key) if reference is not None
                    else seen.setdefault(request.key, got))
            if got != want:
                failed += 1
                problems.append(f"{request.key}: reply {got} != {want}")
    if reference is None:
        rng = random.Random(seed)
        keys = sorted(seen)
        sample = rng.sample(keys, min(SCALAR_SAMPLE, len(keys)))
        sweep_keys = [k for k in keys if by_key[k].op == "sweep"]
        if sweep_keys and not any(by_key[k].op == "sweep" for k in sample):
            sample.append(rng.choice(sweep_keys))
        for key in sample:
            attempted += 1
            got = common.digest(scalar_reply(by_key[key], traces))
            if got != seen[key]:
                failed += 1
                problems.append(f"{key}: scalar {got} != {seen[key]}")

    per_round = []
    for round_ in rounds:
        ok = round_["load"].ok()
        instructions = common.result_instructions(
            rep["result"] for r, _lat, rep in ok if r.op == "simulate")
        lat = common.latency_summary(lat for _r, lat, _rep in ok)
        per_round.append({
            "traced": round_["traced"], "wall_s": round_["wall_s"],
            "requests": len(round_["load"].replies), "ok": len(ok),
            "hits": sum(1 for _r, _l, rep in ok if rep.get("from_cache")),
            "req_per_s": len(ok) / round_["wall_s"],
            "sim_mips": common.sim_mips(instructions, round_["wall_s"]),
            "rss_mb": round_["rss_mb"], "latency": lat})
    plain = [r for r in per_round if not r["traced"]]
    record: dict[str, Any] = {
        "rounds": per_round, "setup_samples_s": setup,
        "attempted": attempted, "failed": failed, "problems": problems,
        "latency": {**plain[0]["latency"],
                    "samples": sum(r["latency"]["samples"] for r in plain),
                    "of": "p50: the best round's; tail: median over rounds"},
        "verification": ("reference" if reference is not None
                         else f"consistency + {SCALAR_SAMPLE} scalar"),
        "median_over_rounds": {
            "sim_mips": statistics.median(r["sim_mips"] for r in plain),
            "req_per_s": statistics.median(r["req_per_s"] for r in plain),
            "latency_p50_ms": statistics.median(
                r["latency"]["p50_ms"] for r in plain),
            "latency_p99_ms": statistics.median(
                r["latency"]["tail_ms"] for r in plain)},
    }
    record["end_to_end"] = common.end_to_end_metrics({
        "setup_s": statistics.median(setup),
        "sim_mips": max(r["sim_mips"] for r in plain),
        "req_per_s": max(r["req_per_s"] for r in plain),
        "latency_p50_ms": min(r["latency"]["p50_ms"] for r in plain),
        # A round's tail is not one-sided noise (it rests on its ten
        # slowest replies), so it is the median over rounds; every
        # round has the same reply count, so the same percentile.
        "latency_p99_ms": statistics.median(
            r["latency"]["tail_ms"] for r in plain),
        # Each round is one daemon lifetime: its peak, median over rounds.
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    })
    if traced:
        record.update(_layer_metrics(rounds))
    return record


def canonical_reply(request: inputs.Request, reply: dict) -> str:
    """What a reply must reproduce: the result of a simulate (without
    wall clock), the points of a sweep without the cache-hit and
    coalescing counts, which depend on timing."""
    if request.op == "simulate":
        label = request.key.split("|", 1)[0]
        return common.canonical_result(reply["result"], label)
    points = [{k: v for k, v in point.items()
               if k not in ("cache_hits", "coalesced")}
              for point in reply["points"]]
    return json.dumps(points, sort_keys=True, separators=(",", ":"))


def scalar_reply(request: inputs.Request,
                 traces: list[tuple[str, Path]]) -> str:
    """:func:`canonical_reply` of the reply the daemon should give,
    computed in this process on the scalar engine."""
    import repro
    from repro.registry import predictor_factory

    frame = request.frame
    label_of = {str(path): label for label, path in traces}
    if request.op == "simulate":
        result = repro.simulate(
            predictor_factory(frame["predictor"], frame["parameters"])(),
            frame["trace"], engine="scalar")
        return common.canonical_result(result.to_json(),
                                       label_of[frame["trace"]])
    points = []
    for value in frame["values"]:
        parameters = dict(frame["parameters"])
        parameters[frame["parameter"]] = value
        results = [repro.simulate(
            predictor_factory(frame["predictor"], parameters)(), trace,
            engine="scalar") for trace in frame["traces"]]
        mpkis = [r.mpki for r in results]
        mispredictions = sum(r.mispredictions for r in results)
        instructions = sum(r.simulation_instructions for r in results)
        points.append({
            "parameters": parameters,
            "mean_mpki": sum(mpkis) / len(mpkis),
            "aggregate_mpki": (1000.0 * mispredictions / instructions
                               if instructions else 0.0),
            "total_mispredictions": mispredictions,
            "failures": []})
    return json.dumps(points, sort_keys=True, separators=(",", ":"))


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(rounds: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-layer metrics of the traced rounds, per round: the daemons'
    ``stats`` replies, their spans, and the client-side latencies of
    cache-hit replies."""
    from repro.tracing.export import read_spans

    traced = [r for r in rounds if r["traced"]]
    n = len(traced)
    spans = read_spans([r["daemon"].spans for r in traced])
    ms: dict[str, list[float]] = {}
    for span in spans:
        name = span.name
        if name == "simulate" and "sim_engine" in span.attributes:
            name = "worker_simulate"
        ms.setdefault(name, []).append(span.duration * 1000.0)

    def total(section: str, key: str) -> float:
        return sum(r["stats"][section].get(key, 0) for r in traced)

    hits = total("counters", "serve_cache_hits")
    misses = total("counters", "serve_cache_misses")
    units = total("counters", "serve_units")
    tasks = total("engine", "tasks_dispatched")
    # Per-request submits are single-unit worker round trips; chunks
    # carry the units of the sweeps' batched plans (one parent-side
    # ``unit`` span each).
    trips = total("engine", "chunks_dispatched") + tasks \
        - len(ms.get("unit", []))
    queue = sorted(ms.get("serve_queue", [0.0]))
    replies = [rep_lat for r in traced for rep_lat in r["load"].replies]
    plain_wall = statistics.median(r["wall_s"] for r in rounds
                                   if not r["traced"])
    values = {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.lookup_ms_p50": _p50(ms.get("serve_cache_lookup", [])),
        "cache.entries": total("cache", "entries") / n,
        "engine.chunks": trips / n,
        "engine.units_per_chunk": tasks / trips if trips else 0.0,
        "engine.trace_ships": total("engine", "traces_published") / n,
        "engine.attach_ms_p50": _p50(ms.get("attach", [])),
        "engine.worker_simulate_ms_p50": _p50(ms.get("worker_simulate", [])),
        "engine.dispatch_s": total("phases", "serve_dispatch") / n,
        "serve.queue_ms_p50": common.nearest_rank(queue, 50.0),
        "serve.queue_ms_p99": common.nearest_rank(
            queue, common.tail_percentile(len(queue))),
        "serve.compute_ms_p50": _p50(ms.get("serve_compute", [])),
        "serve.reply_ms_p50": _p50(ms.get("serve_reply", [])),
        "serve.hit_rtt_ms_p50": _p50(
            [lat for _r, lat, rep in replies
             if isinstance(rep, dict) and rep.get("from_cache")]),
        "serve.coalesce_ratio": (total("counters", "serve_coalesced") / units
                                 if units else 0.0),
        "serve.refused": total("counters", "serve_rejected") / n,
        "tracing.overhead": (statistics.median(r["wall_s"] for r in traced)
                             / plain_wall),
    }
    # The layer table splits the time clients spent waiting (summed
    # over both connections) by the daemons' span self times; the
    # remainder is client, socket and protocol time.
    client_s = sum(lat for _r, lat, _rep in replies) / 1000.0 / n
    layer_s = {layer: s / n
               for layer, s in span_layer_seconds(spans).items()}
    rows = common.layer_table(client_s, layer_s)
    values["unattributed_s"] = rows[-1]["seconds"]
    return {"per_layer": common.per_layer_metrics(values),
            "layer_table": {"wall_s": client_s, "rows": rows,
                            "basis": "client-seconds per round"}}


def write_reference(workdir: Path) -> dict[str, str]:
    """Expected reply of every catalog request at the default seed,
    computed on the scalar engine: ``{request key: digest}``."""
    traces = inputs.write_traces(workdir / "traces", common.DEFAULT_SEED,
                                 inputs.SERVE_TRACES, inputs.SERVE_BRANCHES,
                                 ".sbbt")
    simulates, sweeps = inputs.serve_catalog(traces)
    return {request.key: common.digest(scalar_reply(request, traces))
            for request in [*simulates, *sweeps]}
