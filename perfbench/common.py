"""Arithmetic and records shared by every workload of the benchmark.

Everything here is pure bookkeeping: percentiles, rates, layer-table
sums, result canonicalization and the environment record.  None of it
touches the program under test, so ``test_arithmetic.py`` can pin it
without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: The seed whose expected results are stored under ``reference/``.
DEFAULT_SEED = 1

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow sample cannot stand for "the tail".
TAIL_MIN_BEYOND = 10

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# Percentiles and rates.
# ----------------------------------------------------------------------


def _rank(n: int, p: float) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def nearest_rank(ordered: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile position."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it: 99.9 or an integer from 99 down to 50.

    Falls back to 50 (the median) when even that has fewer than ten
    samples beyond it; the sample count reported beside the value
    tells the reader how far to trust it.
    """
    for p in [99.9] + list(range(99, 49, -1)):
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return float(p)
    return 50.0


def latency_summary(samples_ms: Iterable[float]) -> dict[str, Any]:
    """Median and tail of a latency sample, with the tail's percentile
    and the sample count."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latency samples")
    p_tail = tail_percentile(n)
    return {"p50_ms": nearest_rank(ordered, 50.0),
            "tail_ms": nearest_rank(ordered, p_tail),
            "tail_percentile": p_tail,
            "samples": n}


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def sim_mips(instructions: int, seconds: float) -> float:
    """Simulated instructions per host second, in millions."""
    if seconds <= 0:
        raise ValueError("non-positive host time")
    return instructions / seconds / 1e6


def result_instructions(results: Iterable[dict]) -> int:
    """Simulated instructions of a set of result documents (the
    ``metadata.simulation_instr`` each result reports)."""
    return sum(int(doc["metadata"]["simulation_instr"]) for doc in results)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median over runs, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them: the run-to-run
    spread the bounds are judged on (NaN for a zero median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.nan


# ----------------------------------------------------------------------
# Metric names (BENCHMARK.json lists the same, in the same order).
# ----------------------------------------------------------------------

END_TO_END = (("setup_s", "s"), ("sim_mips", "MIPS"), ("req_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))

PER_LAYER = tuple(
    [(f"predictors.{p}.{m}_us", "us")
     for p in ("tage", "batage", "perceptron")
     for m in ("predict", "train", "track")]
    + [("simulator.scalar_s", "s"), ("simulator.loop_us_per_branch", "us")]
    + [(f"vectorized.{part}_s", "s")
       for part in ("group", "stacked", "hybrid", "history", "walk")]
    + [(f"vectorized.{c}", "count")
       for c in ("context_reuse", "batch_groups", "batch_units")]
    + [("plan.execute_s", "s"), ("plan.cache_lookup_s", "s"),
       ("sbbt.read_s", "s"), ("sbbt.reads", "count"),
       ("cache.hit_ratio", "ratio"), ("cache.lookup_ms_p50", "ms"),
       ("cache.entries", "count"),
       ("engine.chunks", "count"), ("engine.units_per_chunk", "count"),
       ("engine.trace_ships", "count"), ("engine.attach_ms_p50", "ms"),
       ("engine.worker_simulate_ms_p50", "ms"), ("engine.dispatch_s", "s"),
       ("serve.queue_ms_p50", "ms"), ("serve.queue_ms_p99", "ms"),
       ("serve.compute_ms_p50", "ms"), ("serve.reply_ms_p50", "ms"),
       ("serve.hit_rtt_ms_p50", "ms"), ("serve.coalesce_ratio", "ratio"),
       ("serve.refused", "count"), ("tracing.overhead", "ratio"),
       ("unattributed_s", "s")])


def end_to_end_metrics(values: dict[str, float]) -> dict[str, Any]:
    """Every end-to-end metric, in :data:`END_TO_END` order."""
    if set(values) != {name for name, _ in END_TO_END}:
        raise ValueError(f"end-to-end metrics {sorted(values)}")
    return {name: metric(float(values[name]), unit)
            for name, unit in END_TO_END}


def per_layer_metrics(values: dict[str, float]) -> dict[str, Any]:
    """Every per-layer metric, in :data:`PER_LAYER` order; a layer a
    workload does not exercise reads 0."""
    unknown = sorted(set(values) - {name for name, _ in PER_LAYER})
    if unknown:
        raise ValueError(f"unknown per-layer metrics {unknown}")
    return {name: metric(float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# Layer table.
# ----------------------------------------------------------------------

#: The program's layers, in table order.
LAYERS = ("sbbt", "simulator", "predictors", "vectorized", "plan",
          "cache", "engine", "serve", "tracing")


def layer_table(wall_s: float, layer_seconds: dict[str, float],
                ) -> list[dict[str, Any]]:
    """Rows of (layer, seconds, share of wall) plus the unattributed
    remainder, which is what the wall time leaves after every layer's
    self time.  A negative remainder means layers overlapped in time
    (concurrent requests) and is reported as is."""
    if wall_s <= 0:
        raise ValueError("non-positive wall time")
    unknown = sorted(set(layer_seconds) - set(LAYERS))
    if unknown:
        raise ValueError(f"unknown layers {unknown}")
    rows = [{"layer": layer, "seconds": layer_seconds.get(layer, 0.0),
             "share": layer_seconds.get(layer, 0.0) / wall_s}
            for layer in LAYERS]
    remainder = wall_s - sum(layer_seconds.values())
    rows.append({"layer": "unattributed", "seconds": remainder,
                 "share": remainder / wall_s})
    return rows


def format_layer_table(workload: str, wall_s: float,
                       rows: Sequence[dict[str, Any]]) -> str:
    lines = [f"layer table: {workload} (wall {wall_s:.3f} s)",
             f"  {'layer':<14s}{'seconds':>12s}{'share':>9s}"]
    for row in rows:
        lines.append(f"  {row['layer']:<14s}{row['seconds']:>12.4f}"
                     f"{100 * row['share']:>8.1f}%")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Result canonicalization.
# ----------------------------------------------------------------------


def canonical_result(doc: dict[str, Any], trace_label: str) -> str:
    """A result document as compared against the reference: the
    ``SimulationResult`` JSON without its wall-clock
    ``simulation_time``, with the trace named by its workload label
    (paths differ between checkouts)."""
    doc = json.loads(json.dumps(doc))
    doc["metrics"].pop("simulation_time", None)
    doc["metadata"]["trace"] = trace_label
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference(workload: str) -> dict[str, str]:
    path = BENCH_DIR / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["units"]


# ----------------------------------------------------------------------
# Host and environment.
# ----------------------------------------------------------------------


def ref_loop_ms(repeats: int = 15) -> float:
    """Median time of one fixed pure-Python loop: host speed, recorded
    before and after each workload so drift shows beside its numbers."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def cpu_steal_s() -> float:
    """Seconds of CPU the hypervisor has given to others since boot,
    summed over this machine's CPUs (0 where /proc/stat has no steal
    column)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def proc_descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, from /proc children lists."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        task_dir = Path(f"/proc/{current}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in children:
                found.append(int(child))
                frontier.append(int(child))
    return found


def source_digest() -> str:
    """sha256 over the program's source files, so a record names the
    exact code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        h.update(str(path.relative_to(SRC_DIR)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a
    git work tree (an enclosing repository's HEAD would be wrong)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=REPO_ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != REPO_ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict[str, Any]:
    import numpy

    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "seed": seed}


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for a child interpreter running the program from
    this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("MBP_CACHE_DIR", None)
    env.pop("MBP_TRACE_DIR", None)
    if extra:
        env.update(extra)
    return env


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def emit(result: dict[str, Any]) -> None:
    """Print the contract's last line and flush."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
