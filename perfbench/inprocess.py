"""suite-heavy and sweep-grid: single-threaded, in-process workloads.

Each run makes its traces from the seed, measures set-up in fresh
interpreters, warms up on a tiny trace, then repeats whole passes of
the workload until ``--seconds`` of pass time is measured; a pass is
one public call per trace.  Every pass does the same work on the same
inputs, and on a shared host other tenants can only slow a repeat
down, so the run reports best repeats: rates from the sum of each
call's fastest repeat, latencies from each unit's fastest repeat
(medians over passes are kept in the record beside them).
Every unit of every pass is checked: against the stored reference at
the default seed, otherwise against the first pass, plus a seeded
sample re-simulated on the scalar engine.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

import common
import inputs
from layers import LayerClock

#: Fresh-interpreter set-up measurements per run (median reported).
SETUP_REPEATS = 9
#: Units re-simulated on the scalar engine at a non-default seed.
SCALAR_SAMPLE = 2

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import functools
import repro
from repro.core.plan import WorkPlan
{lower}
print(time.perf_counter() - start)
"""

SUITE_LOWER = """\
from repro.registry import predictor_factory
plan = WorkPlan.for_points(
    [(i, predictor_factory(n)) for i, n in enumerate({predictors!r})],
    sys.argv[1:], sim_engine="auto")
"""

SWEEP_LOWER = """\
sys.path.insert(0, {bench_dir!r})
from inputs import build_predictor
plan = WorkPlan.for_points(
    [(i, functools.partial(build_predictor, **p))
     for i, p in enumerate({points!r})],
    sys.argv[1:], sim_engine="auto")
"""


class InProcessWorkload:
    """Shared pass runner; subclasses define the plan and unit keys."""

    name = ""
    count = len(inputs.CATEGORIES)
    branches = 0
    lower = ""

    def __init__(self, workdir: Path, seed: int):
        self.traces = inputs.write_traces(
            workdir / "traces", seed, self.count, self.branches, ".sbbt.xz")
        self.paths = [str(path) for _, path in self.traces]

    # -- subclass surface ---------------------------------------------

    def run_call(self, trace: Any, label: str, clock: LayerClock | None,
                 instrumentation: Any) -> list[tuple[str, Any]]:
        """One public call over one trace; returns (unit key, outcome)
        pairs."""
        raise NotImplementedError

    def scalar_result(self, key: str) -> Any:
        """The unit ``key`` re-simulated on the scalar engine."""
        raise NotImplementedError

    # -- shared pass runner -------------------------------------------

    def run_pass(self, clock: LayerClock | None, instrumentation: Any,
                 traces: list | None = None,
                 ) -> tuple[list[tuple[str, Any]], dict[str, float]]:
        """One pass, one call per trace; returns (unit key, outcome)
        pairs and each call's seconds by trace label."""
        if traces is None:
            traces = [(label, str(path)) for label, path in self.traces]
        pairs: list[tuple[str, Any]] = []
        calls: dict[str, float] = {}
        for label, trace in traces:
            start = time.perf_counter()
            pairs += self.run_call(trace, label, clock, instrumentation)
            calls[label] = time.perf_counter() - start
        return pairs, calls

    def measure_setup(self) -> list[float]:
        code = SETUP_CODE.format(lower=self.lower)
        samples = []
        for _ in range(SETUP_REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", code, *self.paths],
                env=common.child_env(), capture_output=True, text=True,
                timeout=120, check=True)
            samples.append(float(out.stdout.strip().splitlines()[-1]))
        return samples

    def warm_up(self) -> None:
        """Run the pass shape once over a tiny in-memory trace, so lazy
        imports and first-call set-up are not timed."""
        from repro.traces.workloads import generate_workload

        tiny = generate_workload(inputs.CATEGORIES[0], seed=0,
                                 num_branches=1000)
        self.run_pass(None, None, traces=[("warmup", tiny)])

    def label(self, key: str) -> str:
        return key.rsplit("|", 1)[1]


class SuiteHeavy(InProcessWorkload):
    """TAGE, BATAGE and the hashed perceptron (registry defaults) over a
    32-trace suite: one WorkPlan per trace, sim_engine="auto", inline,
    no cache."""

    name = "suite-heavy"
    count = inputs.SUITE_TRACES
    branches = inputs.SUITE_BRANCHES
    lower = SUITE_LOWER.format(predictors=inputs.SUITE_PREDICTORS)

    def run_call(self, trace, label, clock, instrumentation):
        from repro.core.plan import WorkPlan, execute_plan
        from repro.registry import predictor_factory

        factories = []
        for i, predictor in enumerate(inputs.SUITE_PREDICTORS):
            factory = predictor_factory(predictor)
            if clock is not None:
                factory = clock.traced_factory(predictor, factory)
            factories.append((i, factory))
        plan = WorkPlan.for_points(factories, [trace], names=[label],
                                   sim_engine="auto")
        outcomes = execute_plan(plan, batch="auto",
                                instrumentation=instrumentation)
        return [(f"{inputs.SUITE_PREDICTORS[unit.tag]}|{unit.name}",
                 outcome) for unit, outcome in zip(plan, outcomes)]

    def scalar_result(self, key):
        import repro
        from repro.registry import make_predictor

        predictor, label = key.split("|")
        path = dict((lbl, str(p)) for lbl, p in self.traces)[label]
        return repro.simulate(make_predictor(predictor), path,
                              trace_name=label, engine="scalar")


class SweepGrid(InProcessWorkload):
    """A 47-point design-space sweep over eight traces, one
    evaluate_param_sets call per trace: batch="auto", inline, no
    cache."""

    name = "sweep-grid"
    count = inputs.SWEEP_TRACES
    branches = inputs.SWEEP_BRANCHES
    lower = SWEEP_LOWER.format(bench_dir=str(common.BENCH_DIR),
                               points=inputs.sweep_grid_points())

    def run_call(self, trace, label, clock, instrumentation):
        from repro.analysis.sweep import evaluate_param_sets

        factory: Callable = inputs.build_predictor
        if clock is not None:
            factory = clock.traced_factory("sweep", factory)
        points = inputs.sweep_grid_points()
        batches = evaluate_param_sets(
            factory, points, [trace], batch="auto", sim_engine="auto",
            on_error="collect", instrumentation=instrumentation)
        return [(f"{inputs.point_label(point)}|{label}", outcome)
                for point, batch in zip(points, batches)
                for outcome in [*batch.results, *batch.failures]]

    def scalar_result(self, key):
        import repro

        point_text, label = key.rsplit("|", 1)
        point = next(p for p in inputs.sweep_grid_points()
                     if inputs.point_label(p) == point_text)
        path = dict((lbl, str(p)) for lbl, p in self.traces)[label]
        return repro.simulate(inputs.build_predictor(**point), path,
                              trace_name=label, engine="scalar")


WORKLOADS = {cls.name: cls for cls in (SuiteHeavy, SweepGrid)}


def run(name: str, workdir: Path, seed: int, seconds: float,
        traced: bool) -> dict[str, Any]:
    """Run one in-process workload; returns the run record."""
    workload = WORKLOADS[name](workdir, seed)
    setup = workload.measure_setup()
    workload.warm_up()

    from repro.core.output import SimulationResult
    from repro.telemetry import PhaseTimers

    reference = common.load_reference(name) if seed == common.DEFAULT_SEED \
        else None
    first_pass: dict[str, str] = {}
    attempted = failed = 0
    problems: list[str] = []
    passes: list[dict[str, Any]] = []
    unit_ms: dict[str, list[float]] = {}
    clock = LayerClock() if traced else None
    instr = PhaseTimers() if traced else None

    measured = 0.0
    while measured < seconds or (traced and len(passes) < 2):
        # Traced runs alternate untraced and traced passes, so the
        # tracing overhead is a ratio of neighbours.
        tracing = traced and len(passes) % 2 == 1
        if tracing:
            clock.install()
        try:
            start = time.perf_counter()
            outcomes, calls = workload.run_pass(clock if tracing else None,
                                                instr if tracing else None)
            wall = time.perf_counter() - start
        finally:
            if tracing:
                clock.uninstall()
        measured += wall
        instructions = 0
        for key, outcome in outcomes:
            attempted += 1
            if not isinstance(outcome, SimulationResult):
                failed += 1
                problems.append(f"{key}: {outcome.error}")
                continue
            instructions += outcome.simulation_instructions
            if not tracing:
                unit_ms.setdefault(key, []).append(
                    outcome.simulation_time * 1000.0)
            got = common.digest(common.canonical_result(
                outcome.to_json(), workload.label(key)))
            want = (reference.get(key) if reference is not None
                    else first_pass.setdefault(key, got))
            if got != want:
                failed += 1
                problems.append(f"{key}: result {got} != expected {want}")
        passes.append({"wall_s": wall, "units": len(outcomes),
                       "instructions": instructions, "traced": tracing,
                       "calls_s": calls})
    peak_rss = common.self_peak_rss_mb()

    if reference is None:
        keys = sorted(first_pass)
        for key in random.Random(seed).sample(keys, SCALAR_SAMPLE):
            attempted += 1
            got = common.digest(common.canonical_result(
                workload.scalar_result(key).to_json(), workload.label(key)))
            if got != first_pass[key]:
                failed += 1
                problems.append(f"{key}: scalar {got} != "
                                f"{first_pass[key]}")
    elif set(reference) != {key for key, _ in outcomes}:
        failed += 1
        problems.append("unit set differs from the reference")

    timed = [p for p in passes if not p["traced"]]
    record: dict[str, Any] = {
        "passes": passes, "setup_samples_s": setup,
        "attempted": attempted, "failed": failed, "problems": problems,
        "verification": ("reference" if reference is not None
                         else f"first pass + {SCALAR_SAMPLE} scalar"),
    }
    lat = common.latency_summary(min(v) for v in unit_ms.values())
    lat["of"] = "each unit's fastest repeat"
    record["latency"] = lat
    # Each trace's call at its fastest repeat: a pass as the program
    # runs it when no other tenant slows it down.
    fastest_s = sum(min(p["calls_s"][label] for p in timed)
                    for label in timed[0]["calls_s"])
    record["median_over_passes"] = {
        "sim_mips": statistics.median(
            common.sim_mips(p["instructions"], p["wall_s"]) for p in timed),
        "req_per_s": statistics.median(
            p["units"] / p["wall_s"] for p in timed),
        "latency_p50_ms": common.latency_summary(
            statistics.median(v) for v in unit_ms.values())["p50_ms"],
    }
    record["end_to_end"] = common.end_to_end_metrics({
        "setup_s": statistics.median(setup),
        "sim_mips": common.sim_mips(timed[0]["instructions"], fastest_s),
        "req_per_s": timed[0]["units"] / fastest_s,
        "latency_p50_ms": lat["p50_ms"],
        "latency_p99_ms": lat["tail_ms"],
        "peak_rss_mb": peak_rss,
    })
    if traced:
        record.update(_layer_metrics(clock, instr, passes))
    return record


def _layer_metrics(clock: LayerClock, instr: Any,
                   passes: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-layer metrics of the traced passes; seconds are per pass."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    seconds = clock.seconds
    calls = clock.calls
    values: dict[str, float] = {}
    for predictor in ("tage", "batage", "perceptron"):
        for method in ("predict", "train", "track"):
            key = f"predictors.{predictor}.{method}"
            if calls[key]:
                values[f"{key}_us"] = seconds[key] / calls[key] * 1e6
    values["simulator.scalar_s"] = seconds["simulator.scalar"] / n
    if clock.scalar_branches:
        values["simulator.loop_us_per_branch"] = (
            seconds["simulator.scalar"] / clock.scalar_branches * 1e6)
    for part in ("group", "stacked", "hybrid", "history", "walk"):
        values[f"vectorized.{part}_s"] = seconds[f"vectorized.{part}"] / n
    for counter in ("context_reuse", "batch_groups", "batch_units"):
        values[f"vectorized.{counter}"] = instr.counters.get(counter, 0) / n
    values["plan.execute_s"] = seconds["plan.execute"] / n
    values["plan.cache_lookup_s"] = instr.phases.get("cache_lookup", 0.0) / n
    values["sbbt.read_s"] = seconds["sbbt.read"] / n
    values["sbbt.reads"] = calls["sbbt.read"] / n
    values["tracing.overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain))
    wall = sum(p["wall_s"] for p in traced) / n
    rows = common.layer_table(
        wall, {layer: s / n for layer, s in clock.layer_seconds().items()})
    values["unattributed_s"] = rows[-1]["seconds"]
    return {"per_layer": common.per_layer_metrics(values),
            "layer_table": {"wall_s": wall, "rows": rows}}


def write_reference(name: str, workdir: Path) -> dict[str, str]:
    """Expected result of every unit at the default seed, each computed
    by the scalar engine: ``{unit key: digest}``."""
    workload = WORKLOADS[name](workdir, common.DEFAULT_SEED)
    keys = [key for key, _ in workload.run_pass(None, None)[0]]
    units = {}
    for key in keys:
        units[key] = common.digest(common.canonical_result(
            workload.scalar_result(key).to_json(), workload.label(key)))
    return units

