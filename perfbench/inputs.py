"""Seeded inputs of the three workloads.

Inputs are made by the benchmark, not measured: the same ``--seed``
gives byte-identical traces, catalogs and request streams.  The program
only ever sees the generated files.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: One trace per CBP5-like category, as in the paper's suites.
CATEGORIES = ("short_mobile", "long_mobile", "short_server", "long_server")

SUITE_PREDICTORS = ("tage", "batage", "perceptron")
#: Thirty-two short traces, eight per category.  A unit's cost depends
#: on the synthetic program the seed draws (TAGE on one category cost
#: 490-890 ms at 12k branches over three seeds), and the median unit
#: latency is one of those costs: with one trace per category it was
#: one of twelve and jumped from seed to seed; 96 units smooth it.
SUITE_TRACES = 32
SUITE_BRANCHES = 1_000
#: Eight short traces, two per category.  A pass averages over eight
#: synthetic programs, and no trace is long enough for hot table indices
#: to push the grouped counter walk past its depth limit into the
#: doubling-scan fallback: at 50k branches about half the traces fell
#: back and cost twice as much, and at 25k some seeds still produced
#: one, so a pass's cost depended on which programs the seed drew.
SWEEP_TRACES = 8
SWEEP_BRANCHES = 12_500
SERVE_TRACES = 10
SERVE_BRANCHES = 16_000
#: Zipf exponent of the serve request mix.
ZIPF_S = 1.1
#: Share of serve requests that are sweeps.  Each sweep is small (two
#: points on one trace), so sweeps blend into the miss tail instead of
#: making up the client-observed p99 on their own.
SWEEP_SHARE = 0.01


def _trace_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_traces(directory: Path, seed: int, count: int, branches: int,
                 suffix: str) -> list[tuple[str, Path]]:
    """``count`` synthetic traces cycling through :data:`CATEGORIES`;
    returns (label, path) pairs."""
    from repro.sbbt import write_trace
    from repro.traces.workloads import generate_workload

    directory.mkdir(parents=True, exist_ok=True)
    traces = []
    for i in range(count):
        category = CATEGORIES[i % len(CATEGORIES)]
        label = f"{category}-{i}"
        path = directory / f"{label}{suffix}"
        write_trace(path, generate_workload(
            category, seed=_trace_seed(seed, i), num_branches=branches))
        traces.append((label, path))
    return traces


# ----------------------------------------------------------------------
# sweep-grid: the 47-point design-space sweep.
# ----------------------------------------------------------------------


def sweep_grid_points() -> list[dict[str, Any]]:
    """GShare history 2-17 x table {2^14, 2^16}, bimodal tables 2^8-2^17,
    and five more predictors at their defaults: 47 points."""
    points = [{"predictor": "gshare", "history_length": h,
               "log_table_size": s}
              for h in range(2, 18) for s in (14, 16)]
    points += [{"predictor": "bimodal", "log_table_size": s}
               for s in range(8, 18)]
    points += [{"predictor": name} for name in
               ("two-level", "tournament", "gskew", "yags", "local")]
    return points


def build_predictor(predictor: str, **parameters: Any):
    """Factory of every sweep point: registry name plus overrides.
    Module-level, so ``functools.partial`` over it pickles."""
    from repro.registry import resolve_predictor

    return resolve_predictor(predictor)(**parameters)


def point_label(point: dict[str, Any]) -> str:
    return ",".join(f"{k}={v}" for k, v in point.items())


# ----------------------------------------------------------------------
# serve-mix: catalog and request streams.
# ----------------------------------------------------------------------


def serve_configs() -> list[tuple[str, dict[str, Any]]]:
    """The predictor configurations of the simulate catalog: only
    predictors with vector kernels, so a miss costs tens of
    milliseconds, not seconds."""
    configs = [("gshare", {"history_length": h, "log_table_size": s})
               for h in range(2, 22) for s in range(10, 17)]
    configs += [("bimodal", {"log_table_size": s}) for s in range(6, 21)]
    configs += [("local", {"history_length": h, "log_histories": s})
                for h in range(4, 17, 2) for s in (8, 10)]
    configs += [("yags", {"history_length": h, "log_cache_size": s})
                for h in (8, 10, 12, 14) for s in (9, 11)]
    configs += [("gskew", {"log_bank_size": b, "history_length_g0": g})
                for b in (10, 12, 14) for g in (7, 9)]
    configs += [("two-level", {"history_length": h})
                for h in (8, 10, 12, 14)]
    configs += [("tournament", {})]
    return configs


#: The sweep requests: (predictor, parameter, values, fixed parameters).
SERVE_SWEEPS = (
    ("gshare", "history_length", [4, 12], {"log_table_size": 12}),
    ("bimodal", "log_table_size", [8, 12], {}),
    ("local", "history_length", [6, 14], {"log_histories": 10}),
    ("yags", "history_length", [8, 12], {"log_cache_size": 11}),
)


@dataclass(frozen=True)
class Request:
    """One serve request: a ``simulate`` of catalog item ``key`` or a
    ``sweep``; ``frame`` is the wire request."""

    key: str
    op: str
    frame: dict[str, Any]


def serve_catalog(traces: list[tuple[str, Path]],
                  ) -> tuple[list[Request], list[Request]]:
    """Every simulate request (configs x traces) and every sweep
    request (each sweep over each trace)."""
    simulates = []
    for label, path in traces:
        for name, params in serve_configs():
            key = f"{label}|{name}|{_params_key(params)}"
            simulates.append(Request(key, "simulate", {
                "op": "simulate", "trace": str(path), "predictor": name,
                "parameters": params}))
    sweeps = []
    for name, parameter, values, fixed in SERVE_SWEEPS:
        for label, path in traces:
            key = (f"sweep|{label}|{name}|{parameter}={values}|"
                   f"{_params_key(fixed)}")
            sweeps.append(Request(key, "sweep", {
                "op": "sweep", "traces": [str(path)], "predictor": name,
                "parameter": parameter, "values": list(values),
                "parameters": fixed}))
    return simulates, sweeps


def _params_key(params: dict[str, Any]) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


class ZipfStream:
    """An endless seeded request stream: Zipf(``ZIPF_S``) over a
    seed-shuffled catalog, with sweeps mixed in at ``SWEEP_SHARE``."""

    def __init__(self, simulates: list[Request], sweeps: list[Request],
                 seed: int, client: int):
        order = random.Random(seed)
        self._simulates = list(simulates)
        order.shuffle(self._simulates)
        self._sweeps = list(sweeps)
        order.shuffle(self._sweeps)
        self._cum_sim = _zipf_cumulative(len(self._simulates))
        self._cum_sweep = _zipf_cumulative(len(self._sweeps))
        self._rng = random.Random(f"{seed}/{client}")

    def next(self) -> Request:
        rng = self._rng
        if rng.random() < SWEEP_SHARE:
            return self._sweeps[_draw(rng, self._cum_sweep)]
        return self._simulates[_draw(rng, self._cum_sim)]


def _zipf_cumulative(n: int) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, n + 1):
        total += rank ** -ZIPF_S
        cumulative.append(total)
    return cumulative


def _draw(rng: random.Random, cumulative: list[float]) -> int:
    return bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
