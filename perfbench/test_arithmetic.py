"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10, 50.0),      # nothing has ten beyond it: the median, flagged
    (20, 50.0),      # ceil(0.50*20)=10 -> 10 beyond; p51 leaves 9
    (36, 72.0),      # ceil(0.72*36)=26 -> 10 beyond; p73 leaves 9
    (100, 90.0),
    (1000, 99.0),    # 10 beyond p99; p99.9 leaves 1
    (10_000, 99.9),  # 10 beyond p99.9
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = common.tail_percentile(n)
    assert p == expected
    if n >= 20:
        assert common.samples_beyond(n, p) >= 10
    higher = [q for q in [99.9] + list(range(99, 49, -1)) if q > p]
    assert all(common.samples_beyond(n, q) < 10 for q in higher)


def test_latency_summary_reports_percentile_and_count():
    samples = [float(i) for i in range(1, 101)]  # 1..100 ms, shuffled
    samples.reverse()
    summary = common.latency_summary(samples)
    assert summary == {"p50_ms": 50.0, "tail_ms": 90.0,
                       "tail_percentile": 90.0, "samples": 100}


def test_nearest_rank_edges():
    assert common.nearest_rank([3.0], 99.9) == 3.0
    assert common.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        common.nearest_rank([], 50.0)


# -- error_rate ---------------------------------------------------------


def test_error_rate_numerator_and_denominator():
    assert common.error_rate(0, 754) == 0.0
    assert common.error_rate(3, 12) == 0.25
    assert common.error_rate(5, 5) == 1.0
    with pytest.raises(ValueError):
        common.error_rate(0, 0)      # nothing attempted
    with pytest.raises(ValueError):
        common.error_rate(13, 12)    # more failures than attempts
    with pytest.raises(ValueError):
        common.error_rate(-1, 12)


# -- sim_mips instruction totals ----------------------------------------


def _doc(instructions: int) -> dict:
    return {"metadata": {"simulation_instr": instructions}}


def test_sim_mips_totals_simulated_instructions():
    docs = [_doc(291_796), _doc(268_819), _doc(377_068), _doc(395_879)]
    total = common.result_instructions(docs)
    assert total == 1_333_562
    assert common.sim_mips(total, 0.5) == pytest.approx(2.667124)
    assert common.result_instructions([]) == 0
    with pytest.raises(ValueError):
        common.sim_mips(total, 0.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [float(v) for v in range(1, 11)]
    # quantiles(n=4) of 1..10: 2.75, 5.5, 8.25.
    assert common.quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert common.quartile_spread([4.0, 4.0, 4.0, 4.0]) == 0.0


# -- layer table remainder ----------------------------------------------


def test_layer_table_remainder_is_wall_minus_layers():
    rows = common.layer_table(10.0, {"predictors": 6.0, "simulator": 1.5,
                                     "sbbt": 0.5})
    by_layer = {row["layer"]: row for row in rows}
    assert [row["layer"] for row in rows] == \
        list(common.LAYERS) + ["unattributed"]
    assert by_layer["unattributed"]["seconds"] == pytest.approx(2.0)
    assert by_layer["unattributed"]["share"] == pytest.approx(0.2)
    assert by_layer["predictors"]["share"] == pytest.approx(0.6)
    assert sum(row["seconds"] for row in rows) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        common.layer_table(1.0, {"not-a-layer": 0.1})


def test_layer_clock_charges_self_time(monkeypatch):
    # perf_counter readings: outer in, inner in, inner out, outer out.
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(layers.time, "perf_counter", lambda: next(ticks))
    clock = layers.LayerClock()
    inner = clock.wrap("sbbt.read", lambda: None)
    outer = clock.wrap("simulator.scalar", lambda: inner())
    outer()
    assert clock.seconds["sbbt.read"] == 2.0
    assert clock.seconds["simulator.scalar"] == 8.0
    assert clock.layer_seconds() == {"sbbt": 2.0, "simulator": 8.0}
    rows = common.layer_table(10.0, clock.layer_seconds())
    assert rows[-1]["seconds"] == pytest.approx(0.0)


def _span(span_id, parent, start, duration, name="serve_unit", **attrs):
    return SimpleNamespace(span_id=span_id, parent_id=parent, start=start,
                           duration=duration, name=name, attributes=attrs)


def test_span_self_time_sums_to_roots_with_overlapping_children():
    spans = [
        _span("r", None, 0.0, 10.0, "serve_request"),
        # Two children in flight together over [2, 8): 12 s summed,
        # 6 s covered -> each charged half its duration.
        _span("a", "r", 2.0, 6.0, "unit"),
        _span("b", "r", 2.0, 6.0, "unit"),
        _span("w", "a", 3.0, 4.0, "simulate", sim_engine="auto"),
    ]
    own = layers.span_self_seconds(spans)
    assert own["r"] == pytest.approx(4.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["w"] == pytest.approx(2.0)   # scaled with its parent
    assert own["a"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)
    by_layer = layers.span_layer_seconds(spans)
    assert by_layer == pytest.approx({"serve": 4.0, "engine": 4.0,
                                      "vectorized": 2.0})


# -- result canonicalization and metric names ---------------------------


def test_canonical_result_drops_wall_clock_and_path():
    doc = {"metadata": {"trace": "/some/checkout/t.sbbt"},
           "metrics": {"mpki": 1.5, "simulation_time": 0.25}}
    again = {"metadata": {"trace": "/elsewhere/t.sbbt"},
             "metrics": {"mpki": 1.5, "simulation_time": 9.0}}
    assert common.canonical_result(doc, "t") == \
        common.canonical_result(again, "t")
    assert "simulation_time" not in common.canonical_result(doc, "t")
    assert doc["metrics"]["simulation_time"] == 0.25  # input untouched


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(common.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(common.PER_LAYER)
    assert set(common.per_layer_metrics({})) == \
        {name for name, _ in common.PER_LAYER}
    with pytest.raises(ValueError):
        common.per_layer_metrics({"nope": 1.0})
