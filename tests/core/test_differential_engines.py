"""Differential tests: the vectorized engine vs the scalar predictors.

``simulate(engine="vectorized")`` claims to be a *bit-exact* rewrite of
the per-branch bimodal/GShare predictors.  Aggregate MPKI agreement can
mask compensating errors, so these tests drive the scalar predictor
branch-by-branch exactly the way the standard simulator does and
compare the full **per-branch prediction stream**, not just the totals.

Also checks the cache boundary: a result served by :mod:`repro.cache`
must be byte-identical (``to_json_string``) to the fresh simulation that
populated it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cache import SimulationCache
from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP, OPCODE_RET
from repro.core.predictor import Predictor
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import Bimodal, GShare
from repro.sbbt.trace import TraceData
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES
from tests.conftest import vectorized_predictions


def scalar_predictions(predictor: Predictor, trace: TraceData) -> np.ndarray:
    """Drive ``predictor`` exactly like the standard simulator does
    (predict/train on conditional branches, track on every branch) and
    collect each conditional branch's prediction in trace order.

    ``simulate()`` does not expose per-branch predictions, so this loop is
    the reference the vectorized engines must match bit for bit.
    """
    predictions = []
    for branch, _gap in trace.iter_branches():
        if branch.is_conditional:
            predictions.append(predictor.predict(branch.ip))
            predictor.train(branch)
        predictor.track(branch)
    return np.array(predictions, dtype=bool)


def synthetic_traces() -> list[TraceData]:
    """Workload-profile traces plus an adversarial aliasing stress trace."""
    traces = [
        generate_trace(PROFILES["short_mobile"], seed=11, num_branches=4000),
        generate_trace(PROFILES["long_server"], seed=7, num_branches=4000),
    ]
    # Heavy aliasing: few distinct IPs, random outcomes, mixed branch
    # kinds — drives every counter into both saturation clamps and makes
    # compensating-error cancellation effectively impossible to hide.
    rng = random.Random(99)
    ips, targets, opcodes, taken, gaps = [], [], [], [], []
    pool = [0x400000 + 4 * i for i in range(37)]
    for _ in range(5000):
        kind = rng.random()
        if kind < 0.8:
            opcodes.append(int(OPCODE_COND_JUMP))
            taken.append(rng.random() < 0.6)
        elif kind < 0.9:
            opcodes.append(int(OPCODE_JUMP))
            taken.append(True)
        else:
            opcodes.append(int(OPCODE_RET))
            taken.append(True)
        ips.append(rng.choice(pool))
        targets.append(rng.choice(pool))
        gaps.append(rng.randint(0, 12))
    traces.append(TraceData(
        np.array(ips, np.uint64), np.array(targets, np.uint64),
        np.array(opcodes, np.uint8), np.array(taken, bool),
        np.array(gaps, np.uint16),
        len(ips) + sum(gaps),
    ))
    return traces


@pytest.fixture(scope="module", params=[0, 1, 2],
                ids=["short_mobile", "long_server", "aliasing_stress"])
def trace(request):
    return synthetic_traces()[request.param]


class TestBimodalDifferential:
    @pytest.mark.parametrize("log_table_size,counter_width,shift", [
        (7, 2, 0),    # small table: heavy aliasing
        (10, 2, 2),   # instruction shift in play
        (9, 3, 0),    # wider counters: longer saturation walks
        (0, 1, 0),    # degenerate single-entry, single-bit counter
    ])
    def test_per_branch_bit_exact(self, trace, log_table_size,
                                  counter_width, shift):
        reference = scalar_predictions(
            Bimodal(log_table_size, counter_width, shift), trace)
        vectorized = vectorized_predictions(
            Bimodal(log_table_size, counter_width, shift), trace)
        assert len(vectorized) == len(reference)
        mismatches = np.flatnonzero(vectorized != reference)
        assert mismatches.size == 0, (
            f"first divergence at conditional branch {mismatches[:5]}"
        )

    def test_aggregates_match_scalar_simulate(self, trace):
        result = simulate(Bimodal(8), trace)
        vectorized = simulate(Bimodal(8), trace, engine="vectorized")
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)
        assert (vectorized.simulation_instructions
                == result.simulation_instructions)

    def test_warmup_region_matches(self, trace):
        warmup = trace.num_instructions // 3
        config = SimulationConfig(warmup_instructions=warmup)
        result = simulate(Bimodal(8), trace, config)
        vectorized = simulate(Bimodal(8), trace, config,
                              engine="vectorized")
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)


class TestGShareDifferential:
    @pytest.mark.parametrize("history_length,log_table_size,counter_width", [
        (8, 9, 2),     # short history, small table
        (15, 10, 2),   # history longer than table width (folding)
        (25, 8, 2),    # much longer history: multiple xor folds
        (4, 6, 3),     # wider counters
    ])
    def test_per_branch_bit_exact(self, trace, history_length,
                                  log_table_size, counter_width):
        reference = scalar_predictions(
            GShare(history_length, log_table_size, counter_width), trace)
        vectorized = vectorized_predictions(
            GShare(history_length, log_table_size, counter_width), trace)
        assert len(vectorized) == len(reference)
        mismatches = np.flatnonzero(vectorized != reference)
        assert mismatches.size == 0, (
            f"first divergence at conditional branch {mismatches[:5]}"
        )

    def test_aggregates_match_scalar_simulate(self, trace):
        result = simulate(GShare(10, 9), trace)
        vectorized = simulate(GShare(10, 9), trace, engine="vectorized")
        assert vectorized.mispredictions == result.mispredictions
        assert (vectorized.num_conditional_branches
                == result.num_conditional_branches)

    def test_warmup_region_matches(self, trace):
        warmup = trace.num_instructions // 4
        config = SimulationConfig(warmup_instructions=warmup)
        result = simulate(GShare(10, 9), trace, config)
        vectorized = simulate(GShare(10, 9), trace, config,
                              engine="vectorized")
        assert vectorized.mispredictions == result.mispredictions


class TestCachedResultsAreByteIdentical:
    def test_cache_hit_serializes_identically(self, tmp_path, trace):
        cache = SimulationCache(tmp_path / "c")
        fresh = cache.get_or_simulate(lambda: GShare(10, 9), trace,
                                      trace_name="t")
        cached = cache.get_or_simulate(lambda: GShare(10, 9), trace,
                                       trace_name="t")
        assert cached.from_cache and not fresh.from_cache
        assert cached.to_json_string() == fresh.to_json_string()

    def test_cache_hit_matches_plain_simulation(self, tmp_path, trace):
        cache = SimulationCache(tmp_path / "c")
        plain = simulate(Bimodal(9), trace, trace_name="t")
        cache.get_or_simulate(lambda: Bimodal(9), trace, trace_name="t")
        served = cache.get_or_simulate(lambda: Bimodal(9), trace,
                                       trace_name="t")
        # Identical up to wall-clock time, which is run-specific by nature.
        a, b = served.to_json(), plain.to_json()
        del a["metrics"]["simulation_time"], b["metrics"]["simulation_time"]
        assert a == b
