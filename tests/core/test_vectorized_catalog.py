"""Catalog-wide differential harness: ``engine="vectorized"`` vs scalar.

Every table-indexed predictor in the catalog — bimodal, gshare, gskew,
two-level (all four scope combinations), local, tournament (McFarling
and Alpha 21264 shapes), YAGS, TAGE, BATAGE and the hashed perceptron —
must produce a **byte-identical**
:class:`~repro.core.output.SimulationResult` JSON document (end-of-run
metadata and statistics included), an identical probe report and an
identical interval series under the vectorized engine, for arbitrary
traces, table sizes, history lengths and counter widths.  Aggregate
agreement can hide compensating errors, so the serialized document
(which includes the most-failed branch profile) is compared verbatim;
only ``simulation_time`` — wall-clock, meaningless to compare — is
removed first.

Uses `hypothesis` when the environment provides it; otherwise the same
properties run against draws from a seeded ``random.Random``, so the
file never silently skips.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.branch import OPCODE_COND_JUMP, OPCODE_JUMP, OPCODE_RET
from repro.core.simulator import SimulationConfig, simulate
from repro.predictors import (
    Batage,
    Bimodal,
    GShare,
    HashedPerceptron,
    LocalPredictor,
    OGehl,
    Tage,
    Tournament,
    TwoBcGskew,
    Yags,
    tage_sc_l,
)
from repro.predictors.twolevel import Scope, TwoLevel
from repro.probe import PredictionProbe
from repro.telemetry import IntervalRecorder
from tests.conftest import make_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

#: Scope combinations of the two-level predictor, all vectorizable.
_SCOPES = [Scope.GLOBAL, Scope.PER_SET, Scope.PER_ADDRESS]


def _tagged_geometry(rng: random.Random) -> dict:
    """TAGE/BATAGE shape: up to four small tables, narrow tags and
    histories up to 200 bits, so folds beyond the 63-bit packed window
    run and fresh all-zero tags alias often."""
    num_tables = rng.randint(1, 4)
    return dict(num_tables=num_tables,
                log_base_size=rng.randint(1, 6),
                log_tagged_size=rng.randint(1, 5),
                tag_widths=[rng.randint(1, 8) for _ in range(num_tables)],
                min_history=rng.randint(1, 8),
                max_history=rng.randint(8, 200))

#: CLI-facing catalog: name -> (seeded Random) -> predictor.  Parameters
#: are drawn small so short traces still exercise aliasing, saturation
#: clamps at every counter width, and history wrap-around.
CATALOG = {
    "bimodal": lambda rng: Bimodal(
        log_table_size=rng.randint(0, 5),
        counter_width=rng.randint(1, 4),
        instruction_shift=rng.choice([0, 2])),
    "gshare": lambda rng: GShare(
        history_length=rng.randint(1, 12),
        log_table_size=rng.randint(1, 6),
        counter_width=rng.randint(1, 4)),
    "two-level": lambda rng: TwoLevel(
        rng.choice(_SCOPES), rng.choice(_SCOPES),
        history_length=rng.randint(1, 8),
        log_histories=rng.randint(0, 4),
        log_pattern_tables=rng.randint(0, 3),
        set_shift=rng.choice([0, 2, 4]),
        counter_width=rng.randint(1, 3)),
    "local": lambda rng: LocalPredictor(
        log_histories=rng.randint(0, 5),
        history_length=rng.randint(1, 10),
        counter_width=rng.randint(1, 4)),
    "tournament": lambda rng: Tournament(
        meta=Bimodal(rng.randint(1, 4), rng.randint(1, 3)),
        bp0=Bimodal(rng.randint(0, 5), rng.randint(1, 3)),
        bp1=GShare(rng.randint(1, 10), rng.randint(1, 5),
                   rng.randint(1, 3))),
    "gskew": lambda rng: TwoBcGskew(
        log_bank_size=rng.randint(2, 6),
        history_length_g0=rng.randint(1, 10),
        history_length_g1=rng.randint(1, 16)),
    "yags": lambda rng: Yags(
        log_choice_size=rng.randint(1, 6),
        log_cache_size=rng.randint(1, 5),
        tag_width=rng.randint(1, 8),
        history_length=rng.randint(1, 12)),
    # u_reset_period down to 4 so graceful u resets happen on short
    # traces; small cat_max/counter_max/skip_max so CAT throttling,
    # controlled decay and counter saturation all occur.
    "tage": lambda rng: Tage(
        **_tagged_geometry(rng),
        counter_width=rng.randint(1, 4),
        useful_width=rng.randint(1, 3),
        u_reset_period=rng.choice([4, rng.randint(4, 64), 1 << 18]),
        lfsr_seed=rng.randint(0, 2**32 - 1)),
    "batage": lambda rng: Batage(
        **_tagged_geometry(rng),
        counter_max=rng.randint(1, 7),
        cat_max=rng.choice([1, rng.randint(2, 64), 1 << 14]),
        skip_max=rng.randint(0, 4),
        lfsr_seed=rng.randint(0, 2**32 - 1)),
    "perceptron": lambda rng: HashedPerceptron(
        log_table_size=rng.randint(1, 6),
        weight_width=rng.randint(2, 8),
        history_lengths=[rng.randint(0, 63)
                         for _ in range(rng.randint(1, 6))],
        theta=rng.choice([None, rng.randint(0, 30)]),
        adaptive_theta=rng.random() < 0.5,
        use_path_history=rng.random() < 0.5),
}

#: Predictors that keep the scalar engine: no vector kernel.
SCALAR_ONLY = {
    "ogehl": lambda: OGehl(num_tables=4, log_table_size=8),
    "tage_sc_l": tage_sc_l,
}


def random_trace(rng: random.Random, num_branches: int,
                 pool_size: int, conditional_fraction: float):
    """A trace with mixed branch kinds over a small aliasing-heavy pool."""
    pool = [0x40_0000 + 4 * i for i in range(pool_size)]
    ips, opcodes, taken, gaps = [], [], [], []
    for _ in range(num_branches):
        kind = rng.random()
        if kind < conditional_fraction:
            opcodes.append(int(OPCODE_COND_JUMP))
            taken.append(rng.random() < 0.6)
        elif kind < conditional_fraction + 0.1:
            opcodes.append(int(OPCODE_JUMP))
            taken.append(True)
        else:
            opcodes.append(int(OPCODE_RET))
            taken.append(True)
        ips.append(rng.choice(pool))
        gaps.append(rng.randint(0, 9))
    return make_trace(ips, taken, opcodes=opcodes, gaps=gaps)


def random_config(rng: random.Random, trace) -> SimulationConfig:
    instructions = trace.num_instructions
    warmup = rng.choice([0, 0, instructions // 3, instructions + 10])
    limit = rng.choice([None, None, max(1, instructions // 2)])
    return SimulationConfig(
        warmup_instructions=warmup, max_instructions=limit,
        track_only_conditional=rng.random() < 0.3)


def comparable_document(result) -> dict:
    document = json.loads(result.to_json_string())
    del document["metrics"]["simulation_time"]
    return document


def assert_engines_agree(factory, trace, config) -> None:
    """The headline property: byte-identical results and probe reports."""
    scalar_probe, vector_probe = PredictionProbe(), PredictionProbe()
    scalar = simulate(factory(), trace, config, probe=scalar_probe)
    vector = simulate(factory(), trace, config, engine="vectorized",
                      probe=vector_probe)
    assert comparable_document(scalar) == comparable_document(vector)
    # Probe reports must match as *serialized*: same values, same key
    # order (report tables golden-test on ordering).
    assert (json.dumps(scalar.probe_report)
            == json.dumps(vector.probe_report))


def check_one(name: str, seed: int) -> None:
    rng = random.Random(seed)
    factory = CATALOG[name]
    predictor_seed = rng.randint(0, 2**30)
    trace = random_trace(rng, num_branches=rng.randint(2, 400),
                         pool_size=rng.randint(1, 40),
                         conditional_fraction=rng.choice([0.5, 0.8, 1.0]))
    config = random_config(rng, trace)
    assert_engines_agree(lambda: factory(random.Random(predictor_seed)),
                         trace, config)


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("name", sorted(CATALOG))
    class TestCatalogDifferential:
        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        def test_byte_identical_results(self, name, seed):
            check_one(name, seed)

else:  # pragma: no cover - environments without hypothesis

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("seed", range(25))
    def test_byte_identical_results(name, seed):
        check_one(name, seed * 7919 + hash(name) % 1000)


class TestCatalogEdges:
    """Deterministic edge traces the random draws may not always hit."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_empty_trace(self, name):
        trace = make_trace([], [])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(1)), trace,
                             SimulationConfig())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_single_branch(self, name):
        trace = make_trace([0x40_0000], [True])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(2)), trace,
                             SimulationConfig())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_single_not_taken_with_warmup(self, name):
        trace = make_trace([0x40_0000], [False], gaps=[5])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(3)), trace,
                             SimulationConfig(warmup_instructions=100))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_no_conditional_branches(self, name):
        trace = make_trace([0x40_0000, 0x40_0040], [True, True],
                           opcodes=[int(OPCODE_JUMP), int(OPCODE_RET)])
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(4)), trace,
                             SimulationConfig())

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("warmup,limit", [(0, None), (300, 2000),
                                              (10**9, None)])
    def test_interval_series(self, name, warmup, limit):
        rng = random.Random(5)
        trace = random_trace(rng, num_branches=400, pool_size=24,
                             conditional_fraction=0.8)
        config = SimulationConfig(warmup_instructions=warmup,
                                  max_instructions=limit)
        factory = CATALOG[name]
        recorders = []
        results = []
        for engine in ("scalar", "vectorized"):
            recorder = IntervalRecorder(interval=97)
            results.append(simulate(factory(random.Random(6)), trace,
                                    config, engine=engine,
                                    telemetry=recorder))
            recorders.append(recorder)
        assert (recorders[0].series.to_json()
                == recorders[1].series.to_json())
        assert recorders[1].series.consistent_with(results[1])
        assert (comparable_document(results[0])
                == comparable_document(results[1]))

    def test_auto_engine_matches_vectorized(self, small_trace):
        scalar = simulate(Bimodal(8), small_trace)
        auto = simulate(Bimodal(8), small_trace, engine="auto")
        assert comparable_document(scalar) == comparable_document(auto)

    def test_auto_engine_falls_back_for_scalar_only_predictor(
            self, small_trace):
        for factory in SCALAR_ONLY.values():
            result = simulate(factory(), small_trace, engine="auto")
            assert result.num_conditional_branches > 0
            assert (comparable_document(result) == comparable_document(
                simulate(factory(), small_trace)))

    def test_vectorized_engine_rejects_scalar_only_predictor(
            self, small_trace):
        from repro.core.errors import EngineNotSupportedError

        for factory in SCALAR_ONLY.values():
            with pytest.raises(EngineNotSupportedError) as excinfo:
                simulate(factory(), small_trace, engine="vectorized")
            assert "vector kernel" in str(excinfo.value)

    def test_out_of_range_configurations_stay_scalar(self, small_trace):
        # Histories beyond the packed window and dual counters beyond
        # the kernel's state tables keep the scalar engine under auto.
        for factory in (
                lambda: HashedPerceptron(log_table_size=8,
                                         history_lengths=(0, 64)),
                lambda: Batage(num_tables=2, log_tagged_size=6,
                               counter_max=64)):
            assert factory().vector_kernel() is None
            assert (comparable_document(simulate(factory(), small_trace,
                                                 engine="auto"))
                    == comparable_document(simulate(factory(),
                                                    small_trace)))

    @pytest.mark.parametrize("base", ["tage", "perceptron"])
    def test_tournament_over_live_stats_kernel_stays_scalar(
            self, small_trace, base):
        # A tournament nests its components' metadata and statistics,
        # which the kernels of TAGE-like predictors only report through
        # KernelRun.stats; such compositions keep the scalar engine.
        def factory():
            return Tournament(meta=Bimodal(6), bp0=Bimodal(6),
                              bp1=CATALOG[base](random.Random(7)))

        assert factory().vector_kernel() is None
        assert (comparable_document(simulate(factory(), small_trace,
                                             engine="auto"))
                == comparable_document(simulate(factory(), small_trace)))

    @pytest.mark.parametrize("name", ["tage", "batage"])
    def test_lfsr_seed_reaches_the_kernel(self, server_trace, name):
        # BATAGE draws only throttle once CAT is non-zero; a small
        # cat_max lets it rise on this short run.
        build = {"tage": Tage,
                 "batage": lambda lfsr_seed: Batage(cat_max=16,
                                                    lfsr_seed=lfsr_seed),
                 }[name]
        config = SimulationConfig(max_instructions=20_000)
        results = {
            seed: simulate(build(lfsr_seed=seed), server_trace,
                           config, engine="vectorized")
            for seed in (1, 0x1234567)}
        for seed, result in results.items():
            scalar = simulate(build(lfsr_seed=seed), server_trace, config)
            assert (comparable_document(scalar)
                    == comparable_document(result))
        assert (comparable_document(results[1])
                != comparable_document(results[0x1234567]))

    @pytest.mark.parametrize("name", ["tage", "batage", "perceptron"])
    def test_row_chunks_do_not_change_results(self, monkeypatch, name):
        # The hybrid loops convert their streams to Python values one
        # chunk at a time; state must carry across chunk boundaries.
        import repro.core.vectorized as vectorized

        monkeypatch.setattr(vectorized, "_ROW_CHUNK", 7)
        rng = random.Random(10)
        trace = random_trace(rng, num_branches=300, pool_size=16,
                             conditional_fraction=0.8)
        factory = CATALOG[name]
        assert_engines_agree(lambda: factory(random.Random(11)), trace,
                             SimulationConfig(warmup_instructions=200))

    def test_lfsr_jump_matches_the_register(self):
        from repro.core.vectorized import _lfsr_jump
        from repro.utils.lfsr import Lfsr

        jump = _lfsr_jump(14)
        rng = random.Random(8)
        for seed in (0, 1, 0xBA7A6E, 2**32 - 1):
            register = Lfsr(width=32, seed=seed)
            state = register.state
            for _ in range(200):
                bound = rng.randint(1, 1 << 14)
                assert (register.below(bound, bits=14)
                        == ((state & 0x3FFF) * bound) >> 14)
                state = (jump[0][state & 0xFF] ^ jump[1][(state >> 8) & 0xFF]
                         ^ jump[2][(state >> 16) & 0xFF]
                         ^ jump[3][state >> 24])
                assert state == register.state

    def test_unknown_engine_rejected(self, small_trace):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError):
            simulate(Bimodal(), small_trace, engine="simd")

    def test_vectorized_never_trains_the_instance(self, small_trace):
        predictor = GShare(history_length=8, log_table_size=8)
        simulate(predictor, small_trace, engine="vectorized")
        # The vectorized engine works from the configuration alone; the
        # live instance's counter table must stay cold.
        assert all(counter == 0 for counter in predictor._table)


def test_catalog_covers_the_issue_list():
    assert set(CATALOG) == {"bimodal", "gshare", "gskew", "two-level",
                            "local", "tournament", "yags", "tage",
                            "batage", "perceptron"}
    rng = random.Random(9)
    for name, factory in CATALOG.items():
        assert factory(rng).vector_kernel() is not None, name
    for name, factory in SCALAR_ONLY.items():
        assert factory().vector_kernel() is None, name
