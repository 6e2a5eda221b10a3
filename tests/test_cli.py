"""End-to-end tests for the ``mbp`` command-line interface."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import PREDICTOR_CHOICES, build_parser, main, make_predictor
from repro.predictors import OGehl
from repro.sbbt.writer import write_trace

#: Registry name of the scalar-only stand-in the engine tests use.
SCALAR_ONLY = "ogehl"

#: Statements that register the stand-in, for tests that need it in a
#: fresh interpreter.
_REGISTER_SCALAR_ONLY = (
    "import functools\n"
    "from repro.predictors import OGehl\n"
    "from repro.registry import PREDICTOR_CHOICES\n"
    f"PREDICTOR_CHOICES[{SCALAR_ONLY!r}] = functools.partial(\n"
    "    OGehl, num_tables=4, log_table_size=8)\n"
)


@pytest.fixture()
def trace_file(tmp_path, small_trace):
    path = tmp_path / "t.sbbt.gz"
    write_trace(path, small_trace)
    return path


@pytest.fixture()
def scalar_only(monkeypatch):
    """Register a predictor without a vector kernel (O-GEHL): every
    registry predictor has one, so the engine-mismatch paths need a
    stand-in."""
    factory = functools.partial(OGehl, num_tables=4, log_table_size=8)
    assert factory().vector_kernel() is None
    monkeypatch.setitem(PREDICTOR_CHOICES, SCALAR_ONLY, factory)
    return SCALAR_ONLY


class TestPredictorRegistry:
    def test_all_choices_instantiate(self):
        for name in PREDICTOR_CHOICES:
            predictor = make_predictor(name)
            assert predictor.predict(0x40_0000) in (True, False)

    def test_unknown_predictor(self):
        with pytest.raises(SystemExit):
            make_predictor("oracle")

    def test_registry_covers_table2(self):
        # The Table II set plus the vectorized-catalog additions.
        assert set(PREDICTOR_CHOICES) == {
            "bimodal", "two-level", "gshare", "tournament", "gskew",
            "local", "yags", "perceptron", "tage", "batage",
        }


class TestSimulateCommand:
    def test_json_output(self, trace_file, capsys):
        assert main(["simulate", str(trace_file),
                     "--predictor", "bimodal"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0
        assert output["metadata"]["predictor"]["name"] == "repro Bimodal"

    def test_compact_output(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--compact"])
        line = capsys.readouterr().out
        assert "mpki=" in line

    def test_warmup_flag(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--warmup", "1000"])
        output = json.loads(capsys.readouterr().out)
        assert output["metadata"]["warmup_instr"] == 1000

    def test_max_instructions_flag(self, trace_file, capsys):
        main(["simulate", str(trace_file), "--max-instructions", "500"])
        output = json.loads(capsys.readouterr().out)
        assert output["metadata"]["exhausted_trace"] is False

    def test_engine_vectorized(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--predictor", "gshare",
                     "--engine", "vectorized"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0

    def test_engine_vectorized_unsupported_predictor_clean_error(
            self, trace_file, scalar_only):
        # No traceback: the engine mismatch must surface as a one-line
        # SystemExit message naming the predictor and the way out.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(trace_file), "--predictor", scalar_only,
                  "--engine", "vectorized"])
        message = str(excinfo.value)
        assert "vector kernel" in message
        assert "--engine scalar" in message

    def test_engine_vectorized_unsupported_with_cache_clean_error(
            self, trace_file, tmp_path, scalar_only):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(trace_file), "--predictor", scalar_only,
                  "--engine", "vectorized",
                  "--cache-dir", str(tmp_path / "cache")])
        assert "vector kernel" in str(excinfo.value)

    def test_engine_auto_falls_back(self, trace_file, capsys, scalar_only):
        assert main(["simulate", str(trace_file), "--predictor", scalar_only,
                     "--engine", "auto"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["mispredictions"] > 0

    def test_cache_hit_path_matches_fresh_run(self, tmp_path, capsys):
        # Two identical runs against one cache directory: the second is
        # served from the cache and prints identical metrics (only the
        # wall-clock simulation_time may differ); the cache then passes
        # `cache stats` and `cache verify`.
        trace = str(tmp_path / "ci-trace.sbbt.gz")
        cache = str(tmp_path / "ci-cache")
        assert main(["generate", trace, "--category", "short_server",
                     "--branches", "20000", "--seed", "7"]) == 0
        runs = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["simulate", trace, "--predictor", "gshare",
                         "--cache-dir", cache]) == 0
            runs.append(json.loads(capsys.readouterr().out))
        for run in runs:
            run["metrics"].pop("simulation_time")
        assert runs[0] == runs[1]
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert main(["cache", "verify", "--cache-dir", cache]) == 0


class TestEngineSelection:
    """``--engine`` end to end: every engine gives the same document,
    and a predictor without a kernel fails cleanly."""

    @pytest.mark.parametrize("predictor",
                             ["tournament", "tage", "batage", "perceptron"])
    def test_scalar_vectorized_auto_identical(self, tmp_path, capsys,
                                              predictor):
        trace = tmp_path / "ci-vec.sbbt.gz"
        assert main(["generate", str(trace), "--category", "short_server",
                     "--branches", "20000", "--seed", "7"]) == 0
        capsys.readouterr()
        documents = []
        for engine in ("scalar", "vectorized", "auto"):
            assert main(["simulate", str(trace), "--predictor", predictor,
                         "--engine", engine]) == 0
            document = json.loads(capsys.readouterr().out)
            document["metrics"].pop("simulation_time")
            documents.append(document)
        assert documents[0] == documents[1] == documents[2]

    def test_vectorized_unsupported_fails_without_traceback(self,
                                                            trace_file):
        # The real interpreter, so what reaches the terminal is checked:
        # one line on stderr, exit status 1, no traceback.
        code = _REGISTER_SCALAR_ONLY + (
            "from repro.cli import main\n"
            f"main(['simulate', {str(trace_file)!r}, '--predictor', "
            f"{SCALAR_ONLY!r}, '--engine', 'vectorized'])\n")
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")]))
        process = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 timeout=120)
        assert process.returncode == 1
        assert process.stdout == ""
        lines = process.stderr.splitlines()
        assert len(lines) == 1, process.stderr
        assert "vector kernel" in lines[0]
        assert "Traceback" not in process.stderr


class TestCompareCommand:
    def test_compare(self, trace_file, capsys):
        assert main(["compare", str(trace_file), "bimodal", "gshare"]) == 0
        output = json.loads(capsys.readouterr().out)
        assert "mpki_delta" in output["metrics"]


class TestInfoCommand:
    def test_human_output(self, trace_file, capsys):
        assert main(["info", str(trace_file)]) == 0
        assert "branches" in capsys.readouterr().out

    def test_json_output(self, trace_file, capsys):
        main(["info", str(trace_file), "--json"])
        output = json.loads(capsys.readouterr().out)
        assert output["gap_fits_12_bits"] is True


class TestGenerateCommand:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "gen.sbbt.gz"
        assert main(["generate", str(out), "--category", "short_mobile",
                     "--branches", "2000", "--seed", "3"]) == 0
        assert out.exists()
        assert "2000 branches" in capsys.readouterr().out

    def test_generated_trace_simulates(self, tmp_path, capsys):
        out = tmp_path / "gen.sbbt"
        main(["generate", str(out), "--branches", "1500"])
        capsys.readouterr()
        main(["simulate", str(out), "--compact"])
        assert "mpki=" in capsys.readouterr().out


class TestTranslateCommand:
    def test_sbbt_to_bt9_and_back(self, tmp_path, trace_file, capsys):
        bt9 = tmp_path / "t.bt9.gz"
        assert main(["translate", str(trace_file), str(bt9),
                     "--direction", "sbbt-to-bt9"]) == 0
        assert bt9.exists()
        back = tmp_path / "back.sbbt"
        assert main(["translate", str(bt9), str(back),
                     "--direction", "bt9-to-sbbt"]) == 0
        assert "branches" in capsys.readouterr().out


class TestSuiteCommand:
    def test_json_output(self, tmp_path, small_trace, server_trace, capsys):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        assert main(["suite", str(a), str(b),
                     "--predictor", "bimodal"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [t["trace"] for t in document["traces"]] == [str(a), str(b)]
        assert document["failures"] == []
        assert document["aggregate"]["mean_mpki"] > 0

    def test_compact_output(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--compact"]) == 0
        output = capsys.readouterr().out
        assert "mpki=" in output
        assert "mean MPKI" in output

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_engine_workers_match_serial(self, tmp_path, small_trace,
                                         server_trace, capsys,
                                         start_method):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["suite", str(a), str(b)])
        serial = json.loads(capsys.readouterr().out)
        assert main(["suite", str(a), str(b), "--workers", "2",
                     "--start-method", start_method,
                     "--engine-stats"]) == 0
        captured = capsys.readouterr()
        threaded = json.loads(captured.out)
        for doc in (serial, threaded):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert threaded == serial
        stats = json.loads(captured.err.split("engine stats: ", 1)[1])
        assert stats["traces_published"] == 2
        assert stats["tasks_dispatched"] == 2

    def test_cache_hits_reported(self, tmp_path, trace_file, capsys):
        cache = tmp_path / "cache"
        main(["suite", str(trace_file), "--cache-dir", str(cache)])
        capsys.readouterr()
        main(["suite", str(trace_file), "--cache-dir", str(cache)])
        document = json.loads(capsys.readouterr().out)
        assert document["aggregate"]["cache_hits"] == 1
        assert document["traces"][0]["from_cache"] is True

    def test_missing_trace_collected(self, tmp_path, trace_file, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["suite", str(trace_file), str(missing)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert len(document["traces"]) == 1
        assert document["failures"][0]["trace"] == str(missing)

    def test_sim_engine_vectorized_matches_scalar(self, tmp_path,
                                                  small_trace, capsys):
        path = tmp_path / "a.sbbt"
        write_trace(path, small_trace)
        main(["suite", str(path), "--predictor", "gshare"])
        scalar = json.loads(capsys.readouterr().out)
        assert main(["suite", str(path), "--predictor", "gshare",
                     "--engine", "vectorized"]) == 0
        vectorized = json.loads(capsys.readouterr().out)
        for doc in (scalar, vectorized):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert vectorized == scalar

    def test_sim_engine_unsupported_collected_as_failure(
            self, trace_file, capsys, scalar_only):
        assert main(["suite", str(trace_file), "--predictor", scalar_only,
                     "--engine", "vectorized"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["traces"] == []
        assert "vector kernel" in document["failures"][0]["error"]

    def test_engine_stats_requires_workers(self, trace_file):
        with pytest.raises(SystemExit):
            main(["suite", str(trace_file), "--engine-stats"])

    def test_start_method_requires_workers(self, trace_file):
        with pytest.raises(SystemExit):
            main(["suite", str(trace_file), "--start-method", "fork"])

    def test_all_traces_failed_is_not_success(self, tmp_path, capsys):
        # An all-failure suite used to be indistinguishable from an
        # empty-but-successful one; now it exits non-zero and reports
        # explicit counts.
        missing = [str(tmp_path / "a.sbbt"), str(tmp_path / "b.sbbt")]
        assert main(["suite", *missing]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["traces"] == []
        assert document["aggregate"]["num_traces"] == 2
        assert document["aggregate"]["num_failures"] == 2
        assert len(document["failures"]) == 2

    def test_all_traces_failed_compact_footer(self, tmp_path, capsys):
        missing = str(tmp_path / "gone.sbbt")
        assert main(["suite", missing, "--compact"]) == 1
        output = capsys.readouterr().out
        assert "0/1 traces ok" in output
        assert "1 failed" in output
        assert "mean MPKI n/a" in output

    def test_compact_footer_counts_successes(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--compact"]) == 0
        output = capsys.readouterr().out
        assert "1/1 traces ok" in output
        assert "0 failed" in output

    def test_json_aggregate_counts(self, tmp_path, trace_file, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["suite", str(trace_file), str(missing)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["aggregate"]["num_traces"] == 2
        assert document["aggregate"]["num_failures"] == 1

    def test_chunk_flag_values(self, tmp_path, small_trace,
                               server_trace, capsys):
        a, b = tmp_path / "a.sbbt", tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["suite", str(a), str(b), "--workers", "2"])
        baseline = json.loads(capsys.readouterr().out)
        assert main(["suite", str(a), str(b), "--workers", "2",
                     "--chunk", "2"]) == 0
        chunked = json.loads(capsys.readouterr().out)
        for doc in (baseline, chunked):
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
        assert chunked == baseline

    @pytest.mark.parametrize("chunk, expected_stats", [
        ("2", {"tasks_dispatched": 2, "chunks_dispatched": 1}),
        ("auto", None),
    ])
    def test_chunked_suite_matches_serial(self, tmp_path, capsys, chunk,
                                          expected_stats):
        # --chunk {auto,N}: a pinned chunk size and the adaptive default
        # both reproduce the serial suite's metrics; a chunk of 2 packs
        # both units into one worker round-trip.
        traces = [str(tmp_path / "ci-chunk-a.sbbt.xz"),
                  str(tmp_path / "ci-chunk-b.sbbt.xz")]
        for path, category, seed in zip(traces, ("short_server",
                                                 "short_mobile"), (31, 32)):
            assert main(["generate", path, "--category", category,
                         "--branches", "15000", "--seed", str(seed)]) == 0
        capsys.readouterr()

        def metrics(argv):
            assert main(["suite", *traces, "--predictor", "gshare",
                         *argv]) == 0
            captured = capsys.readouterr()
            doc = json.loads(captured.out)
            for entry in doc["traces"]:
                entry.pop("simulation_time")
            doc["aggregate"].pop("timing")
            return doc, captured.err

        serial, _ = metrics([])
        chunked, err = metrics(["--workers", "2", "--chunk", chunk,
                                "--engine-stats"])
        assert chunked == serial
        stats = json.loads(err.split("engine stats: ", 1)[1])
        if expected_stats is not None:
            assert {name: stats[name] for name in expected_stats} == \
                expected_stats

    def test_chunk_auto_is_default_spelling(self, trace_file, capsys):
        assert main(["suite", str(trace_file), "--chunk", "auto"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["0", "-2", "sometimes"])
    def test_chunk_flag_rejects_bad_values(self, trace_file, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", str(trace_file), "--chunk", bad])
        assert "--chunk" in str(excinfo.value)


class TestSweepCommand:
    def test_table_output(self, trace_file, capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2,8",
                     "--fixed", "log_table_size=10"]) == 0
        output = capsys.readouterr().out
        assert "history_length=2" in output
        assert "best:" in output

    def test_json_range_values(self, trace_file, capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2:9:3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        swept = [p["parameters"]["history_length"]
                 for p in document["points"]]
        assert swept == [2, 5, 8]
        assert document["best"]["parameters"]["history_length"] in swept

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_match_serial(self, trace_file, capsys, start_method):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4,8", "--json"]
        main(argv)
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--workers", "2", "--start-method",
                            start_method, "--engine-stats"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == serial
        stats = json.loads(captured.err.split("engine stats: ", 1)[1])
        # One trace shipped once, then reused for the other grid points.
        assert stats["traces_published"] == 1
        assert stats["tasks_dispatched"] == 3
        assert stats["trace_reuses"] >= 1

    def test_footer_reports_points_and_batch_groups(self, trace_file,
                                                    capsys):
        assert main(["sweep", str(trace_file),
                     "--parameter", "history_length",
                     "--values", "2,4,8"]) == 0
        output = capsys.readouterr().out
        assert "sweep: 3/3 points ok" in output
        assert "1 batch groups" in output
        assert "0 trace failures" in output

    def test_batch_off_matches_auto(self, trace_file, capsys):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4,8", "--json"]
        assert main(argv) == 0
        auto = json.loads(capsys.readouterr().out)
        assert main(argv + ["--batch", "off"]) == 0
        assert json.loads(capsys.readouterr().out) == auto

    def test_engine_batched_sweep_matches_per_unit(self, tmp_path, capsys):
        # --batch {auto,off} on an engine: identical sweep JSON both
        # ways, and the batched run actually formed groups (a fixed
        # --chunk packs whole same-trace columns instead of cold-start
        # singletons).
        trace = str(tmp_path / "ci-batch.sbbt.xz")
        assert main(["generate", trace, "--category", "short_server",
                     "--branches", "20000", "--seed", "41"]) == 0
        capsys.readouterr()
        argv = ["sweep", trace, "--predictor", "gshare",
                "--parameter", "history_length", "--values", "4:19:2",
                "--workers", "2", "--chunk", "8", "--json"]
        assert main(argv + ["--batch", "auto", "--engine-stats"]) == 0
        captured = capsys.readouterr()
        batched = json.loads(captured.out)
        assert main(argv + ["--batch", "off"]) == 0
        assert json.loads(capsys.readouterr().out) == batched
        stats = json.loads(captured.err.split("engine stats: ", 1)[1])
        assert stats["batch_groups"] >= 1
        assert stats["batch_units"] >= 2 * stats["batch_groups"]

    def test_scalar_engine_matches_auto(self, trace_file, capsys):
        argv = ["sweep", str(trace_file), "--parameter", "history_length",
                "--values", "2,4", "--json"]
        assert main(argv) == 0
        auto = json.loads(capsys.readouterr().out)
        assert main(argv + ["--engine", "scalar"]) == 0
        assert json.loads(capsys.readouterr().out) == auto

    def test_all_points_failed_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["sweep", str(missing),
                     "--parameter", "history_length",
                     "--values", "2,4"]) == 1
        output = capsys.readouterr().out
        assert "0/2 points ok" in output
        assert "best:" not in output

    def test_json_reports_failures_and_null_best(self, tmp_path, capsys):
        missing = tmp_path / "missing.sbbt"
        assert main(["sweep", str(missing),
                     "--parameter", "history_length",
                     "--values", "2,4", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["best"] is None
        for point in document["points"]:
            assert point["mean_mpki"] is None
            assert point["num_failures"] == 1
        assert document["aggregate"]["points_failed"] == 2

    def test_bad_values_spec(self, trace_file):
        with pytest.raises(SystemExit):
            main(["sweep", str(trace_file), "--parameter", "history_length",
                  "--values", "2:8:1:1"])

    def test_bad_fixed_spec(self, trace_file):
        with pytest.raises(SystemExit):
            main(["sweep", str(trace_file), "--parameter", "history_length",
                  "--values", "2,4", "--fixed", "log_table_size"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestChampionshipCommand:
    def test_leaderboard_printed(self, trace_file, capsys):
        assert main(["championship", str(trace_file),
                     "--predictors", "bimodal", "gshare"]) == 0
        output = capsys.readouterr().out
        assert "Championship leaderboard" in output
        assert "bimodal" in output and "gshare" in output

    def test_multiple_traces(self, tmp_path, small_trace, server_trace,
                             capsys):
        a = tmp_path / "a.sbbt"
        b = tmp_path / "b.sbbt"
        write_trace(a, small_trace)
        write_trace(b, server_trace)
        main(["championship", str(a), str(b),
              "--predictors", "bimodal"])
        output = capsys.readouterr().out
        assert "a.sbbt" in output and "b.sbbt" in output
