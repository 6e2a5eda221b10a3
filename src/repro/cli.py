"""Command-line interface: ``mbp <subcommand>``.

Small front doors over the library — the library itself stays the
primary interface (user code calls it), but the everyday chores are one
command away:

* ``mbp simulate``  — run a named predictor over an SBBT trace
  (``--cache-dir`` serves repeats from the simulation cache;
  ``--telemetry`` writes a run manifest, phase timings and an interval
  timeseries; ``--probe`` adds component attribution to it).
* ``mbp suite``     — run one predictor over a whole trace suite,
  optionally through a persistent multi-worker execution engine
  (``--workers``, ``--engine-stats``).
* ``mbp sweep``     — sweep one constructor parameter over a trace
  suite (paper Listing 3), sharing one engine across all points.
* ``mbp explain``   — attribute a run's predictions to predictor
  components and profile the worst-predicted branches (repro.probe).
* ``mbp compare``   — run two predictors in parallel (Section VI-C).
* ``mbp info``      — trace statistics (gap bounds, branch mix).
* ``mbp generate``  — synthesize a workload trace to a file.
* ``mbp translate`` — convert between BT9 / champsimtrace / SBBT.
* ``mbp championship`` — rank predictors CBP-style over trace suites.
* ``mbp cache``     — stats / clear / verify of a result cache directory.
* ``mbp report``    — render telemetry documents / manifests as tables.
* ``mbp serve``     — long-running simulation daemon (unix socket or
  TCP, newline-delimited JSON protocol, shared engine + cache).
* ``mbp client``    — talk to a running ``mbp serve`` daemon.
* ``mbp trace``     — export span logs (``--trace-dir`` tracing) to the
  Chrome trace-event format, or summarize per-phase latencies.

Cache directories resolve uniformly everywhere (``--cache-dir`` flag,
then the ``MBP_CACHE_DIR`` environment variable, then off) via
:func:`repro.cache.resolve_cache_dir`; span-log directories resolve the
same way (``--trace-dir``, then ``MBP_TRACE_DIR``, then off) via
:func:`repro.tracing.resolve_trace_dir`.

Every subcommand is documented in ``docs/cli.md``; a CI check
(``tools/check_docs.py``) keeps that page in sync with this parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Sequence

from .cache import resolve_cache_dir
from .core.comparison import compare
from .core.errors import EngineNotSupportedError
from .core.predictor import Predictor
from .core.simulator import SimulationConfig, simulate
# The predictor catalog lives in repro.registry (one table shared with
# the serve daemon and the championship driver); PREDICTOR_CHOICES and
# ENGINE_CHOICES are re-exported here for backwards compatibility.
from .registry import (
    ENGINE_CHOICES,
    PREDICTOR_CHOICES,
    UnknownPredictorError,
    resolve_predictor,
)
from .sbbt.reader import read_trace
from .sbbt.writer import write_trace
from .traces.inspect import analyze_trace
from .traces.synth import generate_trace
from .traces.translate import bt9_to_sbbt, champsim_to_sbbt, sbbt_to_bt9
from .traces.workloads import PROFILES

__all__ = ["main", "build_parser", "make_predictor", "PREDICTOR_CHOICES"]


def make_predictor(name: str) -> Predictor:
    """Instantiate a predictor by its CLI name."""
    try:
        return resolve_predictor(name)()
    except UnknownPredictorError as exc:
        raise SystemExit(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="mbp",
        description="Modular branch prediction toolkit (MBPlib reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate_parser = sub.add_parser(
        "simulate", help="run a predictor over an SBBT trace")
    simulate_parser.add_argument("trace", help="path to an SBBT trace")
    simulate_parser.add_argument(
        "--predictor", default="gshare", choices=sorted(PREDICTOR_CHOICES))
    simulate_parser.add_argument("--warmup", type=int, default=0,
                                 metavar="INSTRUCTIONS")
    simulate_parser.add_argument("--max-instructions", type=int, default=None)
    simulate_parser.add_argument(
        "--engine", default="scalar", choices=list(ENGINE_CHOICES),
        help="simulation engine: 'scalar' (default) is the per-branch "
             "loop, 'vectorized' evaluates the predictor's numpy vector "
             "kernel (bit-identical results; errors out for predictors "
             "without one), 'auto' picks vectorized when available")
    simulate_parser.add_argument("--compact", action="store_true",
                                 help="one-line summary instead of JSON")
    simulate_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache: identical (trace, predictor, "
             "config) runs are served from DIR instead of re-simulating")
    simulate_parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="write a telemetry document (run manifest + phase timings + "
             "interval timeseries) to PATH; a .csv suffix writes the "
             "interval series as CSV instead")
    simulate_parser.add_argument(
        "--interval", type=int, default=None, metavar="INSTRUCTIONS",
        help="interval-telemetry window size in instructions "
             "(default 100000; requires --telemetry)")
    simulate_parser.add_argument(
        "--probe", action="store_true",
        help="attach a prediction probe (component attribution, branch "
             "profile, table statistics) and record its report in the "
             "telemetry document; requires --telemetry")
    simulate_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="span-tracing log directory (default: $MBP_TRACE_DIR, else "
             "off); the run's spans stream to trace-<id>.jsonl there "
             "for 'mbp trace export|summary'")

    suite_parser = sub.add_parser(
        "suite",
        help="run one predictor over a whole suite of SBBT traces")
    suite_parser.add_argument("traces", nargs="+",
                              help="paths to SBBT traces")
    suite_parser.add_argument(
        "--predictor", default="gshare", choices=sorted(PREDICTOR_CHOICES))
    suite_parser.add_argument("--warmup", type=int, default=0,
                              metavar="INSTRUCTIONS")
    suite_parser.add_argument("--max-instructions", type=int, default=None)
    suite_parser.add_argument(
        "--engine", default="scalar", choices=list(ENGINE_CHOICES),
        help="simulation engine used for every trace of the suite "
             "(see 'mbp simulate --engine')")
    suite_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes; > 1 dispatches through a persistent "
             "execution engine with the traces resident in shared memory "
             "(default: cpu-aware, min(4, cores-1), capped by the trace "
             "count; pass 1 to force serial)")
    suite_parser.add_argument(
        "--chunk", default="auto", metavar="{auto,N}",
        help="work units packed per engine round-trip: 'auto' (default) "
             "adapts to the measured per-trace cost, an integer forces "
             "that chunk size; only meaningful with --workers > 1")
    suite_parser.add_argument(
        "--batch", default="auto", choices=["auto", "off"],
        help="config-batched evaluation: 'auto' (default) runs units that "
             "share a trace and admit the vectorized engine in one stacked "
             "pass per predictor family, 'off' forces per-unit evaluation; "
             "results are bit-identical either way")
    suite_parser.add_argument(
        "--start-method", default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for the engine workers "
             "(default: platform default)")
    suite_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; hits skip dispatch entirely")
    suite_parser.add_argument(
        "--engine-stats", action="store_true",
        help="print engine counters (traces published / shipped / reused, "
             "tasks dispatched, phases) to stderr; requires --workers > 1")
    suite_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="span-tracing log directory (default: $MBP_TRACE_DIR, else "
             "off); see 'mbp trace'")
    suite_parser.add_argument("--compact", action="store_true",
                              help="per-trace summary lines instead of JSON")

    sweep_parser = sub.add_parser(
        "sweep",
        help="sweep one predictor constructor parameter over a trace suite")
    sweep_parser.add_argument("traces", nargs="+",
                              help="paths to SBBT traces")
    sweep_parser.add_argument(
        "--predictor", default="gshare", choices=sorted(PREDICTOR_CHOICES))
    sweep_parser.add_argument(
        "--parameter", required=True, metavar="NAME",
        help="constructor parameter to sweep (e.g. history_length)")
    sweep_parser.add_argument(
        "--values", required=True, metavar="SPEC",
        help="comma-separated values and/or lo:hi[:step] ranges, "
             "e.g. '4,8,16' or '6:31' or '6:31:4'")
    sweep_parser.add_argument(
        "--fixed", action="append", default=[], metavar="NAME=VALUE",
        help="fix another constructor parameter (repeatable)")
    sweep_parser.add_argument("--warmup", type=int, default=0,
                              metavar="INSTRUCTIONS")
    sweep_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes; the whole sweep shares one engine, so the "
             "pool is forked once and each trace is shipped once "
             "(default: cpu-aware, min(4, cores-1), capped by the sweep's "
             "unit count; pass 1 to force serial)")
    sweep_parser.add_argument(
        "--engine", default="auto", choices=list(ENGINE_CHOICES),
        help="simulation engine for every sweep point (default 'auto': "
             "vectorized where the predictor supports it, with identical "
             "results; see 'mbp simulate --engine')")
    sweep_parser.add_argument(
        "--chunk", default="auto", metavar="{auto,N}",
        help="work units packed per engine round-trip ('auto' or a fixed "
             "size; see 'mbp suite --chunk')")
    sweep_parser.add_argument(
        "--batch", default="auto", choices=["auto", "off"],
        help="config-batched evaluation: 'auto' (default) evaluates all "
             "sweep points over one trace in a single stacked pass per "
             "predictor family, 'off' forces one dispatch per point; "
             "results are bit-identical either way")
    sweep_parser.add_argument(
        "--start-method", default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for the engine workers")
    sweep_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache shared by every sweep point")
    sweep_parser.add_argument(
        "--engine-stats", action="store_true",
        help="print engine counters to stderr; requires --workers > 1")
    sweep_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="span-tracing log directory (default: $MBP_TRACE_DIR, else "
             "off); see 'mbp trace'")
    sweep_parser.add_argument(
        "--json", action="store_true",
        help="print the sweep points as JSON instead of a table")

    explain_parser = sub.add_parser(
        "explain",
        help="attribute a run's predictions to predictor components and "
             "profile the worst-predicted branches")
    explain_parser.add_argument("trace", help="path to an SBBT trace")
    explain_parser.add_argument(
        "--predictor", default="tournament",
        choices=sorted(PREDICTOR_CHOICES))
    explain_parser.add_argument("--warmup", type=int, default=0,
                                metavar="INSTRUCTIONS")
    explain_parser.add_argument("--max-instructions", type=int, default=None)
    explain_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="number of worst-predicted branches to list (default 10)")
    explain_parser.add_argument(
        "--json", action="store_true",
        help="print the raw probe report as JSON instead of tables")

    compare_parser = sub.add_parser(
        "compare", help="simulate two predictors in parallel")
    compare_parser.add_argument("trace")
    compare_parser.add_argument("predictor_a",
                                choices=sorted(PREDICTOR_CHOICES))
    compare_parser.add_argument("predictor_b",
                                choices=sorted(PREDICTOR_CHOICES))
    compare_parser.add_argument("--warmup", type=int, default=0)

    info_parser = sub.add_parser("info", help="print trace statistics")
    info_parser.add_argument("trace")
    info_parser.add_argument("--json", action="store_true")

    generate_parser = sub.add_parser(
        "generate", help="synthesize a workload trace")
    generate_parser.add_argument("output", help="output path (.sbbt[.xz|.gz])")
    generate_parser.add_argument("--category", default="short_server",
                                 choices=sorted(PROFILES))
    generate_parser.add_argument("--branches", type=int, default=100_000)
    generate_parser.add_argument("--seed", type=int, default=0)

    translate_parser = sub.add_parser(
        "translate", help="convert a trace between formats")
    translate_parser.add_argument("source")
    translate_parser.add_argument("destination")
    translate_parser.add_argument(
        "--direction", required=True,
        choices=["bt9-to-sbbt", "sbbt-to-bt9", "champsim-to-sbbt"])

    championship_parser = sub.add_parser(
        "championship",
        help="rank predictors CBP-style over a set of SBBT traces")
    championship_parser.add_argument("traces", nargs="+",
                                     help="paths to SBBT traces")
    championship_parser.add_argument(
        "--predictors", nargs="+", default=sorted(PREDICTOR_CHOICES),
        choices=sorted(PREDICTOR_CHOICES), metavar="NAME",
        help="contestants (default: the whole Table II set)")
    championship_parser.add_argument("--warmup", type=int, default=0)

    cache_parser = sub.add_parser(
        "cache", help="inspect or maintain a simulation result cache")
    cache_parser.add_argument(
        "action", choices=["stats", "clear", "verify"],
        help="stats: entry count and size as JSON; clear: delete every "
             "entry; verify: decode every entry and report corrupt ones")
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $MBP_CACHE_DIR)")
    cache_parser.add_argument(
        "--delete-invalid", action="store_true",
        help="with 'verify': also delete the entries that fail to decode")

    report_parser = sub.add_parser(
        "report",
        help="render telemetry documents, run manifests or interval "
             "series as paper-style tables")
    report_parser.add_argument(
        "files", nargs="+", metavar="FILE",
        help="JSON artifacts written by 'mbp simulate --telemetry', "
             "RunManifest.write() or suite_manifest()")
    report_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N interval windows per file (default: all)")
    report_parser.add_argument(
        "--json", action="store_true",
        help="echo the merged telemetry documents as JSON instead of "
             "tables (same as --format json)")
    report_parser.add_argument(
        "--format", default=None, choices=["text", "json", "csv"],
        help="output format: text tables (default), merged JSON, or "
             "sectioned CSV")

    serve_parser = sub.add_parser(
        "serve",
        help="run a long-lived simulation daemon (newline-delimited JSON "
             "over a unix socket or TCP)")
    serve_parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket path to listen on (default mbp-serve.sock in "
             "the current directory; mutually exclusive with --host)")
    serve_parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="listen on TCP instead of a unix socket")
    serve_parser.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port with --host (default 0 = pick a free port, "
             "printed on startup)")
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="execution-engine worker processes shared by every client "
             "(0 = run plans inline in the daemon, no multiprocessing; "
             "default: cpu-aware, min(4, cores-1))")
    serve_parser.add_argument(
        "--start-method", default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method for the engine workers")
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result cache (default: $MBP_CACHE_DIR, else a "
             "private temporary directory for the daemon's lifetime)")
    serve_parser.add_argument(
        "--engine", default="auto", choices=list(ENGINE_CHOICES),
        help="default simulation engine for requests that don't name one "
             "(default auto)")
    serve_parser.add_argument(
        "--batch", default="auto", choices=["auto", "off"],
        help="config-batched evaluation of each request's plan: 'auto' "
             "(default) evaluates a request's cache-missed vectorized "
             "units over one trace in one stacked pass, 'off' runs them "
             "unit by unit")
    serve_parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="per-client pending-request bound; a full queue answers "
             "'overloaded' (default 64)")
    serve_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request time budget; exceeding it answers 'timeout' "
             "while the computation still finishes into the cache "
             "(default 60; 0 = unlimited)")
    serve_parser.add_argument(
        "--max-request-bytes", type=int, default=None, metavar="BYTES",
        help="frame size limit; larger requests answer 'too_large' "
             "(default 4 MiB)")
    serve_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="span-tracing log directory (default: $MBP_TRACE_DIR, else "
             "off); every request's spans stream to serve-<pid>.jsonl "
             "there for 'mbp trace export|summary'")

    client_parser = sub.add_parser(
        "client", help="talk to a running 'mbp serve' daemon")
    client_parser.add_argument(
        "action",
        choices=["ping", "stats", "simulate", "suite", "sweep", "shutdown"],
        help="operation to request from the daemon")
    client_parser.add_argument(
        "traces", nargs="*",
        help="trace path(s): exactly one for simulate, one or more for "
             "suite/sweep")
    client_parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix socket the daemon listens on")
    client_parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="connect over TCP instead of a unix socket")
    client_parser.add_argument("--port", type=int, default=0, metavar="PORT",
                               help="TCP port with --host")
    client_parser.add_argument(
        "--predictor", default="gshare", choices=sorted(PREDICTOR_CHOICES))
    client_parser.add_argument(
        "--parameter", default=None, metavar="NAME",
        help="constructor parameter to sweep (sweep action only)")
    client_parser.add_argument(
        "--values", default=None, metavar="SPEC",
        help="sweep values: comma-separated and/or lo:hi[:step] ranges "
             "(sweep action only)")
    client_parser.add_argument(
        "--fixed", action="append", default=[], metavar="NAME=VALUE",
        help="fix a constructor parameter (repeatable; simulate/suite/"
             "sweep)")
    client_parser.add_argument("--warmup", type=int, default=0,
                               metavar="INSTRUCTIONS")
    client_parser.add_argument("--max-instructions", type=int, default=None)
    client_parser.add_argument(
        "--engine", default=None, choices=list(ENGINE_CHOICES),
        help="simulation engine for this request (default: the "
             "daemon's --engine setting)")
    client_parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="client-side socket timeout (default 120)")
    client_parser.add_argument(
        "--result-only", action="store_true",
        help="with 'simulate': print only the SimulationResult JSON, "
             "byte-identical to 'mbp simulate' output")
    client_parser.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="tag this request's server-side spans with a trace id of "
             "your choosing, so 'mbp trace summary --trace-id ID' over "
             "the daemon's --trace-dir finds them (simulate/suite/sweep)")

    trace_parser = sub.add_parser(
        "trace",
        help="export or summarize span-tracing logs (--trace-dir runs)")
    trace_parser.add_argument(
        "action", choices=["export", "summary"],
        help="export: spans as a Chrome trace-event JSON file (load it "
             "in Perfetto or chrome://tracing); summary: per-span-name "
             "p50/p99 latencies and the critical path")
    trace_parser.add_argument(
        "paths", nargs="*",
        help="span logs: .jsonl files and/or directories of them "
             "(default: $MBP_TRACE_DIR)")
    trace_parser.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="restrict to one trace id (default: export keeps all, "
             "summary aggregates all and walks the first trace's "
             "critical path)")
    trace_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="with 'export': write the trace-event JSON to PATH instead "
             "of stdout")
    return parser


#: Default interval-telemetry window (instructions) for ``--telemetry``.
DEFAULT_TELEMETRY_INTERVAL = 100_000


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(warmup_instructions=args.warmup,
                              max_instructions=args.max_instructions)
    if args.interval is not None and args.telemetry is None:
        raise SystemExit("--interval requires --telemetry")
    if args.probe and args.telemetry is None:
        raise SystemExit("--probe requires --telemetry")
    instrumentation = recorder = probe = None
    if args.telemetry is not None:
        from .telemetry import IntervalRecorder, PhaseTimers

        instrumentation = PhaseTimers()
        recorder = IntervalRecorder(
            args.interval if args.interval is not None
            else DEFAULT_TELEMETRY_INTERVAL)
    if args.probe:
        from .probe import PredictionProbe

        probe = PredictionProbe()
    cache_dir = resolve_cache_dir(args.cache_dir)
    cache_used = cache_dir is not None
    with _tracing(args, "simulate") as (tracer, root_context):
        with tracer.span("simulate", parent=root_context,
                         attributes={"unit": args.trace,
                                     "predictor": args.predictor}) as span:
            try:
                if cache_used:
                    from .cache import SimulationCache

                    cache = SimulationCache(cache_dir)
                    result = cache.get_or_simulate(
                        lambda: make_predictor(args.predictor), args.trace,
                        config, engine=args.engine,
                        instrumentation=instrumentation,
                        telemetry=recorder, probe=probe)
                else:
                    result = simulate(make_predictor(args.predictor),
                                      args.trace, config, engine=args.engine,
                                      instrumentation=instrumentation,
                                      telemetry=recorder, probe=probe)
            except EngineNotSupportedError as exc:
                raise SystemExit(str(exc)) from None
            span.set_attribute("from_cache", bool(result.from_cache))
    if args.telemetry is not None:
        from .telemetry import build_manifest, write_telemetry

        series = recorder.series  # None on a cache hit (nothing simulated)
        if series is None and args.telemetry.lower().endswith(".csv"):
            raise SystemExit(
                "cache hit produced no interval series; CSV telemetry "
                "needs a fresh simulation (use 'mbp cache clear' or a "
                "JSON telemetry path)")
        manifest = build_manifest(
            result, trace=args.trace,
            predictor=make_predictor(args.predictor), config=config,
            phases=instrumentation.phases,
            counters=instrumentation.counters or None,
            cache_used=cache_used)
        write_telemetry(args.telemetry, manifest=manifest,
                        phases=instrumentation.phases,
                        counters=instrumentation.counters or None,
                        intervals=series,
                        probe=result.probe_report)
    if args.compact:
        print(result.summary())
    else:
        print(result.to_json_string())
    return 0


def _scalar(token: str):
    """Parse a CLI scalar: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token


def _parse_values(spec: str) -> list:
    """Parse ``--values``: comma-separated scalars and lo:hi[:step] ranges.

    Ranges follow Python ``range`` semantics (``hi`` exclusive), matching
    the paper's Listing 3 ``for`` loop.
    """
    values: list = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            parts = token.split(":")
            if len(parts) not in (2, 3) or not all(parts):
                raise SystemExit(f"bad range {token!r}; expected lo:hi[:step]")
            try:
                bounds = [int(part) for part in parts]
            except ValueError:
                raise SystemExit(
                    f"bad range {token!r}; bounds must be integers") from None
            values.extend(range(*bounds))
        else:
            values.append(_scalar(token))
    if not values:
        raise SystemExit(f"--values {spec!r} names no values")
    return values


def _parse_fixed(pairs: Sequence[str]) -> dict:
    """Parse repeated ``--fixed NAME=VALUE`` arguments."""
    fixed = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise SystemExit(f"bad --fixed {pair!r}; expected NAME=VALUE")
        fixed[name] = _scalar(value)
    return fixed


def _parse_chunk(value: str) -> "int | str":
    """Validate ``--chunk``: 'auto' or a positive integer."""
    from .core.plan import normalize_chunk

    try:
        normalize_chunk(value)
    except ValueError as exc:
        raise SystemExit(f"bad --chunk: {exc}") from None
    return value if value == "auto" else int(value)


def _resolve_workers(args: argparse.Namespace, units: int) -> int:
    """``--workers`` if given, else the cpu-aware default for ``units``."""
    if args.workers is not None:
        return args.workers
    from .core.engine import default_workers

    return default_workers(units)


def _make_engine(args: argparse.Namespace, units: int):
    """The ExecutionEngine for ``--workers``, or ``None`` when serial."""
    workers = _resolve_workers(args, units)
    if args.engine_stats and workers <= 1:
        raise SystemExit("--engine-stats requires --workers > 1")
    if workers <= 1:
        if args.start_method is not None:
            raise SystemExit("--start-method requires --workers > 1")
        return None
    from .core.engine import ExecutionEngine

    return ExecutionEngine(workers=workers,
                           start_method=args.start_method)


@contextmanager
def _tracing(args: argparse.Namespace, command: str):
    """Yield ``(tracer, root_context)`` for one traced CLI invocation.

    With no trace directory resolved (no ``--trace-dir``, no
    ``MBP_TRACE_DIR``) this yields the null tracer and ``None`` —
    the zero-overhead path.  Otherwise it mints a fresh trace id,
    streams spans to ``trace-<id>.jsonl`` under the directory, wraps
    the command in an ``mbp_<command>`` root span, and announces the
    trace id on stderr so the run's spans can be found afterwards.
    """
    from .tracing import (
        NULL_TRACER,
        JsonlSpanSink,
        SpanRecorder,
        TraceContext,
        new_trace_id,
        resolve_trace_dir,
    )

    trace_dir = resolve_trace_dir(getattr(args, "trace_dir", None))
    if trace_dir is None:
        yield NULL_TRACER, None
        return
    from pathlib import Path

    trace_id = new_trace_id()
    path = Path(trace_dir) / f"trace-{trace_id}.jsonl"
    sink = JsonlSpanSink(path)
    tracer = SpanRecorder(root=TraceContext.new_root(trace_id), sink=sink)
    print(f"mbp {command}: tracing as {trace_id} -> {path}",
          file=sys.stderr)
    try:
        with tracer.span(f"mbp_{command}") as root:
            yield tracer, root.context
    finally:
        sink.close()


def _emit_engine_stats(args: argparse.Namespace, engine) -> None:
    if args.engine_stats and engine is not None:
        print("engine stats: " + json.dumps(engine.stats.to_json()),
              file=sys.stderr)


def _cmd_suite(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .core.batch import run_suite

    config = SimulationConfig(warmup_instructions=args.warmup,
                              max_instructions=args.max_instructions)
    factory = PREDICTOR_CHOICES[args.predictor]
    engine = _make_engine(args, len(args.traces))
    with _tracing(args, "suite") as (tracer, root_context):
        with engine if engine is not None else nullcontext():
            batch = run_suite(factory, args.traces, config, engine=engine,
                              cache=resolve_cache_dir(args.cache_dir),
                              on_error="collect", sim_engine=args.engine,
                              chunk=_parse_chunk(args.chunk),
                              batch=args.batch,
                              tracer=tracer, trace_parent=root_context)
            _emit_engine_stats(args, engine)
    timing = batch.timing
    num_traces = len(batch.results) + len(batch.failures)
    if args.compact:
        for result in batch.results:
            print(result.summary())
        for failure in batch.failures:
            print(f"FAILED {failure}")
        # Always printed — an all-failed suite must be distinguishable
        # from an empty-but-successful one.
        mean = (f"mean MPKI {batch.mean_mpki():.4f}"
                if batch.results else "mean MPKI n/a")
        print(f"suite: {len(batch.results)}/{num_traces} traces ok, "
              f"{len(batch.failures)} failed, {mean}, "
              f"total time {timing.total:.3f}s, "
              f"{batch.cache_hits} cache hits")
    else:
        document = {
            "predictor": args.predictor,
            "traces": [
                {
                    "trace": result.trace_name,
                    "mpki": result.mpki,
                    "mispredictions": result.mispredictions,
                    "accuracy": result.accuracy,
                    "simulation_time": result.simulation_time,
                    "from_cache": result.from_cache,
                }
                for result in batch.results
            ],
            "failures": [
                {"trace": failure.trace_name, "error": failure.error}
                for failure in batch.failures
            ],
            "aggregate": {
                "mean_mpki": batch.mean_mpki() if batch.results else None,
                "aggregate_mpki": batch.aggregate_mpki(),
                "num_traces": num_traces,
                "num_failures": len(batch.failures),
                "cache_hits": batch.cache_hits,
                "timing": {
                    "slowest": timing.slowest,
                    "average": timing.average,
                    "fastest": timing.fastest,
                    "total": timing.total,
                },
            },
        }
        print(json.dumps(document, indent=2))
    return 1 if batch.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import math
    from contextlib import nullcontext

    from .analysis.sweep import sweep_parameter
    from .telemetry import PhaseTimers

    config = SimulationConfig(warmup_instructions=args.warmup)
    factory = PREDICTOR_CHOICES[args.predictor]
    values = _parse_values(args.values)
    fixed = _parse_fixed(args.fixed)
    engine = _make_engine(args, len(values) * len(args.traces))
    timers = PhaseTimers()
    with _tracing(args, "sweep") as (tracer, root_context):
        with engine if engine is not None else nullcontext():
            sweep = sweep_parameter(factory, args.parameter, values,
                                    args.traces, config, fixed,
                                    cache=resolve_cache_dir(args.cache_dir),
                                    engine=engine,
                                    chunk=_parse_chunk(args.chunk),
                                    batch=args.batch,
                                    sim_engine=args.engine,
                                    on_error="collect",
                                    instrumentation=timers,
                                    tracer=tracer, trace_parent=root_context)
            _emit_engine_stats(args, engine)
    scored = [p for p in sweep.points if not math.isnan(p.mean_mpki)]
    failed = [p for p in sweep.points if math.isnan(p.mean_mpki)]
    best = sweep.best() if scored else None
    cache_hits = sum(p.cache_hits for p in sweep.points)
    num_failures = sum(p.num_failures for p in sweep.points)
    batch_groups = timers.counters.get("batch_groups", 0)
    if args.json:
        print(json.dumps({
            "predictor": args.predictor,
            "parameter": args.parameter,
            "fixed": fixed,
            "points": [
                {
                    "parameters": point.parameters,
                    "mean_mpki": (None if math.isnan(point.mean_mpki)
                                  else point.mean_mpki),
                    "aggregate_mpki": point.aggregate_mpki,
                    "total_mispredictions": point.total_mispredictions,
                    "num_failures": point.num_failures,
                    "cache_hits": point.cache_hits,
                }
                for point in sweep.points
            ],
            "best": None if best is None else {
                "parameters": best.parameters,
                "mean_mpki": best.mean_mpki,
            },
            # batch_groups is deliberately absent here: the same sweep
            # legitimately forms different group counts on the inline
            # and chunked-engine backends, and the JSON document must
            # stay identical across --workers settings.  It is visible
            # in the table footer and in --engine-stats.
            "aggregate": {
                "points_ok": len(scored),
                "points_failed": len(failed),
                "num_failures": num_failures,
                "cache_hits": cache_hits,
            },
        }, indent=2))
    else:
        print(sweep.table())
        if best is not None:
            print(f"best: {best}")
        # Always printed — an all-failed sweep must be distinguishable
        # from a successful one at a glance.
        print(f"sweep: {len(scored)}/{len(sweep.points)} points ok, "
              f"{num_failures} trace failures, {cache_hits} cache hits, "
              f"{batch_groups} batch groups")
    return 1 if not scored else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .analysis.reporting import (
        attribution_rows,
        attribution_table,
        structure_rows,
        structure_table,
        top_offenders_table,
    )
    from .probe import PredictionProbe

    config = SimulationConfig(warmup_instructions=args.warmup,
                              max_instructions=args.max_instructions)
    probe = PredictionProbe(top_branches=args.top)
    result = simulate(make_predictor(args.predictor), args.trace, config,
                      probe=probe)
    report = result.probe_report
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    # Deliberately no wall-clock figures: explain output is a function
    # of (trace, predictor, config) alone, so it can be golden-tested.
    print(f"trace: {result.trace_name}")
    print(f"predictor: {result.predictor_metadata.get('name', '?')}")
    print(f"branches: {result.num_conditional_branches} conditional, "
          f"{result.mispredictions} mispredicted, "
          f"MPKI {result.mpki:.4f}")
    if attribution_rows(report)[1]:
        print()
        print(attribution_table(report))
    print()
    print(top_offenders_table(report))
    if structure_rows(report)[1]:
        print()
        print(structure_table(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = SimulationConfig(warmup_instructions=args.warmup)
    result = compare(make_predictor(args.predictor_a),
                     make_predictor(args.predictor_b), args.trace, config)
    print(json.dumps(result.to_json(), indent=2))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    statistics = analyze_trace(read_trace(args.trace))
    if args.json:
        print(json.dumps(statistics.to_json(), indent=2))
    else:
        print(statistics.summary())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = generate_trace(PROFILES[args.category], args.seed, args.branches)
    size = write_trace(args.output, trace)
    print(f"wrote {args.output}: {len(trace)} branches, "
          f"{trace.num_instructions} instructions, {size} bytes on disk")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    translators = {
        "bt9-to-sbbt": bt9_to_sbbt,
        "sbbt-to-bt9": sbbt_to_bt9,
        "champsim-to-sbbt": champsim_to_sbbt,
    }
    report = translators[args.direction](args.source, args.destination)
    print(f"{report.source} ({report.source_bytes} B) -> "
          f"{report.destination} ({report.destination_bytes} B): "
          f"{report.size_ratio:.2f}x smaller, "
          f"{report.num_branches} branches")
    return 0


def _cmd_championship(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.championship import Championship

    traces = {Path(path).name: path for path in args.traces}
    championship = Championship(
        traces,
        SimulationConfig(warmup_instructions=args.warmup,
                         collect_most_failed=False),
    )
    for name in args.predictors:
        championship.submit(name, PREDICTOR_CHOICES[name])
    print(championship.leaderboard_table())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import SimulationCache

    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        raise SystemExit(
            "no cache directory: pass --cache-dir or set MBP_CACHE_DIR")
    cache = SimulationCache(cache_dir)
    if args.action == "stats":
        print(json.dumps(cache.stats().to_json(), indent=2))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.directory}")
        return 0
    report = cache.verify(delete=args.delete_invalid)
    print(f"{report.valid} valid, {len(report.invalid)} invalid")
    for name, problem in report.invalid:
        verb = "deleted" if args.delete_invalid else "found"
        print(f"  {verb} {name}: {problem}")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.reporting import (
        attribution_rows,
        attribution_table,
        interval_series_table,
        manifest_summary_table,
        phase_breakdown_table,
        structure_rows,
        structure_table,
        telemetry_csv,
        top_offenders_rows,
        top_offenders_table,
    )
    from .core.errors import TelemetryError
    from .telemetry import read_telemetry

    fmt = args.format or ("json" if args.json else "text")
    status = 0
    documents: list[tuple[str, dict]] = []
    for path in args.files:
        try:
            documents.append((path, read_telemetry(path)))
        except TelemetryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    if fmt == "json":
        print(json.dumps([doc for _, doc in documents], indent=2))
        return status
    if fmt == "csv":
        first = True
        for path, doc in documents:
            if not first:
                print()
            first = False
            print(f"# file: {path}")
            rendered = telemetry_csv(doc, limit=args.limit)
            if rendered:
                print(rendered, end="")
        return status
    first = True
    for path, doc in documents:
        if not first:
            print()
        first = False
        print(f"== {path}")
        manifest = doc.get("manifest")
        rendered = False
        if manifest:
            if manifest.get("kind") == "repro-suite-manifest":
                print(manifest_summary_table(manifest.get("runs", []),
                                             title="Suite run manifests"))
                aggregate = manifest.get("aggregate")
                if aggregate:
                    timing = aggregate.get("timing", {})
                    print(
                        f"suite: {manifest.get('num_traces')} traces, "
                        f"{manifest.get('cache_hits', 0)} cache hits, "
                        f"{len(manifest.get('failures', []))} failures, "
                        f"mean MPKI {aggregate.get('mean_mpki', 0.0):.4f}, "
                        f"total time {timing.get('total', 0.0):.3f}s")
            else:
                print(manifest_summary_table([manifest]))
            rendered = True
        phases = doc.get("phases")
        if phases:
            print()
            print(phase_breakdown_table(phases))
            rendered = True
        counters = doc.get("counters")
        if counters:
            print()
            print("counters: " + ", ".join(
                f"{name}={counters[name]}" for name in sorted(counters)))
            rendered = True
        intervals = doc.get("intervals")
        if intervals:
            print()
            print(interval_series_table(intervals, limit=args.limit))
            rendered = True
        probe = doc.get("probe")
        if probe is None and manifest:
            probe = manifest.get("probe")
        if probe:
            if attribution_rows(probe)[1]:
                print()
                print(attribution_table(probe))
            if top_offenders_rows(probe)[1]:
                print()
                print(top_offenders_table(probe))
            if structure_rows(probe)[1]:
                print()
                print(structure_table(probe))
            rendered = True
        if not rendered:
            print("(empty telemetry document)")
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import MbpServer, ServeConfig

    if args.socket is not None and args.host is not None:
        raise SystemExit("pass --socket or --host, not both")
    if args.workers is None:
        # A daemon serves many clients and cannot see its unit counts
        # up front, so the cpu-aware default is uncapped here.
        from .core.engine import default_workers

        args.workers = default_workers()
    config = ServeConfig(
        socket_path=args.socket if args.host is None else None,
        host=args.host,
        port=args.port,
        workers=args.workers,
        start_method=args.start_method,
        cache_dir=resolve_cache_dir(args.cache_dir),
        sim_engine=args.engine,
        batch=args.batch,
        max_queue=args.max_queue,
        request_timeout=args.timeout if args.timeout > 0 else None,
        trace_dir=args.trace_dir,
        **({} if args.max_request_bytes is None
           else {"max_request_bytes": args.max_request_bytes}),
    )
    server = MbpServer(config)

    class _Announce:
        """Duck-typed `ready` for MbpServer.run: prints the address."""

        @staticmethod
        def set() -> None:
            kind, *where = server.bound
            address = where[0] if kind == "unix" else f"{where[0]}:{where[1]}"
            print(f"mbp serve: listening on {kind} {address} "
                  f"(workers={config.workers}, cache={server.cache.directory})",
                  file=sys.stderr, flush=True)

    # SIGINT/SIGTERM drain gracefully: request_shutdown is threadsafe,
    # so plain signal handlers are enough (and work on every platform).
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.request_shutdown())
    asyncio.run(server.run(ready=_Announce()))
    print("mbp serve: stopped", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .serve.client import MbpClient, ServeError

    if (args.socket is None) == (args.host is None):
        raise SystemExit("pass exactly one of --socket or --host")
    try:
        if args.socket is not None:
            client = MbpClient(socket_path=args.socket, timeout=args.timeout)
        else:
            client = MbpClient(host=args.host, port=args.port,
                               timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(f"cannot connect to mbp serve: {exc}") from None
    parameters = _parse_fixed(args.fixed)
    common = {"parameters": parameters, "warmup": args.warmup,
              "max_instructions": args.max_instructions,
              "engine": args.engine, "trace_id": args.trace_id}
    try:
        with client:
            if args.action in ("ping", "stats", "shutdown"):
                if args.traces:
                    raise SystemExit(f"'{args.action}' takes no trace paths")
                reply = getattr(client, args.action)()
            elif args.action == "simulate":
                if len(args.traces) != 1:
                    raise SystemExit("'simulate' takes exactly one trace")
                reply = client.simulate(args.traces[0], args.predictor,
                                        **common)
            elif args.action == "suite":
                if not args.traces:
                    raise SystemExit("'suite' takes one or more traces")
                reply = client.suite(args.traces, args.predictor, **common)
            else:  # sweep
                if not args.traces:
                    raise SystemExit("'sweep' takes one or more traces")
                if args.parameter is None or args.values is None:
                    raise SystemExit("'sweep' needs --parameter and --values")
                reply = client.sweep(args.traces, args.predictor,
                                     args.parameter,
                                     _parse_values(args.values), **common)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ConnectionError) as exc:
        raise SystemExit(f"connection to mbp serve failed: {exc}") from None
    if args.result_only:
        if "result" not in reply:
            raise SystemExit("--result-only needs the 'simulate' action")
        print(json.dumps(reply["result"], indent=2))
    else:
        print(json.dumps(reply, indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .tracing import (
        chrome_trace_events,
        critical_path_table,
        read_spans,
        resolve_trace_dir,
        summary_table,
    )

    if args.output is not None and args.action != "export":
        raise SystemExit("--output requires the 'export' action")
    paths = list(args.paths)
    if not paths:
        default_dir = resolve_trace_dir(None)
        if default_dir is None:
            raise SystemExit("no span logs: pass .jsonl files or "
                             "directories, or set MBP_TRACE_DIR")
        paths = [default_dir]
    spans = read_spans(paths, trace_id=args.trace_id)
    if not spans:
        scope = f" for trace id {args.trace_id}" if args.trace_id else ""
        raise SystemExit(f"no spans found{scope} in: {', '.join(paths)}")
    if args.action == "export":
        document = chrome_trace_events(spans)
        text = json.dumps(document, indent=2)
        if args.output is not None:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
            print(f"wrote {args.output}: "
                  f"{len(document['traceEvents'])} events",
                  file=sys.stderr)
        else:
            print(text)
        return 0
    print(summary_table(spans))
    print()
    print(critical_path_table(spans, args.trace_id))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "suite": _cmd_suite,
    "sweep": _cmd_sweep,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "info": _cmd_info,
    "generate": _cmd_generate,
    "translate": _cmd_translate,
    "championship": _cmd_championship,
    "cache": _cmd_cache,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by the ``mbp`` console script."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
