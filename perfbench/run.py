"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite-heavy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` prints every per-layer metric and the layer
table.  Outputs are checked on every run; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 1 if any output was wrong or any
resource leaked.  A fuller record of the run (environment, host
reference loop, samples, problems) is printed before it and kept
under ``.perfbench/records/``.

The model has no hardware reference (its traces are synthetic), so no
accuracy-error figure is reported: correctness here means reproducing
the scalar engine's results exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

WORKLOADS = ("suite-heavy", "sweep-grid", "serve-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {common.SRC_DIR}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC_DIR))

    # One CPU for the run and every process it starts.  On a 2-vCPU
    # host whose hypervisor takes time back when both vCPUs are busy,
    # serve-mix unpinned measured the neighbours: 11-25 s of CPU steal
    # per run and a 2x spread in req/s, against 1-4 s pinned.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still stops its daemons and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd() / ".perfbench"
    workdir = root / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")
    ref_before = common.ref_loop_ms()
    steal_before = common.cpu_steal_s()
    try:
        if args.workload == "serve-mix":
            import servemix

            record = servemix.run(workdir, args.seed, args.seconds,
                                  bool(args.trace))
        else:
            import inprocess

            record = inprocess.run(args.workload, workdir, args.seed,
                                   args.seconds, bool(args.trace))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = common.ref_loop_ms()

    record["host"] = {"ref_loop_ms_before": ref_before,
                      "ref_loop_ms_after": ref_after,
                      "cpu_steal_s": common.cpu_steal_s() - steal_before}
    record["env"] = common.environment(args.seed)
    record["workload"] = args.workload
    record["trace"] = args.trace
    record["seconds"] = args.seconds
    attempted, failed = record["attempted"], record["failed"]
    record["error_rate"] = common.error_rate(failed, attempted)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]

    for name, m in metrics.items():
        print(f"{args.workload}  {name:<32s} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload}  {'error_rate':<32s} "
          f"{record['error_rate']:>14.6g} ({failed}/{attempted})")
    lat = record["latency"]
    print(f"{args.workload}  latency tail = p{lat['tail_percentile']:g} of "
          f"{lat['samples']} samples")
    print(f"{args.workload}  host.ref_loop_ms {ref_before:.3f} -> "
          f"{ref_after:.3f}, cpu steal {record['host']['cpu_steal_s']:.2f} s")
    for problem in record["problems"][:20]:
        print(f"{args.workload}  PROBLEM {problem}")
    if args.trace:
        table = record["layer_table"]
        print(common.format_layer_table(args.workload, table["wall_s"],
                                        table["rows"]))

    records = root / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record, separators=(",", ":")))

    correct = failed == 0
    common.emit({"correct": correct, "attempted": attempted,
                 "failed": failed, "metrics": metrics})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
