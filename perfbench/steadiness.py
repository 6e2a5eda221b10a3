"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload sweep-grid --seeds 11-20 \
        [--trace 0] [--seconds 20] [--out summary.json]

For each metric: the median and quartiles of the per-run values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median, beside the bound ``BENCHMARK.json`` sets.  This is
how a set of runs is judged steady, and how the baseline under
``baseline/`` was recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="11-20")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        record = next((json.loads(line[len("record "):]) for line in lines
                       if line.startswith("record ")), None)
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": proc.returncode,
                     "elapsed_s": elapsed, "result": result,
                     "host": record["host"] if record else None,
                     "layer_table": (record or {}).get("layer_table")})
        values = {k: round(v["value"], 4)
                  for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {proc.returncode} {elapsed:.1f}s "
              f"correct={result.get('correct')} {values}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)

    summary = {}
    names = list(runs[0]["result"].get("metrics", {})) if runs else []
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if r["result"].get("metrics")]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = common.quartile_spread(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name),
                         "unit": runs[0]["result"]["metrics"][name]["unit"],
                         "runs": len(values)}
        bound = bounds.get(name)
        flag = "" if bound is None else (
            "ok" if spread <= bound / 3 else
            "WITHIN" if spread <= bound else "OVER")
        print(f"{name:<32s} median {median:12.6g}  spread {spread:7.4f}"
              f"  bound {bound}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace,
             "seconds": seconds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
