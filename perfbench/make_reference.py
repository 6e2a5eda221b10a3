"""Regenerate ``reference/<workload>.json``: the expected result of every
unit at the default seed, each computed once by the scalar engine.

    python3 perfbench/make_reference.py [workload ...]

Each file maps a unit key to the digest of its canonical result (the
``SimulationResult`` JSON without ``simulation_time``; for serve sweeps,
the reply's points without timing-dependent counts).  Regenerate only
when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC_DIR))

import inprocess  # noqa: E402
import servemix  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or ["suite-heavy", "sweep-grid", "serve-mix"]
    for name in names:
        workroot = Path.cwd() / ".perfbench"
        workroot.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=workroot))
        try:
            units = (servemix.write_reference(workdir)
                     if name == "serve-mix"
                     else inprocess.write_reference(name, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = common.BENCH_DIR / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"workload": name, "seed": common.DEFAULT_SEED,
             "engine": "scalar", "units": units},
            indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(units)} units -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
