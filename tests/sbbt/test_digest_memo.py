"""The shared trace-digest memo of :mod:`repro.sbbt.digest`.

Cache keying, serve keying and engine publishing all need a file's
content digest; the memo digests an unchanged file once for all of
them, and a rewritten file (same size, mtime put back) afresh.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.cache import SimulationCache
from repro.core.engine import ExecutionEngine
from repro.core.plan import WorkPlan, execute_plan
from repro.core.simulator import SimulationConfig
from repro.predictors import Bimodal
from repro.sbbt import compression
from repro.sbbt import digest as digest_module
from repro.sbbt.digest import (
    known_digest,
    path_identity,
    payload_digest,
    remember_digest,
    trace_digest,
)
from repro.sbbt.writer import write_trace


def test_keying_and_publishing_read_an_unchanged_file_once_each(
        tmp_path, small_trace, monkeypatch):
    path = tmp_path / "t.sbbt.gz"
    write_trace(path, small_trace)
    opened: list[str] = []
    real = compression.open_compressed

    def spy(target, mode="rb"):
        if mode == "rb":
            opened.append(Path(target).name)
        return real(target, mode)

    monkeypatch.setattr(compression, "open_compressed", spy)
    monkeypatch.setattr(digest_module, "open_compressed", spy)
    cache = SimulationCache(tmp_path / "cache")
    with ExecutionEngine(workers=1) as engine:
        # Two plans with different keys: both miss and publish.
        for warmup in (0, 100):
            plan = WorkPlan.for_suite(
                Bimodal, [str(path)],
                SimulationConfig(warmup_instructions=warmup))
            execute_plan(plan, engine=engine, cache=cache)
        assert engine.stats.traces_published == 1
    # One read digests the file while keying the first plan, one decodes
    # it for the first publish; the second plan reads nothing.
    assert opened == ["t.sbbt.gz", "t.sbbt.gz"]


def test_rewrite_at_same_size_and_mtime_is_digested_afresh(tmp_path,
                                                          small_trace):
    path = tmp_path / "t.sbbt"
    write_trace(path, small_trace)
    first = trace_digest(path)
    before = os.stat(path)
    content = bytearray(path.read_bytes())
    content[-1] ^= 0xFF
    # ctime has clock-tick granularity on some filesystems: make sure
    # the rewrite lands on a later tick than the first stat.
    time.sleep(0.02)
    path.write_bytes(bytes(content))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)
    assert trace_digest(path) == payload_digest(bytes(content)) != first


def test_memo_is_bounded_least_recently_used_first(tmp_path, monkeypatch,
                                                   small_trace):
    monkeypatch.setattr(digest_module, "_memo", type(digest_module._memo)())
    monkeypatch.setattr(digest_module, "MEMO_LIMIT", 2)
    identities = []
    for name in ("a", "b", "c"):
        path = tmp_path / f"{name}.sbbt"
        write_trace(path, small_trace)
        identities.append(path_identity(path))
        remember_digest(identities[-1], name)
    assert known_digest(identities[0]) is None
    assert [known_digest(i) for i in identities[1:]] == ["b", "c"]
