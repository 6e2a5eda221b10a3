"""Shared fixtures: canned traces and branch constructors.

Trace fixtures are session-scoped because synthesis is the dominant cost
of the integration tests; every test must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.branch import (
    Branch,
    OPCODE_CALL,
    OPCODE_COND_JUMP,
    OPCODE_IND_JUMP,
    OPCODE_JUMP,
    OPCODE_RET,
)
from repro.sbbt.trace import TraceData
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def make_branch(ip: int = 0x40_0000, target: int = 0x40_0100,
                opcode=OPCODE_COND_JUMP, taken: bool = True) -> Branch:
    """A branch with sensible defaults, overridable per field."""
    return Branch(ip=ip, target=target, opcode=opcode, taken=taken)


def make_trace(ips, taken, *, targets=None, opcodes=None, gaps=None,
               num_instructions=None) -> TraceData:
    """Build a small conditional-branch trace from plain lists."""
    n = len(ips)
    ips = np.asarray(ips, dtype=np.uint64)
    taken = np.asarray(taken, dtype=bool)
    if targets is None:
        targets = ips + np.uint64(64)
    if opcodes is None:
        opcodes = np.full(n, int(OPCODE_COND_JUMP), np.uint8)
    if gaps is None:
        gaps = np.zeros(n, dtype=np.uint16)
    gaps = np.asarray(gaps, dtype=np.uint16)
    if num_instructions is None:
        num_instructions = n + int(np.asarray(gaps, dtype=np.int64).sum())
    return TraceData(ips, np.asarray(targets, dtype=np.uint64),
                     np.asarray(opcodes, dtype=np.uint8), taken, gaps,
                     num_instructions)


def vectorized_predictions(predictor, trace: TraceData) -> np.ndarray:
    """Each conditional branch's prediction under
    ``simulate(engine="vectorized")``, in trace order.

    A one-instruction interval series closes one window per branch, so
    its cumulative misprediction count steps exactly at the mispredicted
    branches; a prediction is the outcome flipped where it steps.
    """
    from repro.core.simulator import simulate
    from repro.telemetry import IntervalRecorder

    recorder = IntervalRecorder(interval=1)
    simulate(predictor, trace, engine="vectorized", telemetry=recorder)
    cumulative = [r.cumulative_mispredictions
                  for r in recorder.series.records[:len(trace)]]
    wrong = np.diff(cumulative, prepend=0).astype(bool)
    conditional = trace.conditional_mask()
    return trace.taken[conditional] ^ wrong[conditional]


@pytest.fixture(scope="session")
def small_trace() -> TraceData:
    """~5k branches of a loopy mobile-like program (fast to simulate)."""
    return generate_trace(PROFILES["short_mobile"], seed=11,
                          num_branches=5000)


@pytest.fixture(scope="session")
def server_trace() -> TraceData:
    """~8k branches with calls, returns and indirect jumps."""
    return generate_trace(PROFILES["short_server"], seed=12,
                          num_branches=8000)


@pytest.fixture(scope="session")
def medium_trace() -> TraceData:
    """~30k branches for MPKI-ordering integration tests."""
    return generate_trace(PROFILES["spec17_like"], seed=13,
                          num_branches=30000)


# Re-exported so tests can import everything from conftest.
__all__ = [
    "make_branch", "make_trace",
    "OPCODE_CALL", "OPCODE_COND_JUMP", "OPCODE_IND_JUMP", "OPCODE_JUMP",
    "OPCODE_RET",
]
