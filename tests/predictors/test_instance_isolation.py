"""Predictor instances share no state.

The classic bug (a Smith counter table or a return-address stack kept
as a class attribute) makes every instance of a predictor read and
write the same tables.  The execution engine relies on it never
happening: ``execute_plan`` simulates the instance it built for cache
keying, and workers keep instances of the same factory side by side.

For every registry predictor at its catalog parameters, two instances
run interleaved branch by branch over two different traces must give
exactly what each gives run alone: the same per-branch predictions and
the same final metadata and statistics.
"""

from __future__ import annotations

import itertools

import pytest

from repro.registry import PREDICTOR_CHOICES
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


@pytest.fixture(scope="module")
def trace_pair():
    return (generate_trace(PROFILES["short_mobile"], seed=21,
                           num_branches=600),
            generate_trace(PROFILES["short_server"], seed=22,
                           num_branches=600))


def _steps(predictor, trace):
    """Drive ``predictor`` over ``trace`` like the scalar simulator, one
    branch per step; yield each conditional branch's prediction."""
    for branch, _gap in trace.iter_branches():
        if branch.opcode & 1:
            prediction = predictor.predict(branch.ip)
            predictor.train(branch)
            predictor.track(branch)
            yield prediction
        else:
            predictor.track(branch)


def _observed(predictor, predictions):
    return (list(predictions), predictor.metadata_stats(),
            predictor.execution_stats())


@pytest.mark.parametrize("name", sorted(PREDICTOR_CHOICES))
def test_interleaved_instances_match_solo_runs(name, trace_pair):
    factory = PREDICTOR_CHOICES[name]
    solo = []
    for trace in trace_pair:
        predictor = factory()
        solo.append(_observed(predictor, _steps(predictor, trace)))

    first, second = factory(), factory()
    predictions: tuple[list, list] = ([], [])
    for pair in itertools.zip_longest(_steps(first, trace_pair[0]),
                                      _steps(second, trace_pair[1])):
        for sink, prediction in zip(predictions, pair):
            if prediction is not None:
                sink.append(prediction)
    interleaved = [_observed(first, predictions[0]),
                   _observed(second, predictions[1])]
    assert interleaved == solo
