"""Cache-key identity across the registry.

The simulation cache keys results by ``Predictor.spec()``, so two
configurations that can predict differently must never share a spec.
For every registered predictor, changing any integer or boolean
constructor parameter away from its default must change the spec.
"""

from __future__ import annotations

import inspect

import pytest

from repro.registry import PREDICTOR_CHOICES


def _perturbable(factory) -> list[tuple[str, object]]:
    """``(name, default)`` of every int/bool keyword parameter."""
    parameters = inspect.signature(factory).parameters
    return [(name, parameter.default)
            for name, parameter in parameters.items()
            if isinstance(parameter.default, (bool, int))]


def _perturbed(default):
    if isinstance(default, bool):
        return not default
    return default + 1


@pytest.mark.parametrize("name", sorted(PREDICTOR_CHOICES))
def test_every_parameter_reaches_the_spec(name):
    factory = PREDICTOR_CHOICES[name]
    parameters = _perturbable(factory)
    assert parameters, f"{name} exposes no int/bool parameter"
    baseline = factory().spec()
    for parameter, default in parameters:
        changed = factory(**{parameter: _perturbed(default)}).spec()
        assert changed != baseline, (
            f"{name}: {parameter}={_perturbed(default)!r} leaves spec() "
            "unchanged, so the cache would serve one configuration's "
            "results for the other")


@pytest.mark.parametrize("name", ["tage", "batage"])
def test_lfsr_seed_is_in_the_spec_not_the_metadata(name):
    factory = PREDICTOR_CHOICES[name]
    spec = factory(lfsr_seed=1).spec()
    assert spec["lfsr_seed"] == 1
    assert spec != factory(lfsr_seed=0x1234567).spec()
    # Metadata (and so the result JSON) stays as published.
    assert "lfsr_seed" not in factory(lfsr_seed=1).metadata_stats()
