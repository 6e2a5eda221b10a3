"""The predictor interface (paper Section IV-A/B).

A branch predictor is a class that derives from :class:`Predictor` and
overrides three functions:

``predict(ip)``
    Return the outcome guess for the branch at ``ip``.  Must not change
    state in a way that affects future predictions (it may cache work for
    the matching ``train`` call — see the tournament example).

``train(branch)``
    Update the *prediction* structures given the resolved outcome.

``track(branch)``
    Update the *scenario* structures (recent-behaviour state such as
    global history) given the resolved outcome.

The split between ``train`` and ``track`` is the library's composability
mechanism: a meta-predictor may train a sub-component selectively (partial
update) while still tracking every branch through it, something that is
impossible when one ``update`` function does both jobs (Section VI-D).

When driven by the standard simulator, ``train`` is invoked for
conditional branches only, and ``track`` is invoked for every branch,
after ``train``.
"""

from __future__ import annotations

import abc
import numbers
from typing import Any

from .branch import Branch

__all__ = ["Predictor", "MetadataMixin", "canonical_spec", "derive_spec"]


def canonical_spec(value: Any) -> Any:
    """Recursively normalize a spec fragment into canonical JSON form.

    Dict keys are sorted, tuples/lists become lists, enums and numpy
    scalars collapse to plain Python scalars.  Anything that cannot be
    represented as deterministic JSON raises ``TypeError`` — a spec that
    silently varied between runs would poison content-addressed caches.
    """
    if isinstance(value, dict):
        return {str(k): canonical_spec(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_spec(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)  # plain ints, IntEnums, numpy integer scalars
    if isinstance(value, numbers.Real):
        return float(value)  # floats and numpy float scalars
    raise TypeError(
        f"spec value {value!r} of type {type(value).__name__} is not "
        "canonically JSON-representable"
    )


def derive_spec(factory: Any) -> tuple[dict[str, Any], "Predictor | None"]:
    """Derive a factory's predictor spec as cheaply as possible.

    Content-addressed cache keys need the :meth:`Predictor.spec` of the
    configuration a factory builds, but constructing a table-heavy
    predictor (TAGE, BATAGE) just to read its parameters allocates every
    prediction table.  This helper supports a **cheap-spec path**: when
    the factory itself exposes a zero-argument ``spec`` callable (for
    example a small wrapper class, or a ``functools.partial`` whose
    ``spec`` attribute was assigned), that is used and **no predictor is
    constructed**.

    Returns ``(spec, instance)`` where ``instance`` is the predictor
    that had to be built to obtain the spec — or ``None`` on the cheap
    path.  The instance is cold (never trained), so callers may reuse it
    for the first real simulation instead of constructing again; it must
    be used for nothing else.
    """
    # A predictor *class* used directly as the factory exposes the
    # unbound ``Predictor.spec`` method — not a cheap-spec hook.
    hook = None if isinstance(factory, type) else getattr(factory, "spec", None)
    if callable(hook):
        return canonical_spec(hook()), None
    instance = factory()
    return instance.spec(), instance


class Predictor(abc.ABC):
    """Abstract base class of every branch predictor.

    Subclasses must implement :meth:`predict`, :meth:`train` and
    :meth:`track`; the remaining hooks are optional and feed the
    simulator's JSON output (Section IV-E).
    """

    @abc.abstractmethod
    def predict(self, ip: int) -> bool:
        """Guess the outcome of the branch at address ``ip``.

        Must be observably pure with respect to future predictions.
        """

    @abc.abstractmethod
    def train(self, branch: Branch) -> None:
        """Update prediction structures with the resolved ``branch``."""

    @abc.abstractmethod
    def track(self, branch: Branch) -> None:
        """Update scenario structures with the resolved ``branch``."""

    # ------------------------------------------------------------------
    # Optional hooks (the "other functions" of Section IV-A).
    # ------------------------------------------------------------------

    def metadata_stats(self) -> dict[str, Any]:
        """Static configuration for the output's ``metadata.predictor``.

        Conventionally includes a ``"name"`` key plus the parameter
        selection, so a results file is self-describing.
        """
        return {"name": type(self).__name__}

    def execution_stats(self) -> dict[str, Any]:
        """Dynamic statistics for the output's ``predictor_statistics``.

        Populated by designs that count internal events (table conflicts,
        allocation failures, provider distribution, ...).
        """
        return {}

    def on_warmup_end(self) -> None:
        """Called by the simulator when warm-up instructions are over.

        Predictors that keep their own statistics can reset them here so
        that ``execution_stats`` only reflects the measured region.
        """

    # ------------------------------------------------------------------
    # Probe hooks (component attribution, :mod:`repro.probe`).
    # ------------------------------------------------------------------

    #: The attached :class:`repro.probe.PredictionProbe` (or a scoped
    #: view of one), ``None`` when attribution is disabled.  A class
    #: attribute so probe-unaware predictors pay nothing: the instance
    #: never grows the slot and ``self._probe`` reads the shared None.
    _probe: Any = None

    def attach_probe(self, probe: Any) -> None:
        """Attach an attribution probe (``None`` detaches).

        Composed predictors override this to forward scoped views —
        ``probe.scoped("role")`` — to their sub-components, so nested
        compositions report attribution at every level.
        """
        self._probe = probe

    def probe_stats(self) -> dict[str, Any]:
        """End-of-run structural statistics for the probe report.

        Conventionally a dict of component name to the output of
        :func:`repro.utils.tables.distribution_stats` (occupancy,
        saturation, entropy); composed predictors nest their
        components' dicts.  Empty by default.
        """
        return {}

    def vector_kernel(self) -> Any:
        """The predictor's vectorized evaluation kernel, or ``None``.

        Table-indexed predictors whose update rules are expressible as
        the batched passes of :mod:`repro.core.vectorized` return a
        kernel object (an instance with a ``run(ctx)`` method, e.g.
        :class:`~repro.core.vectorized.SaturatingTableKernel`) built
        from their *configuration* — the live tables are never read, so
        a kernel can be requested from a cold instance.  The instance is
        never trained either, so a kernel for a predictor whose
        ``metadata_stats()``/``execution_stats()`` depend on run state
        (TAGE, BATAGE, the perceptron) sets the ``stats`` field of its
        :class:`~repro.core.vectorized.KernelRun`; the finisher then
        reports those instead of the cold instance's.  Predictors
        without a kernel return ``None``: the ``"auto"`` engine then
        falls back to the scalar loop silently, while an explicit
        ``engine="vectorized"`` request raises
        :class:`~repro.core.errors.EngineNotSupportedError`.
        """
        return None

    def spec(self) -> dict[str, Any]:
        """Canonical (name + parameters) identity of this configuration.

        The simulation cache (:mod:`repro.cache`) keys results by this
        dict, so it must be **deterministic across runs and processes**
        and must change whenever a constructor parameter that affects
        predictions changes.  The default derives it from
        :meth:`metadata_stats` — which by library convention lists the
        name and every parameter — normalized through
        :func:`canonical_spec`.

        Composed predictors override this to build their spec from their
        components' ``spec()`` (not ``metadata_stats``), so a component
        with a customized spec stays correctly keyed when nested.

        Raises ``TypeError`` if the metadata contains values with no
        canonical JSON form; such predictors must override ``spec()``.
        """
        return canonical_spec(self.metadata_stats())

    # ------------------------------------------------------------------
    # Convenience.
    # ------------------------------------------------------------------

    def update(self, branch: Branch) -> None:
        """``train`` then ``track`` in one call.

        This is the single-function update style of ChampSim and the CBP5
        framework; provided so predictors written against this library are
        easy to drive from the baseline simulators.
        """
        if branch.is_conditional:
            self.train(branch)
        self.track(branch)

    def name(self) -> str:
        """The predictor's display name (from :meth:`metadata_stats`)."""
        return str(self.metadata_stats().get("name", type(self).__name__))


class MetadataMixin:
    """Mixin that assembles ``metadata_stats`` from declared parameters.

    Subclasses set ``_metadata_name`` and list parameter attribute names in
    ``_metadata_params``; the mixin reflects them into the JSON dict.  This
    keeps the "every example is parameterizable and self-describing"
    property of the paper's examples library without repeating dict
    literals in every predictor.
    """

    _metadata_name: str = ""
    _metadata_params: tuple[str, ...] = ()

    def metadata_stats(self) -> dict[str, Any]:
        """Reflect the declared parameters into the metadata dict."""
        stats: dict[str, Any] = {
            "name": self._metadata_name or type(self).__name__
        }
        for param in self._metadata_params:
            stats[param] = getattr(self, param)
        return stats
