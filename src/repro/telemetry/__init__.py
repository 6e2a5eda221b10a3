"""repro.telemetry — the simulation observability layer.

The paper's claims are all *measurements*: Table III times whole
simulations, Section VII-C asserts result equivalence across simulators.
This package is the instrumentation those measurements rest on — built
zero-overhead-when-disabled so that attaching it never changes what is
being measured:

* :mod:`~repro.telemetry.instrumentation` — phase timers and event
  counters as a view of the recorded :mod:`repro.tracing` spans, behind
  an :class:`Instrumentation` protocol whose default is a shared null
  object (hot loops carry no per-branch hooks), and the vocabulary that
  decides which span names are phases;
* :mod:`~repro.telemetry.interval` — per-N-instruction MPKI/accuracy
  timeseries whose window deltas provably sum to the final
  :class:`~repro.core.output.SimulationResult` totals;
* :mod:`~repro.telemetry.manifest` — run manifests recording trace
  digest, predictor ``spec()``, config, versions, timings and cache
  provenance for every benchmark number;
* :mod:`~repro.telemetry.sinks` — JSON/CSV/memory destinations for
  interval records and the combined telemetry document used by
  ``mbp simulate --telemetry`` and ``mbp report``.

See ``docs/telemetry.md`` for the document schemas and overhead notes.
"""

from .instrumentation import (LIBRARY_VOCABULARY, NULL_INSTRUMENTATION,
                              Instrumentation, PhaseTimers, ServeTimers,
                              Vocabulary)
from .interval import (
    CSV_COLUMNS,
    INTERVAL_SCHEMA,
    IntervalRecord,
    IntervalRecorder,
    IntervalSeries,
)
from .manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    collect_environment,
    suite_manifest,
)
from .sinks import (
    TELEMETRY_KIND,
    TELEMETRY_SCHEMA,
    CsvFileSink,
    JsonFileSink,
    MemorySink,
    TelemetrySink,
    read_telemetry,
    write_telemetry,
)

__all__ = [
    "Instrumentation", "NULL_INSTRUMENTATION", "PhaseTimers",
    "ServeTimers", "Vocabulary", "LIBRARY_VOCABULARY",
    "IntervalRecord", "IntervalRecorder", "IntervalSeries",
    "INTERVAL_SCHEMA", "CSV_COLUMNS",
    "RunManifest", "build_manifest", "suite_manifest",
    "collect_environment", "MANIFEST_SCHEMA", "MANIFEST_KIND",
    "TelemetrySink", "MemorySink", "JsonFileSink", "CsvFileSink",
    "write_telemetry", "read_telemetry",
    "TELEMETRY_SCHEMA", "TELEMETRY_KIND",
]
