"""Content-addressed, on-disk cache of simulation results.

The paper's whole evaluation re-runs the same (predictor configuration,
trace) pairs over and over — Table III repeats every predictor over every
trace, and the Section VI sweeps re-simulate overlapping grids.  Those
simulations are deterministic: the same trace bytes, predictor parameters
and :class:`~repro.core.simulator.SimulationConfig` always produce the
same :class:`~repro.core.output.SimulationResult`.  This module therefore
never simulates the same pair twice: results are stored on disk keyed by
a digest of *what was simulated*.

Key derivation (see ``docs/caching.md`` for the full rules)::

    key = sha256(canonical_json({
        "schema":    SCHEMA_VERSION,
        "simulator": {"name": ..., "version": ...},
        "trace":     sha256(uncompressed SBBT payload),
        "predictor": predictor.spec(),          # name + parameters
        "config":    SimulationConfig fields,
    }))

Safety properties (each covered by tests):

* **atomic writes** — entries are written to a temp file in the cache
  directory and published with ``os.replace``, so concurrent writers
  (two processes filling the same directory) can only race to an
  identical, complete entry;
* **corruption-tolerant reads** — a truncated, garbled or
  wrong-schema entry is a *miss* (and is deleted best-effort), never an
  exception and never a wrong result;
* **LRU size cap** — optional ``max_entries`` / ``max_bytes`` caps are
  enforced by evicting the least-recently-used entries (file mtime,
  refreshed on every hit).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Union

from .core.errors import CacheError
from .core.output import SIMULATOR_NAME, SIMULATOR_VERSION, SimulationResult
from .core.predictor import Predictor, canonical_spec, derive_spec
from .core.simulator import SimulationConfig, simulate
from .sbbt.digest import payload_digest, trace_digest
from .sbbt.trace import TraceData
from .tracing import join_recorders

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "resolve_cache_dir",
    "CacheStats",
    "VerifyReport",
    "SimulationCache",
]

TraceLike = Union[TraceData, str, os.PathLike]

#: Environment variable naming a default cache directory.
CACHE_DIR_ENV = "MBP_CACHE_DIR"


def resolve_cache_dir(explicit: str | os.PathLike | None = None, *,
                      default: str | os.PathLike | None = None,
                      environ: dict[str, str] | None = None) -> str | None:
    """The cache directory every entry point agrees on.

    Precedence: an ``explicit`` value (a ``--cache-dir`` flag) wins,
    then the :data:`CACHE_DIR_ENV` environment variable, then
    ``default`` (usually ``None`` = caching off, or a service-private
    directory).  Empty strings at any level mean "unset" — so
    ``MBP_CACHE_DIR=""`` disables the env layer rather than naming the
    current directory.  ``environ`` is injectable for tests.

    Every consumer — ``mbp simulate/suite/sweep``, ``mbp cache``, the
    serve daemon — resolves through this one function, so they cannot
    drift apart on which cache they talk to.
    """
    if explicit is not None and str(explicit):
        return str(explicit)
    env = os.environ if environ is None else environ
    from_env = env.get(CACHE_DIR_ENV, "")
    if from_env:
        return from_env
    if default is not None and str(default):
        return str(default)
    return None

#: Version of the on-disk entry format *and* of the key derivation.
#: Bumping it orphans every existing entry (old entries read as misses
#: and old keys are never looked up again), which is exactly the
#: invalidation rule: never trust an entry written by different code.
SCHEMA_VERSION = 1

_ENTRY_SUFFIX = ".json"


@dataclass(slots=True)
class CacheStats:
    """A snapshot of a cache directory plus this handle's session counters.

    ``entries``/``total_bytes`` describe the directory as scanned now;
    ``hits``/``misses``/``stores``/``evictions``/``dropped`` count what
    *this* :class:`SimulationCache` instance did since construction.
    """

    directory: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    stores: int
    evictions: int
    dropped: int

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for the CLI's JSON output."""
        return asdict(self)


@dataclass(slots=True)
class VerifyReport:
    """Outcome of :meth:`SimulationCache.verify`."""

    valid: int
    invalid: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every entry decoded and round-tripped."""
        return not self.invalid


class SimulationCache:
    """A content-addressed store of :class:`SimulationResult` objects.

    Parameters
    ----------
    directory:
        Cache root; created (with parents) if missing.  Entries are flat
        ``<key>.json`` files, so a cache directory is portable and
        mergeable with ``cp``.
    max_entries, max_bytes:
        Optional LRU caps, enforced after every store.  ``None`` means
        unbounded.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc
        if not self.directory.is_dir():
            raise CacheError(f"{self.directory} is not a directory")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Key derivation.
    # ------------------------------------------------------------------

    @staticmethod
    def make_key(trace_digest_hex: str, spec: dict[str, Any],
                 config: SimulationConfig | None = None) -> str:
        """Derive the content-addressed key for one simulation.

        ``spec`` is a predictor's :meth:`~repro.core.predictor.Predictor.spec`
        dict (it is re-canonicalized here, so hand-built dicts are fine).
        """
        config = config or SimulationConfig()
        material = {
            "schema": SCHEMA_VERSION,
            "simulator": {
                "name": SIMULATOR_NAME,
                "version": SIMULATOR_VERSION,
            },
            "trace": trace_digest_hex,
            "predictor": canonical_spec(spec),
            "config": canonical_spec(asdict(config)),
        }
        encoded = json.dumps(material, sort_keys=True,
                             separators=(",", ":")).encode()
        return payload_digest(encoded)

    def key_for(self, trace: TraceLike,
                predictor: Predictor | dict[str, Any],
                config: SimulationConfig | None = None) -> str:
        """Key for simulating ``predictor`` (or a spec dict) over ``trace``."""
        spec = predictor.spec() if isinstance(predictor, Predictor) else predictor
        return self.make_key(trace_digest(trace), spec, config)

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    # ------------------------------------------------------------------
    # Store / lookup.
    # ------------------------------------------------------------------

    def get(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss.

        Any defect in the entry file — unreadable, truncated, garbled
        JSON, wrong schema version, wrong embedded key, non-round-
        tripping result — degrades to a miss; the bad file is deleted
        best-effort so it cannot shadow a future store.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["schema"] != SCHEMA_VERSION:
                raise ValueError(f"schema {entry['schema']!r}")
            if entry["key"] != key:
                raise ValueError("embedded key mismatch")
            result = SimulationResult.from_json(entry["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            if self._drop(path):
                self.dropped += 1
            self.misses += 1
            return None
        self.hits += 1
        result.from_cache = True
        try:  # refresh LRU recency
            os.utime(path)
        except OSError:
            pass
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Atomically store ``result`` under ``key`` and enforce the caps."""
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result.to_json(),
        }
        payload = json.dumps(entry, separators=(",", ":")).encode()
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=_ENTRY_SUFFIX, dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(payload)
            os.replace(tmp_name, self._entry_path(key))
        except OSError:
            self._drop(Path(tmp_name))
            raise
        self.stores += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self.prune()

    def get_or_simulate(self, factory: Callable[[], Predictor],
                        trace: TraceLike,
                        config: SimulationConfig | None = None, *,
                        trace_name: str | None = None,
                        instrumentation: Any = None,
                        telemetry: Any = None,
                        probe: Any = None,
                        engine: str = "scalar") -> SimulationResult:
        """Serve from cache, or simulate once and remember the result.

        ``factory`` is called **at most once**: when it exposes no
        cheap-spec hook (see :func:`repro.core.predictor.derive_spec`)
        the instance built for key derivation is cold and is the one
        simulated on a miss — table-heavy predictors (TAGE, BATAGE) no
        longer allocate their tables twice, and a hit with a cheap-spec
        factory allocates nothing at all.  The trace name is
        display-only and deliberately not part of the key, so a hit is
        renamed to the caller's current spelling.

        ``instrumentation`` / ``telemetry`` are the standard simulator's
        observability hooks (:mod:`repro.telemetry`): the key derivation
        and lookup are one "cache_lookup" span, counting "cache_hit" or
        "cache_miss"; on a miss both hooks are forwarded
        to :func:`~repro.core.simulator.simulate`.  A hit emits no
        interval telemetry — the stored result has no timeseries — which
        the run manifest makes visible via its ``cache`` section.

        ``probe`` (a :class:`repro.probe.PredictionProbe`) is likewise
        forwarded only on a miss: attribution is observed *during*
        simulation, so a hit returns with ``probe_report=None`` — the
        entry format (and the key) never carry probe data.

        ``engine`` selects the simulation engine used on a miss
        (``"scalar"``, ``"vectorized"`` or ``"auto"``).  It is *not*
        part of the cache key: both engines produce identical results,
        so runs with different engines share entries.
        """
        config = config or SimulationConfig()
        rec = join_recorders(instrumentation=instrumentation)
        with rec.span("cache_lookup") as lookup:
            spec, prebuilt = derive_spec(factory)
            key = self.make_key(trace_digest(trace), spec, config)
            cached = self.get(key)
            lookup.count("cache_hit" if cached is not None else "cache_miss")
        if cached is not None:
            if trace_name is not None:
                cached.trace_name = trace_name
            elif not isinstance(trace, TraceData):
                cached.trace_name = str(trace)
            return cached
        predictor = prebuilt if prebuilt is not None else factory()
        result = simulate(predictor, trace, config, trace_name=trace_name,
                          instrumentation=instrumentation,
                          telemetry=telemetry, probe=probe, engine=engine)
        self.put(key, result)
        return result

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        """Entry files with stats; files vanishing mid-scan are skipped."""
        found = []
        try:
            listing = list(self.directory.iterdir())
        except OSError:
            return []
        for path in listing:
            name = path.name
            if not name.endswith(_ENTRY_SUFFIX) or name.startswith("."):
                continue
            try:
                found.append((path, path.stat()))
            except OSError:
                continue
        return found

    def __len__(self) -> int:
        return len(self._entries())

    def stats(self) -> CacheStats:
        """Scan the directory and snapshot counts and sizes."""
        entries = self._entries()
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=sum(stat.st_size for _, stat in entries),
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            dropped=self.dropped,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path, _ in self._entries():
            if self._drop(path):
                removed += 1
        return removed

    def verify(self, *, delete: bool = False) -> VerifyReport:
        """Decode every entry and report (optionally delete) bad ones."""
        report = VerifyReport(valid=0)
        for path, _ in self._entries():
            problem = self._check_entry(path)
            if problem is None:
                report.valid += 1
                continue
            report.invalid.append((path.name, problem))
            if delete:
                self._drop(path)
        return report

    def prune(self) -> int:
        """Evict least-recently-used entries until both caps hold."""
        entries = self._entries()
        entries.sort(key=lambda item: item[1].st_mtime)  # oldest first
        count = len(entries)
        total = sum(stat.st_size for _, stat in entries)
        evicted = 0
        for path, stat in entries:
            over_entries = (self.max_entries is not None
                            and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and total > self.max_bytes)
            if not over_entries and not over_bytes:
                break
            if self._drop(path):
                evicted += 1
                self.evictions += 1
            count -= 1
            total -= stat.st_size
        return evicted

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _check_entry(self, path: Path) -> str | None:
        """None if the entry is sound, else a human-readable problem."""
        try:
            entry = json.loads(path.read_bytes())
        except OSError as exc:
            return f"unreadable: {exc}"
        except ValueError:
            return "not valid JSON"
        if not isinstance(entry, dict):
            return "entry is not a JSON object"
        if entry.get("schema") != SCHEMA_VERSION:
            return f"schema version {entry.get('schema')!r} != {SCHEMA_VERSION}"
        if entry.get("key") != path.name[:-len(_ENTRY_SUFFIX)]:
            return "embedded key does not match file name"
        try:
            result = SimulationResult.from_json(entry["result"])
            if result.to_json() != entry["result"]:
                return "result does not round-trip"
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"result not decodable: {exc!r}"
        return None

    def _drop(self, path: Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def __repr__(self) -> str:
        return (f"SimulationCache({str(self.directory)!r}, "
                f"entries={len(self)})")
