"""End-to-end span tracing with cross-process context propagation.

One :class:`TraceContext` minted at an entry point (a CLI subcommand,
a serve request) follows the work through every layer of the pipeline
— the :func:`~repro.core.plan.execute_plan` cache scan, the
:class:`~repro.core.engine.ExecutionEngine` chunk dispatch, and into
the worker processes, whose per-unit ``attach`` / ``simulate`` spans
ship back with their results.  Spans stream to a JSONL sink and export
to the Chrome trace-event format via ``mbp trace export | summary``.

Spans are the library's one record: :mod:`repro.telemetry` phase
timers are a view of them, and :func:`join_recorders` makes one
recorder of a caller's tracer and phase timers.  Tracing is
zero-overhead when disabled: the default :data:`NULL_TRACER` is a
shared null object and results are byte-identical with or without it
(guarded by ``benchmarks/test_tracing.py``).  See ``docs/tracing.md``.
"""

from .context import TraceContext, new_span_id, new_trace_id
from .export import (
    TRACE_DIR_ENV,
    chrome_trace_events,
    critical_path,
    critical_path_table,
    read_spans,
    resolve_trace_dir,
    summary,
    summary_table,
    trace_ids,
)
from .span import (
    NULL_TRACER,
    JsonlSpanSink,
    Span,
    SpanRecorder,
    Tracer,
    join_recorders,
    wire_child_span,
)

__all__ = [
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "SpanRecorder",
    "JsonlSpanSink",
    "wire_child_span",
    "join_recorders",
    "TRACE_DIR_ENV",
    "resolve_trace_dir",
    "read_spans",
    "trace_ids",
    "chrome_trace_events",
    "summary",
    "summary_table",
    "critical_path",
    "critical_path_table",
]
