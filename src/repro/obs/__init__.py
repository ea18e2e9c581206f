"""``repro.obs`` — end-to-end telemetry for the S-MATCH pipeline.

Three pillars (see docs/OBSERVABILITY.md):

* **tracing** (:mod:`repro.obs.trace`) — nested :func:`span` records per
  protocol phase with durations, op-count deltas, and message bytes;
* **metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  integer counters / gauges / histograms with Prometheus + JSON export;
* **privacy-safe logging** (:mod:`repro.obs.logs`) — ``get_logger`` with a
  redactor that refuses secret material (the SML002/SML006 heuristics).

Plus the offline layer: :mod:`repro.obs.analysis` turns a recorded
``trace.jsonl`` into flamegraphs, self-time tables, critical paths, and
path-aligned trace diffs (``repro obs flame|top|critical-path|diff``).

Everything is off by default and each instrumented call site is a no-op
guard (same discipline as :func:`count_op`).  Turn the whole subsystem on
with :func:`enable` (or ``SMATCH_OBS=1`` / the CLI ``--obs`` flag); the
outermost :func:`pipeline_span` then starts a root trace and saves the
run's artifacts on exit.

The op-counting layer (:mod:`repro.obs.instrument`) sits underneath all
three: spans attribute its per-phase counter deltas.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.obs.analysis import (
    build_forest,
    critical_path,
    diff_traces,
    flamegraph_html,
    folded_stacks,
    top_table,
)
from repro.obs.instrument import (
    OpCounter,
    Stopwatch,
    count_op,
    counting,
    current_counter,
)
from repro.obs.logs import (
    KeyValueFormatter,
    Redactor,
    SmatchLogger,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    BYTE_BUCKETS,
    DURATION_US_BUCKETS,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    metric_inc,
    metric_observe,
    metric_set,
)
from repro.obs.report import export_dir, render_report, save_run
from repro.obs.trace import (
    Span,
    Tracer,
    current_span,
    current_tracer,
    record_bytes,
    span,
    tracing,
)

__all__ = [
    # instrument
    "OpCounter",
    "Stopwatch",
    "count_op",
    "counting",
    "current_counter",
    # trace
    "Span",
    "Tracer",
    "span",
    "tracing",
    "current_span",
    "current_tracer",
    "record_bytes",
    # metrics
    "MetricsRegistry",
    "BYTE_BUCKETS",
    "DURATION_US_BUCKETS",
    "enable_metrics",
    "disable_metrics",
    "active_metrics",
    "metric_inc",
    "metric_set",
    "metric_observe",
    # logging
    "Redactor",
    "SmatchLogger",
    "KeyValueFormatter",
    "get_logger",
    "configure_logging",
    # analysis
    "build_forest",
    "folded_stacks",
    "flamegraph_html",
    "top_table",
    "critical_path",
    "diff_traces",
    # lifecycle
    "enable",
    "disable",
    "enabled",
    "pipeline_span",
    "export_dir",
    "render_report",
    "save_run",
]

_enabled = False
_export_dir: Optional[Path] = None


def enabled() -> bool:
    """True when telemetry has been switched on (API or ``SMATCH_OBS=1``)."""
    return _enabled or os.environ.get("SMATCH_OBS", "") not in ("", "0")


def enable(directory: Optional[Union[str, Path]] = None) -> None:
    """Switch telemetry on process-wide.

    Activates the metrics registry immediately; the next top-level
    :func:`pipeline_span` starts a root trace and exports artifacts to
    ``directory`` (default: ``$SMATCH_OBS_DIR`` or ``.smatch-obs/``).
    """
    global _enabled, _export_dir
    _enabled = True
    _export_dir = Path(directory) if directory is not None else None
    if active_metrics() is None:
        enable_metrics()


def disable() -> None:
    """Switch telemetry off and deactivate the metrics registry."""
    global _enabled, _export_dir
    _enabled = False
    _export_dir = None
    disable_metrics()


@contextmanager
def pipeline_span(name: str, **attrs: Any) -> Iterator[None]:
    """Root-or-child span for a pipeline run (sim step, experiment, demo).

    * A tracer is already active on this thread → plain child span.
    * Telemetry is enabled but no tracer runs → start a root trace, and on
      exit save ``trace.jsonl`` + metrics snapshots to the export dir.
    * Telemetry is off → no-op (the disabled-path guarantee).
    """
    if current_tracer() is not None:
        with span(name, **attrs):
            yield
        return
    if not enabled():
        yield
        return
    with tracing(name, **attrs) as tracer:
        yield
    save_run(tracer, active_metrics(), _export_dir)
