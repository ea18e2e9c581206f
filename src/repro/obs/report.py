"""Run artifacts: persist a finished trace + metrics snapshot, render reports.

A telemetry-enabled run (``repro simulate --obs``, an instrumented
experiment, the CI smoke round) leaves three files in the export directory
(``--obs-dir`` / ``$SMATCH_OBS_DIR``, default ``.smatch-obs/``):

* ``trace.jsonl``  — one span per line (see :meth:`Tracer.to_jsonl`),
* ``metrics.json`` — the registry snapshot,
* ``metrics.prom`` — the same snapshot in Prometheus text format.

``repro obs report`` re-reads those files and pretty-prints the span tree
and a metrics table, giving every perf PR a before/after artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ParameterError
from repro.obs.analysis import SpanNode, build_forest
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "DEFAULT_EXPORT_DIR",
    "export_dir",
    "save_run",
    "load_trace_records",
    "read_trace_file",
    "render_trace_report",
    "render_metrics_report",
    "render_report",
]

DEFAULT_EXPORT_DIR = ".smatch-obs"

TRACE_FILE = "trace.jsonl"
METRICS_JSON_FILE = "metrics.json"
METRICS_PROM_FILE = "metrics.prom"


def export_dir(override: Optional[Union[str, Path]] = None) -> Path:
    """The artifact directory: explicit override > $SMATCH_OBS_DIR > default."""
    if override is not None:
        return Path(override)
    return Path(os.environ.get("SMATCH_OBS_DIR", DEFAULT_EXPORT_DIR))


def save_run(
    tracer: Optional[Tracer],
    registry: Optional[MetricsRegistry],
    directory: Optional[Union[str, Path]] = None,
) -> Path:
    """Write the run's artifacts; returns the directory used."""
    target = export_dir(directory)
    target.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        (target / TRACE_FILE).write_text(tracer.to_jsonl(), encoding="utf-8")
    if registry is not None:
        (target / METRICS_JSON_FILE).write_text(
            registry.render_json() + "\n", encoding="utf-8"
        )
        (target / METRICS_PROM_FILE).write_text(
            registry.render_prometheus(), encoding="utf-8"
        )
    return target


def read_trace_file(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse one ``trace.jsonl`` file into span records.

    Raises :class:`ParameterError` when the file is missing, or when a line
    is not a JSON object (say, a last line cut short by a crash); the error
    names the file and the line number.
    """
    trace = Path(path)
    if not trace.exists():
        raise ParameterError(f"no trace found at {trace}")
    records: List[Dict[str, Any]] = []
    lines = trace.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParameterError(
                f"{trace}: line {number} is not valid JSON ({exc.msg})"
            ) from exc
        if not isinstance(record, dict):
            raise ParameterError(f"{trace}: line {number} is not a JSON object")
        records.append(record)
    return records


def load_trace_records(directory: Optional[Union[str, Path]] = None) -> List[Dict[str, Any]]:
    """Parse the artifact directory's ``trace.jsonl`` into span records."""
    return read_trace_file(export_dir(directory) / TRACE_FILE)


def _format_span_line(record: Dict[str, Any]) -> str:
    """One rendered line: name, attrs, duration, op counts, byte tallies."""
    parts = [record["name"]]
    attrs = record.get("attrs") or {}
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    us = record.get("duration_us", 0)
    parts.append(f"({us // 1000}.{(us % 1000) // 100}ms)" if us >= 1000 else f"({us}us)")
    ops = record.get("ops", {})
    if ops:
        parts.append("[" + " ".join(f"{k}={v}" for k, v in sorted(ops.items())) + "]")
    byte_counts = record.get("bytes", {})
    if byte_counts:
        parts.append(
            "{" + " ".join(f"{k}={v}B" for k, v in sorted(byte_counts.items())) + "}"
        )
    return " ".join(parts)


def render_trace_report(records: List[Dict[str, Any]]) -> str:
    """Rebuild the span tree from JSONL records and render it as text.

    The tree is :func:`~repro.obs.analysis.build_forest`'s: a record whose
    parent id does not resolve (a truncated file, a worker trace sliced out
    of context) renders as an extra root — a report must never silently
    drop spans — and a malformed record (no name or id, a time that is not
    an integer, a tally that is not a mapping of names to non-negative
    integers) raises :class:`ParameterError`.  Iterative (explicit work
    stack), so a many-thousand-span trace renders without touching the
    recursion limit.
    """
    roots = build_forest(records)
    if not roots:
        return "(empty trace)"
    lines: List[str] = []
    # (node, its line's lead-in, its children's prefix); children are
    # pushed in reverse so the stack pops them in display order
    work: List[Tuple[SpanNode, str, str]] = [
        (root, "", "") for root in reversed(roots)
    ]
    while work:
        node, lead, prefix = work.pop()
        lines.append(lead + _format_span_line(node.record))
        last = len(node.children) - 1
        for i in range(last, -1, -1):
            work.append(
                (
                    node.children[i],
                    prefix + ("`- " if i == last else "|- "),
                    prefix + ("   " if i == last else "|  "),
                )
            )
    return "\n".join(lines)


def render_metrics_report(snapshot: Dict[str, Any]) -> str:
    """A readable table of the metrics snapshot (counters/gauges/histograms)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]}")
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name.ljust(width)}  {gauges[name]}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            count = h.get("count", 0)
            total = h.get("sum", 0)
            mean = total // count if count else 0
            lines.append(f"  {name}  count={count} sum={total} mean={mean}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_report(directory: Optional[Union[str, Path]] = None) -> str:
    """The full ``repro obs report`` output for the last run."""
    target = export_dir(directory)
    sections = [f"== telemetry report ({target}) =="]
    trace_path = target / TRACE_FILE
    if trace_path.exists():
        sections.append("-- trace --")
        sections.append(render_trace_report(read_trace_file(trace_path)))
    else:
        sections.append("-- trace -- (none recorded)")
    metrics_path = target / METRICS_JSON_FILE
    if metrics_path.exists():
        sections.append("-- metrics --")
        sections.append(
            render_metrics_report(json.loads(metrics_path.read_text(encoding="utf-8")))
        )
    else:
        sections.append("-- metrics -- (none recorded)")
    return "\n".join(sections)
