"""Span analytics over recorded traces: flamegraphs, top tables, diffs.

The paper's whole evaluation (Section VII) is a cost-attribution story —
*where* do the hash ops, modexps, and bytes go as populations scale — and
``trace.jsonl`` records exactly that per span.  This module turns a
recorded trace into the analyst's views:

* **self-time attribution** (:func:`build_forest`) — each span's duration
  minus its children's, i.e. the work done *in* that phase rather than
  under it;
* **folded stacks** (:func:`folded_stacks` / :func:`render_folded`) — the
  Brendan-Gregg ``root;child;leaf <self_us>`` format every flamegraph tool
  reads, plus a dependency-free HTML renderer (:func:`flamegraph_html`);
* **top table** (:func:`top_table`) — per-span-name self time, calls, op
  counts, and byte tallies, ranked by self time;
* **critical path** (:func:`critical_path`) — the widest child at every
  level, the chain a latency optimization must shorten;
* **trace diff** (:func:`diff_traces`) — align two traces by span *path*
  and attribute a regression to the single most-regressed subtree, the
  machine-readable report ``tools/check_perf_trend.py`` prints when a
  speedup floor fails.

Everything here is integer arithmetic (microseconds, counts, bytes); the
only division producing non-integers is string formatting inside the HTML
renderer, and even that is integer permille.

Span durations are truncated to microseconds independently per span, so a
parent's recorded duration can be smaller than the sum of its children's.
:func:`build_forest` reconciles top-down: children are attributed at most
the parent's remaining budget, in order, which makes every self time
non-negative and the folded output re-aggregate to **exactly** the root
duration.  The clamped remainder is reported per node (``clipped_us``) so
the reconciliation is visible, never silent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ParameterError

__all__ = [
    "SpanNode",
    "build_forest",
    "walk_forest",
    "folded_stacks",
    "render_folded",
    "parse_folded",
    "flamegraph_html",
    "top_table",
    "render_top",
    "critical_path",
    "render_critical_path",
    "diff_traces",
    "render_diff",
]

#: Separator used in folded stack paths (the flamegraph.pl convention).
PATH_SEP = ";"

#: Version tag stamped into diff reports so downstream tooling can evolve.
DIFF_SCHEMA = "smatch-trace-diff/1"


@dataclass
class SpanNode:
    """One span of a parsed trace, with attributed and self durations.

    ``total_us`` is the span's *attributed* duration: its recorded duration
    clamped to the parent's remaining budget (see the module docstring on
    truncation reconciliation).  ``self_us`` is ``total_us`` minus the
    children's attributed durations — always >= 0.  ``clipped_us`` is how
    much of the recorded duration the clamp discarded (usually 0, at most
    a few microseconds of truncation error per level).
    """

    record: Dict[str, Any]
    path: Tuple[str, ...]
    children: List["SpanNode"] = field(default_factory=list)
    total_us: int = 0
    self_us: int = 0
    clipped_us: int = 0

    @property
    def name(self) -> str:
        """The span name (last path component)."""
        return self.path[-1]

    @property
    def duration_us(self) -> int:
        """The recorded (pre-reconciliation) duration."""
        return int(self.record.get("duration_us", 0))

    @property
    def ops(self) -> Dict[str, int]:
        """The span's op-count tallies (self + children, as recorded)."""
        return dict(self.record.get("ops", {}))

    @property
    def bytes_io(self) -> Dict[str, int]:
        """The span's byte tallies by direction (self + children)."""
        return dict(self.record.get("bytes", {}))

    def folded_path(self) -> str:
        """The ``root;child;leaf`` folded-stack key for this node."""
        return PATH_SEP.join(self.path)


def _check_record(record: Dict[str, Any]) -> None:
    """Raise :class:`ParameterError` unless ``record`` has a name and an id,
    integer times and tallies that map names to non-negative integers."""
    if "name" not in record or "id" not in record:
        raise ParameterError(
            "span record is missing required fields (need name and id)"
        )
    for field_name in ("start_us", "duration_us"):
        if type(record.get(field_name, 0)) is not int:
            raise ParameterError(
                f"span {record['id']!r}: {field_name} is not an integer"
            )
    for field_name in ("ops", "bytes"):
        tally = record.get(field_name, {})
        if not isinstance(tally, dict) or not all(
            isinstance(name, str) and type(count) is int and count >= 0
            for name, count in tally.items()
        ):
            raise ParameterError(
                f"span {record['id']!r}: {field_name} is not a mapping of "
                "names to non-negative integers"
            )


def build_forest(records: Sequence[Dict[str, Any]]) -> List[SpanNode]:
    """Parse span records (the ``trace.jsonl`` shape) into attributed trees.

    Records whose parent id does not resolve (a worker trace sliced out of
    context, a truncated file) are kept as additional roots rather than
    dropped — analytics must never silently lose spans.  Children keep
    file order, which for our depth-first exporter is start order.
    Iterative throughout: traces thousands of spans deep are fine.  A
    record without a name or id, with a time that is not an integer, or
    with an ``ops`` or ``bytes`` tally that is not a mapping of names to
    non-negative integers raises :class:`ParameterError`.
    """
    nodes: Dict[Any, SpanNode] = {}
    roots: List[SpanNode] = []
    pending_children: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        _check_record(record)
        pending_children.setdefault(record.get("parent"), []).append(record)

    def attach(record: Dict[str, Any], parent: Optional[SpanNode]) -> SpanNode:
        path = (
            parent.path + (str(record["name"]),)
            if parent is not None
            else (str(record["name"]),)
        )
        node = SpanNode(record=record, path=path)
        nodes[record["id"]] = node
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
        return node

    # BFS from resolvable roots (parent None or absent from the id set):
    # process parents before children so paths build incrementally
    ids = {record["id"] for group in pending_children.values() for record in group}
    frontier: List[Tuple[Dict[str, Any], Optional[SpanNode]]] = []
    for parent_id, group in pending_children.items():
        if parent_id is None or parent_id not in ids:
            frontier.extend((record, None) for record in group)
    seen_root_ids = {record["id"] for record, _ in frontier}
    queue = list(reversed(frontier))
    while queue:
        record, parent = queue.pop()
        node = attach(record, parent)
        for child in reversed(pending_children.get(record["id"], [])):
            if child["id"] not in seen_root_ids:
                queue.append((child, node))

    # keep root order stable: file order of the root records
    order = {record["id"]: i for i, record in enumerate(records)}
    roots.sort(key=lambda n: order[n.record["id"]])
    for root in roots:
        _attribute(root)
    return roots


def _attribute(root: SpanNode) -> None:
    """Top-down duration reconciliation (see the module docstring)."""
    root.total_us = max(0, root.duration_us)
    stack = [root]
    while stack:
        node = stack.pop()
        budget = node.total_us
        for child in node.children:
            recorded = max(0, child.duration_us)
            child.total_us = min(recorded, budget)
            child.clipped_us = recorded - child.total_us
            budget -= child.total_us
            stack.append(child)
        node.self_us = budget


def walk_forest(roots: Sequence[SpanNode]) -> Iterator[SpanNode]:
    """Depth-first iteration over every node of the forest (iterative)."""
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# -- folded stacks --------------------------------------------------------------


def folded_stacks(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Folded-stack view: ``root;child;leaf`` path -> summed self time (µs).

    By construction the values sum to exactly the root spans' total
    attributed duration — the invariant the flamegraph renderer (and the
    acceptance test) relies on: no span's work is counted twice and none
    is dropped.
    """
    folded: Dict[str, int] = {}
    for node in walk_forest(build_forest(records)):
        if node.self_us > 0 or not node.children:
            key = node.folded_path()
            folded[key] = folded.get(key, 0) + node.self_us
    return folded


def render_folded(folded: Dict[str, int]) -> str:
    """The folded mapping as ``path count`` lines (flamegraph.pl input)."""
    return (
        "\n".join(f"{path} {count}" for path, count in sorted(folded.items()))
        + "\n"
    )


def parse_folded(text: str) -> Dict[str, int]:
    """Inverse of :func:`render_folded` (round-trip tested)."""
    folded: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        path, sep, raw = line.rpartition(" ")
        if not sep or not path:
            raise ParameterError(f"malformed folded-stack line: {line!r}")
        folded[path] = folded.get(path, 0) + int(raw)
    return folded


# -- flamegraph HTML ------------------------------------------------------------

_FLAME_CSS = """
body { font: 13px/1.4 -apple-system, 'Segoe UI', sans-serif; margin: 16px; }
h1 { font-size: 16px; }
#flame { position: relative; border: 1px solid #ccc; }
.frame { position: absolute; height: 17px; overflow: hidden;
         box-sizing: border-box; border: 1px solid rgba(255,255,255,0.6);
         font-size: 11px; line-height: 15px; padding: 0 3px;
         white-space: nowrap; cursor: default; }
.frame:hover { border-color: #000; z-index: 2; }
#legend { margin-top: 10px; color: #555; font-size: 12px; }
"""


def _frame_color(name: str) -> str:
    """A deterministic warm color per span name (integer arithmetic)."""
    acc = 0
    for ch in name.encode("utf-8"):
        acc = (acc * 131 + ch) & 0xFFFFFFFF
    hue = acc % 55  # warm band: reds through yellows
    light = 62 + (acc // 55) % 14
    return f"hsl({hue},72%,{light}%)"


def _escape(text: str) -> str:
    """Minimal HTML escaping for names/attrs."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def flamegraph_html(
    records: Sequence[Dict[str, Any]], title: str = "S-MATCH trace"
) -> str:
    """A self-contained HTML flamegraph of the trace — no dependencies.

    Frames are absolutely positioned with integer-permille offsets/widths
    of the root duration; hovering shows the full path, attributed total,
    self time, op counts, and byte tallies via the native tooltip.
    """
    roots = build_forest(records)
    total = sum(root.total_us for root in roots)
    scale = max(1, total)
    frames: List[str] = []
    max_depth = 0
    # (node, offset_us, depth); children are laid out left-aligned in the
    # parent's window, and its self time is the uncovered remainder on the
    # right (the flamegraph convention)
    stack: List[Tuple[SpanNode, int, int]] = []
    offset = 0
    for root in roots:
        stack.append((root, offset, 0))
        offset += root.total_us
    while stack:
        node, node_offset, depth = stack.pop()
        max_depth = max(max_depth, depth)
        left_pm = node_offset * 1000 // scale
        width_pm = node.total_us * 1000 // scale
        ops = node.ops
        bytes_io = node.bytes_io
        detail = [
            node.folded_path(),
            f"total {node.total_us}us, self {node.self_us}us",
        ]
        if node.clipped_us:
            detail.append(f"clipped {node.clipped_us}us (truncation)")
        if ops:
            detail.append(
                "ops: " + " ".join(f"{k}={v}" for k, v in sorted(ops.items()))
            )
        if bytes_io:
            detail.append(
                "bytes: "
                + " ".join(f"{k}={v}" for k, v in sorted(bytes_io.items()))
            )
        frames.append(
            '<div class="frame" title="{title}" style="left:{left}.{left_f}%;'
            "width:{width}.{width_f}%;top:{top}px;background:{color}\">{label}</div>".format(
                title=_escape("\n".join(detail)),
                left=left_pm // 10,
                left_f=left_pm % 10,
                width=width_pm // 10,
                width_f=width_pm % 10,
                top=depth * 18,
                color=_frame_color(node.name),
                label=_escape(node.name),
            )
        )
        child_offset = node_offset
        for child in node.children:
            stack.append((child, child_offset, depth + 1))
            child_offset += child.total_us
    height = (max_depth + 1) * 18
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_escape(title)}</title>"
        f"<style>{_FLAME_CSS}</style></head><body>"
        f"<h1>{_escape(title)}</h1>"
        f'<div id="flame" style="height:{height}px">' + "".join(frames) + "</div>"
        f'<div id="legend">{len(frames)} frames, root total {total}us. '
        "Hover a frame for path, self time, op counts, and byte tallies."
        "</div></body></html>\n"
    )


# -- top table ------------------------------------------------------------------


def top_table(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate by span *name*: self time, calls, total, ops, bytes.

    ``total_us`` sums each span's attributed duration, so re-entrant names
    (a phase that appears inside itself) count their nesting once per
    occurrence; ``self_us`` never double-counts and is the ranking key.
    """
    by_name: Dict[str, Dict[str, Any]] = {}
    for node in walk_forest(build_forest(records)):
        row = by_name.get(node.name)
        if row is None:
            row = by_name[node.name] = {
                "name": node.name,
                "calls": 0,
                "self_us": 0,
                "total_us": 0,
                "ops": Counter(),
                "bytes": Counter(),
            }
        row["calls"] += 1
        row["self_us"] += node.self_us
        row["total_us"] += node.total_us
        # ops/bytes as recorded include children; to avoid double-counting
        # in an aggregate keyed by name, attribute each tally to the span
        # only net of its children (mirror of self-time attribution)
        child_ops: Counter = Counter()
        child_bytes: Counter = Counter()
        for child in node.children:
            child_ops.update(child.ops)
            child_bytes.update(child.bytes_io)
        for op, count in node.ops.items():
            row["ops"][op] += max(0, count - child_ops.get(op, 0))
        for direction, count in node.bytes_io.items():
            row["bytes"][direction] += max(
                0, count - child_bytes.get(direction, 0)
            )
    rows = sorted(
        by_name.values(), key=lambda r: (-r["self_us"], r["name"])
    )
    for row in rows:
        row["ops"] = dict(row["ops"])
        row["bytes"] = dict(row["bytes"])
    return rows


def render_top(
    rows: Sequence[Dict[str, Any]], limit: Optional[int] = None
) -> str:
    """The top table as aligned text, ranked by self time."""
    shown = list(rows[:limit] if limit is not None else rows)
    if not shown:
        return "(no spans)"
    name_w = max(4, max(len(r["name"]) for r in shown))
    lines = [
        f"{'span'.ljust(name_w)}  {'self_us':>10}  {'total_us':>10}  "
        f"{'calls':>6}  ops / bytes"
    ]
    for row in shown:
        extras = []
        if row["ops"]:
            extras.append(
                " ".join(f"{k}={v}" for k, v in sorted(row["ops"].items()))
            )
        if row["bytes"]:
            extras.append(
                " ".join(
                    f"{k}={v}B" for k, v in sorted(row["bytes"].items())
                )
            )
        lines.append(
            f"{row['name'].ljust(name_w)}  {row['self_us']:>10}  "
            f"{row['total_us']:>10}  {row['calls']:>6}  "
            + ("; ".join(extras) if extras else "-")
        )
    return "\n".join(lines)


# -- critical path --------------------------------------------------------------


def critical_path(records: Sequence[Dict[str, Any]]) -> List[SpanNode]:
    """The widest-child chain from the heaviest root down to a leaf.

    At every level descend into the child with the largest attributed
    duration (ties break to the earlier child).  This is the chain whose
    spans bound the run's wall clock: shortening anything off this path
    cannot shorten the run by more than the path's slack.
    """
    roots = build_forest(records)
    if not roots:
        return []
    node = max(roots, key=lambda r: r.total_us)
    chain = [node]
    while node.children:
        node = max(node.children, key=lambda c: c.total_us)
        chain.append(node)
    return chain


def render_critical_path(chain: Sequence[SpanNode]) -> str:
    """The critical path as text: per-hop totals, self times, op counts."""
    if not chain:
        return "(empty trace)"
    root_total = max(1, chain[0].total_us)
    lines = []
    for depth, node in enumerate(chain):
        share_pm = node.total_us * 1000 // root_total
        ops = node.ops
        ops_part = (
            "  [" + " ".join(f"{k}={v}" for k, v in sorted(ops.items())) + "]"
            if ops
            else ""
        )
        lines.append(
            f"{'  ' * depth}{node.name}  total={node.total_us}us "
            f"self={node.self_us}us ({share_pm // 10}.{share_pm % 10}% of root)"
            f"{ops_part}"
        )
    return "\n".join(lines)


# -- trace diff -----------------------------------------------------------------


def _path_stats(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Aggregate per folded path: calls, attributed total/self, ops, bytes."""
    stats: Dict[str, Dict[str, Any]] = {}
    for node in walk_forest(build_forest(records)):
        key = node.folded_path()
        row = stats.get(key)
        if row is None:
            row = stats[key] = {
                "calls": 0,
                "total_us": 0,
                "self_us": 0,
                "ops": Counter(),
                "bytes": Counter(),
            }
        row["calls"] += 1
        row["total_us"] += node.total_us
        row["self_us"] += node.self_us
        row["ops"].update(node.ops)
        row["bytes"].update(node.bytes_io)
    return stats


def _delta_map(base: Counter, current: Counter) -> Dict[str, int]:
    """Per-key integer deltas between two tallies (zero deltas dropped)."""
    deltas = {}
    for key in set(base) | set(current):
        delta = current.get(key, 0) - base.get(key, 0)
        if delta:
            deltas[key] = delta
    return dict(sorted(deltas.items()))


def diff_traces(
    base_records: Sequence[Dict[str, Any]],
    current_records: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Align two traces by span path and attribute their cost difference.

    Returns the machine-readable report (all integers): per-path duration,
    self-time, call-count, op-count, and byte deltas, sorted by self-time
    regression, plus ``top_regression`` — the single subtree whose *self*
    time grew the most.  Self time is the attribution signal on purpose: a
    slowdown inside one phase inflates every ancestor's total, but only
    the culpable phase's self time, so the report names the subtree where
    the regression actually lives.
    """
    base_stats = _path_stats(base_records)
    current_stats = _path_stats(current_records)
    empty: Dict[str, Any] = {
        "calls": 0,
        "total_us": 0,
        "self_us": 0,
        "ops": Counter(),
        "bytes": Counter(),
    }
    paths = []
    for path in sorted(set(base_stats) | set(current_stats)):
        b = base_stats.get(path, empty)
        c = current_stats.get(path, empty)
        paths.append(
            {
                "path": path,
                "base": {
                    "calls": b["calls"],
                    "total_us": b["total_us"],
                    "self_us": b["self_us"],
                },
                "current": {
                    "calls": c["calls"],
                    "total_us": c["total_us"],
                    "self_us": c["self_us"],
                },
                "delta_total_us": c["total_us"] - b["total_us"],
                "delta_self_us": c["self_us"] - b["self_us"],
                "delta_calls": c["calls"] - b["calls"],
                "delta_ops": _delta_map(b["ops"], c["ops"]),
                "delta_bytes": _delta_map(b["bytes"], c["bytes"]),
            }
        )
    paths.sort(key=lambda row: (-row["delta_self_us"], row["path"]))
    top = None
    if paths and paths[0]["delta_self_us"] > 0:
        top = {
            "path": paths[0]["path"],
            "delta_self_us": paths[0]["delta_self_us"],
            "delta_total_us": paths[0]["delta_total_us"],
            "delta_calls": paths[0]["delta_calls"],
        }
    base_root = sum(
        row["base"]["total_us"]
        for row in paths
        if PATH_SEP not in row["path"]
    )
    current_root = sum(
        row["current"]["total_us"]
        for row in paths
        if PATH_SEP not in row["path"]
    )
    return {
        "schema": DIFF_SCHEMA,
        "baseline": {"spans": len(base_records), "root_us": base_root},
        "current": {"spans": len(current_records), "root_us": current_root},
        "delta_root_us": current_root - base_root,
        "top_regression": top,
        "paths": paths,
    }


def render_diff(report: Dict[str, Any], limit: int = 10) -> str:
    """The diff report as readable text (top regressions first)."""
    lines = [
        f"trace diff: root {report['baseline']['root_us']}us -> "
        f"{report['current']['root_us']}us "
        f"({report['delta_root_us']:+}us)"
    ]
    top = report.get("top_regression")
    if top:
        lines.append(
            f"top regression: {top['path']} "
            f"self {top['delta_self_us']:+}us "
            f"(total {top['delta_total_us']:+}us, "
            f"calls {top['delta_calls']:+})"
        )
    else:
        lines.append("top regression: none (no subtree self time grew)")
    shown = [
        row
        for row in report["paths"]
        if row["delta_self_us"] or row["delta_total_us"] or row["delta_calls"]
    ][:limit]
    if shown:
        path_w = max(4, max(len(row["path"]) for row in shown))
        lines.append(
            f"{'path'.ljust(path_w)}  {'self_us':>10}  {'total_us':>10}  "
            f"{'calls':>6}"
        )
        for row in shown:
            lines.append(
                f"{row['path'].ljust(path_w)}  "
                f"{row['delta_self_us']:>+10}  "
                f"{row['delta_total_us']:>+10}  "
                f"{row['delta_calls']:>+6}"
            )
    return "\n".join(lines)
