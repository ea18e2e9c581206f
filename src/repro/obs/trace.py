"""Structured tracing: nested spans over the S-MATCH pipeline.

A *span* covers one phase of a protocol run — entropy increase, fuzzy
keygen, OPE encryption, the server-side match, verification — and records

* monotonic start offset and duration (integer nanoseconds; the paper's
  cost story is durations and byte counts, never floats),
* the :class:`~repro.obs.instrument.OpCounter` delta between entry and
  exit (hash ops, modexps, OPE levels ... the Section VII-C quantities),
* message-byte tallies contributed by the ``net`` layer via
  :func:`record_bytes`.

Tracing follows the same activation discipline as ``count_op``: *nothing*
is recorded unless a :class:`Tracer` is active on the current thread, and
an inactive :func:`span` call returns a shared no-op object, so the
instrumented hot paths pay one attribute lookup when telemetry is off.

A finished trace exports as JSONL (one span per line, parent links by id)
and as a rendered text tree (``repro obs report``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ParameterError
from repro.obs.instrument import counting

__all__ = [
    "Span",
    "Tracer",
    "span",
    "tracing",
    "clear_inherited_tracer",
    "current_tracer",
    "current_span",
    "record_bytes",
    "render_tree",
]

class _TracerLocal(threading.local):
    """Per-thread tracer slot; the class-level ``None`` is every thread's
    default, so a plain attribute read never takes the miss path."""

    tracer: Optional[Tracer] = None


_local = _TracerLocal()


class _NoopSpan:
    """Shared do-nothing span returned while tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attr(self, name: str, value: Any) -> None:
        """Ignore an attribute (tracing is off)."""

    def add_bytes(self, direction: str, amount: int) -> None:
        """Ignore a byte tally (tracing is off)."""


_NOOP = _NoopSpan()


class Span:
    """One timed, op-counted phase of a traced run.

    Spans nest: entering a span pushes it on the thread's stack and
    activates a fresh op counter; exiting folds both its counts and its
    byte tallies into the parent, so every span reports the *total* work
    performed while it was open (itself plus its children).
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "start_ns",
        "duration_ns",
        "ops",
        "bytes_io",
        "children",
        "_counting_cm",
        "_counter",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.start_ns = 0
        self.duration_ns = 0
        self.ops: Dict[str, int] = {}
        self.bytes_io: Counter = Counter()
        self.children: List["Span"] = []
        self._tracer = tracer
        self._counting_cm: Optional[Any] = None
        self._counter = None

    def set_attr(self, name: str, value: Any) -> None:
        """Attach (or update) a span attribute after entry."""
        self.attrs[name] = value

    def add_bytes(self, direction: str, amount: int) -> None:
        """Tally ``amount`` message bytes under ``direction`` (sent/received)."""
        self.bytes_io[direction] += amount

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        self._counting_cm = counting()
        self._counter = self._counting_cm.__enter__()
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        self.ops = self._counter.as_dict()
        self._counting_cm.__exit__(None, None, None)
        stack = self._tracer._stack
        stack.pop()
        if stack:
            stack[-1].bytes_io.update(self.bytes_io)
        return False

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants.

        Iterative (explicit stack): traces from long chained pipelines can
        nest thousands of spans deep, well past the interpreter recursion
        limit a generator-per-level walk would hit.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class Tracer:
    """Owns one trace: a root span and the thread-local span stack."""

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        # reentrant: splice() holds it while constructing Spans, and each
        # Span.__init__ re-enters through _next_id for its id; the lock
        # must exist before the root Span below draws the first id
        self._lock = threading.RLock()
        self._ids = 0
        self._stack: List[Span] = []
        self.root = Span(self, name, dict(attrs or {}))

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    # -- queries ---------------------------------------------------------------

    def spans(self) -> List[Span]:
        """All spans, depth-first from the root."""
        return list(self.root.walk())

    def span_names(self) -> List[str]:
        """The names of all spans, depth-first (test/assert convenience)."""
        return [s.name for s in self.root.walk()]

    def find(self, name: str) -> List[Span]:
        """Every span with the given name."""
        return [s for s in self.root.walk() if s.name == name]

    # -- exports ---------------------------------------------------------------

    def span_records(self) -> List[Dict[str, Any]]:
        """Every span as a plain JSON-friendly record, depth-first.

        The list form of :meth:`to_jsonl` — also the wire shape worker
        telemetry ships across the process boundary (:meth:`splice` is the
        inverse).  Times are integer microseconds; ``start_us`` is relative
        to the root span's start, so traces are comparable across runs.
        """
        records: List[Dict[str, Any]] = []
        origin = self.root.start_ns
        parents: Dict[int, Optional[int]] = {self.root.span_id: None}
        for s in self.root.walk():
            for child in s.children:
                parents[child.span_id] = s.span_id
            records.append(
                {
                    "id": s.span_id,
                    "parent": parents[s.span_id],
                    "name": s.name,
                    "attrs": s.attrs,
                    "start_us": (s.start_ns - origin) // 1000,
                    "duration_us": s.duration_ns // 1000,
                    "ops": s.ops,
                    "bytes": dict(s.bytes_io),
                }
            )
        return records

    def to_jsonl(self) -> str:
        """One JSON object per span, depth-first, linked by parent id."""
        return (
            "\n".join(
                json.dumps(record, sort_keys=True)
                for record in self.span_records()
            )
            + "\n"
        )

    def splice(
        self,
        records: List[Dict[str, Any]],
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> List[Span]:
        """Graft foreign span records (a worker's trace) into this trace.

        ``records`` is a depth-first list in the :meth:`span_records` shape,
        produced by a worker-local tracer in a pool thread or process.  Each
        record becomes a synthetic :class:`Span` with a fresh id in this
        tracer's id space; records whose parent is absent from the batch
        (the worker's root) attach under ``parent`` (default: the innermost
        open span) with ``attrs`` merged in — the backend tags them with the
        worker identity there.

        Worker clocks are not comparable across processes, so spliced spans
        are **rebased**: a grafted root starts at the parent span's start
        plus its worker-relative ``start_us``.  The grafted roots' op counts
        and byte tallies are folded into the open parent (workers fold
        child work into their root on exit, so folding only the roots never
        double-counts), keeping the self-plus-children reporting invariant
        truthful across the fan-out boundary.

        Returns the grafted root spans.
        """
        with self._lock:
            return self._splice_locked(records, parent, attrs)

    def _splice_locked(
        self,
        records: List[Dict[str, Any]],
        parent: Optional[Span],
        attrs: Optional[Dict[str, Any]],
    ) -> List[Span]:
        """:meth:`splice` body; the tracer lock is held by the caller.

        Pool threads splice their workers' telemetry concurrently into one
        coordinator trace — without the lock, two splices appending to the
        same parent interleave children and lose op-count folds.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else self.root
        grafted: List[Span] = []
        id_map: Dict[Any, Span] = {}
        for record in records:
            s = Span(self, str(record["name"]), dict(record.get("attrs") or {}))
            s.duration_ns = int(record.get("duration_us", 0)) * 1000
            s.ops = {
                str(op): int(n) for op, n in (record.get("ops") or {}).items()
            }
            s.bytes_io = Counter(
                {
                    str(d): int(n)
                    for d, n in (record.get("bytes") or {}).items()
                }
            )
            s.start_ns = parent.start_ns + int(record.get("start_us", 0)) * 1000
            local_parent = id_map.get(record.get("parent"))
            if local_parent is None:
                if attrs:
                    s.attrs.update(attrs)
                parent.children.append(s)
                grafted.append(s)
                parent.bytes_io.update(s.bytes_io)
                if parent._counter is not None:
                    for op, n in s.ops.items():
                        parent._counter.add(op, n)
                else:  # splicing after the parent closed: fold directly
                    for op, n in s.ops.items():
                        parent.ops[op] = parent.ops.get(op, 0) + n
            else:
                local_parent.children.append(s)
            id_map[record.get("id")] = s
        return grafted

    def render(self) -> str:
        """The trace as an indented text tree."""
        return render_tree(
            [
                {
                    "id": s.span_id,
                    "parent": None,  # structure comes from children below
                    "name": s.name,
                    "attrs": s.attrs,
                    "duration_us": s.duration_ns // 1000,
                    "ops": s.ops,
                    "bytes": dict(s.bytes_io),
                }
                for s in [self.root]
            ],
            _children_of(self.root),
        )


def _children_of(root: Span) -> Dict[int, List[Dict[str, Any]]]:
    """Child-record map for :func:`render_tree`, built from live spans."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for s in root.walk():
        children[s.span_id] = [
            {
                "id": c.span_id,
                "name": c.name,
                "attrs": c.attrs,
                "duration_us": c.duration_ns // 1000,
                "ops": c.ops,
                "bytes": dict(c.bytes_io),
            }
            for c in s.children
        ]
    return children


def _format_span_line(record: Dict[str, Any]) -> str:
    """One rendered line: name, attrs, duration, op counts, byte tallies."""
    parts = [record["name"]]
    attrs = record.get("attrs") or {}
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    us = record.get("duration_us", 0)
    parts.append(f"({us // 1000}.{(us % 1000) // 100}ms)" if us >= 1000 else f"({us}us)")
    ops = record.get("ops") or {}
    if ops:
        parts.append("[" + " ".join(f"{k}={v}" for k, v in sorted(ops.items())) + "]")
    byte_counts = record.get("bytes") or {}
    if byte_counts:
        parts.append(
            "{" + " ".join(f"{k}={v}B" for k, v in sorted(byte_counts.items())) + "}"
        )
    return " ".join(parts)


def render_tree(
    roots: List[Dict[str, Any]], children: Dict[int, List[Dict[str, Any]]]
) -> str:
    """Render span records (live or re-parsed from JSONL) as a text tree.

    Iterative (explicit work stack), so a many-thousand-span trace — deep
    *or* wide — renders in O(n) without touching the recursion limit.
    """
    lines: List[str] = []
    # (record, child prefix, is_last, is_root); children are pushed in
    # reverse so the stack pops them in display order
    work: List[Tuple[Dict[str, Any], str, bool, bool]] = [
        (root, "", True, True) for root in reversed(roots)
    ]
    while work:
        record, prefix, is_last, is_root = work.pop()
        if is_root:
            lines.append(_format_span_line(record))
            child_prefix = ""
        else:
            connector = "`- " if is_last else "|- "
            lines.append(prefix + connector + _format_span_line(record))
            child_prefix = prefix + ("   " if is_last else "|  ")
        kids = children.get(record["id"], [])
        for i in range(len(kids) - 1, -1, -1):
            work.append((kids[i], child_prefix, i == len(kids) - 1, False))
    return "\n".join(lines)


# -- thread-local activation ---------------------------------------------------


def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or ``None``."""
    return _local.tracer


def clear_inherited_tracer() -> None:
    """Drop a tracer this thread inherited across a process ``fork``.

    A worker process forked while the submitting thread was inside
    :func:`tracing` carries a copy of the parent's thread-local tracer —
    an orphan whose spans can never reach the parent.  Worker bootstrap
    (``repro.parallel.backend._run_chunk_traced``) clears it before opening
    the worker-local trace; anywhere else this is a no-op.
    """
    _local.tracer = None


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or ``None``."""
    tracer = _local.tracer
    if tracer is None or not tracer._stack:
        return None
    return tracer._stack[-1]


def span(name: str, **attrs: Any) -> Union["Span", "_NoopSpan"]:
    """A child span of the current trace, or a shared no-op when inactive.

    The inactive path is a single attribute lookup plus one function call —
    the same guarantee ``count_op`` gives — so instrumenting a hot path
    costs nothing measurable with telemetry off.
    """
    tracer = _local.tracer
    if tracer is None:
        return _NOOP
    return Span(tracer, name, attrs)


def record_bytes(direction: str, amount: int) -> None:
    """Tally message bytes on the innermost open span (no-op when inactive)."""
    tracer = _local.tracer
    if tracer is not None and tracer._stack:
        tracer._stack[-1].bytes_io[direction] += amount


@contextmanager
def tracing(name: str = "run", **attrs: Any) -> Iterator[Tracer]:
    """Activate a fresh :class:`Tracer` with ``name`` as the root span.

    Traces do not nest on one thread — a nested pipeline stage should open
    a child :func:`span` instead (which :func:`repro.obs.pipeline_span`
    does automatically).
    """
    if _local.tracer is not None:
        raise ParameterError(
            "a tracer is already active on this thread; open a span instead"
        )
    tracer = Tracer(name, attrs)
    _local.tracer = tracer
    try:
        with tracer.root:
            yield tracer
    finally:
        _local.tracer = None
