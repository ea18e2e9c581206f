"""Structured tracing: nested spans over the S-MATCH pipeline.

A *span* covers one phase of a protocol run — entropy increase, fuzzy
keygen, OPE encryption, the server-side match, verification — and records

* monotonic start offset and duration (integer nanoseconds; the paper's
  cost story is durations and byte counts, never floats),
* the operations counted while it was open (hash ops, modexps, OPE
  levels ... the Section VII-C quantities): the innermost open span is its
  thread's op counter, so ``count_op`` writes straight into it,
* message-byte tallies contributed by the ``net`` layer via
  :func:`record_bytes`.

Tracing follows the same activation discipline as ``count_op``: *nothing*
is recorded unless a :class:`Tracer` is active on the current thread, and
an inactive :func:`span` call returns a shared no-op object, so an
instrumented hot path pays a call and an empty ``with`` when telemetry is
off (measured in :func:`span`'s docstring).

A finished trace exports as JSONL (one span per line, parent links by id),
which ``repro obs report`` renders as a text tree.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.errors import ParameterError
from repro.obs.instrument import OpSink, _local as _counters

__all__ = [
    "Span",
    "Tracer",
    "span",
    "tracing",
    "clear_inherited_tracer",
    "current_tracer",
    "current_span",
    "record_bytes",
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

    Spans nest: entering a span pushes it on the thread's stack and makes
    it the thread's op counter; exiting restores the counter it displaced
    and folds its counts into that counter, and its byte tallies into the
    parent span, so every span reports the *total* work performed while it
    was open (itself plus its children).
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
        "_outer",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.start_ns = 0
        self.duration_ns = 0
        self.ops: Dict[str, int] = {}
        self.bytes_io: Dict[str, int] = {}
        self.children: List["Span"] = []
        self._tracer = tracer
        # the op counter this span displaced while open
        self._outer: Optional[OpSink] = None

    def set_attr(self, name: str, value: Any) -> None:
        """Attach (or update) a span attribute after entry."""
        self.attrs[name] = value

    def add(self, name: str, amount: int = 1) -> None:
        """Record ``amount`` occurrences of operation ``name``."""
        ops = self.ops
        ops[name] = ops.get(name, 0) + amount

    def add_bytes(self, direction: str, amount: int) -> None:
        """Tally ``amount`` message bytes under ``direction`` (sent/received)."""
        bytes_io = self.bytes_io
        bytes_io[direction] = bytes_io.get(direction, 0) + amount

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        self._outer = _counters.counter
        _counters.counter = self
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        outer = self._outer
        _counters.counter = outer
        if outer is not None:
            for name, amount in self.ops.items():
                outer.add(name, amount)
        stack = self._tracer._stack
        stack.pop()
        if stack:
            parent = stack[-1]
            for direction, amount in self.bytes_io.items():
                parent.add_bytes(direction, amount)
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
        # next() on an itertools.count is one C call, so threads drawing
        # ids at once never get the same one
        self._ids = itertools.count(1)
        # held by splice only; see there
        self._lock = threading.Lock()
        self._stack: List[Span] = []
        self.root = Span(self, name, dict(attrs or {}))

    def _next_id(self) -> int:
        return next(self._ids)

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
        produced by a worker-local tracer in a worker process.  Each
        record becomes a synthetic :class:`Span` with a fresh id in this
        tracer's id space; records whose parent is absent from the batch
        (the worker's root) attach under ``parent`` (default: the innermost
        open span) with ``attrs`` merged in — the backend tags them with the
        worker identity there.

        Worker clocks are not comparable across processes, so spliced spans
        are **rebased**: a grafted root starts at the parent span's start
        plus its worker-relative ``start_us``.  The grafted roots' op counts
        and byte tallies are folded into the parent (workers fold child
        work into their root on exit, so folding only the roots never
        double-counts), and the parent's own exit folds them on up, keeping
        the self-plus-children reporting invariant truthful across the
        fan-out boundary.  So the parent must still be open (or not yet
        entered): a span that has closed already folded its counts into its
        ancestors, and splicing under it raises :class:`ParameterError`.

        Two threads may splice into one trace at once; the tracer lock
        keeps their splices from interleaving children under one parent
        and losing folds.

        Returns the grafted root spans.
        """
        with self._lock:
            if parent is None:
                parent = self._stack[-1] if self._stack else self.root
            # a span that has started and left the stack has closed
            if parent.start_ns and parent not in self._stack:
                raise ParameterError(
                    f"cannot splice under closed span {parent.name!r}"
                )
            grafted: List[Span] = []
            id_map: Dict[Any, Span] = {}
            for record in records:
                s = Span(self, str(record["name"]), dict(record.get("attrs") or {}))
                s.duration_ns = int(record.get("duration_us", 0)) * 1000
                s.ops = {
                    str(op): int(n) for op, n in (record.get("ops") or {}).items()
                }
                s.bytes_io = {
                    str(d): int(n) for d, n in (record.get("bytes") or {}).items()
                }
                s.start_ns = parent.start_ns + int(record.get("start_us", 0)) * 1000
                local_parent = id_map.get(record.get("parent"))
                if local_parent is None:
                    if attrs:
                        s.attrs.update(attrs)
                    parent.children.append(s)
                    grafted.append(s)
                    for op, n in s.ops.items():
                        parent.add(op, n)
                    for direction, n in s.bytes_io.items():
                        parent.add_bytes(direction, n)
                else:
                    local_parent.children.append(s)
                id_map[record.get("id")] = s
            return grafted


# -- thread-local activation ---------------------------------------------------


def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or ``None``."""
    return _local.tracer


def clear_inherited_tracer() -> None:
    """Drop a tracer this thread inherited across a process ``fork``.

    A worker process forked while the submitting thread was inside
    :func:`tracing` carries a copy of the parent's thread-local tracer —
    an orphan whose spans can never reach the parent.  The worker-side
    capture (``repro.parallel.backend.capture_chunk``) clears it before
    opening the worker-local trace; anywhere else this is a no-op.
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

    The inactive path is one thread-local read and a shared no-op, but it
    is not free: untraced, ``with span("x", user=5): pass`` took 0.5-0.9 µs
    (``timeit``, min of 7, GC off, 2-core Xeon), about 0.2 µs of it the
    call with its kwargs dict and the rest the no-op ``__enter__`` and
    ``__exit__``.  That is noise beside a modexp or an OPE level, but not
    beside a step of a few µs.
    """
    tracer = _local.tracer
    if tracer is None:
        return _NOOP
    return Span(tracer, name, attrs)


def record_bytes(direction: str, amount: int) -> None:
    """Tally message bytes on the innermost open span (no-op when inactive)."""
    tracer = _local.tracer
    if tracer is not None and tracer._stack:
        tracer._stack[-1].add_bytes(direction, amount)


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
