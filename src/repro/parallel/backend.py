"""Pluggable execution backends for CPU-bound bulk work.

Operator enrollment (:meth:`repro.core.scheme.SMatch.enroll_population`) is
OPRF/modexp-bound pure-Python compute, so the GIL serializes the
arithmetic of any thread pool.  A :class:`ProcessBackend` breaks out of
the interpreter entirely, at the cost of a pickling boundary.  Both
backends implement one protocol, and the caller passes the one it wants
with each call:

* :class:`SerialBackend` — run chunks inline, in order (the reference
  semantics the process backend must reproduce);
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` with a per-worker
  **warm-start initializer**: the task envelope's context (RSA key
  material, scheme parameters, OPE params) is shipped to each worker once
  at pool construction and cached in the worker process, not re-pickled
  per task.  Chunk results come back through the future-result pickle.

Work arrives as a :class:`TaskEnvelope` — a module-level function plus a
picklable context — applied to deterministic, contiguous chunks of an item
list (:func:`partition_chunks`).  Results always come back in submission
order regardless of completion order, which is what lets seeded enrollment
stay byte-identical across backends (docs/PERFORMANCE.md).

Submission is **bounded**: at most ``2 × workers`` chunks are enqueued on
the pool at any moment, so a million-chunk batch never materializes a
million futures — backpressure is exerted on the producer by collecting
the oldest outstanding future before submitting the next chunk.

Failure surfacing is typed (:mod:`repro.errors`): a worker process dying
abruptly raises :class:`~repro.errors.WorkerCrashError` instead of hanging,
and the broken pool is discarded so the *next* call restarts fresh workers
(counted by ``smatch_parallel_worker_restarts_total``).  Exceptions raised
*inside* a task function propagate unchanged.

Telemetry crosses the fan-out boundary truthfully (docs/OBSERVABILITY.md):
when the submitting thread is tracing, each chunk runs under a worker-local
:class:`~repro.obs.trace.Tracer` whose records ship back with the result
and are spliced into the parent trace under the open ``parallel.map`` span,
tagged with the worker identity; when a metrics registry is enabled,
workers also run a local :class:`~repro.obs.metrics.MetricsRegistry` whose
mergeable snapshot is folded into the parent registry (counters add,
gauges max), so ``smatch_parallel_*`` and OPE-cache counters agree across
the serial and process backends.  The same capture/absorb pair
(:func:`run_captured` / :func:`absorb_telemetry`) serves any pool thread
that has no tracer of its own, such as the shard tier's fan-out threads.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.errors import ParallelError, ParameterError, WorkerCrashError
from repro.obs.metrics import (
    M_OBS_WORKER_SPANS,
    M_PARALLEL_CHUNKS,
    M_PARALLEL_QUEUE_DEPTH,
    M_PARALLEL_TASKS,
    M_PARALLEL_WORKER_RESTARTS,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    metric_inc,
    metric_set,
)
from repro.obs.trace import clear_inherited_tracer, current_tracer, span, tracing

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "absorb_telemetry",
    "balanced_chunk_size",
    "partition_chunks",
    "resolve_backend",
    "run_captured",
]

#: Names accepted by :func:`resolve_backend`.
BACKEND_NAMES: Tuple[str, ...] = ("serial", "process")

#: A chunk task: ``fn(context, chunk) -> result``.  Must be a module-level
#: function for :class:`ProcessBackend` (pickled by reference).
TaskFn = Callable[[Any, Sequence[Any]], Any]


@dataclass(frozen=True)
class TaskEnvelope:
    """One picklable unit of backend work.

    ``fn`` is applied per chunk as ``fn(context, chunk)``.  The ``context``
    carries the warm-start state (key material, parameters) every chunk of
    the batch shares; process backends deliver it to each worker exactly
    once via the pool initializer.  ``label`` names the work in spans and
    error messages (never interpolate task *data* into it).
    """

    fn: TaskFn
    context: Any = None
    label: str = "task"


def partition_chunks(
    items: Sequence[Any], chunk_size: int
) -> List[Sequence[Any]]:
    """Deterministic contiguous chunking: ``items[0:c], items[c:2c], ...``.

    Pure function of ``(len(items), chunk_size)`` — chunk boundaries never
    depend on worker count or scheduling, which is one half of the
    cross-backend determinism contract (the other half is ordered result
    collection).
    """
    if chunk_size < 1:
        raise ParameterError("chunk_size must be >= 1")
    items = list(items)
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


def balanced_chunk_size(num_items: int, workers: int) -> int:
    """One balanced slice per worker (the default chunking policy)."""
    if workers < 1:
        raise ParameterError("workers must be >= 1")
    return max(1, (num_items + workers - 1) // workers)


def _note_batch(num_chunks: int, num_tasks: int) -> None:
    metric_inc(M_PARALLEL_CHUNKS, num_chunks)
    metric_inc(M_PARALLEL_TASKS, num_tasks)


# -- worker-side telemetry capture ---------------------------------------------


@dataclass(frozen=True)
class _WorkerTelemetry:
    """A result wrapped with the telemetry its worker captured.

    ``spans`` is the worker tracer's depth-first record list (the
    :meth:`~repro.obs.trace.Tracer.span_records` shape) or ``None`` when
    span capture was off; ``metrics`` is the worker registry's mergeable
    view or ``None``; ``worker`` identifies the executing worker (pool
    thread name, or ``pid-<n>`` for a worker process).
    """

    result: Any
    spans: Optional[List[Dict[str, Any]]]
    metrics: Optional[Dict[str, Dict[str, Any]]]
    worker: str


def run_captured(
    fn: Callable[..., Any],
    args: Sequence[Any],
    name: str,
    attrs: Dict[str, Any],
    capture_spans: bool = True,
    capture_metrics: bool = False,
    worker: Optional[str] = None,
) -> _WorkerTelemetry:
    """Run ``fn(*args)`` under worker-local telemetry and wrap the result.

    Pool threads have no thread-local tracer (spans opened inside them
    no-op), and worker processes additionally have a private metrics
    registry, so both capture locally here — spans under a root named
    ``name`` with ``attrs`` — and ship the records back for
    :func:`absorb_telemetry` on the submitting thread.  ``worker`` defaults
    to the current thread's name.  Exceptions from ``fn`` propagate
    unchanged; the local registry swap is always restored.
    """
    prior_registry = active_metrics()
    local_registry: Optional[MetricsRegistry] = None
    if capture_metrics:
        local_registry = enable_metrics(MetricsRegistry())
    try:
        if capture_spans:
            with tracing(name, **attrs) as tracer:
                result = fn(*args)
            spans: Optional[List[Dict[str, Any]]] = tracer.span_records()
        else:
            result = fn(*args)
            spans = None
    finally:
        if capture_metrics:
            if prior_registry is None:
                disable_metrics()
            else:
                enable_metrics(prior_registry)
    return _WorkerTelemetry(
        result=result,
        spans=spans,
        metrics=(
            local_registry.to_mergeable() if local_registry is not None else None
        ),
        worker=worker if worker is not None else threading.current_thread().name,
    )


def absorb_telemetry(payload: Any) -> Any:
    """Unwrap a collected result, splicing/merging any worker telemetry.

    Runs on the submitting thread inside the span that fanned the work out
    (``parallel.map``, or a shard-tier span), so spliced worker roots land
    under it (and their op counts / byte tallies fold up through the
    enclosing pipeline spans).  Gracefully drops telemetry the parent
    cannot absorb (no tracer / no registry active).
    """
    if not isinstance(payload, _WorkerTelemetry):
        return payload
    if payload.spans:
        tracer = current_tracer()
        if tracer is not None:
            tracer.splice(payload.spans, attrs={"worker": payload.worker})
            metric_inc(M_OBS_WORKER_SPANS, len(payload.spans))
    if payload.metrics is not None:
        registry = active_metrics()
        if registry is not None:
            registry.merge(payload.metrics)
    return payload.result


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution-backend protocol all backends implement."""

    name: str
    workers: int

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply ``envelope.fn(context, chunk)`` to every chunk, in order."""
        ...

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        ...


class SerialBackend:
    """Run every chunk inline on the calling thread — the reference order."""

    name = "serial"
    workers = 1

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply the envelope to each chunk sequentially."""
        chunks = list(chunks)
        with span(
            "parallel.map",
            backend=self.name,
            label=envelope.label,
            chunks=len(chunks),
        ):
            _note_batch(len(chunks), sum(len(c) for c in chunks))
            return [envelope.fn(envelope.context, chunk) for chunk in chunks]

    def close(self) -> None:
        """Nothing pooled; provided for protocol symmetry."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- process backend -----------------------------------------------------------

#: Per-worker-process warm state, installed once by the pool initializer.
_WORKER_CONTEXT: Any = None


def _initialize_worker(context: Any) -> None:
    """Pool initializer: cache the envelope context in this worker process."""
    global _WORKER_CONTEXT
    # written exactly once per worker process by the pool initializer,
    # strictly before any chunk runs, and workers are single-threaded
    _WORKER_CONTEXT = context  # smatch-lint: disable=SML013 — initializer runs before any task


def _started() -> None:
    """No-op first task: submitting it forks the whole pool."""


def _run_chunk(fn: TaskFn, chunk: Sequence[Any]) -> Any:
    """Worker-side trampoline: apply the task to the warm-started context."""
    return fn(_WORKER_CONTEXT, chunk)


def _run_chunk_traced(
    fn: TaskFn,
    chunk: Sequence[Any],
    label: str,
    index: int,
    capture_spans: bool,
    capture_metrics: bool,
) -> _WorkerTelemetry:
    """Trampoline for traced chunks: warm context + worker-local telemetry."""
    # a fork-started worker inherits the submitting thread's tracer; it is
    # an orphan copy here — clear it so the worker trace opens
    clear_inherited_tracer()
    return run_captured(
        fn,
        (_WORKER_CONTEXT, chunk),
        "parallel.chunk",
        {"label": label, "chunk": index},
        capture_spans,
        capture_metrics,
        worker=f"pid-{os.getpid()}",
    )


class ProcessBackend:
    """A ``ProcessPoolExecutor`` backend for modexp-bound work.

    The envelope context crosses the pickling boundary exactly once per
    worker (pool initializer); per-chunk submissions carry only the task
    function reference and the chunk items, and results come back through
    the future-result pickle.  The pool is kept warm across ``map_chunks``
    calls that reuse the *same* context object, so repeated batches against
    one key/scheme pay pool start-up once.

    Bounded in-flight window: submit up to ``2 × workers`` chunks, then
    alternate collect-oldest / submit-next so results arrive in submission
    order with O(workers) outstanding futures.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParameterError("workers must be >= 1")
        self.workers = workers
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_context: Any = None

    @property
    def shm_enabled(self) -> bool:
        """Always ``False``: results move by pickle.  Read-only, and kept
        only because ``perfbench/bulk_enroll.py`` records it."""
        return False

    def map_chunks(
        self, envelope: TaskEnvelope, chunks: Sequence[Sequence[Any]]
    ) -> List[Any]:
        """Apply the envelope across the pool; results in submission order."""
        chunks = list(chunks)
        with span(
            "parallel.map",
            backend=self.name,
            label=envelope.label,
            chunks=len(chunks),
        ):
            _note_batch(len(chunks), sum(len(c) for c in chunks))
            try:
                return self._collect(envelope, chunks)
            finally:
                metric_set(M_PARALLEL_QUEUE_DEPTH, 0)

    def _collect(
        self, envelope: TaskEnvelope, chunks: List[Sequence[Any]]
    ) -> List[Any]:
        pool = self._pool_for(envelope)
        # workers record spans exactly when the submitting thread traces,
        # and run a local registry exactly when one is enabled here
        capture_spans = current_tracer() is not None
        capture_metrics = active_metrics() is not None
        results: List[Any] = [None] * len(chunks)
        pending: Deque[Tuple[int, "Future[Any]"]] = deque()
        next_index = 0

        def submit_one() -> None:
            nonlocal next_index
            index = next_index
            next_index += 1
            if capture_spans or capture_metrics:
                future = pool.submit(
                    _run_chunk_traced,
                    envelope.fn,
                    chunks[index],
                    envelope.label,
                    index,
                    capture_spans,
                    capture_metrics,
                )
            else:
                future = pool.submit(_run_chunk, envelope.fn, chunks[index])
            pending.append((index, future))

        try:
            while (
                next_index < len(chunks) and len(pending) < 2 * self.workers
            ):
                submit_one()
            metric_set(M_PARALLEL_QUEUE_DEPTH, len(pending))
            while pending:
                index, future = pending[0]
                results[index] = absorb_telemetry(future.result())
                pending.popleft()
                if next_index < len(chunks):
                    submit_one()
                metric_set(M_PARALLEL_QUEUE_DEPTH, len(pending))
        except BrokenProcessPool as exc:
            # the pool is unusable — a worker died before its result came
            # back, or before a later chunk could even be submitted: drop it
            # (the next map_chunks call restarts fresh workers) and surface
            # a typed error instead of hanging on futures a dead worker will
            # never complete
            failed = pending[0][0] if pending else next_index
            for _, leftover in pending:
                leftover.cancel()
            pending.clear()
            self._discard_pool()
            metric_inc(M_PARALLEL_WORKER_RESTARTS)
            raise WorkerCrashError(
                f"worker process died while running {envelope.label!r} "
                f"chunk {failed} of {len(chunks)}"
            ) from exc
        return results

    def _pool_for(self, envelope: TaskEnvelope) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_context is envelope.context:
            return self._pool
        self._discard_pool()
        self._check_picklable(envelope)
        mp_ctx = None
        if self._mp_context is not None:
            import multiprocessing

            mp_ctx = multiprocessing.get_context(self._mp_context)
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(envelope.context,),
            mp_context=mp_ctx,
        )
        # fork the workers now, on this thread (see start)
        pool.submit(_started)
        self._pool = pool
        # hold a strong reference so `is` identity can't be recycled
        self._pool_context = envelope.context
        return pool

    def start(self, envelope: TaskEnvelope) -> None:
        """Fork the pool for ``envelope`` now, on the calling thread.

        A no-op when that pool is already running.  Callers that drive
        several backends from several threads start them from one thread
        first: a fork on one thread can otherwise copy the pipe another
        thread has just made for its own new worker's exit sentinel, and
        that worker's death then goes unnoticed until the copy's holder
        exits — a pool that hangs instead of raising
        :class:`~repro.errors.WorkerCrashError`.
        """
        self._pool_for(envelope)

    @staticmethod
    def _check_picklable(envelope: TaskEnvelope) -> None:
        try:
            pickle.dumps((envelope.fn, envelope.context))
        except Exception as exc:
            # report only type names: envelope contexts may carry key
            # material whose repr must never reach an exception message
            raise ParallelError(
                f"task envelope {envelope.label!r} cannot cross the process "
                f"boundary: fn must be a module-level function and context "
                f"picklable ({type(exc).__name__})"
            ) from exc

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_context = None

    def close(self) -> None:
        """Shut the pool down (idempotent); a later call re-creates it."""
        self._discard_pool()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- name resolution -----------------------------------------------------------

BackendSpec = Union[str, ExecutionBackend]


def resolve_backend(spec: BackendSpec) -> ExecutionBackend:
    """An :class:`ExecutionBackend` from a name or a ready instance.

    Accepts ``"serial"``, ``"process"`` (one worker per CPU), or any
    object already implementing the protocol (returned as-is).
    """
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name == "process":
            return ProcessBackend()
        raise ParameterError(
            f"unknown execution backend {spec!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ParameterError(
        f"backend must be a name or an ExecutionBackend, got "
        f"{type(spec).__name__}"
    )
