"""Pluggable execution backends for CPU-bound bulk work.

Operator enrollment (:meth:`repro.core.scheme.SMatch.enroll_population`) is
pure-Python compute, so the GIL serializes the arithmetic of any thread
pool.  At 16-bit OPE expansion a profile costs, serially on a 2-core Xeon,
about 1.3-2.1 ms of Enc (mostly the OPE descent), 0.4-0.6 ms of Auth and
0.3 ms of blinding; a chunk adds one 1.7-2.1 ms RSA-CRT evaluation per
distinct key material among its profiles, not per profile (see
docs/PERFORMANCE.md §1).  A :class:`ProcessBackend` breaks out of the
interpreter entirely, at the cost of a pickling boundary.  Both backends
implement one protocol, and the caller passes the one it wants with each
call:

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

Every chunk of a batch is submitted at once: the caller's chunk list is
already in memory, and :meth:`~repro.core.scheme.SMatch.enroll_population`
cuts at most ``workers`` chunks by default.

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
gauges max), so ``smatch_parallel_*`` and any counter bumped inside a task
agree across the serial and process backends.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
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
    M_PARALLEL_TASKS,
    M_PARALLEL_WORKER_RESTARTS,
    MetricsRegistry,
    active_metrics,
    disable_metrics,
    enable_metrics,
    metric_inc,
)
from repro.obs.trace import clear_inherited_tracer, current_tracer, span, tracing

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "balanced_chunk_size",
    "partition_chunks",
    "resolve_backend",
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
    """A chunk result wrapped with the telemetry its worker captured.

    ``spans`` is the worker tracer's depth-first record list (the
    :meth:`~repro.obs.trace.Tracer.span_records` shape) or ``None`` when
    span capture was off; ``metrics`` is the worker registry's mergeable
    view or ``None``; ``worker`` identifies the executing worker process
    (``pid-<n>``).
    """

    result: Any
    spans: Optional[List[Dict[str, Any]]]
    metrics: Optional[Dict[str, Dict[str, Any]]]
    worker: str

    def absorb(self) -> Any:
        """Splice/merge the telemetry on the submitting thread; return the result.

        Runs inside the span that fanned the work out (``parallel.map``),
        so spliced worker roots land under it (and their op counts / byte
        tallies fold up through the enclosing pipeline spans).
        """
        if self.spans:
            tracer = current_tracer()
            if tracer is not None:
                tracer.splice(self.spans, attrs={"worker": self.worker})
                metric_inc(M_OBS_WORKER_SPANS, len(self.spans))
        if self.metrics is not None:
            registry = active_metrics()
            if registry is not None:
                registry.merge(self.metrics)
        return self.result


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


def _run_chunk(
    fn: TaskFn,
    chunk: Sequence[Any],
    label: str,
    index: int,
    capture_spans: bool,
    capture_metrics: bool,
) -> Any:
    """Worker-side trampoline: apply the task to the warm-started context.

    With neither capture on, the bare result comes back.  Otherwise the
    chunk runs under a worker-local tracer (root ``parallel.chunk``) and/or
    metrics registry — a worker process has no tracer of its own and a
    private registry — and the result comes back as a
    :class:`_WorkerTelemetry`.  Exceptions from ``fn`` propagate
    unchanged; the registry swap is always restored.
    """
    if not (capture_spans or capture_metrics):
        return fn(_WORKER_CONTEXT, chunk)
    # a fork-started worker inherits the submitting thread's tracer; it is
    # an orphan copy here — clear it so the worker trace opens
    clear_inherited_tracer()
    prior_registry = active_metrics()
    local_registry: Optional[MetricsRegistry] = None
    if capture_metrics:
        local_registry = enable_metrics(MetricsRegistry())
    try:
        if capture_spans:
            with tracing("parallel.chunk", label=label, chunk=index) as tracer:
                result = fn(_WORKER_CONTEXT, chunk)
            spans: Optional[List[Dict[str, Any]]] = tracer.span_records()
        else:
            result = fn(_WORKER_CONTEXT, chunk)
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
        worker=f"pid-{os.getpid()}",
    )


class ProcessBackend:
    """A ``ProcessPoolExecutor`` backend for CPU-bound work.

    The envelope context crosses the pickling boundary exactly once per
    worker (pool initializer); per-chunk submissions carry only the task
    function reference and the chunk items, and results come back through
    the future-result pickle.  The pool is kept warm across ``map_chunks``
    calls that reuse the *same* context object, so repeated batches against
    one key/scheme pay pool start-up once.  Workers fork on the thread that
    submits the pool's first chunks.

    Every chunk is submitted at once, then the results are collected in
    submission order.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParameterError("workers must be >= 1")
        self.workers = workers
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
            return self._collect(envelope, chunks)

    def _collect(
        self, envelope: TaskEnvelope, chunks: List[Sequence[Any]]
    ) -> List[Any]:
        pool = self._pool_for(envelope)
        # workers record spans exactly when the submitting thread traces,
        # and run a local registry exactly when one is enabled here
        capture_spans = current_tracer() is not None
        capture_metrics = active_metrics() is not None
        futures: List["Future[Any]"] = []
        results: List[Any] = [None] * len(chunks)
        try:
            for index, chunk in enumerate(chunks):
                futures.append(
                    pool.submit(
                        _run_chunk,
                        envelope.fn,
                        chunk,
                        envelope.label,
                        index,
                        capture_spans,
                        capture_metrics,
                    )
                )
            for index, future in enumerate(futures):
                payload = future.result()
                if isinstance(payload, _WorkerTelemetry):
                    payload = payload.absorb()
                results[index] = payload
        except BrokenProcessPool as exc:
            # the pool is unusable — a worker died before its result came
            # back, or before a later chunk could even be submitted: drop it
            # (the next map_chunks call restarts fresh workers; the shutdown
            # cancels what is still queued) and surface a typed error
            # instead of hanging on futures a dead worker will never complete
            self._discard_pool()
            metric_inc(M_PARALLEL_WORKER_RESTARTS)
            raise WorkerCrashError(
                f"worker process died while running {envelope.label!r} "
                f"chunk {index} of {len(chunks)}"
            ) from exc
        return results

    def _pool_for(self, envelope: TaskEnvelope) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_context is envelope.context:
            return self._pool
        self._discard_pool()
        self._check_picklable(envelope)
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(envelope.context,),
        )
        self._pool = pool
        # hold a strong reference so `is` identity can't be recycled
        self._pool_context = envelope.context
        return pool

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
