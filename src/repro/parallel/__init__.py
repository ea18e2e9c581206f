"""Pluggable execution backends for CPU-bound bulk work.

See :mod:`repro.parallel.backend` for the backend protocol and its two
implementations (serial and process), and :mod:`repro.parallel.tasks` for
the picklable task envelopes wired into the enrollment / OPRF / matching
hot paths.
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskEnvelope,
    absorb_telemetry,
    balanced_chunk_size,
    default_backend,
    partition_chunks,
    resolve_backend,
    run_captured,
    set_default_backend,
)
from repro.parallel.tasks import (
    BulkMatchContext,
    EnrollSpec,
    bulk_match_chunk,
    enroll_chunk,
    evaluate_blinded_chunk,
)

__all__ = [
    "BACKEND_NAMES",
    "BulkMatchContext",
    "EnrollSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "TaskEnvelope",
    "absorb_telemetry",
    "balanced_chunk_size",
    "bulk_match_chunk",
    "default_backend",
    "enroll_chunk",
    "evaluate_blinded_chunk",
    "partition_chunks",
    "resolve_backend",
    "run_captured",
    "set_default_backend",
]
