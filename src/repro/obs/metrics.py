"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The paper's evaluation is a cost story — op counts, bytes on the wire,
durations — so every metric value here is an **integer** (durations in
microseconds, sizes in bytes).  No floats ever enter the crypto paths; the
only division happens at render time.

Like spans and ``count_op``, recording is off unless a registry has been
activated (:func:`enable_metrics`), and the module-level helpers
(:func:`metric_inc`, :func:`metric_observe`, :func:`metric_set`) are no-ops
when it is not — one global read per call on the disabled path.

Exports: Prometheus text exposition (``render_prometheus``) and JSON
(``snapshot``), both consumed by ``repro obs report`` and the benchmark
artifact writer.

Naming convention (see docs/OBSERVABILITY.md):
``smatch_<component>_<quantity>[_<unit>][_total]`` —
``smatch_net_sent_bytes``, ``smatch_server_queries_total``, ...
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BYTE_BUCKETS",
    "DURATION_US_BUCKETS",
    "METRICS",
    "metric_names",
    "enable_metrics",
    "disable_metrics",
    "active_metrics",
    "metric_inc",
    "metric_set",
    "metric_observe",
]

#: Default histogram buckets for message sizes (bytes).
BYTE_BUCKETS: Tuple[int, ...] = (64, 256, 1024, 4096, 16384, 65536, 262144)

# -- the metric-name registry ---------------------------------------------------
#
# The single source of truth for every metric name the instrumented tree
# may emit.  Emitting modules import the ``M_*`` constants below instead of
# repeating string literals, and ``tools/check_obs_artifacts.py`` validates
# both recorded snapshots and emit *sites* against this table — an unknown
# name is almost always a typo that would silently split a time series.

#: name -> one-line description, populated by :func:`_metric` at import.
METRICS: Dict[str, str] = {}


def _metric(name: str, description: str) -> str:
    """Register ``name`` in the catalog and return it (constant helper)."""
    METRICS[name] = description
    return name


# server front door (repro.server.service)
M_SERVER_UPLOADS = _metric(
    "smatch_server_uploads_total", "ciphertext uploads stored"
)
M_SERVER_QUERIES = _metric(
    "smatch_server_queries_total", "match queries served"
)
M_SERVER_RESULTS = _metric(
    "smatch_server_results_total", "result entries returned"
)
M_SERVER_HANDLER_LATENCY_US = _metric(
    "smatch_server_handler_latency_us", "upload/query handler latency"
)
# matcher (repro.server.matcher)
M_MATCHER_GROUPS_INDEXED = _metric(
    "smatch_matcher_groups_indexed", "key groups with a live index"
)
M_MATCHER_GROUP_GENERATION = _metric(
    "smatch_matcher_group_generation", "monotone index-rebuild generation"
)
# OPRF key service (repro.server.keyservice)
M_KEYSERVICE_EVALUATIONS = _metric(
    "smatch_keyservice_evaluations_total", "OPRF blind evaluations"
)
M_KEYSERVICE_REJECTIONS = _metric(
    "smatch_keyservice_rejections_total", "rate-limit rejections"
)
# wire layer (repro.net)
M_NET_MESSAGES = _metric(
    "smatch_net_messages_total", "datagrams sent on the transport"
)
M_NET_MESSAGE_BYTES = _metric("smatch_net_message_bytes", "datagram sizes")
M_CHANNEL_MESSAGES = _metric(
    "smatch_channel_messages_total", "secure-channel sends"
)
M_CHANNEL_SENT_BYTES = _metric(
    "smatch_channel_sent_bytes", "plaintext-to-wire sizes sent"
)
M_CHANNEL_RECEIVED_BYTES = _metric(
    "smatch_channel_received_bytes", "wire sizes received"
)
# OPE node cache (repro.crypto.ope_cache)
M_OPE_CACHE_HITS = _metric(
    "smatch_ope_cache_hits_total", "OPE node-cache hits"
)
M_OPE_CACHE_MISSES = _metric(
    "smatch_ope_cache_misses_total", "OPE node-cache misses"
)
M_OPE_CACHE_EVICTIONS = _metric(
    "smatch_ope_cache_evictions_total", "OPE node-cache LRU evictions"
)
M_OPE_CACHE_ENTRIES = _metric(
    "smatch_ope_cache_entries", "live OPE node-cache entries"
)
# batch enrollment (repro.core.scheme)
M_ENROLL_BATCH_PROFILES = _metric(
    "smatch_enroll_batch_profiles_total", "profiles enrolled in batches"
)
M_ENROLL_BATCH_CHUNKS = _metric(
    "smatch_enroll_batch_chunks_total", "enrollment chunks fanned out"
)
# execution backends (repro.parallel.backend)
M_PARALLEL_TASKS = _metric(
    "smatch_parallel_tasks_total", "task items dispatched to backends"
)
M_PARALLEL_CHUNKS = _metric(
    "smatch_parallel_chunks_total", "chunks dispatched to backends"
)
M_PARALLEL_WORKER_RESTARTS = _metric(
    "smatch_parallel_worker_restarts_total", "pools discarded after a crash"
)
M_PARALLEL_QUEUE_DEPTH = _metric(
    "smatch_parallel_queue_depth", "in-flight chunks on the pool"
)
# sharded server tier (repro.server.sharding).  Counters emitted inside
# shard worker processes reach the coordinator via the same registry-merge
# path as other worker metrics; the durability counters (wal/snapshot/
# recovery) measure the persistence *mechanism*, not the matching work, so
# like smatch_obs_worker_spans_total they are exempt from cross-backend
# counter-equality comparisons.
M_SHARD_OPS = _metric(
    "smatch_shard_ops_total", "mutation ops (put/remove) applied by shards"
)
M_SHARD_QUERIES = _metric(
    "smatch_shard_queries_total", "match queries answered by shards"
)
M_SHARD_WAL_RECORDS = _metric(
    "smatch_shard_wal_records_total", "op records committed to shard WALs"
)
M_SHARD_WAL_BYTES = _metric(
    "smatch_shard_wal_bytes_total", "framed bytes committed to shard WALs"
)
M_SHARD_SNAPSHOTS = _metric(
    "smatch_shard_snapshots_total", "shard snapshots written"
)
M_SHARD_WAL_REPLAYED = _metric(
    "smatch_shard_wal_replayed_total", "op records replayed during recovery"
)
M_SHARD_RECOVERIES = _metric(
    "smatch_shard_recoveries_total", "shard states rebuilt from disk"
)
# telemetry collection itself (repro.parallel.backend splicing); named under
# smatch_obs_ on purpose: smatch_parallel_* totals measure the *work* and
# must be backend-invariant, while this one counts the collection mechanism
# (zero under SerialBackend, where spans nest natively)
M_OBS_WORKER_SPANS = _metric(
    "smatch_obs_worker_spans_total",
    "worker-side spans spliced into the parent trace",
)


def metric_names() -> "frozenset[str]":
    """Every registered metric name (the KNOWN_METRICS source of truth)."""
    return frozenset(METRICS)

#: Default histogram buckets for durations (microseconds).
DURATION_US_BUCKETS: Tuple[int, ...] = (
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ParameterError("counters only go up")
        self.value += amount


class Gauge:
    """A settable integer (queue depths, group counts, cache sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: int) -> None:
        """Replace the gauge value."""
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """Fixed-bucket integer histogram (cumulative-bucket Prometheus shape)."""

    __slots__ = ("name", "bounds", "bucket_counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[int]) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ParameterError(
                f"histogram {name!r} bounds must be sorted and unique, "
                f"got {tuple(bounds)!r}"
            )
        self.name = name
        self.bounds: Tuple[int, ...] = tuple(int(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)  # +Inf last
        self.total = 0
        self.count = 0

    def observe(self, value: int) -> None:
        """Record one integer observation."""
        if value < 0:
            raise ParameterError("histogram observations must be >= 0")
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> List[Tuple[str, int]]:
        """Prometheus-style cumulative (le, count) pairs ending at +Inf."""
        pairs: List[Tuple[str, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            pairs.append((str(bound), running))
        pairs.append(("+Inf", running + self.bucket_counts[-1]))
        return pairs


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with get-or-create access and renderable snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, creating it on first use."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, creating it on first use."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Sequence[int] = BYTE_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, creating it with ``buckets``.

        Re-registering an existing histogram under *different* bounds is a
        call-site bug (the observation would land in buckets the reader
        does not expect), surfaced here as a typed error naming the metric
        instead of a confusing failure deep inside bucket accounting.
        """
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
            elif metric.bounds != tuple(int(b) for b in buckets):
                raise ParameterError(
                    f"histogram {name!r} is already registered with bounds "
                    f"{metric.bounds!r}; cannot re-register it with "
                    f"{tuple(buckets)!r} — every emit site of one metric "
                    "must agree on its buckets"
                )
            return metric

    # -- locked mutation -------------------------------------------------------
    #
    # ``registry.counter(name).inc(n)`` takes the lock for the lookup but
    # mutates the returned metric *after* releasing it, so two threads can
    # interleave the read-modify-write and lose increments.  These methods
    # keep the whole get-or-create-and-mutate step under the registry lock
    # and are what the module-level helpers route through; the bare
    # accessors above remain for single-threaded construction and reads.

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically increment the counter named ``name``."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            metric.inc(amount)

    def set_gauge(self, name: str, value: int) -> None:
        """Atomically set the gauge named ``name``."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            metric.set(value)

    def observe(
        self, name: str, value: int, buckets: Sequence[int] = BYTE_BUCKETS
    ) -> None:
        """Atomically observe ``value`` into the histogram named ``name``."""
        metric = self.histogram(name, buckets)
        with self._lock:
            metric.observe(value)

    # -- exports ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly view of every metric."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "buckets": dict(h.cumulative()),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    def to_mergeable(self) -> Dict[str, Dict[str, object]]:
        """A picklable, lossless view for cross-process aggregation.

        Unlike :meth:`snapshot` (whose cumulative histogram buckets are a
        render format), this keeps raw per-bucket counts and bounds so two
        registries can be combined exactly — the shape worker processes
        ship back for :meth:`merge`.
        """
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "bounds": list(h.bounds),
                        "bucket_counts": list(h.bucket_counts),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for n, h in sorted(self._histograms.items())
                },
            }

    def merge(self, mergeable: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`to_mergeable` view from another registry into this one.

        The merge is associative and commutative, so fan-out telemetry is
        deterministic in *content* no matter how many workers report or in
        which order: counters and histogram buckets add; gauges — level
        values like queue depth or cache size — keep the maximum observed
        level.  A histogram arriving with different bounds than the local
        registration is a typed error naming the metric.
        """
        with self._lock:
            for name, value in mergeable.get("counters", {}).items():
                local_counter = self._counters.get(name)
                if local_counter is None:
                    local_counter = self._counters[name] = Counter(name)
                local_counter.inc(int(value))
            for name, value in mergeable.get("gauges", {}).items():
                local_gauge = self._gauges.get(name)
                if local_gauge is None:
                    local_gauge = self._gauges[name] = Gauge(name)
                local_gauge.set(max(local_gauge.value, int(value)))
            for name, view in mergeable.get("histograms", {}).items():
                bounds = tuple(int(b) for b in view["bounds"])
                local_hist = self._histograms.get(name)
                if local_hist is None:
                    local_hist = self._histograms[name] = Histogram(name, bounds)
                elif local_hist.bounds != bounds:
                    raise ParameterError(
                        f"histogram {name!r} cannot merge: local bounds "
                        f"{local_hist.bounds!r} != incoming {bounds!r}"
                    )
                incoming = [int(n) for n in view["bucket_counts"]]
                if len(incoming) != len(local_hist.bucket_counts):
                    raise ParameterError(
                        f"histogram {name!r} cannot merge: bucket count "
                        "mismatch"
                    )
                for i, n in enumerate(incoming):
                    local_hist.bucket_counts[i] += n
                local_hist.total += int(view["sum"])
                local_hist.count += int(view["count"])

    def render_json(self) -> str:
        """The snapshot as pretty-printed JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            for name, c in sorted(self._counters.items()):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {c.value}")
            for name, g in sorted(self._gauges.items()):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {g.value}")
            for name, h in sorted(self._histograms.items()):
                lines.append(f"# TYPE {name} histogram")
                for le, n in h.cumulative():
                    lines.append(f'{name}_bucket{{le="{le}"}} {n}')
                lines.append(f"{name}_sum {h.total}")
                lines.append(f"{name}_count {h.count}")
        return "\n".join(lines) + "\n"


# -- process-wide activation ---------------------------------------------------

_active: Optional[MetricsRegistry] = None


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Activate (and return) the process-wide registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable_metrics() -> None:
    """Deactivate metrics recording; helpers become no-ops again."""
    global _active
    _active = None


def active_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when metrics are off."""
    return _active


def metric_inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry (no-op when inactive)."""
    registry = _active
    if registry is not None:
        registry.inc(name, amount)


def metric_set(name: str, value: int) -> None:
    """Set a gauge on the active registry (no-op when inactive)."""
    registry = _active
    if registry is not None:
        registry.set_gauge(name, value)


def metric_observe(
    name: str, value: int, buckets: Sequence[int] = BYTE_BUCKETS
) -> None:
    """Observe into a histogram on the active registry (no-op when inactive)."""
    registry = _active
    if registry is not None:
        registry.observe(name, value, buckets)
