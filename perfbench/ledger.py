"""The per-layer ledger: metrics of single layers from one traced phase.

Durations are the mean µs (or ms) per call of the benchmark span around a
public call; ``top_table``'s ``total_us`` folds the program's own spans
into the enclosing benchmark span.  Counts are exact: op counts come from
the trace root (which also holds the op counts of worker spans spliced into
the trace), counters from the ``repro.obs.metrics`` registry snapshot, and
denominators from the phase itself.

Every metric is printed for every workload, so the traced run of each
workload has one fixed set of names.  A layer a workload never enters reads
0: no calls, no ops, no counter increments.  The comment above each block
names the workload whose layers it measures and the end-to-end metric each
should move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.obs.analysis import top_table


def per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Traced:
    """What the ledger reads: one traced phase and its surroundings."""

    records: List[dict]
    ops: Mapping[str, int]
    sent_bytes: int
    counters: Mapping[str, int]
    counts: Mapping[str, int]
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.stats = {row["name"]: row for row in top_table(self.records)}

    def mean_us(self, name: str) -> float:
        row = self.stats.get(name)
        return per(row["total_us"], row["calls"]) if row else 0.0


Metric = Tuple[str, str, Callable[[Traced], float]]


def span_us(name: str) -> Callable[[Traced], float]:
    return lambda t: t.mean_us(name)


def ops_per(op: str, denominator: str, scale: int = 1):
    return lambda t: per(t.ops.get(op, 0) * scale, t.counts.get(denominator, 0))


def counter_per(metric: str, denominator: str, scale: int = 1):
    return lambda t: per(
        t.counters.get(metric, 0) * scale, t.counts.get(denominator, 0)
    )


def counter(metric: str):
    return lambda t: float(t.counters.get(metric, 0))


def extra(key: str):
    return lambda t: float(t.extra.get(key, 0.0))


def _ratio(part: str, other: str, source: str):
    def ratio(t: Traced) -> float:
        counts = t.ops if source == "ops" else t.counters
        hits = counts.get(part, 0)
        return per(hits, hits + counts.get(other, 0))

    return ratio


PER_LAYER: List[Metric] = [
    # roundtrip -> enroll_ms.*
    ("client.begin_derivation_us", "us", span_us("client.begin_derivation")),
    (
        "server.keyservice.handle_message_us",
        "us",
        span_us("server.keyservice.handle_message"),
    ),
    ("client.finish_derivation_us", "us", span_us("client.finish_derivation")),
    # roundtrip -> enroll_ms.*; bulk_enroll -> ops_per_s
    ("core.init_data_us", "us", span_us("core.init_data")),
    ("core.encrypt_us", "us", span_us("core.encrypt")),
    ("core.auth_us", "us", span_us("core.auth")),
    # roundtrip -> enroll_ms.* and query_ms.*; nothing on churn
    ("net.channel.send_us", "us", span_us("net.channel.send")),
    ("net.channel.recv_us", "us", span_us("net.channel.recv")),
    # roundtrip -> query_ms.*
    ("client.verify_results_us", "us", span_us("client.verify_results")),
    ("core.verify.per_query", "count/query", ops_per("verify", "queries")),
    # every workload: churn and durable_churn -> upload/query latency and
    # ops_per_s; predicted to move nothing on roundtrip
    (
        "server.handle_message.upload_us",
        "us",
        span_us("server.handle_message.upload"),
    ),
    (
        "server.handle_message.query_us",
        "us",
        span_us("server.handle_message.query"),
    ),
    # roundtrip -> enroll_ms.* and query_ms.*
    ("crypto.modexp.per_user", "count/user", ops_per("modexp", "users")),
    ("crypto.aes_block.per_user", "count/user", ops_per("aes_block", "users")),
    (
        "crypto.aes_key_schedule.per_user",
        "count/user",
        ops_per("aes_key_schedule", "users"),
    ),
    ("crypto.hash.per_user", "count/user", ops_per("hash", "users")),
    (
        "net.wire_bytes.per_user",
        "B/user",
        lambda t: per(t.sent_bytes, t.counts.get("users", 0)),
    ),
    # churn -> upload/query latency, ops_per_s
    ("net.decode_message_us", "us", span_us("net.decode_message")),
    ("net.encode_result_us", "us", span_us("net.encode_result")),
    # churn -> query tail: rescores make up the tail
    (
        "server.matcher.rescore.per_kreq",
        "count/kreq",
        ops_per("server_rescore", "requests", 1000),
    ),
    (
        "server.matcher.rescore_skipped.ratio",
        "ratio",
        _ratio("server_rescore_skipped", "server_rescore", "ops"),
    ),
    (
        "server.matcher.index_update.per_kreq",
        "count/kreq",
        ops_per("server_index_update", "requests", 1000),
    ),
    (
        "server.matcher.sort.count",
        "count",
        lambda t: float(t.ops.get("server_sort", 0)),
    ),
    (
        "core.matching.rank_column.per_kreq",
        "count/kreq",
        ops_per("server_rank_column", "requests", 1000),
    ),
    # churn: workload properties, so a change that helps one share of the
    # traffic shows
    (
        "server.results.per_query",
        "count/query",
        counter_per("smatch_server_results_total", "queries"),
    ),
    (
        "server.group_move.share",
        "ratio",
        lambda t: per(t.counts.get("moves", 0), t.counts.get("uploads", 0)),
    ),
    # durable_churn -> upload p50
    (
        "server.sharding.wal_bytes.per_user_byte",
        "B/B",
        counter_per("smatch_shard_wal_bytes_total", "upload_bytes"),
    ),
    (
        "server.sharding.wal_records.per_upload",
        "count/upload",
        counter_per("smatch_shard_wal_records_total", "uploads"),
    ),
    # durable_churn -> upload tail
    (
        "server.sharding.snapshots.per_kupload",
        "count/kupload",
        counter_per("smatch_shard_snapshots_total", "uploads", 1000),
    ),
    (
        "server.sharding.snapshot_upload_us",
        "us",
        extra("snapshot_upload_us"),
    ),
    # durable_churn -> recover_s
    (
        "server.sharding.disk_bytes.per_live_byte",
        "B/B",
        lambda t: per(t.extra.get("disk_bytes", 0), t.extra.get("live_bytes", 0)),
    ),
    ("server.sharding.replayed_records", "count", extra("replayed_records")),
    # durable_churn -> ops_per_s
    (
        "parallel.tasks.per_req",
        "count/req",
        counter_per("smatch_parallel_tasks_total", "requests"),
    ),
    # bulk_enroll -> ops_per_s
    (
        "core.enroll_population_ms",
        "ms",
        lambda t: t.mean_us("core.enroll_population") / 1000,
    ),
    ("net.encode_upload_us", "us", span_us("net.encode_upload")),
    (
        "parallel.chunks.per_cohort",
        "count/cohort",
        counter_per("smatch_parallel_chunks_total", "cohorts"),
    ),
    (
        "parallel.shm_bytes.per_profile",
        "B/profile",
        counter_per("smatch_parallel_shm_bytes_total", "profiles"),
    ),
    (
        "parallel.shm_fallbacks.total",
        "count",
        counter("smatch_parallel_shm_fallbacks_total"),
    ),
    (
        "parallel.worker_restarts.total",
        "count",
        counter("smatch_parallel_worker_restarts_total"),
    ),
    (
        "crypto.ope_cache.hit_ratio",
        "ratio",
        _ratio(
            "smatch_ope_cache_hits_total",
            "smatch_ope_cache_misses_total",
            "counters",
        ),
    ),
    ("crypto.modexp.per_profile", "count/profile", ops_per("modexp", "profiles")),
    (
        "crypto.ope_level.per_profile",
        "count/profile",
        ops_per("ope_level", "profiles"),
    ),
    # every workload -> setup_s
    ("experiments.build_scheme_ms", "ms", extra("build_scheme_ms")),
    # every workload: traced wall time per unit over untraced
    ("obs.trace_overhead.ratio", "ratio", extra("trace_overhead")),
]


def compute(traced: Traced) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
    return {
        name: {"value": float(fn(traced)), "unit": unit}
        for name, unit, fn in PER_LAYER
    }
