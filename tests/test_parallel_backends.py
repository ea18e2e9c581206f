"""Cross-backend equivalence and failure-surfacing tests (repro.parallel).

The contract under test: for seeded work, the serial and process backends
produce **byte-identical** results for any worker count and any chunking,
because chunk boundaries are a pure function of (batch size, chunk_size)
and results are collected in submission order.  On top of that: a
crashing worker surfaces a typed :class:`~repro.errors.WorkerCrashError`
without deadlocking (and the pool recovers), and the name resolution
plumbing behaves.
"""

from __future__ import annotations

import os

import pytest

from repro.core.profile import Profile, ProfileSchema
from repro.core.scheme import SMatch, SMatchParams
from repro.errors import (
    ParallelError,
    ParameterError,
    WorkerCrashError,
)
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    TaskEnvelope,
    balanced_chunk_size,
    partition_chunks,
    resolve_backend,
)
from repro.utils.rand import SystemRandomSource

SCHEMA = ProfileSchema.uniform(["a", "b", "c"], 1 << 12)


def _scheme() -> SMatch:
    return SMatch(
        SMatchParams(schema=SCHEMA, theta=8, plaintext_bits=64),
        rng=SystemRandomSource(41),
    )


@pytest.fixture(scope="module")
def profiles():
    return [
        Profile(i, SCHEMA, (40 + i, 400 + 3 * i, 4000 + 7 * i))
        for i in range(1, 10)
    ]


def _assert_same(result_a, result_b):
    uploads_a, keys_a = result_a
    uploads_b, keys_b = result_b
    assert set(uploads_a) == set(uploads_b)
    for uid in uploads_a:
        assert uploads_a[uid] == uploads_b[uid]
        assert keys_a[uid].key == keys_b[uid].key
        assert keys_a[uid].index == keys_b[uid].index


# -- deterministic partitioning ------------------------------------------------


class TestPartitioning:
    def test_contiguous_chunks(self):
        assert partition_chunks([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert partition_chunks([], 3) == []

    def test_chunk_size_validated(self):
        with pytest.raises(ParameterError):
            partition_chunks([1], 0)

    def test_balanced_chunk_size(self):
        assert balanced_chunk_size(10, 4) == 3
        assert balanced_chunk_size(0, 4) == 1
        assert balanced_chunk_size(5, 1) == 5
        with pytest.raises(ParameterError):
            balanced_chunk_size(5, 0)


# -- cross-backend enrollment equivalence --------------------------------------


class TestEnrollmentEquivalence:
    @pytest.fixture(scope="class")
    def serial_result(self, profiles):
        return _scheme().enroll_population(profiles, backend="serial", seed=77)

    @pytest.mark.parametrize(
        "workers,chunk_size",
        [(w, c) for w in (1, 2, 4) for c in (None, 1, 3)] + [(2, 2), (3, 1)],
    )
    def test_process_backend_matches_serial(
        self, profiles, serial_result, workers, chunk_size
    ):
        with ProcessBackend(workers, mp_context="fork") as backend:
            result = _scheme().enroll_population(
                profiles, backend=backend, seed=77, chunk_size=chunk_size
            )
        _assert_same(serial_result, result)

    def test_other_seed_differs(self, profiles, serial_result):
        other = _scheme().enroll_population(
            profiles, backend="serial", seed=78
        )
        uploads_a, _ = serial_result
        uploads_b, _ = other
        assert any(uploads_a[uid] != uploads_b[uid] for uid in uploads_a)

    def test_unseeded_backend_run_deterministic_under_seeded_scheme(
        self, profiles
    ):
        with ProcessBackend(2, mp_context="fork") as backend:
            a = _scheme().enroll_population(profiles, backend=backend)
        with ProcessBackend(3, mp_context="fork") as backend:
            b = _scheme().enroll_population(profiles, backend=backend)
        _assert_same(a, b)


# -- failure surfacing ---------------------------------------------------------


def _crash_task(context, chunk):
    os._exit(13)


def _double_task(context, chunk):
    return [value * 2 for value in chunk]


def _boom_task(context, chunk):
    raise ParameterError("inner failure")


class TestFailureSurfacing:
    def test_worker_crash_raises_typed_error_without_deadlock(self):
        with ProcessBackend(2, mp_context="fork") as backend:
            envelope = TaskEnvelope(fn=_crash_task, label="crash-test")
            with pytest.raises(WorkerCrashError):
                backend.map_chunks(envelope, [[1], [2], [3]])
            # the broken pool was discarded: the next call restarts workers
            healthy = TaskEnvelope(fn=_double_task, label="recovery")
            assert backend.map_chunks(healthy, [[1, 2], [3]]) == [[2, 4], [6]]

    def test_unpicklable_envelope_is_a_typed_error(self):
        local_fn = lambda context, chunk: chunk  # noqa: E731
        with ProcessBackend(2, mp_context="fork") as backend:
            with pytest.raises(ParallelError):
                backend.map_chunks(
                    TaskEnvelope(fn=local_fn, label="unpicklable"), [[1]]
                )

    def test_task_exceptions_propagate_unchanged(self):
        with ProcessBackend(2, mp_context="fork") as backend:
            with pytest.raises(ParameterError, match="inner failure"):
                backend.map_chunks(
                    TaskEnvelope(fn=_boom_task, label="boom"), [[1], [2]]
                )


# -- resolution and defaults ---------------------------------------------------


class TestResolution:
    def test_names_resolve(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("process").workers == (os.cpu_count() or 1)
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            resolve_backend("gpu")
        with pytest.raises(ParameterError):
            resolve_backend("thread")
        with pytest.raises(ParameterError):
            resolve_backend(42)

    def test_workers_validated(self):
        with pytest.raises(ParameterError):
            ProcessBackend(0)


# -- cross-backend telemetry equivalence ---------------------------------------


def _telemetry_scheme() -> SMatch:
    # expansion_bits > 0 gives the OPE descent real split points, so the
    # node cache is exercised and its counters are non-trivially non-zero
    return SMatch(
        SMatchParams(
            schema=SCHEMA, theta=8, plaintext_bits=32, ope_expansion_bits=8
        ),
        rng=SystemRandomSource(41),
    )


@pytest.fixture(scope="module")
def distinct_profiles():
    # every pair far outside theta: each profile lands in its own key
    # group, so the OPE cache namespaces (keyed per ProfileKey) are
    # chunk-local and hit/miss totals cannot depend on which worker's
    # cache served a lookup — the property that makes the counters
    # backend-invariant
    return [
        Profile(
            i,
            SCHEMA,
            (400 * i % 4096, (700 * i + 13) % 4096, (1100 * i + 29) % 4096),
        )
        for i in range(1, 10)
    ]


def _traced_enroll(backend, distinct_profiles):
    """Enroll under a fresh tracer + registry; returns (uploads, counters,
    span records, root ops)."""
    from repro.obs.metrics import (
        MetricsRegistry,
        disable_metrics,
        enable_metrics,
    )
    from repro.obs.trace import tracing

    registry = enable_metrics(MetricsRegistry())
    try:
        with tracing("test.enroll") as tracer:
            uploads, _ = _telemetry_scheme().enroll_population(
                distinct_profiles, backend=backend, seed=99, chunk_size=3
            )
        records = [
            __import__("json").loads(line)
            for line in tracer.to_jsonl().splitlines()
        ]
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    root_ops = next(r["ops"] for r in records if r["parent"] is None)
    return uploads, counters, records, root_ops


class TestTelemetryEquivalence:
    """Counters and span forests are truthful across execution backends.

    ``smatch_parallel_*``, ``smatch_ope_cache_*_total``, and
    ``smatch_enroll_*`` measure the *work*, so a seeded batch must report
    identical totals whether it ran serially or fanned out to worker
    processes; only ``smatch_obs_worker_spans_total`` (the collection
    mechanism) legitimately differs, and gauges like cache ``entries`` may
    (one big serial cache vs per-worker caches merged by max).  Worker
    spans splice into the parent trace under the submitting span, tagged
    with the worker's identity.
    """

    _WORK_PREFIXES = ("smatch_parallel_", "smatch_ope_cache_", "smatch_enroll_")

    @classmethod
    def _work_counters(cls, counters):
        return {
            name: value
            for name, value in counters.items()
            if name.startswith(cls._WORK_PREFIXES)
        }

    @pytest.fixture(scope="class")
    def serial_telemetry(self, distinct_profiles):
        return _traced_enroll(SerialBackend(), distinct_profiles)

    # one worker runs all three chunks through one warm OPE cache; four
    # workers spread them over private caches merged back by the parent
    @pytest.mark.parametrize("workers", [4, 1], ids=["process", "process-1"])
    def test_counters_match_serial(
        self, workers, serial_telemetry, distinct_profiles
    ):
        with ProcessBackend(workers, mp_context="fork") as backend:
            uploads, counters, _, root_ops = _traced_enroll(
                backend, distinct_profiles
            )
        s_uploads, s_counters, _, s_root_ops = serial_telemetry
        assert uploads == s_uploads
        assert self._work_counters(counters) == self._work_counters(s_counters)
        # the cache genuinely ran: equality of zeros would prove nothing
        assert counters["smatch_ope_cache_hits_total"] > 0
        assert counters["smatch_parallel_chunks_total"] == 3
        assert counters["smatch_parallel_tasks_total"] == 9
        # ops folded through spliced worker spans reach the root intact
        assert root_ops == s_root_ops

    def test_process_worker_spans_spliced_and_tagged(self, distinct_profiles):
        with ProcessBackend(4, mp_context="fork") as backend:
            _, counters, records, _ = _traced_enroll(
                backend, distinct_profiles
            )
        chunk_spans = [r for r in records if r["name"] == "parallel.chunk"]
        assert len(chunk_spans) == 3  # one per chunk
        map_ids = {r["id"] for r in records if r["name"] == "parallel.map"}
        for record in chunk_spans:
            assert record["parent"] in map_ids
            assert record["attrs"]["worker"].startswith("pid-")
            assert record["attrs"]["label"] == "scheme.enroll_population"
        # every spliced span (chunk roots plus the worker-side subtrees
        # under them) is counted by the collection-mechanism metric
        parents = {r["id"]: r.get("parent") for r in records}
        chunk_ids = {r["id"] for r in chunk_spans}

        def in_worker_subtree(span_id):
            while span_id is not None:
                if span_id in chunk_ids:
                    return True
                span_id = parents.get(span_id)
            return False

        spliced = sum(1 for r in records if in_worker_subtree(r["id"]))
        assert counters["smatch_obs_worker_spans_total"] == spliced >= 3

    def test_serial_has_no_worker_span_accounting(self, serial_telemetry):
        _, counters, records, _ = serial_telemetry
        assert "smatch_obs_worker_spans_total" not in counters
        assert all("worker" not in r["attrs"] for r in records)


# -- shard-tier telemetry equivalence ------------------------------------------


@pytest.fixture(scope="module")
def grouped_uploads():
    # six key groups of five identical profiles each: enough groups that
    # the two-shard placement puts some on each shard
    profiles = [
        Profile(
            10 * group + member,
            SCHEMA,
            (300 * group + 40, 500 * group + 400, (700 * group + 29) % 4096),
        )
        for group in range(1, 7)
        for member in range(5)
    ]
    uploads, _ = _scheme().enroll_population(
        profiles, backend="serial", seed=5
    )
    return [uploads[uid] for uid in sorted(uploads)]


def _traced_shard_round(mode, uploads):
    """A traced put_batch + query_bulk on a two-shard tier; returns
    (results, span-name counts, counters, shards touched)."""
    from collections import Counter

    from repro.obs.metrics import (
        MetricsRegistry,
        disable_metrics,
        enable_metrics,
    )
    from repro.obs.trace import tracing
    from repro.server.sharding import ShardedTier

    registry = enable_metrics(MetricsRegistry())
    try:
        with ShardedTier(shards=2, mode=mode) as tier:
            with tracing("test.shards") as tracer:
                tier.put_batch(uploads)
                results = tier.query_bulk(
                    [payload.user_id for payload in uploads], k=3
                )
            touched = sum(1 for sizes in tier.shard_sizes().values() if sizes)
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    names = Counter(record["name"] for record in tracer.span_records())
    return results, names, counters, touched


class TestShardTierTelemetryEquivalence:
    """Process-mode shards account for every span inline shards record.

    The tier fans multi-shard batches out on pool threads, which have no
    tracer of their own; each thread captures its spans (the shard
    worker's spliced subtree included) and the coordinator splices them
    under the open tier span.  Process mode adds its own mechanism spans
    (the per-thread root, ``parallel.map``/``parallel.chunk``), but every
    span name inline mode records must appear exactly as often.
    """

    def test_process_shard_spans_match_inline(self, grouped_uploads):
        inline = _traced_shard_round("inline", grouped_uploads)
        process = _traced_shard_round("process", grouped_uploads)
        results, names, counters, touched = inline
        assert touched == 2  # the fan-out really crossed both shards
        assert process[0] == results
        missing = {
            name: (count, process[1][name])
            for name, count in names.items()
            if process[1][name] != count
        }
        assert not missing
        assert names["server.shard_tier.put_batch"] == 1
        assert len(names) > 2  # the shards' own spans, not just the tier's
        shard_counters = {
            name: value
            for name, value in counters.items()
            if name.startswith("smatch_shard_")
        }
        assert shard_counters["smatch_shard_ops_total"] == len(grouped_uploads)
        assert {
            name: process[2].get(name) for name in shard_counters
        } == shard_counters
