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

import hashlib
import os

import pytest

from repro.core.profile import Profile, ProfileSchema
from repro.core.scheme import SMatch, SMatchParams, profile_enroll_seed
from repro.crypto.kdf import sha256
from repro.errors import (
    ParallelError,
    ParameterError,
    WorkerCrashError,
)
from repro.net.messages import UploadMessage
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


# Four key groups; each member sits 0, 2 or 5 above a base that is 1 above
# a multiple of theta + 1, so a group's members quantize alike.  Layout by
# uid 1..10: A A B | B C A | D C C | B at chunk_size 3, so A repeats inside
# one chunk, B straddles a chunk boundary and D stands alone.
_GROUP_BASES = {
    "A": (1, 397, 3997),
    "B": (901, 1306, 2503),
    "C": (1801, 2206, 1009),
    "D": (2701, 3106, 3511),
}
_CLUSTERED_LAYOUT = "AABBCADCCB"


@pytest.fixture(scope="module")
def clustered_profiles():
    return [
        Profile(
            uid,
            SCHEMA,
            tuple(v + (0, 2, 5)[(uid - 1) % 3] for v in _GROUP_BASES[group]),
        )
        for uid, group in enumerate(_CLUSTERED_LAYOUT, start=1)
    ]


def _enrollment_digest(result):
    """SHA-256 over every upload's wire bytes, key and index, by uid."""
    uploads, keys = result
    h = hashlib.sha256()
    for uid in sorted(uploads):
        h.update(UploadMessage(payload=uploads[uid]).encode())
        h.update(keys[uid].key)
        h.update(keys[uid].index)
    return h.hexdigest()


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
        with ProcessBackend(workers) as backend:
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
        with ProcessBackend(2) as backend:
            a = _scheme().enroll_population(profiles, backend=backend)
        with ProcessBackend(3) as backend:
            b = _scheme().enroll_population(profiles, backend=backend)
        _assert_same(a, b)


# -- one OPRF evaluation per key group -----------------------------------------


class TestKeyGroupReuse:
    """A batch evaluates the OPRF once per distinct key material.

    The first profile of a chunk with a given ``K' = H(T(v))`` runs the
    RSA-CRT evaluation; later ones reuse its key but still blind, so every
    upload stays the one per-profile ``SMatch.enroll`` builds under the
    same seed.  The digests were taken before the reuse existed.
    """

    SEEDED_DIGEST = (
        "5c6eeb823e3e2543877a9cc220e5137844145774e5d7251ecd54823db1c63ff9"
    )
    UNSEEDED_DIGEST = (
        "729d60b7568965d100ba1c7566fd980c1b3b6804ed4b3a1c853f3a6dbb714e79"
    )

    @pytest.fixture(scope="class")
    def scheme(self):
        # seeded runs never draw from the instance source, so one scheme
        # (and one memoized EnrollSpec, keeping the pool warm) serves all
        return _scheme()

    @pytest.fixture(scope="class")
    def process_backend(self):
        with ProcessBackend(2) as backend:
            yield backend

    @pytest.fixture(scope="class")
    def materials(self, scheme, clustered_profiles):
        return {
            p.user_id: scheme.keygen_.derive_from_values(p.values)
            for p in clustered_profiles
        }

    def test_cohort_repeats_and_splits_key_groups(
        self, materials, clustered_profiles
    ):
        chunks = partition_chunks(
            [materials[p.user_id] for p in clustered_profiles], 3
        )
        assert len(set(materials.values())) == 4
        assert len(set(chunks[0])) < len(chunks[0])  # a repeat in a chunk
        assert set(chunks[0]) & set(chunks[1])  # a group across a boundary

    @pytest.mark.parametrize(
        "chunk_size", [1, 3, None, "len"], ids=["1", "3", "default", "len"]
    )
    @pytest.mark.parametrize("backend_name", ["serial", "process"])
    def test_batch_matches_per_profile_enroll(
        self,
        scheme,
        process_backend,
        materials,
        clustered_profiles,
        backend_name,
        chunk_size,
    ):
        from repro.obs.trace import tracing

        profiles = clustered_profiles
        backend = (
            SerialBackend() if backend_name == "serial" else process_backend
        )
        if chunk_size == "len":
            chunk_size = len(profiles)
        with tracing("test.enroll") as tracer:
            result = scheme.enroll_population(
                profiles, backend=backend, seed=77, chunk_size=chunk_size
            )
        uploads, keys = result
        assert _enrollment_digest(result) == self.SEEDED_DIGEST
        for profile in profiles:
            uid = profile.user_id
            alone = scheme.enroll(
                profile, rng=SystemRandomSource(profile_enroll_seed(77, uid))
            )
            assert uploads[uid] == alone[0]
            assert keys[uid] == alone[1]
            expected = scheme.oprf_server.unblinded_evaluate(materials[uid])
            assert keys[uid].key == expected
            assert keys[uid].index == sha256(b"smatch-key-index", expected)

        # each raw_decrypt belongs to the scheme.enroll span above it
        records = tracer.span_records()
        by_id = {r["id"]: r for r in records}

        def enrolled_user(record):
            while record["name"] != "scheme.enroll":
                record = by_id[record["parent"]]
            return record["attrs"]["user"]

        evaluated = [
            enrolled_user(r) for r in records if r["name"] == "rsa.raw_decrypt"
        ]
        size = chunk_size or balanced_chunk_size(
            len(profiles), backend.workers
        )
        chunks = partition_chunks([p.user_id for p in profiles], size)
        chunk_of = {uid: i for i, chunk in enumerate(chunks) for uid in chunk}
        assert [
            sum(chunk_of[uid] == i for uid in evaluated)
            for i in range(len(chunks))
        ] == [len({materials[uid] for uid in chunk}) for chunk in chunks]
        # and the evaluating profile is the first of its key group there
        firsts = set()
        for chunk in chunks:
            seen = {}
            for uid in chunk:
                seen.setdefault(materials[uid], uid)
            firsts.update(seen.values())
        assert sorted(evaluated) == sorted(firsts)

    def test_unseeded_sequential_call_unchanged(self, clustered_profiles):
        result = _scheme().enroll_population(clustered_profiles)
        assert _enrollment_digest(result) == self.UNSEEDED_DIGEST
        loop_scheme = _scheme()
        for profile in clustered_profiles:
            payload, key = loop_scheme.enroll(profile)
            assert result[0][profile.user_id] == payload
            assert result[1][profile.user_id] == key


# -- failure surfacing ---------------------------------------------------------


def _crash_task(context, chunk):
    os._exit(13)


def _double_task(context, chunk):
    return [value * 2 for value in chunk]


def _boom_task(context, chunk):
    raise ParameterError("inner failure")


class TestFailureSurfacing:
    def test_worker_crash_raises_typed_error_without_deadlock(self):
        with ProcessBackend(2) as backend:
            envelope = TaskEnvelope(fn=_crash_task, label="crash-test")
            with pytest.raises(WorkerCrashError):
                backend.map_chunks(envelope, [[1], [2], [3]])
            # the broken pool was discarded: the next call restarts workers
            healthy = TaskEnvelope(fn=_double_task, label="recovery")
            assert backend.map_chunks(healthy, [[1, 2], [3]]) == [[2, 4], [6]]

    def test_unpicklable_envelope_is_a_typed_error(self):
        local_fn = lambda context, chunk: chunk  # noqa: E731
        with ProcessBackend(2) as backend:
            with pytest.raises(ParallelError):
                backend.map_chunks(
                    TaskEnvelope(fn=local_fn, label="unpicklable"), [[1]]
                )

    def test_task_exceptions_propagate_unchanged(self):
        with ProcessBackend(2) as backend:
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
    # backends are compared on the descent that bulk enrollment runs
    return SMatch(
        SMatchParams(
            schema=SCHEMA, theta=8, plaintext_bits=32, ope_expansion_bits=8
        ),
        rng=SystemRandomSource(41),
    )


@pytest.fixture(scope="module")
def distinct_profiles():
    # every pair far outside theta: each profile lands in its own key group
    return [
        Profile(
            i,
            SCHEMA,
            (400 * i % 4096, (700 * i + 13) % 4096, (1100 * i + 29) % 4096),
        )
        for i in range(1, 10)
    ]


def _traced_enroll(backend, profiles):
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
                profiles, backend=backend, seed=99, chunk_size=3
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

    ``smatch_parallel_*`` and ``smatch_enroll_*`` measure the *work*, so a
    seeded batch must report identical totals whether it ran serially or
    fanned out to worker processes; only ``smatch_obs_worker_spans_total``
    (the collection mechanism) legitimately differs.  Worker spans splice
    into the parent trace under the submitting span, tagged with the
    worker's identity.
    """

    _WORK_PREFIXES = ("smatch_parallel_", "smatch_enroll_")

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

    @pytest.fixture(scope="class")
    def serial_clustered_telemetry(self, clustered_profiles):
        return _traced_enroll(SerialBackend(), clustered_profiles)

    def _assert_matches_serial(self, workers, serial, profiles):
        with ProcessBackend(workers) as backend:
            uploads, counters, _, root_ops = _traced_enroll(backend, profiles)
        s_uploads, s_counters, _, s_root_ops = serial
        assert uploads == s_uploads
        assert self._work_counters(counters) == self._work_counters(s_counters)
        # the compared counters are non-zero: equality of zeros would prove
        # nothing
        assert counters["smatch_parallel_chunks_total"] == len(
            partition_chunks(profiles, 3)
        )
        assert counters["smatch_parallel_tasks_total"] == len(profiles)
        # ops folded through spliced worker spans reach the root intact
        assert root_ops == s_root_ops
        return root_ops

    # one worker runs all three chunks; four workers spread them out
    @pytest.mark.parametrize("workers", [4, 1], ids=["process", "process-1"])
    def test_counters_match_serial(
        self, workers, serial_telemetry, distinct_profiles
    ):
        self._assert_matches_serial(
            workers, serial_telemetry, distinct_profiles
        )

    @pytest.mark.parametrize("workers", [4, 1], ids=["process", "process-1"])
    def test_clustered_batch_counters_match_serial(
        self, workers, serial_clustered_telemetry, clustered_profiles
    ):
        root_ops = self._assert_matches_serial(
            workers, serial_clustered_telemetry, clustered_profiles
        )
        # six modexps per profile (blind, two CRT halves, the finalize
        # check, Auth's two), less three for each profile whose key group
        # already ran in its chunk: A A B | B C A | D C C | B repeats twice
        assert root_ops["modexp"] == 6 * 10 - 3 * 2

    def test_process_worker_spans_spliced_and_tagged(self, distinct_profiles):
        with ProcessBackend(4) as backend:
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
    """A traced put_batch + per-user queries on a two-shard tier; returns
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
                results = {
                    payload.user_id: tier.query(payload.user_id, k=3)
                    for payload in uploads
                }
            touched = sum(1 for sizes in tier.shard_sizes().values() if sizes)
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    names = Counter(record["name"] for record in tracer.span_records())
    return results, names, counters, touched


def _traced_durable_round(mode, uploads, data_dir):
    """A traced two-shard durable tier: one batch big enough to snapshot
    each shard, a close, a reopen and per-user queries; returns (results,
    counts of the ``server.sharding.*`` span names)."""
    from collections import Counter

    from repro.obs.trace import tracing
    from repro.server.sharding import ShardedTier
    from repro.server.sharding.state import DEFAULT_SNAPSHOT_EVERY

    # every group holds five uploads: each group alone passes the floor
    repeats = -(-DEFAULT_SNAPSHOT_EVERY // 5)
    with tracing("test.durable") as tracer:
        with ShardedTier(shards=2, mode=mode, data_dir=data_dir) as tier:
            tier.put_batch(uploads * repeats)
        with ShardedTier(shards=2, mode=mode, data_dir=data_dir) as tier:
            results = {
                payload.user_id: tier.query(payload.user_id, k=3)
                for payload in uploads
            }
    names = Counter(
        record["name"]
        for record in tracer.span_records()
        if record["name"].startswith("server.sharding.")
    )
    return results, names


class TestShardTierTelemetryEquivalence:
    """Process-mode shards account for every span inline shards record.

    The tier calls each touched shard in turn on the calling thread.  A
    process shard's worker captures its spans and ships them back with
    the result, and ``ProcessBackend`` splices them under its
    ``parallel.map`` span, as it does for any chunk.  Process mode adds
    only those mechanism spans (``parallel.map``/``parallel.chunk``):
    every span name inline mode records must appear exactly as often.
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
        assert "server.shard_tier.shard" not in process[1]
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

    def test_process_shard_durable_spans_match_inline(
        self, grouped_uploads, tmp_path
    ):
        inline = _traced_durable_round(
            "inline", grouped_uploads, tmp_path / "inline"
        )
        process = _traced_durable_round(
            "process", grouped_uploads, tmp_path / "process"
        )
        assert process == inline
        results, names = inline
        assert all(results.values())
        # both shards committed once and snapshotted once, and both opens
        # recovered both shards
        assert names == {
            "server.sharding.wal_commit": 2,
            "server.sharding.snapshot": 2,
            "server.sharding.snapshot_encode": 2,
            "server.sharding.snapshot_write": 2,
            "server.sharding.recover": 4,
        }
