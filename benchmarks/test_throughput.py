"""Operational throughput: the numbers a deployment would size against.

Not a paper figure — a genuine pytest-benchmark suite measuring the three
hot paths of a running service at the paper's parameters (64-bit
plaintexts, theta = 8): client enrollment, server query handling, and
client-side verification — plus the head-to-head pairs of the performance
layer (docs/PERFORMANCE.md): OPE encryption with the node cache on vs off,
``enroll_population`` on the serial backend vs a warmed process pool,
churn-then-query with the incremental matcher vs a forced full resort, and
the sharded server tier (upload + bulk query across process shards) vs one
bare store + matcher.  The cold-query and churn numbers time a bare
``ProfileStore`` + ``ServerMatcher`` (Algorithm Match itself); the warm
query goes through the server's request handler.

The suite runs under an active :mod:`repro.obs` metrics registry and ends
by writing ``benchmarks/results/BENCH_throughput.json`` — measured per-op
latencies, the comparison ratios under ``speedups``, a machine-speed
calibration sample, and the metrics snapshot — which
``tools/check_perf_trend.py`` compares against the committed baseline in
CI (and, on a >= 4-core runner, enforces the
``process_enroll_speedup >= 2.0`` and ``sharded_upload_query_speedup >= 1.5``
floors; the measured values are recorded unconditionally).
"""

import dataclasses
import hashlib
import json
import os
import time

import pytest

from repro.crypto.kdf import sha256
from repro.datasets import INFOCOM06
from repro.experiments.common import build_population, build_scheme
from repro.net.messages import QueryRequest, UploadMessage
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.parallel import ProcessBackend
from repro.server.matcher import ServerMatcher
from repro.server.service import SMatchServer
from repro.server.sharding import ShardedTier
from repro.server.storage import ProfileStore

#: Worker count for the multicore head-to-heads (capped: oversubscribing a
#: small runner just measures scheduler thrash).
BENCH_WORKERS = min(4, os.cpu_count() or 1)

#: Shard count for the sharded-tier head-to-head: one shard per bench
#: worker, but never fewer than two (a one-shard "sharded" run measures
#: only the routing overhead, not the fan-out).
BENCH_SHARDS = max(2, BENCH_WORKERS)

#: Population multiplier for the sharded head-to-head: the 40-user world
#: tiled ``SHARD_TILE_COPIES`` times.  Copies map onto
#: ``SHARD_GROUP_TILES`` distinct key-index tiles per original group, so
#: the tiled groups are both *numerous* (placement spread across the
#: shards) and *large* (copies / tiles members per original member —
#: enough that the per-group rescore work a churn batch triggers
#: dominates the coordinator's fan-out overhead).
SHARD_TILE_COPIES = 128
SHARD_GROUP_TILES = 4


def _tiled_payloads(uploads, copies, group_tiles):
    """Tile the world's payloads with fresh uids over ``group_tiles`` groups."""
    tiled = []
    for copy in range(copies):
        for uid in sorted(uploads):
            payload = uploads[uid]
            new_uid = uid + 1_000_000 * copy
            tiled.append(
                dataclasses.replace(
                    payload,
                    user_id=new_uid,
                    # the authenticator is bound to its uid; rebind the
                    # copy (the bench never runs Vf on tiled entries)
                    auth=dataclasses.replace(payload.auth, user_id=new_uid),
                    key_index=sha256(
                        b"bench-shard-tile",
                        (copy % group_tiles).to_bytes(4, "big")
                        + payload.key_index,
                    ),
                )
            )
    return tiled


@pytest.fixture(scope="module")
def metrics_registry():
    registry = enable_metrics()
    yield registry
    disable_metrics()


@pytest.fixture(scope="module")
def world(metrics_registry):
    pop = build_population(INFOCOM06, seed=33)
    users = pop.generate(40)
    scheme = build_scheme(INFOCOM06, schema=pop.schema, seed=33)
    uploads, keys = scheme.enroll_population([u.profile for u in users])
    server = SMatchServer(query_k=5)
    for payload in uploads.values():
        server.handle_upload(UploadMessage(payload=payload))
    return pop, users, scheme, uploads, keys, server


@pytest.fixture(scope="module")
def engine(world):
    """The world's uploads in a bare ``ProfileStore`` + ``ServerMatcher``."""
    _, _, _, uploads, _, _ = world
    store = ProfileStore()
    matcher = ServerMatcher(store)
    for payload in uploads.values():
        store.put(payload)
    return store, matcher


@pytest.fixture(scope="module")
def ope_worlds(metrics_registry):
    """Two schemes with a real (expanded-range) OPE: node cache on and off.

    The default throughput world runs the paper's N = M setting where OPE
    degenerates to the identity, so the cache comparison needs the expanded
    range (16 extra bits) that gives the descent actual split points.
    """
    pop = build_population(INFOCOM06, seed=33)
    profile = pop.generate(1)[0].profile
    on = build_scheme(
        INFOCOM06, schema=pop.schema, seed=33, ope_expansion_bits=16
    )
    off = build_scheme(
        INFOCOM06,
        schema=pop.schema,
        seed=33,
        ope_expansion_bits=16,
        ope_cache=False,
    )
    key = on.keygen(profile)
    mapped = on.init_data(profile)
    on.encrypt(profile, key, mapped)  # warm the cache once
    return on, off, profile, key, mapped


def _timed_us(fn, *args, iterations=5):
    """Total/mean wall time of ``iterations`` calls, integer microseconds."""
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn(*args)
    total_us = (time.perf_counter_ns() - start) // 1000
    return {
        "iterations": iterations,
        "total_us": total_us,
        "per_op_us": total_us // iterations,
    }


def _calibration_us():
    """A fixed pure-Python workload timing machine speed, for trend scaling."""
    start = time.perf_counter_ns()
    digest = b"\x00" * 32
    for _ in range(2000):
        digest = hashlib.sha256(digest).digest()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return max(1, (time.perf_counter_ns() - start) // 1000)


def _biggest_group(store):
    """(key_index, members dict) of the largest key group."""
    return max(store.groups(), key=lambda pair: len(pair[1]))


def test_enrollment_throughput(benchmark, world):
    _, users, scheme, _, _, _ = world
    profile = users[0].profile
    payload, _ = benchmark(scheme.enroll, profile)
    assert payload.user_id == profile.user_id


def test_warm_query_throughput(benchmark, world):
    _, users, _, _, _, server = world
    request = QueryRequest(
        query_id=1, timestamp=0, user_id=users[0].profile.user_id
    )
    server.handle_query(request)  # warm the sort cache
    result = benchmark(server.handle_query, request)
    assert result.query_id == 1


def test_cold_query_throughput(benchmark, world, engine):
    _, users, _, _, _, server = world
    _, matcher = engine
    uid = users[0].profile.user_id

    def cold_query():
        matcher.invalidate()
        return matcher.match(uid, server.query_k)

    result = benchmark(cold_query)
    assert uid not in result


def test_verification_throughput(benchmark, world):
    _, users, scheme, uploads, keys, server = world
    uid = users[0].profile.user_id
    result = server.handle_query(
        QueryRequest(query_id=3, timestamp=0, user_id=uid)
    )
    if not result.entries:
        pytest.skip("query user is in a singleton group")
    entry = result.entries[0]
    verdict = benchmark(scheme.verify, entry.auth, keys[uid])
    assert isinstance(verdict, bool)


def test_upload_message_encode_throughput(benchmark, world):
    _, _, _, uploads, _, _ = world
    payload = next(iter(uploads.values()))
    message = UploadMessage(payload=payload)
    encoded = benchmark(message.encode)
    assert len(encoded) > 0


def test_ope_cache_speeds_up_encrypt(benchmark, ope_worlds):
    """The warmed node cache beats the raw HMAC descent by >= 2x."""
    on, off, profile, key, mapped = ope_worlds
    cached = _timed_us(on.encrypt, profile, key, mapped, iterations=20)
    uncached = _timed_us(off.encrypt, profile, key, mapped, iterations=20)
    assert on.encrypt(profile, key, mapped) == off.encrypt(profile, key, mapped)
    benchmark.pedantic(on.encrypt, args=(profile, key, mapped), rounds=5)
    assert cached["per_op_us"] * 2 <= uncached["per_op_us"], (cached, uncached)


def test_incremental_matcher_beats_resort(benchmark, world, engine):
    """Churn + query via incremental maintenance beats a forced resort 2x."""
    _, _, _, uploads, _, server = world
    store, matcher = engine
    _, members = _biggest_group(store)
    if len(members) < 3:
        pytest.skip("no group big enough for churn benchmarking")
    ids = iter(members)
    query_uid, churn_uid = next(ids), next(ids)
    churn_payload = uploads[churn_uid]
    matcher.match(query_uid, server.query_k)  # warm the group index

    def churn_incremental():
        store.remove(churn_uid)
        store.put(churn_payload)
        return matcher.match(query_uid, server.query_k)

    def churn_resort():
        store.remove(churn_uid)
        store.put(churn_payload)
        matcher.invalidate()
        return matcher.match(query_uid, server.query_k)

    incremental = _timed_us(churn_incremental, iterations=30)
    resort = _timed_us(churn_resort, iterations=30)
    matcher.match(query_uid, server.query_k)  # leave the index warm
    benchmark.pedantic(churn_incremental, rounds=5)
    assert incremental["per_op_us"] * 2 <= resort["per_op_us"], (
        incremental,
        resort,
    )


def test_emit_bench_artifact(
    world, engine, ope_worlds, metrics_registry, results_dir
):
    """Write BENCH_throughput.json: latencies, speedups, metrics snapshot."""
    pop, users, scheme, uploads, keys, server = world
    store, matcher = engine
    uid = users[0].profile.user_id
    request = QueryRequest(query_id=9, timestamp=0, user_id=uid)
    server.handle_query(request)  # warm the group index

    def cold_query():
        matcher.invalidate()
        matcher.match(uid, server.query_k)

    # -- OPE node cache: warmed hit path vs raw HMAC descent ----------------
    cache_on, cache_off, ope_profile, ope_key, ope_mapped = ope_worlds
    encrypt_on = _timed_us(
        cache_on.encrypt, ope_profile, ope_key, ope_mapped, iterations=20
    )
    encrypt_off = _timed_us(
        cache_off.encrypt, ope_profile, ope_key, ope_mapped, iterations=20
    )

    # -- batch enrollment: serial vs process backend, same seed ------------
    # The op name enroll_population_w1 predates the backend API and is kept
    # for baseline continuity (check_perf_trend compares shared op names).
    profiles = [u.profile for u in users]
    enroll_w1 = _timed_us(
        lambda: scheme.enroll_population(profiles, backend="serial", seed=77),
        iterations=1,
    )
    with ProcessBackend(BENCH_WORKERS) as process_backend:
        # Warm the pool first so the measurement captures steady-state
        # fan-out, not one-time worker spawn + key-material transfer.
        scheme.enroll_population(
            profiles[:BENCH_WORKERS], backend=process_backend, seed=77
        )
        enroll_proc = _timed_us(
            lambda: scheme.enroll_population(
                profiles, backend=process_backend, seed=77
            ),
            iterations=1,
        )

    # -- matcher churn: incremental maintenance vs forced resort ------------
    _, members = _biggest_group(store)
    ids = iter(members)
    churn_query_uid, churn_uid = next(ids), next(ids)
    churn_payload = uploads[churn_uid]
    matcher.match(churn_query_uid, server.query_k)

    def churn_incremental():
        store.remove(churn_uid)
        store.put(churn_payload)
        matcher.match(churn_query_uid, server.query_k)

    def churn_resort():
        store.remove(churn_uid)
        store.put(churn_payload)
        matcher.invalidate()
        matcher.match(churn_query_uid, server.query_k)

    churn_inc = _timed_us(churn_incremental, iterations=30)
    churn_res = _timed_us(churn_resort, iterations=30)

    # -- sharded server tier: one store vs BENCH_SHARDS process shards ------
    # A churn-then-query round against (a) one bare ProfileStore +
    # ServerMatcher answering each query with match, and (b) a ShardedTier
    # whose shard workers sort, match, and assemble result entries in
    # their own processes.  Both engines are pre-loaded with
    # the full tiled population (pools spawned, group indexes settled), so
    # a timed iteration is the steady-state serving shape: one drifted
    # re-upload per group — dirtying every group, which the following
    # queries must rescore — then a query for each of a per-group sample.
    # The rescore work is per-shard-local and scales with group size; the
    # coordinator only ships the small churn batch, the query uids, and
    # k-entry results, which is what lets the shard fan-out win.
    shard_payloads = _tiled_payloads(
        uploads, SHARD_TILE_COPIES, SHARD_GROUP_TILES
    )
    shard_groups = {}
    for payload in shard_payloads:
        shard_groups.setdefault(payload.key_index, []).append(payload)
    churn_members = [members[0] for members in shard_groups.values()]
    shard_query_uids = [
        member.user_id
        for members in shard_groups.values()
        for member in members[1:3]
    ]

    def _drift(payload, bump):
        return dataclasses.replace(
            payload, chain=tuple(c + bump for c in payload.chain)
        )

    single_store = ProfileStore()
    single_matcher = ServerMatcher(single_store)
    for payload in shard_payloads:
        single_store.put(payload)
    single_bump = [0]

    def single_upload_query():
        single_bump[0] += 1
        for payload in churn_members:
            single_store.put(_drift(payload, single_bump[0]))
        return {
            uid: single_matcher.match(uid, server.query_k)
            for uid in shard_query_uids
        }

    with ShardedTier(shards=BENCH_SHARDS, mode="process") as shard_tier:
        shard_tier.put_batch(shard_payloads)
        tier_bump = [0]

        def sharded_upload_query():
            tier_bump[0] += 1
            shard_tier.put_batch(
                [_drift(p, tier_bump[0]) for p in churn_members]
            )
            return shard_tier.query_bulk(shard_query_uids, k=server.query_k)

        # both engines run the identical op sequence; the first (warm-up)
        # iteration doubles as the equivalence check
        single_result = single_upload_query()
        sharded_result = sharded_upload_query()
        assert {
            user_id: [e.user_id for e in entries]
            for user_id, entries in sharded_result.items()
        } == single_result  # same matches before timing the engines
        shard_single = _timed_us(single_upload_query, iterations=3)
        shard_tier_timing = _timed_us(sharded_upload_query, iterations=3)

    some_payload = uploads[uid]
    ops = {
        "enroll": _timed_us(scheme.enroll, users[0].profile, iterations=3),
        "warm_query": _timed_us(server.handle_query, request),
        "cold_query": _timed_us(cold_query),
        "verify": _timed_us(scheme.verify, some_payload.auth, keys[uid]),
        "enroll_encrypt_cache_on": encrypt_on,
        "enroll_encrypt_cache_off": encrypt_off,
        "enroll_population_w1": enroll_w1,
        "enroll_population_process": enroll_proc,
        "churn_query_incremental": churn_inc,
        "churn_query_resort": churn_res,
        # "legacy" names the one-store side; kept for baseline continuity
        "sharded_upload_query_legacy": shard_single,
        "sharded_upload_query_tier": shard_tier_timing,
    }

    def ratio(numer, denom):
        return round(numer["per_op_us"] / max(1, denom["per_op_us"]), 3)

    speedups = {
        # OPE-encryption stage of enrollment (full enrollment is
        # OPRF-modexp-bound; see docs/PERFORMANCE.md for the breakdown)
        "ope_cache_encrypt": ratio(encrypt_off, encrypt_on),
        "incremental_churn_query": ratio(churn_res, churn_inc),
        # the real multicore win: a warmed process pool sidesteps the GIL
        # for the OPRF modexps.  CI enforces >= 2.0 on >= 4-core runners
        # via --min-speedup; recorded unconditionally for trend visibility.
        "process_enroll_speedup": ratio(enroll_w1, enroll_proc),
        # the sharded server tier: upload + bulk-query against
        # BENCH_SHARDS process shards vs one bare store.  CI
        # enforces >= 1.5 on >= 4-core runners via --min-speedup; on a
        # small runner the fan-out overhead dominates and the recorded
        # value can legitimately sit below 1.
        "sharded_upload_query_speedup": ratio(
            shard_single, shard_tier_timing
        ),
    }

    if cache_on.ope_cache is not None:
        cache_on.ope_cache.flush_metrics()

    artifact = {
        "suite": "throughput",
        "params": {
            "dataset": INFOCOM06.name,
            "num_users": len(users),
            "plaintext_bits": scheme.params.plaintext_bits,
            "theta": scheme.params.theta,
            "query_k": server.query_k,
            "ope_comparison_expansion_bits": 16,
            "bench_workers": BENCH_WORKERS,
            "bench_shards": BENCH_SHARDS,
            "shard_tile_copies": SHARD_TILE_COPIES,
            "shard_group_tiles": SHARD_GROUP_TILES,
        },
        "calibration_us": _calibration_us(),
        "ops": ops,
        "speedups": speedups,
        "metrics": metrics_registry.snapshot(),
    }
    path = results_dir / "BENCH_throughput.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    parsed = json.loads(path.read_text())
    assert parsed["ops"]["enroll"]["per_op_us"] > 0
    assert parsed["speedups"]["ope_cache_encrypt"] >= 2.0
    assert parsed["speedups"]["incremental_churn_query"] >= 2.0
    assert parsed["metrics"]["counters"]["smatch_server_uploads_total"] >= len(users)


def test_emit_trace_artifact(world, results_dir):
    """Record one traced bench round and write benchmarks/results/trace.jsonl.

    The trace is the attribution artifact for the perf gate: when a floor
    in ``tools/check_perf_trend.py`` fails, CI diffs this file against the
    committed ``benchmarks/baselines/trace.baseline.jsonl`` (same seeded
    workload, so the span-path forests align) and names the most-regressed
    subtree.  Refresh policy: regenerate the baseline by copying this
    file over it in the same PR as any deliberate pipeline-shape or
    performance change — never to paper over an unexplained regression.
    """
    from repro.obs.analysis import (
        build_forest,
        folded_stacks,
        parse_folded,
        render_folded,
    )
    from repro.obs.trace import span, tracing

    pop, users, scheme, uploads, keys, server = world
    profiles = [u.profile for u in users[:8]]
    with tracing("bench.throughput", suite="throughput") as tracer:
        with span("bench.enroll", population=len(profiles)):
            fresh_uploads, fresh_keys = scheme.enroll_population(
                profiles, backend="serial", seed=77
            )
        with span("bench.upload"):
            bench_server = SMatchServer(query_k=5)
            for payload in fresh_uploads.values():
                bench_server.handle_upload(UploadMessage(payload=payload))
        uid = profiles[0].user_id
        with span("bench.query"):
            result = bench_server.handle_query(
                QueryRequest(query_id=21, timestamp=0, user_id=uid)
            )
        with span("bench.verify"):
            for entry in result.entries:
                scheme.verify(entry.auth, fresh_keys[uid])
    text = tracer.to_jsonl()
    (results_dir / "trace.jsonl").write_text(text, encoding="utf-8")

    records = [json.loads(line) for line in text.splitlines()]
    names = {record["name"] for record in records}
    assert {"bench.throughput", "bench.enroll", "bench.upload", "bench.query"} <= names
    assert "scheme.enroll" in names  # the pipeline spans nest under the bench phases
    # conservation law the analysis layer guarantees: folded self-times
    # re-aggregate to exactly the root duration, integer microseconds
    roots = build_forest(records)
    assert len(roots) == 1
    folded = parse_folded(render_folded(folded_stacks(records)))
    assert sum(folded.values()) == roots[0].record["duration_us"]
