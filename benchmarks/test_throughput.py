"""Operational throughput: the numbers a deployment would size against.

Not a paper figure — a genuine pytest-benchmark suite measuring the three
hot paths of a running service at the paper's parameters (64-bit
plaintexts, theta = 8): client enrollment, server query handling, and
client-side verification — plus the head-to-head pairs of the performance
layer (docs/PERFORMANCE.md): ``enroll_population`` on the serial backend
vs a warmed process pool, and churn-then-query with the incremental
matcher vs a forced full resort.  The cold-query and churn numbers time
a bare ``ProfileStore`` (Algorithm Match itself); the warm query goes
through the server's request handler.

The suite runs under an active :mod:`repro.obs` metrics registry and ends
by writing ``benchmarks/results/BENCH_throughput.json`` — measured per-op
latencies, the comparison ratios under ``speedups``, a machine-speed
calibration sample, and the metrics snapshot — which
``tools/check_perf_trend.py`` compares against the committed baseline in
CI (and, on a >= 4-core runner, enforces the
``process_enroll_speedup >= 2.0`` floor; the measured value is recorded
unconditionally).
"""

import hashlib
import json
import os
import time

import pytest

from repro.datasets import INFOCOM06
from repro.experiments.common import build_population, build_scheme
from repro.net.messages import QueryRequest, UploadMessage
from repro.obs.metrics import disable_metrics, enable_metrics
from repro.parallel import ProcessBackend
from repro.server.service import SMatchServer
from repro.server.storage import ProfileStore

#: Worker count for the multicore head-to-heads (capped: oversubscribing a
#: small runner just measures scheduler thrash).
BENCH_WORKERS = min(4, os.cpu_count() or 1)


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
    """The world's uploads in a bare ``ProfileStore``."""
    _, _, _, uploads, _, _ = world
    store = ProfileStore()
    for payload in uploads.values():
        store.put(payload)
    return store


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
    """(key_index, members dict) of the largest key group, copied: the
    benchmarks churn the group while holding it."""
    key_index, group = max(store.groups(), key=lambda pair: len(pair[1]))
    return key_index, dict(group)


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
    store = engine
    uid = users[0].profile.user_id

    def cold_query():
        store.invalidate()
        return store.match(uid, server.query_k)

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


def test_incremental_matcher_beats_resort(benchmark, world, engine):
    """Churn + query via incremental maintenance beats a forced resort 2x."""
    _, _, _, uploads, _, server = world
    store = engine
    _, members = _biggest_group(store)
    if len(members) < 3:
        pytest.skip("no group big enough for churn benchmarking")
    ids = iter(members)
    query_uid, churn_uid = next(ids), next(ids)
    churn_payload = uploads[churn_uid]
    store.match(query_uid, server.query_k)  # warm the group index

    def churn_incremental():
        store.remove(churn_uid)
        store.put(churn_payload)
        return store.match(query_uid, server.query_k)

    def churn_resort():
        store.remove(churn_uid)
        store.put(churn_payload)
        store.invalidate()
        return store.match(query_uid, server.query_k)

    incremental = _timed_us(churn_incremental, iterations=30)
    resort = _timed_us(churn_resort, iterations=30)
    store.match(query_uid, server.query_k)  # leave the index warm
    benchmark.pedantic(churn_incremental, rounds=5)
    assert incremental["per_op_us"] * 2 <= resort["per_op_us"], (
        incremental,
        resort,
    )


def test_emit_bench_artifact(world, engine, metrics_registry, results_dir):
    """Write BENCH_throughput.json: latencies, speedups, metrics snapshot."""
    pop, users, scheme, uploads, keys, server = world
    store = engine
    uid = users[0].profile.user_id
    request = QueryRequest(query_id=9, timestamp=0, user_id=uid)
    server.handle_query(request)  # warm the group index

    def cold_query():
        store.invalidate()
        store.match(uid, server.query_k)

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
    store.match(churn_query_uid, server.query_k)

    def churn_incremental():
        store.remove(churn_uid)
        store.put(churn_payload)
        store.match(churn_query_uid, server.query_k)

    def churn_resort():
        store.remove(churn_uid)
        store.put(churn_payload)
        store.invalidate()
        store.match(churn_query_uid, server.query_k)

    churn_inc = _timed_us(churn_incremental, iterations=30)
    churn_res = _timed_us(churn_resort, iterations=30)

    some_payload = uploads[uid]
    ops = {
        "enroll": _timed_us(scheme.enroll, users[0].profile, iterations=3),
        "warm_query": _timed_us(server.handle_query, request),
        "cold_query": _timed_us(cold_query),
        "verify": _timed_us(scheme.verify, some_payload.auth, keys[uid]),
        "enroll_population_w1": enroll_w1,
        "enroll_population_process": enroll_proc,
        "churn_query_incremental": churn_inc,
        "churn_query_resort": churn_res,
    }

    def ratio(numer, denom):
        return round(numer["per_op_us"] / max(1, denom["per_op_us"]), 3)

    speedups = {
        "incremental_churn_query": ratio(churn_res, churn_inc),
        # the real multicore win: a warmed process pool sidesteps the GIL
        # for the OPRF modexps.  CI enforces >= 2.0 on >= 4-core runners
        # via --min-speedup; recorded unconditionally for trend visibility.
        "process_enroll_speedup": ratio(enroll_w1, enroll_proc),
    }

    artifact = {
        "suite": "throughput",
        "params": {
            "dataset": INFOCOM06.name,
            "num_users": len(users),
            "plaintext_bits": scheme.params.plaintext_bits,
            "theta": scheme.params.theta,
            "query_k": server.query_k,
            "bench_workers": BENCH_WORKERS,
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
