"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Every workload is shrunk to a few dozen users so the tests take seconds;
the code paths are the ones the full-size runs take.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys
from multiprocessing import resource_tracker

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bulk_enroll  # noqa: E402
import churn  # noqa: E402
import harness  # noqa: E402
import ledger  # noqa: E402
import roundtrip  # noqa: E402
import run  # noqa: E402
from repro.client.client import MobileClient, VerifiedMatches  # noqa: E402
from repro.net.messages import QueryResult, decode_message  # noqa: E402


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setattr(roundtrip, "BASE_USERS", 30)
    monkeypatch.setattr(roundtrip, "POOL_USERS", 60)
    monkeypatch.setattr(churn, "REAL_USERS", 60)
    monkeypatch.setattr(churn, "TILES", 12)
    monkeypatch.setattr(churn, "WARMUP_REQUESTS", 10)
    monkeypatch.setattr(churn.Churn, "requests", 300)
    monkeypatch.setattr(churn.DurableChurn, "requests", 300)
    monkeypatch.setattr(bulk_enroll, "COHORT_SIZE", 6)
    monkeypatch.setattr(bulk_enroll, "COHORTS", 4)


WORKLOADS = [roundtrip.Roundtrip, churn.Churn, churn.DurableChurn, bulk_enroll.BulkEnroll]


def build(cls, seed):
    workload = cls(seed)
    try:
        return workload.input_hash()
    finally:
        run.close(workload)


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda c: c.name)
def test_inputs_are_a_pure_function_of_the_seed(cls):
    first = build(cls, 1)
    assert build(cls, 1) == first
    assert build(cls, 2) != first


def test_measure_folds_its_chunks_and_counts_reference_seconds(
    monkeypatch,
):
    bursts = []

    def twice_the_reference():
        bursts.append(1)
        return 2 * harness.REFERENCE_BURST_NS

    monkeypatch.setattr(harness, "calibrate", twice_the_reference)
    monkeypatch.setattr(harness, "CHUNK_S", 1e-6)  # one request a chunk
    workload = churn.Churn(1)
    try:
        phase, reference_s = harness.measure(workload, math.inf, limit=40)
    finally:
        run.close(workload)
    assert reference_s == pytest.approx(phase.wall_s / 2)
    assert len(bursts) == 41
    assert phase.attempted == phase.completed == phase.counts["requests"] == 40
    assert sum(len(s) for s in phase.latency_ns.values()) == 40
    assert phase.counts["queries"] == len(phase.latency_ns["query"])


def test_reference_seconds_are_wall_seconds_on_the_reference_host(monkeypatch):
    monkeypatch.setattr(harness, "calibrate", lambda: harness.REFERENCE_BURST_NS)
    report = run.untraced(roundtrip.Roundtrip, 1, 0.5)["report"]
    assert report["host.slowdown"][0] == pytest.approx(1.0)
    assert report["ops_per_s"][0] == pytest.approx(report["ops_per_s.wall"][0])
    assert report["setup_s"][0] == pytest.approx(report["setup_s.wall"][0])


def flip_last_byte(result: QueryResult) -> QueryResult:
    """The result with the last byte of its encoding flipped.

    With at least one entry that byte sits in the last entry's sealed
    authenticator, so the result still decodes but no longer verifies.
    """
    raw = bytearray(result.encode())
    raw[-1] ^= 0x01
    return decode_message(bytes(raw))


class CorruptOnce:
    """Wraps a server; flips one byte of the first non-empty result."""

    def __init__(self, server):
        self.server = server
        self.done = False

    def handle_message(self, message):
        answer = self.server.handle_message(message)
        if isinstance(answer, QueryResult) and answer.entries and not self.done:
            self.done = True
            return flip_last_byte(answer)
        return answer

    def close(self):
        self.server.close()


def run_until_corrupted(workload, wrapper):
    """Run the loop until the wrapper has corrupted one result."""
    for _ in range(50):
        workload.run(math.inf, limit=20)
        if wrapper.done:
            return
    pytest.fail("no non-empty result to corrupt")


@pytest.mark.parametrize("cls", [churn.Churn, churn.DurableChurn], ids=lambda c: c.name)
def test_churn_checks_pass_and_catch_one_flipped_result_byte(cls):
    workload = cls(1)
    try:
        workload.run(math.inf, limit=50)
        workload.finish()
        assert not any(workload.check().values())
        wrapper = workload.server = CorruptOnce(workload.server)
        run_until_corrupted(workload, wrapper)
        assert workload.check()["oracle_mismatches"] == 1
    finally:
        run.close(workload)


def test_roundtrip_catches_one_flipped_result_byte():
    workload = roundtrip.Roundtrip(1)
    try:
        workload.run(math.inf, limit=5)
        assert not any(workload.check().values())
        wrapper = workload.server = CorruptOnce(workload.server)
        run_until_corrupted(workload, wrapper)
        found = workload.check()
        assert found["oracle_mismatches"] == 1
        assert found["vf_rejected_users"] == 1
    finally:
        run.close(workload)


def test_roundtrip_catches_one_wrong_vf_verdict(monkeypatch):
    verify = MobileClient.verify_results
    wrong = []

    def one_wrong(self, result):
        verdict = verify(self, result)
        if verdict.accepted and not wrong:
            wrong.append(verdict.accepted[0])
            return VerifiedMatches(
                query_id=verdict.query_id,
                accepted=verdict.accepted[1:],
                rejected=verdict.rejected + verdict.accepted[:1],
            )
        return verdict

    monkeypatch.setattr(MobileClient, "verify_results", one_wrong)
    workload = roundtrip.Roundtrip(1)
    try:
        workload.run(math.inf, limit=20)
        assert wrong
        found = workload.check()
        assert found == {"vf_rejected_users": 1, "oracle_mismatches": 0}
    finally:
        run.close(workload)


def test_durable_reopen_check_catches_a_changed_result(monkeypatch):
    workload = churn.DurableChurn(1)
    try:
        workload.run(math.inf, limit=50)
        probe = workload._probe
        calls = []

        def probe_then_corrupt():
            hashes = probe()
            if not calls:
                hashes[1] ^= 1  # one result before close differs
            calls.append(1)
            return hashes

        monkeypatch.setattr(workload, "_probe", probe_then_corrupt)
        workload.finish()
        assert workload.check()["reopen_mismatches"] == 1
    finally:
        run.close(workload)


def test_bulk_enroll_checks_catch_a_changed_upload():
    workload = bulk_enroll.BulkEnroll(1)
    try:
        workload.run(math.inf, limit=2)
        assert not any(workload.check().values())
        uid = next(iter(workload.forwarded))
        raw = bytearray(workload.forwarded[uid])
        raw[-1] ^= 0x01
        workload.forwarded[uid] = bytes(raw)
        assert workload.check()["serial_mismatches"] == 1
    finally:
        run.close(workload)


def test_close_leaves_no_process_running():
    workload = bulk_enroll.BulkEnroll(1)
    # the warm-up cohort forked the pool and, through its shared-memory
    # arena, started the resource tracker
    workers = multiprocessing.active_children()
    tracker = resource_tracker._resource_tracker._pid
    assert workers and tracker is not None
    run.close(workload)
    for pid in [w.pid for w in workers] + [tracker]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def declared():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in ledger.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace, capsys):
    argv = ["--workload", "roundtrip", "--seed", "1", "--seconds", "0.5"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    spec = declared()
    declared_metrics = spec["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared_metrics}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
