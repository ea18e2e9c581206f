"""The end-to-end benchmark: one command, four seeded workloads.

    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in its own process, first
untraced (end-to-end metrics) and then traced (per-layer metrics), and the
command exits non-zero if any run fails or any check finds a wrong result.

With ``--workload`` one workload runs in this process.  It prints a report
that names every metric with its unit, writes the report and the run's
provenance to ``perfbench/out/``, and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run
also keeps its trace as JSONL next to the report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> (module, class), in the order the full run takes them.
WORKLOADS = {
    "roundtrip": ("roundtrip", "Roundtrip"),
    "churn": ("churn", "Churn"),
    "durable_churn": ("churn", "DurableChurn"),
    "bulk_enroll": ("bulk_enroll", "BulkEnroll"),
}

#: Environment variables that would switch the program's backend, its
#: shared-memory transport or its telemetry; every run has them unset.
PINNED_UNSET = ("SMATCH_BACKEND", "SMATCH_SHM", "SMATCH_OBS")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration bursts taken before and after each set-up.
SETUP_BURSTS = 4

#: The end-to-end metrics, in the order of ``BENCHMARK.json``.  Both times
#: are in reference seconds (see ``harness.calibrate``).  Every workload is
#: a closed loop with one client, so ``ops_per_s`` is the reciprocal of the
#: mean latency of one unit.  The per-path latencies are in the report only,
#: in wall time: over ten seeds on a shared 2-core host their medians spread
#: by up to 0.4 of their median and their tails by up to 0.45, more than a
#: bound may allow.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("rss_mb", "MiB"),
)


def git_head() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def load(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def close(workload) -> None:
    """Close a workload and wait for every process it started."""
    from harness import stop_children

    workload.close()
    stop_children()


def set_up(cls, seed: int) -> Tuple[object, float, float]:
    """A fresh workload, its set-up wall time, and that in reference s.

    The host's slowdown is taken from calibration bursts right before and
    right after the set-up.
    """
    from harness import REFERENCE_BURST_NS, calibrate

    bursts = [calibrate() for _ in range(SETUP_BURSTS)]
    started = time.perf_counter()
    workload = cls(seed)
    wall_s = time.perf_counter() - started
    bursts += [calibrate() for _ in range(SETUP_BURSTS)]
    reference_s = wall_s * REFERENCE_BURST_NS / statistics.fmean(bursts)
    return workload, wall_s, reference_s


def untraced(cls, seed: int, seconds: float) -> dict:
    """Set up, run one timed phase, then set up ``SETUP_REPEATS - 1`` more.

    ``setup_s`` is the median set-up and ``ops_per_s`` the phase's rate,
    both in reference seconds; the report also gives them in wall time.
    The report's latency percentiles are taken over the whole phase, where
    each tail has at least 10 samples beyond it.
    """
    from harness import measure, peak_rss_mb, percentile

    workload, setup_wall, setup_ref = set_up(cls, seed)
    setups_wall, setups = [setup_wall], [setup_ref]
    try:
        phase, phase_s = measure(workload, seconds)
        workload.finish()
        # before the checks build their oracle, and before the extra
        # set-ups: a closed durable_churn tier leaves the process some
        # 5 MiB larger, by an amount that varies from run to run
        rss_mb = peak_rss_mb()
        checks = workload.check()
        run = _describe(workload)
        recover_s = getattr(workload, "recover_s", None)
    finally:
        close(workload)
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        extra, setup_wall, setup_ref = set_up(cls, seed)
        close(extra)
        setups_wall.append(setup_wall)
        setups.append(setup_ref)

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.completed / phase_s,
        "rss_mb": rss_mb,
    }
    report = {
        "setup_s": (metrics["setup_s"], "s"),
        "setup_s.wall": (statistics.median(setups_wall), "s"),
        "ops_per_s": (metrics["ops_per_s"], "1/s"),
        "ops_per_s.wall": (phase.ops_per_s, "1/s"),
        "host.slowdown": (phase.wall_s / phase_s, "x"),
    }
    for series, (label, scale) in cls.series.items():
        samples = phase.latency_ns[series]
        unit = label.rsplit("_", 1)[1]
        for pct in (50, cls.tail_pct):
            report[f"{label}.p{pct:g}"] = (percentile(samples, pct) / scale, unit)
    if recover_s is not None:
        report["recover_s"] = (recover_s, "s")
    report["rss_mb"] = (rss_mb, "MiB")
    run.update(
        setups_s=setups,
        setups_wall_s=setups_wall,
        samples={series: len(phase.latency_ns[series]) for series in cls.series},
    )
    return {
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END
        },
        "report": report,
        "phases": [phase],
        "checks": checks,
        "run": run,
    }


def traced(cls, seed: int, seconds: float) -> dict:
    """One untraced and one traced phase of ``seconds / 2`` each."""
    import ledger
    from harness import OUT_DIR, measure
    from repro.obs.metrics import disable_metrics, enable_metrics
    from repro.obs.trace import tracing

    replayed = "smatch_shard_wal_replayed_total"
    with tracing("perfbench.setup", workload=cls.name) as setup_tracer:
        workload = cls(seed)
    try:
        build_ms = (
            ledger.Traced(setup_tracer.span_records(), {}, 0, {}, {}).mean_us(
                "experiments.build_scheme"
            )
            / 1000
        )
        half = seconds / 2
        plain, plain_s = measure(workload, half, workload.trace_limit)
        registry = enable_metrics()
        try:
            with tracing(f"perfbench.{cls.name}", seed=seed) as tracer:
                phase, traced_s = measure(workload, half, workload.trace_limit)
            counters = registry.snapshot()["counters"]
            extra = workload.layer_extras()
            workload.finish()
            extra["replayed_records"] = registry.snapshot()["counters"].get(
                replayed, 0
            ) - counters.get(replayed, 0)
        finally:
            disable_metrics()
        checks = workload.check()
        run = _describe(workload)
    finally:
        close(workload)
    extra["build_scheme_ms"] = build_ms
    extra["trace_overhead"] = ledger.per(
        ledger.per(traced_s, phase.completed),
        ledger.per(plain_s, plain.completed),
    )
    records = tracer.span_records()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"{cls.name}-seed{seed}.trace.jsonl"
    trace_path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
    metrics = ledger.compute(
        ledger.Traced(
            records=records,
            ops=tracer.root.ops,
            sent_bytes=tracer.root.bytes_io.get("sent", 0),
            counters=counters,
            counts=phase.counts,
            extra=extra,
        )
    )
    run.update(
        trace=str(trace_path.relative_to(ROOT)),
        spans=len(records),
        counts=dict(phase.counts),
    )
    return {
        "metrics": metrics,
        "report": {k: (v["value"], v["unit"]) for k, v in metrics.items()},
        "phases": [plain, phase],
        "checks": checks,
        "run": run,
    }


def _describe(workload) -> Dict[str, object]:
    run = {"input_hash": workload.input_hash()}
    run.update(workload.describe())
    return run


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from harness import OUT_DIR, nproc, shm_segments

    cls = load(name)
    shm_before = shm_segments()
    outcome = (traced if trace else untraced)(cls, seed, seconds)
    leaked = sorted(shm_segments() - shm_before)
    phases = outcome["phases"]
    failures = dict(outcome["checks"])
    failures["raised"] = sum(p.failed for p in phases)
    failures["shm_segments_left"] = len(leaked)
    attempted = sum(p.attempted for p in phases)
    failed = sum(failures.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "git_head": git_head(),
        "pinned_unset": list(PINNED_UNSET),
    }
    provenance.update(outcome["run"])
    print(
        f"perfbench {name} seed={seed} seconds={seconds:g} trace={trace} "
        f"nproc={provenance['nproc']} python={provenance['python']} "
        f"input={provenance['input_hash'][:16]}"
    )
    for metric, (value, unit) in outcome["report"].items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<42} {failed:>8}/{attempted} failed/attempted")
    for check, count in failures.items():
        if count:
            print(f"  FAILED {check}: {count}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(
            {
                "provenance": provenance,
                "result": result,
                "report": outcome["report"],
                "failures": failures,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload",
                    name,
                    "--seed",
                    str(seed),
                    "--seconds",
                    f"{seconds:g}",
                    "--trace",
                    str(trace),
                ],
                stdout=subprocess.PIPE,
                text=True,
                check=False,
            )
            sys.stdout.write(done.stdout)
            lines = done.stdout.splitlines()
            if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"perfbench: {SRC / 'repro'} is missing; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    for name in PINNED_UNSET:
        os.environ.pop(name, None)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    from harness import stop_children

    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    finally:
        # a set-up that raised left its workers and the tracker running
        stop_children()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
