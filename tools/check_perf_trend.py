"""CI gate: compare a fresh throughput-bench artifact against the baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/test_throughput.py -q
    python -m tools.check_perf_trend \
        benchmarks/results/BENCH_throughput.json \
        benchmarks/baselines/BENCH_throughput.baseline.json \
        --min-speedup incremental_churn_query=2.0

Two families of checks:

* **Trend**: every op present in both artifacts must not regress by more
  than ``--tolerance`` (default 50%) after scaling the baseline by the
  ratio of the two runs' ``calibration_us`` samples — a fixed pure-Python
  workload timed on each machine, which factors the raw speed difference
  between the CI runner and the machine that committed the baseline out of
  the comparison.  Deltas below ``--min-delta-us`` (default 100µs) are
  ignored: at microsecond scale the scheduler noise exceeds any signal.
* **Floors**: each repeatable ``--min-speedup NAME=VALUE`` flag asserts
  ``artifact["speedups"][NAME] >= VALUE`` — the head-to-head ratios the
  performance layer (docs/PERFORMANCE.md) must keep delivering regardless
  of machine speed.

When any check fails and ``--trace CURRENT --trace-baseline BASELINE``
point at the two runs' ``trace.jsonl`` files, the gate additionally prints
the span-path diff attribution (``repro.obs.analysis.diff_traces``) naming
the single most-regressed subtree — the same report ``repro obs diff``
produces — so a red gate says *where* the time went, not just that it
went.

Exit codes: 0 all checks pass, 1 a regression or missing floor, 2 usage
error (bad flags, unreadable/invalid artifacts).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

DEFAULT_TOLERANCE = 0.5
DEFAULT_MIN_DELTA_US = 100


def load_artifact(path: Path) -> Dict:
    """Parse one BENCH_throughput.json; raises ValueError on bad shape."""
    try:
        artifact = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: unreadable ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    ops = artifact.get("ops")
    if not isinstance(ops, dict) or not ops:
        raise ValueError(f"{path}: artifact has no ops table")
    for name, entry in ops.items():
        per_op = entry.get("per_op_us") if isinstance(entry, dict) else None
        if not isinstance(per_op, int) or per_op < 0:
            raise ValueError(
                f"{path}: ops[{name!r}] has no usable per_op_us"
            )
    calibration = artifact.get("calibration_us")
    if not isinstance(calibration, int) or calibration < 1:
        raise ValueError(f"{path}: artifact has no calibration_us sample")
    return artifact


def parse_min_speedups(flags: List[str]) -> Dict[str, float]:
    """Parse repeated ``NAME=VALUE`` flags; raises ValueError on bad shape."""
    floors: Dict[str, float] = {}
    for flag in flags:
        name, sep, raw = flag.partition("=")
        if not sep or not name:
            raise ValueError(f"--min-speedup {flag!r} is not NAME=VALUE")
        try:
            floors[name] = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"--min-speedup {flag!r}: {raw!r} is not a number"
            ) from exc
    return floors


def check_trend(
    current: Dict,
    baseline: Dict,
    tolerance: float,
    min_delta_us: int,
    problems: List[str],
) -> List[Tuple[str, int, float]]:
    """Compare shared ops; returns (name, measured, allowed) rows checked."""
    scale = current["calibration_us"] / baseline["calibration_us"]
    rows = []
    for name in sorted(set(current["ops"]) & set(baseline["ops"])):
        measured = current["ops"][name]["per_op_us"]
        base = baseline["ops"][name]["per_op_us"] * scale
        allowed = base * (1.0 + tolerance)
        rows.append((name, measured, allowed))
        if measured <= allowed:
            continue
        if measured - base < min_delta_us:
            continue  # sub-noise absolute delta; ignore the percentage
        problems.append(
            f"op {name!r} regressed: {measured}us > {allowed:.0f}us "
            f"allowed (baseline {base:.0f}us machine-scaled x{scale:.2f}, "
            f"tolerance {tolerance:.0%})"
        )
    if not rows:
        problems.append("no ops shared between artifact and baseline")
    return rows


def check_speedups(
    current: Dict, floors: Dict[str, float], problems: List[str]
) -> None:
    """Assert each required speedup floor against the artifact."""
    speedups = current.get("speedups", {})
    for name, floor in sorted(floors.items()):
        value = speedups.get(name)
        if not isinstance(value, (int, float)):
            problems.append(f"artifact has no speedup named {name!r}")
            continue
        if value < floor:
            problems.append(
                f"speedup {name!r} below floor: {value} < {floor}"
            )


def load_trace(path: Path) -> List[Dict]:
    """Parse a trace.jsonl into span records; raises ValueError when bad."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: unreadable ({exc})") from exc
    records: List[Dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSONL ({exc})") from exc
    if not records:
        raise ValueError(f"{path}: empty trace")
    return records


def attribute_failure(
    trace_current: Path, trace_baseline: Path
) -> List[str]:
    """Lines attributing a failed gate to the most-regressed span subtree."""
    # imported lazily: the gate itself must stay runnable without PYTHONPATH
    # tweaks when only the artifact checks are requested
    try:
        from repro.obs.analysis import diff_traces, render_diff
    except ImportError:
        return [
            "attribution: repro.obs.analysis not importable "
            "(run with PYTHONPATH=src)"
        ]
    try:
        base_records = load_trace(trace_baseline)
        current_records = load_trace(trace_current)
    except ValueError as exc:
        return [f"attribution: {exc}"]
    report = diff_traces(base_records, current_records)
    lines = ["attribution (span-path trace diff):"]
    lines.extend("  " + line for line in render_diff(report).splitlines())
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.check_perf_trend",
        description=(
            "Compare BENCH_throughput.json against the committed baseline."
        ),
    )
    parser.add_argument("current", type=Path, help="fresh bench artifact")
    parser.add_argument("baseline", type=Path, help="committed baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression per op (default 0.5 = 50%%)",
    )
    parser.add_argument(
        "--min-delta-us",
        type=int,
        default=DEFAULT_MIN_DELTA_US,
        help="ignore regressions smaller than this many microseconds",
    )
    parser.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="require artifact speedups[NAME] >= VALUE (repeatable)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="current run's trace.jsonl, used to attribute a failure",
    )
    parser.add_argument(
        "--trace-baseline",
        type=Path,
        default=None,
        help="baseline trace.jsonl to diff --trace against on failure",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        floors = parse_min_speedups(args.min_speedup)
        current = load_artifact(args.current)
        baseline = load_artifact(args.baseline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.tolerance < 0 or args.min_delta_us < 0:
        print("error: tolerance and min-delta-us must be >= 0", file=sys.stderr)
        return 2

    problems: List[str] = []
    rows = check_trend(
        current, baseline, args.tolerance, args.min_delta_us, problems
    )
    check_speedups(current, floors, problems)

    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        if args.trace is not None and args.trace_baseline is not None:
            for line in attribute_failure(args.trace, args.trace_baseline):
                print(line, file=sys.stderr)
        return 1
    print(
        f"ok: {len(rows)} ops within {args.tolerance:.0%} of baseline, "
        f"{len(floors)} speedup floors held"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
