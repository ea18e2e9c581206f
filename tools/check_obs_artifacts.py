"""CI gate: validate the telemetry artifacts of an instrumented run.

Usage::

    python -m repro simulate --users 8 --steps 2 --obs-dir obs-artifacts
    python -m tools.check_obs_artifacts obs-artifacts --scan-sources src/repro

Checks that ``trace.jsonl`` parses line-by-line, that parent links resolve
to earlier spans, that durations and tallies are sane non-negative
integers, that no span holds less of an op or byte tally than its direct
children together (a span reports itself plus its children), and that the
spans cover the paper's pipeline phases (profile
build, entropy increase, fuzzy keygen + OPRF, OPE encryption, server
upload handling, verification).  Also checks ``metrics.json`` /
``metrics.prom`` exist and agree on the upload counter.

Metric names are validated against the **single registry** in
:mod:`repro.obs.metrics` (the ``METRICS`` catalog the emitting code also
imports its ``M_*`` constants from) — a name outside the registry is
almost always a typo that would silently split a time series.  With
``--scan-sources DIR`` the gate additionally walks the source tree's ASTs
and fails on any ``metric_inc`` / ``metric_set`` / ``metric_observe``
call whose metric-name argument is neither a registered literal nor a
name imported from :mod:`repro.obs.metrics`, and on any registered name
that no call under ``DIR`` emits (a leftover of deleted code).

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import repro.obs.metrics as registry_module  # noqa: E402

# Every phase the Section-III pipeline must traverse in one simulation
# round.  The query spans are required too: the smoke run is seeded
# (``repro simulate --users 8 --steps 2`` draws from seed 1), so the same
# queries run, SORT a group and verify their results on every run.
REQUIRED_SPANS = (
    "simulate",
    "sim.run",
    "sim.step",
    "profile.build",
    "scheme.enroll",
    "keygen.fuzzy_extract",
    "keygen.oprf",
    "scheme.init_data",
    "scheme.encrypt",
    "ope.encrypt",
    "verification.auth",
    "server.handle_upload",
    "server.handle_query",
    "server.sort",
    "match.rank_sum",
    "scheme.verify_matches",
    "verification.vf",
)

_SPAN_INT_FIELDS = ("start_us", "duration_us")

#: The single source of truth (repro.obs.metrics.METRICS) — the
#: hand-maintained whitelist this used to be needed editing in three
#: consecutive PRs before it was generated.
KNOWN_METRICS: FrozenSet[str] = registry_module.metric_names()

#: The module-level emit helpers whose first argument is a metric name.
_EMIT_HELPERS = ("metric_inc", "metric_set", "metric_observe")

_REGISTRY_MODULE = "repro.obs.metrics"


def check_trace(path: Path, problems: List[str]) -> None:
    """Validate trace.jsonl structure, parent links, and phase coverage."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return
    if not lines:
        problems.append(f"{path}: empty trace")
        return

    spans = []
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{path}:{lineno}: invalid JSON ({exc})")
            return
        spans.append(record)

    ids = set()
    names = set()
    for lineno, record in enumerate(spans, start=1):
        where = f"{path}:{lineno}"
        name = record.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: span has no name")
            continue
        names.add(name)
        span_id = record.get("id")
        if not isinstance(span_id, int):
            problems.append(f"{where}: span {name!r} has no integer id")
        else:
            ids.add(span_id)
        parent = record.get("parent")
        if parent is not None and parent not in ids:
            problems.append(
                f"{where}: span {name!r} parent {parent!r} does not "
                "resolve to an earlier span"
            )
        for field in _SPAN_INT_FIELDS:
            value = record.get(field)
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{where}: span {name!r} field {field}={value!r} is not "
                    "a non-negative integer"
                )
        for tally in ("ops", "bytes"):
            mapping = record.get(tally, {})
            if not isinstance(mapping, dict):
                problems.append(f"{where}: span {name!r} {tally} is not a mapping")
                continue
            for op_name, count in mapping.items():
                if not isinstance(count, int) or count < 0:
                    problems.append(
                        f"{where}: span {name!r} {tally}[{op_name!r}]="
                        f"{count!r} is not a non-negative integer"
                    )

    check_folds(path, spans, problems)

    roots = [s for s in spans if s.get("parent") is None]
    if len(roots) != 1:
        problems.append(f"{path}: expected exactly one root span, found {len(roots)}")

    missing = [phase for phase in REQUIRED_SPANS if phase not in names]
    if missing:
        problems.append(
            f"{path}: pipeline phases missing from trace: {', '.join(missing)}"
        )


def _tallies(record: Dict[str, Any], tally: str) -> Dict[str, Any]:
    mapping = record.get(tally)
    return mapping if isinstance(mapping, dict) else {}


def check_folds(
    path: Path, spans: List[Dict[str, Any]], problems: List[str]
) -> None:
    """Fail each span holding less of an ``ops``/``bytes`` key than the sum
    over its direct children: a span's tallies include its children's."""
    sums: Dict[int, Dict[Tuple[str, str], int]] = {}
    for record in spans:
        parent = record.get("parent")
        if not isinstance(parent, int):
            continue
        into = sums.setdefault(parent, {})
        for tally in ("ops", "bytes"):
            for key, count in _tallies(record, tally).items():
                if isinstance(count, int):
                    into[(tally, key)] = into.get((tally, key), 0) + count
    for lineno, record in enumerate(spans, start=1):
        for (tally, key), total in sorted(sums.get(record.get("id"), {}).items()):
            held = _tallies(record, tally).get(key, 0)
            if isinstance(held, int) and held < total:
                problems.append(
                    f"{path}:{lineno}: span {record.get('name')!r} "
                    f"{tally}[{key!r}]={held} is less than its direct "
                    f"children's sum {total}"
                )


def check_metrics(directory: Path, problems: List[str]) -> None:
    """Validate metrics.json / metrics.prom exist and agree."""
    json_path = directory / "metrics.json"
    prom_path = directory / "metrics.prom"
    try:
        snapshot = json.loads(json_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{json_path}: unreadable or invalid ({exc})")
        return
    for family in ("counters", "gauges", "histograms"):
        for name in snapshot.get(family, {}):
            if name not in KNOWN_METRICS:
                problems.append(
                    f"{json_path}: unknown metric name {name!r} in {family} "
                    "(typo, or register it in repro.obs.metrics.METRICS)"
                )
    counters = snapshot.get("counters", {})
    uploads = counters.get("smatch_server_uploads_total", 0)
    if not isinstance(uploads, int) or uploads < 1:
        problems.append(
            f"{json_path}: smatch_server_uploads_total={uploads!r}; an "
            "instrumented simulation round must record at least one upload"
        )
    try:
        prom_text = prom_path.read_text()
    except OSError as exc:
        problems.append(f"{prom_path}: unreadable ({exc})")
        return
    expected_line = f"smatch_server_uploads_total {uploads}"
    if expected_line not in prom_text:
        problems.append(
            f"{prom_path}: expected exposition line {expected_line!r} "
            "matching metrics.json"
        )


def scan_emit_sites(
    root: Path, problems: List[str], emitted: Optional[Set[str]] = None
) -> int:
    """AST-walk ``root`` for emit-helper calls with unregistered names.

    A call like ``metric_inc("smatch_typo_total")`` fails unless the
    literal is in the registry; ``metric_inc(M_SERVER_UPLOADS)`` passes
    when the name was imported from :mod:`repro.obs.metrics` (constants
    there are registered by construction).  Anything dynamic (f-strings,
    attribute lookups, locals) fails — metric names must be static so the
    time series set is knowable offline.  Every registered name a call
    emits is added to ``emitted`` when given.  Returns the number of emit
    sites inspected.
    """
    if emitted is None:
        emitted = set()
    inspected = 0
    for py in sorted(root.rglob("*.py")):
        try:
            tree = ast.parse(py.read_text(encoding="utf-8"), filename=str(py))
        except SyntaxError as exc:
            problems.append(f"{py}: unparseable ({exc})")
            continue
        # local name -> the registry attribute it was imported as
        registry_names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == _REGISTRY_MODULE:
                registry_names.update(
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names
                )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = None
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee not in _EMIT_HELPERS or not node.args:
                continue
            inspected += 1
            where = f"{py}:{node.lineno}"
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                if name_arg.value not in KNOWN_METRICS:
                    problems.append(
                        f"{where}: {callee} emits unregistered metric "
                        f"{name_arg.value!r} (register it in "
                        "repro.obs.metrics.METRICS, or better, import its "
                        "M_* constant)"
                    )
                emitted.add(name_arg.value)
            elif isinstance(name_arg, ast.Name):
                if name_arg.id not in registry_names:
                    problems.append(
                        f"{where}: {callee} metric name {name_arg.id!r} is "
                        f"not imported from {_REGISTRY_MODULE} — emit sites "
                        "must use the registry's M_* constants"
                    )
                else:
                    value = getattr(
                        registry_module, registry_names[name_arg.id], None
                    )
                    if isinstance(value, str):
                        emitted.add(value)
            else:
                problems.append(
                    f"{where}: {callee} metric name is not a static "
                    "literal or registry constant; dynamic names make the "
                    "time-series set unknowable offline"
                )
    return inspected


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.check_obs_artifacts",
        description="Validate telemetry artifacts and metric emit sites.",
    )
    parser.add_argument(
        "directory",
        type=Path,
        nargs="?",
        default=None,
        help="obs artifact directory (trace.jsonl + metrics.json/prom)",
    )
    parser.add_argument(
        "--scan-sources",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "also AST-scan this source tree for unregistered emit sites "
            "and registered names it never emits"
        ),
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.directory is None and args.scan_sources is None:
        print(
            "error: nothing to do (pass an obs dir and/or --scan-sources)",
            file=sys.stderr,
        )
        return 2

    problems: List[str] = []
    summary: List[str] = []

    if args.directory is not None:
        trace_path = args.directory / "trace.jsonl"
        if not trace_path.exists():
            print(f"error: {trace_path} does not exist", file=sys.stderr)
            return 1
        check_trace(trace_path, problems)
        check_metrics(args.directory, problems)
        summary.append(
            f"{trace_path} covers all {len(REQUIRED_SPANS)} pipeline phases"
        )

    if args.scan_sources is not None:
        if not args.scan_sources.exists():
            print(
                f"error: {args.scan_sources} does not exist", file=sys.stderr
            )
            return 2
        emitted: Set[str] = set()
        inspected = scan_emit_sites(args.scan_sources, problems, emitted)
        for name in sorted(KNOWN_METRICS - emitted):
            problems.append(
                f"{name} is registered in repro.obs.metrics.METRICS but no "
                f"call under {args.scan_sources} emits it (delete the "
                "registration with the code that stopped emitting it)"
            )
        summary.append(
            f"{inspected} emit sites under {args.scan_sources} use "
            f"registered names and emit all {len(KNOWN_METRICS)} in the "
            "registry"
        )

    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    print("ok: " + "; ".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
