"""Per-module mypy strictness ratchet.

``mypy src/repro`` with a blanket lenient baseline can only say "no new
errors anywhere"; it cannot stop an already-clean module from quietly
regressing, and it gives no signal about which modules are ready for
strict checking.  This tool makes the baseline *per module* and one-way:

* every module's error count is recorded in
  ``tools/type_ratchet_baseline.json`` (committed);
* ``--check`` recomputes the counts and fails when any module got worse
  than its baseline — improvements are fine and should be locked in with
  ``--update``.  It also fails on a module the baseline does not list and
  on an entry that names no module, so no module goes unguarded;
* modules matched by a strict override in ``pyproject.toml`` must stay at
  **zero**, baseline or not;
* ``--suggest`` lists clean modules not yet promoted, so the strict set
  only ever grows.

Two metrics are tracked per module:

* ``annotation_gaps`` — functions missing parameter or return
  annotations, counted from the AST.  This is the locally-enforceable
  projection of ``disallow_untyped_defs`` and needs no third-party
  tooling, so the ratchet bites even where mypy is not installed.
* ``mypy_errors`` — real mypy error counts, bucketed per module, when
  mypy is importable (CI installs it; the count is ``null`` =
  "unmeasured" otherwise and never fails a check).

Usage::

    python tools/type_ratchet.py --check            # CI gate
    python tools/type_ratchet.py --update           # lock in improvements
    python tools/type_ratchet.py --suggest          # promotion candidates
    python tools/type_ratchet.py --check --json-out report.json
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "tools" / "type_ratchet_baseline.json"
PYPROJECT_PATH = REPO_ROOT / "pyproject.toml"

#: (filesystem root, dotted-name prefix, strip leading dirs)
_SOURCE_ROOTS: Tuple[Tuple[str, str], ...] = (
    ("src/repro", "repro"),
    ("tools", "tools"),
)


def iter_modules(root: Path = REPO_ROOT) -> List[Tuple[str, Path]]:
    """All (dotted module name, path) pairs under the source roots."""
    modules: List[Tuple[str, Path]] = []
    for rel_root, prefix in _SOURCE_ROOTS:
        base = root / rel_root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(base)
            parts = list(rel.parts)
            parts[-1] = parts[-1][: -len(".py")]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            name = ".".join([prefix, *parts]) if parts else prefix
            modules.append((name, path))
    return modules


def annotation_gaps(source: str, path: str = "<module>") -> List[str]:
    """Functions with unannotated parameters or return types.

    The AST projection of ``disallow_untyped_defs``: each offending
    function contributes one entry (``name:line``).  ``self``/``cls``
    first parameters are exempt, matching mypy's behavior.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [f"<syntax error>:{exc.lineno or 1}"]
    gaps: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        params = list(ordered)
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        params += list(args.kwonlyargs)
        if args.vararg:
            params.append(args.vararg)
        if args.kwarg:
            params.append(args.kwarg)
        missing_param = any(p.annotation is None for p in params)
        missing_return = node.returns is None
        if missing_param or missing_return:
            gaps.append(f"{node.name}:{node.lineno}")
    return gaps


def strict_patterns(pyproject: Path = PYPROJECT_PATH) -> List[str]:
    """Module globs with ``ignore_errors = false`` overrides in pyproject.

    Uses :mod:`tomllib` when available (3.11+); otherwise a conservative
    regex fallback good enough for this repo's pyproject shape.
    """
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = None  # py<3.11: fall through to the regex fallback
    if tomllib is not None:
        data = tomllib.loads(text)
        patterns: List[str] = []
        for override in data.get("tool", {}).get("mypy", {}).get("overrides", []):
            if override.get("ignore_errors") is False:
                module = override.get("module", [])
                if isinstance(module, str):
                    module = [module]
                patterns.extend(module)
        return patterns
    patterns = []
    for block in re.split(r"\[\[tool\.mypy\.overrides\]\]", text)[1:]:
        block = block.split("[", 1)[0]  # stop at the next table header
        if not re.search(r"ignore_errors\s*=\s*false", block):
            continue
        module_match = re.search(r"module\s*=\s*\[(?P<items>[^\]]*)\]", block, re.S)
        if module_match:
            patterns.extend(re.findall(r"\"([^\"]+)\"", module_match.group("items")))
    return patterns


def is_strict(module: str, patterns: Sequence[str]) -> bool:
    """True when a module matches any strict override glob."""
    return any(fnmatch.fnmatchcase(module, pattern) for pattern in patterns)


def mypy_error_counts(paths: Sequence[Path]) -> Optional[Dict[str, int]]:
    """Per-file mypy error counts, or ``None`` when mypy is unavailable."""
    try:
        from mypy import api
    except ModuleNotFoundError:
        return None
    stdout, _stderr, _status = api.run(
        ["--no-error-summary", *[str(p) for p in paths]]
    )
    counts: Dict[str, int] = {}
    for line in stdout.splitlines():
        # "<path>:<line>: error: ..." — note: bucketing only needs the path
        parts = line.split(":", 2)
        if len(parts) == 3 and " error" in parts[2][:10]:
            key = Path(parts[0]).as_posix()
            counts[key] = counts.get(key, 0) + 1
    return counts


def measure(root: Path = REPO_ROOT, with_mypy: bool = True) -> Dict[str, Dict[str, object]]:
    """Current per-module metrics."""
    modules = iter_modules(root)
    mypy_counts = (
        mypy_error_counts([path for _name, path in modules]) if with_mypy else None
    )
    report: Dict[str, Dict[str, object]] = {}
    for name, path in modules:
        gaps = annotation_gaps(path.read_text(encoding="utf-8"), str(path))
        entry: Dict[str, object] = {
            "annotation_gaps": len(gaps),
            "mypy_errors": None,
        }
        if gaps:
            entry["gap_functions"] = gaps
        if mypy_counts is not None:
            rel = path.relative_to(root).as_posix()
            entry["mypy_errors"] = mypy_counts.get(rel, mypy_counts.get(str(path), 0))
        report[name] = entry
    return report


def load_baseline(path: Path = BASELINE_PATH) -> Dict[str, Dict[str, object]]:
    """The committed baseline (empty when missing)."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    modules = data.get("modules", {})
    return modules if isinstance(modules, dict) else {}


def save_baseline(
    report: Dict[str, Dict[str, object]], path: Path = BASELINE_PATH
) -> None:
    """Write the baseline file (sorted, human-diffable)."""
    slim = {
        name: {
            "annotation_gaps": entry["annotation_gaps"],
            "mypy_errors": entry["mypy_errors"],
        }
        for name, entry in sorted(report.items())
    }
    payload = {
        "comment": (
            "Per-module type-checking baseline; regenerate with "
            "`python tools/type_ratchet.py --update`. Counts may only go down."
        ),
        "modules": slim,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def check(
    report: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
    patterns: Sequence[str],
) -> List[str]:
    """Regressions as human-readable failure lines (empty == pass)."""
    failures: List[str] = []
    for name, entry in sorted(report.items()):
        gaps = int(entry["annotation_gaps"])  # type: ignore[arg-type]
        mypy_errors = entry["mypy_errors"]
        base = baseline.get(name, {})
        base_gaps = base.get("annotation_gaps")
        base_mypy = base.get("mypy_errors")
        strict = is_strict(name, patterns)
        detail = ""
        if entry.get("gap_functions"):
            detail = f" ({', '.join(entry['gap_functions'])})"  # type: ignore[arg-type]
        if strict and gaps:
            failures.append(
                f"{name}: strict module has {gaps} unannotated function(s){detail}"
            )
        elif isinstance(base_gaps, int) and gaps > base_gaps:
            failures.append(
                f"{name}: annotation gaps went up {base_gaps} -> {gaps}{detail}"
            )
        if isinstance(mypy_errors, int):
            if strict and mypy_errors:
                failures.append(f"{name}: strict module has {mypy_errors} mypy error(s)")
            elif isinstance(base_mypy, int) and mypy_errors > base_mypy:
                failures.append(
                    f"{name}: mypy errors went up {base_mypy} -> {mypy_errors}"
                )
    return failures


def unlisted(
    report: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
) -> List[str]:
    """Modules missing from the baseline, and entries naming no module."""
    failures = [
        f"{name}: no baseline entry (add it with --update)"
        for name in sorted(set(report) - set(baseline))
    ]
    failures += [
        f"{name}: baseline entry names no module"
        for name in sorted(set(baseline) - set(report))
    ]
    return failures


def suggest(
    report: Dict[str, Dict[str, object]], patterns: Sequence[str]
) -> List[str]:
    """Non-strict modules already clean — candidates for promotion."""
    candidates = []
    for name, entry in sorted(report.items()):
        if is_strict(name, patterns):
            continue
        if entry["annotation_gaps"] != 0:
            continue
        if isinstance(entry["mypy_errors"], int) and entry["mypy_errors"] != 0:
            continue
        candidates.append(name)
    return candidates


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/type_ratchet.py",
        description="Per-module mypy strictness ratchet.",
    )
    parser.add_argument(
        "--check", action="store_true", help="fail on any per-module regression"
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline"
    )
    parser.add_argument(
        "--suggest",
        action="store_true",
        help="list clean modules ready for strict promotion",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        type=Path,
        help="write the full per-module report as JSON (CI artifact)",
    )
    parser.add_argument(
        "--no-mypy",
        action="store_true",
        help="skip mypy even when installed (annotation gaps only)",
    )
    args = parser.parse_args(argv)
    if not (args.check or args.update or args.suggest or args.json_out):
        parser.print_usage(sys.stderr)
        print("error: pick at least one of --check/--update/--suggest", file=sys.stderr)
        return 2

    # globals resolved at call time so tests can point the tool at a
    # scratch repo by monkeypatching REPO_ROOT / BASELINE_PATH / PYPROJECT_PATH
    report = measure(root=REPO_ROOT, with_mypy=not args.no_mypy)
    patterns = strict_patterns(PYPROJECT_PATH)
    measured_mypy = any(isinstance(e["mypy_errors"], int) for e in report.values())
    if not measured_mypy and not args.no_mypy:
        print(
            "type-ratchet: mypy not installed — checking annotation gaps only",
            file=sys.stderr,
        )

    if args.json_out:
        args.json_out.write_text(
            json.dumps(
                {"strict_patterns": list(patterns), "modules": report}, indent=2
            )
            + "\n",
            encoding="utf-8",
        )

    if args.suggest:
        for name in suggest(report, patterns):
            print(name)

    if args.update:
        baseline = load_baseline(BASELINE_PATH)
        if not measured_mypy:
            # keep previously measured mypy counts instead of erasing them
            for name, entry in report.items():
                prior = baseline.get(name, {}).get("mypy_errors")
                if entry["mypy_errors"] is None and isinstance(prior, int):
                    entry["mypy_errors"] = prior
        save_baseline(report, BASELINE_PATH)
        print(f"type-ratchet: baseline updated ({len(report)} modules)")

    if args.check:
        baseline = load_baseline(BASELINE_PATH)
        failures = check(report, baseline, patterns) + unlisted(report, baseline)
        for failure in failures:
            print(f"type-ratchet: {failure}", file=sys.stderr)
        total_gaps = sum(int(e["annotation_gaps"]) for e in report.values())  # type: ignore[arg-type]
        strict_count = sum(1 for name in report if is_strict(name, patterns))
        print(
            f"type-ratchet: {len(report)} modules, {strict_count} strict, "
            f"{total_gaps} annotation gap(s), {len(failures)} failure(s)"
        )
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
