"""Tests for the per-module type-strictness ratchet (tools/type_ratchet.py).

The tool must work without mypy installed (annotation gaps are measured
from the AST), so everything here runs in ``--no-mypy`` mode and exercises
the ratchet semantics on a scratch repository: strict modules must be
gap-free, non-strict modules may not regress past their baseline, and
improvements never fail.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools import type_ratchet
from tools.type_ratchet import (
    annotation_gaps,
    check,
    is_strict,
    iter_modules,
    main,
    measure,
    strict_patterns,
    suggest,
    unlisted,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

PYPROJECT_STRICT = textwrap.dedent(
    """\
    [tool.mypy]
    ignore_errors = true

    [[tool.mypy.overrides]]
    module = [
        "repro.alpha",
        "repro.beta.*",
    ]
    ignore_errors = false
    disallow_untyped_defs = true
    """
)


@pytest.fixture()
def scratch_repo(tmp_path, monkeypatch):
    """A miniature repo the tool's CLI is pointed at via monkeypatching."""
    (tmp_path / "src" / "repro" / "beta").mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    (tmp_path / "src" / "repro" / "alpha.py").write_text(
        "def f(x: int) -> int:\n    return x\n", encoding="utf-8"
    )
    (tmp_path / "src" / "repro" / "beta" / "__init__.py").write_text(
        "", encoding="utf-8"
    )
    (tmp_path / "src" / "repro" / "gamma.py").write_text(
        "def g(x):\n    return x\n", encoding="utf-8"
    )
    (tmp_path / "pyproject.toml").write_text(PYPROJECT_STRICT, encoding="utf-8")
    monkeypatch.setattr(type_ratchet, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(type_ratchet, "PYPROJECT_PATH", tmp_path / "pyproject.toml")
    monkeypatch.setattr(
        type_ratchet, "BASELINE_PATH", tmp_path / "tools" / "baseline.json"
    )
    return tmp_path


class TestAnnotationGaps:
    def test_fully_annotated_is_clean(self):
        src = "def f(x: int, *, y: str = 'a') -> bool:\n    return True\n"
        assert annotation_gaps(src) == []

    def test_missing_return_counts(self):
        assert annotation_gaps("def f(x: int):\n    return x\n") == ["f:1"]

    def test_missing_param_counts(self):
        assert annotation_gaps("def f(x) -> int:\n    return x\n") == ["f:1"]

    def test_self_and_cls_exempt(self):
        src = textwrap.dedent(
            """\
            class C:
                def m(self) -> None:
                    pass

                @classmethod
                def k(cls) -> None:
                    pass
            """
        )
        assert annotation_gaps(src) == []

    def test_vararg_and_kwarg_need_annotations(self):
        assert annotation_gaps("def f(*args, **kw) -> None:\n    pass\n") == ["f:1"]

    def test_nested_functions_counted(self):
        src = "def outer() -> None:\n    def inner(x):\n        return x\n"
        assert annotation_gaps(src) == ["inner:2"]

    def test_syntax_error_counts_as_gap(self):
        assert annotation_gaps("def f(:\n") == ["<syntax error>:1"]


class TestStrictPatterns:
    def test_live_pyproject_has_promoted_modules(self):
        patterns = strict_patterns()
        assert "repro.errors" in patterns
        assert "repro.gf.*" in patterns
        assert "repro.ntheory.*" in patterns
        assert "repro.utils.*" in patterns
        assert "tools.type_ratchet" in patterns

    def test_glob_matching(self):
        patterns = ["repro.errors", "repro.gf.*"]
        assert is_strict("repro.errors", patterns)
        assert is_strict("repro.gf.tables", patterns)
        assert not is_strict("repro.server.matcher", patterns)

    def test_regex_fallback_matches_tomllib(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(PYPROJECT_STRICT, encoding="utf-8")
        parsed = strict_patterns(path)
        assert parsed == ["repro.alpha", "repro.beta.*"]


class TestRatchetSemantics:
    def test_strict_module_with_gap_fails(self):
        report = {"repro.alpha": {"annotation_gaps": 1, "mypy_errors": None}}
        failures = check(report, {}, ["repro.alpha"])
        assert len(failures) == 1 and "strict" in failures[0]

    def test_regression_against_baseline_fails(self):
        report = {"repro.gamma": {"annotation_gaps": 3, "mypy_errors": None}}
        baseline = {"repro.gamma": {"annotation_gaps": 2, "mypy_errors": None}}
        failures = check(report, baseline, [])
        assert len(failures) == 1 and "went up 2 -> 3" in failures[0]

    def test_improvement_passes(self):
        report = {"repro.gamma": {"annotation_gaps": 1, "mypy_errors": None}}
        baseline = {"repro.gamma": {"annotation_gaps": 2, "mypy_errors": None}}
        assert check(report, baseline, []) == []

    def test_mypy_regression_fails(self):
        report = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": 4}}
        baseline = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": 1}}
        failures = check(report, baseline, [])
        assert len(failures) == 1 and "mypy errors" in failures[0]

    def test_unmeasured_mypy_never_fails(self):
        report = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": None}}
        baseline = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": 1}}
        assert check(report, baseline, []) == []

    def test_module_missing_from_baseline_fails(self):
        report = {
            "repro.gamma": {"annotation_gaps": 0, "mypy_errors": None},
            "repro.new": {"annotation_gaps": 0, "mypy_errors": None},
        }
        baseline = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": None}}
        assert unlisted(report, baseline) == [
            "repro.new: no baseline entry (add it with --update)"
        ]

    def test_entry_naming_no_module_fails(self):
        report = {"repro.gamma": {"annotation_gaps": 0, "mypy_errors": None}}
        baseline = {
            "repro.gamma": {"annotation_gaps": 0, "mypy_errors": None},
            "repro.gone": {"annotation_gaps": 0, "mypy_errors": None},
        }
        assert unlisted(report, baseline) == [
            "repro.gone: baseline entry names no module"
        ]

    def test_suggest_lists_clean_unpromoted_modules(self):
        report = {
            "repro.alpha": {"annotation_gaps": 0, "mypy_errors": None},
            "repro.gamma": {"annotation_gaps": 0, "mypy_errors": None},
            "repro.delta": {"annotation_gaps": 2, "mypy_errors": None},
        }
        assert suggest(report, ["repro.alpha"]) == ["repro.gamma"]


class TestCliOnScratchRepo:
    def test_update_then_check_passes(self, scratch_repo):
        assert main(["--update", "--no-mypy"]) == 0
        assert main(["--check", "--no-mypy"]) == 0

    def test_new_gap_in_strict_module_fails(self, scratch_repo, capsys):
        assert main(["--update", "--no-mypy"]) == 0
        strict_mod = scratch_repo / "src" / "repro" / "alpha.py"
        strict_mod.write_text("def f(x):\n    return x\n", encoding="utf-8")
        assert main(["--check", "--no-mypy"]) == 1
        assert "strict module" in capsys.readouterr().err

    def test_regression_in_lenient_module_fails(self, scratch_repo):
        assert main(["--update", "--no-mypy"]) == 0
        lenient = scratch_repo / "src" / "repro" / "gamma.py"
        lenient.write_text(
            "def g(x):\n    return x\ndef h(y):\n    return y\n", encoding="utf-8"
        )
        assert main(["--check", "--no-mypy"]) == 1

    def test_new_module_without_entry_fails(self, scratch_repo, capsys):
        assert main(["--update", "--no-mypy"]) == 0
        (scratch_repo / "src" / "repro" / "delta.py").write_text(
            "def d(x: int) -> int:\n    return x\n", encoding="utf-8"
        )
        assert main(["--check", "--no-mypy"]) == 1
        assert "repro.delta: no baseline entry" in capsys.readouterr().err

    def test_deleted_module_entry_fails(self, scratch_repo, capsys):
        assert main(["--update", "--no-mypy"]) == 0
        (scratch_repo / "src" / "repro" / "gamma.py").unlink()
        assert main(["--check", "--no-mypy"]) == 1
        assert "repro.gamma: baseline entry names no module" in (
            capsys.readouterr().err
        )

    def test_json_artifact_shape(self, scratch_repo, capsys):
        out = scratch_repo / "report.json"
        assert main(["--check", "--no-mypy", "--json-out", str(out), "--update"]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert "strict_patterns" in report and "modules" in report
        assert "repro.gamma" in report["modules"]

    def test_no_action_is_usage_error(self):
        assert main([]) == 2


class TestLiveRepo:
    def test_modules_discovered(self):
        names = {name for name, _path in iter_modules(REPO_ROOT)}
        assert "repro.errors" in names
        assert "tools.type_ratchet" in names
        assert "tools.smatch_lint.taint" in names

    def test_live_check_passes(self):
        # the committed baseline must match the tree (CI gate stays green)
        assert main(["--check", "--no-mypy"]) == 0

    def test_strict_modules_have_no_gaps(self):
        report = measure(REPO_ROOT, with_mypy=False)
        patterns = strict_patterns()
        offenders = {
            name: entry
            for name, entry in report.items()
            if is_strict(name, patterns) and entry["annotation_gaps"]
        }
        assert offenders == {}
