"""Whole-program smatch-lint: cross-module flows, SML010/011, the cache.

The per-rule unit tests in ``test_smatch_lint.py`` exercise single source
snippets through :func:`lint_source`.  Everything here needs the program
view: fixture mini-packages written to disk, linted through
:func:`lint_paths` so imports resolve and summaries flow across module
boundaries.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.smatch_lint import cache as lint_cache
from tools.smatch_lint.engine import lint_paths, lint_source
from tools.smatch_lint.modgraph import Program, module_identity


def write_package(root: Path, files: dict) -> Path:
    """Materialize a mini-package: ``files`` maps repo-relative paths to
    source; every package directory gets an ``__init__.py`` so module
    identity resolves the way it does in the real tree."""
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        package_dir = target.parent
        while package_dir != root and package_dir.name != "src":
            init = package_dir / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            package_dir = package_dir.parent
    return root / "src"


def codes(violations) -> list:
    return [v.code for v in violations]


def by_path(violations, fragment: str) -> list:
    return [v for v in violations if fragment in v.path]


# ---------------------------------------------------------------------------
# cross-module taint summaries (the tentpole acceptance fixtures)
# ---------------------------------------------------------------------------


class TestCrossModuleFlows:
    def test_secret_through_imported_helper_fires_sml007(self, tmp_path):
        # the acceptance fixture: secret -> imported helper -> branch
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def passthrough(value, other):
                        mixed = value
                        return mixed
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import passthrough


                    def handle(profile_key, public_len):
                        if passthrough(profile_key, public_len):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        hits = by_path(violations, "handler.py")
        assert codes(hits) == ["SML007"], "\n".join(v.render() for v in violations)
        assert "profile_key" in hits[0].message

    def test_constant_time_twin_is_clean(self, tmp_path):
        # identical shape, but the helper launders through constant_time_eq:
        # the callee summary proves the return is public, so no finding —
        # strictly more precise than the old conservative unknown-call union
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    from repro.utils.ct import constant_time_eq


                    def verify(value, expected):
                        return constant_time_eq(value, expected)
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import verify


                    def handle(profile_key, expected):
                        if verify(profile_key, expected):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_from_import_alias_resolves(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def passthrough(value):
                        return value
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import passthrough as fwd


                    def handle(session_key):
                        if fwd(session_key):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        assert codes(by_path(violations, "handler.py")) == ["SML007"]

    def test_reexport_through_package_init(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def passthrough(value):
                        return value
                """,
                "src/repro/server/handler.py": """
                    from repro.server import passthrough


                    def handle(session_key):
                        if passthrough(session_key):
                            return b"y"
                        return b"n"
                """,
            },
        )
        (src / "repro" / "server" / "__init__.py").write_text(
            "from repro.server.helpers import passthrough\n", encoding="utf-8"
        )
        violations, _ = lint_paths([src])
        assert codes(by_path(violations, "handler.py")) == ["SML007"]

    def test_module_attribute_call_resolves(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def passthrough(value):
                        return value
                """,
                "src/repro/server/handler.py": """
                    from repro.server import helpers


                    def handle(session_key):
                        if helpers.passthrough(session_key):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        assert codes(by_path(violations, "handler.py")) == ["SML007"]

    def test_method_on_imported_class(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    class Checker:
                        def probe(self, value):
                            return value
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import Checker


                    def handle(session_key):
                        checker = Checker()
                        if checker.probe(session_key):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        assert codes(by_path(violations, "handler.py")) == ["SML007"]

    def test_imported_returns_secret_taints_caller(self, tmp_path):
        # the callee mints the secret (registered API); the caller never
        # names anything secret — only the summary can catch this
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def fresh_material(context):
                        return hkdf(context, b"info")
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import fresh_material


                    def handle(context):
                        material = fresh_material(context)
                        if material:
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        hits = by_path(violations, "handler.py")
        assert codes(hits) == ["SML007"]
        assert "fresh_material" in hits[0].message

    def test_secret_annotation_crosses_modules(self, tmp_path):
        # '# smatch-lint: secret' in the callee makes the caller's branch
        # a finding: annotations feed the exported summary too
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": """
                    def load_material(store):
                        material = store.fetch()  # smatch-lint: secret
                        return material
                """,
                "src/repro/server/handler.py": """
                    from repro.server.helpers import load_material


                    def handle(store):
                        if load_material(store):
                            return b"y"
                        return b"n"
                """,
            },
        )
        violations, _ = lint_paths([src])
        assert codes(by_path(violations, "handler.py")) == ["SML007"]

    def test_per_module_entry_point_stays_conservative(self):
        # lint_source has no program view: the imported call is unknown and
        # argument taint flows through — documented fallback behavior
        found = lint_source(
            textwrap.dedent(
                """
                from somewhere import helper


                def handle(session_key):
                    if helper(session_key):
                        return b"y"
                    return b"n"
                """
            ),
            "src/repro/server/handler.py",
        )
        assert codes(found) == ["SML007"]


# ---------------------------------------------------------------------------
# SML010: process-boundary serialization
# ---------------------------------------------------------------------------

PARALLEL_PATH = "src/repro/parallel/work.py"


def check(source: str, path: str = PARALLEL_PATH):
    return lint_source(textwrap.dedent(source), path)


class TestProcessBoundaryRule:
    def test_secret_task_context_fires(self):
        src = """
            def fan_out(backend, session_key, items):
                envelope = TaskEnvelope(fn=work, context=session_key, label="x")
                return backend.map_chunks(envelope, items)
        """
        found = check(src)
        assert codes(found) == ["SML010"]
        assert "process boundary" in found[0].message

    def test_pickle_dumps_of_secret_fires(self):
        src = """
            import pickle


            def snapshot(session_key):
                return pickle.dumps(session_key)
        """
        assert codes(check(src)) == ["SML010"]

    def test_pool_initargs_fires(self):
        src = """
            def start(pool_cls, mac_key):
                return pool_cls(initializer=setup, initargs=(mac_key,))
        """
        found = check(src)
        assert codes(found) == ["SML010"]
        assert "initargs" in found[0].message

    def test_getstate_returning_secret_fires(self):
        src = """
            class Spec:
                def __getstate__(self):
                    return {"k": self.session_key}
        """
        found = check(src)
        assert codes(found) == ["SML010"]
        assert "__getstate__" in found[0].message or "pickling" in found[0].message

    def test_append_record_of_secret_fires(self):
        # a WAL frame outlives the process and is replayed into restarted
        # shard workers: a raw secret appended there crosses the boundary
        src = """
            def emit(wal, session_key):
                return wal.append_record(session_key)
        """
        found = check(src)
        assert codes(found) == ["SML010"]
        assert "process boundary" in found[0].message

    def test_append_record_of_sealed_value_is_clean(self):
        src = """
            def emit(wal, session_key):
                sealed_payload = seal(session_key)
                return wal.append_record(sealed_payload)
        """
        assert check(src) == []

    def test_append_record_of_blinded_output_is_clean(self):
        src = """
            def emit(wal, oprf, blinded_value):
                evaluated = oprf.evaluate_blinded(blinded_value)
                return wal.append_record(evaluated)
        """
        assert check(src) == []

    def test_sealed_context_is_clean(self):
        src = """
            def fan_out(backend, session_key, items):
                sealed_ctx = seal(session_key)
                envelope = TaskEnvelope(fn=work, context=sealed_ctx, label="x")
                return backend.map_chunks(envelope, items)
        """
        assert check(src) == []

    def test_blinded_oprf_output_is_clean(self):
        # evaluate_blinded output is wire_ok: masked by the client's
        # blinding factor, approved to cross process boundaries
        src = """
            import pickle


            def snapshot(oprf, blinded_value):
                evaluated = oprf.evaluate_blinded(blinded_value)
                return pickle.dumps(evaluated)
        """
        assert check(src) == []

    def test_suppressed(self):
        src = """
            import pickle


            def snapshot(session_key):
                return pickle.dumps(session_key)  # smatch-lint: disable=SML010
        """
        assert check(src) == []

    def test_out_of_scope_path_is_clean(self):
        src = """
            import pickle


            def snapshot(session_key):
                return pickle.dumps(session_key)
        """
        assert check(src, "src/repro/analysis/report.py") == []

    def test_timing_rules_still_see_blinded_values(self):
        # wire_ok lifts the boundary rules only: a blinded value steering
        # a branch is still a timing leak
        src = """
            def decide(oprf, blinded_value):
                evaluated = oprf.evaluate_blinded(blinded_value)
                if evaluated:
                    return b"y"
                return b"n"
        """
        assert codes(check(src, "src/repro/server/h.py")) == ["SML007"]


# ---------------------------------------------------------------------------
# SML011: parallel-task determinism
# ---------------------------------------------------------------------------


class TestParallelDeterminismRule:
    def test_set_iteration_fires(self):
        src = """
            def merge_chunk(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
        """
        found = check(src)
        assert codes(found) == ["SML011"]
        assert "unordered" in found[0].message

    def test_set_literal_comprehension_fires(self):
        src = """
            def merge_chunk(items):
                return [x for x in {1, 2, 3}]
        """
        assert codes(check(src)) == ["SML011"]

    def test_frozenset_for_loop_fires(self):
        src = """
            def merge_chunk(counts):
                for key in frozenset(counts):
                    pass
        """
        assert codes(check(src)) == ["SML011"]

    def test_wall_clock_fires(self):
        src = """
            import time


            def stamp_chunk(items):
                return [(time.monotonic_ns(), item) for item in items]
        """
        found = check(src)
        assert codes(found) == ["SML011"]
        assert "wall-clock" in found[0].message

    def test_unseeded_randomness_fires(self):
        src = """
            import os


            def jitter_chunk(items):
                return [(os.urandom(8), item) for item in items]
        """
        found = check(src)
        assert codes(found) == ["SML011"]
        assert "randomness" in found[0].message

    def test_unseeded_source_ctor_fires(self):
        src = """
            from repro.utils.rand import SystemRandomSource


            def enroll_chunk(specs):
                rng = SystemRandomSource()
                return [rng, specs]
        """
        found = check(src)
        assert codes(found) == ["SML011"]
        assert "seed" in found[0].message

    def test_sorted_iteration_is_clean(self):
        src = """
            def merge_chunk(items):
                out = []
                for item in sorted(set(items)):
                    out.append(item)
                return out
        """
        assert check(src) == []

    def test_seeded_source_is_clean(self):
        src = """
            from repro.utils.rand import SystemRandomSource


            def enroll_chunk(specs, seed):
                rng = SystemRandomSource(seed)
                return [rng, specs]
        """
        assert check(src) == []

    def test_non_task_function_is_clean(self):
        src = """
            def summarize(items):
                return sum(1 for _ in set(items))
        """
        assert check(src) == []

    def test_out_of_scope_path_is_clean(self):
        src = """
            def merge_chunk(items):
                return list(set(items))
        """
        assert check(src, "src/repro/analysis/agg.py") == []

    def test_suppressed(self):
        src = """
            def merge_chunk(items):
                return [x for x in set(items)]  # smatch-lint: disable=SML011
        """
        assert check(src) == []


# ---------------------------------------------------------------------------
# the incremental summary cache
# ---------------------------------------------------------------------------

LEAKY_HELPER = """
    def passthrough(value):
        return value
"""

SAFE_HELPER = """
    from repro.utils.ct import constant_time_eq


    def passthrough(value):
        return constant_time_eq(value, b"probe")
"""

HANDLER = """
    from repro.server.helpers import passthrough


    def handle(session_key):
        if passthrough(session_key):
            return b"y"
        return b"n"
"""


class TestSummaryCache:
    def test_warm_run_reproduces_results(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": LEAKY_HELPER,
                "src/repro/server/handler.py": HANDLER,
            },
        )
        cache_dir = tmp_path / "cache"
        cold, checked_cold = lint_paths([src], cache_dir=cache_dir)
        warm, checked_warm = lint_paths([src], cache_dir=cache_dir)
        assert (cold, checked_cold) == (warm, checked_warm)
        assert codes(by_path(cold, "handler.py")) == ["SML007"]
        assert (cache_dir / "cache.json").is_file()

    def test_editing_a_dependency_invalidates_importers(self, tmp_path):
        # handler.py never changes; flipping its *dependency* between the
        # leaky and laundering helper must flip the handler finding —
        # transitive invalidation, not per-file caching
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": SAFE_HELPER,
                "src/repro/server/handler.py": HANDLER,
            },
        )
        cache_dir = tmp_path / "cache"
        clean, _ = lint_paths([src], cache_dir=cache_dir)
        assert clean == []
        (src / "repro" / "server" / "helpers.py").write_text(
            textwrap.dedent(LEAKY_HELPER), encoding="utf-8"
        )
        dirty, _ = lint_paths([src], cache_dir=cache_dir)
        assert codes(by_path(dirty, "handler.py")) == ["SML007"]
        (src / "repro" / "server" / "helpers.py").write_text(
            textwrap.dedent(SAFE_HELPER), encoding="utf-8"
        )
        clean_again, _ = lint_paths([src], cache_dir=cache_dir)
        assert clean_again == []

    def test_engine_version_bust(self, tmp_path, monkeypatch):
        src = write_package(
            tmp_path,
            {"src/repro/server/handler.py": HANDLER.replace("passthrough(", "bool(")},
        )
        cache_dir = tmp_path / "cache"
        lint_paths([src], cache_dir=cache_dir)
        first = json.loads((cache_dir / "cache.json").read_text())
        monkeypatch.setattr(lint_cache, "ENGINE_VERSION", "smatch-lint-next")
        violations, _ = lint_paths([src], cache_dir=cache_dir)
        assert violations == []
        second = json.loads((cache_dir / "cache.json").read_text())
        assert first["fingerprint"] != second["fingerprint"]

    def test_unused_suppression_namespace_is_distinct(self, tmp_path):
        # the same tree linted with and without unused-suppression
        # reporting must not share cached violation lists
        src = write_package(
            tmp_path,
            {
                "src/repro/server/handler.py": """
                    import secrets  # smatch-lint: disable=SML001
                """,
            },
        )
        cache_dir = tmp_path / "cache"
        plain, _ = lint_paths([src], cache_dir=cache_dir)
        assert plain == []
        flagged, _ = lint_paths(
            [src], cache_dir=cache_dir, report_unused_suppressions=True
        )
        assert codes(flagged) == ["SML000"]


# ---------------------------------------------------------------------------
# module graph plumbing
# ---------------------------------------------------------------------------


class TestModuleGraph:
    def test_module_identity_walks_packages(self, tmp_path):
        src = write_package(
            tmp_path, {"src/repro/server/deep/worker.py": "x = 1\n"}
        )
        name, root = module_identity(src / "repro" / "server" / "deep" / "worker.py")
        assert name == "repro.server.deep.worker"
        assert root == src.resolve()

    def test_relative_imports_resolve_in_closure(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/helpers.py": "def f():\n    return 1\n",
                "src/repro/server/handler.py": (
                    "from .helpers import f\n\n\ndef g():\n    return f()\n"
                ),
            },
        )
        files = [
            (p, p.as_posix(), p.read_text(encoding="utf-8"))
            for p in sorted(src.rglob("*.py"))
        ]
        program = Program.build(files)
        handler = program.modules["repro.server.handler"]
        assert handler.bindings["f"].module == "repro.server.helpers"
        assert "repro.server.helpers" in handler.deps

    def test_cycles_terminate(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/server/a.py": (
                    "from repro.server import b\n\n\ndef fa(x):\n    return b.fb(x)\n"
                ),
                "src/repro/server/b.py": (
                    "from repro.server import a\n\n\ndef fb(x):\n    return a.fa(x)\n"
                ),
            },
        )
        violations, checked = lint_paths([src])
        assert checked == 4  # a.py, b.py, and the two package __init__s
        assert violations == []
        files = [
            (p, p.as_posix(), p.read_text(encoding="utf-8"))
            for p in sorted(src.rglob("*.py"))
        ]
        program = Program.build(files)
        sccs = program.sccs_topological()
        assert ["repro.server.a", "repro.server.b"] in sccs


class TestShardDurabilitySinks:
    """The shard WAL/snapshot files are replayed into restarted worker
    processes, so their write APIs are SML010 boundary sinks."""

    SHARD_PATH = "src/repro/server/sharding/widget.py"

    def test_wal_append_of_secret_fires(self):
        src = """
            def log(wal, session_key):
                wal.append_record(session_key)
        """
        found = check(src, self.SHARD_PATH)
        assert codes(found) == ["SML010"]
        assert "process boundary" in found[0].message

    def test_wal_append_of_ciphertext_is_clean(self):
        src = """
            def log(wal, session_key):
                sealed_payload = seal(session_key)
                wal.append_record(sealed_payload)
        """
        assert check(src, self.SHARD_PATH) == []

    def test_snapshot_write_of_secret_fires(self):
        src = """
            def persist(directory, seq, mac_key):
                return write_snapshot(directory, seq, mac_key)
        """
        found = check(src, self.SHARD_PATH)
        assert codes(found) == ["SML010"]

    def test_snapshot_write_of_public_groups_is_clean(self):
        src = """
            def persist(directory, seq, group_table):
                return write_snapshot(directory, seq, group_table)
        """
        assert check(src, self.SHARD_PATH) == []
