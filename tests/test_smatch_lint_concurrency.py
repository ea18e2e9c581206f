"""Tests for the SML012–SML015 concurrency rules and the SARIF output.

Single-file fixtures run through :func:`lint_source` (hit / clean /
suppressed per rule); cross-module delegated-mutation, summary-cache
invalidation, and the CLI surfaces (``--lock-debug``, ``--format sarif``)
run through :func:`lint_paths` / ``main`` on mini-packages, mirroring the
split between ``test_smatch_lint.py`` and ``test_smatch_lint_xmodule.py``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.smatch_lint.cli import main
from tools.smatch_lint.engine import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent

OBS_PATH = "src/repro/obs/widget.py"
PARALLEL_PATH = "src/repro/parallel/widget.py"


def codes(violations) -> list:
    return [v.code for v in violations]


def check(source: str, path: str = OBS_PATH):
    return lint_source(textwrap.dedent(source), path)


def write_package(root: Path, files: dict) -> Path:
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


LOCKED_CACHE = """
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}

        def put(self, token, value):
            with self._lock:
                self._entries[token] = value
"""


class TestSml012LockDiscipline:
    def test_unguarded_read_flagged(self):
        found = check(
            LOCKED_CACHE
            + """
        def peek(self, token):
            return self._entries.get(token)
    """
        )
        assert codes(found) == ["SML012"]
        assert "_entries" in found[0].message
        assert "_lock" in found[0].message

    def test_unguarded_write_flagged(self):
        found = check(
            LOCKED_CACHE
            + """
        def wipe(self):
            self._entries = {}
    """
        )
        assert codes(found) == ["SML012"]

    def test_mutating_method_call_flagged(self):
        found = check(
            LOCKED_CACHE
            + """
        def wipe(self):
            self._entries.clear()
    """
        )
        assert codes(found) == ["SML012"]

    def test_locked_access_clean(self):
        assert (
            check(
                LOCKED_CACHE
                + """
        def peek(self, token):
            with self._lock:
                return self._entries.get(token)
    """
            )
            == []
        )

    def test_init_writes_are_exempt(self):
        # __init__ runs before the instance is published
        assert check(LOCKED_CACHE) == []

    def test_unlocked_fields_are_not_guarded(self):
        # a field never written under the lock carries no discipline
        assert (
            check(
                LOCKED_CACHE
                + """
        def bump(self):
            self.hits = 1
    """
            )
            == []
        )

    def test_helper_with_all_locked_callers_is_assumed_held(self):
        # the _flush_locked idiom: private helper, every call site locked
        assert (
            check(
                LOCKED_CACHE
                + """
        def drain(self):
            with self._lock:
                self._drain_locked()

        def _drain_locked(self):
            self._entries.clear()
    """
            )
            == []
        )

    def test_helper_with_an_unlocked_caller_is_not_assumed(self):
        found = check(
            LOCKED_CACHE
            + """
        def drain(self):
            with self._lock:
                self._drain_locked()

        def drain_fast(self):
            self._drain_locked()

        def _drain_locked(self):
            self._entries.clear()
    """
        )
        # one unlocked call site breaks the assumption, so the helper's
        # own guarded-state access is the race that gets reported
        assert codes(found) == ["SML012"]
        assert "_entries" in found[0].message

    def test_same_module_instance_mutation_flagged(self):
        found = check(
            LOCKED_CACHE
            + """

    def misuse():
        cache = Cache()
        cache._entries["k"] = 1
    """
        )
        assert codes(found) == ["SML012"]
        assert "cache._entries" in found[0].message

    def test_lockless_class_is_silent(self):
        assert (
            check(
                """
    class Bag:
        def __init__(self):
            self._items = {}

        def put(self, k, v):
            self._items[k] = v
    """
            )
            == []
        )

    def test_suppression(self):
        found = check(
            LOCKED_CACHE
            + """
        def peek(self, token):
            return self._entries.get(token)  # smatch-lint: disable=SML012
    """
        )
        assert found == []

    def test_out_of_scope_path_is_clean(self):
        source = (
            LOCKED_CACHE
            + """
        def peek(self, token):
            return self._entries.get(token)
    """
        )
        assert lint_source(textwrap.dedent(source), "experiments/widget.py") == []


class TestSml013TaskEscape:
    def test_unguarded_global_mutation_flagged(self):
        found = check(
            """
    _CACHE = {}

    def remember(k, v):
        _CACHE[k] = v
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML013"]
        assert "_CACHE" in found[0].message

    def test_mutating_method_on_global_flagged(self):
        found = check(
            """
    _SEEN = set()

    def note(v):
        _SEEN.add(v)
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML013"]

    def test_module_lock_guard_is_clean(self):
        assert (
            check(
                """
    import threading

    _CACHE = {}
    _CACHE_LOCK = threading.Lock()

    def remember(k, v):
        with _CACHE_LOCK:
            _CACHE[k] = v
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_import_time_mutation_is_clean(self):
        # top-level registration runs under the import lock
        assert (
            check(
                """
    _TABLE = {}
    _TABLE["init"] = 1
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_task_unit_global_rebind_flagged(self):
        found = check(
            """
    _CONTEXT = None

    def _initialize_worker(context):
        global _CONTEXT
        _CONTEXT = context
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML013"]
        assert "_CONTEXT" in found[0].message

    def test_non_task_global_rebind_clean(self):
        # rebinding an immutable-valued global outside task units (a
        # configuration setter) is not a worker-visible escape
        assert (
            check(
                """
    _DEFAULT = None

    def set_default(value):
        global _DEFAULT
        _DEFAULT = value
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_only_parallel_scope(self):
        source = """
    _CACHE = {}

    def remember(k, v):
        _CACHE[k] = v
    """
        assert lint_source(textwrap.dedent(source), OBS_PATH) == []

    def test_suppression(self):
        found = check(
            """
    _CACHE = {}

    def remember(k, v):
        _CACHE[k] = v  # smatch-lint: disable=SML013
    """,
            PARALLEL_PATH,
        )
        assert found == []


class TestSml014ForkHazards:
    def test_lock_in_initargs_flagged(self):
        found = check(
            """
    import threading

    def start(pool_cls):
        lock = threading.Lock()
        return pool_cls(initargs=(lock,))
    """
        )
        assert codes(found) == ["SML014"]
        assert "initargs" in found[0].message

    def test_lock_named_attribute_in_initargs_flagged(self):
        found = check(
            """
    def start(self, pool_cls):
        return pool_cls(initargs=(self._lock,))
    """
        )
        assert codes(found) == ["SML014"]

    def test_plain_initargs_clean(self):
        assert (
            check(
                """
    def start(pool_cls, seed):
        return pool_cls(initargs=(seed, 3))
    """
            )
            == []
        )

    def test_blocking_call_under_lock_flagged(self):
        found = check(
            """
    def wait_all(pool, job, lock):
        with lock:
            return pool.submit(job)
    """
        )
        assert codes(found) == ["SML014"]
        assert "submit" in found[0].message

    def test_str_join_under_lock_clean(self):
        assert (
            check(
                """
    def fmt(items, lock):
        with lock:
            return ", ".join(items)
    """
            )
            == []
        )

    def test_blocking_call_after_lock_clean(self):
        assert (
            check(
                """
    def wait_all(pool, job, lock):
        with lock:
            payload = job
        return pool.submit(payload)
    """
            )
            == []
        )

    def test_suppression(self):
        found = check(
            """
    import threading

    def start(pool_cls):
        lock = threading.Lock()
        return pool_cls(initargs=(lock,))  # smatch-lint: disable=SML014
    """
        )
        assert found == []


class TestSml015ShmLifecycle:
    def test_leaked_segment_flagged(self):
        found = check(
            """
    from multiprocessing.shared_memory import SharedMemory

    def leak(n):
        shm = SharedMemory(create=True, size=n)
        shm.buf[0] = 1
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML015"]
        assert "close" in found[0].message

    def test_try_finally_close_clean(self):
        assert (
            check(
                """
    from multiprocessing.shared_memory import SharedMemory

    def fine(n):
        shm = SharedMemory(create=True, size=n)
        try:
            shm.buf[0] = 1
        finally:
            shm.close()
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_return_escape_is_ownership_transfer(self):
        assert (
            check(
                """
    from multiprocessing.shared_memory import SharedMemory

    def make(n):
        shm = SharedMemory(create=True, size=n)
        return shm
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_early_return_path_leaks(self):
        found = check(
            """
    from multiprocessing.shared_memory import SharedMemory

    def sometimes(n, fast):
        shm = SharedMemory(create=True, size=n)
        if fast:
            return None
        shm.close()
        return None
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML015"]

    def test_attach_without_create_untracked(self):
        assert (
            check(
                """
    from multiprocessing.shared_memory import SharedMemory

    def borrow(name):
        shm = SharedMemory(name=name)
        return bytes(shm.buf[:4])
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_unclosed_writer_flagged(self):
        found = check(
            """
    def fill(path, rows):
        writer = ShardWal(path)
        for row in rows:
            writer.append_record(row)
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML015"]
        assert "close" in found[0].message

    def test_closed_writer_clean(self):
        assert (
            check(
                """
    def fill(path, rows):
        writer = ShardWal(path)
        try:
            for row in rows:
                writer.append_record(row)
        finally:
            writer.close()
    """,
                PARALLEL_PATH,
            )
            == []
        )

    def test_unlink_on_attached_segment_flagged(self):
        found = check(
            """
    from multiprocessing.shared_memory import SharedMemory

    def borrow(name):
        shm = SharedMemory(name=name)
        try:
            return bytes(shm.buf[:4])
        finally:
            shm.close()
            shm.unlink()
    """,
            PARALLEL_PATH,
        )
        assert codes(found) == ["SML015"]
        assert "unlink" in found[0].message

    def test_suppression(self):
        found = check(
            """
    from multiprocessing.shared_memory import SharedMemory

    def leak(n):
        shm = SharedMemory(create=True, size=n)  # smatch-lint: disable=SML015
        shm.buf[0] = 1
    """,
            PARALLEL_PATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# cross-module application (delegated mutation through the import graph)
# ---------------------------------------------------------------------------


STORE = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def add(self, k, v):
            with self._lock:
                self._items[k] = v

        def drain(self):
            with self._lock:
                self._drain_locked()

        def _drain_locked(self):
            self._items.clear()
"""

#: the lock-free twin: no lock fields, hence nothing to enforce
STORE_LOCKLESS = """
    class Store:
        def __init__(self):
            self._items = {}

        def add(self, k, v):
            self._items[k] = v

        def drain(self):
            self._drain_locked()

        def _drain_locked(self):
            self._items.clear()
"""

CONSUMER = """
    from repro.obs.store import Store


    def misuse():
        store = Store()
        store._items["k"] = 1
        return store
"""

HELPER_CONSUMER = """
    from repro.obs.store import Store


    def misuse():
        store = Store()
        store._drain_locked()
        return store
"""

LOCKED_CONSUMER = """
    from repro.obs.store import Store


    def proper():
        store = Store()
        with store._lock:
            store._items["k"] = 1
            store._drain_locked()
        return store
"""


def by_path(violations, fragment: str) -> list:
    return [v for v in violations if fragment in v.path]


class TestCrossModuleLockset:
    def test_delegated_mutation_flagged_at_the_caller(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/obs/store.py": STORE,
                "src/repro/obs/user.py": CONSUMER,
            },
        )
        violations, _ = lint_paths([src])
        hits = by_path(violations, "user.py")
        assert codes(hits) == ["SML012"], "\n".join(v.render() for v in violations)
        assert "store._items" in hits[0].message
        assert "store._lock" in hits[0].message

    def test_locked_helper_call_flagged_at_the_caller(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/obs/store.py": STORE,
                "src/repro/obs/user.py": HELPER_CONSUMER,
            },
        )
        violations, _ = lint_paths([src])
        hits = by_path(violations, "user.py")
        assert codes(hits) == ["SML012"]
        assert "_drain_locked" in hits[0].message

    def test_lock_held_caller_is_clean(self, tmp_path):
        src = write_package(
            tmp_path,
            {
                "src/repro/obs/store.py": STORE,
                "src/repro/obs/user.py": LOCKED_CONSUMER,
            },
        )
        violations, _ = lint_paths([src])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cache_invalidation_on_concurrency_edit(self, tmp_path):
        # user.py never changes; toggling the *store's* lock must flip the
        # caller-side finding through the warm summary cache
        src = write_package(
            tmp_path,
            {
                "src/repro/obs/store.py": STORE,
                "src/repro/obs/user.py": CONSUMER,
            },
        )
        cache_dir = tmp_path / "cache"
        dirty, _ = lint_paths([src], cache_dir=cache_dir)
        assert codes(by_path(dirty, "user.py")) == ["SML012"]
        store_file = src / "repro" / "obs" / "store.py"
        store_file.write_text(textwrap.dedent(STORE_LOCKLESS), encoding="utf-8")
        clean, _ = lint_paths([src], cache_dir=cache_dir)
        assert clean == [], "\n".join(v.render() for v in clean)
        store_file.write_text(textwrap.dedent(STORE), encoding="utf-8")
        dirty_again, _ = lint_paths([src], cache_dir=cache_dir)
        assert codes(by_path(dirty_again, "user.py")) == ["SML012"]


# ---------------------------------------------------------------------------
# CLI surfaces: --lock-debug and --format sarif
# ---------------------------------------------------------------------------


class TestLockDebug:
    def test_dump_lists_facts_and_findings(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "obs" / "store.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            textwrap.dedent(
                LOCKED_CACHE
                + """
        def peek(self, token):
            return self._entries.get(token)
    """
            ),
            encoding="utf-8",
        )
        assert main(["--lock-debug", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "class Cache" in out
        assert "locks[_lock]" in out
        assert "guarded[_entries]" in out
        assert "SML012@" in out


class TestSarifFormat:
    @pytest.fixture()
    def seeded_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "crypto" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = 1 / 3\n", encoding="utf-8")
        return bad

    def test_sarif_shape(self, seeded_file, capsys):
        assert main(["--format", "sarif", str(seeded_file)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "smatch-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"SML012", "SML013", "SML014", "SML015"} <= rule_ids
        assert all(result["level"] == "error" for result in run["results"])

    def test_round_trip_against_json_format(self, seeded_file, capsys):
        main(["--format", "json", str(seeded_file)])
        plain = json.loads(capsys.readouterr().out)
        main(["--format", "sarif", str(seeded_file)])
        sarif = json.loads(capsys.readouterr().out)
        expected = {
            (v["path"], v["line"], v["col"], v["code"], v["message"])
            for v in plain["violations"]
        }
        got = set()
        for result in sarif["runs"][0]["results"]:
            location = result["locations"][0]["physicalLocation"]
            got.add(
                (
                    location["artifactLocation"]["uri"],
                    location["region"]["startLine"],
                    location["region"]["startColumn"],
                    result["ruleId"],
                    result["message"]["text"],
                )
            )
        assert got == expected
        assert sarif["runs"][0]["properties"]["filesChecked"] == plain[
            "files_checked"
        ]

    def test_clean_tree_emits_empty_results(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main(["--format", "sarif", str(clean)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# live-tree gates for the new rules
# ---------------------------------------------------------------------------


class TestLiveTreeConcurrencyGates:
    def test_new_rules_are_listed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SML012", "SML013", "SML014", "SML015"):
            assert code in out

    def test_no_file_wide_concurrency_waivers_in_runtime_packages(self):
        # acceptance bar: reviewed line-level waivers only in the packages
        # whose shared state the rules police
        for directory in ("parallel", "obs", "server"):
            for path in (REPO_ROOT / "src" / "repro" / directory).rglob("*.py"):
                text = path.read_text(encoding="utf-8")
                assert "disable-file" not in text, path

    def test_line_waivers_carry_a_rationale(self):
        # every concurrency waiver in src/ must say why (text after the
        # code list, set off so the directive parser does not eat it)
        for path in (REPO_ROOT / "src").rglob("*.py"):
            for line in path.read_text(encoding="utf-8").splitlines():
                if "smatch-lint: disable=SML01" not in line:
                    continue
                directive = line.split("smatch-lint: disable=", 1)[1]
                assert "—" in directive or " - " in directive, (path, line)


class TestSml015ShardLifecycle:
    """Shard-tier resources joined the SML015 creator/release pair set."""

    SHARD_PATH = "src/repro/server/sharding/widget.py"

    def test_leaked_wal_flagged(self):
        found = check(
            """
    def open_log(path):
        wal = ShardWal(path)
        wal.append_record(b"x")
        wal.commit()
    """,
            self.SHARD_PATH,
        )
        assert codes(found) == ["SML015"]
        assert "close" in found[0].message

    def test_closed_wal_clean(self):
        assert (
            check(
                """
    def open_log(path):
        wal = ShardWal(path)
        try:
            wal.append_record(b"x")
            wal.commit()
        finally:
            wal.close()
    """,
                self.SHARD_PATH,
            )
            == []
        )

    def test_returned_tier_is_ownership_transfer(self):
        assert (
            check(
                """
    def build(n):
        tier = ShardedTier(shards=n)
        return tier
    """,
                self.SHARD_PATH,
            )
            == []
        )

    def test_leaked_tier_and_state_flagged(self):
        found = check(
            """
    def probe(n, path, payloads):
        tier = ShardedTier(shards=n)
        state = ShardState(0, directory=path)
        tier.put_batch(payloads)
        state.apply([("put", p) for p in payloads])
    """,
            self.SHARD_PATH,
        )
        assert codes(found) == ["SML015", "SML015"]

    def test_closed_process_shard_clean(self):
        assert (
            check(
                """
    def run(spec, ops):
        shard = ProcessShard(spec)
        try:
            return shard.apply(ops)
        finally:
            shard.close()
    """,
                self.SHARD_PATH,
            )
            == []
        )
