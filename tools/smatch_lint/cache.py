"""On-disk summary/violation cache with transitive invalidation.

Whole-program analysis makes a lint of ``src/`` a function of *every*
module in the import closure, so the cache key for one module must change
whenever anything it (transitively) imports changes.  That is exactly the
**transitive fingerprint**: walking the SCC condensation dependencies-first,
each SCC's fingerprint hashes its members' content hashes together with the
fingerprints of every dependency SCC; a member's fingerprint additionally
mixes in its own content hash so members of one cycle stay distinct.  Edit
one file and the fingerprints of that file, its SCC, and every transitive
importer all change — nothing else does.

Entries are namespaced by an *analysis fingerprint* (engine version, the
:class:`~tools.smatch_lint.config.LintConfig` in effect, the rule
inventory, and the unused-suppression reporting flag), so a rule change or
config edit invalidates everything at once without any version bookkeeping
in the entries themselves.

Two storage tiers share one format:

* a process-wide in-memory store (always on) — repeated ``lint_paths``
  calls in one process (the test suite, editor integrations) re-analyze
  only what changed on disk between calls;
* an optional JSON file (the CLI default, ``--no-cache`` to skip) — CI and
  pre-commit get warm runs across processes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tools.smatch_lint.config import LintConfig
from tools.smatch_lint.modgraph import Program

__all__ = [
    "ENGINE_VERSION",
    "SummaryStore",
    "analysis_fingerprint",
    "content_hash",
    "transitive_fingerprints",
]

#: bump on any change to taint semantics, summaries, or rule behavior —
#: stale cached results must never survive an engine upgrade
ENGINE_VERSION = "smatch-lint-8"


def content_hash(display_path: str, source: str) -> str:
    """Hash of one module's identity and contents.

    The display path participates because rule behavior is path-scoped
    (TCB membership, taint scope, per-path ignores): the same bytes at a
    different path are a different analysis.
    """
    digest = hashlib.sha256()
    digest.update(display_path.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def analysis_fingerprint(
    config: LintConfig,
    rule_codes: Tuple[str, ...],
    report_unused_suppressions: bool,
) -> str:
    """Namespace key: everything besides file contents that shapes output."""
    digest = hashlib.sha256()
    digest.update(ENGINE_VERSION.encode("utf-8"))
    digest.update(repr(config).encode("utf-8"))
    digest.update(",".join(rule_codes).encode("utf-8"))
    digest.update(b"unused" if report_unused_suppressions else b"-")
    return digest.hexdigest()


def transitive_fingerprints(
    program: Program, hashes: Dict[str, str]
) -> Dict[str, str]:
    """Per-module fingerprints covering the whole transitive import cone.

    ``hashes`` maps module names to :func:`content_hash` values.  Walks
    SCCs dependencies-first so every dependency fingerprint exists by the
    time an SCC needs it.
    """
    fingerprints: Dict[str, str] = {}
    scc_fp: Dict[str, str] = {}
    for scc in program.sccs_topological():
        digest = hashlib.sha256()
        for member in scc:
            digest.update(hashes.get(member, "?").encode("utf-8"))
        member_set = set(scc)
        dep_fps = sorted(
            {
                scc_fp[dep]
                for member in scc
                for dep in program.modules[member].deps
                if dep not in member_set and dep in scc_fp
            }
        )
        for dep in dep_fps:
            digest.update(dep.encode("utf-8"))
        base = digest.hexdigest()
        for member in scc:
            scc_fp[member] = base
            fingerprints[member] = hashlib.sha256(
                (base + hashes.get(member, "?")).encode("utf-8")
            ).hexdigest()
    return fingerprints


#: process-wide store: analysis fingerprint -> module name -> entry
_MEMORY: Dict[str, Dict[str, Dict[str, object]]] = {}


class SummaryStore:
    """One namespace of cached per-module results.

    An entry holds the module's transitive fingerprint, its serialized
    :class:`~tools.smatch_lint.summaries.ModuleSummary`, and — for modules
    that were explicitly requested — the serialized violation list.
    """

    def __init__(
        self, fingerprint: str, disk_path: Optional[Path] = None
    ) -> None:
        self.fingerprint = fingerprint
        self.disk_path = disk_path
        self._entries = _MEMORY.setdefault(fingerprint, {})
        self._dirty = False
        if disk_path is not None:
            self._load_disk(disk_path)

    def _load_disk(self, path: Path) -> None:
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if raw.get("fingerprint") != self.fingerprint:
            return  # engine/config changed: the file is one big stale entry
        stored = raw.get("modules")
        if not isinstance(stored, dict):
            return
        for name, entry in stored.items():
            # in-memory entries are at least as fresh as the disk's
            self._entries.setdefault(name, entry)

    # -- lookups ---------------------------------------------------------------

    def summary(self, name: str, tfp: str) -> Optional[Dict[str, object]]:
        """The stored serialized summary, if still valid for ``tfp``."""
        entry = self._entries.get(name)
        if entry is None or entry.get("tfp") != tfp:
            return None
        summary = entry.get("summary")
        return summary if isinstance(summary, dict) else None

    def violations(self, name: str, tfp: str) -> Optional[List[Dict[str, object]]]:
        """The stored violation list, if still valid for ``tfp``."""
        entry = self._entries.get(name)
        if entry is None or entry.get("tfp") != tfp:
            return None
        violations = entry.get("violations")
        return violations if isinstance(violations, list) else None

    # -- updates ---------------------------------------------------------------

    def store(
        self,
        name: str,
        tfp: str,
        summary: Dict[str, object],
        violations: Optional[List[Dict[str, object]]],
    ) -> None:
        entry: Dict[str, object] = {"tfp": tfp, "summary": summary}
        previous = self._entries.get(name)
        if violations is not None:
            entry["violations"] = violations
        elif previous is not None and previous.get("tfp") == tfp:
            # keep a previously stored violation list for this same state
            kept = previous.get("violations")
            if isinstance(kept, list):
                entry["violations"] = kept
        if previous != entry:
            self._entries[name] = entry
            self._dirty = True

    def save(self) -> None:
        """Persist to disk (no-op for memory-only stores or clean runs)."""
        if self.disk_path is None:
            return
        if not self._dirty and self.disk_path.exists():
            return
        payload = {
            "fingerprint": self.fingerprint,
            "modules": self._entries,
        }
        try:
            self.disk_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.disk_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(self.disk_path)
        except OSError:
            # a read-only checkout degrades to memory-only caching
            return
