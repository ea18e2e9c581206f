"""Lint configuration: the repo-specific knobs every rule reads.

The defaults encode this repository's layout and threat model.  Tests (and
any future monorepo split) can construct a :class:`LintConfig` with different
values; the CLI always uses :data:`DEFAULT_CONFIG`.

All path entries are POSIX-style *suffixes* matched against the linted
file's normalized path, so the tool behaves identically whether invoked as
``python -m tools.smatch_lint src/`` or pointed at a single file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Pattern, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


#: Identifier fragments that mark a value as secret for SML002.  Matched
#: case-insensitively against whole underscore-delimited name segments, so
#: ``session_key`` and ``mac_key`` hit but ``monkeypatch`` does not.
_SECRET_NAME_RE = re.compile(
    r"(?:^|_)(?:key|keys|secret|secrets|tag|tags|mac|digest|digests"
    r"|token|tokens|witness|witnesses|unblinder|kup|k_prime|oprf_output)"
    r"(?:_|$)",
    re.IGNORECASE,
)

#: Identifier fragments that mark a name as *public* even when it also
#: matches the secret pattern: ``key_index`` (the published h(Kup)),
#: ``public_key``, ``key_size`` and friends are not secret material.
_PUBLIC_NAME_RE = re.compile(
    r"(?:^|_)(?:public|pub|index|indexes|indices|size|sizes|len|length"
    r"|bits|bit|id|ids|idx|kind|name|names|type|count|info|schema)"
    r"(?:_|$)",
    re.IGNORECASE,
)

#: Identifier segments that mark a receiver as a logger for SML006:
#: ``_log``, ``logger``, ``logging``, ``audit_log`` all hit.
_LOGGER_NAME_RE = re.compile(
    r"(?:^|_)(?:log|logs|logger|loggers|logging)(?:_|$)",
    re.IGNORECASE,
)

#: Constructors whose instances are wire messages (SML008): any tainted
#: value handed to one of these becomes part of a response's observable
#: encoding.  Matched against the bare class name at the call site.
_WIRE_MESSAGE_CTOR_RE = re.compile(
    r"(?:Message|Request|Response|Result|Entry|Info)$"
)

#: Function names that denote parallel task units (SML011): the chunk
#: functions shipped to worker processes and the pool worker plumbing.
#: Matched against whole underscore-delimited trailing segments, so
#: ``enroll_chunk``, ``_run_chunk``, and ``_initialize_worker`` hit.
_PARALLEL_TASK_NAME_RE = re.compile(r"(?:^|_)(?:chunk|task|worker)s?$")

#: Identifier segments that mark a name as a lock for SML012/SML014:
#: ``_lock``, ``registry_lock``, ``mutex`` all hit.  Used for module-level
#: lock globals and for attributes on objects of unknown classes.
_LOCK_NAME_RE = re.compile(r"(?:^|_)(?:lock|locks|rlock|mutex)$", re.IGNORECASE)


@dataclass(frozen=True)
class LintConfig:
    """Tunable parameters for all smatch-lint rules."""

    #: SML001 — the only module allowed to import :mod:`random` (the
    #: seeded-CSPRNG facade everything else must go through).
    rand_facade_suffixes: Tuple[str, ...] = ("repro/utils/rand.py",)

    #: SML002 — name heuristics for secret / explicitly-public identifiers.
    secret_name_re: Pattern[str] = field(default=_SECRET_NAME_RE)
    public_name_re: Pattern[str] = field(default=_PUBLIC_NAME_RE)

    #: SML003 / SML004 — directories forming the exact-arithmetic trusted
    #: computing base, as path fragments.  ``repro/parallel/`` joins the
    #: set because its task envelopes ship key material into worker
    #: processes: it must stay float-free and must never import the
    #: untrusted server/net/client layers (execution policy only).
    tcb_dir_fragments: Tuple[str, ...] = (
        "repro/crypto/",
        "repro/gf/",
        "repro/ntheory/",
        "repro/parallel/",
    )

    #: SML003 — TCB files allowed to use floats (the OPE hypergeometric
    #: sampler needs log-gamma arithmetic; its outputs are re-quantized).
    float_allowlist_suffixes: Tuple[str, ...] = ("repro/crypto/ope.py",)

    #: SML004 — packages the TCB must never import (untrusted / IO layers).
    forbidden_layer_packages: Tuple[str, ...] = (
        "repro.server",
        "repro.net",
        "repro.client",
        "repro.experiments",
    )

    #: SML005 — paths exempt from the assert ban (test code asserts freely).
    assert_exempt_fragments: Tuple[str, ...] = ("tests/", "conftest.py")

    #: SML006 — receiver-name heuristic for logger objects.
    logger_name_re: Pattern[str] = field(default=_LOGGER_NAME_RE)

    #: SML006 — calls whose result is public even when fed secret values
    #: (a length or type name leaks no key material).
    value_laundering_calls: Tuple[str, ...] = ("len", "type", "bool", "isinstance")

    # -- SML007–SML009: secret-flow taint tracking --------------------------------

    #: Path fragments where the taint rules apply: the honest-but-curious
    #: server's message handlers, whose timing, wire fields, and response
    #: sizes the §IV adversary observes.
    taint_scope_fragments: Tuple[str, ...] = (
        "repro/net/",
        "repro/server/",
    )

    #: Registered secret-bearing APIs: calling any of these yields secret
    #: material (taint sources beyond the name heuristics).  ``ProfileKey``
    #: and the KDF family produce key material; ``HmacSha256`` is the keyed
    #: PRF object (its state is the key's HMAC pads); ``blind`` mints the
    #: OPRF blinding factor; ``evaluate_blinded``/``unblinded_evaluate``
    #: apply the key service's private RSA exponent.
    taint_source_calls: Tuple[str, ...] = (
        "ProfileKey",
        "ProfileKeygen",
        "derive",
        "derive_from_values",
        "subkey",
        "hkdf",
        "prf",
        "HmacSha256",
        "blind",
        "evaluate_blinded",
        "unblinded_evaluate",
    )

    #: Secret-bearing *method* names only matched on attribute calls —
    #: ``cipher.open(...)`` and ``cipher.open_many(...)`` yield plaintext,
    #: but the ``open`` builtin (a bare name) opens files and stays clean.
    #: ``HmacSha256.mac`` is the keyed PRF's output: a MAC tag or derived
    #: key, never a public commitment, so it is a source in its own right
    #: and not one of the name-matched ``digest`` sanitizers below —
    #: whatever object it is read through.
    taint_source_methods: Tuple[str, ...] = ("open", "open_many", "mac")

    #: Sanitizers: calls whose results are public regardless of inputs.
    #: ``constant_time_eq`` yields the protocol-mandated accept/reject
    #: bit; hashing commits without revealing; the value launders above
    #: are folded in by :meth:`is_taint_sanitizer`.
    taint_sanitizer_calls: Tuple[str, ...] = (
        "constant_time_eq",
        "sha256",
        "sha384",
        "sha512",
        "sha3_256",
        "blake2b",
        "blake2s",
        "hash_to_int",
        "hash_to_range",
        "digest",
        "hexdigest",
        "redact",
    )

    #: Approved encrypt/blind calls for SML008: their outputs are
    #: ciphertext (or blinded group elements) and may legitimately reach
    #: serialization and transport sinks.
    wire_approved_calls: Tuple[str, ...] = (
        "seal",
        "encrypt",
        "encrypt_block",
        "ctr_xcrypt",
    )

    #: Serialization / transport sinks for SML008: tainted values must not
    #: reach these (``repro.utils.serial`` encoders and field functions,
    #: transport ``send``, ``struct.pack``).
    wire_sink_calls: Tuple[str, ...] = (
        "write_int",
        "write_bytes",
        "write_str",
        "int_field",
        "bytes_field",
        "send",
        "sendall",
        "pack",
    )

    #: SML008 — wire-message constructor name pattern (see module docs).
    wire_message_ctor_re: Pattern[str] = field(default=_WIRE_MESSAGE_CTOR_RE)

    #: SML009 — calls whose (first) argument sets an observable size:
    #: ``bytes(n)`` / ``bytearray(n)`` allocate n zero bytes, ``range(n)``
    #: drives padding and batch loops.
    size_sink_calls: Tuple[str, ...] = ("bytes", "bytearray", "range")

    # -- SML010: process-boundary serialization ------------------------------------

    #: Sources whose outputs are secret-derived but *masked*: the OPRF
    #: blind evaluation returns x^d mod N on a value still hidden by the
    #: client's blinding factor r^e, so the result may cross wire and
    #: process boundaries (SML008/SML010) while remaining secret for the
    #: timing/size rules.  The precise replacement for the two line-level
    #: SML008 waivers the keyservice response path used to carry.
    wire_masked_calls: Tuple[str, ...] = ("evaluate_blinded",)

    #: Path fragments where SML010 applies: everywhere a task envelope or
    #: pickle payload can be minted — the parallel layer itself, the
    #: server handlers that fan work out, and the enrollment core.
    boundary_scope_fragments: Tuple[str, ...] = (
        "repro/net/",
        "repro/server/",
        "repro/parallel/",
        "repro/core/",
    )

    #: Calls whose arguments are serialized across a process boundary:
    #: ``pickle.dumps``/``dump``, task-envelope constructors, pool
    #: ``submit``, shared-memory segments, and the shard durability
    #: sinks — ``append_record`` frames a value into a shard's on-disk
    #: WAL and ``write_snapshot`` persists every stored upload, both of
    #: which outlive the process and are replayed into restarted shard
    #: workers, so tainted material must never reach them unencrypted.
    boundary_sink_calls: Tuple[str, ...] = (
        "dumps",
        "dump",
        "TaskEnvelope",
        "SharedMemory",
        "ShareableList",
        "append_record",
        "write_snapshot",
    )

    #: Keyword arguments that ship their value into worker processes even
    #: though the surrounding call is not itself a sink (``Pool(...,
    #: initargs=(ctx,))`` pickles the tuple into every worker).
    boundary_kwargs: Tuple[str, ...] = ("initargs",)

    # -- SML011: parallel determinism ----------------------------------------------

    #: Path fragments where the cross-backend byte-identical contract
    #: holds; SML011 audits task-unit functions here.
    parallel_scope_fragments: Tuple[str, ...] = ("repro/parallel/",)

    #: Function-name pattern for parallel task units (see module docs).
    parallel_task_name_re: Pattern[str] = field(default=_PARALLEL_TASK_NAME_RE)

    #: Wall-clock reads (``time.time()``, ``datetime.now()``, ...): their
    #: values differ per worker and per run, so any result derived from
    #: them breaks byte-identical replay.
    nondet_time_calls: Tuple[str, ...] = (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "now",
        "utcnow",
    )

    #: Unseeded randomness calls: OS entropy and global-RNG draws cannot
    #: be replayed, so task units must derive randomness from the seeds
    #: carried in their specs.
    nondet_random_calls: Tuple[str, ...] = (
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "shuffle",
        "sample",
        "token_bytes",
        "token_hex",
        "urandom",
    )

    #: Seedable randomness-source constructors: calling one *without* a
    #: seed argument inside a task unit draws OS entropy per worker.
    seedable_source_ctors: Tuple[str, ...] = ("SystemRandomSource",)

    # -- SML012–SML015: concurrency safety ------------------------------------------

    #: Path fragments where the concurrency rules (SML012/014/015) apply:
    #: the whole package — since PR 5 any layer may run under thread or
    #: process pools, so lock discipline is not a parallel/-only concern.
    concurrency_scope_fragments: Tuple[str, ...] = ("repro/",)

    #: Lock-name heuristic (module-level lock globals, lock-ish attributes).
    lock_name_re: Pattern[str] = field(default=_LOCK_NAME_RE)

    #: Constructors whose result is a mutual-exclusion lock (SML012 infers
    #: a class's lock fields from ``self.X = threading.Lock()`` assigns).
    lock_ctor_names: Tuple[str, ...] = ("Lock", "RLock")

    #: Constructors whose instances must never be captured into process-pool
    #: ``initargs`` or task contexts (SML014): fork-inherited lock state is
    #: the canonical pool deadlock, and thread-locals and tracers are
    #: orphaned copies in the child.
    unforkable_ctor_names: Tuple[str, ...] = (
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "local",
        "Tracer",
    )

    #: Method names that may block on another thread/process while called
    #: (SML014 flags them inside a lock-held region — the held lock then
    #: participates in any wait cycle).  Attribute calls only; ``str.join``
    #: and friends are excluded by the non-constant-receiver check.
    blocking_call_names: Tuple[str, ...] = (
        "acquire",
        "join",
        "submit",
        "map_chunks",
        "result",
        "recv",
        "shutdown",
    )

    #: Constructors/displays of mutable containers for SML013's module-level
    #: shared-state inference.
    mutable_ctor_names: Tuple[str, ...] = (
        "dict",
        "list",
        "set",
        "bytearray",
        "OrderedDict",
        "defaultdict",
        "deque",
        "Counter",
    )

    #: Method names that mutate their receiver in place (SML012/SML013
    #: treat ``self.F.append(...)`` / ``CACHE.pop()`` as writes).
    mutating_method_names: Tuple[str, ...] = (
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "clear",
        "update",
        "add",
        "remove",
        "discard",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    )

    #: SML015 — resource constructors paired with the method that releases
    #: them: an open ``ShardWal`` holds an fd and uncommitted frames, a
    #: ``ShardState`` owns one, a ``ProcessShard`` pins a warm
    #: single-worker pool, and a ``ShardedTier`` owns its shards.
    resource_release_methods: Tuple[Tuple[str, str], ...] = (
        ("ShardWal", "close"),
        ("ShardState", "close"),
        ("ProcessShard", "close"),
        ("ShardedTier", "close"),
    )

    #: Per-path rule ignore sets: ``(path fragment, rule codes)`` pairs.
    #: Test code asserts on equality of freshly derived keys (that *is*
    #: the test) and seeds module-level randomness for reproducibility, so
    #: SML001/SML002 stay off under ``tests/``; everything else applies.
    path_rule_ignores: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("tests/", ("SML001", "SML002")),
    )

    def is_rand_facade(self, posix_path: str) -> bool:
        """True when ``posix_path`` is the randomness facade module."""
        return posix_path.endswith(self.rand_facade_suffixes)

    def is_tcb_path(self, posix_path: str) -> bool:
        """True when the file belongs to the trusted computing base."""
        return any(frag in posix_path for frag in self.tcb_dir_fragments)

    def is_float_allowlisted(self, posix_path: str) -> bool:
        """True when the TCB file may use float arithmetic."""
        return posix_path.endswith(self.float_allowlist_suffixes)

    def is_assert_exempt(self, posix_path: str) -> bool:
        """True when the assert ban does not apply (test code)."""
        return any(frag in posix_path for frag in self.assert_exempt_fragments)

    def is_secret_name(self, identifier: str) -> bool:
        """Apply the SML002 heuristic to a bare identifier."""
        if self.public_name_re.search(identifier):
            return False
        return bool(self.secret_name_re.search(identifier))

    def is_logger_name(self, identifier: str) -> bool:
        """True when an identifier plausibly names a logger (SML006)."""
        return bool(self.logger_name_re.search(identifier))

    # -- SML007–SML009 helpers ----------------------------------------------------

    def is_taint_scope(self, posix_path: str) -> bool:
        """True when the taint rules apply to this file."""
        return any(frag in posix_path for frag in self.taint_scope_fragments)

    def is_taint_source_call(self, name: str, is_method: bool = False) -> bool:
        """True when a call to ``name`` yields secret material."""
        if name in self.taint_source_calls:
            return True
        return is_method and name in self.taint_source_methods

    def is_taint_sanitizer(self, name: str) -> bool:
        """True when a call to ``name`` launders taint (public result)."""
        return (
            name in self.taint_sanitizer_calls
            or name in self.value_laundering_calls
            or name in self.wire_approved_calls
        )

    def is_wire_sink(self, name: str) -> bool:
        """True when a call to ``name`` writes to the wire (SML008)."""
        return name in self.wire_sink_calls

    def is_wire_message_ctor(self, name: str) -> bool:
        """True when ``name`` constructs a wire message (SML008)."""
        return bool(self.wire_message_ctor_re.search(name))

    def is_size_sink(self, name: str) -> bool:
        """True when a call's first argument sets a size (SML009)."""
        return name in self.size_sink_calls

    def is_wire_masked(self, name: str) -> bool:
        """True when a source call's output is blinded/sealed (wire-safe)."""
        return name in self.wire_masked_calls

    def is_boundary_scope(self, posix_path: str) -> bool:
        """True when SML010 applies to this file."""
        return any(frag in posix_path for frag in self.boundary_scope_fragments)

    def is_boundary_sink(self, name: str) -> bool:
        """True when a call serializes its arguments across processes."""
        return name in self.boundary_sink_calls

    def is_boundary_kwarg(self, keyword: str) -> bool:
        """True when a keyword argument ships its value into workers."""
        return keyword in self.boundary_kwargs

    def is_parallel_scope(self, posix_path: str) -> bool:
        """True when SML011 applies to this file."""
        return any(frag in posix_path for frag in self.parallel_scope_fragments)

    def is_parallel_task_name(self, name: str) -> bool:
        """True when a function name denotes a parallel task unit."""
        return bool(self.parallel_task_name_re.search(name))

    # -- SML012–SML015 helpers ----------------------------------------------------

    def is_concurrency_scope(self, posix_path: str) -> bool:
        """True when SML012/SML014/SML015 apply to this file."""
        return any(frag in posix_path for frag in self.concurrency_scope_fragments)

    def is_lock_name(self, identifier: str) -> bool:
        """True when an identifier plausibly names a lock (SML012/SML014)."""
        return bool(self.lock_name_re.search(identifier))

    def is_lock_ctor(self, name: str) -> bool:
        """True when calling ``name`` constructs a lock (SML012)."""
        return name in self.lock_ctor_names

    def is_unforkable_ctor(self, name: str) -> bool:
        """True when instances of ``name`` must not cross a fork (SML014)."""
        return name in self.unforkable_ctor_names

    def is_blocking_call(self, name: str) -> bool:
        """True when method ``name`` may block on other workers (SML014)."""
        return name in self.blocking_call_names

    def is_mutable_ctor(self, name: str) -> bool:
        """True when calling ``name`` builds a mutable container (SML013)."""
        return name in self.mutable_ctor_names

    def is_mutating_method(self, name: str) -> bool:
        """True when method ``name`` mutates its receiver in place."""
        return name in self.mutating_method_names

    def resource_release_for(self, ctor: str) -> Optional[str]:
        """The releasing method for resource constructor ``ctor`` (SML015)."""
        for name, release in self.resource_release_methods:
            if name == ctor:
                return release
        return None

    def ignored_rules_for_path(self, posix_path: str) -> FrozenSet[str]:
        """Rule codes switched off for this path (test-specific set)."""
        ignored = set()
        for fragment, codes in self.path_rule_ignores:
            if fragment in posix_path:
                ignored.update(codes)
        return frozenset(ignored)


DEFAULT_CONFIG = LintConfig()
