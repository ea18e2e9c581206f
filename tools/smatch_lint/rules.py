"""The fifteen smatch-lint rules.

Each rule is a class with a ``code``, a one-line summary (the first docstring
line, shown by ``--list-rules``), and a ``check`` method yielding
``(lineno, col, message)`` triples.  Rules receive the parsed AST plus a
:class:`RuleContext` describing the file being linted; they never read the
filesystem themselves, which keeps them trivially testable on source
snippets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Type

from tools.smatch_lint import concurrency, taint
from tools.smatch_lint.config import LintConfig

__all__ = ["RuleContext", "Rule", "RULES", "RULE_CODES"]

Finding = Tuple[int, int, str]


@dataclass(frozen=True)
class RuleContext:
    """Everything a rule may know about the file under analysis."""

    #: normalized POSIX path (relative to the repo root when possible)
    path: str
    config: LintConfig
    #: lines carrying an explicit ``# smatch-lint: secret`` annotation —
    #: assignments on these lines become taint sources for SML007–SML009
    secret_lines: FrozenSet[int] = frozenset()
    #: per-file scratch space so the taint rules share one dataflow pass
    cache: Dict[str, object] = field(default_factory=dict, compare=False)
    #: whole-program import resolver (``tools.smatch_lint.summaries``);
    #: ``None`` when linting a single source in isolation
    imports: Optional[object] = field(default=None, compare=False)


class Rule:
    """Base class; subclasses define ``code`` and override ``check``."""

    code: str = "SML000"

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def summary(cls) -> str:
        """First line of the rule docstring (for ``--list-rules``)."""
        doc = cls.__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""


def _at(node: ast.AST) -> Tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


class RandomImportRule(Rule):
    """SML001: randomness must flow through the repro.utils.rand facade.

    ``random.Random`` is a Mersenne Twister — fully predictable from 624
    outputs — so any key material, IV, blinding factor, or OPE coin drawn
    from it is recoverable by the paper's Section IV adversary.  The only
    module allowed to touch :mod:`random` is the facade, which defaults to
    ``random.SystemRandom`` (OS entropy) and labels seeded instances as
    non-cryptographic.
    """

    code = "SML001"

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if ctx.config.is_rand_facade(ctx.path):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random":
                        line, col = _at(node)
                        yield (
                            line,
                            col,
                            "direct `import random` — draw randomness "
                            "through repro.utils.rand instead",
                        )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "random"
            ):
                line, col = _at(node)
                yield (
                    line,
                    col,
                    "`from random import ...` — draw randomness "
                    "through repro.utils.rand instead",
                )


class SecretEqualityRule(Rule):
    """SML002: no `==`/`!=` on secret-typed values; use constant_time_eq.

    Python's ``==`` on bytes/ints short-circuits at the first differing
    byte, so comparing MAC tags, profile keys, or OPRF outputs with it is a
    byte-at-a-time timing oracle (the classic HMAC-forgery attack).  Secrets
    are detected by a name heuristic (``key``, ``tag``, ``digest``,
    ``witness``, ... segments) with a public-name override (``key_index``,
    ``public_key``, ``key_size`` are fine).  Use
    :func:`repro.utils.ct.constant_time_eq`.
    """

    code = "SML002"

    @staticmethod
    def _terminal_name(node: ast.expr) -> Optional[str]:
        """The identifier an operand ultimately names, if any.

        Unwraps subscripts (``keys[i]`` -> ``keys``); calls are opaque
        (``len(key)`` compares a public length, not the key).
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for operand in [node.left, *node.comparators]:
                name = self._terminal_name(operand)
                if name and ctx.config.is_secret_name(name):
                    line, col = _at(node)
                    yield (
                        line,
                        col,
                        f"`==`/`!=` on secret-looking value {name!r} — "
                        "use repro.utils.ct.constant_time_eq",
                    )
                    break


class FloatArithmeticRule(Rule):
    """SML003: no float arithmetic in the exact-arithmetic TCB.

    ``crypto/``, ``gf/``, and ``ntheory/`` operate on exact integers
    (modular arithmetic, GF(2^m), RS syndromes); a stray ``/`` or float
    literal silently rounds and corrupts ciphertexts or key material
    instead of failing loudly.  Only the OPE hypergeometric sampler
    (``crypto/ope.py``) is allowlisted — its float use is inherent to the
    Boldyreva sampling law and re-quantized on output.
    """

    code = "SML003"

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.config.is_tcb_path(ctx.path):
            return
        if ctx.config.is_float_allowlisted(ctx.path):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                line, col = _at(node)
                yield (line, col, f"float literal {node.value!r} in exact-arithmetic code")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                line, col = _at(node)
                yield (
                    line,
                    col,
                    "true division `/` yields float — use `//`, "
                    "Fraction, or math.isqrt",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                line, col = _at(node)
                yield (line, col, "float() conversion in exact-arithmetic code")


class ImportLayeringRule(Rule):
    """SML004: the TCB must not import server/net/client/experiments code.

    The security arguments treat ``crypto/``, ``gf/``, and ``ntheory/`` as a
    closed trusted computing base the untrusted server merely *uses*.  An
    import edge from the TCB into ``server/``, ``net/``, ``client/``, or
    ``experiments/`` would let untrusted-side types or IO flow into
    primitive code (and create cycles), dissolving that boundary.
    """

    code = "SML004"

    @staticmethod
    def _package_parts(posix_path: str) -> List[str]:
        """Dotted package parts of the linted module (under ``src/``)."""
        parts = posix_path.split("/")
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        if parts and parts[-1].endswith(".py"):
            # keep __init__ as a pseudo-module so relative-level stripping
            # lands on the package itself, matching import semantics
            parts = parts[:-1] + [parts[-1][:-3]]
        return parts

    def _resolved_target(
        self, node: ast.ImportFrom, ctx: RuleContext
    ) -> Optional[str]:
        """Absolute dotted module an ``ImportFrom`` resolves to."""
        if node.level == 0:
            return node.module
        pkg = self._package_parts(ctx.path)
        # one level strips the module itself, further levels strip packages
        base = pkg[: len(pkg) - node.level] if len(pkg) >= node.level else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.config.is_tcb_path(ctx.path):
            return
        forbidden = ctx.config.forbidden_layer_packages
        for node in ast.walk(tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                resolved = self._resolved_target(node, ctx)
                if resolved:
                    targets = [resolved]
            for target in targets:
                for pkg in forbidden:
                    if target == pkg or target.startswith(pkg + "."):
                        line, col = _at(node)
                        yield (
                            line,
                            col,
                            f"trusted-computing-base module imports {target!r} "
                            "(untrusted layer) — invert the dependency",
                        )


class ExceptionHygieneRule(Rule):
    """SML005: no bare/swallowing excepts, no assert-as-validation.

    A bare ``except:`` (or ``except Exception: pass``) hides integrity
    failures — a tampered store or forged authenticator must surface as a
    typed ``repro.errors`` exception, not vanish.  ``assert`` is compiled
    out under ``python -O``, so validation guarded by it silently stops
    running in optimized deployments; raise typed errors instead.
    """

    code = "SML005"

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        broad = handler.type is None or (
            isinstance(handler.type, ast.Name)
            and handler.type.id in ("Exception", "BaseException")
        )
        only_pass = all(isinstance(stmt, ast.Pass) for stmt in handler.body)
        return broad and only_pass

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    line, col = _at(node)
                    yield (
                        line,
                        col,
                        "bare `except:` — catch a typed repro.errors exception",
                    )
                elif self._swallows(node):
                    line, col = _at(node)
                    yield (
                        line,
                        col,
                        "`except Exception: pass` swallows failures — catch "
                        "a typed repro.errors exception or re-raise",
                    )
            elif isinstance(node, ast.Assert) and not ctx.config.is_assert_exempt(
                ctx.path
            ):
                line, col = _at(node)
                yield (
                    line,
                    col,
                    "`assert` is stripped under python -O — raise a typed "
                    "repro.errors exception for runtime validation",
                )


class SecretLoggingRule(Rule):
    """SML006: no secret material in log or exception messages.

    Telemetry and tracebacks leave the process — they land in files,
    collectors, and bug reports the Section-IV threat model treats as
    adversary-readable.  A key, tag, or OPRF output interpolated into a log
    record or an exception string therefore *is* the information leakage
    the scheme exists to prevent.  The rule flags secret-named identifiers
    (the SML002 heuristics) reaching a logging call (``logger.info(...)``
    and friends, including via f-strings) or a ``raise``'d exception
    constructor.  Lengths and types are public (``len(key)`` is fine);
    log *about* secret material via sizes, hashes of public indexes, or
    the :class:`repro.obs.logs.Redactor` facade.
    """

    code = "SML006"

    #: stdlib-logging emit methods (SML006 flags their arguments).
    _LOG_METHODS = frozenset(
        {"debug", "info", "warning", "error", "critical", "exception", "log"}
    )

    @staticmethod
    def _receiver_name(func: ast.expr) -> Optional[str]:
        """The identifier a method call's receiver ultimately names.

        ``_log.debug`` -> ``_log``; ``self._log.debug`` -> ``_log``.
        """
        if isinstance(func, ast.Attribute):
            obj = func.value
            if isinstance(obj, ast.Attribute):
                return obj.attr
            if isinstance(obj, ast.Name):
                return obj.id
        return None

    def _secret_names_in(
        self, node: ast.expr, ctx: RuleContext
    ) -> Iterator[Tuple[str, ast.expr]]:
        """Secret-named identifiers reachable in a message expression.

        Descends through f-strings, formatting, and ordinary calls; stops
        at value-laundering calls (``len``, ``type``, ...) whose results
        are public regardless of their inputs.
        """
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ctx.config.value_laundering_calls
            ):
                return
            # the receiver of a method call may itself be secret
            # (f"{key.hex()}"), so descend into the func too
            for child in [node.func, *node.args, *[k.value for k in node.keywords]]:
                yield from self._secret_names_in(child, ctx)
            return
        if isinstance(node, ast.Name):
            if ctx.config.is_secret_name(node.id):
                yield node.id, node
            return
        if isinstance(node, ast.Attribute):
            if ctx.config.is_secret_name(node.attr):
                yield node.attr, node
            else:
                yield from self._secret_names_in(node.value, ctx)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                yield from self._secret_names_in(child, ctx)

    def _message_args(self, call: ast.Call) -> List[ast.expr]:
        return [*call.args, *[k.value for k in call.keywords]]

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in self._LOG_METHODS:
                    continue
                receiver = self._receiver_name(node.func)
                if receiver is None or not ctx.config.is_logger_name(receiver):
                    continue
                for arg in self._message_args(node):
                    for name, at_node in self._secret_names_in(arg, ctx):
                        line, col = _at(at_node)
                        yield (
                            line,
                            col,
                            f"secret-looking value {name!r} reaches a logging "
                            "call — log a length or redacted form instead",
                        )
            elif isinstance(node, ast.Raise):
                exc = node.exc
                if not isinstance(exc, ast.Call):
                    continue
                for arg in self._message_args(exc):
                    for name, at_node in self._secret_names_in(arg, ctx):
                        line, col = _at(at_node)
                        yield (
                            line,
                            col,
                            f"secret-looking value {name!r} interpolated into "
                            "an exception message — exceptions leave the "
                            "process; describe the failure without the value",
                        )


class _TaintRule(Rule):
    """Shared base for the SML007–SML009 secret-flow rules.

    All three run the same forward taint analysis (one shared pass per
    file via ``ctx.cache``) and differ only in which sink contexts they
    report and how they phrase the finding.
    """

    #: taint event contexts this rule reports
    contexts: Tuple[str, ...] = ()

    def describe(self, event: "taint.TaintEvent") -> str:
        raise NotImplementedError

    def in_scope(self, ctx: RuleContext) -> bool:
        """Whether the rule applies to this file (default: taint scope)."""
        return ctx.config.is_taint_scope(ctx.path)

    def wants(self, event: "taint.TaintEvent") -> bool:
        """Per-event filter hook (e.g. skip blinded/sealed values)."""
        return True

    def events(
        self, module: "taint.ModuleTaint"
    ) -> Iterator[Tuple["taint.FunctionTaint", "taint.TaintEvent"]]:
        yield from module.events(*self.contexts)

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        module = taint.analyze_module(tree, ctx)
        seen = set()
        for _fn, event in self.events(module):
            if not self.wants(event):
                continue
            key = (event.line, event.col, event.taint.source, event.taint.kind)
            if key in seen:
                continue
            seen.add(key)
            yield (event.line, event.col, self.describe(event))


class TaintTimingRule(_TaintRule):
    """SML007: secrets must not steer control flow in net/server handlers.

    The matching server is honest-but-curious (paper §IV): a branch,
    loop bound, early return, or exception path conditioned on secret
    material changes the handler's observable timing, and low-entropy
    attributes mean even a few leaked bits prune the plaintext space
    (the frequency-analysis attacks of arXiv:1207.7199).  Taint flows
    from secret-named parameters/attributes, ``# smatch-lint: secret``
    annotations, and registered secret-bearing APIs; ``constant_time_eq``
    and hashing launder it.  Restructure the handler so control flow
    depends only on public values, or sanitize first.
    """

    code = "SML007"
    contexts = ("branch", "loop-iter")

    def describe(self, event: "taint.TaintEvent") -> str:
        shape = {
            "branch": f"steers a {event.detail} condition",
            "loop-iter": "drives a loop iteration",
        }[event.context]
        return (
            f"{event.taint.describe()} {shape} — secret-dependent "
            "timing in a handler; make control flow public or sanitize "
            "(constant_time_eq, hash) first"
        )


class TaintWireRule(_TaintRule):
    """SML008: secrets must not reach serialization or transport sinks.

    Anything handed to the ``repro.utils.serial`` encoders, a transport
    ``send``, or a wire-message constructor becomes part of a message an
    eavesdropper (or the curious server) stores and analyzes.  Secret
    material may only cross the wire after an approved encrypt/blind
    call (``seal``, ``encrypt``, ``blind``, ...) — ciphertext is fine,
    key material is the key-sharing problem the scheme exists to solve.
    """

    code = "SML008"
    contexts = ("wire",)

    def wants(self, event: "taint.TaintEvent") -> bool:
        # blinded/sealed values (``wire_ok``) are what the adversary is
        # allowed to see — only bare secret material is a wire finding
        return not event.taint.wire_ok

    def describe(self, event: "taint.TaintEvent") -> str:
        return (
            f"{event.taint.describe()} reaches wire sink "
            f"{event.detail!r} — only ciphertext may be serialized; "
            "pass the value through an approved encrypt/blind call"
        )


class TaintSizeRule(_TaintRule):
    """SML009: secrets must not parameterize observable response sizes.

    Message and padding sizes survive encryption: a ``bytes(n)``
    allocation, ``range(n)`` padding loop, or ``b"\\x00" * n`` repetition
    whose count is secret-tainted shows up as a ciphertext length the
    §IV eavesdropper reads directly (the profile-matching risk
    quantification of arXiv:2009.03698 is built on exactly such
    observables).  Pad to a public maximum instead.
    """

    code = "SML009"
    contexts = ("size",)

    def describe(self, event: "taint.TaintEvent") -> str:
        return (
            f"{event.taint.describe()} sets an observable size "
            f"({event.detail}) — response sizes survive encryption; "
            "derive sizes from public parameters or pad to a fixed bound"
        )


class ProcessBoundaryRule(_TaintRule):
    """SML010: secrets must not cross a process boundary unsealed.

    PR 5's multiprocess backend created a new leak surface the wire rules
    never see: a :class:`~repro.parallel.backend.TaskEnvelope` context, a
    pool ``initargs`` tuple, or a ``pickle.dumps`` payload is serialized
    into worker processes — written to pipes the OS may buffer to disk,
    inherited by any forked child, and visible to same-host observers the
    §IV honest-but-curious model does not exclude.  Secret material may
    only make the crossing in an approved sealed or derived form (the
    ``seal``/``encrypt`` family, or blinded OPRF outputs).  The rule also
    audits ``__reduce__``/``__getstate__``/``__reduce_ex__`` return
    values, since those define what pickling will ship implicitly.
    """

    code = "SML010"
    contexts = ("process-boundary",)

    #: pickling protocol methods whose return value IS the serialized form
    _PICKLE_METHODS = ("__reduce__", "__reduce_ex__", "__getstate__")

    def in_scope(self, ctx: RuleContext) -> bool:
        return ctx.config.is_boundary_scope(ctx.path)

    def wants(self, event: "taint.TaintEvent") -> bool:
        return not event.taint.wire_ok

    def events(
        self, module: "taint.ModuleTaint"
    ) -> Iterator[Tuple["taint.FunctionTaint", "taint.TaintEvent"]]:
        yield from module.events(*self.contexts)
        for fn in module.functions:
            if fn.qualname.split(".")[-1] not in self._PICKLE_METHODS:
                continue
            for event in fn.real_events():
                if event.context == "return":
                    yield fn, event

    def describe(self, event: "taint.TaintEvent") -> str:
        if event.detail == "return":
            return (
                f"{event.taint.describe()} is returned from a pickling "
                "protocol method — everything __reduce__/__getstate__ "
                "return is serialized into worker processes; drop or seal "
                "secret fields first"
            )
        return (
            f"{event.taint.describe()} crosses a process boundary via "
            f"{event.detail!r} — task contexts and initializer args are "
            "pickled into workers; ship a sealed or derived form instead"
        )


class ParallelDeterminismRule(Rule):
    """SML011: parallel task units must be deterministic and replayable.

    The execution-policy contract is that the serial and process
    backends produce byte-identical artifacts, so experiments are
    independent of scheduling.  Inside a task unit (``*_chunk`` /
    ``*_task`` / ``*_worker`` functions under ``repro/parallel/``) that
    contract is broken by: iterating an unordered ``set``/``frozenset``
    (or dict views taken of one) to build results, reading the wall clock,
    or drawing unseeded randomness (global RNG, OS entropy, or a seedable
    source constructed without its seed).  Sort the collection, thread a
    timestamp in from the coordinator, or derive randomness from the seed
    carried in the task spec.
    """

    code = "SML011"

    #: dict/set view accessors whose iteration order SML011 distrusts when
    #: taken of an unordered collection built inside the task
    _VIEW_METHODS = frozenset({"keys", "values", "items"})

    @staticmethod
    def _is_unordered(expr: ast.expr) -> bool:
        """True for expressions that produce unordered collections."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        return False

    def _iter_findings(
        self, func: ast.AST, ctx: RuleContext
    ) -> Iterator[Finding]:
        config = ctx.config
        # everything lexically inside the task unit executes in the worker,
        # nested helpers included, so the whole subtree is audited
        for node in ast.walk(func):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                target = it
                # ``d.items()`` over an unordered base — unwrap the view
                if (
                    isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Attribute)
                    and target.func.attr in self._VIEW_METHODS
                ):
                    target = target.func.value
                if self._is_unordered(target):
                    line, col = _at(it)
                    yield (
                        line,
                        col,
                        "iteration over an unordered set in a parallel task "
                        "unit — ordering varies across workers and runs; "
                        "wrap in sorted() to keep backends byte-identical",
                    )
            if not isinstance(node, ast.Call):
                continue
            fname: Optional[str] = None
            is_method = False
            if isinstance(node.func, ast.Name):
                fname = node.func.id
            elif isinstance(node.func, ast.Attribute):
                fname = node.func.attr
                is_method = True
            if fname is None:
                continue
            line, col = _at(node)
            if fname in config.nondet_time_calls and (
                is_method or fname not in ("now", "utcnow")
            ):
                yield (
                    line,
                    col,
                    f"wall-clock read {fname}() in a parallel task unit — "
                    "timestamps differ per worker; take time on the "
                    "coordinator and ship it in the task spec",
                )
            elif fname in config.nondet_random_calls:
                yield (
                    line,
                    col,
                    f"unseeded randomness {fname}() in a parallel task "
                    "unit — draws cannot be replayed; derive randomness "
                    "from the seed carried in the task spec",
                )
            elif (
                fname in config.seedable_source_ctors
                and not node.args
                and not node.keywords
            ):
                yield (
                    line,
                    col,
                    f"{fname}() constructed without a seed in a parallel "
                    "task unit — each worker draws distinct OS entropy; "
                    "pass the per-task seed explicitly",
                )

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if not ctx.config.is_parallel_scope(ctx.path):
            return
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and ctx.config.is_parallel_task_name(node.name):
                yield from self._iter_findings(node, ctx)


class _ConcurrencyRule(Rule):
    """Base for SML012–SML015: one shared lockset pass, filtered per rule.

    Mirrors :class:`_TaintRule` — :func:`concurrency.analyze_module` runs
    once per file (memoized through ``ctx.cache``) and each rule picks the
    findings tagged with its code.
    """

    def in_scope(self, ctx: RuleContext) -> bool:
        return ctx.config.is_concurrency_scope(ctx.path)

    def check(self, tree: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if not self.in_scope(ctx):
            return
        for found in concurrency.analyze_module(tree, ctx).findings:
            if found.rule == self.code:
                yield (found.line, found.col, found.message)


class LockDisciplineRule(_ConcurrencyRule):
    """SML012: lock-guarded fields accessed without holding the lock."""

    code = "SML012"


class TaskEscapeRule(_ConcurrencyRule):
    """SML013: module-level mutable state mutated unguarded in the parallel layer."""

    code = "SML013"

    def in_scope(self, ctx: RuleContext) -> bool:
        return ctx.config.is_parallel_scope(ctx.path)


class ForkHazardRule(_ConcurrencyRule):
    """SML014: unforkable captures into pool initargs and blocking calls under a lock."""

    code = "SML014"


class ResourceLifecycleRule(_ConcurrencyRule):
    """SML015: a registered resource must be released on every non-raising path."""

    code = "SML015"


RULES: Tuple[Type[Rule], ...] = (
    RandomImportRule,
    SecretEqualityRule,
    FloatArithmeticRule,
    ImportLayeringRule,
    ExceptionHygieneRule,
    SecretLoggingRule,
    TaintTimingRule,
    TaintWireRule,
    TaintSizeRule,
    ProcessBoundaryRule,
    ParallelDeterminismRule,
    LockDisciplineRule,
    TaskEscapeRule,
    ForkHazardRule,
    ResourceLifecycleRule,
)

RULE_CODES: Tuple[str, ...] = tuple(rule.code for rule in RULES)
