"""Lockset-style concurrency analysis behind SML012–SML015.

Four related checks over one shared AST pass (memoized per file via
``ctx.cache``), mirroring how :mod:`tools.smatch_lint.taint` backs the
SML007–SML010 family:

* **SML012 — lock discipline.**  For every class, infer its *lock fields*
  (attributes assigned ``threading.Lock()`` / ``RLock()``) and its
  *guarded fields* (attributes written somewhere under ``with
  self._lock:``).  Any read or write of a guarded field on a path not
  lexically dominated by the lock acquisition is a race candidate — the
  classic Eraser lockset algorithm restricted to ``self``-attribute
  state.  Private helpers whose every intra-class call site holds the
  lock are *lock-assuming* (``_flush_locked`` style): their own accesses
  are clean, but an unlocked call to one is a finding, and the helper set
  is exported in the module summary so cross-module callers are audited
  too.
* **SML013 — escape-to-task.**  Module-level mutable containers in
  ``repro/parallel/`` mutated inside function bodies without a module
  lock held, plus ``global`` rebinding inside parallel task units.
  Import-time mutation (single-threaded by the import lock) is exempt.
* **SML014 — fork/deadlock hazards.**  Locks, ``threading.local`` or
  tracers captured into process-pool ``initargs``, a process's ``args``
  or task-envelope contexts (fork-inherited lock state is the canonical
  pool deadlock),
  and blocking calls (``submit``, ``acquire``, ``result``, ...) issued
  while a lock is held.
* **SML015 — resource lifecycle.**  A CFG path check that every resource
  a registered constructor creates (``ShardWal``, ``ShardState``, ...)
  reaches its configured release (``close()``) or escapes ownership on
  every non-raising path.

The per-class facts (:class:`ClassConcurrency`) ride the whole-program
module summaries, so a module that imports ``MetricsRegistry`` and pokes
at ``registry._counters`` without the registry's lock is flagged from the
*caller's* file — the same cross-module application machinery the taint
engine uses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from tools.smatch_lint.cfg import build_cfg
from tools.smatch_lint.config import LintConfig

__all__ = [
    "ClassConcurrency",
    "Finding",
    "ModuleConcurrency",
    "analyze_module",
    "collect_class_facts",
]

#: methods whose unguarded self-attribute access is not a race: they run
#: before the instance is published (``__init__``/``__new__``), during
#: teardown, or on a pickling copy in another process
_EXEMPT_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__del__",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__reduce_ex__",
    }
)

#: statement fields holding nested statement lists (never expression trees)
_STMT_LIST_FIELDS = frozenset({"body", "orelse", "finalbody", "handlers", "cases"})

FuncDef = ast.FunctionDef  # appeased alias; AsyncFunctionDef handled via tuple
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Finding:
    """One concurrency finding, tagged with the rule that owns it."""

    rule: str
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class ClassConcurrency:
    """The exported lockset facts of one class (rides module summaries)."""

    name: str
    #: attributes holding a ``threading.Lock``/``RLock``
    lock_fields: FrozenSet[str] = frozenset()
    #: attributes written under a held lock somewhere in the class
    guarded_fields: FrozenSet[str] = frozenset()
    #: private methods whose every intra-class call site holds the lock —
    #: they assume the lock and must only be called with it held
    locked_helpers: FrozenSet[str] = frozenset()

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for the on-disk summary cache."""
        return {
            "locks": sorted(self.lock_fields),
            "guarded": sorted(self.guarded_fields),
            "helpers": sorted(self.locked_helpers),
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]) -> "ClassConcurrency":
        locks = data.get("locks", [])
        guarded = data.get("guarded", [])
        helpers = data.get("helpers", [])
        return cls(
            name=name,
            lock_fields=frozenset(str(v) for v in locks),  # type: ignore[union-attr]
            guarded_fields=frozenset(str(v) for v in guarded),  # type: ignore[union-attr]
            locked_helpers=frozenset(str(v) for v in helpers),  # type: ignore[union-attr]
        )


@dataclass
class ModuleConcurrency:
    """Everything the concurrency pass learned about one module."""

    classes: Dict[str, ClassConcurrency] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)


# -- small AST helpers -----------------------------------------------------------


def _at(node: ast.AST) -> Tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1


def _call_name(func: ast.expr) -> Optional[str]:
    """The bare callee name of a call's ``func`` (``threading.Lock`` -> ``Lock``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _name_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``pkg.mod.Cls`` as a name tuple, or ``None`` for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _is_lock_ctor_call(node: ast.expr, config: LintConfig) -> bool:
    """True for ``threading.Lock()`` / ``RLock()`` style constructor calls."""
    if not isinstance(node, ast.Call):
        return False
    name = _call_name(node.func)
    return name is not None and config.is_lock_ctor(name)


def _own_exprs(stmt: ast.AST) -> List[ast.AST]:
    """A statement's expression children, excluding nested statement lists."""
    exprs: List[ast.AST] = []
    for field_name, value in ast.iter_fields(stmt):
        if field_name in _STMT_LIST_FIELDS:
            continue
        if isinstance(value, ast.AST):
            exprs.append(value)
        elif isinstance(value, list):
            exprs.extend(v for v in value if isinstance(v, ast.AST))
    return exprs


def _walk_held(
    stmts: Sequence[ast.stmt],
    held: bool,
    is_lock_item: Callable[[ast.expr], bool],
    visit: Callable[[ast.stmt, bool], None],
) -> None:
    """Visit every statement with its lexical lock-held state.

    ``with <lock>:`` bodies run with ``held=True``; nested function bodies
    restart at ``held=False`` (they execute later, when the lock may not be
    held); nothing releases a lock mid-``with`` (the repo idiom is
    ``with``-only, never paired ``acquire``/``release``).
    """
    for stmt in stmts:
        if isinstance(stmt, _FUNC_TYPES):
            _walk_held(stmt.body, False, is_lock_item, visit)
            continue
        if isinstance(stmt, ast.ClassDef):
            _walk_held(stmt.body, held, is_lock_item, visit)
            continue
        visit(stmt, held)
        inner = held
        if isinstance(stmt, (ast.With, ast.AsyncWith)) and any(
            is_lock_item(item.context_expr) for item in stmt.items
        ):
            inner = True
        for field_name in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field_name, None)
            if sub:
                _walk_held(sub, inner, is_lock_item, visit)
        for handler in getattr(stmt, "handlers", None) or []:
            _walk_held(handler.body, inner, is_lock_item, visit)
        for case in getattr(stmt, "cases", None) or []:
            _walk_held(case.body, inner, is_lock_item, visit)


# -- receiver-keyed access scanning ----------------------------------------------

#: one attribute access: (receiver key, attr, line, col)
_Access = Tuple[str, str, int, int]


class _AccessSink:
    """Collects reads/writes/method-calls on a set of tracked receivers."""

    def __init__(
        self, receiver_of: Callable[[ast.expr], Optional[str]], config: LintConfig
    ) -> None:
        self._receiver_of = receiver_of
        self._config = config
        self.reads: List[_Access] = []
        self.writes: List[_Access] = []
        self.calls: List[_Access] = []

    def _tracked_attr(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        if not isinstance(node, ast.Attribute):
            return None
        recv = self._receiver_of(node.value)
        if recv is None:
            return None
        return recv, node.attr

    def scan_target(self, target: ast.expr) -> None:
        """Classify one assignment/deletion target."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.scan_target(elt)
            return
        if isinstance(target, ast.Starred):
            self.scan_target(target.value)
            return
        hit = self._tracked_attr(target)
        if hit is not None:
            line, col = _at(target)
            self.writes.append((hit[0], hit[1], line, col))
            return
        if isinstance(target, ast.Subscript):
            # ``self._entries[k] = v`` mutates the container behind the attr
            hit = self._tracked_attr(target.value)
            if hit is not None:
                line, col = _at(target)
                self.writes.append((hit[0], hit[1], line, col))
                self.scan_value(target.slice)
                return
        self.scan_value(target)

    def scan_value(self, node: ast.AST) -> None:
        """Collect reads, mutating-method writes, and method calls."""
        consumed: Set[int] = set()
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                continue
            func = sub.func
            hit = self._tracked_attr(func)
            if hit is not None:
                # ``recv.method(...)`` — a call, not a field access
                line, col = _at(func)
                self.calls.append((hit[0], func.attr, line, col))
                consumed.add(id(func))
                continue
            if self._config.is_mutating_method(func.attr):
                inner = self._tracked_attr(func.value)
                if inner is not None:
                    # ``recv.field.append(...)`` mutates the field in place
                    line, col = _at(func.value)
                    self.writes.append((inner[0], inner[1], line, col))
                    consumed.add(id(func.value))
        for sub in ast.walk(node):
            if id(sub) in consumed:
                continue
            hit = self._tracked_attr(sub)
            if hit is not None:
                line, col = _at(sub)
                self.reads.append((hit[0], hit[1], line, col))

    def scan_statement(self, stmt: ast.stmt) -> None:
        """Dispatch one simple statement into target/value scanning."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self.scan_target(target)
            self.scan_value(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_target(stmt.target)
            # an augmented target is also a read, but reporting one finding
            # per site is what we want — the write entry covers it
            self.scan_value(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self.scan_target(stmt.target)
            if stmt.value is not None:
                self.scan_value(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self.scan_target(target)
        else:
            for expr in _own_exprs(stmt):
                self.scan_value(expr)


def _self_receiver(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id == "self":
        return "self"
    return None


# -- SML012: per-class lockset inference -----------------------------------------


@dataclass
class _MethodFacts:
    """Accesses and intra-class calls of one method, with held states."""

    name: str
    #: (attr, line, col, is_write, held)
    accesses: List[Tuple[str, int, int, bool, bool]] = field(default_factory=list)
    #: (callee, line, col, held)
    calls: List[Tuple[str, int, int, bool]] = field(default_factory=list)


class _ClassAnalysis:
    """Lockset facts plus per-method access records for one class."""

    def __init__(self, node: ast.ClassDef, config: LintConfig) -> None:
        self.node = node
        self.config = config
        self.lock_fields = self._find_lock_fields()
        self.methods: Dict[str, _MethodFacts] = {}
        if self.lock_fields:
            for method in self._method_defs():
                if method.name in _EXEMPT_METHODS:
                    continue
                self.methods[method.name] = self._method_facts(method)
        self.guarded_fields = self._guarded_fields()
        self.assumed_held = self._assumed_held()

    def _method_defs(self) -> Iterator[ast.AST]:
        for stmt in self.node.body:
            if isinstance(stmt, _FUNC_TYPES):
                yield stmt

    def _find_lock_fields(self) -> FrozenSet[str]:
        found: Set[str] = set()
        for method in self._method_defs():
            for sub in ast.walk(method):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                value = sub.value
                if value is None or not _is_lock_ctor_call(value, self.config):
                    continue
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        found.add(target.attr)
        return frozenset(found)

    def _is_lock_item(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.lock_fields
        )

    def _method_facts(self, method: ast.AST) -> _MethodFacts:
        facts = _MethodFacts(name=getattr(method, "name", "<lambda>"))

        def visit(stmt: ast.stmt, held: bool) -> None:
            sink = _AccessSink(_self_receiver, self.config)
            sink.scan_statement(stmt)
            for _recv, attr, line, col in sink.writes:
                if attr not in self.lock_fields:
                    facts.accesses.append((attr, line, col, True, held))
            for _recv, attr, line, col in sink.reads:
                if attr not in self.lock_fields:
                    facts.accesses.append((attr, line, col, False, held))
            for _recv, attr, line, col in sink.calls:
                facts.calls.append((attr, line, col, held))

        body = getattr(method, "body", [])
        _walk_held(body, False, self._is_lock_item, visit)
        return facts

    def _guarded_fields(self) -> FrozenSet[str]:
        guarded: Set[str] = set()
        for facts in self.methods.values():
            for attr, _line, _col, is_write, held in facts.accesses:
                if is_write and held:
                    guarded.add(attr)
        return frozenset(guarded)

    def _assumed_held(self) -> Dict[str, bool]:
        """Private methods whose every intra-class call site holds the lock.

        Fixpoint over the call graph so a helper called only from other
        lock-assuming helpers is itself lock-assuming (bounded by the
        method count; the relation is monotone).
        """
        assumed = {name: False for name in self.methods}
        call_sites: Dict[str, List[Tuple[str, bool]]] = {}
        for caller, facts in self.methods.items():
            for callee, _line, _col, held in facts.calls:
                if callee in self.methods:
                    call_sites.setdefault(callee, []).append((caller, held))
        for _ in range(len(self.methods) + 1):
            changed = False
            for name in self.methods:
                if assumed[name] or not name.startswith("_"):
                    continue
                sites = call_sites.get(name)
                if not sites:
                    continue
                if all(held or assumed[caller] for caller, held in sites):
                    assumed[name] = True
                    changed = True
            if not changed:
                break
        return assumed

    def facts(self) -> ClassConcurrency:
        return ClassConcurrency(
            name=self.node.name,
            lock_fields=self.lock_fields,
            guarded_fields=self.guarded_fields,
            locked_helpers=frozenset(
                name for name, held in self.assumed_held.items() if held
            ),
        )

    def findings(self) -> Iterator[Finding]:
        if not self.lock_fields or not self.guarded_fields:
            return
        lock = sorted(self.lock_fields)[0]
        for name, facts in self.methods.items():
            if self.assumed_held.get(name):
                continue  # callers hold the lock for the whole body
            for attr, line, col, is_write, held in facts.accesses:
                if held or attr not in self.guarded_fields:
                    continue
                verb = "written" if is_write else "read"
                yield Finding(
                    "SML012",
                    line,
                    col,
                    f"field 'self.{attr}' of {self.node.name!r} is {verb} "
                    f"without holding 'self.{lock}' — it is lock-guarded "
                    "elsewhere, so this access can race; take the lock or "
                    "move the access into a locked helper",
                )
            for callee, line, col, held in facts.calls:
                if held or not self.assumed_held.get(callee):
                    continue
                yield Finding(
                    "SML012",
                    line,
                    col,
                    f"call to lock-assuming helper 'self.{callee}()' without "
                    f"holding 'self.{lock}' — every other call site takes "
                    "the lock first; this one races the guarded state",
                )


def collect_class_facts(
    tree: ast.AST, config: LintConfig
) -> Dict[str, ClassConcurrency]:
    """Per-class lockset facts of one module (exported via summaries).

    Only classes that actually own a lock field are reported — classes
    without locks carry no discipline to enforce.
    """
    facts: Dict[str, ClassConcurrency] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            analysis = _ClassAnalysis(node, config)
            if analysis.lock_fields:
                facts[node.name] = analysis.facts()
    return facts


# -- SML012 cross-module application ----------------------------------------------


def _infer_instance_facts(
    func: ast.AST,
    local_classes: Dict[str, ClassConcurrency],
    imports: Optional[object],
) -> Dict[str, ClassConcurrency]:
    """Flow-insensitive map of local variable -> lockset facts.

    ``obj = Tracer(...)`` binds ``obj`` to the class's facts when the
    class is local or resolvable through the import graph.
    """
    inferred: Dict[str, ClassConcurrency] = {}
    resolver = getattr(imports, "resolve_class_facts", None)
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
            continue
        if len(sub.targets) != 1 or not isinstance(sub.targets[0], ast.Name):
            continue
        chain = _name_chain(sub.value.func)
        if chain is None:
            continue
        facts: Optional[ClassConcurrency] = None
        if len(chain) == 1:
            facts = local_classes.get(chain[0])
        if facts is None and resolver is not None:
            resolved = resolver(chain)
            if isinstance(resolved, ClassConcurrency):
                facts = resolved
        if facts is not None and facts.lock_fields:
            inferred[sub.targets[0].id] = facts
    return inferred


def _cross_instance_findings(
    tree: ast.AST,
    local_classes: Dict[str, ClassConcurrency],
    ctx: "_CtxLike",
) -> Iterator[Finding]:
    """Audit mutation of *other* objects' guarded state (delegated mutation).

    Within each function, variables bound to instances of lock-owning
    classes are tracked; writing one of their guarded fields, or calling a
    lock-assuming helper, without ``with obj.<lock>:`` held is the same
    race SML012 flags intra-class — just spelled from the caller's side.
    """
    for func in ast.walk(tree):
        if not isinstance(func, _FUNC_TYPES):
            continue
        instances = _infer_instance_facts(func, local_classes, ctx.imports)
        if not instances:
            continue

        def receiver(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Name) and node.id in instances:
                return node.id
            return None

        def is_lock_item(expr: ast.expr) -> bool:
            return (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in instances
                and expr.attr in instances[expr.value.id].lock_fields
            )

        found: List[Finding] = []

        def visit(stmt: ast.stmt, held: bool) -> None:
            if held:
                # single-lock tracking: any tracked lock held covers the
                # region (one lock per guarded object is the repo idiom)
                return
            sink = _AccessSink(receiver, ctx.config)
            sink.scan_statement(stmt)
            for recv, attr, line, col in sink.writes:
                facts = instances[recv]
                if attr in facts.guarded_fields:
                    lock = sorted(facts.lock_fields)[0]
                    found.append(
                        Finding(
                            "SML012",
                            line,
                            col,
                            f"field {recv}.{attr} of {facts.name!r} is "
                            f"mutated without holding {recv}.{lock} — the "
                            "class guards it with a lock; use the locked "
                            "API instead of poking its state",
                        )
                    )
            for recv, attr, line, col in sink.calls:
                facts = instances[recv]
                if attr in facts.locked_helpers:
                    lock = sorted(facts.lock_fields)[0]
                    found.append(
                        Finding(
                            "SML012",
                            line,
                            col,
                            f"call to lock-assuming helper {recv}.{attr}() "
                            f"without holding {recv}.{lock} — the helper "
                            "expects its class lock to be held",
                        )
                    )

        _walk_held(func.body, False, is_lock_item, visit)
        yield from found


# -- SML013: module-level shared state in the parallel layer ----------------------


def _is_mutable_value(node: Optional[ast.expr], config: LintConfig) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        return name is not None and config.is_mutable_ctor(name)
    return False


def _task_escape_findings(tree: ast.AST, ctx: "_CtxLike") -> Iterator[Finding]:
    """SML013: unguarded mutation of module-level mutable state."""
    config = ctx.config
    if not isinstance(tree, ast.Module):
        return
    mutable_globals: Set[str] = set()
    module_locks: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_lock_ctor_call(value, config) if value is not None else False:
                module_locks.add(target.id)
            elif _is_mutable_value(value, config):
                mutable_globals.add(target.id)

    def is_lock_item(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in module_locks or config.is_lock_name(expr.id)
        return False

    for func in ast.walk(tree):
        if not isinstance(func, _FUNC_TYPES):
            continue
        declared_global: Set[str] = set()
        for sub in ast.walk(func):
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
        is_task_unit = config.is_parallel_task_name(func.name)

        def receiver(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Name) and node.id in mutable_globals:
                return node.id
            return None

        found: List[Finding] = []

        def visit(stmt: ast.stmt, held: bool) -> None:
            if is_task_unit and isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        line, col = _at(stmt)
                        found.append(
                            Finding(
                                "SML013",
                                line,
                                col,
                                f"parallel task unit rebinds module global "
                                f"{target.id!r} — worker-visible shared "
                                "state; thread it through the task context "
                                "or guard the write",
                            )
                        )
            if held:
                return
            for target_name, line, col in _global_mutations(stmt, receiver, config):
                found.append(
                    Finding(
                        "SML013",
                        line,
                        col,
                        f"module-level mutable {target_name!r} is mutated "
                        "without a lock in the parallel layer — tasks and "
                        "pool threads share this state; guard it with a "
                        "module lock or make it read-only",
                    )
                )

        _walk_held(func.body, False, is_lock_item, visit)
        yield from found


def _global_mutations(
    stmt: ast.stmt,
    receiver: Callable[[ast.expr], Optional[str]],
    config: LintConfig,
) -> Iterator[Tuple[str, int, int]]:
    """Mutations of tracked module-level names within one statement."""

    def tracked_base(node: ast.expr) -> Optional[str]:
        # ``CACHE[k]`` / ``CACHE[k][j]`` — unwrap subscripts to the name
        while isinstance(node, ast.Subscript):
            node = node.value
        return receiver(node)

    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        else:
            targets = list(stmt.targets)
        for target in targets:
            if isinstance(target, ast.Subscript):
                name = tracked_base(target)
                if name is not None:
                    line, col = _at(target)
                    yield name, line, col
    for expr in _own_exprs(stmt):
        # own expressions only: nested statements are visited separately
        for sub in ast.walk(expr):
            if not (
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            ):
                continue
            if not config.is_mutating_method(sub.func.attr):
                continue
            name = tracked_base(sub.func.value)
            if name is not None:
                line, col = _at(sub)
                yield name, line, col


# -- SML014: fork-capture and blocking-under-lock ---------------------------------


def _fork_hazard_findings(
    tree: ast.AST, classes: Dict[str, ClassConcurrency], ctx: "_CtxLike"
) -> Iterator[Finding]:
    config = ctx.config

    # (a) unforkable values reaching pool initargs / task-envelope contexts
    for func in ast.walk(tree):
        if not isinstance(func, _FUNC_TYPES):
            continue
        tracked: Dict[str, str] = {}
        for sub in ast.walk(func):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                name = _call_name(sub.value.func)
                if name is not None and config.is_unforkable_ctor(name):
                    tracked[sub.targets[0].id] = name

        def describe_capture(expr: ast.expr) -> Optional[str]:
            """Why ``expr`` must not cross a fork, or ``None`` if it may."""
            if isinstance(expr, ast.Name) and expr.id in tracked:
                return f"{tracked[expr.id]} instance {expr.id!r}"
            if isinstance(expr, ast.Call):
                name = _call_name(expr.func)
                if name is not None and config.is_unforkable_ctor(name):
                    return f"freshly constructed {name}"
            if isinstance(expr, ast.Attribute) and config.is_lock_name(expr.attr):
                return f"lock-named attribute {expr.attr!r}"
            if isinstance(expr, ast.Name) and config.is_lock_name(expr.id):
                return f"lock-named value {expr.id!r}"
            return None

        for sub in ast.walk(func):
            if not isinstance(sub, ast.Call):
                continue
            for keyword in sub.keywords:
                if keyword.arg is None or not config.is_boundary_kwarg(keyword.arg):
                    continue
                values = (
                    list(keyword.value.elts)
                    if isinstance(keyword.value, (ast.Tuple, ast.List))
                    else [keyword.value]
                )
                for value in values:
                    why = describe_capture(value)
                    if why is not None:
                        line, col = _at(value)
                        yield Finding(
                            "SML014",
                            line,
                            col,
                            f"{why} captured into {keyword.arg!r} — "
                            "fork-inherited lock/handle state deadlocks or "
                            "detaches in the child; build it inside the "
                            "worker initializer instead",
                        )
            ctor = _call_name(sub.func)
            if ctor == "TaskEnvelope":
                context_args = [kw.value for kw in sub.keywords if kw.arg == "context"]
                if not context_args and len(sub.args) > 1:
                    context_args = [sub.args[1]]
                for value in context_args:
                    why = describe_capture(value)
                    if why is not None:
                        line, col = _at(value)
                        yield Finding(
                            "SML014",
                            line,
                            col,
                            f"{why} shipped as a task-envelope context — "
                            "contexts are pickled into worker processes; "
                            "send a picklable stand-in and rebuild the "
                            "handle worker-side",
                        )

    # (b) blocking calls while a lock is held
    lock_fields_anywhere: FrozenSet[str] = frozenset(
        attr for facts in classes.values() for attr in facts.lock_fields
    )

    def is_lock_item(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return config.is_lock_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return expr.attr in lock_fields_anywhere or config.is_lock_name(expr.attr)
        return False

    blocking: List[Finding] = []

    def visit(stmt: ast.stmt, held: bool) -> None:
        if not held:
            return
        for expr in _own_exprs(stmt):
            for sub in ast.walk(expr):
                if not (
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                ):
                    continue
                if not config.is_blocking_call(sub.func.attr):
                    continue
                if isinstance(sub.func.value, ast.Constant):
                    continue  # ``", ".join(...)`` — not a thread join
                line, col = _at(sub)
                blocking.append(
                    Finding(
                        "SML014",
                        line,
                        col,
                        f"blocking call .{sub.func.attr}() while a lock is "
                        "held — the held lock joins any wait cycle "
                        "(classic pool deadlock); release the lock before "
                        "waiting on other workers",
                    )
                )

    for func in ast.walk(tree):
        if isinstance(func, _FUNC_TYPES):
            _walk_held(func.body, False, is_lock_item, visit)
    yield from blocking


# -- SML015: resource lifecycle ---------------------------------------------------


def _creator_of(call: ast.Call, config: LintConfig) -> Optional[str]:
    """The resource constructor a call invokes, or ``None``."""
    name = _call_name(call.func)
    if name is None or config.resource_release_for(name) is None:
        return None
    return name


def _stmt_releases(stmt: ast.AST, var: str, release: str) -> bool:
    for sub in ast.walk(stmt):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == release
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == var
        ):
            return True
    return False


def _stmt_escapes(stmt: ast.AST, var: str) -> bool:
    """Ownership transfer: the resource outlives this function legitimately."""

    def mentions(node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        return any(
            isinstance(sub, ast.Name) and sub.id == var for sub in ast.walk(node)
        )

    if isinstance(stmt, ast.Return):
        return mentions(stmt.value)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(mentions(item.context_expr) for item in stmt.items)
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)) and mentions(sub):
            return True
        if isinstance(sub, ast.Call):
            if any(mentions(arg) for arg in sub.args):
                return True
            if any(mentions(kw.value) for kw in sub.keywords):
                return True
        if isinstance(sub, ast.Assign) and mentions(sub.value):
            return True  # aliased or stored — ownership moved conservatively
        if isinstance(sub, (ast.Tuple, ast.List, ast.Set, ast.Dict)) and mentions(sub):
            return True
    return False


def _resource_lifecycle_findings(tree: ast.AST, ctx: "_CtxLike") -> Iterator[Finding]:
    config = ctx.config
    for func in ast.walk(tree):
        if not isinstance(func, _FUNC_TYPES):
            continue
        graph = build_cfg(func)
        creations: List[Tuple[int, str, str, ast.stmt]] = []
        for sub in ast.walk(func):
            if not isinstance(sub, ast.Assign) or not isinstance(sub.value, ast.Call):
                continue
            if len(sub.targets) != 1 or not isinstance(sub.targets[0], ast.Name):
                continue
            var = sub.targets[0].id
            ctor = _creator_of(sub.value, config)
            if ctor is not None:
                idx = graph.index_of.get(id(sub))
                if idx is not None:
                    creations.append((idx, var, ctor, sub))

        # owners must release (or hand off) on every non-raising path
        for idx, var, ctor, create_stmt in creations:
            release = config.resource_release_for(ctor) or "close"
            if _stmt_escapes(create_stmt, var):
                continue  # aliased away in the creating statement itself
            seen: Set[int] = {idx}
            queue: List[int] = [idx]
            leaked = False
            while queue and not leaked:
                node_idx = queue.pop()
                for dst, kind in graph.succs.get(node_idx, []):
                    if kind in ("except", "raise"):
                        continue
                    if dst == graph.EXIT:
                        leaked = True
                        break
                    if dst in seen:
                        continue
                    seen.add(dst)
                    stmt = graph.statement(dst)
                    if stmt is not None and (
                        _stmt_releases(stmt, var, release)
                        or _stmt_escapes(stmt, var)
                    ):
                        continue  # this path is settled; stop expanding it
                    queue.append(dst)
            if leaked:
                line, col = _at(create_stmt)
                yield Finding(
                    "SML015",
                    line,
                    col,
                    f"{ctor} {var!r} may reach function exit without "
                    f".{release}() on a non-raising path — the resource "
                    "leaks; use a with block or try/finally",
                )


# -- the module-level entry point -------------------------------------------------


class _CtxLike(Protocol):
    """Structural view of RuleContext (duck-typed to avoid an import cycle)."""

    @property
    def path(self) -> str: ...

    @property
    def config(self) -> LintConfig: ...

    @property
    def cache(self) -> Dict[str, object]: ...

    @property
    def imports(self) -> Optional[object]: ...


def analyze_module(tree: ast.AST, ctx: "_CtxLike") -> ModuleConcurrency:
    """All concurrency facts and findings for one module (memoized).

    Every SML012–SML015 rule shares this one pass through ``ctx.cache``,
    exactly as the taint rules share :func:`taint.analyze_module`.
    """
    cached = ctx.cache.get("concurrency")
    if isinstance(cached, ModuleConcurrency):
        return cached
    config = ctx.config
    result = ModuleConcurrency()
    in_concurrency_scope = config.is_concurrency_scope(ctx.path)
    if in_concurrency_scope:
        result.classes = collect_class_facts(tree, config)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                analysis = _ClassAnalysis(node, config)
                result.findings.extend(analysis.findings())
        result.findings.extend(
            _cross_instance_findings(tree, result.classes, ctx)
        )
        result.findings.extend(
            _fork_hazard_findings(tree, result.classes, ctx)
        )
        result.findings.extend(_resource_lifecycle_findings(tree, ctx))
    if config.is_parallel_scope(ctx.path):
        result.findings.extend(_task_escape_findings(tree, ctx))
    result.findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
    ctx.cache["concurrency"] = result
    return result
