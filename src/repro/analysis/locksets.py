"""Flow- and alias-aware lockset lint for the pipeline's shared state.

The pipeline shares a handful of mutable structures across threads —
the baseline cache, the non-determinism store, the profiling pool's
profiler list, the campaign journal, a shard's heartbeat pipe.
Each is guarded by a ``threading.Lock``/``RLock``, and every access to a
guarded structure must hold one of its guard locks.
:func:`check_lock_discipline` is the entry point.  The lint keeps the
lexical contract — a structure mutated under ``with <lock>:`` anywhere
in its scope is *guarded*, and every other access must hold one of its
guard locks — and layers three precision upgrades on top:

flow
    ``lock.acquire()`` / ``lock.release()`` statement pairs toggle the
    held set between them, so hand-rolled critical sections count the
    same as ``with`` blocks.
aliases (L2)
    ``view = self._results`` binds a local alias of a guarded
    structure; accesses through the alias are accesses to the
    structure and are checked against its guard set.  Copies
    (``list(self._results)``) do not alias.  Violations through an
    alias render as ``L2``.
helper contexts (L2)
    A private helper (single-underscore method) inherits the
    *intersection* of the locksets held at its intra-class call sites,
    propagated to a fixpoint through helper-to-helper calls.  An
    unlocked access in a helper is clean when every caller holds the
    guard — and an ``L2`` finding when some call path reaches it
    without the lock.  Public methods are assumed callable from
    anywhere and get an empty entry context, exactly the lexical rule.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Constructors recognized as lock objects.
_LOCK_CTORS = {"Lock", "RLock"}

#: Method names that mutate their receiver (enough for this codebase's
#: containers: dict/list/set/deque plus the cache APIs built on them).
_MUTATING_METHODS = {
    "append", "appendleft", "add", "insert", "extend", "remove", "discard",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "sort",
}

@dataclass(frozen=True)
class LockFinding:
    """One concurrency-lint finding (L1 or L2)."""

    file: str
    line: int
    function: str
    lock: str       #: the guarding lock ("self._lock")
    name: str       #: the guarded structure
    kind: str       #: "read" | "write"
    message: str
    code: str = "L1"

    def render(self) -> str:
        return f"{self.code} {self.message}"


@dataclass(frozen=True)
class LintSuppression:
    """Silence one vetted false positive of the L1/L2 lint."""

    file: str                      #: path suffix match
    name: str                      #: the guarded structure
    function: Optional[str] = None
    code: Optional[str] = None
    reason: str = ""

    def matches(self, finding: LockFinding) -> bool:
        if not finding.file.endswith(self.file):
            return False
        if self.name != finding.name:
            return False
        if self.function is not None and self.function != finding.function:
            return False
        return self.code is None or self.code == finding.code


#: Vetted false positives.  Empty: every finding the current engine
#: raises on the repo's own modules was either fixed or never fired.
DEFAULT_LINT_SUPPRESSIONS: Tuple[LintSuppression, ...] = ()


def _is_lock_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in _LOCK_CTORS
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_CTORS
    return False


def _is_fresh_container(value: ast.AST) -> bool:
    """A container literal/constructor: initializing, not publishing."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp, ast.Constant)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in {"dict", "list", "set", "defaultdict",
                                 "deque", "Queue"} | _LOCK_CTORS
    return False


class _Access:
    __slots__ = ("name", "line", "kind", "function", "method", "under",
                 "init", "mutation", "alias")

    def __init__(self, name: str, line: int, kind: str, function: str,
                 method: Optional[str], under: Tuple[str, ...], init: bool,
                 mutation: bool, alias: Optional[str] = None):
        self.name = name
        self.line = line
        self.kind = kind              # read | write
        self.function = function
        self.method = method          # enclosing top-level method
        self.under = under            # locks held at the access
        self.init = init              # __init__ / fresh-container store
        self.mutation = mutation
        self.alias = alias            # local alias the access went through


class _Call:
    __slots__ = ("callee", "method", "under")

    def __init__(self, callee: str, method: Optional[str],
                 under: Tuple[str, ...]):
        self.callee = callee
        self.method = method
        self.under = under


def _collect_locks(nodes: Sequence[ast.AST], self_attrs: bool) -> Set[str]:
    """Pre-scan a scope for lock definitions, so definition order and
    acquire()/release() recognition never depend on walk order."""
    locks: Set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_lock_ctor(value):
                continue
            for target in targets:
                if self_attrs and isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    locks.add(f"self.{target.attr}")
                elif not self_attrs and isinstance(target, ast.Name):
                    locks.add(target.id)
    return locks


class _ScopeWalker(ast.NodeVisitor):
    """Collects accesses, aliases, and helper calls within one scope.

    A scope is either a class (tracking ``self.<attr>`` names across
    all its methods) or a function with its nested functions (tracking
    local names closed over by workers).
    """

    def __init__(self, self_attrs: bool, locks: Set[str]):
        self._self_attrs = self_attrs
        self.locks = locks
        self.accesses: List[_Access] = []
        self.calls: List[_Call] = []
        self.methods: Set[str] = set()
        self._held: List[str] = []
        self._flow_held: List[str] = []
        self._aliases: Dict[str, str] = {}
        self._function = "<module>"
        self._method: Optional[str] = None
        self._depth = 0
        self._in_init = False

    # -- naming ------------------------------------------------------------

    def _direct_name(self, node: ast.AST) -> Optional[str]:
        if self._self_attrs:
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return f"self.{node.attr}"
            return None
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _resolve(self, node: ast.AST) -> Optional[Tuple[str, Optional[str]]]:
        """(canonical structure name, alias used) for an access base."""
        direct = self._direct_name(node)
        if direct is not None:
            return direct, None
        if self._self_attrs and isinstance(node, ast.Name) \
                and node.id in self._aliases:
            return self._aliases[node.id], node.id
        return None

    def _held_now(self) -> Tuple[str, ...]:
        return tuple(self._held + self._flow_held)

    def _record(self, name: str, line: int, kind: str, mutation: bool,
                init: bool = False, alias: Optional[str] = None) -> None:
        self.accesses.append(_Access(
            name, line, kind, self._function, self._method,
            self._held_now(), init or self._in_init, mutation, alias))

    # -- structure ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        previous, self._function = self._function, node.name
        was_init = self._in_init
        was_method = self._method
        saved_aliases, self._aliases = self._aliases, {}
        saved_flow, self._flow_held = self._flow_held, []
        self._depth += 1
        if self._self_attrs and self._depth == 1:
            self._method = node.name
            self.methods.add(node.name)
            if node.name == "__init__":
                self._in_init = True
        self.generic_visit(node)
        self._depth -= 1
        self._function, self._in_init = previous, was_init
        self._method = was_method
        self._aliases = saved_aliases
        self._flow_held = saved_flow

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        entered: List[str] = []
        for item in node.items:
            name = self._direct_name(item.context_expr)
            if name is not None and name in self.locks:
                entered.append(name)
            else:
                self.visit(item.context_expr)
        self._held.extend(entered)
        for stmt in node.body:
            self.visit(stmt)
        if entered:
            del self._held[-len(entered):]

    # -- definitions and accesses -----------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = self._direct_name(target)
            if name is not None:
                if _is_lock_ctor(node.value):
                    pass  # pre-collected in self.locks
                elif self._self_attrs and name.startswith("self."):
                    self._record(name, node.lineno, "write", mutation=True,
                                 init=_is_fresh_container(node.value))
                # A bare-name store in function scope is a local
                # rebinding — thread-confined, neither a guard-defining
                # mutation nor a checkable access.
            else:
                self._visit_store_target(target)
        # Alias bookkeeping: ``x = self._foo`` binds x to the structure
        # itself; any other store to x kills a previous alias.
        if self._self_attrs:
            source = self._direct_name(node.value)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if source is not None and source not in self.locks:
                    self._aliases[target.id] = source
                else:
                    self._aliases.pop(target.id, None)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = self._direct_name(node.target)
        if name is not None and node.value is not None:
            if _is_lock_ctor(node.value):
                pass
            elif self._self_attrs and name.startswith("self."):
                self._record(name, node.lineno, "write", mutation=True,
                             init=_is_fresh_container(node.value))
        elif node.value is not None:
            self._visit_store_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        resolved = self._resolve(node.target)
        if resolved is not None:
            name, alias = resolved
            self._record(name, node.lineno, "write", mutation=True,
                         alias=alias)
        else:
            self._visit_store_target(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._visit_store_target(target)

    def _visit_store_target(self, target: ast.AST) -> None:
        # Subscript stores mutate the *base* structure and establish its
        # guard: ``detectors[k] = v`` / ``del self._memory[k]``.  An
        # attribute store (``stats.count = n``) is a write the guard
        # must cover if one exists, but incidental writes inside a lock
        # block must not claim the structure for that lock.
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            resolved = self._resolve(target.value)
            if resolved is not None:
                name, alias = resolved
                self._record(name, target.lineno, "write",
                             mutation=isinstance(target, ast.Subscript),
                             alias=alias)
                if isinstance(target, ast.Subscript):
                    self.visit(target.slice)
                return
        self.visit(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = self._direct_name(node)
        if name is not None:
            if name not in self.locks:
                self._record(name, node.lineno, "read", mutation=False)
            return
        resolved = self._resolve(node.value)
        if resolved is not None and resolved[0] not in self.locks:
            # ``<name>.attr`` — a load through the structure.
            self._record(resolved[0], node.lineno, "read", mutation=False,
                         alias=resolved[1])
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._self_attrs:
            if isinstance(node.ctx, ast.Load) and node.id in self._aliases:
                self._record(self._aliases[node.id], node.lineno, "read",
                             mutation=False, alias=node.id)
            return
        if isinstance(node.ctx, ast.Load) and node.id not in self.locks:
            self._record(node.id, node.lineno, "read", mutation=False)

    def visit_Expr(self, node: ast.Expr) -> None:
        # acquire()/release() as statements toggle the flow-held set.
        call = node.value
        if isinstance(call, ast.Call) and isinstance(call.func,
                                                     ast.Attribute):
            base = self._direct_name(call.func.value)
            if base is not None and base in self.locks:
                if call.func.attr == "acquire":
                    self._flow_held.append(base)
                    return
                if call.func.attr == "release":
                    if base in self._flow_held:
                        self._flow_held.remove(base)
                    return
        self.visit(call)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            resolved = self._resolve(node.func.value)
            if resolved is not None and resolved[0] not in self.locks:
                name, alias = resolved
                mutation = node.func.attr in _MUTATING_METHODS
                self._record(name, node.lineno,
                             "write" if mutation else "read", mutation,
                             alias=alias)
                for arg in list(node.args) + [kw.value for kw in
                                              node.keywords]:
                    self.visit(arg)
                return
            # Intra-class helper call: ``self._m(...)``.
            if self._self_attrs and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                self.calls.append(_Call(node.func.attr, self._method,
                                        self._held_now()))
        self.generic_visit(node)


def _is_helper(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _entry_contexts(walker: _ScopeWalker) -> Dict[str, Set[str]]:
    """Fixpoint of the must-held entry lockset per method.

    Public methods (and dunders) can be called from anywhere: empty
    context.  Private helpers inherit the intersection over their
    intra-class call sites of (caller context | locks held at the
    site); helpers with no call sites get the empty context, same as
    the lexical rule.
    """
    called = {c.callee for c in walker.calls}
    entry: Dict[str, Optional[Set[str]]] = {}
    for method in walker.methods | called:
        if _is_helper(method) and method in called:
            entry[method] = None        # top: not yet constrained
        else:
            entry[method] = set()
    for _ in range(len(entry) + 1):
        changed = False
        for call in walker.calls:
            if call.callee not in entry or entry[call.callee] == set():
                continue
            caller_ctx = entry.get(call.method or "", set())
            if caller_ctx is None:
                continue                # caller itself unresolved: skip
            ctx = set(call.under) | caller_ctx
            current = entry[call.callee]
            new = ctx if current is None else (current & ctx)
            if new != current:
                entry[call.callee] = new
                changed = True
        if not changed:
            break
    # Helpers only reachable through unresolved cycles: no context.
    return {m: (ctx if ctx is not None else set())
            for m, ctx in entry.items()}


def _check_scope(walker: _ScopeWalker, file: str,
                 findings: List[LockFinding]) -> None:
    if not walker.locks:
        return
    # name -> locks it was mutated under (its guard set).  Direct,
    # lexically-held mutations only: an alias mutation must not claim
    # the structure for whatever lock happened to be held.
    guards: Dict[str, Set[str]] = {}
    for access in walker.accesses:
        if access.mutation and not access.init and access.alias is None:
            held = set(access.under) & walker.locks
            if held:
                guards.setdefault(access.name, set()).update(held)
    entry = _entry_contexts(walker)
    for access in walker.accesses:
        guard_locks = guards.get(access.name)
        if not guard_locks or access.init:
            continue
        effective = set(access.under)
        if access.method is not None:
            effective |= entry.get(access.method, set())
        if effective & guard_locks:
            continue
        lock = sorted(guard_locks)[0]
        if access.alias is not None:
            code = "L2"
            message = (f"{file}:{access.line}: {access.kind} of "
                       f"{access.name} via alias '{access.alias}' in "
                       f"{access.function} outside 'with {lock}:' "
                       f"(structure is guarded elsewhere)")
        elif access.method is not None and _is_helper(access.method) \
                and any(c.callee == access.method for c in walker.calls):
            code = "L2"
            message = (f"{file}:{access.line}: {access.kind} of "
                       f"{access.name} in helper {access.function} "
                       f"reachable without 'with {lock}:' (some call "
                       f"site does not hold the lock)")
        else:
            code = "L1"
            message = (f"{file}:{access.line}: {access.kind} of "
                       f"{access.name} in {access.function} outside "
                       f"'with {lock}:' (structure is guarded elsewhere)")
        findings.append(LockFinding(
            file=file, line=access.line, function=access.function,
            lock=lock, name=access.name, kind=access.kind,
            message=message, code=code,
        ))


# -- module driver -------------------------------------------------------------

def lint_module(path: str, rel: str) -> List[LockFinding]:
    """All L1/L2 findings for one module (unsuppressed and not)."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    findings: List[LockFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            locks = _collect_locks(node.body, self_attrs=True)
            walker = _ScopeWalker(self_attrs=True, locks=locks)
            for item in node.body:
                walker.visit(item)
            _check_scope(walker, rel, findings)
        elif isinstance(node, ast.FunctionDef):
            # Function-local locks shared with nested closures
            # (``send_lock`` in a shard's main function).
            locks = _collect_locks(
                [stmt for stmt in node.body if isinstance(stmt, ast.Assign)],
                self_attrs=False)
            if locks:
                walker = _ScopeWalker(self_attrs=False, locks=locks)
                walker._function = node.name
                for stmt in node.body:
                    walker.visit(stmt)
                _check_scope(walker, rel, findings)
    findings.sort(key=lambda f: (f.file, f.line, f.code, f.name))
    return findings


def lint_modules(src_dir: Optional[str] = None,
                 modules: Sequence[str] = (),
                 suppressions: Sequence[LintSuppression]
                 = DEFAULT_LINT_SUPPRESSIONS,
                 cache=None) -> List[LockFinding]:
    """Lint *modules*, dropping vetted false positives.

    *modules* are paths relative to *src_dir* (default: this repo's
    ``src``); absolute paths are taken as-is so tests can point the
    linter at synthetic files.  *cache*, if given, is an
    :class:`~repro.analysis.cache.AnalysisCache`: per-module results
    are keyed by content digest, so only edited files re-analyze.
    """
    if src_dir is None:
        from .sources import _repo_src_dir
        src_dir = _repo_src_dir()
    findings: List[LockFinding] = []
    for module in modules:
        if os.path.isabs(module):
            path, rel = module, os.path.basename(module)
        else:
            path = os.path.join(src_dir, module)
            rel = os.path.join("src", module)
        if not os.path.exists(path):
            continue
        module_findings: Optional[List[LockFinding]] = None
        if cache is not None:
            module_findings = cache.get_lint(path)
        if module_findings is None:
            module_findings = lint_module(path, rel)
            if cache is not None:
                cache.put_lint(path, module_findings)
        findings.extend(module_findings)
    findings = [f for f in findings
                if not any(s.matches(f) for s in suppressions)]
    findings.sort(key=lambda f: (f.file, f.line, f.code, f.name))
    return findings


#: Default scan set, relative to the source dir: the modules hosting the
#: pipeline's cross-thread shared state (plus the shard-pool supervisor,
#: whose shards send on one pipe from two threads).
DEFAULT_LOCK_MODULES = (
    os.path.join("repro", "core", "pipeline.py"),
    os.path.join("repro", "core", "execution.py"),
    os.path.join("repro", "core", "nondet.py"),
    os.path.join("repro", "core", "profile.py"),
    os.path.join("repro", "vm", "shardpool.py"),
)


def check_lock_discipline(src_dir: Optional[str] = None,
                          modules: Sequence[str] = DEFAULT_LOCK_MODULES,
                          suppressions: Sequence[LintSuppression]
                          = DEFAULT_LINT_SUPPRESSIONS,
                          cache=None) -> List[LockFinding]:
    """Check the lock discipline (L1/L2) of the default scan set.

    The same as :func:`lint_modules`, defaulting *modules* to
    :data:`DEFAULT_LOCK_MODULES`.
    """
    return lint_modules(src_dir=src_dir, modules=modules,
                        suppressions=suppressions, cache=cache)
