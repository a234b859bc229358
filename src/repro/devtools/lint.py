"""PKB-Lint: AST-based concurrency & determinism lint over repro's source.

The paper's central guarantee is that parallel execution changes speed,
never answers.  The code keeps that guarantee through conventions — a
field is mutated only under its lock, locks are always taken in one
order, inference kernels never consult wall clocks or unseeded RNGs.
This module machine-checks those conventions and emits stable ``RCnnn``
findings (:mod:`repro.devtools.findings`).

Annotations the linter understands (ordinary comments, so the code runs
unchanged without the linter):

``# guarded by: <lock expr>``
    On a field's initial assignment in ``__init__``: every later
    mutation of that field must sit inside ``with <lock expr>:`` (or a
    context manager derived from it, e.g. ``with self.lock.write_locked():``
    for a field guarded by ``self.lock``).  Violations are **RC001**.

``# holds: <lock expr>``
    On (or just under) a ``def`` line: callers are required to hold the
    lock, so the whole body counts as guarded — the static analogue of
    clang's ``REQUIRES()`` thread-safety annotation.

``# lint: disable=RC001,RC003``
    Suppress the listed codes for findings *on that line*.  Unknown
    codes are **RC007**; suppressions that silence nothing are
    **RC008** (both are themselves unsuppressible).

Scope notes: the analysis is lexical and intentionally shallow — it
resolves ``self.method()`` calls, ``self.attr.method()`` through
constructor assignments, and same-module function calls when building
the lock-acquisition graph (RC002), but it does not model aliasing,
inheritance, or callables stored in attributes.  The runtime sanitizer
(:mod:`repro.devtools.sanitizer`) covers the dynamic remainder.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .findings import (
    RC_CODES,
    UNSUPPRESSIBLE,
    LintFinding,
    LintReport,
    LintUsageError,
)

__all__ = ["lint_paths", "lint_source", "KERNEL_PATTERNS"]

#: path fragments marking deterministic inference/grounding kernels:
#: files where RC003 forbids wall clocks, unseeded RNGs, and id()
KERNEL_PATTERNS: Tuple[str, ...] = (
    "/infer/",
    "/delta/",
    # the segment operators and the interpreter that runs them (the
    # queue exchange's deadlines live outside, in mpp/workers.py)
    "relational/operators.py",
    "mpp/segments.py",
    # motion placement is a pure function of plan + (columns, dist, rows)
    "mpp/placement.py",
)

#: the only files allowed to construct PhysicalNode directly (RC009):
#: the two plan walkers, executor and static planner (the placement
#: rules they share build none).  Everything else must obtain physical
#: plans from a planner so the plan verifier (repro.mpp.verify) gets to
#: see them.
PHYSICAL_PLANNER_FILES: Tuple[str, ...] = (
    "mpp/static_planner.py",
    "mpp/cluster.py",
)

#: method calls that mutate their receiver in place (RC001)
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "pop", "popitem", "clear", "update",
        "add", "discard", "remove", "setdefault", "sort", "reverse",
        "move_to_end",
    }
)

#: constructor names whose result is treated as a lock object (RC002)
LOCK_FACTORIES = frozenset(
    {
        "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
        "RWLock", "SanitizedLock", "make_lock",
    }
)

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,]+)")
_GUARDED_RE = re.compile(r"#\s*guarded by:\s*([^#]+)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([^#]+)")

#: a lock's identity in the acquisition graph: (owner class | module, attr)
LockId = Tuple[str, str]
#: an unresolved call site: ("self", m) | ("attr", x, m) | ("name", f)
CallDesc = Tuple[str, ...]
#: a function's identity: (module stem, class name | "", function name)
FuncKey = Tuple[str, str, str]


def _normalize_expr(text: str) -> str:
    """Canonical spelling of an annotation/lock expression."""
    try:
        return ast.unparse(ast.parse(text.strip(), mode="eval").body)
    except SyntaxError:
        return text.strip()


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_name(func: ast.AST) -> str:
    """Last path component of a call target (``a.b.C(...)`` -> ``C``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _is_module_call(node: ast.Call, module: str) -> Optional[str]:
    """``<module>.<attr>(...)`` -> attr name, else None."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == module
    ):
        return func.attr
    return None


@dataclass
class _Suppression:
    line: int
    codes: List[str]
    unknown: List[str]
    used: Set[str] = field(default_factory=set)


@dataclass
class _FuncInfo:
    """What one function contributes to the cross-file analyses."""

    key: FuncKey
    line: int
    holds: Set[str] = field(default_factory=set)
    #: (lock, line, locks held lexically at the acquisition)
    acquisitions: List[Tuple[LockId, int, Tuple[LockId, ...]]] = field(
        default_factory=list
    )
    #: (call descriptor, line, locks held lexically at the call)
    calls: List[Tuple[CallDesc, int, Tuple[LockId, ...]]] = field(
        default_factory=list
    )
    catches_exceptions: bool = False


@dataclass
class _ClassInfo:
    name: str
    module: str
    #: attributes assigned a lock-factory call in this class
    lock_attrs: Set[str] = field(default_factory=set)
    #: guarded field -> (normalized lock expr, declaration line)
    guarded: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: attribute -> constructor class name (``self.x = QueryCache(...)``)
    attr_types: Dict[str, str] = field(default_factory=dict)


class _FileContext:
    """Parsed source plus everything extracted from its comments."""

    def __init__(self, display_path: str, text: str) -> None:
        self.path = display_path
        self.text = text
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            raise LintUsageError(f"{display_path}: {error}") from None
        self.module = Path(display_path).stem
        self.comments: Dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenError:
            pass
        self.suppressions: Dict[int, _Suppression] = {}
        for line, comment in self.comments.items():
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            codes: List[str] = []
            unknown: List[str] = []
            for token_text in match.group(1).split(","):
                token_text = token_text.strip()
                if not token_text:
                    continue
                if token_text in RC_CODES:
                    codes.append(token_text)
                else:
                    unknown.append(token_text)
            self.suppressions[line] = _Suppression(line, codes, unknown)
        #: module-or-local names assigned a lock-factory call
        self.lock_names: Set[str] = set()
        self.classes: Dict[str, _ClassInfo] = {}
        #: every function in the file by name (nested included; last wins)
        self.functions_by_name: Dict[str, _FuncInfo] = {}
        self.is_kernel = self._kernel_path(display_path)

    @staticmethod
    def _kernel_path(display_path: str) -> bool:
        posix = "/" + str(display_path).replace(os.sep, "/").lstrip("/")
        return any(pattern in posix for pattern in KERNEL_PATTERNS)

    def guard_comment(self, line: int) -> Optional[str]:
        comment = self.comments.get(line)
        if comment is None:
            return None
        match = _GUARDED_RE.search(comment)
        if match is None:
            return None
        return _normalize_expr(match.group(1))

    def holds_for(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Set[str]:
        """``# holds:`` annotations on, just above, or just inside the def."""
        first_body_line = node.body[0].lineno if node.body else node.lineno
        holds: Set[str] = set()
        for line in range(node.lineno - 1, first_body_line + 1):
            comment = self.comments.get(line)
            if comment is None:
                continue
            match = _HOLDS_RE.search(comment)
            if match is None:
                continue
            for part in match.group(1).split(","):
                if part.strip():
                    holds.add(_normalize_expr(part))
        return holds


# ------------------------------------------------------------------ pre-scan


def _prescan(ctx: _FileContext) -> None:
    """Collect class metadata and lock names before the checking walk."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            info = _ClassInfo(name=node.name, module=ctx.module)
            ctx.classes[node.name] = info
            for sub in ast.walk(node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets, value = [sub.target], sub.value
                else:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if isinstance(value, ast.Call):
                        ctor = _call_name(value.func)
                        if ctor in LOCK_FACTORIES:
                            info.lock_attrs.add(attr)
                        elif ctor and ctor[0].isupper():
                            info.attr_types[attr] = ctor
                    guard = ctx.guard_comment(sub.lineno)
                    if guard is not None:
                        info.guarded[attr] = (guard, sub.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value if isinstance(node, ast.AnnAssign) else node.value
            if isinstance(value, ast.Call) and _call_name(value.func) in LOCK_FACTORIES:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        ctx.lock_names.add(target.id)


# ------------------------------------------------------------------ the walk


class _Walker:
    """Single checking pass over one file, with lexical context stacks."""

    def __init__(self, ctx: _FileContext) -> None:
        self.ctx = ctx
        self.findings: List[LintFinding] = []
        #: RC005 candidates: (target descriptor, line, enclosing class)
        self.thread_targets: List[Tuple[CallDesc, int, str]] = []
        self.functions: Dict[FuncKey, _FuncInfo] = {}
        self._class_stack: List[str] = []
        self._func_stack: List[_FuncInfo] = []
        #: normalized with-expressions currently held (lexical)
        self._with_exprs: List[str] = []
        #: subset of the above resolved to known lock identities
        self._with_locks: List[LockId] = []
        self._while_depth = 0

    # -- helpers -------------------------------------------------------------

    def _emit(self, code: str, line: int, message: str) -> None:
        self.findings.append(
            LintFinding(code=code, message=message, path=self.ctx.path, line=line)
        )

    def _current_class(self) -> str:
        return self._class_stack[-1] if self._class_stack else ""

    def _resolve_lock(self, expr: ast.expr) -> Optional[LockId]:
        """Map a with-expression onto a lock identity, if it names one."""
        target = expr
        if isinstance(target, ast.Call):
            target = target.func
        # self.X or self.X.method
        attr = _self_attr(target)
        if attr is None and isinstance(target, ast.Attribute):
            attr = _self_attr(target.value)
        if attr is not None:
            cls = self._current_class()
            info = self.ctx.classes.get(cls)
            if info is not None and attr in info.lock_attrs:
                return (cls, attr)
            return None
        if isinstance(target, ast.Name) and target.id in self.ctx.lock_names:
            return (self.ctx.module, target.id)
        return None

    def _held_locks(self) -> Tuple[LockId, ...]:
        held = list(self._with_locks)
        if self._func_stack:
            cls = self._current_class()
            info = self.ctx.classes.get(cls)
            for text in self._func_stack[-1].holds:
                attr = text.rsplit(".", 1)[-1]
                if info is not None and attr in info.lock_attrs:
                    held.append((cls, attr))
        return tuple(held)

    def _guard_satisfied(self, guard: str) -> bool:
        for expr in self._with_exprs:
            if expr == guard or expr.startswith(guard + "."):
                return True
        if self._func_stack and guard in self._func_stack[-1].holds:
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    def walk(self) -> None:
        for node in self.ctx.tree.body:
            self._visit(node)
        self._resolve_thread_targets()

    def _visit(self, node: ast.AST) -> None:
        method = getattr(self, "_visit_" + type(node).__name__, None)
        if method is not None:
            method(node)
        else:
            self._generic(node)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        saved_exprs, saved_locks = self._with_exprs, self._with_locks
        self._with_exprs, self._with_locks = [], []
        try:
            self._generic(node)
        finally:
            self._with_exprs, self._with_locks = saved_exprs, saved_locks
            self._class_stack.pop()

    def _visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def _visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        key: FuncKey = (self.ctx.module, self._current_class(), node.name)
        info = _FuncInfo(key=key, line=node.lineno, holds=self.ctx.holds_for(node))
        self.functions[key] = info
        self.ctx.functions_by_name[node.name] = info
        self._func_stack.append(info)
        saved_exprs, saved_locks = self._with_exprs, self._with_locks
        saved_while = self._while_depth
        self._with_exprs, self._with_locks = [], []
        self._while_depth = 0
        try:
            self._generic(node)
        finally:
            self._with_exprs, self._with_locks = saved_exprs, saved_locks
            self._while_depth = saved_while
            self._func_stack.pop()

    def _visit_With(self, node: ast.With) -> None:
        pushed_exprs = 0
        pushed_locks = 0
        for item in node.items:
            text = _normalize_expr(ast.unparse(item.context_expr))
            self._with_exprs.append(text)
            pushed_exprs += 1
            lock = self._resolve_lock(item.context_expr)
            if lock is not None:
                if self._func_stack:
                    self._func_stack[-1].acquisitions.append(
                        (lock, item.context_expr.lineno, self._held_locks())
                    )
                self._with_locks.append(lock)
                pushed_locks += 1
            self._visit(item.context_expr)
        for stmt in node.body:
            self._visit(stmt)
        del self._with_exprs[len(self._with_exprs) - pushed_exprs :]
        if pushed_locks:
            del self._with_locks[len(self._with_locks) - pushed_locks :]

    def _visit_While(self, node: ast.While) -> None:
        self._while_depth += 1
        try:
            self._generic(node)
        finally:
            self._while_depth -= 1

    def _visit_Try(self, node: ast.Try) -> None:
        if self._func_stack and any(
            self._handler_catches_exceptions(handler) for handler in node.handlers
        ):
            self._func_stack[-1].catches_exceptions = True
        self._generic(node)

    @staticmethod
    def _handler_catches_exceptions(handler: ast.ExceptHandler) -> bool:
        kind = handler.type
        if kind is None:
            return True
        names: List[ast.expr] = (
            list(kind.elts) if isinstance(kind, ast.Tuple) else [kind]
        )
        return any(
            isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
            for name in names
        )

    # -- statements that can mutate guarded fields ---------------------------

    def _visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutation_target(target, node.lineno)
        self._generic(node)

    def _visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_mutation_target(node.target, node.lineno)
        self._generic(node)

    def _visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node.target, node.lineno)
        self._generic(node)

    def _visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_mutation_target(target, node.lineno)
        self._generic(node)

    def _check_mutation_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_mutation_target(element, line)
            return
        if isinstance(target, (ast.Subscript, ast.Starred)):
            self._check_mutation_target(target.value, line)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._check_guarded_mutation(attr, line)

    def _check_guarded_mutation(self, attr: str, line: int) -> None:
        cls = self._current_class()
        info = self.ctx.classes.get(cls)
        if info is None or attr not in info.guarded:
            return
        guard, decl_line = info.guarded[attr]
        if line == decl_line:
            return
        if self._func_stack and self._func_stack[-1].key[2] == "__init__":
            return  # construction happens before the object is shared
        if self._guard_satisfied(guard):
            return
        self._emit(
            "RC001",
            line,
            f"self.{attr} is declared '# guarded by: {guard}' but is "
            f"mutated outside 'with {guard}:'",
        )

    # -- calls ---------------------------------------------------------------

    def _visit_Call(self, node: ast.Call) -> None:
        self._check_rc003(node)
        self._check_rc004(node)
        self._check_rc006_call_args(node)
        self._check_rc009(node)
        self._record_thread_target(node)
        func = node.func
        # guarded-field mutation through a mutating method call
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = _self_attr(func.value)
            if attr is not None:
                self._check_guarded_mutation(attr, node.lineno)
        # record the call for lock-graph closure
        if self._func_stack:
            desc = self._call_desc(func)
            if desc is not None:
                self._func_stack[-1].calls.append(
                    (desc, node.lineno, self._held_locks())
                )
        self._generic(node)

    @staticmethod
    def _call_desc(func: ast.AST) -> Optional[CallDesc]:
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            attr = _self_attr(func.value)
            if attr is not None:
                return ("attr", attr, func.attr)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return ("self", func.attr)
        return None

    def _check_rc003(self, node: ast.Call) -> None:
        if not self.ctx.is_kernel:
            return
        time_attr = _is_module_call(node, "time")
        if time_attr is not None:
            self._emit(
                "RC003",
                node.lineno,
                f"time.{time_attr}() inside a deterministic kernel — results "
                "must be a pure function of the seed",
            )
            return
        random_attr = _is_module_call(node, "random")
        if random_attr is not None:
            if random_attr == "Random" and (node.args or node.keywords):
                return  # explicitly seeded stream
            self._emit(
                "RC003",
                node.lineno,
                f"random.{random_attr}() inside a deterministic kernel — use "
                "a seeded random.Random or the counter-based draw streams",
            )
            return
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            self._emit(
                "RC003",
                node.lineno,
                "id() inside a deterministic kernel — id-keyed ordering "
                "varies across processes and runs",
            )
            return
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._emit(
                    "RC003",
                    keyword.value.lineno,
                    "key=id inside a deterministic kernel — id-keyed "
                    "ordering varies across processes and runs",
                )

    def _check_rc009(self, node: ast.Call) -> None:
        if _call_name(node.func) != "PhysicalNode":
            return
        posix = "/" + str(self.ctx.path).replace(os.sep, "/").lstrip("/")
        if any(posix.endswith(allowed) for allowed in PHYSICAL_PLANNER_FILES):
            return
        self._emit(
            "RC009",
            node.lineno,
            "PhysicalNode constructed outside the MPP planners "
            f"({', '.join(PHYSICAL_PLANNER_FILES)}): physical plans must "
            "come from a planner so the plan verifier sees them",
        )

    def _check_rc004(self, node: ast.Call) -> None:
        if self._while_depth == 0 or not self._func_stack:
            return
        if node.args or node.keywords:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("get", "join"):
            self._emit(
                "RC004",
                node.lineno,
                f".{func.attr}() with no timeout inside a thread loop can "
                "block shutdown forever — pass a timeout or document the "
                "wakeup path",
            )

    def _check_rc006_call_args(self, node: ast.Call) -> None:
        # time.time() used directly inside arithmetic shows up via
        # _visit_BinOp/_visit_Compare; nothing extra needed here.
        return

    def _record_thread_target(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name != "Thread":
            return
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            desc = self._call_desc(keyword.value)
            if desc is None and isinstance(keyword.value, ast.Name):
                desc = ("name", keyword.value.id)
            if desc is not None:
                self.thread_targets.append(
                    (desc, node.lineno, self._current_class())
                )

    def _resolve_thread_targets(self) -> None:
        for desc, line, _cls in self.thread_targets:
            target_name = desc[-1]
            info = self.ctx.functions_by_name.get(target_name)
            if info is None:
                continue  # lambda / imported target: not analyzable
            if not info.catches_exceptions:
                self._emit(
                    "RC005",
                    line,
                    f"thread target {target_name}() has no except "
                    "Exception handler — an uncaught error kills the "
                    "thread silently and strands its queue",
                )

    # -- RC006: wall-clock duration arithmetic -------------------------------

    @staticmethod
    def _is_time_time(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and _is_module_call(node, "time") == "time"

    def _visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)) and (
            self._is_time_time(node.left) or self._is_time_time(node.right)
        ):
            self._emit(
                "RC006",
                node.lineno,
                "time.time() in duration arithmetic — wall clocks jump "
                "(NTP, DST); use time.monotonic() for elapsed time",
            )
        self._generic(node)

    def _visit_Compare(self, node: ast.Compare) -> None:
        if self._is_time_time(node.left) or any(
            self._is_time_time(comparator) for comparator in node.comparators
        ):
            self._emit(
                "RC006",
                node.lineno,
                "time.time() in a deadline comparison — wall clocks jump "
                "(NTP, DST); use time.monotonic() for deadlines",
            )
        self._generic(node)


# ---------------------------------------------------------- lock-order graph


def _lock_graph_findings(
    contexts: Sequence[_FileContext],
    walkers: Sequence[_Walker],
) -> List[LintFinding]:
    """RC002: build the global acquisition graph and flag cycles."""
    functions: Dict[FuncKey, _FuncInfo] = {}
    for walker in walkers:
        functions.update(walker.functions)
    class_modules: Dict[str, _ClassInfo] = {}
    for ctx in contexts:
        for name, info in ctx.classes.items():
            class_modules.setdefault(name, info)

    def resolve_call(key: FuncKey, desc: CallDesc) -> Optional[FuncKey]:
        module, cls, _name = key
        if desc[0] == "self" and cls:
            candidate = (module, cls, desc[1])
            return candidate if candidate in functions else None
        if desc[0] == "attr" and cls:
            owner = class_modules.get(cls)
            if owner is None:
                return None
            target_cls = owner.attr_types.get(desc[1])
            if target_cls is None:
                return None
            target_info = class_modules.get(target_cls)
            if target_info is None:
                return None
            candidate = (target_info.module, target_cls, desc[2])
            return candidate if candidate in functions else None
        if desc[0] == "name":
            candidate = (module, "", desc[1])
            return candidate if candidate in functions else None
        return None

    # transitive closure of "locks this function may acquire"
    closure: Dict[FuncKey, Set[LockId]] = {
        key: {lock for lock, _line, _held in info.acquisitions}
        for key, info in functions.items()
    }
    changed = True
    while changed:
        changed = False
        for key, info in functions.items():
            acquired = closure[key]
            before = len(acquired)
            for desc, _line, _held in info.calls:
                callee = resolve_call(key, desc)
                if callee is not None:
                    acquired |= closure[callee]
            if len(acquired) != before:
                changed = True

    #: edge (held -> acquired) -> first recorded site
    edges: Dict[Tuple[LockId, LockId], Tuple[str, int]] = {}

    def add_edge(held: LockId, acquired: LockId, path: str, line: int) -> None:
        if held == acquired:
            return  # re-entry is RC001/sanitizer territory, not ordering
        edges.setdefault((held, acquired), (path, line))

    path_of = {
        key: walker.ctx.path
        for walker in walkers
        for key in walker.functions
    }
    for key, info in functions.items():
        source = path_of.get(key, "")
        for lock, line, held in info.acquisitions:
            for holder in held:
                add_edge(holder, lock, source, line)
        for desc, line, held in info.calls:
            if not held:
                continue
            callee = resolve_call(key, desc)
            if callee is None:
                continue
            for lock in closure[callee]:
                for holder in held:
                    add_edge(holder, lock, source, line)

    # cycle detection over the lock graph (iterative DFS, deterministic)
    graph: Dict[LockId, List[LockId]] = {}
    for (held, acquired) in edges:
        graph.setdefault(held, []).append(acquired)
    for successors in graph.values():
        successors.sort()

    findings: List[LintFinding] = []
    reported: Set[Tuple[LockId, ...]] = set()
    visiting: Dict[LockId, int] = {}

    def dfs(start: LockId) -> None:
        stack: List[Tuple[LockId, int]] = [(start, 0)]
        order: List[LockId] = []
        while stack:
            node, index = stack[-1]
            if index == 0:
                visiting[node] = 1
                order.append(node)
            successors = graph.get(node, [])
            if index < len(successors):
                stack[-1] = (node, index + 1)
                nxt = successors[index]
                state = visiting.get(nxt, 0)
                if state == 1:
                    cycle = order[order.index(nxt) :] + [nxt]
                    canonical = tuple(sorted(set(cycle)))
                    if canonical not in reported:
                        reported.add(canonical)
                        findings.append(_cycle_finding(cycle, edges))
                elif state == 0:
                    stack.append((nxt, 0))
            else:
                visiting[node] = 2
                stack.pop()
                order.pop()

    for node in sorted(graph):
        if visiting.get(node, 0) == 0:
            dfs(node)
    return findings


def _cycle_finding(
    cycle: List[LockId],
    edges: Dict[Tuple[LockId, LockId], Tuple[str, int]],
) -> LintFinding:
    names = " -> ".join(".".join(lock) for lock in cycle)
    sites = []
    for held, acquired in zip(cycle, cycle[1:]):
        site = edges.get((held, acquired))
        if site is not None:
            sites.append(f"{site[0]}:{site[1]}")
    first = edges.get((cycle[0], cycle[1]), ("", 0))
    return LintFinding(
        code="RC002",
        message=(
            f"lock-order inversion: {names} (acquisition sites: "
            f"{', '.join(sites)}) — pick one global order and stick to it"
        ),
        path=first[0],
        line=first[1],
    )


# ----------------------------------------------------------------- driver


def _collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintUsageError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    if not files:
        raise LintUsageError("nothing to lint: no .py files under the given paths")
    return files


def _lint_contexts(contexts: List[_FileContext]) -> LintReport:
    walkers: List[_Walker] = []
    for ctx in contexts:
        _prescan(ctx)
    for ctx in contexts:
        walker = _Walker(ctx)
        walker.walk()
        walkers.append(walker)
    raw: List[LintFinding] = []
    for walker in walkers:
        raw.extend(walker.findings)
    raw.extend(_lock_graph_findings(contexts, walkers))

    by_path = {ctx.path: ctx for ctx in contexts}
    kept: List[LintFinding] = []
    for finding in raw:
        ctx = by_path.get(finding.path)
        suppression = ctx.suppressions.get(finding.line) if ctx else None
        if (
            suppression is not None
            and finding.code in suppression.codes
            and finding.code not in UNSUPPRESSIBLE
        ):
            suppression.used.add(finding.code)
            continue
        kept.append(finding)
    for ctx in contexts:
        for suppression in ctx.suppressions.values():
            for token_text in suppression.unknown:
                kept.append(
                    LintFinding(
                        code="RC007",
                        message=(
                            f"unknown code {token_text!r} in suppression "
                            "comment (known codes: RC001..RC009)"
                        ),
                        path=ctx.path,
                        line=suppression.line,
                    )
                )
            for code in suppression.codes:
                if code not in suppression.used:
                    kept.append(
                        LintFinding(
                            code="RC008",
                            message=(
                                f"suppression for {code} matched no finding "
                                "on this line — remove it"
                            ),
                            path=ctx.path,
                            line=suppression.line,
                        )
                    )
    kept.sort(key=lambda f: (f.path, f.line, f.code))
    return LintReport(findings=tuple(kept), files_scanned=len(contexts))


def lint_paths(paths: Sequence[Union[str, Path]]) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    contexts: List[_FileContext] = []
    for path in _collect_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintUsageError(f"cannot read {path}: {error}") from None
        contexts.append(_FileContext(str(path), text))
    return _lint_contexts(contexts)


def lint_source(text: str, path: str = "<string>") -> LintReport:
    """Lint one in-memory source blob (single-file RC002 scope)."""
    return _lint_contexts([_FileContext(path, text)])
