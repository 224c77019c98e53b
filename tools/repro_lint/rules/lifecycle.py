"""Node-lifecycle rules: RL007, RL009 (root-registration balance),
RL013 (exception safety on GC trigger paths).

Node liveness is a *protocol*: external roots are registered with
``inc_ref`` and released with ``dec_ref``; the mark-and-sweep
collector marks from those registrations and nothing else.  A missed
``dec_ref`` is a silent leak the runtime audit only catches late and
expensively -- RL009 certifies the pairing statically.  RL013 guards the other direction: a
``MemoryBudgetExceeded`` raised between a budget check and the commit
of dependent state leaves the manager half-updated.
"""

from __future__ import annotations

import ast
import copy
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.repro_lint.core import Finding, Rule, basename, in_dd, in_repro, in_sim

if TYPE_CHECKING:
    from tools.repro_lint.analysis import AnalysisContext

# ---------------------------------------------------------------------------
# RL007: unique-table internals stay behind the lifecycle API
# ---------------------------------------------------------------------------

_UNIQUE_TABLE_INTERNALS = frozenset({"_table", "_next_uid"})
_UNIQUE_TABLE_PRIVILEGED = frozenset({"unique_table.py", "mem.py"})


def _rl007_applies(path: str) -> bool:
    return in_repro(path) and basename(path) not in _UNIQUE_TABLE_PRIVILEGED


def _rl007_check(
    tree: ast.AST, path: str, ctx: "AnalysisContext"
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr not in _UNIQUE_TABLE_INTERNALS:
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            continue
        yield Finding(
            "RL007",
            path,
            node.lineno,
            node.col_offset,
            f"access to unique-table internal {node.attr!r} outside the "
            "lifecycle layer; nodes may leave a unique table only through "
            "the collector (DDManager.memory / prune), which marks from "
            "the registered roots and invalidates derived caches",
        )


# ---------------------------------------------------------------------------
# RL009: every inc_ref reaches a matching dec_ref (or a declared transfer)
# ---------------------------------------------------------------------------

_INC_NAMES = frozenset({"inc_ref", "incref"})
_DEC_NAMES = frozenset({"dec_ref", "decref"})


def _rl009_applies(path: str) -> bool:
    return in_dd(path) or in_sim(path)


def _called_simple_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _expr_key(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return f"<expr@{expr.lineno}>"


class _OwnershipState:
    """Multiset of outstanding root registrations, keyed by the source
    text of the registered edge expression."""

    __slots__ = ("owned",)

    def __init__(self) -> None:
        self.owned: Dict[str, List[int]] = {}

    def clone(self) -> "_OwnershipState":
        fresh = _OwnershipState()
        fresh.owned = {key: list(lines) for key, lines in self.owned.items()}
        return fresh

    def acquire(self, key: str, line: int) -> None:
        self.owned.setdefault(key, []).append(line)

    def release(self, key: str) -> None:
        lines = self.owned.get(key)
        if lines:
            lines.pop()
            if not lines:
                del self.owned[key]

    def rebind(self, target: str, source: str) -> None:
        """``target = source``: the names now alias; outstanding
        registrations made under the source name follow the value."""
        lines = self.owned.pop(source, None)
        if lines:
            self.owned.setdefault(target, []).extend(lines)

    def merge_max(self, other: "_OwnershipState") -> None:
        """Path join for leak detection: a registration outstanding on
        *either* branch stays outstanding (flag the leakiest path)."""
        for key, lines in other.owned.items():
            mine = self.owned.setdefault(key, [])
            if len(lines) > len(mine):
                self.owned[key] = list(lines)

    def outstanding(self) -> List[Tuple[str, int]]:
        return [
            (key, lines[0]) for key, lines in sorted(self.owned.items()) if lines
        ]


class _OwnershipWalker:
    """Path-sensitive inc_ref/dec_ref pairing over one function body.

    Models branches (max-join), loops (one symbolic iteration joined
    with the zero-iteration path), ``try/finally`` (finalisers apply to
    every exit), name rebinding (``state = new_state`` moves the
    registration), and ``# repro-lint: transfers-ownership``
    annotations (on the acquisition line, on a consuming call, or on
    the ``def`` line to exempt the whole function).
    """

    def __init__(self, path: str, transfer_lines: Set[int]) -> None:
        self.path = path
        self.transfer_lines = transfer_lines
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[str, int]] = set()

    # -- call effects ----------------------------------------------------

    def _apply_calls(self, node: ast.AST, state: _OwnershipState) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = _called_simple_name(call)
            if name in _INC_NAMES and call.args:
                if call.lineno in self.transfer_lines:
                    continue  # acquisition explicitly transfers out
                state.acquire(_expr_key(call.args[0]), call.lineno)
            elif name in _DEC_NAMES and call.args:
                state.release(_expr_key(call.args[0]))
            elif call.lineno in self.transfer_lines:
                # An annotated call consumes the registrations of the
                # owned edges it receives (ownership transfer).
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    state.release(_expr_key(arg))

    # -- exits -----------------------------------------------------------

    def _exit(
        self,
        state: _OwnershipState,
        finals: Sequence[Sequence[ast.stmt]],
        node: ast.stmt,
        kind: str,
    ) -> None:
        at_exit = state.clone()
        for final_body in reversed(list(finals)):
            for stmt in final_body:
                self._apply_calls(stmt, at_exit)
        for key, acquired in at_exit.outstanding():
            mark = (key, acquired)
            if mark in self._reported:
                continue
            self._reported.add(mark)
            self.findings.append(
                Finding(
                    "RL009",
                    self.path,
                    acquired,
                    0,
                    f"inc_ref({key}) on line {acquired} is not released on "
                    f"the path {kind} at line {node.lineno}; every root "
                    "registration must reach a matching dec_ref or a "
                    "declared '# repro-lint: transfers-ownership'",
                )
            )

    # -- statement walk --------------------------------------------------

    def walk(
        self,
        body: Sequence[ast.stmt],
        state: _OwnershipState,
        finals: List[Sequence[ast.stmt]],
    ) -> _OwnershipState:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are analysed on their own
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self._apply_calls(stmt.value, state)
                self._exit(state, finals, stmt, "returning")
                return state
            if isinstance(stmt, ast.Raise):
                self._apply_calls(stmt, state)
                self._exit(state, finals, stmt, "raising")
                return state
            if isinstance(stmt, ast.If):
                self._apply_calls(stmt.test, state)
                then_state = self.walk(list(stmt.body), state.clone(), finals)
                else_state = self.walk(list(stmt.orelse), state.clone(), finals)
                state = then_state
                state.merge_max(else_state)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._apply_calls(stmt.iter, state)
                after_body = self.walk(list(stmt.body), state.clone(), finals)
                state.merge_max(after_body)
                state = self.walk(list(stmt.orelse), state, finals)
                continue
            if isinstance(stmt, ast.While):
                self._apply_calls(stmt.test, state)
                after_body = self.walk(list(stmt.body), state.clone(), finals)
                state.merge_max(after_body)
                state = self.walk(list(stmt.orelse), state, finals)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._apply_calls(item.context_expr, state)
                state = self.walk(list(stmt.body), state, finals)
                continue
            if isinstance(stmt, ast.Try):
                final_body: Sequence[ast.stmt] = stmt.finalbody or ()
                inner_finals = finals + [final_body] if final_body else finals
                pre = state.clone()
                body_state = self.walk(list(stmt.body), state, inner_finals)
                merged = body_state
                for handler in stmt.handlers:
                    handler_state = self.walk(
                        list(handler.body), pre.clone(), inner_finals
                    )
                    merged.merge_max(handler_state)
                merged = self.walk(list(stmt.orelse), merged, inner_finals)
                state = self.walk(list(final_body), merged, finals)
                continue
            # Plain statement: apply call effects, then aliasing.
            self._apply_calls(stmt, state)
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Name)
            ):
                state.rebind(stmt.targets[0].id, stmt.value.id)
        return state

    def run(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[Finding]:
        state = self.walk(list(fn.body), _OwnershipState(), [])
        if fn.body:
            self._exit(state, [], fn.body[-1], "falling off the function end")
        return self.findings


def _rl009_check(
    tree: ast.AST, path: str, ctx: "AnalysisContext"
) -> Iterator[Finding]:
    facts = ctx.facts_for(path)
    transfers = facts.transfer_lines if facts is not None else set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in _INC_NAMES or node.name in _DEC_NAMES:
            continue  # the registry primitives themselves
        def_lines = set(range(node.lineno, node.body[0].lineno + 1))
        if def_lines & transfers:
            continue  # whole function declared as transferring ownership
        walker = _OwnershipWalker(path, transfers)
        yield from walker.run(node)


# ---------------------------------------------------------------------------
# RL013: no stranded state on MemoryBudgetExceeded paths
# ---------------------------------------------------------------------------

_RL013_FILES = frozenset({"mem.py", "manager.py"})
_BUDGET_EXC = "MemoryBudgetExceeded"


def _rl013_applies(path: str) -> bool:
    return in_dd(path) and basename(path) in _RL013_FILES


def _mutated_self_attrs(stmt: ast.stmt) -> List[Tuple[str, int, int]]:
    """``self``-state mutations committed by one statement."""
    mutations: List[Tuple[str, int, int]] = []
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            mutations.append((base.attr, target.lineno, target.col_offset))
    return mutations


def _risky_calls(stmt: ast.stmt, may_raise: Set[str]) -> List[Tuple[str, int]]:
    risky: List[Tuple[str, int]] = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            name = _called_simple_name(node)
            if name is not None and name in may_raise:
                risky.append((name, node.lineno))
        elif isinstance(node, ast.Raise):
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func  # type: ignore[assignment]
            if (
                isinstance(exc, (ast.Name, ast.Attribute))
                and (exc.id if isinstance(exc, ast.Name) else exc.attr)
                == _BUDGET_EXC
            ):
                risky.append((f"raise {_BUDGET_EXC}", node.lineno))
    return risky


def _flatten(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for field_name in ("body", "orelse", "finalbody"):
            yield from _flatten(getattr(stmt, field_name, ()) or ())
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from _flatten(handler.body)


def _rl013_check(
    tree: ast.AST, path: str, ctx: "AnalysisContext"
) -> Iterator[Finding]:
    may_raise = ctx.may_raise(_BUDGET_EXC)
    if not may_raise:
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name in ("__init__", "__new__"):
            continue
        pending: List[Tuple[str, int, int]] = []
        flagged: Set[Tuple[str, int]] = set()
        for stmt in _flatten(node.body):
            # Calls evaluate before the enclosing statement's own
            # assignment commits, so risky calls are processed first.
            risky = _risky_calls(stmt, may_raise - {node.name})
            if risky:
                callee, at_line = risky[0]
                for attr, line, col in pending:
                    mark = (attr, line)
                    if mark in flagged:
                        continue
                    flagged.add(mark)
                    yield Finding(
                        "RL013",
                        path,
                        line,
                        col,
                        f"self.{attr} is committed before {callee!r} (line "
                        f"{at_line}), which may raise {_BUDGET_EXC}; a "
                        "budget failure would strand this state -- commit "
                        "policy/bookkeeping updates only after the budget "
                        "check passes, or annotate why stranding is safe",
                    )
            pending.extend(_mutated_self_attrs(stmt))


RULES = (
    Rule(
        "RL007",
        "unique-table internals accessed outside the lifecycle layer",
        _rl007_applies,
        _rl007_check,
    ),
    Rule(
        "RL009",
        "unbalanced inc_ref/dec_ref on a return or raise path",
        _rl009_applies,
        _rl009_check,
    ),
    Rule(
        "RL013",
        "state mutation stranded by a MemoryBudgetExceeded path",
        _rl013_applies,
        _rl013_check,
    ),
)
