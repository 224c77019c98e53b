"""Construction-privilege rules: RL001 (nodes), RL008 (simulators).

Hash-consing and the facade are both "single construction path"
invariants: a node built outside the unique table can never be the
canonical resident for its key, and a ``Simulator`` built outside
``repro.api`` bypasses the facade's validated configuration.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from tools.repro_lint.core import Finding, Rule, basename, in_repro, posix

if TYPE_CHECKING:
    from tools.repro_lint.analysis import AnalysisContext

_NODE_ALLOWED_FILES = frozenset({"unique_table.py", "edge.py"})


def _called_name(node: ast.Call) -> "str | None":
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _rl001_applies(path: str) -> bool:
    return in_repro(path) and basename(path) not in _NODE_ALLOWED_FILES


def _rl001_check(
    tree: ast.AST, path: str, ctx: "AnalysisContext"
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "Node":
            yield Finding(
                "RL001",
                path,
                node.lineno,
                node.col_offset,
                "direct Node(...) construction bypasses the unique table; "
                "build nodes through DDManager.make_node so they are "
                "normalised and hash-consed",
            )


def _rl008_applies(path: str) -> bool:
    return in_repro(path) and not posix(path).endswith("repro/api.py")


def _rl008_check(
    tree: ast.AST, path: str, ctx: "AnalysisContext"
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "Simulator":
            yield Finding(
                "RL008",
                path,
                node.lineno,
                node.col_offset,
                "direct Simulator(...) construction outside repro.api; "
                "build a SimulatorConfig and go through repro.api "
                "(run / run_batch / make_simulator / "
                "SimulatorConfig.create_simulator)",
            )


RULES = (
    Rule("RL001", "Node() outside the unique table", _rl001_applies, _rl001_check),
    Rule(
        "RL008",
        "Simulator() construction outside the repro.api facade",
        _rl008_applies,
        _rl008_check,
    ),
)
