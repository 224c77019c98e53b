r"""Lossless serialisation of decision diagrams.

Because the algebraic edge weights are tuples of integers, a QMDD
serialises *exactly* -- a saved state deserialises to the bit-identical
canonical diagram, across processes and platforms.  (This is another
practical payoff of the paper's representation: a float-weighted DD can
only be saved approximately.)

Format: a small JSON document listing nodes bottom-up with their level,
child node references and child weight payloads, plus the root edge.
Weight payloads depend on the number system:

* algebraic Q[omega]: ``[a, b, c, d, k, e]``;
* algebraic D[omega] (GCD scheme): ``[a, b, c, d, k]``;
* numeric: ``[re, im]`` doubles (lossy only in the sense that the
  tolerance-table identity structure is rebuilt on load).

:func:`loads` is a public boundary: every exact weight payload must be
a list of the right length holding JSON integers, every numeric one a
list of two finite JSON numbers (``true``/``false`` are rejected in
both, so equal values cannot load into different payload bytes), and
any malformed payload raises :class:`~repro.errors.DDError`.
"""

from __future__ import annotations

import cmath
import json
from typing import Any, Dict, List

from repro.dd.edge import Edge, Node
from repro.dd.manager import DDManager
from repro.dd.number_system import (
    AlgebraicGcdSystem,
    AlgebraicQOmegaSystem,
    NumericSystem,
)
from repro.errors import DDError, RingError
from repro.rings.domega import DOmega
from repro.rings.qomega import QOmega
from repro.rings.zomega import ZOmega

__all__ = ["dumps", "loads", "dump", "load"]

_FORMAT_VERSION = 1


def _weight_payload(manager: DDManager, weight: Any) -> List:
    system = manager.system
    if isinstance(system, AlgebraicQOmegaSystem):
        return list(weight.key())
    if isinstance(system, AlgebraicGcdSystem):
        return list(weight.key())
    if isinstance(system, NumericSystem):
        value = system.to_complex(weight)
        return [value.real, value.imag]
    raise DDError(f"cannot serialise weights of system {system.name!r}")


def _exact_payload(payload: object, length: int) -> List[int]:
    """Validate an exact weight payload: ``length`` plain JSON integers."""
    if not isinstance(payload, list) or len(payload) != length:
        raise DDError(
            f"exact weight payload must be a list of {length} integers, got {payload!r}"
        )
    for value in payload:
        if type(value) is not int:
            raise DDError(f"exact weight payload {payload!r} holds a non-integer {value!r}")
    return payload


def _numeric_payload(payload: object) -> complex:
    """Validate a numeric weight payload: ``[re, im]``, two finite JSON numbers."""
    if not isinstance(payload, list) or len(payload) != 2:
        raise DDError(f"numeric weight payload must be a list [re, im], got {payload!r}")
    for part in payload:
        if type(part) is not float and type(part) is not int:
            raise DDError(f"numeric weight payload {payload!r} holds a non-number {part!r}")
    try:
        value = complex(payload[0], payload[1])
    except OverflowError:  # an integer beyond the double range
        value = complex(cmath.inf)
    if not cmath.isfinite(value):
        raise DDError(f"numeric weight payload {payload!r} is not finite")
    return value


def _weight_from_payload(manager: DDManager, payload: List) -> Any:
    system = manager.system
    try:
        if isinstance(system, AlgebraicQOmegaSystem):
            a, b, c, d, k, e = _exact_payload(payload, 6)
            return QOmega(ZOmega(a, b, c, d), k, e)
        if isinstance(system, AlgebraicGcdSystem):
            a, b, c, d, k = _exact_payload(payload, 5)
            return DOmega(ZOmega(a, b, c, d), k)
    except RingError as error:  # e.g. a zero Q[omega] denominator
        raise DDError(f"invalid exact weight payload {payload!r}: {error}") from error
    if isinstance(system, NumericSystem):
        return system.from_complex(_numeric_payload(payload))
    raise DDError(f"cannot deserialise weights of system {system.name!r}")


def _system_tag(manager: DDManager) -> str:
    system = manager.system
    if isinstance(system, AlgebraicQOmegaSystem):
        return "algebraic-q"
    if isinstance(system, AlgebraicGcdSystem):
        return "algebraic-gcd"
    if isinstance(system, NumericSystem):
        return "numeric"
    raise DDError(f"unknown number system {system.name!r}")


def dumps(manager: DDManager, edge: Edge) -> str:
    """Serialise ``edge`` (vector or matrix DD) to a JSON string."""
    order: List = []
    index_of: Dict[int, int] = {}

    def visit(node: Node) -> int:
        if node.is_terminal:
            return -1
        existing = index_of.get(node.uid)
        if existing is not None:
            return existing
        children = []
        for child in node.edges:
            children.append(
                {
                    "node": visit(child.node),
                    "weight": _weight_payload(manager, child.weight),
                }
            )
        index = len(order)
        index_of[node.uid] = index
        order.append({"level": node.level, "children": children})
        return index

    root_index = visit(edge.node)
    document = {
        "format": _FORMAT_VERSION,
        "system": _system_tag(manager),
        "num_qubits": manager.num_qubits,
        "arity": edge.node.arity if not edge.node.is_terminal else 0,
        "nodes": order,
        "root": {
            "node": root_index,
            "weight": _weight_payload(manager, edge.weight),
        },
    }
    return json.dumps(document)


def loads(manager: DDManager, text: str) -> Edge:
    """Rebuild a DD inside ``manager`` (widths and systems must match).

    The nodes are re-interned through the manager's unique table and
    every weight payload is re-interned through the manager's own
    weight/complex table, so the result is canonical -- structurally
    identical saves produce the identical node, and an exact save
    round-trips bit for bit.  Nothing in the format references
    weight-table ids, so a document produced by a *different process*
    (or a manager with a different interning history) loads into a
    fresh :class:`DDManager` unchanged; this is the transport format of
    the batch-execution engine (:mod:`repro.exec`).
    """
    document = json.loads(text)
    if document.get("format") != _FORMAT_VERSION:
        raise DDError(f"unsupported serialisation format {document.get('format')!r}")
    if document["system"] != _system_tag(manager):
        raise DDError(
            f"document was saved with system {document['system']!r}, "
            f"manager uses {_system_tag(manager)!r}"
        )
    if document["num_qubits"] != manager.num_qubits:
        raise DDError(
            f"document width {document['num_qubits']} does not match "
            f"manager width {manager.num_qubits}"
        )
    rebuilt: List[Edge] = []
    for record in document["nodes"]:
        children = []
        for child in record["children"]:
            weight = _weight_from_payload(manager, child["weight"])
            if child["node"] < 0:
                children.append(manager.terminal_edge(weight))
            else:
                base = rebuilt[child["node"]]
                children.append(manager.scale(base, weight))
        interned = manager.make_node(record["level"], children)
        # Saved child weights are relative to the normalised node, so
        # for a save produced under this manager's own normalisation
        # scheme re-normalising is a no-op (eta == 1 by canonicity).
        # Keep eta anyway: a document written under a *different*
        # scheme (e.g. numeric leftmost vs max-magnitude) re-normalises
        # on load, and dropping the factor would silently rescale every
        # subtree that references this node.
        rebuilt.append(interned)
    root_weight = _weight_from_payload(manager, document["root"]["weight"])
    if document["root"]["node"] < 0:
        return manager.terminal_edge(root_weight)
    return manager.scale(rebuilt[document["root"]["node"]], root_weight)


def dump(manager: DDManager, edge: Edge, path: str) -> None:
    """Serialise to a file."""
    with open(path, "w") as handle:
        handle.write(dumps(manager, edge))


def load(manager: DDManager, path: str) -> Edge:
    """Deserialise from a file."""
    with open(path) as handle:
        return loads(manager, handle.read())
