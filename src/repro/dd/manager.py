r"""The QMDD manager: construction, arithmetic and queries.

A :class:`DDManager` owns

* the active :class:`~repro.dd.number_system.NumberSystem` (numerical
  with tolerance ``eps``, or one of the two exact algebraic systems),
* the unique tables that hash-cons vector and matrix nodes, and
* the compute tables that memoise the recursive operations
  (addition, matrix-vector and matrix-matrix multiplication, Kronecker
  products).

Levels and qubits
-----------------
Nodes live at levels ``n .. 1`` (root to bottom); qubit ``q`` (0-based,
qubit 0 most significant as in the paper's figures) corresponds to level
``n - q``.  A state vector over ``n`` qubits is an edge whose node has
level ``n``; amplitude ``alpha_i`` of basis state ``|i>`` is the product
of the edge weights along the path selected by the bits of ``i``
(paper Example 3).

Factory helpers
---------------
Use :func:`numeric_manager`, :func:`algebraic_manager` or
:func:`algebraic_gcd_manager` instead of instantiating number systems by
hand::

    manager = algebraic_manager(num_qubits=3)
    state = manager.basis_state(0)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dd.edge import MATRIX_ARITY, TERMINAL, VECTOR_ARITY, Edge, Node, iter_nodes
from repro.dd.mem import MemoryConfig, MemoryManager
from repro.dd.number_system import (
    AlgebraicGcdSystem,
    AlgebraicQOmegaSystem,
    NumberSystem,
    NumericSystem,
)
from repro.dd.unique_table import ComputeTable, UniqueTable
from repro.errors import DDError, LevelMismatchError
from repro.obs import Telemetry
from repro.obs.tracing import Tracer

__all__ = [
    "DDManager",
    "numeric_manager",
    "algebraic_manager",
    "algebraic_gcd_manager",
]


class _TracedComputeTable(ComputeTable):
    """A :class:`ComputeTable` whose lookups emit detail spans.

    Only instantiated when the manager's tracer runs in *detail* mode,
    so the normal-mode compute tables stay the plain slotted class with
    zero tracing overhead.
    """

    __slots__ = ("_tracer",)

    def __init__(self, name: str, tracer: Tracer, capacity: int = 1 << 18) -> None:
        super().__init__(name, capacity)
        self._tracer = tracer

    def get(self, key: Any) -> Any:
        with self._tracer.span("dd.ct.lookup", table=self.name):
            return super().get(key)


class DDManager:
    """Decision-diagram manager for ``num_qubits`` qubits.

    All edges handed out by one manager must only be combined with edges
    of the same manager (weights are interned per-manager).

    ``telemetry`` is the manager's observability scope (see
    :mod:`repro.obs`).  When omitted, a fresh metrics-only
    :class:`~repro.obs.Telemetry` is created, so ``statistics()`` and
    ``cache_stats()`` always report live counts; pass
    ``Telemetry.disabled()`` for overhead-sensitive runs or
    ``Telemetry.tracing()`` to record spans.  A telemetry scope must
    not be shared between managers -- instrument names would collide.

    ``memory`` is the garbage collector's
    :class:`~repro.dd.mem.MemoryConfig` (see :mod:`repro.dd.mem`);
    ``None`` keeps automatic collection off (the seed behaviour).  The
    :class:`~repro.dd.mem.MemoryManager` is always created (as
    ``manager.memory``) so explicit ``collect``/``prune`` and the root
    audit work regardless.
    """

    def __init__(
        self,
        system: NumberSystem,
        num_qubits: int,
        telemetry: Optional[Telemetry] = None,
        memory: Optional[MemoryConfig] = None,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        self.system = system
        self.num_qubits = num_qubits
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        tracer = self.telemetry.tracer
        self._trace_detail = tracer.detail
        from itertools import count

        uid_source = count(1).__next__  # shared: uids unique across arities
        self._vector_table = UniqueTable(uid_source)
        self._matrix_table = UniqueTable(uid_source)
        if self._trace_detail:
            def _ct(name: str) -> ComputeTable:
                return _TracedComputeTable(name, tracer)
        else:
            _ct = ComputeTable
        self._add_cache = _ct("add")
        self._mat_vec_cache = _ct("mat_vec")
        self._mat_mat_cache = _ct("mat_mat")
        self._kron_cache = _ct("kron")
        self._apply_cache = _ct("apply")
        self._gate_signatures: Dict[Tuple[Any, ...], int] = {}
        # Apply-kernel routing counters (see repro.dd.apply): the direct
        # kernel handles most gates itself but the numeric system with a
        # control *below* the target delegates to the matrix path to
        # stay bit-identical with the established operation order.
        # These are *push* instruments (warm path: once per gate); the
        # engine tables are surfaced through the pull collector below.
        registry = self.telemetry.metrics
        self._apply_direct = registry.counter("dd.apply.direct")
        self._apply_delegated = registry.counter("dd.apply.delegated")
        registry.register_collector(self._collect_metrics)
        if self._trace_detail:
            self._install_detail_spans()
        # Edges are immutable in practice; sharing one zero edge avoids
        # an allocation on every zero child in the hot path.
        self._zero_edge = Edge(TERMINAL, self.system.zero)
        # Last: the memory manager registers its own metrics collector.
        self.memory = MemoryManager(self, memory)

    @property
    def apply_direct_ops(self) -> int:
        """Gate applications served by the direct kernel (registry-backed)."""
        return int(self._apply_direct.value)

    @property
    def apply_delegated_ops(self) -> int:
        """Gate applications delegated to the matrix path (registry-backed)."""
        return int(self._apply_delegated.value)

    def _install_detail_spans(self) -> None:
        """Wrap normalisation and unique-table lookups in detail spans.

        Instance-level method shadowing keeps the default construction
        path completely untouched: without detail mode there is not even
        a branch on these call sites.
        """
        tracer = self.telemetry.tracer
        normalize = self.system.normalize_keyed

        def traced_normalize(
            weights: Tuple[Any, ...],
        ) -> Tuple[Any, Tuple[Any, ...], Tuple[Any, ...]]:
            with tracer.span("dd.normalize", arity=len(weights)):
                return normalize(weights)

        self.system.normalize_keyed = traced_normalize  # type: ignore[method-assign]
        for label, table in (
            ("vector", self._vector_table),
            ("matrix", self._matrix_table),
        ):
            lookup = table.get_or_create

            def traced_lookup(
                level: int,
                edges: Tuple[Edge, ...],
                weight_keys: Tuple[Any, ...],
                _lookup: Callable[..., Node] = lookup,
                _label: str = label,
            ) -> Node:
                with tracer.span("dd.ut.lookup", table=_label, level=level):
                    return _lookup(level, edges, weight_keys)

            table.get_or_create = traced_lookup  # type: ignore[method-assign]

    def _collect_metrics(self) -> Dict[str, float]:
        """Pull-side collector: flat dotted view of every engine table.

        Sampled only at :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
        time, so the tables keep their plain integer counters with zero
        per-operation overhead.
        """
        metrics: Dict[str, float] = {
            "dd.nodes.vector": len(self._vector_table),
            "dd.nodes.matrix": len(self._matrix_table),
        }
        for prefix, unique_table in (
            ("dd.ut.vector", self._vector_table),
            ("dd.ut.matrix", self._matrix_table),
        ):
            for key, value in unique_table.statistics().items():
                metrics[f"{prefix}.{key}"] = value
        for table in self._compute_tables():
            stats = table.statistics()
            for key, stat in stats.items():
                metrics[f"dd.ct.{table.name}.{key}"] = stat
            hits, misses = stats["hits"], stats["misses"]
            metrics[f"dd.ct.{table.name}.hit_rate"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        for name, counters in self.system.weight_statistics().items():
            for key, value in counters.items():
                metrics[f"weights.{name}.{key}"] = value
        metrics.update(self.system.metric_values())
        return metrics

    # ------------------------------------------------------------------
    # Elementary edges
    # ------------------------------------------------------------------

    def zero_edge(self) -> Edge:
        """The all-zero function (a stub edge in the paper's figures)."""
        return self._zero_edge

    def one_edge(self) -> Edge:
        """The scalar 1 at the terminal."""
        return Edge(TERMINAL, self.system.one)

    def terminal_edge(self, weight: Any) -> Edge:
        return Edge(TERMINAL, weight)

    def is_zero_edge(self, edge: Edge) -> bool:
        if edge is self._zero_edge:
            return True
        return edge.node is TERMINAL and self.system.is_zero(edge.weight)

    def level_of_qubit(self, qubit: int) -> int:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {self.num_qubits} qubits")
        return self.num_qubits - qubit

    # ------------------------------------------------------------------
    # Node construction (normalising, hash-consing)
    # ------------------------------------------------------------------

    def make_node(self, level: int, children: Sequence[Edge]) -> Edge:
        """Create a normalised, interned node; returns the edge to it.

        If all children are zero edges the node collapses to a zero
        edge.  Otherwise the number system's normalisation (Section II-B
        / Algorithms 2-3) factors out ``eta`` and the normalised node is
        interned in the unique table.  A nonzero weight that
        normalisation snaps onto zero (the tolerant numeric table) becomes
        the canonical zero edge, exactly like a zero input.
        """
        system = self.system
        is_zero = system.is_zero
        zero_edge = self._zero_edge
        if len(children) == VECTOR_ARITY:
            # Unrolled hot path: vector nodes dominate simulation.
            c0, c1 = children
            if is_zero(c0.weight):
                if is_zero(c1.weight):
                    return zero_edge
                c0 = zero_edge
            elif is_zero(c1.weight):
                c1 = zero_edge
            eta, (w0, w1), keys = system.normalize_keyed((c0.weight, c1.weight))
            # Normalisation maps zero to zero, so a zero child keeps its
            # edge; so does any child whose weight it left untouched.
            # Normalised weights are canonical instances: a snapped zero
            # is the zero edge's own weight object.
            zero = zero_edge.weight
            if w0 is not c0.weight:
                c0 = zero_edge if w0 is zero else Edge(c0.node, w0)
            if w1 is not c1.weight:
                c1 = zero_edge if w1 is zero else Edge(c1.node, w1)
            return Edge(self._vector_table.get_or_create(level, (c0, c1), keys), eta)
        if len(children) != MATRIX_ARITY:
            raise DDError(f"unsupported node arity {len(children)}")
        # Single pass: canonicalise zero edges (they always point at the
        # terminal) and collect the weight tuple for normalisation.
        canonical = []
        weights = []
        any_nonzero = False
        for child in children:
            if is_zero(child.weight):
                child = zero_edge
            else:
                any_nonzero = True
            canonical.append(child)
            weights.append(child.weight)
        if not any_nonzero:
            return zero_edge
        eta, normalized, keys = system.normalize_keyed(tuple(weights))
        zero = zero_edge.weight
        new_children = []
        for child, weight in zip(canonical, normalized):
            if weight is not child.weight:
                child = zero_edge if weight is zero else Edge(child.node, weight)
            new_children.append(child)
        return Edge(self._matrix_table.get_or_create(level, tuple(new_children), keys), eta)

    def scale(self, edge: Edge, factor: Any) -> Edge:
        """Multiply a whole DD by a scalar weight."""
        is_zero = self.system.is_zero
        if (
            is_zero(factor)
            or edge is self._zero_edge
            or (edge.node is TERMINAL and is_zero(edge.weight))
        ):
            return self._zero_edge
        return Edge(edge.node, self.system.mul(edge.weight, factor))

    # ------------------------------------------------------------------
    # Vector construction
    # ------------------------------------------------------------------

    def basis_state(self, index: int) -> Edge:
        """The computational basis state ``|index>`` over all qubits."""
        if not 0 <= index < (1 << self.num_qubits):
            raise ValueError(f"basis index {index} out of range")
        edge = self.one_edge()
        for level in range(1, self.num_qubits + 1):
            # Level L decides bit position L-1 of the basis index (the
            # root / level n carries the most significant bit = qubit 0).
            bit = (index >> (level - 1)) & 1
            children = [self.zero_edge(), self.zero_edge()]
            children[bit] = edge
            edge = self.make_node(level, children)
        return edge

    def zero_state(self) -> Edge:
        """``|0...0>`` -- the usual initial state."""
        return self.basis_state(0)

    def vector_from_weights(self, amplitudes: Sequence[Any]) -> Edge:
        """Build a state DD from ``2^n`` weights of the active system."""
        expected = 1 << self.num_qubits
        if len(amplitudes) != expected:
            raise ValueError(f"need {expected} amplitudes, got {len(amplitudes)}")
        return self._vector_from_slice(list(amplitudes), self.num_qubits)

    def _vector_from_slice(self, amplitudes: List[Any], level: int) -> Edge:
        if level == 0:
            return self.terminal_edge(amplitudes[0])
        half = len(amplitudes) // 2
        upper = self._vector_from_slice(amplitudes[:half], level - 1)
        lower = self._vector_from_slice(amplitudes[half:], level - 1)
        if self.is_zero_edge(upper) and self.is_zero_edge(lower):
            return self.zero_edge()
        return self.make_node(level, [upper, lower])

    # ------------------------------------------------------------------
    # Matrix construction
    # ------------------------------------------------------------------

    def identity(self) -> Edge:
        """The ``2^n x 2^n`` identity matrix."""
        edge = self.one_edge()
        for level in range(1, self.num_qubits + 1):
            edge = self.make_node(level, [edge, self.zero_edge(), self.zero_edge(), edge])
        return edge

    def matrix_from_weights(self, entries: Sequence[Sequence[Any]]) -> Edge:
        """Build a matrix DD from a dense ``2^n x 2^n`` grid of weights."""
        size = 1 << self.num_qubits
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(f"need a {size}x{size} matrix")
        grid = [list(row) for row in entries]
        return self._matrix_from_block(grid, 0, 0, size, self.num_qubits)

    def _matrix_from_block(
        self, grid: List[List[Any]], row: int, col: int, size: int, level: int
    ) -> Edge:
        if level == 0:
            return self.terminal_edge(grid[row][col])
        half = size // 2
        quadrants = [
            self._matrix_from_block(grid, row, col, half, level - 1),
            self._matrix_from_block(grid, row, col + half, half, level - 1),
            self._matrix_from_block(grid, row + half, col, half, level - 1),
            self._matrix_from_block(grid, row + half, col + half, half, level - 1),
        ]
        if all(self.is_zero_edge(quadrant) for quadrant in quadrants):
            return self.zero_edge()
        return self.make_node(level, quadrants)

    # ------------------------------------------------------------------
    # Addition
    # ------------------------------------------------------------------

    def add(self, left: Edge, right: Edge) -> Edge:
        """Pointwise sum of two DDs of the same kind and size."""
        system = self.system
        zero_edge = self._zero_edge
        left_node = left.node
        right_node = right.node
        if left is zero_edge or (left_node is TERMINAL and system.is_zero(left.weight)):
            return right
        if right is zero_edge or (right_node is TERMINAL and system.is_zero(right.weight)):
            return left
        if left_node.level != right_node.level:
            raise LevelMismatchError(
                f"cannot add DDs at levels {left_node.level} and {right_node.level}"
            )
        if left_node is TERMINAL:  # equal levels: both are the terminal
            return Edge(TERMINAL, system.add(left.weight, right.weight))
        if left_node is right_node and not system.supports_arbitrary_complex:
            # Same (canonical) node, so the same function up to the edge
            # weights: w_l * f + w_r * f == (w_l + w_r) * f, an O(1)
            # combine instead of a subtree walk.  Exact systems only --
            # distributivity is not a bitwise identity for floats, and
            # the numeric system's results are pinned to the established
            # per-child operation order (see the instability tests).
            total = system.add(left.weight, right.weight)
            if system.is_zero(total):
                return zero_edge
            return Edge(left_node, total)
        # Canonicalise the argument order (addition is commutative).
        # Inexact systems order by weight *value* first: the order
        # decides the ratio-factoring division direction below, and a
        # uid-based order would make the last float bits depend on node
        # creation history (i.e. on whether the GC re-interned a node).
        # Exact systems keep the cheap uid comparison; weight keys only
        # break ties between equal nodes.
        left_uid = left_node.uid
        right_uid = right_node.uid
        left_order = system.weight_order_key(left.weight)
        if left_order is not None:
            right_order = system.weight_order_key(right.weight)
            if right_order < left_order or (right_order == left_order and right_uid < left_uid):
                left, right = right, left
                left_node, right_node = right_node, left_node
        elif right_uid < left_uid or (
            right_uid == left_uid and system.key(right.weight) < system.key(left.weight)
        ):
            left, right = right, left
            left_node, right_node = right_node, left_node
        # Factor out the left weight when the system supports division,
        # so cache entries are shared across common scalings.
        ratio = system.division_helper(right.weight, left.weight)
        add_cache = self._add_cache
        if ratio is not None:
            cache_key = (left_node.uid, right_node.uid, system.key(ratio))
            cached = add_cache.get(cache_key)
            if cached is None:
                cached = self._add_children(Edge(left_node, system.one), Edge(right_node, ratio))
                add_cache.put(cache_key, cached)
            return self.scale(cached, left.weight)
        cache_key = (
            left_node.uid,
            system.key(left.weight),
            right_node.uid,
            system.key(right.weight),
        )
        cached = add_cache.get(cache_key)
        if cached is None:
            cached = self._add_children(left, right)
            add_cache.put(cache_key, cached)
        return cached

    def _add_children(self, left: Edge, right: Edge) -> Edge:
        add = self.add
        scale = self.scale
        left_weight = left.weight
        right_weight = right.weight
        children = [
            add(scale(left_child, left_weight), scale(right_child, right_weight))
            for left_child, right_child in zip(left.node.edges, right.node.edges)
        ]
        return self.make_node(left.node.level, children)

    # ------------------------------------------------------------------
    # Matrix-vector multiplication
    # ------------------------------------------------------------------

    def mat_vec(self, matrix: Edge, vector: Edge) -> Edge:
        """Apply a matrix DD to a vector DD (one simulation step)."""
        # Warm path (once per gate): a disabled tracer hands out the
        # shared null span, so this costs two no-op calls.
        with self.telemetry.tracer.span("dd.mat_vec"):
            if self.is_zero_edge(matrix) or self.is_zero_edge(vector):
                return self.zero_edge()
            weight = self.system.mul(matrix.weight, vector.weight)
            result = self._mat_vec_nodes(matrix.node, vector.node)
            return self.scale(result, weight)

    def _mat_vec_nodes(self, matrix: Node, vector: Node) -> Edge:
        if matrix.is_terminal and vector.is_terminal:
            return self.one_edge()
        if matrix.level != vector.level:
            raise LevelMismatchError(
                f"matrix level {matrix.level} != vector level {vector.level}"
            )
        cache_key = (matrix.uid, vector.uid)
        cached = self._mat_vec_cache.get(cache_key)
        if cached is not None:
            return cached
        level = matrix.level
        m = matrix.edges  # (m00, m01, m10, m11)
        v = vector.edges  # (v0, v1)
        result_children = []
        for row in (0, 1):
            total = self.zero_edge()
            for column in (0, 1):
                m_edge = m[2 * row + column]
                v_edge = v[column]
                if self.is_zero_edge(m_edge) or self.is_zero_edge(v_edge):
                    continue
                partial = self._mat_vec_nodes(m_edge.node, v_edge.node)
                partial = self.scale(
                    partial, self.system.mul(m_edge.weight, v_edge.weight)
                )
                total = self.add(total, partial)
            result_children.append(total)
        if all(self.is_zero_edge(child) for child in result_children):
            result = self.zero_edge()
        else:
            result = self.make_node(level, result_children)
        self._mat_vec_cache.put(cache_key, result)
        return result

    # ------------------------------------------------------------------
    # Matrix-matrix multiplication
    # ------------------------------------------------------------------

    def mat_mat(self, left: Edge, right: Edge) -> Edge:
        """Matrix product ``left @ right`` of two matrix DDs."""
        with self.telemetry.tracer.span("dd.mat_mat"):
            if self.is_zero_edge(left) or self.is_zero_edge(right):
                return self.zero_edge()
            weight = self.system.mul(left.weight, right.weight)
            result = self._mat_mat_nodes(left.node, right.node)
            return self.scale(result, weight)

    def _mat_mat_nodes(self, left: Node, right: Node) -> Edge:
        if left.is_terminal and right.is_terminal:
            return self.one_edge()
        if left.level != right.level:
            raise LevelMismatchError(
                f"matrix levels differ: {left.level} != {right.level}"
            )
        cache_key = (left.uid, right.uid)
        cached = self._mat_mat_cache.get(cache_key)
        if cached is not None:
            return cached
        children = []
        for row in (0, 1):
            for column in (0, 1):
                total = self.zero_edge()
                for inner in (0, 1):
                    l_edge = left.edges[2 * row + inner]
                    r_edge = right.edges[2 * inner + column]
                    if self.is_zero_edge(l_edge) or self.is_zero_edge(r_edge):
                        continue
                    partial = self._mat_mat_nodes(l_edge.node, r_edge.node)
                    partial = self.scale(
                        partial, self.system.mul(l_edge.weight, r_edge.weight)
                    )
                    total = self.add(total, partial)
                children.append(total)
        if all(self.is_zero_edge(child) for child in children):
            result = self.zero_edge()
        else:
            result = self.make_node(left.level, children)
        self._mat_mat_cache.put(cache_key, result)
        return result

    # ------------------------------------------------------------------
    # Kronecker product
    # ------------------------------------------------------------------

    def kron(self, top: Edge, bottom: Edge, bottom_levels: int) -> Edge:
        """Kronecker product ``top (x) bottom``.

        ``bottom`` occupies levels ``1 .. bottom_levels``; every terminal
        reached from ``top`` is replaced by ``bottom`` and the levels of
        ``top`` are shifted up by ``bottom_levels``.
        """
        with self.telemetry.tracer.span("dd.kron"):
            if self.is_zero_edge(top) or self.is_zero_edge(bottom):
                return self.zero_edge()
            shifted = self._kron_nodes(top.node, bottom, bottom_levels)
            return self.scale(shifted, self.system.mul(top.weight, bottom.weight))

    def _kron_nodes(self, top: Node, bottom: Edge, shift: int) -> Edge:
        if top.is_terminal:
            return Edge(bottom.node, self.system.one)
        cache_key = (top.uid, bottom.node.uid, self.system.key(bottom.weight), shift)
        cached = self._kron_cache.get(cache_key)
        if cached is not None:
            return cached
        children = []
        for child in top.edges:
            if self.is_zero_edge(child):
                children.append(self.zero_edge())
            else:
                sub = self._kron_nodes(child.node, bottom, shift)
                children.append(self.scale(sub, child.weight))
        result = self.make_node(top.level + shift, children)
        self._kron_cache.put(cache_key, result)
        return result

    # ------------------------------------------------------------------
    # Queries and extraction
    # ------------------------------------------------------------------

    def amplitude(self, state: Edge, index: int) -> Any:
        """The exact weight of basis state ``|index>``."""
        weight = state.weight
        node = state.node
        while not node.is_terminal:
            bit = (index >> (node.level - 1)) & 1
            edge = node.edges[bit]
            weight = self.system.mul(weight, edge.weight)
            node = edge.node
            if self.system.is_zero(weight):
                return self.system.zero
        return weight

    def to_statevector(self, state: Edge) -> np.ndarray:
        """Dense complex statevector (exponential; for tests/metrics)."""
        memo: Dict[int, np.ndarray] = {}

        def recurse(edge: Edge, level: int) -> np.ndarray:
            if self.is_zero_edge(edge):
                return np.zeros(1 << level, dtype=complex)
            if edge.is_terminal:
                return np.array([self.system.to_complex(edge.weight)], dtype=complex)
            sub = memo.get(edge.node.uid)
            if sub is None:
                halves = [recurse(child, level - 1) for child in edge.node.edges]
                sub = np.concatenate(halves)
                memo[edge.node.uid] = sub
            return self.system.to_complex(edge.weight) * sub

        if state.is_terminal and not self.system.is_zero(state.weight):
            # scalar DD: broadcast over a single amplitude space
            return np.full(1, self.system.to_complex(state.weight), dtype=complex)
        return recurse(state, self.num_qubits)

    def to_matrix(self, matrix: Edge) -> np.ndarray:
        """Dense complex matrix (exponential; for tests/metrics)."""
        memo: Dict[int, np.ndarray] = {}

        def recurse(edge: Edge, level: int) -> np.ndarray:
            size = 1 << level
            if self.is_zero_edge(edge):
                return np.zeros((size, size), dtype=complex)
            if edge.is_terminal:
                return np.array([[self.system.to_complex(edge.weight)]], dtype=complex)
            sub = memo.get(edge.node.uid)
            if sub is None:
                blocks = [recurse(child, level - 1) for child in edge.node.edges]
                sub = np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
                memo[edge.node.uid] = sub
            return self.system.to_complex(edge.weight) * sub

        return recurse(matrix, self.num_qubits)

    def to_exact_amplitudes(self, state: Edge) -> List[Any]:
        """All ``2^n`` amplitudes as *weights* of the number system.

        Unlike :meth:`to_statevector` this loses nothing: with an
        algebraic system the returned list contains exact ring elements
        (mind the exponential size).
        """
        results: List[Any] = []

        def recurse(edge: Edge, level: int, prefix_weight: Any) -> None:
            if self.is_zero_edge(edge):
                results.extend([self.system.zero] * (1 << level))
                return
            weight = self.system.mul(prefix_weight, edge.weight)
            if edge.is_terminal:
                results.append(weight)
                return
            for child in edge.node.edges:
                recurse(child, level - 1, weight)

        recurse(state, self.num_qubits, self.system.one)
        return results

    def to_exact_matrix(self, matrix: Edge) -> List[List[Any]]:
        """All ``2^n x 2^n`` entries as weights (exact; exponential)."""
        size = 1 << self.num_qubits
        grid: List[List[Any]] = [[self.system.zero] * size for _ in range(size)]

        def recurse(edge: Edge, level: int, row: int, col: int, prefix: Any) -> None:
            if self.is_zero_edge(edge):
                return
            weight = self.system.mul(prefix, edge.weight)
            if edge.is_terminal:
                grid[row][col] = weight
                return
            half = 1 << (level - 1)
            for position, child in enumerate(edge.node.edges):
                recurse(
                    child,
                    level - 1,
                    row + (position >> 1) * half,
                    col + (position & 1) * half,
                    weight,
                )

        recurse(matrix, self.num_qubits, 0, 0, self.system.one)
        return grid

    def node_count(self, edge: Edge) -> int:
        """Number of distinct non-terminal nodes (the paper's size metric)."""
        # Seeding the terminal keeps it out of the walk and the count.
        root = edge.node
        seen = {TERMINAL, root}
        stack = [root]
        while stack:
            for child in stack.pop().edges:
                node = child.node
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return len(seen) - 1

    def max_bit_width(self, edge: Edge) -> int:
        """Largest integer bit-width over all edge weights (0 for numeric).

        Reproduces the paper's Section V-B explanation of the GSE
        overhead: the bit-widths of the algebraic coefficients grow.
        """
        widest = self.system.bit_width(edge.weight)
        for node in iter_nodes(edge):
            for child in node.edges:
                width = self.system.bit_width(child.weight)
                if width > widest:
                    widest = width
        return widest

    def edges_equal(self, left: Edge, right: Edge) -> bool:
        """O(1) equivalence of two DDs (paper Section V-B)."""
        return left.node is right.node and self.system.key(left.weight) == self.system.key(
            right.weight
        )

    def norm_squared(self, state: Edge) -> Any:
        """``<psi|psi>`` as a weight of the active number system."""
        memo: Dict[int, Any] = {}

        def recurse(edge: Edge) -> Any:
            if self.is_zero_edge(edge):
                return self.system.zero
            own = _abs_squared(self.system, edge.weight)
            if edge.is_terminal:
                return own
            total = memo.get(edge.node.uid)
            if total is None:
                total = self.system.zero
                for child in edge.node.edges:
                    total = self.system.add(total, recurse(child))
                memo[edge.node.uid] = total
            return self.system.mul(own, total)

        return recurse(state)

    def adjoint(self, matrix: Edge) -> Edge:
        """The conjugate transpose ``U^dagger`` of a matrix DD.

        Built structurally: transpose the quadrant order (swap top-right
        and bottom-left) and conjugate every weight.  Used by the
        miter-style equivalence check ``U_a U_b^dagger == I``
        (paper Section V-B's verification use case).
        """
        cache: Dict[int, Edge] = {}

        def recurse(node: Node) -> Edge:
            if node.is_terminal:
                return self.one_edge()
            cached = cache.get(node.uid)
            if cached is not None:
                return cached
            children = []
            for position in (0, 2, 1, 3):  # transpose the 2x2 block order
                child = node.edges[position]
                if self.is_zero_edge(child):
                    children.append(self.zero_edge())
                else:
                    sub = recurse(child.node)
                    children.append(self.scale(sub, self.system.conj(child.weight)))
            result = self.make_node(node.level, children)
            cache[node.uid] = result
            return result

        if self.is_zero_edge(matrix):
            return self.zero_edge()
        body = recurse(matrix.node)
        return self.scale(body, self.system.conj(matrix.weight))

    def inner_product(self, left: Edge, right: Edge) -> Any:
        """``<left|right>`` as a weight of the active number system.

        Exact for the algebraic systems; the numeric system returns an
        interned complex value.
        """
        cache: Dict[Tuple[int, int], Any] = {}

        def recurse(a: Edge, b: Edge) -> Any:
            if self.is_zero_edge(a) or self.is_zero_edge(b):
                return self.system.zero
            factor = self.system.mul(self.system.conj(a.weight), b.weight)
            if a.is_terminal and b.is_terminal:
                return factor
            if a.node.level != b.node.level:
                raise LevelMismatchError(
                    f"inner product across levels {a.node.level} != {b.node.level}"
                )
            key = (a.node.uid, b.node.uid)
            partial = cache.get(key)
            if partial is None:
                partial = self.system.zero
                for a_child, b_child in zip(a.node.edges, b.node.edges):
                    partial = self.system.add(partial, recurse(a_child, b_child))
                cache[key] = partial
            return self.system.mul(factor, partial)

        return recurse(left, right)

    def fidelity(self, left: Edge, right: Edge) -> float:
        """``|<left|right>|^2`` as a float (for reporting)."""
        overlap = self.system.to_complex(self.inner_product(left, right))
        return abs(overlap) ** 2

    # ------------------------------------------------------------------
    # Gate signatures (for the direct apply kernel's compute table)
    # ------------------------------------------------------------------

    def gate_signature(
        self,
        entries: Sequence[Any],
        target: int,
        controls: Tuple[int, ...] = (),
        negative_controls: Tuple[int, ...] = (),
    ) -> int:
        """A small interned id describing one gate application.

        The direct apply kernel (:mod:`repro.dd.apply`) memoises results
        per ``(gate_signature, node_uid)``; interning the full
        description (entry keys + qubit layout) into an int keeps those
        compute-table keys cheap to hash.
        """
        key = (
            tuple(self.system.key(entry) for entry in entries),
            target,
            tuple(sorted(controls)),
            tuple(sorted(negative_controls)),
        )
        signature = self._gate_signatures.get(key)
        if signature is None:
            signature = len(self._gate_signatures) + 1
            self._gate_signatures[key] = signature
        return signature

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _compute_tables(self) -> Tuple[ComputeTable, ...]:
        return (
            self._add_cache,
            self._mat_vec_cache,
            self._mat_mat_cache,
            self._kron_cache,
            self._apply_cache,
        )

    def clear_caches(self) -> None:
        """Drop all memoised operation results (keeps interned nodes)."""
        for table in self._compute_tables():
            table.clear()

    def prune(self, roots: Sequence[Edge]) -> Dict[str, int]:
        """Garbage-collect dead nodes, keeping everything reachable from
        ``roots``.

        Long simulations intern every intermediate state; pruning
        between phases keeps the unique tables proportional to the live
        DDs.  Routed through :meth:`repro.dd.mem.MemoryManager.collect`,
        so registered roots and pins survive alongside ``roots`` and
        every compute table, weight memo and weight table is swept or
        invalidated in the correct order.  Returns
        ``{"vector_dropped": ..., "matrix_dropped": ...}``.
        """
        stats = self.memory.collect(extra_roots=roots, trigger="prune")
        return {
            "vector_dropped": stats.swept_vector,
            "matrix_dropped": stats.swept_matrix,
        }

    def sanitize(
        self, edge: Edge, *, raise_on_violation: bool = True, **options: Any
    ) -> Any:
        """Run a full sanitizer pass over ``edge`` (see
        :func:`repro.dd.sanitizer.sanitize_dd`)."""
        from repro.dd.sanitizer import sanitize_dd

        return sanitize_dd(
            self, edge, raise_on_violation=raise_on_violation, **options
        )

    def statistics(self) -> Dict[str, Any]:
        """The legacy nested statistics view, served by the obs registry.

        The report is a reshape of one
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`: every engine
        table reports the uniform ``size``/``hits``/``misses``/
        ``inserts``/``evictions`` schema (plus table-specific extras)
        under ``unique_tables``/``compute_tables``/``weights``, and the
        scalar top-level keys are kept for existing consumers.
        """
        snap = self.telemetry.metrics.snapshot()
        unique: Dict[str, Dict[str, Any]] = {}
        compute: Dict[str, Dict[str, Any]] = {}
        weights: Dict[str, Dict[str, Any]] = {}
        for name, value in snap.items():
            if name.startswith("dd.ut."):
                _, _, table_name, key = name.split(".", 3)
                unique.setdefault(table_name, {})[key] = value
            elif name.startswith("dd.ct."):
                _, _, table_name, key = name.split(".", 3)
                compute.setdefault(table_name, {})[key] = value
            elif name.startswith("weights."):
                _, table_name, key = name.split(".", 2)
                weights.setdefault(table_name, {})[key] = value
        return {
            "system": self.system.name,
            "vector_nodes": snap["dd.nodes.vector"],
            "matrix_nodes": snap["dd.nodes.matrix"],
            "apply_direct_ops": snap["dd.apply.direct"],
            "apply_delegated_ops": snap["dd.apply.delegated"],
            "add_cache": compute["add"]["size"],
            "mat_vec_cache": compute["mat_vec"]["size"],
            "mat_mat_cache": compute["mat_mat"]["size"],
            "kron_cache": compute["kron"]["size"],
            "apply_cache": compute["apply"]["size"],
            "unique_tables": unique,
            "compute_tables": compute,
            "weights": weights,
            "gc": self.memory.statistics(),
        }

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Flat snapshot of every compute table and weight-op memo.

        Each entry maps a table name to its counter dict (size, hits,
        misses, inserts, evictions); the benchmarks print this to report
        hit rates alongside wall-clock numbers.  Like
        :meth:`statistics` this is a reshape of the obs registry
        snapshot.
        """
        stats = self.statistics()
        snapshot: Dict[str, Dict[str, Any]] = dict(stats["compute_tables"])
        snapshot.update(
            (name, counters)
            for name, counters in stats["weights"].items()
            if "hits" in counters
        )
        return snapshot


def _abs_squared(system: NumberSystem, weight: Any) -> Any:
    """``|w|^2`` inside the weight domain (exact for algebraic systems)."""
    return system.mul(weight, system.conj(weight))


# ---------------------------------------------------------------------------
# Factory helpers
# ---------------------------------------------------------------------------


def numeric_manager(
    num_qubits: int,
    eps: float = 0.0,
    normalization: str = "leftmost",
    precision: str = "double",
    telemetry: Optional[Telemetry] = None,
    memory: Optional[MemoryConfig] = None,
) -> DDManager:
    """A manager using the state-of-the-art numerical representation.

    ``precision="single"`` rounds every value through IEEE-754 binary32,
    modelling a lower machine precision (see Section V-A's remark on
    scaling the float bit-width).
    """
    return DDManager(
        NumericSystem(eps=eps, normalization=normalization, precision=precision),
        num_qubits,
        telemetry=telemetry,
        memory=memory,
    )


def algebraic_manager(
    num_qubits: int,
    telemetry: Optional[Telemetry] = None,
    memory: Optional[MemoryConfig] = None,
) -> DDManager:
    """A manager using the paper's Q[omega] scheme (Algorithm 2)."""
    return DDManager(
        AlgebraicQOmegaSystem(), num_qubits, telemetry=telemetry, memory=memory
    )


def algebraic_gcd_manager(
    num_qubits: int,
    telemetry: Optional[Telemetry] = None,
    memory: Optional[MemoryConfig] = None,
) -> DDManager:
    """A manager using the paper's D[omega] GCD scheme (Algorithm 3)."""
    return DDManager(
        AlgebraicGcdSystem(), num_qubits, telemetry=telemetry, memory=memory
    )
