r"""Node lifecycle and memory management for the QMDD engine.

The unique tables hash-cons every node ever built, so a long simulation
accumulates the interned remains of every intermediate state and the
engine's footprint is bounded by *history*, not by the live DD size.
This module converts the engine to steady-state memory:

* **One liveness record.**  External owners register the edges they
  hold with :meth:`MemoryManager.inc_ref` / :meth:`~MemoryManager.dec_ref`
  (registration nests) or protect them for good with
  :meth:`~MemoryManager.pin`.  Nodes themselves carry no counts: a
  node is live exactly when it is reachable from a registered root, a
  pin, or an extra root handed to one collection.

* **Mark and sweep.**  :meth:`MemoryManager.collect` walks the
  registered roots and pins, marks the reachable closure, sweeps
  unmarked nodes out of both unique tables (the only way a node ever
  leaves one), invalidates every operation compute table and the
  algebraic weight-arithmetic memos (their entries may reference swept
  nodes or swept weights), and finally garbage-collects the weight
  interning tables themselves.

* **Weight GC without id reuse.**  Swept weight-table slots are
  *tombstoned*, never reused: unique- and compute-table keys embed
  weight ids, so a recycled id could alias two different weights and
  resurrect the very shadow-node bugs hash-consing exists to prevent.
  The numeric tolerance table (``eps > 0``) is never swept at all --
  every stored entry is an identification anchor and dropping one
  would change which values later lookups snap to.

* **Trigger policy.**  :meth:`MemoryManager.maybe_collect` runs the
  collector when the resident node count crosses a threshold; a
  collection that frees less than ``min_yield`` of the table doubles
  the threshold (the classic grow-on-low-yield heuristic -- if
  everything is live, collecting more often only burns time).  An
  optional :class:`MemoryBudget` turns the soft policy into a hard limit:
  exceeding it triggers a collection, and if the *live* state still
  does not fit, a typed :class:`~repro.errors.MemoryBudgetExceeded`
  is raised instead of thrashing.

Observability: collections run under a ``dd.gc`` span and feed the
``dd.gc.*`` instruments (see ``docs/OBSERVABILITY.md``).  The sanitizer
checks via :meth:`MemoryManager.audit` that every registered root and
pin is still resident.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.dd.edge import Edge, Node
from repro.errors import DDError, MemoryBudgetExceeded

if TYPE_CHECKING:
    from repro.dd.manager import DDManager
    from repro.dd.sanitizer import SanitizerViolation

__all__ = [
    "GC_SECONDS_BUCKETS",
    "GcStats",
    "MemoryBudget",
    "MemoryConfig",
    "MemoryManager",
]

#: Bucket layout of the ``dd.gc.seconds`` histogram (seconds; a pass
#: over a few thousand nodes lands in the sub-millisecond buckets).
GC_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)

# Approximate CPython footprints used by the byte budget: a slotted
# Node plus its unique-table key and dict slot, one slotted Edge, and
# one interned weight (entry object plus two dict slots).  Ballpark
# figures -- the budget is explicitly "approximate bytes".
_NODE_BYTES = 160
_EDGE_BYTES = 56
_WEIGHT_BYTES = 120

#: A threshold-triggered collection that frees less than ``min_yield``
#: of the table multiplies the threshold by this factor.
_GROWTH_FACTOR = 2.0


class MemoryBudget:
    """A hard ceiling on resident DD state.

    ``max_nodes`` bounds the summed size of both unique tables;
    ``max_bytes`` bounds the approximate byte footprint (nodes, edges
    and interned weights at CPython ballpark sizes).  Crossing either
    limit triggers a collection; if the live state still exceeds the
    budget afterwards, :class:`~repro.errors.MemoryBudgetExceeded` is
    raised -- a typed failure instead of GC thrash.
    """

    __slots__ = ("max_nodes", "max_bytes")

    def __init__(
        self, max_nodes: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> None:
        if max_nodes is None and max_bytes is None:
            raise ValueError("a MemoryBudget needs max_nodes and/or max_bytes")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_nodes = max_nodes
        self.max_bytes = max_bytes

    def __repr__(self) -> str:
        return f"MemoryBudget(max_nodes={self.max_nodes}, max_bytes={self.max_bytes})"


class MemoryConfig:
    """Trigger policy of the garbage collector.

    Parameters
    ----------
    enabled:
        Whether :meth:`MemoryManager.maybe_collect` collects at all.
        Explicit :meth:`MemoryManager.collect` calls (and ``prune``)
        work regardless.
    threshold:
        Resident node count (both unique tables) above which
        ``maybe_collect`` runs the collector.
    min_yield:
        Grow-on-low-yield heuristic: when a threshold-triggered
        collection frees less than ``min_yield`` of the table, the
        threshold doubles -- mostly-live tables should be collected
        less often, not thrashed.
    budget:
        Optional hard :class:`MemoryBudget` enforced after the soft
        policy.
    """

    __slots__ = ("enabled", "threshold", "min_yield", "budget")

    def __init__(
        self,
        enabled: bool = True,
        threshold: int = 100_000,
        min_yield: float = 0.25,
        budget: Optional[MemoryBudget] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("gc threshold must be positive")
        if not 0.0 <= min_yield <= 1.0:
            raise ValueError("gc min_yield must be in [0, 1]")
        self.enabled = enabled
        self.threshold = threshold
        self.min_yield = min_yield
        self.budget = budget


def _config_or_off(config: Optional[MemoryConfig]) -> MemoryConfig:
    """``config`` itself, or a disabled policy for ``None``."""
    if config is None:
        return MemoryConfig(enabled=False)
    if not isinstance(config, MemoryConfig):
        raise TypeError(f"memory takes a MemoryConfig or None, not {config!r}")
    return config


class GcStats:
    """Outcome of one :meth:`MemoryManager.collect` pass."""

    __slots__ = (
        "trigger",
        "before_nodes",
        "after_nodes",
        "swept_vector",
        "swept_matrix",
        "swept_weights",
        "invalidated_entries",
        "seconds",
        "threshold_after",
    )

    def __init__(
        self,
        trigger: str,
        before_nodes: int,
        after_nodes: int,
        swept_vector: int,
        swept_matrix: int,
        swept_weights: int,
        invalidated_entries: int,
        seconds: float,
        threshold_after: int,
    ) -> None:
        self.trigger = trigger
        self.before_nodes = before_nodes
        self.after_nodes = after_nodes
        self.swept_vector = swept_vector
        self.swept_matrix = swept_matrix
        self.swept_weights = swept_weights
        self.invalidated_entries = invalidated_entries
        self.seconds = seconds
        self.threshold_after = threshold_after

    @property
    def swept_nodes(self) -> int:
        return self.swept_vector + self.swept_matrix

    def __repr__(self) -> str:
        return (
            f"GcStats(trigger={self.trigger!r}, nodes {self.before_nodes}"
            f"->{self.after_nodes}, swept_weights={self.swept_weights}, "
            f"seconds={self.seconds:.2e})"
        )


class _RootEntry:
    """One registered external root: the edge plus its registration count."""

    __slots__ = ("edge", "count")

    def __init__(self, edge: Edge, count: int) -> None:
        self.edge = edge
        self.count = count


class MemoryManager:
    """Root registry, mark-and-sweep collector and trigger policy.

    One instance per :class:`~repro.dd.manager.DDManager` (created by
    the manager itself; reach it as ``manager.memory``).  ``config`` is
    the trigger policy; ``None`` keeps automatic collection off.
    """

    def __init__(
        self, manager: "DDManager", config: Optional[MemoryConfig] = None
    ) -> None:
        self.manager = manager
        self.config = _config_or_off(config)
        # Keyed by (node uid, root-edge weight key): two edges into one
        # node with different weights are different roots, and marking
        # must keep both weights alive.
        self._roots: Dict[Tuple[int, Any], _RootEntry] = {}
        self._pins: Dict[Tuple[int, Any], Edge] = {}
        self._threshold = self.config.threshold
        self.collections = 0
        self.swept_nodes_total = 0
        self.swept_weights_total = 0
        self.peak_nodes = 0
        registry = manager.telemetry.metrics
        self._collections_counter = registry.counter("dd.gc.collections")
        self._swept_nodes_counter = registry.counter("dd.gc.swept_nodes")
        self._swept_weights_counter = registry.counter("dd.gc.swept_weights")
        self._budget_failures = registry.counter("dd.gc.budget_failures")
        self._threshold_gauge = registry.gauge("dd.gc.threshold")
        self._peak_gauge = registry.gauge("dd.gc.peak_resident_nodes")
        self._seconds_histogram = registry.histogram("dd.gc.seconds", GC_SECONDS_BUCKETS)
        self._threshold_gauge.set(self._threshold)
        registry.register_collector(self._collect_metrics)

    # -- configuration ---------------------------------------------------

    def configure(self, config: Optional[MemoryConfig]) -> None:
        """Replace the trigger policy (``SimulatorConfig`` GC wiring)."""
        self.config = _config_or_off(config)
        self._threshold = self.config.threshold
        self._threshold_gauge.set(self._threshold)

    @property
    def active(self) -> bool:
        """Whether :meth:`maybe_collect` can collect or enforce a budget.

        Callers that keep roots registered only for the collector's
        sake (the simulator's evolving state, the service between jobs)
        read this at each use, so a later :meth:`configure` takes effect.
        """
        config = self.config
        return config.enabled or config.budget is not None

    # -- root registry ---------------------------------------------------

    def _root_key(self, edge: Edge) -> Tuple[int, Any]:
        return edge.node.uid, self.manager.system.key(edge.weight)

    def inc_ref(self, edge: Edge) -> None:
        """Register ``edge`` as an external root.

        Registered roots survive every collection.  Registration
        nests: ``inc_ref`` twice needs ``dec_ref`` twice.  Terminal
        edges need no protection and are ignored.
        """
        if edge.node.is_terminal:
            return
        root = self._root_key(edge)
        entry = self._roots.get(root)
        if entry is None:
            self._roots[root] = _RootEntry(edge, 1)
        else:
            entry.count += 1

    def dec_ref(self, edge: Edge) -> None:
        """Drop one root registration of ``edge``; raises
        :class:`~repro.errors.DDError` when none is outstanding."""
        if edge.node.is_terminal:
            return
        root = self._root_key(edge)
        entry = self._roots.get(root)
        if entry is None:
            raise DDError(
                f"dec_ref on unregistered root (node uid {root[0]}); "
                "inc_ref/dec_ref must be balanced"
            )
        entry.count -= 1
        if entry.count == 0:
            del self._roots[root]

    @contextmanager
    def protecting(self, edge: Edge) -> Iterator[Edge]:
        """Scoped root registration: ``with memory.protecting(edge):``.

        Registers ``edge`` on entry and releases it on exit (including
        on exceptions), so ad-hoc callers -- benchmarks, sanitizer
        probes, tests poking at intermediate states -- get balanced
        inc_ref/dec_ref without writing the try/finally themselves.
        """
        self.inc_ref(edge)
        try:
            yield edge
        finally:
            self.dec_ref(edge)

    def pin(self, edge: Edge) -> None:
        """Permanently protect ``edge`` from collection (idempotent).

        For long-lived derived structure whose owner has no natural
        release point -- cached gate DDs, the apply kernels' lazily
        built matrix fallbacks.  Pins are kept apart from the nested
        registrations: :meth:`dec_ref` never releases one.
        """
        if not edge.node.is_terminal:
            self._pins.setdefault(self._root_key(edge), edge)

    def roots(self) -> List[Edge]:
        """All currently registered root edges (pins included)."""
        edges = [entry.edge for entry in self._roots.values()]
        edges.extend(self._pins.values())
        return edges

    # -- accounting ------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Resident nodes across both unique tables."""
        manager = self.manager
        return len(manager._vector_table) + len(manager._matrix_table)

    def approx_bytes(self) -> int:
        """Approximate resident byte footprint (nodes, edges, weights)."""
        manager = self.manager
        vector_nodes = len(manager._vector_table)
        matrix_nodes = len(manager._matrix_table)
        weights = 0
        for counters in manager.system.weight_statistics().values():
            weights = int(counters.get("entries", counters.get("size", 0)))
            break  # first table is the interning table; memos are separate
        return (
            vector_nodes * (_NODE_BYTES + 2 * _EDGE_BYTES)
            + matrix_nodes * (_NODE_BYTES + 4 * _EDGE_BYTES)
            + weights * _WEIGHT_BYTES
        )

    # -- collection ------------------------------------------------------

    def invalidate_derived_state(self) -> int:
        """Drop every memo that may reference swept nodes or weights.

        Clears (and generation-stamps) the manager's five operation
        compute tables and the number system's weight-arithmetic memos.
        Called by the collector after sweeping.  Returns the number of
        entries dropped.
        """
        manager = self.manager
        dropped = 0
        for table in manager._compute_tables():
            dropped += table.invalidate()
        dropped += manager.system.invalidate_memos()
        return dropped

    def collect(
        self, extra_roots: Iterable[Edge] = (), trigger: str = "explicit"
    ) -> GcStats:
        """One full mark-and-sweep pass.

        Order matters and is part of the contract (see
        ``docs/ALGORITHMS.md``): mark from roots/pins/``extra_roots``,
        sweep both unique tables, then invalidate all derived memo
        state, then sweep the weight tables against the live weight-key
        set collected during marking (the tolerant numeric table
        declines; see the module docstring).
        """
        manager = self.manager
        started = time.perf_counter()
        with manager.telemetry.tracer.span("dd.gc", trigger=trigger):
            before = self.node_count
            marked, live_weight_keys = self._mark(extra_roots)
            swept_vector = manager._vector_table.sweep(marked)
            swept_matrix = manager._matrix_table.sweep(marked)
            invalidated = self.invalidate_derived_state()
            swept_weights = manager.system.sweep_weights(live_weight_keys)
        seconds = time.perf_counter() - started
        after = self.node_count
        self.collections += 1
        self.swept_nodes_total += swept_vector + swept_matrix
        self.swept_weights_total += swept_weights
        self._collections_counter.inc()
        self._swept_nodes_counter.inc(swept_vector + swept_matrix)
        self._swept_weights_counter.inc(swept_weights)
        self._seconds_histogram.observe(seconds)
        return GcStats(
            trigger=trigger,
            before_nodes=before,
            after_nodes=after,
            swept_vector=swept_vector,
            swept_matrix=swept_matrix,
            swept_weights=swept_weights,
            invalidated_entries=invalidated,
            seconds=seconds,
            threshold_after=self._threshold,
        )

    def _mark(
        self, extra_roots: Iterable[Edge]
    ) -> Tuple[Set[int], Set[Any]]:
        """Reachable node uids and live weight keys from all roots."""
        system = self.manager.system
        key = system.key
        marked: Set[int] = set()
        live_keys: Set[Any] = set()
        stack: List[Node] = []

        def push_root(edge: Edge) -> None:
            live_keys.add(key(edge.weight))
            node = edge.node
            if not node.is_terminal:
                stack.append(node)

        for entry in self._roots.values():
            push_root(entry.edge)
        for pinned in self._pins.values():
            push_root(pinned)
        for edge in extra_roots:
            push_root(edge)
        while stack:
            node = stack.pop()
            if node.uid in marked:
                continue
            marked.add(node.uid)
            for child in node.edges:
                live_keys.add(key(child.weight))
                if not child.node.is_terminal:
                    stack.append(child.node)
        # Zero/one are structurally load-bearing (shared zero edge,
        # identity fast paths) and gate-signature keys embed weight
        # keys that must survive for kernels to keep hitting their
        # apply-cache namespace.
        live_keys.add(key(system.zero))
        live_keys.add(key(system.one))
        for signature_key in self.manager._gate_signatures:
            live_keys.update(signature_key[0])
        return marked, live_keys

    def maybe_collect(self) -> Optional[GcStats]:
        """Apply the trigger policy; returns stats when a pass ran.

        Raises :class:`~repro.errors.MemoryBudgetExceeded` when a
        budget is configured and even a collection cannot satisfy it.
        """
        nodes = self.node_count
        if nodes > self.peak_nodes:
            # peak_nodes is a monotone high-water mark: it records that
            # the resident set *did* reach this size, so it stays
            # truthful even if the budget check below raises.
            self.peak_nodes = nodes  # repro-lint: allow[RL013]
            self._peak_gauge.set_max(nodes)
        config = self.config
        stats: Optional[GcStats] = None
        grown: Optional[int] = None
        if config.enabled and nodes >= self._threshold:
            stats = self.collect(trigger="threshold")
            if stats.swept_nodes < config.min_yield * max(1, stats.before_nodes):
                grown = int(self._threshold * _GROWTH_FACTOR)
        if config.budget is not None:
            stats = self._enforce_budget(stats)
        # The threshold grows only after the budget check has passed: a
        # raised MemoryBudgetExceeded must not strand a larger trigger
        # point that would delay every subsequent collection.
        if grown is not None:
            self._threshold = grown
            self._threshold_gauge.set(grown)
        return stats

    def _enforce_budget(self, already: Optional[GcStats]) -> Optional[GcStats]:
        budget = self.config.budget
        assert budget is not None
        if not self._over_budget(budget):
            return already
        stats = already if already is not None else self.collect(trigger="budget")
        if self._over_budget(budget):
            nodes = self.node_count
            approx = self.approx_bytes() if budget.max_bytes is not None else None
            self._budget_failures.inc()
            raise MemoryBudgetExceeded(
                f"live DD state ({nodes} nodes"
                + (f", ~{approx} bytes" if approx is not None else "")
                + f") exceeds the memory budget {budget!r} even after garbage "
                "collection",
                nodes=nodes,
                approx_bytes=approx,
                max_nodes=budget.max_nodes,
                max_bytes=budget.max_bytes,
            )
        return stats

    def _over_budget(self, budget: MemoryBudget) -> bool:
        if budget.max_nodes is not None and self.node_count > budget.max_nodes:
            return True
        if budget.max_bytes is not None and self.approx_bytes() > budget.max_bytes:
            return True
        return False

    # -- audit (sanitizer hook) ------------------------------------------

    def audit(self) -> List["SanitizerViolation"]:
        """Check that every registered root and pin is still resident.

        A violation means a sweep removed a node some owner still
        holds -- the collector's one liveness rule was broken.  Returns
        the violations (code ``refcount``) instead of raising, so the
        sanitizer can merge them into its report.
        """
        from repro.dd.sanitizer import SanitizerViolation

        manager = self.manager
        resident = {
            node.uid
            for table in (manager._vector_table, manager._matrix_table)
            for node in table.nodes()
        }
        violations: List[SanitizerViolation] = []
        for roots, message in (
            (self._roots, "registered root is no longer resident in any unique table"),
            (self._pins, "pinned edge was swept from the unique tables"),
        ):
            violations.extend(
                SanitizerViolation("refcount", message, None, uid)
                for uid in sorted({uid for uid, _ in roots})
                if uid not in resident
            )
        return violations

    # -- observability ---------------------------------------------------

    def _registered_nodes(self) -> int:
        """Distinct nodes with outstanding registrations."""
        return len({uid for uid, _ in self._roots})

    def _collect_metrics(self) -> Dict[str, float]:
        return {
            "dd.gc.resident_nodes": float(self.node_count),
            "dd.gc.registered_roots": float(self._registered_nodes()),
            "dd.gc.pinned_roots": float(len(self._pins)),
        }

    def statistics(self) -> Dict[str, Any]:
        """Scalar summary for reports and the ``gc`` CLI subcommand."""
        return {
            "enabled": self.config.enabled,
            "collections": self.collections,
            "swept_nodes": self.swept_nodes_total,
            "swept_weights": self.swept_weights_total,
            "threshold": self._threshold,
            "resident_nodes": self.node_count,
            "peak_resident_nodes": self.peak_nodes,
            "registered_roots": self._registered_nodes(),
            "pinned_roots": len(self._pins),
        }
