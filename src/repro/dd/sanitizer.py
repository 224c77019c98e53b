r"""Runtime invariant checking for canonical QMDDs (the *sanitizer*).

The paper's central guarantee -- a QMDD with exact algebraic weights is
*canonical*, so equality of (sub-)states is pointer equality -- only
holds while a set of invariants is maintained by every operation:

1. **Weight normal form.**  Every edge weight is a canonical value of
   the active number system: Algorithm 1 minimal-denominator form for
   ``D[omega]`` (and the extended reduction for ``Q[omega]``), the
   eps-snap residue property for the numeric tolerance table; and the
   *registered* interned instance, so weight keys round-trip.
2. **Node normalisation.**  The outgoing weight tuple of every node is
   a fixed point of the system's normalisation rule (Algorithm 2/3 or
   the numeric pivot rule): re-normalising yields ``eta == 1`` and the
   identical keys.  This is the "leading edge" convention of
   Section II-B.
3. **Hash-consing.**  Every reachable node is the unique-table resident
   for its own structural key -- no shadow duplicates that would break
   pointer-equality canonicity.
4. **Memo coherence.**  Compute-table entries replay to their cached
   result (checked on a bounded sample; a stale entry silently
   replayed is the classic wrong-but-plausible DD failure mode).
5. **Semantics.**  Reconstructed amplitudes of a sampled set of basis
   states agree with an independent dense evaluation of the DD.

:class:`Sanitizer` walks a DD and verifies all of the above, reporting
violations as structured :class:`~repro.errors.SanitizerError`\ s that
carry a stable ``code`` plus the root-to-node path.  The three
:class:`SanitizerMode` settings wire it into the simulator:

``off``
    No checking (the default; zero overhead).
``check-on-root``
    One full check of the final state after a simulation run.
``check-every-op``
    A full check after every gate application (slow; for tests and
    debugging sessions).

``Simulator(manager, sanitize="check-on-root")`` and the
``repro-qmdd sanitize`` CLI subcommand are the entry points; the static
counterpart of this runtime net is ``tools/repro_lint``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.dd.edge import MATRIX_ARITY, VECTOR_ARITY, Edge, Node
from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.dd.manager import DDManager

__all__ = [
    "SanitizerMode",
    "SanitizerReport",
    "SanitizerViolation",
    "Sanitizer",
    "sanitize_dd",
]


class SanitizerMode(Enum):
    """How much invariant checking the simulator performs."""

    OFF = "off"
    CHECK_ON_ROOT = "check-on-root"
    CHECK_EVERY_OP = "check-every-op"

    @classmethod
    def coerce(cls, value: "SanitizerMode | str | bool | None") -> "SanitizerMode":
        """Accept enum members, their string values, common aliases and
        booleans (``True`` means ``check-on-root``)."""
        if isinstance(value, SanitizerMode):
            return value
        if value is None or value is False:
            return cls.OFF
        if value is True:
            return cls.CHECK_ON_ROOT
        aliases = {
            "root": cls.CHECK_ON_ROOT,
            "every-op": cls.CHECK_EVERY_OP,
            "all": cls.CHECK_EVERY_OP,
        }
        name = str(value).strip().lower()
        if name in aliases:
            return aliases[name]
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(
            f"unknown sanitizer mode {value!r}; expected one of "
            f"{[member.value for member in cls]} (or 'root'/'every-op')"
        )


@dataclass
class SanitizerViolation:
    """One invariant violation (pre-exception form, for reports)."""

    code: str
    message: str
    path: Optional[Tuple[int, ...]] = None
    node_uid: Optional[int] = None

    def to_error(self) -> SanitizerError:
        return SanitizerError(self.code, self.message, self.path, self.node_uid)

    def __str__(self) -> str:
        return str(self.to_error())


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer pass: violations plus coverage counters."""

    violations: List[SanitizerViolation] = field(default_factory=list)
    nodes_checked: int = 0
    edges_checked: int = 0
    memo_entries_checked: int = 0
    amplitudes_checked: int = 0
    refcounts_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "SanitizerReport") -> "SanitizerReport":
        self.violations.extend(other.violations)
        self.nodes_checked += other.nodes_checked
        self.edges_checked += other.edges_checked
        self.memo_entries_checked += other.memo_entries_checked
        self.amplitudes_checked += other.amplitudes_checked
        self.refcounts_checked += other.refcounts_checked
        return self

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"sanitizer: {status} "
            f"({self.nodes_checked} nodes, {self.edges_checked} edges, "
            f"{self.memo_entries_checked} memo entries, "
            f"{self.amplitudes_checked} amplitudes, "
            f"{self.refcounts_checked} refcounts checked)"
        )


class Sanitizer:
    """Invariant checker for the DDs of one manager.

    Parameters
    ----------
    manager:
        The owning :class:`~repro.dd.manager.DDManager`.
    mode:
        Governs how the simulator drives this sanitizer; the direct
        :meth:`check_state` / :meth:`check_dd` calls always run a full
        check regardless.
    amplitude_samples:
        Number of basis states sampled for the semantic cross-check
        (plus the two extremal indices).
    memo_samples:
        Per compute table, how many entries are replayed.
    max_statevector_qubits:
        Up to this width the amplitude cross-check compares against a
        fresh dense statevector evaluation; above it, against an
        independent per-path complex product (O(n) per sample).
    """

    def __init__(
        self,
        manager: "DDManager",
        mode: "SanitizerMode | str" = SanitizerMode.CHECK_ON_ROOT,
        *,
        amplitude_samples: int = 8,
        memo_samples: int = 32,
        max_statevector_qubits: int = 12,
        seed: int = 0,
    ) -> None:
        self.manager = manager
        self.mode = SanitizerMode.coerce(mode)
        self.amplitude_samples = amplitude_samples
        self.memo_samples = memo_samples
        self.max_statevector_qubits = max_statevector_qubits
        self.seed = seed
        #: Cumulative counters over all checks run through this instance.
        self.total = SanitizerReport()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def check_state(self, state: Edge, raise_on_violation: bool = True) -> SanitizerReport:
        """Full invariant check of a state-vector DD.

        Runs the structural walk, the compute-table replay sample and
        the amplitude cross-check.  With ``raise_on_violation`` (the
        default) the first violation is raised as a structured
        :class:`~repro.errors.SanitizerError`; otherwise the complete
        report is returned for inspection.
        """
        tracer = self.manager.telemetry.tracer
        with tracer.span("dd.sanitize.walk"):
            report = self._walk(state)
        with tracer.span("dd.sanitize.memo_replay"):
            report.merge(self._check_memo_tables())
        if not state.is_terminal and state.node.level == self.manager.num_qubits:
            with tracer.span("dd.sanitize.amplitudes"):
                report.merge(self._check_amplitudes(state))
        with tracer.span("dd.sanitize.refcounts"):
            report.merge(self._check_refcounts())
        self.total.merge(report)
        if raise_on_violation and not report.ok:
            raise report.violations[0].to_error()
        return report

    def check_dd(self, edge: Edge, raise_on_violation: bool = True) -> SanitizerReport:
        """Structural-only check of any DD (vector or matrix)."""
        with self.manager.telemetry.tracer.span("dd.sanitize.walk"):
            report = self._walk(edge)
        self.total.merge(report)
        if raise_on_violation and not report.ok:
            raise report.violations[0].to_error()
        return report

    # ------------------------------------------------------------------
    # Invariants 1-3: the structural walk
    # ------------------------------------------------------------------

    def _walk(self, root: Edge) -> SanitizerReport:
        manager = self.manager
        system = manager.system
        report = SanitizerReport()
        self._check_edge_weight(root, (), report, is_root=True)
        if root.is_terminal:
            return report
        seen: set = set()
        stack: List[Tuple[Node, Tuple[int, ...]]] = [(root.node, ())]
        while stack:
            node, path = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            report.nodes_checked += 1
            if node.arity not in (VECTOR_ARITY, MATRIX_ARITY):
                report.violations.append(
                    SanitizerViolation(
                        "level-structure",
                        f"node has arity {node.arity} (expected 2 or 4)",
                        path,
                        node.uid,
                    )
                )
                continue
            if not 1 <= node.level <= manager.num_qubits:
                report.violations.append(
                    SanitizerViolation(
                        "level-structure",
                        f"node level {node.level} outside 1..{manager.num_qubits}",
                        path,
                        node.uid,
                    )
                )
            any_nonzero = False
            for position, child in enumerate(node.edges):
                child_path = path + (position,)
                self._check_edge_weight(child, child_path, report)
                weight_zero = self._safe_is_zero(child.weight)
                if weight_zero:
                    if not child.node.is_terminal:
                        report.violations.append(
                            SanitizerViolation(
                                "zero-edge-form",
                                "zero-weight edge points at a live node "
                                "(must be the canonical terminal zero edge)",
                                child_path,
                                child.node.uid,
                            )
                        )
                else:
                    any_nonzero = True
                    if child.node.is_terminal:
                        if node.level != 1:
                            report.violations.append(
                                SanitizerViolation(
                                    "level-structure",
                                    f"non-zero terminal child below level {node.level} "
                                    "(levels may not be skipped)",
                                    child_path,
                                    node.uid,
                                )
                            )
                    elif child.node.level != node.level - 1:
                        report.violations.append(
                            SanitizerViolation(
                                "level-structure",
                                f"child at level {child.node.level} under a level-"
                                f"{node.level} node (expected {node.level - 1})",
                                child_path,
                                child.node.uid,
                            )
                        )
                    else:
                        stack.append((child.node, child_path))
            if not any_nonzero:
                report.violations.append(
                    SanitizerViolation(
                        "zero-edge-form",
                        "all children are zero (node should have collapsed "
                        "to the zero edge)",
                        path,
                        node.uid,
                    )
                )
                continue
            self._check_node_normalization(node, path, report)
            self._check_residency(node, path, report)
        return report

    def _safe_is_zero(self, weight: Any) -> bool:
        try:
            return bool(self.manager.system.is_zero(weight))
        except Exception:
            return False

    def _check_edge_weight(
        self, edge: Edge, path: Tuple[int, ...], report: SanitizerReport, is_root: bool = False
    ) -> None:
        report.edges_checked += 1
        problem = self.manager.system.check_canonical(edge.weight)
        if problem is not None:
            report.violations.append(
                SanitizerViolation(
                    "weight-form",
                    ("root edge: " if is_root else "") + problem,
                    path,
                    None if edge.node.is_terminal else edge.node.uid,
                )
            )

    def _check_node_normalization(
        self, node: Node, path: Tuple[int, ...], report: SanitizerReport
    ) -> None:
        system = self.manager.system
        weights = tuple(child.weight for child in node.edges)
        try:
            current_keys = tuple(system.key(weight) for weight in weights)
            eta, _normalized, keys = system.normalize_keyed(weights)
        except Exception as error:
            report.violations.append(
                SanitizerViolation(
                    "normalization",
                    f"weight tuple cannot be re-normalised: {error}",
                    path,
                    node.uid,
                )
            )
            return
        if not system.is_one(eta) or keys != current_keys:
            report.violations.append(
                SanitizerViolation(
                    "normalization",
                    "outgoing weights are not a normalisation fixed point "
                    f"(eta={eta!r}; the leading-edge convention of "
                    "Algorithm 2/3 is violated)",
                    path,
                    node.uid,
                )
            )

    def _check_residency(
        self, node: Node, path: Tuple[int, ...], report: SanitizerReport
    ) -> None:
        manager = self.manager
        system = manager.system
        table = manager._vector_table if node.arity == VECTOR_ARITY else manager._matrix_table
        try:
            keys = tuple(system.key(child.weight) for child in node.edges)
        except Exception as error:
            report.violations.append(
                SanitizerViolation(
                    "shadow-node", f"cannot key node weights: {error}", path, node.uid
                )
            )
            return
        resident = table.resident(node.level, node.edges, keys)
        if resident is None:
            report.violations.append(
                SanitizerViolation(
                    "shadow-node",
                    "reachable node is not interned in the unique table "
                    "(constructed outside DDManager.make_node, or pruned "
                    "while still live)",
                    path,
                    node.uid,
                )
            )
        elif resident is not node:
            report.violations.append(
                SanitizerViolation(
                    "shadow-node",
                    f"reachable node duplicates unique-table resident uid "
                    f"{resident.uid} (pointer-equality canonicity is broken)",
                    path,
                    node.uid,
                )
            )

    # ------------------------------------------------------------------
    # Invariant 4: compute-table replay (sampled)
    # ------------------------------------------------------------------

    def _uid_map(self) -> Dict[int, Node]:
        manager = self.manager
        mapping: Dict[int, Node] = {}
        for table in (manager._vector_table, manager._matrix_table):
            for node in table.nodes():
                mapping[node.uid] = node
        return mapping

    def _check_memo_tables(self) -> SanitizerReport:
        report = SanitizerReport()
        if self.memo_samples <= 0:
            return report
        uid_map = self._uid_map()
        self._replay_add_cache(uid_map, report)
        self._replay_mat_vec_cache(uid_map, report)
        return report

    # ------------------------------------------------------------------
    # Root audit (delegated to the memory manager)
    # ------------------------------------------------------------------

    def _check_refcounts(self) -> SanitizerReport:
        """Check that every registered root and pin is still resident.

        Delegates to :meth:`repro.dd.mem.MemoryManager.audit`.  A
        missing root is the GC analogue of a stale memo: a sweep took a
        node that an owner still holds.  ``refcounts_checked`` counts
        the registered roots and pins audited.
        """
        report = SanitizerReport()
        memory = getattr(self.manager, "memory", None)
        if memory is None:
            return report
        report.refcounts_checked = len(memory.roots())
        report.violations.extend(memory.audit())
        return report

    def _replay_add_cache(self, uid_map: Dict[int, Node], report: SanitizerReport) -> None:
        manager = self.manager
        system = manager.system
        for key, cached in list(islice(manager._add_cache.items(), self.memo_samples)):
            try:
                if len(key) == 3:  # ratio form: (left_uid, right_uid, ratio_key)
                    left_node = uid_map.get(key[0])
                    right_node = uid_map.get(key[1])
                    if left_node is None or right_node is None:
                        continue  # entry refers to pruned nodes; unreachable
                    left = Edge(left_node, system.one)
                    right = Edge(right_node, system.value_for_key(key[2]))
                else:  # absolute form: (left_uid, left_key, right_uid, right_key)
                    left_node = uid_map.get(key[0])
                    right_node = uid_map.get(key[2])
                    if left_node is None or right_node is None:
                        continue
                    left = Edge(left_node, system.value_for_key(key[1]))
                    right = Edge(right_node, system.value_for_key(key[3]))
                # _add_children never consults the entry under test (the
                # top-level key is only written after the recursion), so
                # this is a genuine recomputation of the cached claim.
                recomputed = manager._add_children(left, right)
                report.memo_entries_checked += 1
                if not manager.edges_equal(recomputed, cached):
                    report.violations.append(
                        SanitizerViolation(
                            "stale-memo",
                            f"add-cache entry {key!r} does not replay: cached "
                            f"{cached!r}, recomputed {recomputed!r}",
                        )
                    )
            except Exception as error:
                report.violations.append(
                    SanitizerViolation(
                        "stale-memo",
                        f"add-cache entry {key!r} cannot be replayed: {error}",
                    )
                )

    def _replay_mat_vec_cache(self, uid_map: Dict[int, Node], report: SanitizerReport) -> None:
        manager = self.manager
        for key, cached in list(islice(manager._mat_vec_cache.items(), self.memo_samples)):
            try:
                matrix_node = uid_map.get(key[0])
                vector_node = uid_map.get(key[1])
                if matrix_node is None or vector_node is None:
                    continue
                # The recursion starts by probing its own key, so the
                # entry under test is taken out first and the (correct)
                # recomputation re-inserts itself.
                removed = manager._mat_vec_cache.discard(key)
                if removed is None:
                    continue
                recomputed = manager._mat_vec_nodes(matrix_node, vector_node)
                report.memo_entries_checked += 1
                if not manager.edges_equal(recomputed, removed):
                    report.violations.append(
                        SanitizerViolation(
                            "stale-memo",
                            f"mat-vec cache entry {key!r} does not replay: cached "
                            f"{removed!r}, recomputed {recomputed!r}",
                        )
                    )
            except Exception as error:
                report.violations.append(
                    SanitizerViolation(
                        "stale-memo",
                        f"mat-vec cache entry {key!r} cannot be replayed: {error}",
                    )
                )

    # ------------------------------------------------------------------
    # Invariant 5: amplitude cross-check (sampled)
    # ------------------------------------------------------------------

    def _sample_indices(self, num_qubits: int) -> List[int]:
        size = 1 << num_qubits
        indices = {0, size - 1}
        rng = random.Random(self.seed)
        wanted = min(self.amplitude_samples, size)
        while len(indices) < min(size, wanted + 2):
            indices.add(rng.randrange(size))
        return sorted(indices)

    def _raw_amplitude(self, state: Edge, index: int) -> complex:
        """Independent per-path product in plain ``complex`` arithmetic
        (never touches the number system's ``mul`` or its memos)."""
        system = self.manager.system
        value = complex(system.to_complex(state.weight))
        node = state.node
        while not node.is_terminal:
            bit = (index >> (node.level - 1)) & 1
            child = node.edges[bit]
            value *= complex(system.to_complex(child.weight))
            node = child.node
        return value

    def _check_amplitudes(self, state: Edge) -> SanitizerReport:
        manager = self.manager
        system = manager.system
        report = SanitizerReport()
        num_qubits = manager.num_qubits
        indices = self._sample_indices(num_qubits)
        dense = None
        if num_qubits <= self.max_statevector_qubits:
            try:
                dense = manager.to_statevector(state)
            except Exception as error:
                report.violations.append(
                    SanitizerViolation(
                        "amplitude-mismatch",
                        f"fresh statevector evaluation failed: {error}",
                    )
                )
                return report
        eps = float(getattr(system, "eps", 0.0))
        # eps-interning snaps every intermediate product by up to eps per
        # component; the two evaluation orders may therefore drift by a
        # multiple of eps per level.  Exact systems only see the final
        # float rounding of to_complex.
        atol = 1e-9 + 64.0 * num_qubits * eps
        for index in indices:
            try:
                got = complex(system.to_complex(manager.amplitude(state, index)))
            except Exception as error:
                report.violations.append(
                    SanitizerViolation(
                        "amplitude-mismatch",
                        f"amplitude({index}) raised: {error}",
                    )
                )
                continue
            reference = (
                complex(dense[index]) if dense is not None else self._raw_amplitude(state, index)
            )
            report.amplitudes_checked += 1
            if abs(got - reference) > atol + 1e-9 * abs(reference):
                report.violations.append(
                    SanitizerViolation(
                        "amplitude-mismatch",
                        f"basis state |{index}>: DD amplitude {got!r} vs fresh "
                        f"evaluation {reference!r} (atol {atol:g})",
                    )
                )
        return report


def sanitize_dd(
    manager: "DDManager",
    edge: Edge,
    *,
    raise_on_violation: bool = True,
    **options: Any,
) -> SanitizerReport:
    """One-shot full check of a DD (convenience wrapper).

    ``options`` are forwarded to :class:`Sanitizer` (e.g.
    ``amplitude_samples``, ``memo_samples``, ``seed``).
    """
    sanitizer = Sanitizer(manager, SanitizerMode.CHECK_ON_ROOT, **options)
    if not edge.is_terminal and edge.node.arity == VECTOR_ARITY and edge.node.level == manager.num_qubits:
        return sanitizer.check_state(edge, raise_on_violation=raise_on_violation)
    report = sanitizer.check_dd(edge, raise_on_violation=raise_on_violation)
    report.merge(sanitizer._check_memo_tables())
    if raise_on_violation and not report.ok:
        raise report.violations[0].to_error()
    return report
