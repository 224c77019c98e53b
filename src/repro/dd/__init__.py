"""QMDD decision diagrams, generic over the edge-weight number system.

Public surface:

* :class:`~repro.dd.manager.DDManager` plus the factory helpers
  :func:`~repro.dd.manager.numeric_manager`,
  :func:`~repro.dd.manager.algebraic_manager` (Q[omega], Algorithm 2) and
  :func:`~repro.dd.manager.algebraic_gcd_manager` (D[omega] GCDs,
  Algorithm 3);
* :func:`~repro.dd.gatebuild.build_gate_dd` for linear-size controlled
  gate construction;
* :func:`~repro.dd.apply.apply_gate` for direct (matrix-free) gate
  application to a state vector DD;
* :func:`~repro.dd.metrics.collect_metrics` for the paper's size /
  bit-width measurements and :func:`~repro.dd.dot.to_dot` for rendering;
* :class:`~repro.dd.sanitizer.Sanitizer` /
  :func:`~repro.dd.sanitizer.sanitize_dd` for runtime verification of
  the canonical-form invariants;
* :class:`~repro.dd.mem.MemoryManager` (every manager owns one as
  ``manager.memory``) with :class:`~repro.dd.mem.MemoryConfig` /
  :class:`~repro.dd.mem.MemoryBudget` for registered roots,
  mark-and-sweep garbage collection and hard memory budgets.
"""

from repro.dd.apply import apply_gate, prepare_gate
from repro.dd.edge import Edge, Node, TERMINAL, iter_nodes
from repro.dd.gatebuild import build_diagonal_dd, build_gate_dd
from repro.dd.manager import (
    DDManager,
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.dd.mem import GcStats, MemoryBudget, MemoryConfig, MemoryManager
from repro.dd.metrics import DDMetrics, collect_metrics, count_trivial_weights
from repro.dd.dot import to_dot
from repro.dd.serialize import dump, dumps, load, loads
from repro.dd.number_system import (
    AlgebraicGcdSystem,
    AlgebraicQOmegaSystem,
    NumberSystem,
    NumericSystem,
)
from repro.dd.sanitizer import (
    Sanitizer,
    SanitizerMode,
    SanitizerReport,
    SanitizerViolation,
    sanitize_dd,
)

__all__ = [
    "AlgebraicGcdSystem",
    "AlgebraicQOmegaSystem",
    "DDManager",
    "DDMetrics",
    "Edge",
    "GcStats",
    "MemoryBudget",
    "MemoryConfig",
    "MemoryManager",
    "Node",
    "NumberSystem",
    "NumericSystem",
    "Sanitizer",
    "SanitizerMode",
    "SanitizerReport",
    "SanitizerViolation",
    "TERMINAL",
    "algebraic_gcd_manager",
    "algebraic_manager",
    "apply_gate",
    "build_diagonal_dd",
    "build_gate_dd",
    "collect_metrics",
    "count_trivial_weights",
    "dump",
    "dumps",
    "iter_nodes",
    "load",
    "loads",
    "numeric_manager",
    "prepare_gate",
    "sanitize_dd",
    "to_dot",
]
