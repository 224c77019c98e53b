"""Tests for unique-table garbage collection (prune)."""

import pytest

from repro.circuits.circuit import Circuit
from repro.dd.manager import algebraic_manager
from repro.sim.simulator import Simulator


class TestPrune:
    def test_dead_nodes_dropped(self):
        manager = algebraic_manager(4)
        simulator = Simulator(manager)
        final = simulator.run(Circuit(4).h(0).cx(0, 1).t(1).cx(1, 2).h(3)).state
        before = manager.statistics()["vector_nodes"]
        dropped = manager.prune([final])
        after = manager.statistics()["vector_nodes"]
        assert dropped["vector_dropped"] > 0
        assert after == before - dropped["vector_dropped"]

    def test_live_root_untouched(self):
        manager = algebraic_manager(3)
        simulator = Simulator(manager)
        final = simulator.run(Circuit(3).h(0).cx(0, 1).cx(1, 2)).state
        amplitudes_before = manager.to_statevector(final)
        manager.prune([final])
        # The pruned manager must still evaluate the retained DD.
        import numpy as np

        np.testing.assert_allclose(manager.to_statevector(final), amplitudes_before)
        # And rebuilding the identical state re-uses the retained node.
        rebuilt = simulator.run(Circuit(3).h(0).cx(0, 1).cx(1, 2)).state
        assert rebuilt.node is final.node

    def test_multiple_roots(self):
        manager = algebraic_manager(2)
        a = manager.basis_state(1)
        b = manager.basis_state(2)
        manager.prune([a, b])
        assert manager.edges_equal(a, manager.basis_state(1))
        assert manager.edges_equal(b, manager.basis_state(2))

    def test_caches_cleared(self):
        manager = algebraic_manager(2)
        manager.add(manager.basis_state(0), manager.basis_state(3))
        assert manager.statistics()["add_cache"] > 0
        manager.prune([])
        assert manager.statistics()["add_cache"] == 0

    def test_prune_everything(self):
        manager = algebraic_manager(3)
        manager.basis_state(5)
        dropped = manager.prune([])
        assert manager.statistics()["vector_nodes"] == 0
        assert dropped["vector_dropped"] >= 3

