"""Tests for the node lifecycle / memory-management subsystem.

Covers the :mod:`repro.dd.mem` contract: the root registry plus
reachability is the one liveness record, mark-and-sweep keeps exactly
the reachable closure, derived memo state (compute tables, weight
memos, weight tables) is invalidated or swept coherently, and the
trigger policy (threshold growth, hard budgets) behaves as documented.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.dd.edge import iter_nodes
from repro.dd.manager import (
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.dd.mem import GcStats, MemoryBudget, MemoryConfig
from repro.dd.sanitizer import Sanitizer
from repro.errors import DDError, MemoryBudgetExceeded
from repro.sim.simulator import Simulator
from tests.dd.test_gc_equivalence import NUM_QUBITS, clifford_t_circuits


def _entangled_state(manager, num_qubits=3):
    circuit = Circuit(num_qubits).h(0)
    for target in range(1, num_qubits):
        circuit.cx(target - 1, target)
    return Simulator(manager).run(circuit).state


#: The four number systems of the paper's evaluation.
LIVENESS_FACTORIES = {
    "algebraic": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
    "numeric-eps0": lambda n: numeric_manager(n, eps=0.0),
    "numeric-eps1e-10": lambda n: numeric_manager(n, eps=1e-10),
}

#: One step of a root-registry script: (kind, pool index, extra-root indices).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["inc", "inc", "dec", "pin", "collect", "grow"]),
        st.integers(min_value=0, max_value=63),
        st.lists(st.integers(min_value=0, max_value=63), max_size=3),
    ),
    min_size=1,
    max_size=16,
)


def _closure(edges):
    return {node.uid for edge in edges for node in iter_nodes(edge)}


def _resident_uids(manager):
    return {
        node.uid
        for table in (manager._vector_table, manager._matrix_table)
        for node in table.nodes()
    }


class TestRefcounts:
    """Root-registration counts: the only counts the collector keeps."""

    def test_inc_dec_roundtrip(self):
        manager = algebraic_manager(2)
        state = manager.basis_state(3)
        memory = manager.memory
        memory.inc_ref(state)
        memory.inc_ref(state)
        memory.dec_ref(state)
        assert memory.statistics()["registered_roots"] == 1
        memory.collect()
        assert state.node.uid in _resident_uids(manager)
        memory.dec_ref(state)
        assert memory.statistics()["registered_roots"] == 0
        assert memory.audit() == []

    def test_dec_ref_unregistered_raises(self):
        manager = algebraic_manager(2)
        state = manager.basis_state(0)
        with pytest.raises(DDError, match="balanced"):
            manager.memory.dec_ref(state)

    def test_audit_flags_swept_roots_and_pins(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        root = _entangled_state(manager)
        pinned = manager.basis_state(5)
        memory.inc_ref(root)
        memory.pin(pinned)
        # Bypass the collector: sweep everything, roots included.
        manager._vector_table.sweep(set())
        codes = {(v.code, v.node_uid) for v in memory.audit()}
        assert codes == {("refcount", root.node.uid), ("refcount", pinned.node.uid)}


class TestSingleLivenessRule:
    """The root registry plus reachability is the GC's only liveness
    record: after every collection the resident set is exactly the
    closure of what owners registered, pinned or passed as extra roots.

    A pool of states from random Clifford+T circuits is driven by a
    random script of registry operations; a model tracks the expected
    registrations.  Only states that were protected at every collection
    since they were built stay in the pool (anything else may have been
    swept and must not be used again).
    """

    @pytest.mark.parametrize("kind", sorted(LIVENESS_FACTORIES))
    @given(
        first=clifford_t_circuits(),
        second=clifford_t_circuits(),
        ops=_OPS,
    )
    @settings(max_examples=20, deadline=None)
    def test_resident_set_is_the_closure_of_the_roots(self, kind, first, second, ops):
        manager = LIVENESS_FACTORIES[kind](NUM_QUBITS)
        memory = manager.memory
        pool = []

        def grow(initial):
            Simulator(manager).run(
                second, initial_state=initial, step_callback=lambda _i, s: pool.append(s)
            )
            pool.append(initial)

        Simulator(manager).run(first, step_callback=lambda _i, s: pool.append(s))
        pool.append(manager.zero_state())
        registered = {}  # (node uid, weight key) -> [edge, outstanding registrations]
        pinned = {}  # id(edge) -> edge
        for kind_of_op, index, extra_indices in ops:
            edge = pool[index % len(pool)] if pool else None
            root = None if edge is None else (edge.node.uid, manager.system.key(edge.weight))
            if kind_of_op == "inc" and edge is not None:
                memory.inc_ref(edge)
                registered.setdefault(root, [edge, 0])[1] += 1
            elif kind_of_op == "dec" and edge is not None:
                entry = registered.get(root)
                if entry is None:
                    with pytest.raises(DDError, match="balanced"):
                        memory.dec_ref(edge)
                    continue
                memory.dec_ref(edge)
                entry[1] -= 1
                if entry[1] == 0:
                    del registered[root]
            elif kind_of_op == "pin" and edge is not None:
                memory.pin(edge)
                pinned[id(edge)] = edge
            elif kind_of_op == "grow" and edge is not None:
                grow(edge)
            elif kind_of_op == "collect":
                extras = [pool[i % len(pool)] for i in extra_indices] if pool else []
                memory.collect(extra_roots=extras)
                kept = [e for e, _ in registered.values()] + list(pinned.values())
                # Kernels pin their own matrix fallbacks; those are roots too.
                every_pin = list(memory._pins.values())
                assert _resident_uids(manager) == _closure(kept + extras + every_pin)
                assert memory.audit() == []
                sanitizer = Sanitizer(manager)
                for root in kept:
                    sanitizer.check_state(root)
                outstanding = {uid for uid, _ in registered}
                snapshot = manager.telemetry.metrics.snapshot()
                assert snapshot["dd.gc.registered_roots"] == len(outstanding)
                protected = {id(e) for e in kept + extras}
                pool = [e for e in pool if id(e) in protected]


class TestCollect:
    def test_collect_keeps_exactly_the_registered_closure(self, manager_factory):
        manager = manager_factory(3)
        memory = manager.memory
        live = _entangled_state(manager)
        memory.inc_ref(live)
        manager.basis_state(5)  # dead intermediate state
        before = memory.node_count
        stats = memory.collect()
        assert isinstance(stats, GcStats)
        assert stats.swept_nodes > 0
        assert stats.before_nodes == before
        assert stats.after_nodes == memory.node_count
        assert memory.audit() == []
        # The retained DD still evaluates.
        assert manager.to_statevector(live) is not None

    def test_extra_roots_survive_without_registration(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        manager.memory.collect(extra_roots=[state])
        uids = {node.uid for node in manager._vector_table.nodes()}
        assert state.node.uid in uids

    def test_pinned_edges_survive(self):
        manager = algebraic_manager(3)
        state = _entangled_state(manager)
        manager.memory.pin(state)
        manager.memory.collect()
        uids = {node.uid for node in manager._vector_table.nodes()}
        assert state.node.uid in uids
        assert manager.memory.audit() == []

    def test_collect_invalidates_compute_tables(self):
        manager = algebraic_manager(2)
        manager.add(manager.basis_state(0), manager.basis_state(3))
        assert manager.statistics()["add_cache"] > 0
        generation_before = manager._add_cache.generation
        stats = manager.memory.collect()
        assert stats.invalidated_entries > 0
        assert manager.statistics()["add_cache"] == 0
        assert manager._add_cache.generation == generation_before + 1

    def test_rebuild_after_collect_is_identical(self, manager_factory):
        manager = manager_factory(3)
        circuit = Circuit(3).h(0).cx(0, 1).t(1).cx(1, 2)
        reference = Simulator(manager).run(circuit).final_amplitudes()
        manager.memory.collect()
        rebuilt = Simulator(manager).run(circuit).final_amplitudes()
        assert reference.tobytes() == rebuilt.tobytes()


class TestWeightSweep:
    def test_dead_algebraic_weights_are_tombstoned(self):
        manager = algebraic_manager(3)
        _entangled_state(manager)  # dead: nothing registered
        table = manager.system.table
        before = table.statistics()["entries"]
        stats = manager.memory.collect()
        assert stats.swept_weights > 0
        after = table.statistics()["entries"]
        assert after == before - stats.swept_weights

    def test_zero_and_one_survive_everything(self):
        manager = algebraic_manager(2)
        manager.basis_state(3)
        manager.memory.collect()
        system = manager.system
        assert system.value_for_key(system.key(system.zero)) == system.zero
        assert system.value_for_key(system.key(system.one)) == system.one

    def test_swept_weight_id_raises_a_typed_error(self):
        from repro.rings.domega import DOmega

        manager = algebraic_gcd_manager(2)
        # A weight that is neither zero/one nor any gate-matrix entry
        # (gate-signature keys are kept live for the apply caches).
        weight = manager.system.from_domega(
            DOmega.from_coefficients(1, 1, 0, 0, 1)
        )
        dead_key = manager.system.key(weight)
        manager.memory.collect()  # nothing registered: the weight dies
        with pytest.raises(DDError, match="swept"):
            manager.system.table.value(dead_key)

    def test_tolerant_numeric_table_is_never_swept(self):
        manager = numeric_manager(3, eps=1e-10)
        _entangled_state(manager)
        table = manager.system.table
        before = len(table)
        stats = manager.memory.collect()
        assert stats.swept_weights == 0
        assert len(table) == before  # anchors all stay


class TestTriggerPolicy:
    def test_coercions(self):
        # memory= and configure() take a MemoryConfig or None (GC off);
        # the old bool/int/MemoryBudget shorthands are rejected.
        manager = algebraic_manager(2)
        memory = manager.memory
        assert memory.config.enabled is False and memory.active is False
        config = MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=9))
        memory.configure(config)
        assert memory.config is config and memory.active is True
        memory.configure(None)
        assert memory.active is False
        for shorthand in (True, 64, MemoryBudget(max_nodes=10)):
            with pytest.raises(TypeError, match="MemoryConfig"):
                memory.configure(shorthand)
            with pytest.raises(TypeError, match="MemoryConfig"):
                algebraic_manager(2, memory=shorthand)

    def test_threshold_triggers_maybe_collect(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        _entangled_state(manager)  # unregistered: fully collectable
        memory.configure(MemoryConfig(threshold=2, min_yield=0.0))
        stats = memory.maybe_collect()
        assert stats is not None and stats.trigger == "threshold"
        assert memory.statistics()["collections"] == 1

    def test_low_yield_grows_the_threshold(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        memory.collect()  # shrink to the live closure first
        live = memory.node_count
        memory.configure(MemoryConfig(threshold=max(1, live), min_yield=0.9))
        memory.maybe_collect()  # everything is live: yield ~0
        assert memory.statistics()["threshold"] == max(1, live) * 2

    def test_disabled_gc_never_collects(self):
        manager = algebraic_manager(3)
        _entangled_state(manager)
        assert manager.memory.maybe_collect() is None
        assert manager.memory.statistics()["collections"] == 0


class TestBudget:
    def test_budget_requires_a_limit(self):
        with pytest.raises(ValueError):
            MemoryBudget()

    def test_budget_failure_carries_the_numbers(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=1)))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            memory.maybe_collect()
        error = excinfo.value
        assert error.max_nodes == 1
        assert error.nodes > 1
        assert memory.statistics()["collections"] == 1  # it tried to collect first

    def test_budget_satisfied_after_collection_does_not_raise(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        _entangled_state(manager)  # all dead
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=3)))
        stats = memory.maybe_collect()
        assert stats is not None and stats.trigger == "budget"

    def test_byte_budget(self):
        manager = algebraic_manager(3)
        memory = manager.memory
        state = _entangled_state(manager)
        memory.inc_ref(state)
        assert memory.approx_bytes() > 0
        memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_bytes=1)))
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            memory.maybe_collect()
        assert excinfo.value.approx_bytes is not None


class TestSimulatorWiring:
    def test_simulator_gc_keeps_the_final_state_registered(self):
        manager = algebraic_manager(4)
        manager.memory.configure(MemoryConfig(threshold=8, min_yield=0.0))
        simulator = Simulator(manager)
        circuit = Circuit(4).h(0).cx(0, 1).t(1).cx(1, 2).cx(2, 3)
        result = simulator.run(circuit)
        memory = manager.memory
        assert memory.statistics()["collections"] > 0
        assert memory.statistics()["registered_roots"] == 1
        assert memory.audit() == []
        # The final state must still be resident and evaluable.
        assert manager.to_statevector(result.state) is not None

    def test_simulator_budget_failure_is_typed(self):
        manager = algebraic_manager(6)
        manager.memory.configure(MemoryConfig(enabled=False, budget=MemoryBudget(max_nodes=4)))
        simulator = Simulator(manager)
        circuit = Circuit(6)
        for qubit in range(6):
            circuit.h(qubit)
        circuit.cx(0, 5)
        with pytest.raises(MemoryBudgetExceeded):
            simulator.run(circuit)

    def test_manager_statistics_expose_gc_block(self):
        manager = algebraic_manager(2)
        stats = manager.statistics()["gc"]
        assert stats["enabled"] is False
        assert stats["collections"] == 0
