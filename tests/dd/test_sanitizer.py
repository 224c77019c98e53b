"""Tests for the DD sanitizer (:mod:`repro.dd.sanitizer`).

Two halves:

* **No false positives** -- on clean random Clifford+T circuits (up to
  6 qubits, all number systems) ``check-every-op`` reports zero
  findings, both via explicit seeds (20 circuits per system, the
  acceptance matrix) and via hypothesis-generated circuits.
* **No false negatives** -- deliberately corrupted DDs (denormalised
  weight tuple, shadow duplicate node, non-interned weight instance,
  stale compute-table entry) are each caught with the expected
  ``SanitizerError`` code.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.grover import grover_circuit
from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.dd.edge import Edge, Node, TERMINAL, iter_nodes
from repro.dd.manager import numeric_manager
from repro.dd.sanitizer import Sanitizer, SanitizerMode, sanitize_dd
from repro.errors import SanitizerError
from repro.sim.simulator import Simulator

from tests.dd.conftest import MANAGER_KINDS, make_managers

SINGLE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "t", "tdg"]

EVERY_OP = SimulatorConfig(sanitize="check-every-op")
ON_ROOT = SimulatorConfig(sanitize="check-on-root")


def matrix_path_state(manager, circuit: Circuit) -> Edge:
    """Simulate through gate matrix DDs and ``mat_vec`` (no kernel)."""
    simulator = Simulator(manager)
    state = manager.zero_state()
    for operation in circuit:
        state = manager.mat_vec(simulator.gate_dd(operation), state)
    return state


def random_circuit(rng: random.Random, num_qubits: int, depth: int) -> Circuit:
    circuit = Circuit(num_qubits, name="sanitizer_random")
    for _ in range(depth):
        target = rng.randrange(num_qubits)
        if num_qubits == 1 or rng.random() < 0.6:
            getattr(circuit, rng.choice(SINGLE_QUBIT))(target)
        else:
            control = rng.choice([q for q in range(num_qubits) if q != target])
            if rng.random() < 0.3:
                circuit.append(gates.X, target, negative_controls=(control,))
            else:
                circuit.cx(control, target)
    return circuit


class TestCleanCircuits:
    """Acceptance matrix: zero findings on 20 clean circuits/system."""

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_twenty_clean_circuits_per_system(self, kind):
        for seed in range(20):
            rng = random.Random(1000 + seed)
            num_qubits = rng.randint(2, 6)
            circuit = random_circuit(rng, num_qubits, 15)
            manager = make_managers(num_qubits)[kind]
            simulator = Simulator(manager, config=EVERY_OP)
            simulator.run(circuit)  # raises SanitizerError on any finding
            assert simulator.sanitizer.total.ok

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_circuits_stay_clean(self, kind, data):
        num_qubits = data.draw(st.integers(min_value=1, max_value=6))
        depth = data.draw(st.integers(min_value=0, max_value=12))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        circuit = random_circuit(random.Random(seed), num_qubits, depth)
        manager = make_managers(num_qubits)[kind]
        simulator = Simulator(manager, config=EVERY_OP)
        result = simulator.run(circuit)
        report = simulator.sanitizer.check_state(result.state)
        assert report.ok


class TestSanitizerModes:
    def test_mode_coercion(self):
        assert SanitizerMode.coerce(None) is SanitizerMode.OFF
        assert SanitizerMode.coerce(False) is SanitizerMode.OFF
        assert SanitizerMode.coerce(True) is SanitizerMode.CHECK_ON_ROOT
        assert SanitizerMode.coerce("root") is SanitizerMode.CHECK_ON_ROOT
        assert SanitizerMode.coerce("check-every-op") is SanitizerMode.CHECK_EVERY_OP
        assert SanitizerMode.coerce(SanitizerMode.OFF) is SanitizerMode.OFF
        with pytest.raises(ValueError):
            SanitizerMode.coerce("sometimes")

    def test_simulator_off_by_default(self):
        manager = make_managers(2)["algebraic-gcd"]
        assert Simulator(manager).sanitizer is None

    def test_check_on_root_checks_final_state(self):
        manager = make_managers(2)["numeric"]
        circuit = Circuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        simulator = Simulator(manager, config=ON_ROOT)
        simulator.run(circuit)
        total = simulator.sanitizer.total
        assert total.ok and total.nodes_checked > 0 and total.amplitudes_checked > 0


class TestNumericTable:
    @pytest.mark.parametrize("eps", [1e-3, 1e-20])
    def test_snapped_weights_stay_canonical_every_op(self, eps):
        # Weights that normalisation snaps onto zero used to leave a
        # zero-weight edge on a live node ([zero-edge-form]).
        circuit = grover_circuit(5, 21)
        config = SimulatorConfig(system="numeric", eps=eps, sanitize="check-every-op")
        run(RunRequest(circuit, config))  # raises SanitizerError on any finding

    @pytest.mark.parametrize("eps", [0.0, 1e-10])
    def test_sanitizer_leaves_numeric_counters_unchanged(self, eps):
        circuit = grover_circuit(5, 21)
        counters = []
        for mode in ("off", "check-on-root"):
            config = SimulatorConfig(system="numeric", eps=eps, sanitize=mode)
            metrics = run(RunRequest(circuit, config)).metrics
            counters.append({k: v for k, v in metrics.items() if k.startswith("numeric.eps.")})
        assert counters[0] == counters[1] and len(counters[0]) == 3

    def _bucketed_weight(self, manager, state):
        table = manager.system.table
        for node in iter_nodes(state):
            for child in node.edges:
                entry = child.weight
                if entry is not table.zero and entry is not table.one:
                    return table, entry
        raise AssertionError("state has no weight besides 0 and 1")

    @pytest.mark.parametrize("structure", ["exact", "bucket"])
    def test_lost_table_slot_is_caught(self, structure):
        manager = numeric_manager(3, eps=1e-10)
        state = Simulator(manager).run(grover_circuit(3, 5)).state
        table, entry = self._bucketed_weight(manager, state)
        assert table.holds(entry)
        if structure == "exact":
            del table._exact[entry.value]
        else:
            for bucket in table._buckets.values():
                if entry in bucket:
                    bucket.remove(entry)
        assert not table.holds(entry)
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(state)
        assert excinfo.value.code == "weight-form"


class TestCorruptedDDs:
    """No false negatives: each corruption is caught with its code."""

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_denormalized_weights_caught(self, kind):
        manager = make_managers(1)[kind]
        system = manager.system
        two = system.add(system.one, system.one)
        # A hand-built node whose weight tuple (2, 1) is not a fixed
        # point of the normalisation rule (eta = 2 must factor out).
        rogue = Node(10**6, 1, (Edge(TERMINAL, two), Edge(TERMINAL, system.one)))
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(Edge(rogue, system.one))
        assert excinfo.value.code == "normalization"
        assert excinfo.value.node_uid == 10**6

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_duplicate_node_caught(self, kind):
        manager = make_managers(2)[kind]
        circuit = Circuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        state = Simulator(manager).run(circuit).state
        # A structural clone of the (interned) root node: same level,
        # same children, fresh identity -- a shadow escaping the table.
        duplicate = Node(state.node.uid + 10**6, state.node.level, state.node.edges)
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(Edge(duplicate, state.weight))
        assert excinfo.value.code == "shadow-node"

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_shadow_weight_instance_caught(self, kind):
        manager = make_managers(2)[kind]
        circuit = Circuit(2, name="plus")
        circuit.h(0)
        circuit.h(1)
        state = Simulator(manager).run(circuit).state
        weight = state.weight
        if hasattr(weight, "e"):  # Q[omega] ring element
            clone = type(weight)(weight.zeta, weight.k, weight.e)
        elif hasattr(weight, "zeta"):  # D[omega] ring element
            clone = type(weight)(weight.zeta, weight.k)
        else:  # numeric ComplexEntry
            clone = type(weight)(weight.value, weight.index)
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(Edge(state.node, clone))
        assert excinfo.value.code == "weight-form"

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_stale_mat_vec_entry_caught(self, kind):
        manager = make_managers(2)[kind]
        circuit = Circuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        # The matrix path populates the mat-vec compute table.
        state = matrix_path_state(manager, circuit)
        cache = manager._mat_vec_cache
        assert len(cache) > 0
        key, good = next(iter(cache.items()))
        wrong = manager.one_edge() if manager.is_zero_edge(good) else manager.zero_edge()
        cache.put(key, wrong)
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(state)
        assert excinfo.value.code == "stale-memo"

    @pytest.mark.parametrize("kind", ["numeric", "numeric-tolerant"])
    def test_stale_add_entry_caught(self, kind):
        manager = make_managers(3)[kind]
        circuit = grover_circuit(3, 5)
        state = matrix_path_state(manager, circuit)
        cache = manager._add_cache
        assert len(cache) > 0
        key, good = next(iter(cache.items()))
        wrong = manager.one_edge() if manager.is_zero_edge(good) else manager.zero_edge()
        cache.put(key, wrong)
        with pytest.raises(SanitizerError) as excinfo:
            manager.sanitize(state)
        assert excinfo.value.code == "stale-memo"

    def test_non_raising_report_collects_all(self):
        manager = make_managers(1)["numeric"]
        system = manager.system
        two = system.add(system.one, system.one)
        rogue = Node(10**6, 1, (Edge(TERMINAL, two), Edge(TERMINAL, system.one)))
        report = manager.sanitize(Edge(rogue, system.one), raise_on_violation=False)
        assert not report.ok
        codes = {violation.code for violation in report.violations}
        # Denormalised weights also imply the node cannot be the
        # unique-table resident for its key.
        assert "normalization" in codes and "shadow-node" in codes

    def test_error_carries_path(self):
        manager = make_managers(2)["algebraic-gcd"]
        system = manager.system
        two = system.add(system.one, system.one)
        bad_child = Node(10**6, 1, (Edge(TERMINAL, two), Edge(TERMINAL, system.one)))
        good = manager.basis_state(0)
        rogue_root = Node(
            10**6 + 1, 2, (Edge(bad_child, system.one), manager.zero_edge())
        )
        report = manager.sanitize(Edge(rogue_root, system.one), raise_on_violation=False)
        paths = {v.path for v in report.violations if v.code == "normalization"}
        assert (0,) in paths  # the bad child sits under child index 0
        assert good is not None


class TestSanitizeDDHelper:
    def test_matrix_dd_structural_check(self):
        manager = make_managers(2)["algebraic-q"]
        identity = manager.identity()
        report = sanitize_dd(manager, identity, raise_on_violation=False)
        assert report.ok and report.nodes_checked == 2

    def test_terminal_edge_is_clean(self):
        manager = make_managers(2)["numeric"]
        report = sanitize_dd(manager, manager.one_edge(), raise_on_violation=False)
        assert report.ok
