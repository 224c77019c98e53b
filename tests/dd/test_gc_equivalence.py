"""Property test: garbage collection never changes simulation results.

Hypothesis generates random Clifford+T circuits; each is simulated
twice under every number system -- once with the collector disabled and
once at the most aggressive possible trigger (threshold 1 with a zero
yield floor, i.e. a full mark-and-sweep after *every* gate, with the
weight tables swept too).  The final state must be *byte-identical*:

* exact systems (algebraic-q, algebraic-gcd, numeric eps=0) recompute
  swept structure from identical canonical operands, so every float is
  bit-equal;
* the tolerant numeric system (eps > 0) keeps all identification
  anchors alive by design (the table is never swept), so recomputed
  values snap to exactly the entries they snapped to before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.dd.manager import (
    algebraic_gcd_manager,
    algebraic_manager,
    numeric_manager,
)
from repro.dd.mem import MemoryConfig
from repro.sim.simulator import Simulator

NUM_QUBITS = 3

MANAGER_FACTORIES = {
    "algebraic-q": lambda: algebraic_manager(NUM_QUBITS),
    "algebraic-gcd": lambda: algebraic_gcd_manager(NUM_QUBITS),
    "numeric-exact": lambda: numeric_manager(NUM_QUBITS, eps=0.0),
    "numeric-tolerant": lambda: numeric_manager(NUM_QUBITS, eps=1e-10),
}

#: Collect after every single gate, weight sweep included.
AGGRESSIVE = dict(threshold=1, min_yield=0.0, sweep_weights=True)


@st.composite
def clifford_t_circuits(draw):
    """Random circuits over {H, T, S, X, Z, CX, CCX} on 3 qubits."""
    length = draw(st.integers(min_value=0, max_value=24))
    circuit = Circuit(NUM_QUBITS, name="random-gc")
    for _ in range(length):
        kind = draw(st.integers(min_value=0, max_value=6))
        qubit = draw(st.integers(min_value=0, max_value=NUM_QUBITS - 1))
        if kind == 0:
            circuit.h(qubit)
        elif kind == 1:
            circuit.t(qubit)
        elif kind == 2:
            circuit.s(qubit)
        elif kind == 3:
            circuit.x(qubit)
        elif kind == 4:
            circuit.z(qubit)
        elif kind == 5:
            other = (
                qubit + 1 + draw(st.integers(min_value=0, max_value=NUM_QUBITS - 2))
            ) % NUM_QUBITS
            circuit.cx(qubit, other)
        else:
            others = [q for q in range(NUM_QUBITS) if q != qubit]
            circuit.ccx(others[0], others[1], qubit)
    return circuit


class TestGcNeverChangesResults:
    @pytest.mark.parametrize("kind", sorted(MANAGER_FACTORIES))
    @given(circuit=clifford_t_circuits())
    @settings(max_examples=25, deadline=None)
    def test_final_state_byte_identical_under_aggressive_gc(self, kind, circuit):
        factory = MANAGER_FACTORIES[kind]
        reference = Simulator(factory()).run(circuit).final_amplitudes()

        manager = factory()
        # sweep_weights has no SimulatorConfig field: configure directly.
        manager.memory.configure(MemoryConfig(**AGGRESSIVE))
        simulator = Simulator(manager)
        collected = simulator.run(circuit).final_amplitudes()

        assert collected.tobytes() == reference.tobytes()
        # The collector must actually have run for the comparison to
        # mean anything (any non-empty circuit crosses threshold 1).
        if len(circuit) > 0:
            assert manager.memory.statistics()["collections"] > 0
        assert manager.memory.audit() == []
