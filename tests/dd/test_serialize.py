"""Tests for lossless DD serialisation."""

import json

import numpy as np
import pytest

from repro.algorithms.grover import grover_circuit
from repro.circuits.circuit import Circuit
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.dd.serialize import dump, dumps, load, loads
from repro.errors import DDError
from repro.sim.simulator import Simulator


class TestVectorRoundtrip:
    def test_algebraic_bit_exact(self):
        manager = algebraic_manager(4)
        state = Simulator(manager).run(grover_circuit(4, 9, iterations=2)).state
        text = dumps(manager, state)
        fresh = algebraic_manager(4)
        restored = loads(fresh, text)
        # Exact equality of every amplitude in the ring.
        for index in range(16):
            assert fresh.amplitude(restored, index) == manager.amplitude(state, index)

    def test_reload_into_same_manager_gives_same_node(self):
        manager = algebraic_manager(3)
        state = Simulator(manager).run(Circuit(3).h(0).t(0).cx(0, 1)).state
        restored = loads(manager, dumps(manager, state))
        assert manager.edges_equal(restored, state)
        assert restored.node is state.node  # canonical re-interning

    def test_gcd_system_roundtrip(self):
        manager = algebraic_gcd_manager(3)
        state = Simulator(manager).run(Circuit(3).h(0).cx(0, 1).t(2)).state
        fresh = algebraic_gcd_manager(3)
        restored = loads(fresh, dumps(manager, state))
        np.testing.assert_allclose(
            fresh.to_statevector(restored), manager.to_statevector(state), atol=1e-12
        )

    def test_numeric_roundtrip(self):
        manager = numeric_manager(3, eps=1e-10)
        state = Simulator(manager).run(Circuit(3).h(0).t(1).cx(1, 2)).state
        fresh = numeric_manager(3, eps=1e-10)
        restored = loads(fresh, dumps(manager, state))
        np.testing.assert_allclose(
            fresh.to_statevector(restored), manager.to_statevector(state), atol=1e-12
        )

    def test_zero_and_terminal_edges(self):
        manager = algebraic_manager(2)
        zero = manager.zero_edge()
        assert manager.is_zero_edge(loads(manager, dumps(manager, zero)))
        one = manager.one_edge()
        restored = loads(manager, dumps(manager, one))
        assert manager.system.is_one(restored.weight)


class TestMatrixRoundtrip:
    def test_unitary_roundtrip(self):
        manager = algebraic_manager(3)
        unitary = Simulator(manager).unitary(Circuit(3).h(0).ccx(0, 1, 2).t(1))
        fresh = algebraic_manager(3)
        restored = loads(fresh, dumps(manager, unitary))
        np.testing.assert_allclose(
            fresh.to_matrix(restored), manager.to_matrix(unitary), atol=1e-12
        )

    def test_identity_roundtrip_structural(self):
        manager = algebraic_manager(4)
        restored = loads(manager, dumps(manager, manager.identity()))
        assert manager.edges_equal(restored, manager.identity())


class TestFileIO:
    def test_dump_and_load(self, tmp_path):
        manager = algebraic_manager(2)
        state = Simulator(manager).run(Circuit(2).h(0).cx(0, 1)).state
        path = tmp_path / "bell.qmdd.json"
        dump(manager, state, str(path))
        restored = load(manager, str(path))
        assert manager.edges_equal(restored, state)


class TestValidation:
    def test_system_mismatch(self):
        manager = algebraic_manager(2)
        text = dumps(manager, manager.basis_state(0))
        with pytest.raises(DDError):
            loads(numeric_manager(2), text)

    def test_width_mismatch(self):
        manager = algebraic_manager(2)
        text = dumps(manager, manager.basis_state(0))
        with pytest.raises(DDError):
            loads(algebraic_manager(3), text)

    def test_bad_format_version(self):
        manager = algebraic_manager(2)
        with pytest.raises(DDError):
            loads(manager, '{"format": 99}')

    @pytest.mark.parametrize(
        "factory, weight",
        [
            (algebraic_gcd_manager, [True, 0, 0, 0, 0]),
            (algebraic_gcd_manager, [1, 0, 0, 0, False]),
            (algebraic_manager, [1, 0, 0, 0, 0, True]),
        ],
    )
    def test_bool_weight_rejected(self, factory, weight):
        # JSON true would load as the coefficient 1 and re-dump as true:
        # equal values with different payload bytes.
        manager = factory(1)
        document = json.loads(dumps(manager, manager.basis_state(0)))
        document["root"]["weight"] = weight
        with pytest.raises(DDError):
            loads(manager, json.dumps(document))

    @pytest.mark.parametrize(
        "factory, weight",
        [
            (algebraic_gcd_manager, ["x", 0, 0, 0, 0]),
            (algebraic_gcd_manager, [1.0, 0, 0, 0, 0]),
            (algebraic_gcd_manager, [1, 0, 0]),
            (algebraic_gcd_manager, 1),
            (algebraic_manager, [1, 0, 0, 0, 0]),
            (algebraic_manager, [1, 0, 0, 0, 0, 0]),
        ],
    )
    def test_malformed_weight_raises_dd_error(self, factory, weight):
        manager = factory(1)
        document = json.loads(dumps(manager, manager.basis_state(0)))
        document["nodes"][0]["children"][0]["weight"] = weight
        with pytest.raises(DDError):
            loads(manager, json.dumps(document))

    @pytest.mark.parametrize("eps", [0.0, 1e-10])
    @pytest.mark.parametrize(
        "weight",
        [
            ["a", 1],
            [1.0],
            [1.0, 0.0, 0.0],
            "x",
            1.0,
            None,
            [True, False],
            [1.0, True],
            [None, 0.0],
            [[1.0], 0.0],
            [float("nan"), 0.0],
            [0.0, float("inf")],
            [10**400, 0],
        ],
    )
    def test_malformed_numeric_weight_raises_dd_error(self, eps, weight):
        manager = numeric_manager(1, eps=eps)
        document = json.loads(dumps(manager, manager.basis_state(0)))
        document["nodes"][0]["children"][0]["weight"] = weight
        with pytest.raises(DDError):
            loads(manager, json.dumps(document))

    @pytest.mark.parametrize("weight", [[1, 0], [1.0, 0.0], [0.5, -0.25]])
    def test_numeric_weight_accepts_json_numbers(self, weight):
        manager = numeric_manager(1)
        document = json.loads(dumps(manager, manager.basis_state(0)))
        document["root"]["weight"] = weight
        restored = loads(manager, json.dumps(document))
        assert manager.system.to_complex(restored.weight) == complex(*weight)

    def test_huge_coefficients_survive(self):
        """GSE-scale bit-widths (hundreds of bits) serialise exactly --
        JSON integers are arbitrary precision in Python."""
        from repro.rings.qomega import QOmega
        from repro.rings.zomega import ZOmega

        manager = algebraic_manager(1)
        big = QOmega(ZOmega(3**100, -(2**200), 5**80, 7**70), 41, 3**60)
        state = manager.vector_from_weights([manager.system.one, big])
        restored = loads(manager, dumps(manager, state))
        assert manager.edges_equal(restored, state)


def _serialize_in_subprocess(system: str) -> str:
    """Simulate + serialize inside a worker process; return the document."""
    import multiprocessing

    with multiprocessing.Pool(1) as pool:
        return pool.apply(_subprocess_payload, (system,))


def _subprocess_payload(system: str) -> str:
    factory = {
        "algebraic": algebraic_manager,
        "algebraic-gcd": algebraic_gcd_manager,
    }.get(system)
    manager = factory(3) if factory else numeric_manager(3, eps=1e-10)
    circuit = Circuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.t(1)
    circuit.cx(1, 2)
    state = Simulator(manager).run(circuit).state
    return dumps(manager, state)


class TestCrossProcess:
    """Documents serialized in one process must load in another.

    The format references no weight-table ids or process-local state;
    ``loads`` re-interns everything through the destination manager's
    own unique/weight tables.  This is the transport contract of the
    batch-execution engine (repro.exec).
    """

    @pytest.mark.parametrize("system", ["algebraic", "algebraic-gcd", "numeric"])
    def test_subprocess_document_loads_in_parent(self, system):
        payload = _serialize_in_subprocess(system)
        factory = {
            "algebraic": algebraic_manager,
            "algebraic-gcd": algebraic_gcd_manager,
        }.get(system)
        manager = factory(3) if factory else numeric_manager(3, eps=1e-10)
        restored = loads(manager, payload)
        # The parent-side document of the same simulation is identical.
        circuit = Circuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(1)
        circuit.cx(1, 2)
        local = Simulator(manager).run(circuit).state
        assert manager.edges_equal(restored, local)
        assert dumps(manager, restored) == payload
