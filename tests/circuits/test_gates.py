"""Tests for gate definitions: exact/numeric matrix consistency."""

import cmath
import math

import numpy as np
import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import (
    GateDef,
    H,
    S,
    SDG,
    SQRT_X,
    STANDARD_GATES,
    T,
    TDG,
    X,
    Y,
    Z,
    identity_gate,
    phase_gate,
    rx_gate,
    ry_gate,
    rz_gate,
    u_gate,
)
from repro.errors import CircuitError

EXACT_GATES = [H, X, Y, Z, S, SDG, T, TDG, SQRT_X, identity_gate()]


def dense(gate):
    return np.array(gate.matrix, dtype=complex).reshape(2, 2)


class TestExactNumericConsistency:
    @pytest.mark.parametrize("gate", EXACT_GATES, ids=lambda g: g.name)
    def test_exact_matches_numeric(self, gate):
        assert gate.is_exactly_representable
        exact_dense = np.array(
            [entry.to_complex() for entry in gate.exact], dtype=complex
        ).reshape(2, 2)
        np.testing.assert_allclose(exact_dense, dense(gate), atol=1e-12)

    @pytest.mark.parametrize("gate", EXACT_GATES, ids=lambda g: g.name)
    def test_unitarity(self, gate):
        assert gate.is_unitary()

    def test_paper_example_2_matrices(self):
        omega = cmath.exp(1j * math.pi / 4)
        np.testing.assert_allclose(dense(T), np.diag([1, omega]), atol=1e-12)
        np.testing.assert_allclose(dense(S), np.diag([1, 1j]), atol=1e-12)
        np.testing.assert_allclose(dense(Z), np.diag([1, -1]), atol=1e-12)
        np.testing.assert_allclose(dense(X), np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_t_squared_is_s(self):
        np.testing.assert_allclose(dense(T) @ dense(T), dense(S), atol=1e-12)

    def test_s_squared_is_z(self):
        np.testing.assert_allclose(dense(S) @ dense(S), dense(Z), atol=1e-12)

    def test_sqrt_x_squares_to_x(self):
        np.testing.assert_allclose(dense(SQRT_X) @ dense(SQRT_X), dense(X), atol=1e-12)


class TestDagger:
    @pytest.mark.parametrize("gate", EXACT_GATES, ids=lambda g: g.name)
    def test_dagger_inverts(self, gate):
        np.testing.assert_allclose(
            dense(gate) @ dense(gate.dagger()), np.eye(2), atol=1e-12
        )

    def test_dagger_naming(self):
        assert T.dagger().name == "tdg"
        assert TDG.dagger().name == "t"
        assert H.dagger().name == "h"  # self-adjoint keeps its name
        assert X.dagger().name == "x"

    def test_dagger_preserves_exactness(self):
        assert T.dagger().is_exactly_representable
        assert rz_gate(0.3).dagger().exact is None

    def test_dagger_negates_params(self):
        assert rz_gate(0.3).dagger().params == (-0.3,)


class TestParametrisedGates:
    @pytest.mark.parametrize("theta", [0.0, 0.1, math.pi / 3, math.pi, 2 * math.pi])
    def test_rz_matrix(self, theta):
        gate = rz_gate(theta)
        expected = np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)])
        np.testing.assert_allclose(dense(gate), expected, atol=1e-12)
        assert gate.is_unitary()

    @pytest.mark.parametrize("theta", [0.1, math.pi / 5, 1.0])
    def test_rotations_unitary(self, theta):
        for factory in (rx_gate, ry_gate, rz_gate):
            assert factory(theta).is_unitary()

    def test_phase_gate_exact_on_pi_over_4_multiples(self):
        for k in range(-8, 9):
            gate = phase_gate(k * math.pi / 4)
            assert gate.is_exactly_representable
            expected = cmath.exp(1j * k * math.pi / 4)
            assert abs(gate.matrix[3] - expected) < 1e-12

    def test_phase_gate_inexact_otherwise(self):
        assert phase_gate(0.1).exact is None
        assert phase_gate(math.pi / 8).exact is None

    def test_phase_pi_over_4_equals_t(self):
        gate = phase_gate(math.pi / 4)
        assert gate.exact == T.exact

    def test_rz_never_exact(self):
        """Even RZ(pi/4) involves e^{i pi/8}, outside D[omega]."""
        assert rz_gate(math.pi / 4).exact is None

    def test_u_gate(self):
        gate = u_gate(0.3, 0.5, 0.7)
        assert gate.is_unitary()
        # U(theta, 0, 0) == RY(theta)
        np.testing.assert_allclose(
            dense(u_gate(0.4, 0.0, 0.0)), dense(ry_gate(0.4)), atol=1e-12
        )

    def test_str_forms(self):
        assert str(H) == "h"
        assert str(rz_gate(0.5)) == "rz(0.5)"


class TestRegistry:
    def test_standard_gates_complete(self):
        for name in ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx", "id"):
            assert name in STANDARD_GATES

    def test_registry_gates_exact(self):
        assert all(g.is_exactly_representable for g in STANDARD_GATES.values())


class TestNonFiniteRejected:
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("builder", [phase_gate, rx_gate, ry_gate, rz_gate])
    def test_rotation_builders(self, builder, angle):
        with pytest.raises(CircuitError):
            builder(angle)

    @pytest.mark.parametrize("angles", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan)])
    def test_u_gate(self, angles):
        with pytest.raises(CircuitError):
            u_gate(*angles)

    def test_circuit_rz(self):
        with pytest.raises(CircuitError):
            Circuit(1).rz(math.nan, 0)

    @pytest.mark.parametrize("entry", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_gate_def_matrix(self, entry):
        with pytest.raises(CircuitError):
            GateDef(name="g", matrix=(1, 0, 0, entry))

    def test_gate_def_params(self):
        with pytest.raises(CircuitError):
            GateDef(name="g", matrix=(1, 0, 0, 1), params=(math.inf,))
