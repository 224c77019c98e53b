"""Core QMDD manager tests: construction, arithmetic, canonicity.

Every operation is cross-checked against dense numpy linear algebra on
exactly representable (D[omega]) inputs so that all three number
systems -- numeric, algebraic Q[omega] and algebraic GCD -- must agree.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd.edge import Edge
from repro.dd.manager import algebraic_manager, numeric_manager
from repro.errors import LevelMismatchError
from repro.rings.domega import DOmega

from .conftest import dense_of, import_weights, small_domegas


def random_domega_vector(draw_count, rng):
    values = []
    for _ in range(draw_count):
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        values.append(DOmega.from_coefficients(*coeffs, k=rng.randint(0, 3)))
    return values


class TestBasisStates:
    def test_zero_state_amplitudes(self, manager_factory):
        manager = manager_factory(3)
        state = manager.zero_state()
        dense = manager.to_statevector(state)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    @pytest.mark.parametrize("index", [0, 1, 5, 7])
    def test_basis_state_amplitudes(self, manager_factory, index):
        manager = manager_factory(3)
        dense = manager.to_statevector(manager.basis_state(index))
        expected = np.zeros(8, dtype=complex)
        expected[index] = 1.0
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_basis_state_node_count_linear(self, manager_factory):
        manager = manager_factory(6)
        assert manager.node_count(manager.basis_state(37)) == 6

    def test_basis_state_out_of_range(self, manager_factory):
        manager = manager_factory(2)
        with pytest.raises(ValueError):
            manager.basis_state(4)

    def test_amplitude_query_matches_dense(self, manager_factory):
        manager = manager_factory(3)
        values = [DOmega.from_coefficients(i % 3 - 1, 0, i % 2, 1, k=1) for i in range(8)]
        state = manager.vector_from_weights(import_weights(manager, values))
        dense = manager.to_statevector(state)
        for index in range(8):
            amp = manager.system.to_complex(manager.amplitude(state, index))
            assert abs(amp - dense[index]) < 1e-9


class TestVectorRoundtrip:
    @given(st.lists(small_domegas, min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_algebraic(self, values):
        manager = algebraic_manager(3)
        state = manager.vector_from_weights(import_weights(manager, values))
        np.testing.assert_allclose(
            manager.to_statevector(state), dense_of(values), atol=1e-7
        )

    @given(st.lists(small_domegas, min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_numeric(self, values):
        manager = numeric_manager(2)
        state = manager.vector_from_weights(import_weights(manager, values))
        np.testing.assert_allclose(
            manager.to_statevector(state), dense_of(values), atol=1e-9
        )

    def test_all_zero_vector_collapses(self, manager_factory):
        manager = manager_factory(3)
        zero = manager.vector_from_weights([manager.system.zero] * 8)
        assert manager.is_zero_edge(zero)
        assert manager.node_count(zero) == 0


class TestCanonicity:
    """Structurally equal DDs must be pointer-equal (paper Section II-B)."""

    def test_same_vector_same_node(self, manager_factory):
        manager = manager_factory(3)
        values = [DOmega.from_coefficients(1, 0, 0, 1), DOmega.zero()] * 4
        first = manager.vector_from_weights(import_weights(manager, values))
        second = manager.vector_from_weights(import_weights(manager, values))
        assert first.node is second.node
        assert manager.edges_equal(first, second)

    def test_scaled_vector_shares_node_algebraic(self):
        """Sub-structures differing by a scalar share nodes via weights."""
        manager = algebraic_manager(3)
        values = [DOmega.from_coefficients(0, 0, 0, n) for n in range(1, 9)]
        scaled = [value * DOmega.from_coefficients(0, 0, 1, 0) for value in values]  # * omega
        first = manager.vector_from_weights(import_weights(manager, values))
        second = manager.vector_from_weights(import_weights(manager, scaled))
        assert first.node is second.node  # only the root weight differs
        assert not manager.edges_equal(first, second)

    def test_construction_order_independent(self, manager_factory):
        manager = manager_factory(2)
        half = DOmega.one_over_sqrt2(2)
        values = import_weights(manager, [half, half, half, half])
        direct = manager.vector_from_weights(values)
        # Same state via addition of two basis-pair states.
        upper = manager.vector_from_weights(
            [values[0], values[1], manager.system.zero, manager.system.zero]
        )
        lower = manager.vector_from_weights(
            [manager.system.zero, manager.system.zero, values[2], values[3]]
        )
        combined = manager.add(upper, lower)
        assert manager.edges_equal(direct, combined)


class TestAddition:
    @given(
        st.lists(small_domegas, min_size=4, max_size=4),
        st.lists(small_domegas, min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_add_matches_dense_algebraic(self, left_values, right_values):
        manager = algebraic_manager(2)
        left = manager.vector_from_weights(import_weights(manager, left_values))
        right = manager.vector_from_weights(import_weights(manager, right_values))
        np.testing.assert_allclose(
            manager.to_statevector(manager.add(left, right)),
            dense_of(left_values) + dense_of(right_values),
            atol=1e-7,
        )

    def test_add_with_zero(self, manager_factory):
        manager = manager_factory(2)
        state = manager.basis_state(2)
        assert manager.add(state, manager.zero_edge()) is state
        assert manager.add(manager.zero_edge(), state) is state

    def test_add_commutes(self, manager_factory):
        manager = manager_factory(2)
        a = manager.basis_state(1)
        b = manager.basis_state(2)
        assert manager.edges_equal(manager.add(a, b), manager.add(b, a))

    def test_add_cancellation(self, manager_factory):
        manager = manager_factory(2)
        state = manager.basis_state(3)
        negated = manager.scale(state, manager.system.neg(manager.system.one))
        assert manager.is_zero_edge(manager.add(state, negated))

    def test_level_mismatch_raises(self):
        manager = algebraic_manager(3)
        top = manager.basis_state(0)
        sub = top.node.edges[0]  # a level-2 edge
        with pytest.raises(LevelMismatchError):
            manager.add(top, sub)


class TestMatrixOps:
    def _random_case(self, rng, n):
        manager = algebraic_manager(n)
        size = 1 << n
        matrix_values = [
            random_domega_vector(size, rng) for _ in range(size)
        ]
        vector_values = random_domega_vector(size, rng)
        matrix = manager.matrix_from_weights(
            [import_weights(manager, row) for row in matrix_values]
        )
        vector = manager.vector_from_weights(import_weights(manager, vector_values))
        dense_matrix = np.array(
            [[value.to_complex() for value in row] for row in matrix_values]
        )
        dense_vector = dense_of(vector_values)
        return manager, matrix, vector, dense_matrix, dense_vector

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mat_vec_matches_dense(self, seed):
        import random

        rng = random.Random(seed)
        manager, matrix, vector, dense_matrix, dense_vector = self._random_case(rng, 3)
        result = manager.mat_vec(matrix, vector)
        np.testing.assert_allclose(
            manager.to_statevector(result), dense_matrix @ dense_vector, atol=1e-6
        )

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_mat_mat_matches_dense(self, seed):
        import random

        rng = random.Random(seed)
        manager, matrix, _, dense_matrix, _ = self._random_case(rng, 2)
        size = 4
        other_values = [random_domega_vector(size, rng) for _ in range(size)]
        other = manager.matrix_from_weights(
            [import_weights(manager, row) for row in other_values]
        )
        dense_other = np.array([[v.to_complex() for v in row] for row in other_values])
        product = manager.mat_mat(matrix, other)
        np.testing.assert_allclose(
            manager.to_matrix(product), dense_matrix @ dense_other, atol=1e-6
        )

    def test_identity_is_neutral(self, manager_factory):
        manager = manager_factory(3)
        identity = manager.identity()
        state = manager.basis_state(5)
        assert manager.edges_equal(manager.mat_vec(identity, state), state)
        assert manager.edges_equal(manager.mat_mat(identity, identity), identity)

    def test_identity_node_count(self, manager_factory):
        manager = manager_factory(5)
        assert manager.node_count(manager.identity()) == 5

    def test_mat_vec_zero(self, manager_factory):
        manager = manager_factory(2)
        assert manager.is_zero_edge(manager.mat_vec(manager.zero_edge(), manager.basis_state(0)))
        assert manager.is_zero_edge(manager.mat_vec(manager.identity(), manager.zero_edge()))


class TestKron:
    def test_kron_of_identities(self):
        manager = algebraic_manager(4)
        two = algebraic_manager(2)
        # Build identity over two levels inside the 4-qubit manager.
        sub_identity = manager.one_edge()
        for level in (1, 2):
            sub_identity = manager.make_node(
                level, [sub_identity, manager.zero_edge(), manager.zero_edge(), sub_identity]
            )
        full = manager.kron(sub_identity, sub_identity, bottom_levels=2)
        assert manager.edges_equal(full, manager.identity())

    def test_kron_matches_dense(self):
        import random

        rng = random.Random(7)
        manager = algebraic_manager(2)
        rows_a = [random_domega_vector(2, rng) for _ in range(2)]
        rows_b = [random_domega_vector(2, rng) for _ in range(2)]
        # Build 1-level matrices inside the 2-qubit manager.
        weights_a = [[manager.system.from_domega(v) for v in row] for row in rows_a]
        weights_b = [[manager.system.from_domega(v) for v in row] for row in rows_b]
        a_edge = manager.make_node(
            1,
            [
                manager.terminal_edge(weights_a[0][0]),
                manager.terminal_edge(weights_a[0][1]),
                manager.terminal_edge(weights_a[1][0]),
                manager.terminal_edge(weights_a[1][1]),
            ],
        )
        b_edge = manager.make_node(
            1,
            [
                manager.terminal_edge(weights_b[0][0]),
                manager.terminal_edge(weights_b[0][1]),
                manager.terminal_edge(weights_b[1][0]),
                manager.terminal_edge(weights_b[1][1]),
            ],
        )
        product = manager.kron(a_edge, b_edge, bottom_levels=1)
        dense_a = np.array([[v.to_complex() for v in row] for row in rows_a])
        dense_b = np.array([[v.to_complex() for v in row] for row in rows_b])
        np.testing.assert_allclose(
            manager.to_matrix(product), np.kron(dense_a, dense_b), atol=1e-7
        )


class TestNormSquared:
    def test_norm_of_basis_state(self, manager_factory):
        manager = manager_factory(3)
        norm = manager.norm_squared(manager.basis_state(4))
        assert abs(manager.system.to_complex(norm) - 1.0) < 1e-9

    def test_norm_of_uniform_superposition(self):
        manager = algebraic_manager(2)
        half = manager.system.from_domega(DOmega.one_over_sqrt2(2))
        state = manager.vector_from_weights([half] * 4)
        assert manager.system.is_one(manager.norm_squared(state))

    def test_norm_of_zero(self, manager_factory):
        manager = manager_factory(2)
        assert manager.system.is_zero(manager.norm_squared(manager.zero_edge()))


class TestSnappedZeroWeights:
    """A nonzero child weight that normalisation snaps onto the zero
    entry (eps > 0) becomes the canonical terminal zero edge."""

    def setup_method(self):
        self.manager = numeric_manager(2, eps=1e-3)
        system = self.manager.system
        self.big = system.from_complex(1000.0)
        # 0.5 / 1000 lies within eps of zero, 0.5 itself does not.
        self.small = system.from_complex(0.5)
        assert not system.is_zero(self.small)

    def test_vector_child(self):
        manager = self.manager
        child = manager.make_node(1, [manager.one_edge(), manager.zero_edge()])
        other = manager.make_node(1, [manager.zero_edge(), manager.one_edge()])
        edge = manager.make_node(2, [Edge(child.node, self.big), Edge(other.node, self.small)])
        assert edge.node.edges[1] is manager.zero_edge()
        assert manager.sanitize(edge, raise_on_violation=False).ok

    def test_matrix_child(self):
        manager = self.manager
        block = manager.make_node(
            1, [manager.one_edge(), manager.zero_edge(), manager.zero_edge(), manager.one_edge()]
        )
        edge = manager.make_node(
            2,
            [
                Edge(block.node, self.big),
                Edge(block.node, self.small),
                manager.zero_edge(),
                Edge(block.node, self.big),
            ],
        )
        assert edge.node.edges[1] is manager.zero_edge()
        assert manager.sanitize(edge, raise_on_violation=False).ok


class TestHousekeeping:
    def test_statistics_and_cache_clear(self, manager_factory):
        manager = manager_factory(2)
        manager.add(manager.basis_state(0), manager.basis_state(3))
        stats = manager.statistics()
        assert stats["vector_nodes"] > 0
        manager.clear_caches()
        assert manager.statistics()["add_cache"] == 0

    def test_invalid_qubit_count(self):
        with pytest.raises(ValueError):
            numeric_manager(0)

    def test_vector_from_weights_size_check(self, manager_factory):
        manager = manager_factory(2)
        with pytest.raises(ValueError):
            manager.vector_from_weights([manager.system.one] * 3)
