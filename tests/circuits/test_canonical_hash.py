"""Canonical circuit/config hashing: name-independence, sensitivity,
pinned v1 digests and the safety of the memoized fast path."""

import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits import (
    Circuit,
    Operation,
    canonical_hash,
    circuit_fingerprint,
    config_fingerprint,
)
from repro.circuits import canonical
from repro.circuits.gates import STANDARD_GATES, X, Z, phase_gate, rx_gate, rz_gate


def _bell(name: str = "circuit") -> Circuit:
    return Circuit(2, name=name).h(0).cx(0, 1)


class TestNameIndependence:
    def test_display_name_does_not_change_hash(self):
        assert canonical_hash(_bell("bell")) == canonical_hash(_bell("bell (copy)"))

    def test_t_equals_phase_pi_over_4(self):
        # T and p(pi/4) apply the same exact unitary; the evalsuite
        # drivers used to treat them as different circuits by name.
        assert canonical_hash(Circuit(1).t(0)) == canonical_hash(
            Circuit(1).p(math.pi / 4, 0)
        )

    def test_sdg_equals_phase_minus_pi_over_2(self):
        assert canonical_hash(Circuit(1).sdg(0)) == canonical_hash(
            Circuit(1).p(-math.pi / 2, 0)
        )

    def test_control_order_is_normalised(self):
        first = Circuit(3).mcx([0, 1], 2)
        second = Circuit(3).mcx([1, 0], 2)
        assert canonical_hash(first) == canonical_hash(second)


class TestSensitivity:
    def test_different_gates_differ(self):
        assert canonical_hash(Circuit(1).x(0)) != canonical_hash(Circuit(1).z(0))

    def test_different_targets_differ(self):
        assert canonical_hash(Circuit(2).x(0)) != canonical_hash(Circuit(2).x(1))

    def test_gate_order_matters(self):
        assert canonical_hash(Circuit(1).h(0).t(0)) != canonical_hash(
            Circuit(1).t(0).h(0)
        )

    def test_width_matters(self):
        assert canonical_hash(Circuit(2).x(0)) != canonical_hash(Circuit(3).x(0))

    def test_numeric_angles_distinguished_at_float_resolution(self):
        assert canonical_hash(Circuit(1).rz(0.1, 0)) != canonical_hash(
            Circuit(1).rz(0.1000000001, 0)
        )

    def test_inverse_pairs_differ(self):
        assert canonical_hash(Circuit(1).t(0)) != canonical_hash(Circuit(1).tdg(0))


class TestConfigFingerprint:
    def test_config_changes_hash(self):
        circuit = _bell()
        exact = SimulatorConfig(system="algebraic")
        lossy = SimulatorConfig(system="numeric", eps=1e-5)
        assert canonical_hash(circuit, exact) != canonical_hash(circuit, lossy)

    def test_every_semantic_field_is_hashed(self):
        circuit = _bell()
        base = SimulatorConfig()
        variants = [
            SimulatorConfig(system="numeric"),
            SimulatorConfig(system="numeric", eps=1e-10),
            SimulatorConfig(system="numeric", normalization="max-magnitude"),
            SimulatorConfig(system="numeric", precision="single"),
            SimulatorConfig(sanitize="check-on-root"),
            SimulatorConfig(gc=512),
            SimulatorConfig(gc=512, gc_min_yield=0.5),
            SimulatorConfig(max_nodes=10_000),
            SimulatorConfig(max_bytes=1 << 20),
            SimulatorConfig(record_bit_widths=True),
        ]
        hashes = {canonical_hash(circuit, config) for config in [base, *variants]}
        assert len(hashes) == len(variants) + 1

    def test_telemetry_mode_is_invisible(self):
        # Observability never changes results, so it must not split
        # cache entries.
        circuit = _bell()
        assert canonical_hash(circuit, SimulatorConfig(telemetry="off")) == (
            canonical_hash(circuit, SimulatorConfig(telemetry="tracing"))
        )

    def test_none_config_is_distinct_from_default(self):
        circuit = _bell()
        assert canonical_hash(circuit) != canonical_hash(circuit, SimulatorConfig())
        assert config_fingerprint(None) == ("none",)


class TestRoundTrip:
    def test_fingerprint_is_stable_across_calls(self):
        circuit = _bell()
        assert circuit_fingerprint(circuit) == circuit_fingerprint(circuit)
        assert canonical_hash(circuit) == canonical_hash(circuit)

    @pytest.mark.parametrize("system", ["algebraic", "algebraic-gcd", "numeric"])
    def test_equal_hash_implies_equal_payload(self, system):
        # The property the serve cache relies on: same canonical hash,
        # same serialized result -- even across gate spellings.
        config = SimulatorConfig(system=system)
        spelled_t = Circuit(2, name="with-t").h(0).t(0).cx(0, 1)
        spelled_p = Circuit(2, name="with-p").h(0).p(math.pi / 4, 0).cx(0, 1)
        assert canonical_hash(spelled_t, config) == canonical_hash(spelled_p, config)
        first = run(RunRequest(spelled_t, config))
        second = run(RunRequest(spelled_p, config))
        assert first.state_payload == second.state_payload
        assert first.node_count == second.node_count


class TestEvalsuiteIdentity:
    def test_tradeoff_records_circuit_hash(self):
        from repro.evalsuite.tradeoff import run_tradeoff

        circuit = _bell("tradeoff-bell")
        result = run_tradeoff(
            circuit, epsilons=(0.0,), include_gcd=False, compute_errors=False
        )
        assert result.circuit_hash == canonical_hash(circuit)
        # Identity survives a display rename; the old name-keyed
        # matching would have broken here.
        assert result.circuit_hash == canonical_hash(_bell("renamed"))


def _reference_hash(circuit, config=None):
    """The v1 specification the memoized fast path must reproduce."""
    text = repr(circuit_fingerprint(circuit)) + "|" + repr(config_fingerprint(config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned_circuits():
    return {
        "empty": Circuit(3),
        "one_op": Circuit(1).x(0),
        "unsorted_controls": Circuit(5)
        .append(X, 2, controls=(4, 0, 3), negative_controls=(1,))
        .append(Z, 0, controls=(3, 1), negative_controls=(4, 2)),
        "exact_and_numeric": Circuit(2)
        .h(0)
        .t(1)
        .cx(0, 1)
        .rz(0.1, 1)
        .p(math.pi / 4, 0),
    }


_PINNED_CONFIGS = {
    "none": None,
    "default": SimulatorConfig(),
    "numeric_eps": SimulatorConfig(system="numeric", eps=1e-10),
}

#: sha256 digests of the v1 format, computed before the memoized fast
#: path existed.  A change here invalidates every persisted cache key.
_PINNED_DIGESTS = {
    ("empty", "none"): "7b4768f22342e4e8c56f0f384667501da437e867bd48214823a822c22e514425",
    ("empty", "default"): "8cf151288f7ebbfe4a88a80584bed982b0edf476bbd7ed669ac2d59c12162955",
    ("empty", "numeric_eps"): "f1e7f155d4aafdf66038e6f8949a1563db2ad5432f539403c53311a9b060d6ea",
    ("one_op", "none"): "873d6afce3bfd07f7344c6f24ef5bd297f4f14bd919dd8fefc5c2af6ded53fc2",
    ("one_op", "default"): "ade6e68da2f178ff0517552b0e5820e531e953b95da74d235dfb98e177e27b35",
    ("one_op", "numeric_eps"): "ecbee77eaf40b3de26d615dff10d7d09317b272273dc24d677edb651274cb310",
    ("unsorted_controls", "none"): "022e4462ff65c2e0f374ca49cd41a45c45c77d0fc1c7d6741c81aa6b88892d0b",
    ("unsorted_controls", "default"): "d2c5e8bc90d5949b2ea49ef67be98445ff5419ef38ea46d4dc440da1eceb602d",
    ("unsorted_controls", "numeric_eps"): "feda2c1eb6b81e0f3ba713e65944d978b01b81b5adc369af7faa983058605935",
    ("exact_and_numeric", "none"): "130d466ba52679dbb85794ef765c423cf8473945b3dee8345e346be81ec88795",
    ("exact_and_numeric", "default"): "f4fa1a07cf6983ab4050bf939b96e728242455181cefbb7b0b03848fb869b4d2",
    ("exact_and_numeric", "numeric_eps"): "4b9f9c47204aa5e3d2941aa9fe1faf6d669ade699f038dae619bc3e9484f1bc1",
}


class TestPinnedDigests:
    def test_format_version_is_one(self):
        assert canonical._VERSION == 1

    @pytest.mark.parametrize("case,config_name", sorted(_PINNED_DIGESTS))
    def test_v1_digest(self, case, config_name):
        circuit = _pinned_circuits()[case]
        config = _PINNED_CONFIGS[config_name]
        expected = _PINNED_DIGESTS[(case, config_name)]
        # Twice: the second call runs entirely from the memos.
        assert canonical_hash(circuit, config) == expected
        assert canonical_hash(circuit, config) == expected
        assert _reference_hash(circuit, config) == expected


_GATE_POOL = list(STANDARD_GATES.values()) + [
    phase_gate(math.pi / 4),
    phase_gate(-math.pi / 2),
    phase_gate(0.3),
    rz_gate(0.1),
    rx_gate(1e-12),
]

_CONFIG_POOL = [
    None,
    SimulatorConfig(),
    SimulatorConfig(system="algebraic-gcd"),
    SimulatorConfig(system="numeric", eps=1e-10),
    SimulatorConfig(system="numeric", eps=0),
    SimulatorConfig(gc=64, gc_min_yield=1),
]


@st.composite
def _circuits(draw):
    """Random circuits over exact and numeric gates with shuffled
    positive and negative control sets."""
    num_qubits = draw(st.integers(min_value=1, max_value=5))
    circuit = Circuit(num_qubits, name=draw(st.sampled_from(["a", "b"])))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        qubits = draw(st.permutations(range(num_qubits)))
        controls = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        negative = draw(st.integers(min_value=0, max_value=num_qubits - 1 - controls))
        circuit.append(
            draw(st.sampled_from(_GATE_POOL)),
            qubits[0],
            controls=qubits[1 : 1 + controls],
            negative_controls=qubits[1 + controls : 1 + controls + negative],
        )
    return circuit


class TestMemoizedPathMatchesSpecification:
    @settings(max_examples=200, deadline=None)
    @given(circuit=_circuits(), config=st.sampled_from(_CONFIG_POOL))
    def test_differential_against_reference(self, circuit, config):
        assert canonical_hash(circuit, config) == _reference_hash(circuit, config)
        assert canonical_hash(circuit, config) == _reference_hash(circuit, config)

    def test_mutation_routes_rehash_like_the_reference(self):
        circuit = Circuit(3).h(0).cx(0, 1)
        seen = {canonical_hash(circuit)}

        def check(candidate):
            digest = canonical_hash(candidate)
            assert digest == _reference_hash(candidate)
            assert digest not in seen
            seen.add(digest)

        circuit.append(X, 2, controls=(1, 0))
        check(circuit)
        circuit.extend(Circuit(3).t(2))
        check(circuit)
        circuit.operations[0] = Operation(Z, 0)
        check(circuit)
        circuit.operations = [Operation(X, 1, (2,))]
        check(circuit)
        check(circuit + Circuit(3).s(1))
        check((Circuit(3).t(0).cx(0, 2)).inverse())

    def test_replaced_gate_cannot_return_stale_text(self, monkeypatch):
        # Simulate a recycled id: the memo holds another gate under the
        # new gate's id.  The identity check must reject that entry.
        monkeypatch.setattr(canonical, "_GATE_TEXTS", {})
        monkeypatch.setattr(canonical, "_OPERATION_TEXTS", {})
        stale = rz_gate(0.5)
        fresh = rz_gate(0.25)
        canonical._GATE_TEXTS[id(fresh)] = (stale, repr(canonical._gate_identity(stale)))
        circuit = Circuit(1).append(fresh, 0)
        assert canonical_hash(circuit) == _reference_hash(circuit)
        assert canonical_hash(circuit) != canonical_hash(Circuit(1).append(stale, 0))

    def test_freed_gates_do_not_alias(self):
        digests = set()
        for step in range(50):
            # Each gate dies with its circuit; CPython readily reuses
            # the freed address for the next one.
            circuit = Circuit(1).append(rz_gate(0.01 * step), 0)
            digest = canonical_hash(circuit)
            assert digest == _reference_hash(circuit)
            digests.add(digest)
        assert len(digests) == 50

    def test_memos_stay_within_their_caps(self, monkeypatch):
        monkeypatch.setattr(canonical, "_GATE_TEXTS", {})
        monkeypatch.setattr(canonical, "_OPERATION_TEXTS", {})
        monkeypatch.setattr(canonical, "_GATE_MEMO_CAP", 4)
        monkeypatch.setattr(canonical, "_OPERATION_MEMO_CAP", 8)
        circuit = Circuit(3)
        for step in range(30):
            circuit.append(rz_gate(0.1 * step), step % 3, controls=((step + 1) % 3,))
            assert canonical_hash(circuit) == _reference_hash(circuit)
            assert len(canonical._GATE_TEXTS) <= 4
            assert len(canonical._OPERATION_TEXTS) <= 8

    def test_unhashable_operands_fall_back_to_the_specification(self):
        circuit = Circuit(3)
        circuit.operations.append(Operation(X, 2, [1, 0], []))
        assert canonical_hash(circuit) == _reference_hash(circuit)
        assert canonical_hash(circuit) == canonical_hash(Circuit(3).mcx([0, 1], 2))

    def test_integer_like_qubit_indices_hash_as_ints(self):
        # Equal indices share one operation memo entry, so they must
        # share one text whichever spelling reached the memo first.
        import numpy as np

        spelled = [
            Circuit(3).append(X, np.int64(1), controls=(np.int64(2),)),
            Circuit(3).append(X, 1, controls=(2,)),
            Circuit(3).append(X, True, controls=(2,)),
        ]
        digests = {canonical_hash(circuit) for circuit in spelled}
        assert digests == {_reference_hash(circuit) for circuit in spelled}
        assert len(digests) == 1

    def test_hashing_leaves_nothing_on_pickled_objects(self):
        circuit = Circuit(3, name="pickled").h(0).cx(0, 1).rz(0.2, 2)
        request = RunRequest(circuit, SimulatorConfig(), label="job")
        before = (pickle.dumps(circuit), pickle.dumps(request))
        canonical_hash(circuit, request.config)
        assert (pickle.dumps(circuit), pickle.dumps(request)) == before
        assert canonical_hash(pickle.loads(before[0])) == canonical_hash(circuit)


class TestConfigAliasing:
    def test_int_and_float_eps_share_a_key(self):
        circuit = _bell()
        as_int = SimulatorConfig(system="numeric", eps=0)
        as_float = SimulatorConfig(system="numeric", eps=0.0)
        assert as_int == as_float
        assert canonical_hash(circuit, as_int) == canonical_hash(circuit, as_float)

    def test_int_gc_min_yield_shares_a_key(self):
        as_int = SimulatorConfig(gc=64, gc_min_yield=1)
        as_float = SimulatorConfig(gc=64, gc_min_yield=1.0)
        assert as_int == as_float
        assert config_fingerprint(as_int) == config_fingerprint(as_float)

    def test_int_valued_fields_stay_ints(self):
        fields = dict(config_fingerprint(SimulatorConfig(max_nodes=1000)))
        assert fields["max_nodes"] == 1000
        assert fields["record_bit_widths"] is False

    def test_retired_kernel_switch_keeps_its_v1_pair(self):
        # v1 hashed use_apply_kernel; the kernel is now unconditional,
        # and the constant pair keeps every pinned digest valid.
        assert config_fingerprint(SimulatorConfig())[-1] == ("use_apply_kernel", True)
