"""Final-state payloads of the exact systems are pinned byte for byte.

The ring layer's fast paths (trusted constructors, int-quadruple
kernels, the tuple Euclidean loop, fused ``Q[omega]`` division) must
not change a single canonical weight.  Canonical forms are unique, so
any wrong fast path shows up as a different serialized final state.
The digests below were computed with the reference implementation
(every ring result built through the validating constructors) and
must never be regenerated to make this test pass.
"""

import hashlib
import random

import pytest

from repro.algorithms.grover import grover_circuit
from repro.algorithms.gse import gse_circuit
from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits import gates
from repro.circuits.circuit import Circuit

SINGLE_QUBIT = ["h", "s", "sdg", "t", "tdg", "x", "y", "z"]


def random_clifford_t(seed: int, num_qubits: int, depth: int) -> Circuit:
    """A seeded Clifford+T circuit, T-heavy so coefficients grow."""
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name=f"random_ct_{seed}")
    for _ in range(depth):
        target = rng.randrange(num_qubits)
        if rng.random() < 0.7:
            getattr(circuit, rng.choice(SINGLE_QUBIT))(target)
        else:
            others = [qubit for qubit in range(num_qubits) if qubit != target]
            rng.shuffle(others)
            controls = tuple(others[: rng.randint(1, 2)])
            gate = gates.X if rng.random() < 0.6 else gates.Z
            circuit.append(gate, target, controls=controls)
    return circuit


CIRCUITS = {
    "random_ct_4q": lambda: random_clifford_t(7, 4, 160),
    "random_ct_5q": lambda: random_clifford_t(19, 5, 400),
    "grover_5q": lambda: grover_circuit(5, 11),
    "gse_2s_2b": lambda: gse_circuit(num_sites=2, precision_bits=2, max_words=500),
}

DIGESTS = {
    ("random_ct_4q", "algebraic"): (
        "299a806b4abfe7bf26bce93f955a3c69"
        "67cdc6300bfb538ae68b0584580553ab"
    ),
    ("random_ct_4q", "algebraic-gcd"): (
        "b723db001f473a2aa628ee70ba4a651d"
        "589ba7d2d086343e8c61f059ad7d9bfd"
    ),
    ("random_ct_5q", "algebraic"): (
        "55a3cc83b5028dd7f357925b31149581"
        "89070385f56f87a79e57e80738ebec4c"
    ),
    ("random_ct_5q", "algebraic-gcd"): (
        "4ac24f92aea16447296d7208892e03ab"
        "f04bf0606d1a6b429186e0e42d9fa4af"
    ),
    ("grover_5q", "algebraic"): (
        "ca66fba3365e8747aa56f352096ef845"
        "b08e6899ef8551e58c6a4999eaf12968"
    ),
    ("grover_5q", "algebraic-gcd"): (
        "2051a8fec09933c6e348b11c8d4bba6c"
        "9134f74b92045e688bca7911ec738253"
    ),
    ("gse_2s_2b", "algebraic"): (
        "bf51b6f18d292c192a1c6cb350149412"
        "d29f4840628a0c646bfa909f65ceb960"
    ),
    ("gse_2s_2b", "algebraic-gcd"): (
        "b190e7eb06ba18c42e8d16e093542b1f"
        "841f39758246178cdd271c1a01d9692e"
    ),
}


def payload_digest(circuit_name: str, system: str) -> str:
    request = RunRequest(CIRCUITS[circuit_name](), SimulatorConfig(system=system))
    return hashlib.sha256(run(request).state_payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("circuit_name, system", sorted(DIGESTS))
def test_final_state_payload_is_pinned(circuit_name, system):
    assert payload_digest(circuit_name, system) == DIGESTS[(circuit_name, system)]
