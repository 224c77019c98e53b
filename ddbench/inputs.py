"""Seeded inputs for the benchmark workloads, plus the small statistics helpers.

Everything the program under test receives is generated here from the
``--seed`` argument: the GSE Hamiltonian (and so the compiled Clifford+T
circuit), the service's key set, its Zipf-skewed request stream and the
Poisson arrival schedule.  The same seed gives the same inputs in every
process (``random.Random`` seeded with a string hashes it with SHA-512,
so ``PYTHONHASHSEED`` plays no part).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.algorithms import (
    DiagonalHamiltonian,
    bwt_circuit,
    default_hamiltonian,
    grover_circuit,
    gse_circuit,
)
from repro.api import RunRequest, SimulatorConfig
from repro.circuits.circuit import Circuit
from repro.circuits.gates import phase_gate
from repro.evalsuite.tradeoff import DEFAULT_EPSILONS

#: The seed whose payload digests are committed in ``golden.json``.
DEFAULT_SEED = 1

# -- GSE (paper Fig. 5 size, as in benchmarks/bench_fig5_gse.py) -------------

GSE_SITES, GSE_BITS, GSE_WORDS = 2, 3, 4000
#: Relative jitter applied to each coefficient of ``default_hamiltonian``:
#: the seed draws Hamiltonians near the paper's instance.  Even 1% changes
#: most of the compiled Clifford+T words, while exact-arithmetic work per
#: gate stays within a few percent of the instance's.  Wider draws move a
#: single circuit's exact cost by 2x, which no run length here averages out.
GSE_JITTER = 0.01
#: The stated input size: a draw is kept when its compiled circuit has
#: this many gates (about two thirds of all draws do).
GSE_GATE_WINDOW = (1300, 1480)
GSE_MAX_DRAWS = 50
#: Circuits per pass; a pass over several draws averages their costs.
GSE_CIRCUITS = 2
EPSILONS: Tuple[float, ...] = tuple(DEFAULT_EPSILONS)
EXACT_SYSTEMS: Tuple[str, ...] = ("algebraic", "algebraic-gcd")

# -- Service stream ----------------------------------------------------------

GROVER_QUBITS = (6, 7, 8, 9)
BWT_DEPTH = 2
BWT_STEPS = (3, 4, 5, 6)
#: Circuit variants per (family, size): marked elements or walk seeds.
INSTANCES = 16
SERVE_CONFIGS: Tuple[SimulatorConfig, ...] = (
    SimulatorConfig(system="algebraic"),
    SimulatorConfig(system="algebraic-gcd"),
    SimulatorConfig(system="numeric", eps=1e-10),
)
#: Zipf exponent over the instances of one stratum.
ZIPF_S = 2.5
#: Share of requests whose circuit is re-spelled (renamed, or ``z``
#: written as ``p(pi)``) so that a hit depends on canonical hashing.
RESPELL_SHARE = 0.25


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank ``fraction``-quantile (``fraction`` in (0, 1])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def zipf_cdf(count: int, exponent: float) -> List[float]:
    """Cumulative probabilities of ranks ``0 .. count-1`` under Zipf."""
    weights = [(rank + 1) ** -exponent for rank in range(count)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def zipf_rank(point: float, cdf: Sequence[float]) -> int:
    """The rank whose cumulative band holds ``point`` (in [0, 1))."""
    return bisect.bisect_left(cdf, point)


def fingerprint(items: Sequence[object]) -> str:
    """A short sha256 over the ``repr`` of generated inputs."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# GSE
# ---------------------------------------------------------------------------


@dataclass
class GseInput:
    hamiltonian: DiagonalHamiltonian
    circuit: Circuit


def draw_hamiltonian(rng: random.Random) -> DiagonalHamiltonian:
    base = default_hamiltonian(GSE_SITES)
    fields = tuple(
        value * rng.uniform(1 - GSE_JITTER, 1 + GSE_JITTER) for value in base.fields
    )
    couplings = tuple(
        (i, j, value * rng.uniform(1 - GSE_JITTER, 1 + GSE_JITTER))
        for i, j, value in base.couplings
    )
    return DiagonalHamiltonian(GSE_SITES, fields, couplings)


def gse_inputs(seed: int, builder=gse_circuit) -> List[GseInput]:
    """The first ``GSE_CIRCUITS`` seeded draws of the stated size."""
    rng = random.Random(f"gse:{seed}")
    low, high = GSE_GATE_WINDOW
    drawn: List[GseInput] = []
    for _ in range(GSE_MAX_DRAWS):
        hamiltonian = draw_hamiltonian(rng)
        circuit = builder(
            num_sites=GSE_SITES,
            precision_bits=GSE_BITS,
            hamiltonian=hamiltonian,
            max_words=GSE_WORDS,
        )
        if low <= len(circuit) <= high:
            drawn.append(GseInput(hamiltonian, circuit))
            if len(drawn) == GSE_CIRCUITS:
                return drawn
    raise RuntimeError(f"too few GSE draws of seed {seed} have {low}-{high} gates")


def gse_configs(workload: str) -> List[SimulatorConfig]:
    if workload == "gse_exact":
        return [SimulatorConfig(system=system) for system in EXACT_SYSTEMS]
    return [SimulatorConfig(system="numeric", eps=eps) for eps in EPSILONS]


# ---------------------------------------------------------------------------
# Service stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One (circuit family, size) pair with its seeded instance parameters."""

    kind: str  # "grover" or "bwt"
    size: int  # qubits (grover) or walk steps (bwt)
    params: Tuple[int, ...]  # marked elements or walk seeds

    def build(self, instance: int, builder) -> Circuit:
        if self.kind == "grover":
            return builder(self.size, self.params[instance])
        return builder(BWT_DEPTH, self.size, seed=self.params[instance])


def serve_families(seed: int) -> List[Family]:
    rng = random.Random(f"serve-keys:{seed}")
    families = [
        Family("grover", n, tuple(rng.sample(range(1 << n), INSTANCES)))
        for n in GROVER_QUBITS
    ]
    families += [
        Family("bwt", steps, tuple(rng.sample(range(100_000), INSTANCES)))
        for steps in BWT_STEPS
    ]
    return families


def strata(families: Sequence[Family]) -> List[Tuple[int, int]]:
    """(family index, config index) pairs; each holds ``INSTANCES`` keys."""
    return [(f, c) for f in range(len(families)) for c in range(len(SERVE_CONFIGS))]


@dataclass(frozen=True)
class StreamItem:
    """One request of the stream: which key, and how it is spelled."""

    family: int
    config: int
    instance: int
    spelling: str  # "plain", "renamed" or "phase"

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.family, self.config, self.instance)


def serve_stream(seed: int, families: Sequence[Family]) -> Iterator[StreamItem]:
    """The endless request stream, in rounds that visit every stratum once.

    Each round is a seeded shuffle of the strata.  The instance of a
    stratum's k-th visit is the Zipf rank of the k-th point of a
    golden-ratio sequence (from a seeded start), whose low discrepancy
    keeps the number of first touches (cache misses) per stratum nearly
    the same on every seed; the seed decides the instances behind the
    ranks, the interleaving of strata, the spellings and the arrival
    times.  Random ranks let the number of expensive misses in a run, and
    with it every latency percentile, swing by tens of percent.
    """
    rng = random.Random(f"serve-stream:{seed}")
    cells = strata(families)
    cdf = zipf_cdf(INSTANCES, ZIPF_S)
    visits = [0] * len(cells)
    # A seeded start per stratum keeps the strata's first touches of a new
    # rank from falling into the same round, which would queue them all.
    starts = [rng.random() for _ in cells]
    golden = (math.sqrt(5) - 1) / 2
    while True:
        order = list(range(len(cells)))
        rng.shuffle(order)
        for cell in order:
            point = (starts[cell] + visits[cell] * golden) % 1.0
            visits[cell] += 1
            spelling = "plain"
            if rng.random() < RESPELL_SHARE:
                spelling = "renamed" if rng.random() < 0.5 else "phase"
            family, config = cells[cell]
            yield StreamItem(family, config, zipf_rank(point, cdf), spelling)


def poisson_schedule(seed: int, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process over ``duration``."""
    rng = random.Random(f"serve-arrivals:{seed}")
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= duration:
            return offsets
        offsets.append(now)


def respell(circuit: Circuit, spelling: str) -> Circuit:
    """The same unitary under another name or another gate spelling."""
    if spelling == "plain":
        return circuit
    copy = Circuit(circuit.num_qubits, name=f"{circuit.name}~{spelling}")
    for op in circuit:
        gate = op.gate
        if spelling == "phase" and gate.name == "z":
            gate = phase_gate(math.pi)
        copy.append(gate, op.target, controls=op.controls, negative_controls=op.negative_controls)
    return copy


class KeySet:
    """Lazily built circuits of the service key set."""

    def __init__(self, families: Sequence[Family], grover=grover_circuit, bwt=bwt_circuit) -> None:
        self.families = list(families)
        self._builders = {"grover": grover, "bwt": bwt}
        self._circuits: Dict[Tuple[int, int, str], Circuit] = {}

    def circuit(self, family: int, instance: int, spelling: str = "plain") -> Circuit:
        key = (family, instance, spelling)
        found = self._circuits.get(key)
        if found is None:
            if spelling == "plain":
                spec = self.families[family]
                found = spec.build(instance, self._builders[spec.kind])
            else:
                found = respell(self.circuit(family, instance), spelling)
            self._circuits[key] = found
        return found

    def request(self, item: StreamItem, label: str) -> RunRequest:
        return RunRequest(
            self.circuit(item.family, item.instance, item.spelling),
            SERVE_CONFIGS[item.config],
            label=label,
        )

    def key_name(self, key: Tuple[int, int, int]) -> str:
        family, config, instance = key
        spec = self.families[family]
        return f"{spec.kind}{spec.size}/{spec.params[instance]}/{SERVE_CONFIGS[config].label}"
