"""Overhead of the DD sanitizer's ``check-on-root`` mode.

The sanitizer is meant to be cheap enough to leave on in integration
runs: ``check-on-root`` performs one full invariant check of the final
state per simulation (structural walk + memo replay sample + amplitude
cross-check) on top of the untouched per-gate hot path.  This benchmark
times 8-qubit Grover with the sanitizer off vs ``check-on-root``
(min-of-``REPS``, interleaved, GC off, fresh managers) for all three
number systems and asserts the slowdown stays within the acceptance
bound of 2x.  ``check-every-op`` is reported for reference but not
bounded -- it is a debugging mode.

``BENCH_FAST=1`` shrinks the workload for the CI smoke run.
"""

import gc
import os
import time

import pytest

from repro.algorithms.grover import grover_circuit
from repro.api import SimulatorConfig
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.sim.simulator import Simulator

FAST = os.environ.get("BENCH_FAST") == "1"
REPS = 1 if FAST else 5
GROVER_QUBITS = 6 if FAST else 8
MAX_ROOT_OVERHEAD = 2.0

SYSTEMS = {
    "numeric": lambda n: numeric_manager(n, eps=0.0),
    "algebraic-q": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
}


def _timed_run(circuit, factory, sanitize):
    manager = factory(circuit.num_qubits)
    simulator = Simulator(manager, config=SimulatorConfig(sanitize=sanitize or "off"))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    simulator.run(circuit)
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    coverage = simulator.sanitizer.total if simulator.sanitizer else None
    return elapsed, coverage


def _interleaved_best(circuit, factory):
    _timed_run(circuit, factory, None)  # warm-up
    best = {"off": float("inf"), "root": float("inf"), "every-op": float("inf")}
    coverage = None
    for _ in range(REPS):
        best["off"] = min(best["off"], _timed_run(circuit, factory, None)[0])
        elapsed, coverage = _timed_run(circuit, factory, "check-on-root")
        best["root"] = min(best["root"], elapsed)
        best["every-op"] = min(
            best["every-op"], _timed_run(circuit, factory, "check-every-op")[0]
        )
    return best, coverage


def test_check_on_root_overhead(artifact_writer):
    circuit = grover_circuit(GROVER_QUBITS, 5)
    lines = [
        f"sanitizer overhead on {circuit.name} "
        f"({circuit.num_qubits} qubits, {len(circuit)} gates; "
        f"min-of-{REPS}, interleaved, gc off, fresh managers; "
        f"bound: check-on-root <= {MAX_ROOT_OVERHEAD:.1f}x off)",
        "",
    ]
    failures = []
    for name, factory in SYSTEMS.items():
        best, coverage = _interleaved_best(circuit, factory)
        ratio_root = best["root"] / best["off"]
        ratio_every = best["every-op"] / best["off"]
        lines.append(
            f"{name:14s} off={best['off']:8.4f}s "
            f"check-on-root={best['root']:8.4f}s ({ratio_root:4.2f}x) "
            f"check-every-op={best['every-op']:8.4f}s ({ratio_every:5.2f}x)"
        )
        lines.append(f"    coverage per run: {coverage.summary()}")
        if ratio_root > MAX_ROOT_OVERHEAD:
            failures.append((name, ratio_root))
    artifact_writer("sanitizer_overhead.txt", "\n".join(lines))
    assert not failures, (
        f"check-on-root exceeded the {MAX_ROOT_OVERHEAD}x bound: {failures}"
    )
