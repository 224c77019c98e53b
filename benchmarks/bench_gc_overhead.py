"""Overhead and memory payoff of the mark-and-sweep garbage collector.

Two claims, both asserted:

* **Overhead** -- simulating 8-qubit Grover with the collector enabled
  (node threshold 2048, weight sweep included) costs at most 1.15x the
  GC-off wall time (min-of-``REPS``, interleaved, Python gc disabled,
  fresh managers).  For the numeric eps=0 system GC is typically a net
  *win*: the swept tables stay small and lookups stay cache-friendly.
* **Peak reduction** -- on a deep repeated-gate workload (Grover at 40
  iterations, ~1.8k gates) the peak resident node count with GC is at
  least 2x smaller than the GC-off footprint (which, without GC, is
  the interned remains of the whole history), while the final state
  stays byte-identical.

``BENCH_FAST=1`` shrinks the workload for the CI smoke run.
"""

import gc
import os
import time

from repro.algorithms.grover import grover_circuit
from repro.dd.manager import algebraic_gcd_manager, algebraic_manager, numeric_manager
from repro.dd.mem import MemoryConfig
from repro.sim.simulator import Simulator

FAST = os.environ.get("BENCH_FAST") == "1"
REPS = 1 if FAST else 5
GROVER_QUBITS = 6 if FAST else 8
DEEP_ITERATIONS = 12 if FAST else 40
GC_THRESHOLD = 512 if FAST else 2048
DEEP_THRESHOLD = 256 if FAST else 512
MAX_GC_OVERHEAD = 1.15
MIN_PEAK_REDUCTION = 2.0

SYSTEMS = {
    "numeric": lambda n: numeric_manager(n, eps=0.0),
    "algebraic-q": algebraic_manager,
    "algebraic-gcd": algebraic_gcd_manager,
}


def _timed_run(circuit, factory, gc_config):
    manager = factory(circuit.num_qubits)
    if gc_config is not None:
        manager.memory.configure(gc_config)
    simulator = Simulator(manager)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    result = simulator.run(circuit)
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return elapsed, manager, result


def test_gc_overhead(artifact_writer, bench_recorder):
    circuit = grover_circuit(GROVER_QUBITS, 5)
    config = MemoryConfig(threshold=GC_THRESHOLD)
    lines = [
        f"garbage-collection overhead on {circuit.name} "
        f"({circuit.num_qubits} qubits, {len(circuit)} gates; "
        f"threshold {GC_THRESHOLD}, min-of-{REPS}, interleaved, "
        f"python-gc off, fresh managers; bound: gc-on <= "
        f"{MAX_GC_OVERHEAD:.2f}x gc-off)",
        "",
    ]
    failures = []
    for name, factory in SYSTEMS.items():
        _timed_run(circuit, factory, None)  # warm-up
        samples_off, samples_on = [], []
        stats = None
        for _ in range(REPS):
            samples_off.append(_timed_run(circuit, factory, None)[0])
            elapsed, manager, _ = _timed_run(circuit, factory, config)
            samples_on.append(elapsed)
            stats = manager.memory.statistics()
        best_off, best_on = min(samples_off), min(samples_on)
        ratio = best_on / best_off
        lines.append(
            f"{name:14s} off={best_off:8.4f}s gc-on={best_on:8.4f}s "
            f"({ratio:4.2f}x)  collections={stats['collections']} "
            f"swept_nodes={stats['swept_nodes']} "
            f"peak={stats['peak_resident_nodes']}"
        )
        # Machine-readable twin (repro.obs.perf schema): gc-on timings
        # plus the collector's own statistics as counters.
        bench_recorder(
            f"gc_overhead/{name}",
            samples_on,
            {"system": name, "threshold": GC_THRESHOLD, "gc": "on"},
            {
                "collections": stats["collections"],
                "swept_nodes": stats["swept_nodes"],
                "peak_resident_nodes": stats["peak_resident_nodes"],
                "gc_off_best_seconds": best_off,
            },
        )
        if ratio > MAX_GC_OVERHEAD:
            failures.append((name, ratio))
    artifact_writer("gc_overhead.txt", "\n".join(lines))
    assert not failures, f"gc-on exceeded the {MAX_GC_OVERHEAD}x bound: {failures}"


def test_gc_peak_reduction(artifact_writer):
    deep = grover_circuit(GROVER_QUBITS, 5, iterations=DEEP_ITERATIONS)
    config = MemoryConfig(threshold=DEEP_THRESHOLD)
    lines = [
        f"peak resident nodes on the deep workload {deep.name} "
        f"({deep.num_qubits} qubits, {len(deep)} gates; threshold "
        f"{DEEP_THRESHOLD}; bound: gc-off footprint >= "
        f"{MIN_PEAK_REDUCTION:.0f}x gc-on peak, byte-identical finals)",
        "",
    ]
    failures = []
    for name, factory in SYSTEMS.items():
        _, manager_off, result_off = _timed_run(deep, factory, None)
        # Without GC nothing is ever reclaimed, so the final resident
        # count is the peak: the interned remains of the full history.
        peak_off = manager_off.memory.node_count
        _, manager_on, result_on = _timed_run(deep, factory, config)
        stats = manager_on.memory.statistics()
        peak_on = stats["peak_resident_nodes"]
        reduction = peak_off / peak_on
        identical = (
            result_on.final_amplitudes().tobytes()
            == result_off.final_amplitudes().tobytes()
        )
        lines.append(
            f"{name:14s} gc-off={peak_off:7d} nodes  gc-on peak={peak_on:6d} "
            f"({reduction:5.1f}x smaller)  collections={stats['collections']} "
            f"byte-identical={'yes' if identical else 'NO'}"
        )
        if reduction < MIN_PEAK_REDUCTION:
            failures.append((name, "reduction", reduction))
        if not identical:
            failures.append((name, "final state changed"))
    artifact_writer("gc_peak_reduction.txt", "\n".join(lines))
    assert not failures, f"gc payoff bounds violated: {failures}"
