"""The two GSE workloads: the exact (``gse_exact``) and numeric eps
(``gse_numeric``) sides of paper Fig. 5 on seeded GSE circuits.

Closed loop, one in-process caller: each pass runs every seeded circuit
through ``repro.api.run`` once per configuration of the workload
(algebraic and algebraic-gcd, or the six-point eps sweep).  Outputs are
checked after the timed window against the dense ``repro.sim.statevector``
reference, against each other across passes, and, for the default seed,
against the committed golden digests.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.api
from repro.algorithms import gse_circuit
from repro.api import RunRequest, RunResult, SimulatorConfig
from repro.sim.accuracy import state_error
from repro.sim.statevector import StatevectorSimulator

import inputs
from hostspeed import HostSpeed
from layers import Sampler, SpanRecorder, install_boundary_spans, span_metrics

#: A pass counts as within its limit when it completes correctly in this
#: many seconds (about 3x the seed's median pass on a 2-core host).
PASS_LIMIT_S = {"gse_exact": 30.0, "gse_numeric": 45.0}
EXACT_ATOL = 1e-9

Job = Tuple[int, Any, SimulatorConfig]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def jobs_of(workload: str, circuits: List[Any]) -> List[Job]:
    return [
        (index, circuit, config)
        for index, circuit in enumerate(circuits)
        for config in inputs.gse_configs(workload)
    ]


def job_label(job: Job) -> str:
    return f"c{job[0]}/{job[2].label}"


def run_pass(jobs: List[Job]) -> List[RunResult]:
    return [
        repro.api.run(RunRequest(circuit, config, label=job_label((index, circuit, config))))
        for index, circuit, config in jobs
    ]


def _final_vector(result: RunResult) -> np.ndarray:
    manager, state = result.restore_state()
    return manager.to_statevector(state)


def check(
    workload: str, seed: int, jobs: List[Job], passes: List[List[RunResult]], golden: Dict[str, Any]
) -> Dict[str, Any]:
    """Verify every run: dense reference, repeatability, golden digests."""
    expected = golden.get(workload) if seed == inputs.DEFAULT_SEED else None
    references: Dict[int, np.ndarray] = {}
    failed = 0
    digests: Dict[str, str] = {}
    errors: Dict[str, float] = {}
    problems: List[str] = []
    for column, job in enumerate(jobs):
        index, circuit, config = job
        label = job_label(job)
        if index not in references:
            references[index] = StatevectorSimulator(circuit.num_qubits).run(circuit)
        reference = references[index]
        first = passes[0][column]
        digests[label] = sha(first.state_payload)
        vector = _final_vector(first)
        if config.system == "numeric":
            # final_error must repeat exactly in every pass.
            errors[label] = state_error(vector, reference)
            for row in passes[1:]:
                if state_error(_final_vector(row[column]), reference) != errors[label]:
                    problems.append(f"{label}: final_error did not repeat exactly")
                    failed += 1
        elif not np.allclose(vector, reference, atol=EXACT_ATOL):
            problems.append(f"{label}: final state differs from the dense reference")
            failed += len(passes)
            continue
        for row in passes[1:]:
            if row[column].state_payload != first.state_payload:
                problems.append(f"{label}: payload changed between passes")
                failed += 1
        if expected is not None:
            if expected["sha256"].get(label) != digests[label]:
                problems.append(f"{label}: payload sha256 differs from golden.json")
                failed += len(passes)
            elif label in errors and expected["final_error"].get(label) != errors[label]:
                problems.append(f"{label}: final_error differs from golden.json")
                failed += len(passes)
    return {"failed": failed, "digests": digests, "final_error": errors, "problems": problems}


def golden_entry(workload: str, seed: int) -> Dict[str, Any]:
    """Digests and final errors of one pass, for ``golden.json``."""
    jobs = jobs_of(workload, [drawn.circuit for drawn in inputs.gse_inputs(seed)])
    outcome = check(workload, seed, jobs, [run_pass(jobs)], {})
    if outcome["problems"]:
        raise RuntimeError("; ".join(outcome["problems"]))
    return {"sha256": outcome["digests"], "final_error": outcome["final_error"]}


def _total(results: List[RunResult], name: str) -> float:
    return float(sum(result.metrics.get(name, 0) or 0 for result in results))


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def counter_metrics(results: List[RunResult], passes: int) -> Dict[str, float]:
    """Registry counts of the traced passes (counts are per pass)."""
    weight_hits = weight_misses = 0.0
    for result in results:
        for name, value in result.metrics.items():
            if name.startswith("weights.weight_") and isinstance(value, (int, float)):
                if name.endswith(".hits"):
                    weight_hits += value
                elif name.endswith(".misses"):
                    weight_misses += value
    ut_hits = _total(results, "dd.ut.vector.hits") + _total(results, "dd.ut.matrix.hits")
    ut_misses = _total(results, "dd.ut.vector.misses") + _total(results, "dd.ut.matrix.misses")
    return {
        "rings.max_bit_width": max(
            r.metrics.get("weights.weight_table.max_bit_width", 0) for r in results
        ),
        "weights.ops": weight_misses / passes,
        "weights.hit_ratio": _ratio(weight_hits, weight_misses),
        "dd.ut.hit_ratio": _ratio(ut_hits, ut_misses),
        "dd.ct.add.hit_ratio": _ratio(
            _total(results, "dd.ct.add.hits"), _total(results, "dd.ct.add.misses")
        ),
        "dd.ct.apply.hit_ratio": _ratio(
            _total(results, "dd.ct.apply.hits"), _total(results, "dd.ct.apply.misses")
        ),
        "dd.peak_nodes": max(r.metrics.get("sim.state.peak_nodes", 0) for r in results),
        "sim.gates": _total(results, "sim.gates") / passes,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, golden: Dict[str, Any], report: Any) -> None:
    recorder = SpanRecorder()
    sampler = Sampler()
    drawn = inputs.gse_inputs(seed, builder=recorder.record("build.circuit", gse_circuit))
    build_seconds = sum(span.seconds for span in recorder.named("build.circuit"))
    circuits = [entry.circuit for entry in drawn]
    jobs = jobs_of(workload, circuits)
    report.fingerprint(
        "gse",
        inputs.fingerprint(
            [(entry.hamiltonian, [str(op) for op in entry.circuit]) for entry in drawn]
            + [job_label(job) for job in jobs]
        ),
    )
    report.note(
        f"{len(circuits)} circuits of {[len(c) for c in circuits]} gates on "
        f"{circuits[0].num_qubits} qubits, {len(jobs)} runs per pass"
    )
    if trace:
        install_boundary_spans(recorder)
    report.setup_done()

    passes: List[List[RunResult]] = []
    pass_seconds: List[float] = []
    traced_flags: List[bool] = []
    speed = HostSpeed()
    started = time.perf_counter()
    speed.sample()
    # At least one untraced pass (and one traced pass in the traced run);
    # a further pass starts only if it is due to end near the deadline.
    while len(passes) < 1 + trace or (
        time.perf_counter() - started + 0.5 * statistics.median(pass_seconds) < seconds
    ):
        # The traced run alternates traced and untraced passes, so the
        # tracing overhead is measured on the same inputs.
        traced = trace and len(passes) % 2 == 1
        recorder.enabled = traced
        if traced:
            sampler.start()
        begin = time.perf_counter()
        row = run_pass(jobs)
        pass_seconds.append(time.perf_counter() - begin)
        sampler.stop()
        speed.sample()
        passes.append(row)
        traced_flags.append(traced)
    recorder.enabled = False
    recorder.restore()
    # Each pass at reference-host speed, from the samples around it.
    scaled = [s * speed.scale(i, i + 1) for i, s in enumerate(pass_seconds)]

    outcome = check(workload, seed, jobs, passes, golden)
    for problem in outcome["problems"]:
        report.problem(problem)
    for label, error in outcome["final_error"].items():
        report.note(f"final_error {label}: {error!r}")
    attempted = len(passes) * len(jobs)
    failed = min(attempted, outcome["failed"])
    within = 0 if failed else sum(1 for s in pass_seconds if s <= PASS_LIMIT_S[workload])
    gates = sum(len(job[1]) for job in jobs) * len(passes)
    report.end_to_end(
        p50_ms=statistics.median(scaled) * 1000.0,
        throughput_per_s=gates / sum(scaled),
        within_limit_ratio=within / len(passes),
    )
    report.outcome(attempted, failed)
    report.host_speed(speed)
    report.detail("slowest pass", max(scaled), "s")
    report.detail("sweep_s_p50 (raw)", statistics.median(pass_seconds), "s")
    report.detail("gates_per_s (raw)", gates / sum(pass_seconds), "gates/s")
    report.detail("passes", len(passes), "count")
    report.detail("build.circuit_s", build_seconds, "s")

    if trace:
        traced_results = [r for row, flag in zip(passes, traced_flags) if flag for r in row]
        traced_times = [s for s, flag in zip(pass_seconds, traced_flags) if flag]
        untraced_times = [s for s, flag in zip(pass_seconds, traced_flags) if not flag]
        layer = span_metrics(recorder, requests=len(recorder.named("api.run")))
        layer.update({f"{name}.self_share": share for name, share in sampler.shares().items()})
        if traced_results:
            layer.update(counter_metrics(traced_results, len(traced_times)))
        layer["build.circuit_s"] = build_seconds
        if traced_times and untraced_times:
            layer["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(
                untraced_times
            )
        report.layers(layer)
        report.span_self_times(recorder.self_seconds())
        report.note(f"sampler: {sampler.samples} samples, {sampler.handler_seconds:.3f}s in handler")
