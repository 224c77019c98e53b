r"""Command-line interface: ``repro-qmdd``.

Subcommands mirror the evaluation workflow:

``repro-qmdd simulate --algorithm grover --qubits 6 --system algebraic``
    Simulate one benchmark under one representation and print metrics.

``repro-qmdd batch --algorithm grover --qubits 6 --workers 4``
    Run the epsilon-tradeoff sweep as a parallel batch through
    :func:`repro.api.run_batch` (per-job timeout, bounded retries) and
    print -- or write with ``--report`` -- the batch report with
    per-job and fleet-merged telemetry.

``repro-qmdd tradeoff --algorithm grover --qubits 6``
    Run the full epsilon sweep (the paper's Figs. 3-5) and print the
    three series plus the summary and shape checks.

``repro-qmdd figure fig2|fig3|fig4|fig5``
    Regenerate one paper figure with default (laptop) parameters.

``repro-qmdd ablation --qubits 5``
    The normalisation-scheme ablation of Section V-B.

``repro-qmdd sanitize --algorithm grover --qubits 6 --mode check-every-op``
    Simulate under the DD sanitizer and report the invariant-check
    coverage (nodes / edges / memo entries / amplitudes verified).

``repro-qmdd gc --algorithm grover --qubits 8 --threshold 256 --audit``
    Simulate with the mark-and-sweep garbage collector enabled, print
    the collection statistics, and (with ``--audit``) run the sanitizer
    on the final state, including the check that every registered root
    and pin is still resident (exits 1 on a violation).  ``--max-nodes``
    / ``--max-bytes`` turn the run into a budget check that exits 2 on
    :class:`~repro.errors.MemoryBudgetExceeded`.

``repro-qmdd profile --algorithm grover --qubits 6``
    Run one benchmark with tracing on and print the top spans by total
    time plus the engine-table hit-rate table (see
    ``docs/OBSERVABILITY.md``).

``repro-qmdd trace --algorithm grover --qubits 6 --out trace.json``
    Run one benchmark and export the span ring as Chrome
    ``trace_event`` JSON (open in https://ui.perfetto.dev).

``repro-qmdd batch ... --trace-out batch_trace.json``
    Same batch run with distributed tracing on: every worker ships its
    spans home and the export is one multi-process Chrome trace --
    the coordinator's ``exec.batch`` span on track 0, each worker's
    ``exec.job``/``sim.gate`` spans on their own pid track.

``repro-qmdd perf record|compare|report``
    The performance observatory (see ``repro.obs.perf``): record
    median-of-N benchmark workloads as versioned ``BENCH_*.json``
    documents, compare them against the committed baselines in
    ``benchmarks/baselines/`` with noise-aware bands (non-zero exit on
    regression), and print result tables.

``repro-qmdd serve --workers 2 --verify``
    Run an embedded :class:`repro.serve.SimulationService` session: a
    mixed workload across all four number systems goes through the
    service twice (cache miss then hit), ``--verify`` asserts every
    payload byte-identical to the direct :func:`repro.api.run` path,
    and the ``serve.*`` telemetry is printed after a clean shutdown.
    Exit 1 on any mismatch or failed request.

``repro-qmdd serve-bench --qubits 8``
    The service latency benchmark (see ``repro.serve.bench``): warm
    repeat-request p50/p99 and throughput vs the cold batch per-job
    cost, written as ``BENCH_serve_*.json`` via ``repro.obs.perf``.

The simulation flags (``--system``, ``--eps``, ``--gc``,
``--sanitize``, ``--workers``) are spelled and defaulted identically
on every sweep-capable subcommand; they come from one shared parent
parser backed by :class:`repro.api.SimulatorConfig`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.algorithms.bwt import bwt_circuit
from repro.algorithms.grover import grover_circuit
from repro.algorithms.gse import gse_circuit
from repro.api import (
    SANITIZE_MODES,
    SYSTEMS,
    RunRequest,
    SimulatorConfig,
    make_simulator,
    run_batch,
)
from repro.circuits.circuit import Circuit
from repro.evalsuite.ablation import run_normalization_ablation
from repro.evalsuite.experiments import (
    fig2_gse_size,
    fig3_grover,
    fig4_bwt,
    fig5_gse,
    shape_checks,
)
from repro.evalsuite.reporting import (
    format_table,
    render_metrics,
    render_series,
    render_summary,
)
from repro.evalsuite.tradeoff import DEFAULT_EPSILONS, run_tradeoff, tradeoff_requests
from repro.obs import Telemetry, aggregate_spans, write_chrome_trace, write_jsonl

__all__ = ["main"]

#: Defaults for the shared flags come from the facade's own defaults,
#: so the CLI can never drift from the library.
_DEFAULTS = SimulatorConfig()


def _config_parents() -> "tuple[argparse.ArgumentParser, argparse.ArgumentParser]":
    """The two shared parent parsers (see module docstring).

    ``system_parent`` carries ``--system``/``--eps`` for single-run
    commands (profile, trace, sanitize, gc); ``config_parent`` extends
    it with ``--gc``/``--sanitize``/``--workers`` for the sweep-capable
    commands (simulate, batch, tradeoff, scaling, tuning, ablation).
    """
    system_parent = argparse.ArgumentParser(add_help=False)
    system_parent.add_argument(
        "--system", choices=SYSTEMS, default=_DEFAULTS.system, help="number system"
    )
    system_parent.add_argument(
        "--eps", type=float, default=_DEFAULTS.eps, help="numeric tolerance"
    )
    config_parent = argparse.ArgumentParser(add_help=False, parents=[system_parent])
    config_parent.add_argument(
        "--gc",
        type=int,
        default=_DEFAULTS.gc,
        help="garbage-collection node threshold (off when omitted)",
    )
    config_parent.add_argument(
        "--sanitize",
        choices=SANITIZE_MODES,
        default=_DEFAULTS.sanitize,
        help="DD invariant sanitizer mode",
    )
    config_parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for batched sweeps (1 = in-process)",
    )
    return system_parent, config_parent


def _config_from_args(args: argparse.Namespace) -> SimulatorConfig:
    """A :class:`SimulatorConfig` from the shared flags (absent = default)."""
    return SimulatorConfig(
        system=args.system,
        eps=args.eps,
        gc=getattr(args, "gc", _DEFAULTS.gc),
        sanitize=getattr(args, "sanitize", _DEFAULTS.sanitize),
    )


def _build_circuit(args: argparse.Namespace) -> Circuit:
    if args.algorithm == "grover":
        marked = args.marked if args.marked is not None else (1 << args.qubits) * 2 // 3
        return grover_circuit(args.qubits, marked)
    if args.algorithm == "bwt":
        return bwt_circuit(depth=args.depth, steps=args.steps, seed=args.seed)
    if args.algorithm == "gse":
        return gse_circuit(num_sites=args.sites, precision_bits=args.precision)
    raise SystemExit(f"unknown algorithm {args.algorithm!r}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _build_circuit(args)
    config = _config_from_args(args)
    manager = config.create_manager(circuit.num_qubits)
    result = make_simulator(manager, config).run(circuit)
    print(f"circuit: {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates)")
    print(f"system:  {manager.system.name}")
    print(f"final DD size: {result.node_count} nodes")
    print(f"run-time: {result.trace.total_seconds:.3f} s")
    print(f"zero collapse: {'yes' if result.is_zero_state else 'no'}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    circuit = _build_circuit(args)
    epsilons = (
        tuple(float(eps) for eps in args.epsilons.split(","))
        if args.epsilons
        else DEFAULT_EPSILONS
    )
    requests = tradeoff_requests(
        circuit, epsilons=epsilons, include_gcd=args.include_gcd
    )
    # A tracing-enabled coordinator scope switches on distributed
    # tracing: run_batch injects a TraceContext into every job and
    # re-parents the shipped worker spans under its exec.batch span.
    telemetry = Telemetry.tracing() if args.trace_out else None
    batch = run_batch(
        requests,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        telemetry=telemetry,
    )
    report = batch.to_dict()
    print(
        f"batch: {len(batch.results)} jobs on {batch.workers} worker(s), "
        f"{batch.seconds:.2f} s wall-clock, "
        f"{len(batch.completed)} completed, {len(batch.failures)} failed"
    )
    print(
        format_table(
            ["job", "nodes", "seconds", "attempts", "final_error", "zero"],
            [
                [
                    result.label,
                    result.node_count,
                    round(result.seconds, 4),
                    result.attempts,
                    result.final_error if result.final_error is not None else "-",
                    result.is_zero_state,
                ]
                for result in batch.completed
            ],
        )
    )
    for failure in batch.failures:
        print(
            f"FAILED {failure.label}: [{failure.error_type}] {failure.message} "
            f"(attempts={failure.attempts}, timed_out={failure.timed_out})"
        )
    print()
    print("fleet-merged telemetry:")
    print(render_metrics(batch.metrics))
    if args.trace_out:
        assert telemetry is not None
        document = write_chrome_trace(telemetry.tracer.spans(), args.trace_out)
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"(trace id {batch.trace_id}) to {args.trace_out} "
            "(open in https://ui.perfetto.dev or chrome://tracing)"
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote batch report to {args.report}")
    return 0 if batch.ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.errors import SanitizerError

    circuit = _build_circuit(args)
    if args.mode == "off":
        raise SystemExit("sanitize: --mode must be check-on-root or check-every-op")
    config = SimulatorConfig(system=args.system, eps=args.eps, sanitize=args.mode)
    manager = config.create_manager(circuit.num_qubits)
    simulator = make_simulator(manager, config)
    print(f"circuit: {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates)")
    print(f"system:  {manager.system.name}   mode: {args.mode}")
    try:
        result = simulator.run(circuit)
    except SanitizerError as error:
        print(f"FAIL {error}")
        return 1
    sanitizer = simulator.sanitizer
    assert sanitizer is not None
    print(sanitizer.total.summary())
    print(f"final DD size: {result.node_count} nodes")
    print(f"run-time: {result.trace.total_seconds:.3f} s")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from repro.errors import MemoryBudgetExceeded, SanitizerError

    circuit = _build_circuit(args)
    config = SimulatorConfig(
        system=args.system,
        eps=args.eps,
        gc=args.threshold,
        gc_min_yield=args.min_yield,
        max_nodes=args.max_nodes,
        max_bytes=args.max_bytes,
        sanitize="check-on-root" if args.audit else "off",
    )
    manager = config.create_manager(circuit.num_qubits)
    simulator = make_simulator(manager, config)
    print(f"circuit: {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates)")
    print(f"system:  {manager.system.name}   threshold: {args.threshold}")
    if args.max_nodes is not None or args.max_bytes is not None:
        print(f"budget:  max_nodes={args.max_nodes} max_bytes={args.max_bytes}")
    try:
        result = simulator.run(circuit)
    except MemoryBudgetExceeded as error:
        print(f"FAIL {error}")
        return 2
    except SanitizerError as error:
        print(f"FAIL {error}")
        return 1
    stats = manager.memory.statistics()
    print(f"final DD size: {result.node_count} nodes")
    print(f"run-time: {result.trace.total_seconds:.3f} s")
    print(
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in sorted(stats.items())],
        )
    )
    if args.audit:
        sanitizer = simulator.sanitizer
        assert sanitizer is not None
        print(sanitizer.total.summary())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    circuit = _build_circuit(args)
    telemetry = Telemetry.tracing(detail=args.detail)
    config = SimulatorConfig(system=args.system, eps=args.eps, telemetry="tracing")
    manager = config.create_manager(circuit.num_qubits, telemetry)
    result = make_simulator(manager, config).run(circuit)
    print(f"circuit: {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates)")
    print(f"system:  {manager.system.name}")
    print(f"final DD size: {result.node_count} nodes")
    print(f"run-time: {result.trace.total_seconds:.3f} s")
    print()
    rows = aggregate_spans(telemetry.tracer.spans())[: args.top]
    print(f"top spans by total time (of {len(telemetry.tracer)} recorded):")
    print(
        format_table(
            ["span", "count", "total_s", "mean_s", "max_s"],
            [
                [name, count, round(total, 6), round(mean, 6), round(peak, 6)]
                for name, count, total, mean, peak in rows
            ],
        )
    )
    if telemetry.tracer.dropped:
        print(f"(ring full: {telemetry.tracer.dropped} older spans dropped)")
    print()
    print("engine table hit rates:")
    print(render_metrics(telemetry.metrics.snapshot()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    circuit = _build_circuit(args)
    telemetry = Telemetry.tracing(detail=args.detail)
    config = SimulatorConfig(system=args.system, eps=args.eps, telemetry="tracing")
    manager = config.create_manager(circuit.num_qubits, telemetry)
    make_simulator(manager, config).run(circuit)
    spans = telemetry.tracer.spans()
    if args.jsonl:
        count = write_jsonl(spans, args.jsonl)
        print(f"wrote {count} spans to {args.jsonl}")
    document = write_chrome_trace(spans, args.out)
    print(
        f"wrote {len(document['traceEvents'])} trace events to {args.out} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    if telemetry.tracer.dropped:
        print(f"(ring full: {telemetry.tracer.dropped} older spans dropped)")
    return 0


def _cmd_perf_record(args: argparse.Namespace) -> int:
    from repro.errors import BenchFormatError
    from repro.obs import perf

    names = (
        [name.strip() for name in args.workloads.split(",") if name.strip()]
        if args.workloads
        else perf.workload_names()
    )
    records = []
    try:
        for name in names:
            record = perf.record_workload(
                name, repeats=args.repeats, system=args.system
            )
            path = perf.save_record(record, args.out_dir)
            print(f"recorded {name}: {path}")
            records.append(record)
    except BenchFormatError as error:
        print(f"perf record: {error}", file=sys.stderr)
        return 2
    print()
    print(perf.format_record_report(records))
    return 0


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro.errors import BenchFormatError
    from repro.obs import perf

    try:
        baselines = {
            record.workload: record
            for record in map(perf.load_record, perf.list_records(args.baseline_dir))
        }
        currents = {
            record.workload: record
            for record in map(perf.load_record, perf.list_records(args.current_dir))
        }
    except BenchFormatError as error:
        print(f"perf compare: {error}", file=sys.stderr)
        return 2
    if not baselines:
        print(f"perf compare: no baselines under {args.baseline_dir}", file=sys.stderr)
        return 2
    shared = sorted(baselines.keys() & currents.keys())
    comparisons = []
    try:
        for name in shared:
            comparisons.append(
                perf.compare_records(
                    baselines[name], currents[name], min_rel=args.min_rel
                )
            )
    except BenchFormatError as error:
        print(f"perf compare: {error}", file=sys.stderr)
        return 2
    print(perf.format_comparison_report(comparisons))
    for name in sorted(baselines.keys() - currents.keys()):
        print(f"note: baseline {name} has no current record (not compared)")
    for name in sorted(currents.keys() - baselines.keys()):
        print(f"note: current {name} has no baseline (not compared)")
    regressed = [c for c in comparisons if c.regressed]
    if regressed:
        names = ", ".join(c.workload for c in regressed)
        if args.informational:
            print(f"REGRESSED (informational, not gating): {names}")
            return 0
        print(f"REGRESSED: {names}")
        return 1
    return 0


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.errors import BenchFormatError
    from repro.obs import perf

    paths = perf.list_records(args.dir)
    if not paths:
        print(f"no BENCH_*.json records under {args.dir}")
        return 0
    try:
        records = [perf.load_record(path) for path in paths]
    except BenchFormatError as error:
        print(f"perf report: {error}", file=sys.stderr)
        return 2
    print(perf.format_record_report(records))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import run
    from repro.serve import SimulationService

    marked = (1 << args.qubits) * 2 // 3
    circuit = grover_circuit(args.qubits, marked)
    configs = [
        SimulatorConfig(system="algebraic"),
        SimulatorConfig(system="algebraic-gcd"),
        SimulatorConfig(system="numeric", eps=args.eps),
        SimulatorConfig(system="numeric", precision="single"),
    ]
    requests = [
        RunRequest(circuit, config, label=f"serve/{config.system}/{config.precision}/{config.eps:g}")
        for config in configs
    ]
    print(
        f"service session: {circuit.name} ({circuit.num_qubits} qubits, "
        f"{len(circuit)} gates) x {len(requests)} configs x 2 passes "
        f"({args.workers} {args.mode} worker(s))"
    )
    mismatches = 0
    failures = 0
    with SimulationService(
        workers=args.workers,
        mode=args.mode,
        cache_capacity=args.cache_size,
        queue_size=args.queue_size,
    ) as service:
        for request in requests:
            reference = run(request) if args.verify else None
            for attempt in ("miss", "hit"):
                try:
                    result = run(request, client=service)
                except Exception as error:  # noqa: BLE001 - reported, exit 1
                    failures += 1
                    print(f"FAILED {request.job_label} [{attempt}]: {error}")
                    continue
                verdict = ""
                if reference is not None:
                    identical = (
                        result.state_payload == reference.state_payload
                        and result.node_count == reference.node_count
                        and result.is_zero_state == reference.is_zero_state
                    )
                    if not identical:
                        mismatches += 1
                    verdict = "  payload==direct" if identical else "  PAYLOAD MISMATCH"
                print(
                    f"  {request.job_label:<36} [{attempt}] "
                    f"{result.node_count:>6} nodes  {result.seconds:.4f}s{verdict}"
                )
        stats = service.stats()
    print()
    print("service telemetry:")
    for name in sorted(stats):
        if name.startswith("serve.") and not isinstance(stats[name], dict):
            print(f"  {name:<28} {stats[name]}")
    seconds_hist = stats.get("serve.request.seconds")
    if isinstance(seconds_hist, dict):
        print(
            "  %-28s count=%d mean=%.4fs"
            % ("serve.request.seconds", seconds_hist["count"], seconds_hist["mean"])
        )
    if mismatches or failures:
        print(f"FAIL: {mismatches} payload mismatch(es), {failures} failed request(s)")
        return 1
    print("clean shutdown; all payloads byte-identical" if args.verify else "clean shutdown")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.obs.perf import BenchRecord, save_record
    from repro.serve.bench import run_serve_bench

    report = run_serve_bench(
        qubits=args.qubits,
        iterations=args.iterations,
        repeats=args.repeats,
        workers=args.workers,
        mode=args.mode,
    )
    print(
        "serve bench: %s (%d gates), %d repeats, %d %s worker(s)"
        % (
            report["circuit"]["name"],
            report["circuit"]["num_gates"],
            args.repeats,
            args.workers,
            args.mode,
        )
    )
    print("  cold per-job   %.4fs  (run_batch workers=1)" % report["cold_per_job_seconds"])
    print(
        "  warm p50/p99   %.4fs / %.4fs  (%.1f req/s, cache off)"
        % (
            report["warm_p50_seconds"],
            report["warm_p99_seconds"],
            report["warm_throughput_rps"],
        )
    )
    print("  cached p50     %.4fs  (canonical-form LRU hit)" % report["cached_p50_seconds"])
    print("  cold/warm      %.2fx" % report["cold_over_warm_speedup"])
    if args.out_dir:
        record = BenchRecord.from_dict(report["record"])
        path = save_record(record, args.out_dir)
        print(f"wrote {path}")
    if report["cold_over_warm_speedup"] < args.min_speedup:
        print(
            "FAIL: warm median %.4fs is not <= %.2fx of the cold per-job cost"
            % (report["warm_p50_seconds"], 1.0 / args.min_speedup)
        )
        return 1
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    circuit = _build_circuit(args)
    result = run_tradeoff(circuit, include_gcd=args.include_gcd, workers=args.workers)
    print(render_summary(result))
    print()
    for metric in ("nodes", "error", "seconds"):
        print(render_series(result, metric, samples=args.samples))
        print()
    checks = shape_checks(result)
    print("shape checks (paper Section V-A):")
    for name, passed in checks.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    driver = {
        "fig2": fig2_gse_size,
        "fig3": fig3_grover,
        "fig4": fig4_bwt,
        "fig5": fig5_gse,
    }[args.figure]
    result = driver(scale=args.scale)
    print(render_summary(result))
    print()
    metrics = ["nodes"] if args.figure == "fig2" else ["nodes", "error", "seconds"]
    if args.figure == "fig5":
        metrics.append("bits")
    for metric in metrics:
        print(render_series(result, metric, samples=args.samples))
        print()
    for name, passed in shape_checks(result).items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    marked = (1 << args.qubits) * 2 // 3
    circuit = grover_circuit(args.qubits, marked)
    rows = run_normalization_ablation(
        circuit, include_gcd=not args.skip_gcd, workers=args.workers
    )
    print(f"normalisation ablation on {circuit.name}:")
    print(
        format_table(
            ["scheme", "seconds", "final_nodes", "peak_nodes", "trivial_frac", "bits"],
            [
                [
                    row.scheme,
                    round(row.seconds, 4),
                    row.final_nodes,
                    row.peak_nodes,
                    round(row.trivial_weight_fraction, 3),
                    row.max_bit_width,
                ]
                for row in rows
            ],
        )
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.evalsuite.scaling import grover_scaling

    rows = grover_scaling(
        qubit_range=range(args.min_qubits, args.max_qubits + 1), workers=args.workers
    )
    print("Grover peak DD size, exact vs eps=0 floats:")
    print(
        format_table(
            ["qubits", "gates", "algebraic_peak", "eps0_peak", "alg_sec", "eps0_sec"],
            [
                [
                    row.num_qubits,
                    row.num_gates,
                    row.algebraic_peak,
                    row.eps0_peak,
                    round(row.algebraic_seconds, 3),
                    round(row.eps0_seconds, 3),
                ]
                for row in rows
            ],
        )
    )
    return 0


def _cmd_tuning(args: argparse.Namespace) -> int:
    from repro.evalsuite.tuning import tune_epsilon

    circuit = _build_circuit(args)
    report = tune_epsilon(
        circuit, error_target=args.error_target, workers=args.workers
    )
    print(
        f"tolerance tuning on {circuit.name}: {report.num_trials} full "
        f"simulations, {report.total_seconds:.2f} s total"
    )
    print(
        format_table(
            ["eps", "final_error", "peak_nodes", "seconds", "viable"],
            [
                [
                    f"{trial.eps:g}",
                    trial.final_error,
                    trial.peak_nodes,
                    round(trial.seconds, 4),
                    trial.meets_accuracy and trial.meets_compactness,
                ]
                for trial in report.trials
            ],
        )
    )
    if report.succeeded:
        print(f"chosen eps = {report.chosen_eps:g}")
        return 0
    print("no tolerance value satisfies both targets")
    return 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-qmdd",
        description="Algebraic vs numerical QMDDs (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    system_parent, config_parent = _config_parents()

    def add_circuit_args(p):
        p.add_argument("--algorithm", choices=("grover", "bwt", "gse"), default="grover")
        p.add_argument("--qubits", type=int, default=6, help="Grover data qubits")
        p.add_argument("--marked", type=int, default=None)
        p.add_argument("--depth", type=int, default=2, help="BWT tree depth")
        p.add_argument("--steps", type=int, default=4, help="BWT walk steps")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sites", type=int, default=2, help="GSE system sites")
        p.add_argument("--precision", type=int, default=2, help="GSE phase bits")

    simulate = sub.add_parser(
        "simulate", help="simulate one benchmark", parents=[config_parent]
    )
    add_circuit_args(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    batch = sub.add_parser(
        "batch",
        help="run the epsilon sweep as a parallel batch",
        parents=[config_parent],
    )
    add_circuit_args(batch)
    batch.add_argument(
        "--timeout", type=float, default=None, help="per-job deadline in seconds"
    )
    batch.add_argument(
        "--retries", type=int, default=0, help="extra rounds for failed jobs"
    )
    batch.add_argument(
        "--backoff", type=float, default=0.5, help="base sleep between retry rounds"
    )
    batch.add_argument(
        "--epsilons",
        default=None,
        help="comma-separated tolerance sweep (default: the paper's)",
    )
    batch.add_argument("--include-gcd", action="store_true")
    batch.add_argument("--report", default=None, help="write the JSON batch report here")
    batch.add_argument(
        "--trace-out",
        default=None,
        help="enable distributed tracing and write the multi-process "
        "Chrome trace_event JSON here",
    )
    batch.set_defaults(func=_cmd_batch)

    sanitize = sub.add_parser(
        "sanitize",
        help="simulate under the DD invariant sanitizer",
        parents=[system_parent],
    )
    add_circuit_args(sanitize)
    sanitize.add_argument(
        "--mode",
        choices=("check-on-root", "check-every-op"),
        default="check-on-root",
    )
    sanitize.set_defaults(func=_cmd_sanitize)

    gc = sub.add_parser(
        "gc",
        help="simulate with the garbage collector on and report GC stats",
        parents=[system_parent],
    )
    add_circuit_args(gc)
    gc.add_argument(
        "--threshold", type=int, default=1000, help="resident-node count that triggers a collection"
    )
    gc.add_argument(
        "--min-yield",
        type=float,
        default=0.25,
        help="minimum freed fraction before the threshold grows",
    )
    gc.add_argument("--max-nodes", type=int, default=None, help="hard node budget (fails the run)")
    gc.add_argument("--max-bytes", type=int, default=None, help="hard byte budget (fails the run)")
    gc.add_argument(
        "--audit",
        action="store_true",
        help="run the sanitizer (incl. the root/pin residency audit) on the final state",
    )
    gc.set_defaults(func=_cmd_gc)

    profile = sub.add_parser(
        "profile",
        help="top spans + engine hit rates for one benchmark",
        parents=[system_parent],
    )
    add_circuit_args(profile)
    profile.add_argument("--top", type=int, default=15, help="span rows to print")
    profile.add_argument(
        "--detail",
        action="store_true",
        help="record fine-grained spans (normalisation, table lookups; slow)",
    )
    profile.set_defaults(func=_cmd_profile)

    trace = sub.add_parser(
        "trace", help="export spans as Chrome trace_event JSON", parents=[system_parent]
    )
    add_circuit_args(trace)
    trace.add_argument("--out", default="trace.json", help="Chrome trace output path")
    trace.add_argument("--jsonl", default=None, help="also write a JSONL span dump")
    trace.add_argument("--detail", action="store_true")
    trace.set_defaults(func=_cmd_trace)

    perf = sub.add_parser(
        "perf", help="benchmark observatory: record / compare / report"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    perf_record = perf_sub.add_parser(
        "record", help="run workloads and write BENCH_*.json records"
    )
    perf_record.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: all; see repro.obs.perf)",
    )
    perf_record.add_argument(
        "--repeats", type=int, default=5, help="timed repeats per workload"
    )
    perf_record.add_argument(
        "--system",
        choices=SYSTEMS,
        default=None,
        help="number system (default: each workload's own)",
    )
    perf_record.add_argument(
        "--out-dir",
        default="benchmarks/results",
        help="directory for the BENCH_*.json records",
    )
    perf_record.set_defaults(func=_cmd_perf_record)

    perf_compare = perf_sub.add_parser(
        "compare",
        help="compare current records against the committed baselines",
    )
    perf_compare.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="committed baseline records",
    )
    perf_compare.add_argument(
        "--current-dir",
        default="benchmarks/results",
        help="freshly recorded BENCH_*.json records",
    )
    perf_compare.add_argument(
        "--min-rel",
        type=float,
        default=0.05,
        help="relative floor of the noise band (fraction of baseline median)",
    )
    perf_compare.add_argument(
        "--informational",
        action="store_true",
        help="report regressions but always exit 0 (CI smoke mode)",
    )
    perf_compare.set_defaults(func=_cmd_perf_compare)

    perf_report = perf_sub.add_parser(
        "report", help="print a table of recorded BENCH_*.json files"
    )
    perf_report.add_argument(
        "--dir", default="benchmarks/results", help="record directory"
    )
    perf_report.set_defaults(func=_cmd_perf_report)

    serve = sub.add_parser(
        "serve",
        help="run an embedded simulation-service session (mixed workload)",
    )
    serve.add_argument("--workers", type=int, default=2, help="service worker fleet size")
    serve.add_argument(
        "--mode",
        choices=("inline", "process"),
        default="inline",
        help="worker placement: in-process or child processes",
    )
    serve.add_argument("--qubits", type=int, default=5, help="Grover data qubits")
    serve.add_argument("--eps", type=float, default=1e-10, help="numeric tolerance job")
    serve.add_argument(
        "--queue-size", type=int, default=32, help="per-worker request queue bound"
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="result-cache entries (0 = off)"
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="assert every service payload byte-identical to direct run()",
    )
    serve.set_defaults(func=_cmd_serve)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="warm vs cold service latency benchmark (BENCH_serve_*.json)",
    )
    serve_bench.add_argument("--qubits", type=int, default=8, help="Grover data qubits")
    serve_bench.add_argument(
        "--iterations", type=int, default=6, help="Grover iterations"
    )
    serve_bench.add_argument(
        "--repeats", type=int, default=12, help="timed repeat requests per mode"
    )
    serve_bench.add_argument("--workers", type=int, default=1)
    serve_bench.add_argument(
        "--mode", choices=("inline", "process"), default="inline"
    )
    serve_bench.add_argument(
        "--out-dir",
        default="benchmarks/results",
        help="directory for the BENCH_serve_*.json record ('' = skip)",
    )
    serve_bench.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required cold-per-job / warm-median ratio (exit 1 below it)",
    )
    serve_bench.set_defaults(func=_cmd_serve_bench)

    tradeoff = sub.add_parser(
        "tradeoff", help="run the epsilon sweep", parents=[config_parent]
    )
    add_circuit_args(tradeoff)
    tradeoff.add_argument("--include-gcd", action="store_true")
    tradeoff.add_argument("--samples", type=int, default=10)
    tradeoff.set_defaults(func=_cmd_tradeoff)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("figure", choices=("fig2", "fig3", "fig4", "fig5"))
    figure.add_argument("--scale", choices=("default", "paper"), default="default")
    figure.add_argument("--samples", type=int, default=10)
    figure.set_defaults(func=_cmd_figure)

    ablation = sub.add_parser(
        "ablation", help="normalisation-scheme ablation", parents=[config_parent]
    )
    ablation.add_argument("--qubits", type=int, default=5)
    ablation.add_argument("--skip-gcd", action="store_true")
    ablation.set_defaults(func=_cmd_ablation)

    scaling = sub.add_parser(
        "scaling", help="DD size vs qubit count", parents=[config_parent]
    )
    scaling.add_argument("--min-qubits", type=int, default=4)
    scaling.add_argument("--max-qubits", type=int, default=7)
    scaling.set_defaults(func=_cmd_scaling)

    tuning = sub.add_parser(
        "tuning", help="tolerance fine-tuning cost", parents=[config_parent]
    )
    add_circuit_args(tuning)
    tuning.add_argument("--error-target", type=float, default=1e-8)
    tuning.set_defaults(func=_cmd_tuning)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
