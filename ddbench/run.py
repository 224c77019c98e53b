"""The repository benchmark: one command, three seeded workloads.

    python3 ddbench/run.py --workload gse_exact --seed 1 --seconds 30 --trace 0

Workloads (see ``PREDICTIONS.md`` for why each was chosen):

``gse_exact``    exact side of paper Fig. 5: seeded Clifford+T GSE
                 circuits under ``algebraic`` then ``algebraic-gcd``;
``gse_numeric``  the same circuits through the paper's six-point eps sweep;
``serve_mixed``  an open-loop Poisson request stream against the
                 persistent service, then a closed-loop saturation phase.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports per-layer metrics
(sampled self-time shares, boundary spans, registry counts) and its own
overhead.  ``--workload all`` runs every workload both ways, each in a
fresh process, and prints every metric.  ``--write-golden`` recomputes
``golden.json`` for the default seed.  Human-readable lines go first;
the last line of standard output is one JSON object.  The exit code is
non-zero when any output is wrong or any request failed.

The program under test is imported from ``src/`` next to this directory
and nowhere else.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

# One process, one event loop and the service's single executor thread:
# keep numerical libraries from starting thread pools of their own.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("gse_exact", "gse_numeric", "serve_mixed")

#: name -> unit of every metric the benchmark reports (BENCHMARK.json
#: lists the same names).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "within_limit_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SELF_SHARES = (
    "rings", "weights", "numeric", "dd_core", "apply", "sim", "serialize",
    "canonical", "serve", "obs", "api", "build", "circuits", "other",
)
PER_LAYER = {
    **{f"{layer}.self_share": "ratio" for layer in SELF_SHARES},
    "rings.max_bit_width": "bits",
    "weights.ops": "count/op",
    "weights.hit_ratio": "ratio",
    "dd.ut.hit_ratio": "ratio",
    "dd.ct.add.hit_ratio": "ratio",
    "dd.ct.apply.hit_ratio": "ratio",
    "dd.peak_nodes": "count",
    "sim.gates": "count/op",
    "serialize.dumps_ms": "ms",
    "serialize.payload_bytes": "bytes",
    "canonical.hash_ms": "ms",
    "canonical.calls_per_request": "count/op",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.worker_exec_ms_p50": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.evictions": "count",
    "serve.rejected": "count",
    "build.circuit_s": "s",
    "loadgen.late_ms_p99": "ms",
    "loadgen.backlog": "count",
    "trace.overhead_ratio": "ratio",
    "host.calibration_ms": "ms",
}


class Report:
    """Collects metrics and prints the human-readable lines as they come."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.setup_s = 0.0
        self.metrics: Dict[str, float] = {}
        self.layer: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def note(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)

    def fingerprint(self, name: str, value: str) -> None:
        self.note(f"input fingerprint {name}: {value}")

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"[{self.workload}] WRONG OUTPUT: {text}", file=sys.stderr, flush=True)

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - START
        self.note(f"setup done in {self.setup_s:.3f} s")

    def detail(self, name: str, value: float, unit: str) -> None:
        self.note(f"{name} = {value:.6g} {unit}")

    def end_to_end(self, **values: float) -> None:
        self.metrics.update(values)

    def outcome(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def layers(self, values: Dict[str, float]) -> None:
        unknown = set(values) - set(self.layer)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
        self.layer.update(values)

    def host_speed(self, speed: Any) -> None:
        """Record the calibration the reported times were scaled by."""
        calibration = statistics.median(speed.samples)
        self.layer["host.calibration_ms"] = calibration
        self.detail("host.calibration_ms", calibration, "ms")

    def span_self_times(self, totals: Dict[str, float]) -> None:
        for name, seconds in sorted(totals.items()):
            self.note(f"span self time {name}: {seconds:.4f} s")

    def check_separation(self) -> None:
        """Fail the traced run when a workload stops isolating its layers."""
        rings = self.layer["rings.self_share"]
        hashing = self.layer["canonical.calls_per_request"]
        rules = {
            "gse_exact": (rings >= 0.5 and hashing == 0, "rings.self_share >= 0.5, no hashing"),
            "gse_numeric": (rings <= 0.05 and hashing == 0, "rings.self_share <= 0.05, no hashing"),
            "serve_mixed": (hashing > 0, "canonical.calls_per_request > 0"),
        }
        passed, rule = rules[self.workload]
        self.note(f"workload separation ({rule}): {'pass' if passed else 'FAIL'}")
        if not passed:
            self.problem(f"workload separation check failed: expected {rule}")

    def result(self) -> Dict[str, Any]:
        self.metrics["setup_s"] = self.setup_s
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.metrics["error_ratio"] = self.failed / max(1, self.attempted)
        for name in END_TO_END:
            self.detail(name, self.metrics[name], END_TO_END[name])
        self.detail("error_ratio", self.metrics["error_ratio"], "ratio")
        if self.trace:
            shares = sum(self.layer[f"{layer}.self_share"] for layer in SELF_SHARES)
            self.detail("sum of self shares", shares, "ratio")
            self.check_separation()
            for name, unit in PER_LAYER.items():
                self.detail(name, self.layer[name], unit)
            chosen = {name: (self.layer[name], PER_LAYER[name]) for name in PER_LAYER}
        else:
            chosen = {name: (self.metrics[name], unit) for name, unit in END_TO_END.items()}
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
            },
        }


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def load_golden() -> Dict[str, Any]:
    with open(os.path.join(HERE, "golden.json")) as handle:
        return json.load(handle)


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode != 0 or not lines:
                combined["correct"] = False
                continue
            outcome = json.loads(lines[-1])
            combined["correct"] &= outcome["correct"]
            combined["attempted"] += outcome["attempted"]
            combined["failed"] += outcome["failed"]
            for name, value in outcome["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] and combined["failed"] == 0 else 1


def write_golden(seed: int) -> None:
    import gse_workload
    import serve_workload

    golden = {
        "seed": seed,
        "gse_exact": gse_workload.golden_entry("gse_exact", seed),
        "gse_numeric": gse_workload.golden_entry("gse_numeric", seed),
        "serve_mixed": serve_workload.golden_entry(seed),
    }
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="recompute golden.json for the default seed and exit",
    )
    args = parser.parse_args(argv)
    import_program()
    import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    if args.write_golden:
        write_golden(inputs.DEFAULT_SEED)
        return 0
    if args.workload == "all":
        return run_all(seed, args.seconds)

    report = Report(args.workload, bool(args.trace))
    golden = load_golden()
    if args.workload == "serve_mixed":
        import serve_workload

        serve_workload.run(seed, args.seconds, bool(args.trace), golden, report)
    else:
        import gse_workload

        gse_workload.run(args.workload, seed, args.seconds, bool(args.trace), golden, report)
    outcome = report.result()
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
