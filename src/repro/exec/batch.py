r"""Batch engine internals: worker protocol, timeout, retry, aggregation.

The public entry point is :func:`run_batch` (re-exported by
:mod:`repro.exec` and fronted by :func:`repro.api.run_batch`).  The
engine's contract, in order of importance:

**Determinism.**  ``workers=1`` runs every job sequentially in the
current process.  ``workers>1`` fans out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, but because every job
builds its *own* manager/simulator stack from a picklable
:class:`~repro.api.SimulatorConfig` and ships its state home as a
:mod:`repro.dd.serialize` document, the per-job payloads are
byte-identical across worker counts (asserted by
``tests/exec/test_determinism.py`` and the CI batch-smoke job).

**Failure isolation.**  A job that raises, times out or loses its
worker process becomes a typed :class:`JobFailure` -- the rest of the
sweep completes.  Retries happen in rounds: every failed job of round
*n* is re-submitted in round *n+1* after an exponential backoff sleep,
up to ``retries`` extra rounds.

**One executor.**  :func:`execute_job` runs one request and returns a
:class:`JobOutcome`: the result or the typed failure, the partial
metrics and the spans.  Batch jobs (in-process and in pool workers) and
the persistent service's :meth:`repro.serve.worker.WarmWorker.execute`
all go through it; the service passes its warm simulator, the batch
engine lets it build a fresh one.

**Timeouts** are cooperative: the executor turns ``timeout`` into a
deadline that :meth:`repro.sim.simulator.Simulator.run` checks between
gates, raising :class:`JobTimeout` once it has passed.  This works the
same on any thread and in any process; a single gate is never
interrupted.  A timed-out job still reports its partial telemetry.

**Telemetry.**  Each job snapshots its own registry (success *or*
failure); :func:`run_batch` merges the per-job ``sim.*``/``dd.*``
snapshots fleet-wide via :func:`repro.obs.merge_snapshots` and overlays
its own ``exec.batch.*`` instruments (jobs, completed, failed, retries,
timeouts, worker count, per-job seconds histogram), all inside one
``exec.batch`` span.

**Distributed tracing.**  When the coordinator's telemetry scope has
tracing enabled, :func:`run_batch` mints a
:class:`~repro.obs.TraceContext` (trace id + the ``exec.batch`` span's
id + the coordinator clock anchor) and injects it into every request.
Workers then record spans -- an ``exec.job`` root span wrapping the
whole job, the simulator's ``sim.gate``/``dd.apply.direct`` spans
below it -- and ship them home on the :class:`JobOutcome` alongside the
metrics snapshot, on the success, failure *and* timeout paths.  The
coordinator re-parents every shipped span under its ``exec.batch``
span with per-worker clock-offset alignment
(:func:`repro.obs.reparent_spans`), so one export of the coordinator
tracer yields a single multi-process trace with one track per worker.
Trace propagation never touches simulation state: results are
byte-identical with tracing on or off.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import RunRequest, RunResult, run_with
from repro.errors import ConfigError, JobTimeout
from repro.obs import (
    Telemetry,
    TraceContext,
    export_local_spans,
    export_worker_spans,
    merge_snapshots,
    reparent_spans,
)
from repro.sim.simulator import Simulator

__all__ = [
    "BatchResult",
    "JobFailure",
    "JobOutcome",
    "JobTimeout",
    "execute_job",
    "run_batch",
]

#: Histogram buckets for per-job wall time (seconds): batch jobs span
#: sub-10ms smoke circuits up to multi-minute GSE sweeps.
JOB_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


@dataclass(frozen=True)
class JobFailure:
    """Typed record of one job that failed all its attempts.

    ``metrics`` is the partial telemetry snapshot taken inside the
    worker after the last failing attempt -- for a timeout it shows how
    far the simulation got (gate counters, table sizes) before the
    deadline passed.
    """

    index: int
    label: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool
    traceback: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "metrics": self.metrics,
        }


@dataclass
class BatchResult:
    """Outcome of one :func:`run_batch` call.

    ``results`` is index-aligned with the submitted requests (``None``
    where the job ultimately failed); ``failures`` holds the typed
    failure records.  ``metrics`` is the fleet-wide merge of every
    job's telemetry snapshot plus the engine's own ``exec.batch.*``
    instruments.  ``trace_id`` is the batch-wide trace id when the
    coordinator scope had tracing enabled, else ``None``.
    """

    results: List[Optional[RunResult]]
    failures: List[JobFailure]
    workers: int
    seconds: float
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None

    @property
    def completed(self) -> List[RunResult]:
        """Successful results in submission order."""
        return [result for result in self.results if result is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready batch report (per-job payloads plus fleet view)."""
        return {
            "workers": self.workers,
            "seconds": self.seconds,
            "jobs": len(self.results),
            "completed": len(self.completed),
            "failed": len(self.failures),
            "results": [
                result.to_dict() if result is not None else None
                for result in self.results
            ],
            "failures": [failure.to_dict() for failure in self.failures],
            "metrics": self.metrics,
            "trace_id": self.trace_id,
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


@dataclass
class JobOutcome:
    """What one :func:`execute_job` attempt produced; always picklable.

    ``result`` is set on success.  Otherwise ``error_type``,
    ``message``, ``timed_out`` and ``traceback`` describe the typed
    failure and ``metrics`` holds the partial telemetry snapshot.
    ``spans`` is the exported span ring when the request carried a
    :class:`~repro.obs.TraceContext`, on every path.
    """

    result: Optional[RunResult] = None
    error_type: str = ""
    message: str = ""
    timed_out: bool = False
    traceback: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    @classmethod
    def failed(
        cls, exc: BaseException, metrics: Optional[Dict[str, Any]] = None
    ) -> "JobOutcome":
        """The typed failure outcome for ``exc`` (call inside ``except``)."""
        return cls(
            error_type=type(exc).__name__,
            message=str(exc) or traceback.format_exc(limit=1),
            timed_out=isinstance(exc, JobTimeout),
            traceback=traceback.format_exc(),
            metrics=metrics or {},
        )


def execute_job(
    request: RunRequest,
    simulator: Optional[Simulator] = None,
    scope: Optional[Telemetry] = None,
    timeout: Optional[float] = None,
    serialize_spans: bool = True,
    job_attrs: Optional[Dict[str, Any]] = None,
) -> JobOutcome:
    """Run one request; never raises.

    ``simulator`` is an existing stack to run on (the service's warm
    entry); ``None`` builds a fresh one from the request's config, as
    :func:`repro.api.run` does.  ``scope`` is the telemetry scope whose
    metrics land on the outcome; ``None`` builds one from the config,
    forced into tracing mode when the request carries a
    :class:`~repro.obs.TraceContext`.  ``timeout`` (seconds from now)
    becomes the deadline :meth:`Simulator.run` checks between gates.

    The attempt runs inside an ``exec.job`` span labelled with the job
    label, ``job_attrs`` and the trace ids, and the span ring ships
    home on the outcome whenever the request carries a trace context.
    Pool workers serialize it to plain dicts (``serialize_spans``);
    in-process callers pass ``False`` and ship the live
    :class:`~repro.obs.Span` objects instead (no pickle boundary).
    """
    deadline = None if timeout is None else time.perf_counter() + timeout
    context = request.trace_context
    if scope is None:
        scope = request.config.create_telemetry()
        if context is not None and not scope.tracer.enabled:
            scope = Telemetry(metrics=scope.metrics.enabled, tracing=True)
    attrs: Dict[str, Any] = {"label": request.job_label, **(job_attrs or {})}
    if context is not None:
        attrs["trace_id"] = context.trace_id
        attrs["parent_span_id"] = context.parent_span_id
    try:
        with scope.tracer.span("exec.job", **attrs):
            if simulator is None:
                simulator = request.config.create_simulator(
                    request.circuit.num_qubits, scope
                )
            result = run_with(
                request, simulator, telemetry=scope, keep_state=False, deadline=deadline
            )
        outcome = JobOutcome(result=result)
    except Exception as exc:  # noqa: BLE001 - becomes a typed failure
        outcome = JobOutcome.failed(exc, dict(scope.metrics.snapshot()))
    if context is not None:
        export = export_worker_spans if serialize_spans else export_local_spans
        outcome.spans = export(scope.tracer, context)
    return outcome


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _run_round(
    jobs: Sequence[Tuple[int, RunRequest]],
    workers: int,
    timeout: Optional[float],
) -> List[Tuple[int, JobOutcome]]:
    """One attempt for every job in ``jobs``; outcomes in any order."""
    if workers <= 1:
        return [
            (
                index,
                execute_job(
                    request, timeout=timeout, serialize_spans=False, job_attrs={"index": index}
                ),
            )
            for index, request in jobs
        ]

    outcomes: List[Tuple[int, JobOutcome]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures: Dict["Future[JobOutcome]", int] = {
            pool.submit(
                execute_job, request, timeout=timeout, job_attrs={"index": index}
            ): index
            for index, request in jobs
        }
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                try:
                    outcome = future.result()
                except Exception as exc:  # noqa: BLE001 - worker died hard
                    outcome = JobOutcome.failed(exc)
                outcomes.append((futures[future], outcome))
    return outcomes


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.5,
    telemetry: Optional[Telemetry] = None,
) -> BatchResult:
    """Execute independent requests, optionally across a process pool.

    Parameters
    ----------
    requests:
        The jobs; results stay index-aligned with this sequence.
    workers:
        ``1`` (default) runs sequentially in-process -- fully
        deterministic, no subprocesses.  Higher counts use a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    timeout:
        Per-job wall-clock deadline in seconds (``None`` = unlimited).
    retries:
        Extra rounds granted to failed jobs (``0`` = single attempt).
    backoff:
        Base sleep between retry rounds; round *n* sleeps
        ``backoff * 2**(n-1)`` seconds.
    telemetry:
        The fleet scope for ``exec.batch.*`` instruments (a fresh
        metrics-only scope when omitted).
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if timeout is not None and timeout <= 0:
        raise ConfigError("timeout must be positive when set")
    if backoff < 0:
        raise ConfigError("backoff must be non-negative")

    scope = telemetry if telemetry is not None else Telemetry()
    metrics = scope.metrics
    jobs_total = metrics.counter("exec.batch.jobs")
    jobs_completed = metrics.counter("exec.batch.completed")
    jobs_failed = metrics.counter("exec.batch.failed")
    jobs_retried = metrics.counter("exec.batch.retries")
    jobs_timed_out = metrics.counter("exec.batch.timeouts")
    trace_spans = metrics.counter("exec.batch.trace.spans")
    worker_gauge = metrics.gauge("exec.batch.workers")
    job_seconds = metrics.histogram(
        "exec.job.seconds", buckets=JOB_SECONDS_BUCKETS
    )

    jobs_total.inc(len(requests))
    worker_gauge.set(workers)

    # Trace-context injection: one trace id for the whole batch, the
    # coordinator's exec.batch span as the common parent.  The traced
    # copies are what gets submitted (including retry rounds); the
    # caller's request objects are never mutated.
    context: Optional[TraceContext] = None
    if scope.tracer.enabled:
        context = TraceContext.for_tracer(scope.tracer)
    submitted: List[RunRequest] = [
        request if context is None else replace(request, trace_context=context)
        for request in requests
    ]
    span_payloads: List[Dict[str, Any]] = []

    results: List[Optional[RunResult]] = [None] * len(requests)
    attempts: Dict[int, int] = {index: 0 for index in range(len(requests))}
    last_failure: Dict[int, JobOutcome] = {}
    pending: List[Tuple[int, RunRequest]] = list(enumerate(submitted))

    started = time.perf_counter()
    batch_attrs: Dict[str, Any] = {"jobs": len(requests), "workers": workers}
    if context is not None:
        batch_attrs["trace_id"] = context.trace_id
        batch_attrs["span_id"] = context.parent_span_id
    with scope.tracer.span("exec.batch", **batch_attrs) as batch_span:
        round_no = 0
        while pending and round_no <= retries:
            if round_no:
                jobs_retried.inc(len(pending))
                time.sleep(backoff * (2 ** (round_no - 1)))
            failed_this_round: List[Tuple[int, RunRequest]] = []
            for index, outcome in _run_round(pending, workers, timeout):
                attempts[index] += 1
                if outcome.spans is not None:
                    span_payloads.append(outcome.spans)
                result = outcome.result
                if result is not None:
                    result.attempts = attempts[index]
                    results[index] = result
                    last_failure.pop(index, None)
                    jobs_completed.inc()
                    job_seconds.observe(result.seconds)
                else:
                    last_failure[index] = outcome
                    if outcome.timed_out:
                        jobs_timed_out.inc()
                    failed_this_round.append((index, submitted[index]))
            pending = sorted(failed_this_round)
            round_no += 1

        # Re-parent the shipped worker spans under this exec.batch span
        # while it is still open, so containment holds in the export:
        # offset-aligned worker times always land inside the batch
        # window.  Each worker process gets its own pid track; tid
        # numbers the payloads (attempts) within a worker.
        if context is not None:
            tids: Dict[int, int] = {}
            for payload in span_payloads:
                worker_pid = int(payload.get("pid", 0))
                tid = tids.get(worker_pid, 0)
                tids[worker_pid] = tid + 1
                adopted = reparent_spans(
                    scope.tracer,
                    payload,
                    parent_depth=batch_span.depth,
                    tid=tid,
                )
                trace_spans.inc(len(adopted))

    failures = [
        JobFailure(
            index=index,
            label=requests[index].job_label,
            error_type=outcome.error_type,
            message=outcome.message,
            attempts=attempts[index],
            timed_out=outcome.timed_out,
            traceback=outcome.traceback,
            metrics=outcome.metrics,
        )
        for index, outcome in sorted(last_failure.items())
    ]
    jobs_failed.inc(len(failures))
    seconds = time.perf_counter() - started

    job_snapshots = [result.metrics for result in results if result is not None]
    job_snapshots.extend(failure.metrics for failure in failures)
    # One merge covers the per-job snapshots *and* the coordinator's
    # own registry, so shared counters (obs.trace.dropped) sum instead
    # of being overwritten; exec.batch.* exists only here and passes
    # through unchanged.  With zero requests this is just the
    # coordinator snapshot -- never the empty-list error case.
    merged = merge_snapshots([*job_snapshots, metrics.snapshot()])

    return BatchResult(
        results=results,
        failures=failures,
        workers=workers,
        seconds=seconds,
        metrics=merged,
        trace_id=None if context is None else context.trace_id,
    )
