r"""Warm workers: persistent manager/simulator stacks serving requests.

The batch engine builds a fresh :class:`~repro.dd.manager.DDManager`
per job -- correct, but every job pays cold unique/compute/weight
tables.  A :class:`WarmWorker` instead keeps one live simulator stack
per *warm-entry identity* (configuration plus circuit width) across
requests: gate DDs stay pinned, compute-table entries survive, interned
ring coefficients are already there.  Repeated requests then run mostly
out of cache, which is the latency win the service exists for.

Correctness of reuse:

* The exact systems and ``eps=0`` numerics produce value-based
  serialized payloads, so a warm run is byte-identical to a cold one.
* ``eps>0`` numeric tolerance tables *snap* -- which representative a
  weight collapses to depends on insertion history.  Re-running the
  same circuit replays the same history (still byte-identical), but a
  *different* circuit could pre-seed snapping targets.  Warm entries
  for lossy numeric configs are therefore additionally keyed by the
  canonical circuit hash: reuse only ever happens for structurally
  identical circuits there.
* A request that fails (including a deadline hit between gates)
  discards its warm entry entirely -- a half-applied simulation may
  hold root registrations the worker cannot account for, and
  rebuilding the entry on next use is cheap compared to auditing it.

Memory discipline: entries are LRU-bounded (``max_warm``), state roots
are released after serialization (``keep_state=False`` on
:func:`repro.api.run_with`), and the manager's own
:meth:`~repro.dd.mem.MemoryManager.maybe_collect` runs between jobs so
a budgeted config stays inside its :class:`~repro.dd.mem.MemoryBudget`
across requests, not just within one.

Execution itself is the batch engine's
:func:`~repro.exec.batch.execute_job`, given the warm simulator: the
same ``exec.job`` span, failure shaping and per-gate deadline check as
a batch job.

Two client shapes front a worker: :class:`InlineWorkerClient` keeps it
in-process (deterministic, test-friendly, shares the GIL), and
:class:`ProcessWorkerClient` runs :func:`worker_main` in a child
process connected by a pipe, and starts a new child when the old one
dies.  Deadlines behave the same in both: the simulation stops at the
first gate boundary past the request's remaining timeout.
"""

from __future__ import annotations

import multiprocessing
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.api import RunRequest
from repro.circuits.canonical import canonical_hash
from repro.errors import ServeError
from repro.exec.batch import execute_job
from repro.obs import Telemetry
from repro.serve.protocol import SHUTDOWN, ServeRequest, ServeResponse
from repro.sim.simulator import Simulator

__all__ = [
    "InlineWorkerClient",
    "ProcessWorkerClient",
    "WarmWorker",
    "WorkerOptions",
    "worker_main",
]

#: Default number of warm simulator stacks one worker keeps alive.
DEFAULT_MAX_WARM = 4


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable worker configuration (crosses the process boundary).

    ``tracing`` builds every warm entry's telemetry scope with the span
    ring enabled, so requests carrying a
    :class:`~repro.obs.TraceContext` come back with their worker spans;
    the front-end sets it from its own telemetry mode.
    """

    max_warm: int = DEFAULT_MAX_WARM
    tracing: bool = False


class WarmWorker:
    """One worker's warm-entry table plus the request execution loop."""

    def __init__(
        self,
        worker_id: int,
        options: Optional[WorkerOptions] = None,
        serialize_spans: bool = True,
    ) -> None:
        self.worker_id = worker_id
        self.options = options if options is not None else WorkerOptions()
        self.serialize_spans = serialize_spans
        self._entries: "OrderedDict[Tuple[Any, ...], Tuple[Simulator, Telemetry]]" = (
            OrderedDict()
        )

    # -- warm-entry management ------------------------------------------

    def _entry_key(self, request: RunRequest) -> Tuple[Any, ...]:
        config = request.config
        key: Tuple[Any, ...] = (config, request.circuit.num_qubits)
        if config.system == "numeric" and config.eps > 0.0:
            # Lossy tolerance tables snap history-dependently; only a
            # structurally identical circuit may reuse this entry.
            key += (canonical_hash(request.circuit),)
        return key

    def _entry_for(self, request: RunRequest) -> Tuple[Simulator, Telemetry, bool]:
        """The (simulator, scope) pair for this request, plus warm flag."""
        key = self._entry_key(request)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0], entry[1], True
        config = request.config
        scope = Telemetry(
            metrics=config.telemetry != "off", tracing=self.options.tracing
        )
        simulator = config.create_simulator(request.circuit.num_qubits, scope)
        self._entries[key] = (simulator, scope)
        while len(self._entries) > self.options.max_warm:
            self._entries.popitem(last=False)
        return simulator, scope, False

    def _discard(self, request: RunRequest) -> None:
        self._entries.pop(self._entry_key(request), None)

    @property
    def warm_entries(self) -> int:
        return len(self._entries)

    # -- execution -------------------------------------------------------

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        """Run one request on its warm entry; never raises.

        The shared executor runs it under the request's remaining
        timeout; a failure of any kind discards the warm entry.
        """
        request = serve_request.request
        simulator, scope, warm = self._entry_for(request)
        outcome = execute_job(
            request,
            simulator,
            scope,
            timeout=serve_request.timeout,
            serialize_spans=self.serialize_spans,
            job_attrs={"seq": serve_request.seq, "worker": self.worker_id, "warm": warm},
        )
        if not outcome.ok:
            self._discard(request)
        # The warm scope lives across requests: drain its span ring so
        # the next request does not re-ship this one's spans.
        scope.tracer.clear()
        # Budgeted configs collect between jobs, not only under gate
        # pressure -- a long-lived worker must return to its floor.
        memory = simulator.manager.memory
        if memory.config.enabled or memory.config.budget is not None:
            memory.maybe_collect()
        return ServeResponse(serve_request.seq, self.worker_id, outcome, warm)


# ---------------------------------------------------------------------------
# Worker clients (what the front-end dispatches to)
# ---------------------------------------------------------------------------


class InlineWorkerClient:
    """In-process worker: direct calls, no pickle boundary.

    The execute call runs on a front-end executor thread; the per-gate
    deadline check stops it there just as in a child process.
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        self._worker = WarmWorker(worker_id, options, serialize_spans=False)

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        return self._worker.execute(serve_request)

    def close(self) -> None:
        return None


def worker_main(worker_id: int, conn: Any, options: WorkerOptions) -> None:
    """Child-process request loop: recv, execute, send."""
    worker = WarmWorker(worker_id, options, serialize_spans=True)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item == SHUTDOWN:
            break
        conn.send(worker.execute(item))
    conn.close()


class ProcessWorkerClient:
    """Worker in a child process behind a pipe, restarted when it dies.

    One request is in flight per worker at a time (the front-end's
    dispatcher serializes its shard), so a plain send/recv pair is the
    whole protocol.  A child found dead before a send is replaced
    first; one that dies mid-request is replaced and the request fails
    with a typed :class:`~repro.errors.ServeError`.  Either way the new
    child starts with no warm entries, and ``restarts`` counts the
    replacements (the front-end reports the sum as
    ``serve.worker.restarts``).
    """

    def __init__(self, worker_id: int, options: Optional[WorkerOptions] = None) -> None:
        self.worker_id = worker_id
        self.options = options if options is not None else WorkerOptions()
        self.restarts = 0
        self._start()

    def _start(self) -> None:
        # Platform-default start method (fork on Linux), matching the
        # batch engine's ProcessPoolExecutor: spawn would re-import
        # __main__, breaking script-driven services.  A restart forks
        # from a front-end executor thread; the child then runs only
        # worker_main, which takes none of the parent threads' locks.
        ctx = multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(self.worker_id, child_conn, self.options),
            daemon=True,
            name=f"repro-serve-worker-{self.worker_id}",
        )
        self._process.start()
        child_conn.close()

    def _restart(self) -> None:
        self._conn.close()
        self._process.kill()
        self._process.join(timeout=5.0)
        self.restarts += 1
        self._start()

    def execute(self, serve_request: ServeRequest) -> ServeResponse:
        if not self._process.is_alive():
            self._restart()
        try:
            self._conn.send(serve_request)
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            self._restart()
            raise ServeError(
                f"worker {self.worker_id} process died mid-request ({exc}); "
                "started a new one"
            ) from exc

    def close(self) -> None:
        try:
            self._conn.send(SHUTDOWN)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=1.0)
        self._conn.close()
