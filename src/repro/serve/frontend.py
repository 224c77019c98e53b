r"""The asyncio front-end: admission, routing, dispatch, backpressure.

One :class:`ServiceFrontend` owns the service's moving parts:

* a :class:`~repro.serve.cache.ResultCache` consulted before any work
  is queued -- a canonical-form hit answers immediately, off the
  workers' critical path.  The request's canonical key is computed
  once and reused for the store after a miss;
* a :class:`~repro.serve.router.ShardRouter` pinning each miss to the
  worker whose tables are warm for its configuration;
* one **bounded** :class:`asyncio.Queue` per worker.  Admission is
  ``put_nowait``: a full shard rejects with the typed
  :class:`~repro.errors.QueueFull` instead of blocking the caller --
  backpressure is explicit, never silent latency;
* one dispatcher task per worker, draining its shard in FIFO order and
  running the (blocking) worker client call on an executor thread.

Deadlines are absolute, minted at submission: a request that expires
while queued is rejected (:class:`~repro.errors.DeadlineExceeded`)
without ever reaching a worker; one that expires mid-run is rejected
on time by the front-end, while the worker's simulation stops at its
next gate boundary and frees the shard.

Tracing: the front-end mints one trace id for its lifetime.  Every
request runs inside a ``serve.request`` span, and the worker's
``exec.job`` span ring ships home on the response and is re-parented
under that request span (:func:`repro.obs.reparent_spans`), so one
export shows queue wait and worker execution on a single timeline.

Instruments (all under the service scope; catalogued in
``docs/OBSERVABILITY.md``): ``serve.requests``,
``serve.rejected.queue_full``, ``serve.rejected.deadline``,
``serve.queue.depth``, ``serve.worker.busy``,
``serve.request.seconds``, ``serve.worker.restarts`` (collected from
the clients) plus the cache's ``serve.cache.*`` family.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro import errors
from repro.api import RunRequest, RunResult
from repro.exec.batch import JOB_SECONDS_BUCKETS
from repro.obs import Telemetry, TraceContext, new_span_id, new_trace_id, reparent_spans
from repro.serve.cache import DEFAULT_CAPACITY, ResultCache, request_key
from repro.serve.protocol import SHUTDOWN, ServeRequest, ServeResponse
from repro.serve.router import DEFAULT_BUCKET_SIZE, ShardRouter

__all__ = ["ServiceFrontend"]

#: Default per-worker queue capacity (requests, not bytes).
DEFAULT_QUEUE_SIZE = 32


def _swallow_abandoned(future: "asyncio.Future[ServeResponse]") -> None:
    """Retrieve an abandoned future's exception (quiets the loop's
    'exception was never retrieved' warning after a deadline abandon)."""
    if not future.cancelled() and future.done():
        future.exception()



class ServiceFrontend:
    """Admission control and dispatch over a fleet of worker clients.

    Built and driven by :class:`repro.serve.SimulationService`; all
    methods except the constructor must run on the service's event
    loop.
    """

    def __init__(
        self,
        clients: Sequence[Any],
        telemetry: Optional[Telemetry] = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ) -> None:
        if not clients:
            raise ValueError("service needs at least one worker client")
        if queue_size < 1:
            raise ValueError("queue size must be positive")
        self.clients = list(clients)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        metrics = self.telemetry.metrics
        self.cache = ResultCache(metrics, capacity=cache_capacity)
        self.router = ShardRouter(len(self.clients), bucket_size=bucket_size)
        self.queue_size = queue_size
        self.trace_id = new_trace_id() if self.telemetry.tracer.enabled else None

        self._requests = metrics.counter("serve.requests")
        self._rejected_full = metrics.counter("serve.rejected.queue_full")
        self._rejected_deadline = metrics.counter("serve.rejected.deadline")
        self._queue_depth = metrics.gauge("serve.queue.depth")
        self._worker_busy = metrics.gauge("serve.worker.busy")
        self._request_seconds = metrics.histogram(
            "serve.request.seconds", buckets=JOB_SECONDS_BUCKETS
        )
        metrics.register_collector(
            lambda: {
                "serve.worker.restarts": sum(
                    getattr(client, "restarts", 0) for client in self.clients
                )
            }
        )

        self._seq = 0
        self._busy = 0
        self._started = False
        self._closed = False
        self._queues: List["asyncio.Queue[Any]"] = []
        self._dispatchers: List["asyncio.Task[None]"] = []
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Spin up one dispatcher task (and queue) per worker."""
        if self._started:
            return
        self._started = True
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.clients), thread_name_prefix="repro-serve"
        )
        for index, client in enumerate(self.clients):
            queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=self.queue_size)
            self._queues.append(queue)
            self._dispatchers.append(
                asyncio.create_task(
                    self._dispatch(index, client, queue),
                    name=f"repro-serve-dispatch-{index}",
                )
            )

    async def close(self) -> None:
        """Drain queued work, stop dispatchers, shut workers down."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            await queue.put(SHUTDOWN)
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for client in self.clients:
            # Worker shutdown can block on a child process join; keep
            # it off the event loop.
            await loop.run_in_executor(self._pool, client.close)
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- submission ------------------------------------------------------

    async def submit(
        self, request: RunRequest, timeout: Optional[float] = None
    ) -> RunResult:
        """One request through cache, shard queue and worker.

        Raises the service's typed rejections --
        :class:`~repro.errors.QueueFull`,
        :class:`~repro.errors.DeadlineExceeded`,
        :class:`~repro.errors.ServiceClosed` -- or
        :class:`~repro.errors.ServeError` when the worker reported a
        simulation failure.
        """
        if self._closed or not self._started:
            raise errors.ServiceClosed(
                "service is not running (submit after close or before start)"
            )
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._requests.inc()

        tracer = self.telemetry.tracer
        span_attrs: Dict[str, Any] = {"label": request.job_label}
        if self.trace_id is not None:
            span_attrs["trace_id"] = self.trace_id
        with tracer.span("serve.request", **span_attrs) as request_span:
            key = request_key(request)
            cached = self.cache.get(request, key)
            if cached is not None:
                self._request_seconds.observe(loop.time() - started)
                return cached

            dispatched = request
            if self.trace_id is not None:
                context = TraceContext(
                    trace_id=self.trace_id,
                    parent_span_id=new_span_id(),
                    epoch_unix=tracer.epoch_unix,
                )
                request_span.attrs["span_id"] = context.parent_span_id
                dispatched = replace(request, trace_context=context)

            worker_index = self.router.route(request)
            self._seq += 1
            serve_request = ServeRequest(
                seq=self._seq, request=dispatched, timeout=timeout
            )
            future: "asyncio.Future[ServeResponse]" = loop.create_future()
            deadline = started + timeout if timeout is not None else None
            queue = self._queues[worker_index]
            try:
                queue.put_nowait((serve_request, future, deadline))
            except asyncio.QueueFull:
                self._rejected_full.inc()
                raise errors.QueueFull(
                    f"worker {worker_index} queue is at capacity "
                    f"({self.queue_size} requests); retry later or raise "
                    "queue_size/workers"
                ) from None
            self._queue_depth.set(queue.qsize())

            if deadline is None:
                response = await future
            else:
                try:
                    response = await asyncio.wait_for(
                        asyncio.shield(future), timeout=deadline - loop.time()
                    )
                except asyncio.TimeoutError:
                    # The caller's deadline holds to the moment: the
                    # response is abandoned here, and the worker stops
                    # at its next gate boundary, answering timed_out
                    # into the abandoned future.
                    future.add_done_callback(_swallow_abandoned)
                    self._rejected_deadline.inc()
                    raise errors.DeadlineExceeded(
                        f"request {request.job_label!r} missed its "
                        f"{timeout:g}s deadline mid-run"
                    ) from None

            outcome = response.outcome
            if outcome.spans is not None:
                reparent_spans(
                    tracer,
                    outcome.spans,
                    parent_depth=request_span.depth,
                    tid=response.worker_id,
                )
            if not outcome.ok:
                if outcome.timed_out:
                    self._rejected_deadline.inc()
                    raise errors.DeadlineExceeded(
                        f"request {request.job_label!r} missed its "
                        f"{timeout:g}s deadline in worker {response.worker_id}"
                    )
                raise errors.ServeError(
                    f"worker {response.worker_id} failed request "
                    f"{request.job_label!r}: {outcome.error_type}: "
                    f"{outcome.message}"
                )
            result = outcome.result
            assert result is not None
            self.cache.put(request, result, key)
            self._request_seconds.observe(loop.time() - started)
            return result

    # -- dispatch --------------------------------------------------------

    async def _dispatch(
        self, worker_index: int, client: Any, queue: "asyncio.Queue[Any]"
    ) -> None:
        """Drain one shard queue into one worker, FIFO."""
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item == SHUTDOWN:
                break
            serve_request, future, deadline = item
            self._queue_depth.set(queue.qsize())
            if future.done():
                # Caller already gave up (deadline fired while queued
                # under a slow worker); don't burn the worker on it.
                continue
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    self._rejected_deadline.inc()
                    future.set_exception(
                        errors.DeadlineExceeded(
                            f"request {serve_request.request.job_label!r} "
                            "expired while queued"
                        )
                    )
                    continue
                serve_request = replace(serve_request, timeout=remaining)
            self._busy += 1
            self._worker_busy.set(self._busy)
            try:
                response = await loop.run_in_executor(
                    self._pool, client.execute, serve_request
                )
            except Exception as exc:  # noqa: BLE001 - worker client died
                if not future.done():
                    future.set_exception(exc)
                continue
            finally:
                self._busy -= 1
                self._worker_busy.set(self._busy)
            if not future.done():
                future.set_result(response)

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A fresh service-scope metrics snapshot (includes cache size)."""
        return dict(self.telemetry.metrics.snapshot())
