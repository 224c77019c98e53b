r"""``repro.serve`` -- the persistent simulation service.

The batch engine (:mod:`repro.exec`) is built for sweeps: fan out,
compute, tear down.  Interactive and repeated workloads -- notebooks
iterating on one circuit, an evaluation driver replaying cases, CI
smoke loops -- pay its per-job manager construction and cold
unique/compute/weight tables every single time.  This package keeps
the stack *alive* instead:

:class:`SimulationService`
    The synchronous facade: a fleet of warm workers behind an asyncio
    front door on a daemon thread.  Pass it as ``client=`` to
    :func:`repro.api.run` / :func:`repro.api.run_batch`.

:class:`~repro.serve.frontend.ServiceFrontend`
    Admission control: canonical-form result cache, shard routing by
    number system and qubit bucket, bounded per-worker queues with
    typed :class:`~repro.errors.QueueFull` /
    :class:`~repro.errors.DeadlineExceeded` rejections.

:class:`~repro.serve.worker.WarmWorker`
    One live manager/simulator per configuration, hot tables across
    requests, GC between jobs, LRU-bounded warm entries, executed by
    the batch engine's :func:`~repro.exec.batch.execute_job` with its
    per-gate deadline.  In-process or child-process (restarted when it
    dies) flavours.

The service contract: **latency changes, payloads never do.**  Every
result -- cache hit, warm run, cold run -- is byte-identical to the
direct :func:`repro.api.run` path (asserted across all four number
systems by ``tests/serve/`` and the CI ``serve-smoke`` job).
"""

from __future__ import annotations

from repro.serve.cache import ResultCache, request_key
from repro.serve.frontend import ServiceFrontend
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.router import ShardRouter
from repro.serve.service import SimulationService
from repro.serve.worker import (
    InlineWorkerClient,
    ProcessWorkerClient,
    WarmWorker,
    WorkerOptions,
)

__all__ = [
    "InlineWorkerClient",
    "ProcessWorkerClient",
    "ResultCache",
    "ServeRequest",
    "ServeResponse",
    "ServiceFrontend",
    "ShardRouter",
    "SimulationService",
    "WarmWorker",
    "WorkerOptions",
    "request_key",
]
