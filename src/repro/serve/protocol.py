r"""The wire protocol between the service front-end and its workers.

Everything crossing the worker boundary is plain, picklable data --
the same transport discipline as the batch engine
(:mod:`repro.exec.batch`): a :class:`ServeRequest` carries a
:class:`~repro.api.RunRequest` (itself built from picklable parts) plus
the service envelope (sequence number, remaining deadline), and a
:class:`ServeResponse` carries the shared executor's
:class:`~repro.exec.batch.JobOutcome` plus the worker envelope.  Worker
processes receive requests over a :class:`multiprocessing.Pipe`; the
in-process worker mode passes the same objects by reference.

``SHUTDOWN`` is the sentinel the front-end sends to end a worker loop
cleanly (flushes the pipe, joins the process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api import RunRequest
from repro.exec.batch import JobOutcome

__all__ = ["SHUTDOWN", "ServeRequest", "ServeResponse"]

#: Sentinel ending a worker loop (string: trivially picklable/comparable).
SHUTDOWN = "__repro_serve_shutdown__"


@dataclass(frozen=True)
class ServeRequest:
    """One request as dispatched to a worker.

    ``seq`` is the front-end's monotonically increasing request number
    (response correlation and log lines).  ``timeout`` is the
    *remaining* per-request budget in seconds at dispatch time -- an
    interval, not an absolute timestamp, because worker clocks are not
    the front-end's clock.  The worker passes it to the shared executor,
    whose simulation stops at the first gate boundary past it.
    """

    seq: int
    request: RunRequest
    timeout: Optional[float] = None


@dataclass
class ServeResponse:
    """A worker's answer to one :class:`ServeRequest`.

    ``outcome`` is what the shared executor
    (:func:`~repro.exec.batch.execute_job`) returned: the result or the
    typed failure (``timed_out`` marks deadline hits, which the
    front-end turns into :class:`~repro.errors.DeadlineExceeded`), the
    partial metrics and the spans.  ``warm`` reports whether the worker
    served the request from an already-hot manager (table reuse) or had
    to build one.
    """

    seq: int
    worker_id: int
    outcome: JobOutcome
    warm: bool = False
