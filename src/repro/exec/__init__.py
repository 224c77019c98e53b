r"""``repro.exec`` -- the parallel batch-execution engine.

The evaluation sweeps of the paper (eps tradeoff, qubit scaling, GC
tuning, kernel ablation) are embarrassingly parallel: every point is an
independent simulation.  This package fans typed
:class:`~repro.api.RunRequest` jobs out over a
:class:`concurrent.futures.ProcessPoolExecutor` and brings results home
as plain data:

* per-job **timeout** (a deadline the simulator checks between gates)
  and bounded **retry** with exponential backoff;
* typed failure capture -- a crashed or timed-out job becomes a
  :class:`JobFailure` carrying the exception text, attempt count and
  the partial telemetry snapshot, instead of aborting the sweep;
* result transport through :mod:`repro.dd.serialize` state documents
  plus a :class:`~repro.obs.MetricsRegistry` snapshot per job, merged
  fleet-wide (:func:`repro.obs.merge_snapshots`) on the
  :class:`BatchResult`.

``workers=1`` never spawns a process: jobs run sequentially in-process,
which is the deterministic fallback the test-suite uses and the
baseline that parallel runs are verified byte-identical against.

Callers should reach this engine through the facade --
:func:`repro.api.run_batch` -- rather than importing it directly.
"""

from __future__ import annotations

from repro.exec.batch import BatchResult, JobFailure, JobOutcome, JobTimeout, execute_job, run_batch

__all__ = ["BatchResult", "JobFailure", "JobOutcome", "JobTimeout", "execute_job", "run_batch"]
