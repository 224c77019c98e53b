r"""Canonical-form LRU result cache for the simulation service.

A cache hit must be indistinguishable from a fresh run, so keys come
from :func:`repro.circuits.canonical_hash` -- the structural identity
of circuit and configuration, not their display names.  Two requests
whose circuits apply the same unitaries to the same targets under the
same :class:`~repro.api.SimulatorConfig` share an entry even when one
was called ``"grover"`` and the other ``"grover (copy)"``; a request
with a different ``eps`` or number system never collides.  Requests
carrying an ``error_reference`` config are keyed on it too (the error
series on the trace depends on it).

Values are whole :class:`~repro.api.RunResult` objects: the state
travels inside them as a :mod:`repro.dd.serialize` document, which is
value-based, so replaying a cached payload is byte-identical to
recomputing it.  Only the ``label`` is request-specific and is
rewritten per hit.

The key costs one :func:`~repro.circuits.canonical_hash` pass over the
circuit, built from process-local memos of gate and operation text.
The front-end computes it once per request (:func:`request_key`) and
passes it to both :meth:`ResultCache.get` and, on a miss,
:meth:`ResultCache.put`.

Eviction is plain LRU with a fixed entry capacity.  Instrumentation
lands in the service's telemetry scope: ``serve.cache.hits`` /
``serve.cache.misses`` / ``serve.cache.evictions`` counters pushed at
the call sites, and ``serve.cache.size`` sampled by a collector at
snapshot time (the hot-path discipline of :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Optional

from repro.api import RunRequest, RunResult
from repro.circuits.canonical import canonical_hash, config_fingerprint
from repro.obs import MetricsRegistry

__all__ = ["ResultCache", "request_key"]

#: Default entry capacity (whole RunResults; states are JSON documents,
#: so hundreds of cached 8-qubit results fit comfortably in memory).
DEFAULT_CAPACITY = 256


def request_key(request: RunRequest) -> str:
    """The canonical cache key of one request.

    Circuit structure and full simulation config via
    :func:`~repro.circuits.canonical_hash`; the ``error_reference``
    config (which shapes the trace's error series and the result's
    ``final_error``/``fidelity``) appended as its own fingerprint.
    """
    key = canonical_hash(request.circuit, request.config)
    if request.error_reference is not None:
        key += "/ref:" + repr(config_fingerprint(request.error_reference))
    return key


class ResultCache:
    """Bounded LRU mapping canonical request keys to run results."""

    def __init__(self, metrics: MetricsRegistry, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[str, RunResult]" = OrderedDict()
        self._hits = metrics.counter("serve.cache.hits")
        self._misses = metrics.counter("serve.cache.misses")
        self._evictions = metrics.counter("serve.cache.evictions")
        metrics.register_collector(self._collect)

    def __len__(self) -> int:
        return len(self._entries)

    def _collect(self) -> Dict[str, int]:
        return {"serve.cache.size": len(self._entries)}

    def get(self, request: RunRequest, key: Optional[str] = None) -> Optional[RunResult]:
        """The cached result for ``request``, re-labelled, or ``None``.

        A hit refreshes the entry's LRU position and returns a shallow
        copy carrying the *incoming* request's label -- callers must
        see their own job label even when another circuit name first
        populated the entry.  ``key`` is the request's precomputed
        :func:`request_key`; it is computed here when omitted.
        """
        if self.capacity == 0:
            self._misses.inc()
            return None
        if key is None:
            key = request_key(request)
        cached = self._entries.get(key)
        if cached is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return replace(cached, label=request.job_label)

    def put(
        self, request: RunRequest, result: RunResult, key: Optional[str] = None
    ) -> None:
        """Store a successful result (failures are never cached).

        ``key`` as for :meth:`get`.
        """
        if self.capacity == 0:
            return
        if key is None:
            key = request_key(request)
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions.inc()
