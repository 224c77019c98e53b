"""Per-layer attribution for the traced run: layer map, sampler, spans.

Three instruments, all installed from the benchmark's own files so the
program under test is unchanged:

* :data:`LAYERS` maps every ``src/repro`` module to exactly one layer
  (a self-test enforces full coverage, so a new module cannot silently
  fall into ``other``);
* :class:`Sampler` is a stdlib sampling profiler: ``ITIMER_PROF`` fires
  on process CPU time, and each tick is attributed, over all threads
  that are not parked in a wait, to the layer of the innermost
  ``repro.*`` frame;
* :class:`SpanRecorder` wraps public entry points (``repro.api.run``,
  ``Simulator.run``, ``serialize.dumps``, ``canonical_hash``,
  ``ResultCache.get/put``, ``WarmWorker.execute``, the circuit builders)
  and records one span per call with its parent, so self time is a
  span's duration minus the time its children cover.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer -> the ``src/repro`` modules it owns.  Each module appears once.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "rings": (
        "repro.rings", "repro.rings.domega", "repro.rings.dyadic",
        "repro.rings.euclid", "repro.rings.matrix2", "repro.rings.qomega",
        "repro.rings.zomega", "repro.rings.zsqrt2",
    ),
    "weights": ("repro.dd.number_system",),
    "numeric": ("repro.numeric", "repro.numeric.complex_table"),
    "dd_core": (
        "repro.dd", "repro.dd.manager", "repro.dd.unique_table", "repro.dd.edge",
        "repro.dd.mem", "repro.dd.gatebuild", "repro.dd.metrics",
        "repro.dd.sanitizer", "repro.dd.dot",
    ),
    "apply": ("repro.dd.apply",),
    "sim": (
        "repro.sim", "repro.sim.simulator", "repro.sim.trace", "repro.sim.accuracy",
        "repro.sim.measure", "repro.sim.observables", "repro.sim.statevector",
    ),
    "serialize": ("repro.dd.serialize",),
    "canonical": ("repro.circuits.canonical",),
    "serve": (
        "repro.serve", "repro.serve.bench", "repro.serve.cache",
        "repro.serve.frontend", "repro.serve.protocol", "repro.serve.router",
        "repro.serve.service", "repro.serve.worker",
    ),
    "obs": (
        "repro.obs", "repro.obs.export", "repro.obs.metrics", "repro.obs.perf",
        "repro.obs.propagate", "repro.obs.tracing",
    ),
    "api": ("repro.api", "repro.exec", "repro.exec.batch"),
    "build": (
        "repro.algorithms", "repro.algorithms.arithmetic", "repro.algorithms.bwt",
        "repro.algorithms.grover", "repro.algorithms.gse", "repro.algorithms.oracles",
        "repro.approx", "repro.approx.clifford_t",
    ),
    "circuits": (
        "repro.circuits", "repro.circuits.circuit", "repro.circuits.gates",
        "repro.circuits.library", "repro.circuits.ordering", "repro.circuits.qasm",
        "repro.circuits.transpile",
    ),
    "other": (
        "repro", "repro.cli", "repro.errors",
        "repro.evalsuite", "repro.evalsuite.ablation", "repro.evalsuite.budget",
        "repro.evalsuite.experiments", "repro.evalsuite.instability",
        "repro.evalsuite.precision", "repro.evalsuite.reporting",
        "repro.evalsuite.scaling", "repro.evalsuite.tradeoff",
        "repro.evalsuite.tuning", "repro.evalsuite.verification_study",
        "repro.synth", "repro.synth.exact", "repro.synth.multiqubit",
        "repro.synth.stateprep", "repro.verify", "repro.verify.equivalence",
        "repro.verify.faults",
    ),
}

LAYER_OF: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules
}

#: Innermost frames of a thread that is parked, not running.
_IDLE_FRAMES = {
    ("threading", "wait"),
    ("selectors", "select"),
    ("concurrent.futures.thread", "_worker"),
    ("queue", "get"),
}


def layer_of_frame(frame: Any) -> str:
    """Layer of the innermost ``repro.*`` frame; ``other`` if none."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name == "repro" or name.startswith("repro."):
            return LAYER_OF.get(name, "other")
        frame = frame.f_back
    return "other"


def _is_idle(frame: Any) -> bool:
    return (frame.f_globals.get("__name__", ""), frame.f_code.co_name) in _IDLE_FRAMES


class Sampler:
    """``setitimer(ITIMER_PROF)`` sampler over all threads."""

    def __init__(self, interval: float = 0.004) -> None:
        self.interval = interval
        self.weights: Dict[str, float] = defaultdict(float)
        self.samples = 0
        self.idle_samples = 0
        self.handler_seconds = 0.0
        self._active = False
        self._previous: Any = None

    def _tick(self, _signum: int, frame: Any) -> None:
        started = time.perf_counter()
        main = threading.main_thread().ident
        busy = []
        for ident, thread_frame in sys._current_frames().items():
            if ident == main:
                thread_frame = frame
            if thread_frame is not None and not _is_idle(thread_frame):
                busy.append(thread_frame)
        self.samples += 1
        if not busy:
            self.idle_samples += 1
        for thread_frame in busy:
            self.weights[layer_of_frame(thread_frame)] += 1.0 / len(busy)
        self.handler_seconds += time.perf_counter() - started

    def start(self) -> None:
        if self._active:
            return
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self._active = True

    def stop(self) -> None:
        if not self._active:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self._active = False

    def shares(self) -> Dict[str, float]:
        """Self-time share per layer (every layer present, sums to 1)."""
        total = sum(self.weights.values())
        return {layer: (self.weights[layer] / total if total else 0.0) for layer in LAYERS}


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "tag")

    def __init__(self, name: str, start: float, parent: Optional["Span"], tag: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.size = 0
        self.tag = tag

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Boundary spans around public calls, patched in and restored."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        function: Callable[..., Any],
        size_of: Optional[Callable[[Any], int]] = None,
        tag_of: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped to record one span per call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return function(*args, **kwargs)
            stack = self._stack()
            tag = tag_of(*args, **kwargs) if tag_of is not None else None
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, tag)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
                if size_of is not None:
                    span.size = size_of(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.record(name, original, **options))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (duration minus child coverage)."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _union_length(
                [(c.start, c.end) for c in children.get(id(span), ())]
            )
            totals[span.name] += span.seconds - covered
        return dict(totals)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def install_boundary_spans(recorder: SpanRecorder) -> None:
    """Wrap the public layer boundaries the benchmark attributes time to."""
    import repro.api
    import repro.circuits.canonical
    import repro.dd.serialize
    import repro.serve.cache
    import repro.serve.worker
    from repro.serve.cache import ResultCache
    from repro.serve.worker import WarmWorker
    from repro.sim.simulator import Simulator

    recorder.patch(repro.api, "run", "api.run")
    recorder.patch(Simulator, "run", "sim.run")
    recorder.patch(repro.dd.serialize, "dumps", "serialize.dumps", size_of=len)
    for module in (repro.circuits.canonical, repro.serve.cache, repro.serve.worker):
        recorder.patch(module, "canonical_hash", "canonical.hash")
    recorder.patch(ResultCache, "get", "serve.cache.get")
    recorder.patch(ResultCache, "put", "serve.cache.put")
    recorder.patch(
        WarmWorker,
        "execute",
        "serve.worker.execute",
        tag_of=lambda _self, serve_request: serve_request.request.label,
    )


def span_metrics(recorder: SpanRecorder, requests: int) -> Dict[str, float]:
    """Serialization and canonical-hashing costs read off boundary spans."""
    dumps = recorder.named("serialize.dumps")
    hashes = recorder.named("canonical.hash")

    def mean_ms(spans: List[Span]) -> float:
        return 1000.0 * sum(span.seconds for span in spans) / len(spans) if spans else 0.0

    return {
        "serialize.dumps_ms": mean_ms(dumps),
        "serialize.payload_bytes": (
            sum(span.size for span in dumps) / len(dumps) if dumps else 0.0
        ),
        "canonical.hash_ms": mean_ms(hashes),
        "canonical.calls_per_request": len(hashes) / requests if requests else 0.0,
    }
