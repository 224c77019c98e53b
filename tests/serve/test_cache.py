"""ResultCache: canonical keys, LRU eviction, instrument wiring."""

import math

from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits.circuit import Circuit
from repro.obs import MetricsRegistry
from repro.serve.cache import ResultCache, request_key


def _request(name="bell", label=None, config=None):
    circuit = Circuit(2, name=name).h(0).cx(0, 1)
    return RunRequest(circuit, config or SimulatorConfig(), label=label)


def _cache(capacity=8):
    metrics = MetricsRegistry()
    return ResultCache(metrics, capacity=capacity), metrics


class TestKeying:
    def test_display_name_shares_entry(self):
        assert request_key(_request("a")) == request_key(_request("b"))

    def test_gate_spelling_shares_entry(self):
        spelled_t = RunRequest(Circuit(1).t(0), SimulatorConfig())
        spelled_p = RunRequest(Circuit(1).p(math.pi / 4, 0), SimulatorConfig())
        assert request_key(spelled_t) == request_key(spelled_p)

    def test_config_splits_entries(self):
        exact = _request(config=SimulatorConfig(system="algebraic"))
        lossy = _request(config=SimulatorConfig(system="numeric", eps=1e-5))
        assert request_key(exact) != request_key(lossy)

    def test_error_reference_splits_entries(self):
        plain = _request()
        with_ref = RunRequest(
            plain.circuit,
            plain.config,
            error_reference=SimulatorConfig(system="algebraic"),
        )
        assert request_key(plain) != request_key(with_ref)


class TestLookup:
    def test_miss_then_hit_with_counters(self):
        cache, metrics = _cache()
        request = _request()
        assert cache.get(request) is None
        cache.put(request, run(request))
        assert cache.get(request) is not None
        snap = metrics.snapshot()
        assert snap["serve.cache.hits"] == 1
        assert snap["serve.cache.misses"] == 1
        assert snap["serve.cache.size"] == 1

    def test_precomputed_key_matches_computed_key(self):
        cache, metrics = _cache()
        request = _request()
        key = request_key(request)
        assert cache.get(request, key) is None
        cache.put(request, run(request), key)
        assert cache.get(_request("renamed")) is not None
        assert cache.get(request, key) is not None
        assert metrics.snapshot()["serve.cache.hits"] == 2

    def test_hit_carries_the_incoming_label(self):
        cache, _ = _cache()
        first = _request("original", label="first-label")
        cache.put(first, run(first))
        hit = cache.get(_request("renamed", label="second-label"))
        assert hit is not None
        assert hit.label == "second-label"

    def test_hit_payload_matches_direct_run(self):
        cache, _ = _cache()
        request = _request()
        direct = run(request)
        cache.put(request, direct)
        hit = cache.get(_request("other-name"))
        assert hit.state_payload == direct.state_payload
        assert hit.node_count == direct.node_count


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache, metrics = _cache(capacity=2)
        requests = [
            RunRequest(
                Circuit(1, name=f"c{i}").rz(0.1 * (i + 1), 0),
                SimulatorConfig(system="numeric"),
            )
            for i in range(3)
        ]
        for request in requests:
            cache.put(request, run(request))
        assert len(cache) == 2
        assert cache.get(requests[0]) is None  # evicted
        assert cache.get(requests[2]) is not None
        assert metrics.snapshot()["serve.cache.evictions"] == 1

    def test_get_refreshes_recency(self):
        cache, _ = _cache(capacity=2)
        requests = [
            RunRequest(
                Circuit(1, name=f"c{i}").rz(0.1 * (i + 1), 0),
                SimulatorConfig(system="numeric"),
            )
            for i in range(3)
        ]
        cache.put(requests[0], run(requests[0]))
        cache.put(requests[1], run(requests[1]))
        cache.get(requests[0])  # now most-recent
        cache.put(requests[2], run(requests[2]))
        assert cache.get(requests[0]) is not None
        assert cache.get(requests[1]) is None  # the stale one went

    def test_capacity_zero_disables_caching(self):
        cache, metrics = _cache(capacity=0)
        request = _request()
        cache.put(request, run(request))
        assert cache.get(request) is None
        assert len(cache) == 0
        assert metrics.snapshot()["serve.cache.hits"] == 0
