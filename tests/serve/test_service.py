"""SimulationService end-to-end: byte-identity, client paths, tracing.

The service's core contract -- cache hit, warm run and cold run all
produce payloads byte-identical to the direct repro.api.run path -- is
asserted here across all four number systems.
"""

import os
import signal
import threading
import time

import pytest

from repro import errors
from repro.api import RunRequest, SimulatorConfig, run, run_batch
from repro.circuits.circuit import Circuit
from repro.circuits.library import ghz_circuit
from repro.obs import Telemetry
from repro.serve import SimulationService
from repro.sim.simulator import Simulator

FOUR_SYSTEMS = [
    pytest.param(SimulatorConfig(system="algebraic"), id="algebraic"),
    pytest.param(SimulatorConfig(system="algebraic-gcd"), id="algebraic-gcd"),
    pytest.param(SimulatorConfig(system="numeric", eps=1e-10), id="numeric-eps"),
    pytest.param(
        SimulatorConfig(system="numeric", precision="single"), id="numeric-single"
    ),
]


def _workload(name="serve-e2e"):
    circuit = Circuit(4, name=name)
    circuit.h(0).t(0).cx(0, 1).h(2).s(2).cx(2, 3).ccx(0, 2, 3).tdg(1)
    return circuit


def _fingerprint(result):
    return (
        result.state_payload,
        result.node_count,
        result.is_zero_state,
        result.final_error,
        result.fidelity,
        tuple(result.trace.node_counts()),
    )


class TestByteIdentity:
    @pytest.mark.parametrize("config", FOUR_SYSTEMS)
    def test_miss_and_hit_match_direct_run(self, config):
        request = RunRequest(_workload(), config)
        direct = run(request)
        with SimulationService(workers=2) as service:
            miss = service.submit(request)
            hit = service.submit(request)
            stats = service.stats()
        assert _fingerprint(miss) == _fingerprint(direct)
        assert _fingerprint(hit) == _fingerprint(direct)
        assert stats["serve.cache.misses"] == 1
        assert stats["serve.cache.hits"] == 1

    @pytest.mark.parametrize("config", FOUR_SYSTEMS)
    def test_warm_rerun_matches_with_cache_off(self, config):
        # Cache disabled: the second request really re-simulates on the
        # warm worker tables and must still be byte-identical.
        request = RunRequest(_workload(), config)
        direct = run(request)
        with SimulationService(workers=1, cache_capacity=0) as service:
            first = service.submit(request)
            second = service.submit(request)
        assert _fingerprint(first) == _fingerprint(direct)
        assert _fingerprint(second) == _fingerprint(direct)

    def test_process_mode_matches_direct_run(self):
        request = RunRequest(_workload(), SimulatorConfig())
        direct = run(request)
        with SimulationService(workers=1, mode="process") as service:
            got = service.submit(request)
            again = service.submit(RunRequest(_workload("renamed"), SimulatorConfig()))
            stats = service.stats()
        assert got.state_payload == direct.state_payload
        # Canonical hashing: the renamed copy hits the cache.
        assert stats["serve.cache.hits"] == 1
        assert again.state_payload == direct.state_payload


class TestClientPaths:
    def test_run_accepts_client(self):
        request = RunRequest(_workload(), SimulatorConfig())
        direct = run(request)
        with SimulationService(workers=1) as service:
            via_client = run(request, client=service)
        assert via_client.state_payload == direct.state_payload

    def test_run_batch_accepts_client(self):
        requests = [
            RunRequest(ghz_circuit(n), SimulatorConfig(), label=f"ghz{n}")
            for n in (2, 3, 4)
        ]
        direct = run_batch(requests)
        with SimulationService(workers=2) as service:
            batch = run_batch(requests, client=service)
        assert batch.ok
        assert batch.workers == 2
        assert [r.label for r in batch.completed] == ["ghz2", "ghz3", "ghz4"]
        for via_service, reference in zip(batch.results, direct.results):
            assert via_service.state_payload == reference.state_payload
        assert batch.metrics["serve.requests"] == 3

    def test_run_batch_records_typed_rejections_as_failures(self):
        good = RunRequest(ghz_circuit(3), SimulatorConfig(), label="good")
        bad = RunRequest(
            Circuit(1, name="bad").p(0.1, 0),
            SimulatorConfig(system="algebraic"),
            label="bad",
        )
        with SimulationService(workers=1) as service:
            batch = run_batch([good, bad], client=service)
        assert not batch.ok
        assert batch.results[0] is not None and batch.results[1] is None
        (failure,) = batch.failures
        assert failure.index == 1
        assert failure.label == "bad"
        assert failure.error_type == "ServeError"


class TestLifecycle:
    def test_submit_before_start_and_after_close(self):
        service = SimulationService(workers=1)
        request = RunRequest(ghz_circuit(2), SimulatorConfig())
        with pytest.raises(errors.ServiceClosed):
            service.submit(request)
        service.start()
        service.submit(request)
        service.close()
        with pytest.raises(errors.ServiceClosed):
            service.submit(request)
        with pytest.raises(errors.ServiceClosed):
            service.start()

    def test_config_validation(self):
        with pytest.raises(errors.ConfigError):
            SimulationService(workers=0)
        with pytest.raises(errors.ConfigError):
            SimulationService(mode="threads")


class TestTracing:
    def test_request_span_with_reparented_worker_spans(self):
        request = RunRequest(_workload(), SimulatorConfig())
        with SimulationService(workers=1, telemetry=Telemetry.tracing()) as service:
            service.submit(request)
            spans = service.telemetry.tracer.spans()
            trace_id = service._frontend.trace_id
        names = [span.name for span in spans]
        assert "serve.request" in names
        assert "exec.job" in names
        assert "sim.gate" in names
        request_span = next(s for s in spans if s.name == "serve.request")
        job_span = next(s for s in spans if s.name == "exec.job")
        # The worker's exec.job span was re-parented under serve.request.
        assert job_span.depth == request_span.depth + 1
        assert job_span.attrs["trace_id"] == trace_id
        assert job_span.attrs["parent_span_id"] == request_span.attrs["span_id"]

    def test_process_mode_ships_spans_across_the_pipe(self):
        request = RunRequest(_workload(), SimulatorConfig())
        with SimulationService(
            workers=1, mode="process", telemetry=Telemetry.tracing()
        ) as service:
            service.submit(request)
            names = {span.name for span in service.telemetry.tracer.spans()}
        assert {"serve.request", "exec.job", "sim.gate"} <= names

    def test_tracing_off_records_nothing(self):
        request = RunRequest(_workload(), SimulatorConfig())
        with SimulationService(workers=1) as service:
            service.submit(request)
            assert service.telemetry.tracer.spans() == []


class TestWarmReuse:
    def test_worker_reuses_and_bounds_warm_entries(self):
        from repro.serve.protocol import ServeRequest
        from repro.serve.worker import WarmWorker, WorkerOptions

        worker = WarmWorker(0, WorkerOptions(max_warm=2), serialize_spans=False)
        request = RunRequest(_workload(), SimulatorConfig())
        cold = worker.execute(ServeRequest(seq=1, request=request))
        warm = worker.execute(ServeRequest(seq=2, request=request))
        assert cold.outcome.ok and warm.outcome.ok
        assert not cold.warm and warm.warm
        assert cold.outcome.result.state_payload == warm.outcome.result.state_payload
        # Three distinct configs through a max_warm=2 worker: LRU bound.
        for index, system in enumerate(("algebraic-gcd", "numeric")):
            worker.execute(
                ServeRequest(
                    seq=3 + index,
                    request=RunRequest(_workload(), SimulatorConfig(system=system)),
                )
            )
        assert worker.warm_entries == 2

    def test_failed_request_discards_its_warm_entry(self):
        from repro.serve.protocol import ServeRequest
        from repro.serve.worker import WarmWorker, WorkerOptions

        worker = WarmWorker(0, WorkerOptions(), serialize_spans=False)
        config = SimulatorConfig(system="algebraic")
        good = RunRequest(Circuit(1).t(0), config)
        worker.execute(ServeRequest(seq=1, request=good))
        assert worker.warm_entries == 1
        bad = RunRequest(Circuit(1, name="bad").p(0.1, 0), config)
        response = worker.execute(ServeRequest(seq=2, request=bad))
        assert not response.outcome.ok
        # The 1-qubit algebraic entry (shared key) was dropped.
        assert worker.warm_entries == 0

    def test_lossy_numeric_entries_are_per_circuit(self):
        from repro.serve.protocol import ServeRequest
        from repro.serve.worker import WarmWorker, WorkerOptions

        worker = WarmWorker(0, WorkerOptions(), serialize_spans=False)
        config = SimulatorConfig(system="numeric", eps=1e-5)
        first = Circuit(2, name="a").h(0).t(0).cx(0, 1)
        second = Circuit(2, name="b").h(0).s(0).cx(0, 1)
        worker.execute(ServeRequest(seq=1, request=RunRequest(first, config)))
        worker.execute(ServeRequest(seq=2, request=RunRequest(second, config)))
        # Different structures never share a lossy tolerance table.
        assert worker.warm_entries == 2
        # eps=0 numerics do share (value-based, history-free).
        exact_numeric = SimulatorConfig(system="numeric")
        worker2 = WarmWorker(1, WorkerOptions(), serialize_spans=False)
        worker2.execute(ServeRequest(seq=1, request=RunRequest(first, exact_numeric)))
        worker2.execute(ServeRequest(seq=2, request=RunRequest(second, exact_numeric)))
        assert worker2.warm_entries == 1


def _long_circuit(num_gates=100):
    circuit = Circuit(2, name=f"long{num_gates}")
    for index in range(num_gates):
        circuit.h(index % 2)
    return circuit


@pytest.fixture
def slow_gates(monkeypatch):
    """Every gate application sleeps 10 ms (forked workers inherit it)."""
    apply = Simulator._apply_operation

    def slow(self, state, operation):
        time.sleep(0.01)
        return apply(self, state, operation)

    monkeypatch.setattr(Simulator, "_apply_operation", slow)


class TestDeadlines:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_deadline_stops_the_run_and_frees_the_shard(self, mode, slow_gates):
        # The long request needs >= 1 s; its deadline is 0.2 s.  The
        # worker must stop at a gate boundary, so the tiny request that
        # follows on the same (only) shard does not wait for the rest.
        tiny = RunRequest(ghz_circuit(2), SimulatorConfig())
        with SimulationService(workers=1, mode=mode, cache_capacity=0) as service:
            with pytest.raises(errors.DeadlineExceeded):
                service.submit(RunRequest(_long_circuit(), SimulatorConfig()), timeout=0.2)
            started = time.perf_counter()
            result = service.submit(tiny)
            tiny_seconds = time.perf_counter() - started
            stats = service.stats()
        assert tiny_seconds < 0.5
        assert result.state_payload == run(tiny).state_payload
        assert stats["serve.rejected.deadline"] == 1


class TestWorkerRestart:
    def test_killed_idle_worker_is_replaced(self):
        request = RunRequest(_workload(), SimulatorConfig())
        direct = run(request)
        with SimulationService(workers=1, mode="process", cache_capacity=0) as service:
            service.submit(request)
            (client,) = service._frontend.clients
            os.kill(client._process.pid, signal.SIGKILL)
            client._process.join(timeout=5.0)
            result = service.submit(request)
            stats = service.stats()
        assert result.state_payload == direct.state_payload
        assert stats["serve.worker.restarts"] == 1

    def test_death_mid_request_is_typed_and_the_shard_recovers(self, slow_gates):
        request = RunRequest(_workload(), SimulatorConfig())
        with SimulationService(workers=1, mode="process", cache_capacity=0) as service:
            (client,) = service._frontend.clients
            killer = threading.Timer(
                0.3, os.kill, args=(client._process.pid, signal.SIGKILL)
            )
            killer.start()
            with pytest.raises(errors.ServeError, match="died mid-request"):
                service.submit(RunRequest(_long_circuit(), SimulatorConfig()))
            killer.join(timeout=5.0)
            assert not killer.is_alive()
            result = service.submit(request)
            stats = service.stats()
        assert result.state_payload == run(request).state_payload
        assert stats["serve.worker.restarts"] == 1
