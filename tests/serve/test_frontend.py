"""ServiceFrontend backpressure and deadline contract (fake workers).

pytest-asyncio is not a dependency of this repo: every test drives its
coroutine with asyncio.run() from a plain sync function.
"""

import asyncio
import threading
import time

import pytest

from repro import errors
from repro.api import RunRequest, SimulatorConfig, run
from repro.circuits.library import ghz_circuit
from repro.exec.batch import JobOutcome
from repro.serve.frontend import ServiceFrontend
from repro.serve.protocol import ServeResponse
from repro.serve.worker import InlineWorkerClient


class BlockingClient:
    """A worker client that parks until released (deterministic jams)."""

    def __init__(self, worker_id=0):
        self.worker_id = worker_id
        self.release = threading.Event()
        self.executed = []

    def execute(self, serve_request):
        self.release.wait(timeout=10.0)
        self.executed.append(serve_request.seq)
        return ServeResponse(
            seq=serve_request.seq,
            worker_id=self.worker_id,
            outcome=JobOutcome(error_type="Blocked", message="released without a result"),
        )

    def close(self):
        self.release.set()


def _request(qubits=3, label=None):
    return RunRequest(ghz_circuit(qubits), SimulatorConfig(), label=label)


class TestBackpressure:
    def test_queue_full_is_a_typed_rejection(self):
        client = BlockingClient()

        async def scenario():
            frontend = ServiceFrontend([client], queue_size=1, cache_capacity=0)
            await frontend.start()
            try:
                # First request occupies the worker; second fills the
                # queue; the third must bounce.
                first = asyncio.create_task(frontend.submit(_request(label="a")))
                await asyncio.sleep(0.05)
                second = asyncio.create_task(frontend.submit(_request(label="b")))
                await asyncio.sleep(0.05)
                with pytest.raises(errors.QueueFull):
                    await frontend.submit(_request(label="c"))
                stats = frontend.stats()
                assert stats["serve.rejected.queue_full"] == 1
                client.release.set()
                for task in (first, second):
                    with pytest.raises(errors.ServeError):
                        await task
            finally:
                client.release.set()
                await frontend.close()

        asyncio.run(scenario())

    def test_deadline_expired_in_queue_never_reaches_worker(self):
        client = BlockingClient()

        async def scenario():
            frontend = ServiceFrontend([client], queue_size=4, cache_capacity=0)
            await frontend.start()
            try:
                blocker = asyncio.create_task(frontend.submit(_request(label="jam")))
                await asyncio.sleep(0.05)
                with pytest.raises(errors.DeadlineExceeded):
                    await frontend.submit(_request(label="late"), timeout=0.01)
                stats = frontend.stats()
                assert stats["serve.rejected.deadline"] >= 1
                client.release.set()
                with pytest.raises(errors.ServeError):
                    await blocker
                # The expired request was dropped, not executed.
                assert len(client.executed) == 1
            finally:
                client.release.set()
                await frontend.close()

        asyncio.run(scenario())

    def test_submit_after_close_raises_service_closed(self):
        async def scenario():
            frontend = ServiceFrontend([InlineWorkerClient(0)], cache_capacity=0)
            await frontend.start()
            await frontend.close()
            with pytest.raises(errors.ServiceClosed):
                await frontend.submit(_request())

        asyncio.run(scenario())


class TestDispatch:
    def test_requests_flow_and_instruments_move(self):
        async def scenario():
            frontend = ServiceFrontend([InlineWorkerClient(0)], cache_capacity=8)
            await frontend.start()
            try:
                direct = run(_request(label="ref"))
                miss = await frontend.submit(_request(label="ref"))
                hit = await frontend.submit(_request(label="ref"))
                assert miss.state_payload == direct.state_payload
                assert hit.state_payload == direct.state_payload
                stats = frontend.stats()
                assert stats["serve.requests"] == 2
                assert stats["serve.cache.hits"] == 1
                assert stats["serve.cache.misses"] == 1
                assert stats["serve.request.seconds"]["count"] == 2
                assert stats["serve.worker.busy"] == 0
            finally:
                await frontend.close()

        asyncio.run(scenario())

    def test_worker_failure_surfaces_as_serve_error(self):
        async def scenario():
            frontend = ServiceFrontend([InlineWorkerClient(0)], cache_capacity=8)
            await frontend.start()
            try:
                # 3-qubit circuit routed to a worker is fine, but a gate
                # with no exact representation fails inside the worker.
                from repro.circuits.circuit import Circuit

                bad = Circuit(1).p(0.1, 0)  # not Clifford+T-exact
                with pytest.raises(errors.ServeError):
                    await frontend.submit(
                        RunRequest(bad, SimulatorConfig(system="algebraic"))
                    )
            finally:
                await frontend.close()

        asyncio.run(scenario())

    def test_failures_are_not_cached(self):
        async def scenario():
            frontend = ServiceFrontend([InlineWorkerClient(0)], cache_capacity=8)
            await frontend.start()
            try:
                from repro.circuits.circuit import Circuit

                bad = RunRequest(Circuit(1).p(0.1, 0), SimulatorConfig())
                for _ in range(2):
                    with pytest.raises(errors.ServeError):
                        await frontend.submit(bad)
                stats = frontend.stats()
                assert stats["serve.cache.size"] == 0
                assert stats["serve.cache.misses"] == 2
            finally:
                await frontend.close()

        asyncio.run(scenario())

    def test_one_canonical_hash_per_request(self, monkeypatch):
        import repro.serve.cache

        calls = []
        real = repro.serve.cache.canonical_hash

        def counting(circuit, config=None):
            calls.append(circuit.name)
            return real(circuit, config)

        monkeypatch.setattr(repro.serve.cache, "canonical_hash", counting)

        async def scenario():
            frontend = ServiceFrontend([InlineWorkerClient(0)], cache_capacity=8)
            await frontend.start()
            try:
                request = _request(label="once")
                await frontend.submit(request)  # algebraic miss: get + put
                assert len(calls) == 1
                await frontend.submit(request)  # hit
                assert len(calls) == 2
                stats = frontend.stats()
                assert stats["serve.cache.misses"] == 1
                assert stats["serve.cache.hits"] == 1
            finally:
                await frontend.close()

        asyncio.run(scenario())
