"""Tests for the repro.api facade: config validation, run, construction."""

import dataclasses
import inspect
import time
import warnings

import pytest

import repro
from repro import Circuit
from repro.api import (
    RunRequest,
    RunResult,
    SANITIZE_MODES,
    SYSTEMS,
    SimulatorConfig,
    make_simulator,
    run,
    run_with,
)
from repro.dd.manager import algebraic_manager
from repro.errors import ConfigError, JobTimeout
from repro.sim.simulator import Simulator


def bell(num_qubits: int = 2) -> Circuit:
    circuit = Circuit(num_qubits, name=f"bell{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


class TestSimulatorConfig:
    def test_defaults_are_valid(self):
        config = SimulatorConfig()
        assert config.system == "algebraic"
        assert config.label == "algebraic"

    def test_numeric_label_carries_eps(self):
        assert SimulatorConfig(system="numeric", eps=1e-5).label == "eps=1e-05"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"system": "bogus"},
            {"sanitize": "sometimes"},
            {"telemetry": "loud"},
            {"normalization": "rightmost"},
            {"precision": "quad"},
            {"eps": -1.0},
            {"gc": 0},
            {"max_nodes": 0},
            {"max_bytes": -5},
        ],
    )
    def test_validation_is_eager(self, kwargs):
        with pytest.raises(ConfigError):
            SimulatorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"gc": 100, "gc_min_yield": 2.0}, id="min-yield-above-1"),
            pytest.param({"gc_min_yield": -0.1}, id="min-yield-negative"),
            pytest.param({"gc_min_yield": float("nan")}, id="min-yield-nan"),
            pytest.param({"gc": True}, id="gc-bool"),
            pytest.param({"gc": 2.5}, id="gc-float"),
            pytest.param({"max_nodes": True}, id="max-nodes-bool"),
            pytest.param({"max_bytes": 1e6}, id="max-bytes-float"),
            pytest.param({"eps": float("nan")}, id="eps-nan"),
            pytest.param({"eps": float("inf")}, id="eps-inf"),
        ],
    )
    def test_gc_and_eps_values_are_checked_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            SimulatorConfig(**kwargs)

    def test_frozen_and_hashable(self):
        config = SimulatorConfig()
        with pytest.raises(Exception):
            config.system = "numeric"
        assert config in {config}

    def test_with_updates_revalidates(self):
        config = SimulatorConfig().with_updates(system="numeric", eps=1e-6)
        assert config.eps == 1e-6
        with pytest.raises(ConfigError):
            config.with_updates(eps=-1.0)

    def test_memory_config_shapes(self):
        assert SimulatorConfig().memory_config() is None
        gc_only = SimulatorConfig(gc=500).memory_config()
        assert gc_only is not None and gc_only.enabled and gc_only.threshold == 500
        budget_only = SimulatorConfig(max_nodes=100).memory_config()
        assert budget_only is not None and not budget_only.enabled
        assert budget_only.budget.max_nodes == 100

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_create_simulator_runs_every_system(self, system):
        config = SimulatorConfig(system=system, eps=1e-10)
        result = config.create_simulator(2).run(bell())
        assert result.node_count >= 1

    @pytest.mark.parametrize("mode", SANITIZE_MODES)
    def test_sanitize_modes_accepted(self, mode):
        simulator = SimulatorConfig(sanitize=mode).create_simulator(2)
        simulator.run(bell())
        assert (simulator.sanitizer is None) == (mode == "off")


class TestRun:
    def test_run_returns_transportable_result(self):
        result = run(RunRequest(bell()))
        assert isinstance(result, RunResult)
        assert result.label == "bell2/algebraic"
        assert result.num_gates == 2
        assert not result.is_zero_state
        assert result.metrics  # telemetry snapshot rode along
        manager, state = result.restore_state()
        assert manager.node_count(state) == result.node_count

    def test_error_reference_fills_error_series(self):
        request = RunRequest(
            bell(),
            SimulatorConfig(system="numeric", eps=1e-8),
            error_reference=SimulatorConfig(system="algebraic"),
        )
        result = run(request)
        assert result.final_error is not None and result.final_error < 1e-6
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)
        errors = [e for e in result.trace.errors() if e is not None]
        assert len(errors) == result.num_gates

    def test_deadline_bounds_the_error_reference_run(self):
        request = RunRequest(
            bell(3),
            SimulatorConfig(system="numeric"),
            error_reference=SimulatorConfig(system="algebraic"),
        )
        simulator = request.config.create_simulator(3)
        with pytest.raises(JobTimeout):
            run_with(request, simulator, deadline=time.perf_counter())
        # The reference run hit the deadline; the main run never started.
        assert simulator.telemetry.metrics.value("sim.gates") == 0

    def test_to_dict_is_json_ready(self):
        import json

        payload = json.dumps(run(RunRequest(bell())).to_dict())
        assert "state_payload" in payload


class TestDeprecation:
    def test_plain_construction_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Simulator(algebraic_manager(2))

    def test_simulator_takes_options_only_as_config(self):
        parameters = list(inspect.signature(Simulator).parameters)
        assert parameters == ["manager", "telemetry", "config"]
        assert len(dataclasses.fields(SimulatorConfig)) == 11

    def test_config_path_wires_sanitizer_and_gc(self):
        config = SimulatorConfig(sanitize="check-on-root", gc=100)
        simulator = make_simulator(config.create_manager(2), config)
        assert simulator.sanitizer is not None
        simulator.run(bell())


class TestReExports:
    def test_facade_names_on_the_package_root(self):
        assert repro.SimulatorConfig is SimulatorConfig
        assert repro.RunRequest is RunRequest
        assert repro.RunResult is RunResult
        assert repro.run is run
        for name in ("SimulatorConfig", "RunRequest", "RunResult", "run", "run_batch"):
            assert name in repro.__all__
