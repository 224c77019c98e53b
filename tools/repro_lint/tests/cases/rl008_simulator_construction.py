# lint-path: src/repro/evalsuite/rogue_driver.py
"""RL008: Simulator construction belongs to the repro.api facade."""

from repro import sim
from repro.api import SimulatorConfig, make_simulator
from repro.sim.simulator import Simulator


def rogue(manager, circuit):
    config = SimulatorConfig(sanitize="check-on-root")
    simulator = Simulator(manager, config=config)  # lint-expect: RL008
    qualified = sim.simulator.Simulator(manager)  # lint-expect: RL008
    return simulator.run(circuit), qualified


def fine(manager, circuit):
    # The blessed paths: the facade validates and wires everything.
    config = SimulatorConfig(sanitize="check-on-root")
    by_manager = make_simulator(manager, config)
    by_config = config.create_simulator(circuit.num_qubits)
    return by_manager.run(circuit), by_config
