"""Queue-based traffic simulator with pressure-driven signal control."""

from pressim.control import ControllerConfig, make_controllers
from pressim.network import (
    PhaseScheme,
    RoadNetwork,
    Turn,
    build_grid,
    load_network,
    save_network,
    validate,
)
from pressim.pressure import RewardKind, StateKind, extract_state
from pressim.sim import (
    ConfigurationError,
    FlowSpec,
    SimConfig,
    Simulation,
    load_flows,
    save_flows,
)

__all__ = [
    "ConfigurationError",
    "ControllerConfig",
    "FlowSpec",
    "PhaseScheme",
    "RewardKind",
    "RoadNetwork",
    "SimConfig",
    "Simulation",
    "StateKind",
    "Turn",
    "build_grid",
    "extract_state",
    "load_flows",
    "load_network",
    "make_controllers",
    "save_flows",
    "save_network",
    "validate",
]

__version__ = "0.1.0"
