"""Classical signal controllers: fixed-time cycling and the pressure greedy.

All three controllers share the same cadence: the engine polls them after
every ``t_duration`` seconds of green and they return a phase id. ``mp``
and ``efficient-mp`` are one ``PressureController`` scored two ways: it
picks the argmax of a per-phase pressure, or efficient pressure, computed
from the live queue state; ties go to the lowest phase index so decisions
are deterministic. An argmax is taken even when every score is negative:
some phase runs regardless, so pick the least bad.

The controller reads its scores through ``pressure.phase_scores``, which
returns phase i's score at position i; phase ids are their positions, as
the engine assumes too and ``network.validate`` checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from pressim.network import Phase, RoadNetwork
from pressim.pressure import phase_scores
from pressim.sim import ConfigurationError, SimState


@dataclass(frozen=True)
class ControllerConfig:
    t_duration: float = 15.0

    def __post_init__(self) -> None:
        if not 0 < self.t_duration < math.inf:  # NaN fails it too
            raise ConfigurationError("t_duration must be positive and finite")


def _argmax_lowest(values: Sequence[float]) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def fixed_time_decide(current_phase: int, phases: Sequence[Phase]) -> int:
    """Next phase in cyclic order; phase ids are their positions."""
    return (current_phase + 1) % len(phases)


class Controller:
    """Base for controllers the engine can poll.

    Subclasses implement ``observe`` (snapshot whatever the decision needs)
    and ``decide``. The episode hooks are no-ops here; learning controllers
    override them.
    """

    def __init__(self, config: Optional[ControllerConfig] = None):
        self.config = config or ControllerConfig()

    @property
    def t_duration(self) -> float:
        return self.config.t_duration

    def observe(self, state: SimState, net: RoadNetwork, intersection: str) -> object:
        raise NotImplementedError

    def decide(self, observation: object, intersection: str) -> int:
        raise NotImplementedError

    def begin_episode(self, sim: object) -> None:
        pass

    def end_episode(self, sim: object) -> None:
        pass


class FixedTimeController(Controller):
    """Equal green for every phase, visited in a fixed cycle."""

    def observe(self, state: SimState, net: RoadNetwork, intersection: str):
        inter = net.intersection_index[intersection]
        return (state.signals[intersection].active, inter.phases)

    def decide(self, observation, intersection: str) -> int:
        current, phases = observation
        return fixed_time_decide(current, phases)


class PressureController(Controller):
    """Phase with maximum phase pressure, or with maximum phase efficient
    pressure when ``efficient``: one greedy rule, scored two ways."""

    def __init__(self, config: Optional[ControllerConfig] = None, efficient: bool = False):
        super().__init__(config)
        self.efficient = efficient

    def observe(self, state: SimState, net: RoadNetwork, intersection: str):
        return phase_scores(state, net, intersection, self.efficient)

    def decide(self, observation, intersection: str) -> int:
        return _argmax_lowest(observation)


CLASSICAL_CONTROLLERS = {
    "fixedtime": FixedTimeController,
    "mp": PressureController,
    "efficient-mp": functools.partial(PressureController, efficient=True),
}


def make_controllers(
    net: RoadNetwork, name: str, config: Optional[ControllerConfig] = None
) -> dict[str, Controller]:
    """One shared controller instance mapped over every intersection."""
    try:
        make = CLASSICAL_CONTROLLERS[name]
    except KeyError:
        raise ConfigurationError(f"unknown controller {name!r}") from None
    ctrl = make(config)
    return {i.id: ctrl for i in net.intersections}
