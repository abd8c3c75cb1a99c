"""Per-agent reference for ``gridcity.agents.decide``.

Each agent senses the whole population on its own, then one rule function
picks its decision.  This is the loop that ``decide`` replaced, kept as the
reference that the property test compares the array pass against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from gridcity.agents import AgentState, Decision, Status
from gridcity.environment import Coord, GridMap, GroundType


@dataclass(frozen=True)
class Perception:
    """What one agent saw this step within its sensing window."""

    nearby: tuple  # AgentState entries within the window
    vehicle_conflict: bool  # an active driver is inside the window
    conflict_index: int | None  # window slot (0 = next cell) of the nearest active agent
    pedestrian_near_zebra: bool  # walker within yield radius of an upcoming zebra
    blocked_cells: frozenset  # upcoming plan cells occupied by inactive agents


_NOTHING_SEEN = Perception((), False, None, False, frozenset())


def _window(agent: AgentState, lookahead: int) -> list[Coord]:
    """The agent's next ``lookahead`` plan cells."""
    if agent.plan is None:
        return []
    return list(agent.plan.cells[agent.cursor:agent.cursor + lookahead])


def sense(
    agent: AgentState,
    others,
    grid: GridMap,
    lookahead: int = 4,
    radius: float = 1.0,
    yield_radius: float = 1.5,
) -> Perception:
    """Perceive agents near the next ``lookahead`` plan cells.

    ``others`` holds pre-step agent states; any superset of the agents within
    reach gives the same perception.  An agent belongs to the window when its
    distance to some upcoming route cell center is strictly below ``radius``.
    A driver also looks for active walkers (sidewalk-adjacent ones included)
    within ``yield_radius`` of an upcoming zebra cell center.
    """
    window = _window(agent, lookahead)
    if not window:
        return _NOTHING_SEEN
    centers = []
    zebra_centers = []
    check_zebras = agent.kind == "driver"
    for c in window:
        center = grid.center(c)
        centers.append(center)
        if check_zebras and grid.ground_at(c) is GroundType.ZEBRA:
            zebra_centers.append(center)
    r2 = radius * radius
    y2 = yield_radius * yield_radius

    nearby = []
    blocked = set()
    conflict_index: int | None = None
    vehicle_conflict = False
    pedestrian_near_zebra = False
    my_id = agent.id
    for other in others:
        if other.id == my_id:
            continue
        active = other.status is Status.ACTIVE
        ox, oy = other.position
        for slot, (cx, cy) in enumerate(centers):
            dx, dy = ox - cx, oy - cy
            if dx * dx + dy * dy < r2:
                nearby.append(other)
                if active:
                    if conflict_index is None or slot < conflict_index:
                        conflict_index = slot
                    if other.kind == "driver":
                        vehicle_conflict = True
                break
        if not active:
            cell = other.cell()
            if cell in window:
                blocked.add(cell)
        elif zebra_centers and not pedestrian_near_zebra and other.kind == "walker":
            for cx, cy in zebra_centers:
                dx, dy = ox - cx, oy - cy
                if dx * dx + dy * dy < y2:
                    pedestrian_near_zebra = True
                    break

    if not (nearby or blocked or pedestrian_near_zebra):
        return _NOTHING_SEEN
    return Perception(
        nearby=tuple(nearby),
        vehicle_conflict=vehicle_conflict,
        conflict_index=conflict_index,
        pedestrian_near_zebra=pedestrian_near_zebra,
        blocked_cells=frozenset(blocked),
    )


def react_walker(agent: AgentState, perception: Perception, grid: GridMap) -> Decision:
    """Stop for active vehicles, except on a zebra where the walker has
    right-of-way; replan around inactive blockers; otherwise proceed."""
    on_zebra = grid.ground_at(agent.cell()) is GroundType.ZEBRA
    if on_zebra:
        return Decision.REPLAN if perception.blocked_cells else Decision.PROCEED
    if perception.vehicle_conflict:
        return Decision.STOP
    if perception.blocked_cells:
        return Decision.REPLAN
    return Decision.PROCEED


def react_driver(agent: AgentState, perception: Perception) -> Decision:
    """Yield at upcoming zebras with pedestrians nearby, brake for agents
    inside the braking window, replan around inactive blockers, else
    accelerate to max speed.

    The braking window scales with the current speed (stopping distance plus
    one cell), so sensed-but-distant agents do not freeze traffic.
    """
    if perception.pedestrian_near_zebra:
        return Decision.YIELD
    if perception.conflict_index is not None:
        if perception.conflict_index <= math.ceil(agent.speed):
            return Decision.DECELERATE
    if perception.blocked_cells:
        return Decision.REPLAN
    return Decision.ACCELERATE
