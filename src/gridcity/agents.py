"""Walker and driver behavior: sensing, reaction rules, and kinematics.

Agents follow their planned route cell-center to cell-center.  Each step they
perceive a window around their next few route cells, pick exactly one decision
(stop, yield, decelerate, accelerate, replan, proceed), and move by their
current speed along the plan polyline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .environment import (
    Coord, Direction, DIRECTION_ORDER, DIRECTION_TABLE, GridMap, GroundType,
)
from .planner import BehaviorProfile, Plan, plan


class Status(Enum):
    ACTIVE = "active"
    PARKED = "parked"
    COLLIDED = "collided"
    DONE = "done"


class Decision(Enum):
    PROCEED = "proceed"
    STOP = "stop"
    DECELERATE = "decelerate"
    ACCELERATE = "accelerate"
    YIELD = "yield"
    REPLAN = "replan"


@dataclass
class AgentState:
    """Kinematic and lifecycle state of one walker or driver."""

    id: int
    kind: str  # 'walker' | 'driver'
    profile: BehaviorProfile
    position: tuple[float, float]
    heading: Direction | None
    speed: float
    plan: Plan | None
    cursor: int  # index of the next plan cell to reach
    status: Status = Status.ACTIVE
    countdown: int = 0
    goal: Coord | None = None

    def cell(self) -> Coord:
        return (int(math.floor(self.position[0])), int(math.floor(self.position[1])))


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
    return [s.cell for s in agent.plan.steps[agent.cursor:agent.cursor + lookahead]]


def candidates(index: dict, agent: AgentState, lookahead: int, reach: float) -> list:
    """Agents of the cell ``index`` that ``sense`` can see with radii up to
    ``reach``: those on cells within ``ceil(reach)`` of the bounding box of
    the agent's next ``lookahead`` plan cells.

    The bound is exact for any lane offset in [0, 1): a point closer than
    ``r`` to ``c + offset`` lies on a cell within ``c +- ceil(r)``.
    """
    window = _window(agent, lookahead)
    if not window:
        return []
    r = math.ceil(reach)
    xs = [c[0] for c in window]
    ys = [c[1] for c in window]
    y_range = range(min(ys) - r, max(ys) + r + 1)
    get = index.get
    found = []
    for x in range(min(xs) - r, max(xs) + r + 1):
        for y in y_range:
            on_cell = get((x, y))
            if on_cell:
                found += on_cell
    return found


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
    reach gives the same perception, so the engine passes ``candidates``.  An
    agent belongs to the window when its distance to some upcoming route cell
    center is strictly below ``radius``.  A driver also looks for active
    walkers (sidewalk-adjacent ones included) within ``yield_radius`` of an
    upcoming zebra cell center.
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


def act(
    agent: AgentState,
    decision: Decision,
    grid: GridMap,
    blocked: frozenset | set = frozenset(),
    accel: float = 1.0,
    decel: float = 1.0,
) -> bool:
    """Apply the decision's speed update, then advance along the plan.

    Returns True when the decision replaced the plan (successful replan).
    A failed replan leaves the old plan in place and waits this step.
    """
    replanned = False
    if decision in (Decision.STOP, Decision.YIELD):
        agent.speed = 0.0
    elif decision is Decision.DECELERATE:
        agent.speed = max(0.0, agent.speed - decel)
    elif decision is Decision.ACCELERATE:
        agent.speed = min(agent.profile.max_speed, agent.speed + accel)
    elif decision is Decision.PROCEED:
        if agent.kind == "walker":
            agent.speed = agent.profile.max_speed
    elif decision is Decision.REPLAN:
        new_plan = None
        if agent.goal is not None:
            new_plan = plan(
                grid,
                agent.cell(),
                agent.goal,
                agent.profile,
                blocked=blocked,
                heading=agent.heading,
            )
        if new_plan is None:
            agent.speed = 0.0
        else:
            agent.plan = new_plan
            agent.cursor = 1 if len(new_plan) > 1 else len(new_plan)
            replanned = True
            if agent.kind == "walker":
                agent.speed = agent.profile.max_speed
            else:
                agent.speed = min(agent.profile.max_speed, agent.speed + accel)
    _advance(agent, grid)
    return replanned


def _direction_between(a: Coord, b: Coord) -> Direction | None:
    delta = (b[0] - a[0], b[1] - a[1])
    for d, row in zip(DIRECTION_ORDER, DIRECTION_TABLE):
        if row[:2] == delta:
            return d
    return None


def _advance(agent: AgentState, grid: GridMap) -> None:
    """Move by the current speed along the plan polyline of cell centers."""
    if agent.plan is None:
        return
    steps = agent.plan.steps
    budget = agent.speed
    x, y = agent.position
    while budget > 1e-12 and agent.cursor < len(steps):
        tx, ty = grid.center(steps[agent.cursor].cell)
        dx, dy = tx - x, ty - y
        dist = math.hypot(dx, dy)
        if dist <= budget + 1e-12:
            x, y = tx, ty
            budget -= dist
            if agent.kind == "driver" and agent.cursor >= 1:
                d = _direction_between(
                    steps[agent.cursor - 1].cell, steps[agent.cursor].cell
                )
                if d is not None:
                    agent.heading = d
            agent.cursor += 1
        else:
            x += dx / dist * budget
            y += dy / dist * budget
            if agent.kind == "driver":
                if abs(dx) >= abs(dy):
                    agent.heading = Direction.EAST if dx > 0 else Direction.WEST
                else:
                    agent.heading = Direction.SOUTH if dy > 0 else Direction.NORTH
            budget = 0.0
    agent.position = (x, y)
