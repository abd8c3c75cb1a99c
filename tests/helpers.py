"""Shared test fixtures: random grids, tiny hand-written maps, agent and
population factories."""
from __future__ import annotations

import math
import random

from gridcity.environment import (
    CellCode,
    Coord,
    DIRECTION_ORDER,
    FLOW_GROUNDS,
    GridMap,
    GroundType,
    parse_grid,
)
from gridcity.agents import AgentState, Population, Status
from gridcity.planner import BehaviorProfile, Plan, classify_action, default_heading

_GROUND_WEIGHTS = [
    (GroundType.ROAD, 0.30),
    (GroundType.SIDEWALK, 0.22),
    (GroundType.BUILDING, 0.10),
    (GroundType.ZEBRA, 0.08),
    (GroundType.PARKING, 0.05),
    (GroundType.TURN, 0.05),
    (GroundType.LEFT_TURN, 0.03),
    (GroundType.POTHOLE, 0.07),
    (GroundType.OBSTACLE, 0.10),
]


def random_grid(rng: random.Random, width: int = 15, height: int = 15) -> GridMap:
    """Mixed-ground random grid with valid flow annotations."""
    grounds = [g for g, _ in _GROUND_WEIGHTS]
    weights = [w for _, w in _GROUND_WEIGHTS]
    rows = []
    for _ in range(height):
        row = []
        for _ in range(width):
            ground = rng.choices(grounds, weights=weights, k=1)[0]
            if ground in FLOW_GROUNDS:
                count = 1 if rng.random() < 0.8 else 2
                flow = frozenset(rng.sample(DIRECTION_ORDER, count))
            else:
                flow = frozenset()
            row.append(CellCode(ground, flow))
        rows.append(row)
    return GridMap.build(rows)


def rows_of(grid: GridMap) -> list:
    """The grid's cells as rows of CellCode, indexed ``[y][x]``."""
    return [[grid.cell_at((x, y)) for x in range(grid.width)] for y in range(grid.height)]


def traversable_cells(grid: GridMap, kind: str) -> list:
    cost = grid.costs(kind)
    return [
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if cost[y * grid.width + x] != math.inf
    ]


def random_instance(rng: random.Random, kind: str, width: int = 15, height: int = 15):
    """(grid, start, goal) with distinct traversable endpoints for the kind."""
    while True:
        grid = random_grid(rng, width, height)
        cells = traversable_cells(grid, kind)
        if len(cells) < 2:
            continue
        start = rng.choice(cells)
        goal = rng.choice(cells)
        if start != goal:
            return grid, start, goal


def grid_of(*rows: str) -> GridMap:
    """Build a grid from rows of space-separated tokens."""
    width = len(rows[0].split())
    text = f"{width} {len(rows)}\n" + "\n".join(rows) + "\n"
    return parse_grid(text)


def straight_plan(cells) -> Plan:
    """Hand-built plan through the given cells (costs left at zero)."""
    return Plan(tuple(cells), 0.0, 0.0, 0)


def route_actions(grid: GridMap, route, heading=None) -> list:
    """The driver maneuver of each move along ``route``, a sequence of cells.

    The heading starts at ``heading`` (by default the start cell's
    ``default_heading``) and after each move becomes that move's direction,
    as in the planner's (cell, heading) states.
    """
    if heading is None:
        heading = default_heading(grid, route[0])
    actions = []
    for frm, to in zip(route, route[1:]):
        actions.append(classify_action(grid, frm, to, heading))
        heading = next(d for d in DIRECTION_ORDER if (frm[0] + d.dx, frm[1] + d.dy) == to)
    return actions


def make_agent(
    agent_id: int,
    kind: str,
    position,
    plan: Plan | None = None,
    cursor: int = 1,
    speed: float = 0.0,
    heading=None,
    status: Status = Status.ACTIVE,
    max_speed: float = 2.0,
    goal=None,
    w: float = 1.0,
    alpha: float = 0.0,
) -> AgentState:
    profile = BehaviorProfile(kind=kind, w=w, alpha=alpha, max_speed=max_speed)
    if goal is None and plan is not None:
        goal = plan.cells[-1]
    return AgentState(
        id=agent_id,
        profile=profile,
        position=position,
        heading=heading,
        speed=speed,
        plan=plan,
        cursor=cursor,
        status=status,
        goal=goal,
    )


def cell_of(agent: AgentState) -> Coord:
    """The cell an agent's position lies on."""
    return (int(math.floor(agent.position[0])), int(math.floor(agent.position[1])))


def population(agents) -> Population:
    """The agents, in ascending id order, as the columns of a Population."""
    pop = Population()
    pop.extend(list(agents))
    return pop
