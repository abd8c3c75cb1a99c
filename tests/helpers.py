"""Shared test fixtures: random grids, tiny hand-written maps, a parking
city, agent and population factories, and a step's population count; and
the readers only tests need: a plan's cells, a cell's flow and a driver
move's maneuver."""
from __future__ import annotations

import math
import random
from array import array

import numpy as np

from gridcity.environment import (
    Coord,
    Direction,
    DIRECTION_OF_STEP,
    FLOW_GROUNDS,
    GridMap,
    GroundType,
    LayoutSpec,
    _GROUND_LETTERS,
    generate_layout,
    parse_grid,
    serialize_grid,
)
from gridcity.agents import AgentState, Population, Status
from gridcity.planner import Action, BehaviorProfile, Plan, _classify, default_heading

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
            flow = ""
            if ground in FLOW_GROUNDS:
                count = 1 if rng.random() < 0.8 else 2
                flow = "".join(rng.sample("NESW", count))
            row.append(_GROUND_LETTERS[ground] + flow.ljust(2, "-"))
        rows.append(row)
    return GridMap.build(rows)


def rows_of(grid: GridMap) -> list:
    """The grid's cell tokens as rows, indexed ``[y][x]``."""
    return [line.split() for line in serialize_grid(grid).splitlines()[1:]]


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


def parking_2x2() -> GridMap:
    """2x2 blocks with every fifth road cell turned into parking (same flow)."""
    base = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    rows = [
        [
            "p" + token[1:] if token[0] == "r" and (7 * x + 3 * y) % 5 == 0 else token
            for x, token in enumerate(row)
        ]
        for y, row in enumerate(rows_of(base))
    ]
    return GridMap.build(rows)


def straight_plan(cells, width: int) -> Plan:
    """Hand-built plan through the given cells of a map ``width`` cells wide
    (costs left at zero).  Each x must lie in ``range(width)``, the only
    columns a flat route can name."""
    assert all(0 <= x < width for x, _ in cells), "a cell outside the map's columns"
    return Plan(array("i", [y * width + x for x, y in cells]), 0.0, 0.0, 0)


def cells_of(grid: GridMap, plan: Plan) -> tuple:
    """The ``(x, y)`` cells of a plan made on ``grid``, decoded from its flat
    route."""
    width = grid.width
    return tuple((i % width, i // width) for i in plan.route)


def flow_of(grid: GridMap, cell: Coord) -> frozenset:
    """The Directions of a cell's flow, read from its bit mask in ``grid.flow``."""
    mask = grid.flow[grid.index_of(cell)]
    return frozenset(d for d in Direction if mask >> d & 1)


def classify_action(grid: GridMap, frm: Coord, to: Coord, heading: Direction) -> Action:
    """The planner's maneuver (``_classify``) of a driver's move between two
    4-adjacent cells of ``grid``, made with ``heading``."""
    d = DIRECTION_OF_STEP[(to[0] - frm[0], to[1] - frm[1])]
    fi, ti = grid.index_of(frm), grid.index_of(to)
    return _classify(grid, fi, ti, d, grid.turnspots()[fi])[heading]


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
        heading = DIRECTION_OF_STEP[(to[0] - frm[0], to[1] - frm[1])]
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


def place(pop: Population, agents) -> Population:
    """Append hand-built agents, in ascending id order past every id present,
    to ``pop``: extend it with their rows, which carry the positions, then
    write each agent's status, speed, cursor and countdown into its row."""
    agents = list(agents)
    rows = slice(len(pop), None)
    pop.extend([(a.id, a.profile, a.position, a.heading, a.plan, a.goal) for a in agents])
    for name in ("status", "speed", "cursor", "countdown"):
        getattr(pop, name)[rows] = [getattr(a, name) for a in agents]
    return pop


def add_agent(world, agent: AgentState) -> None:
    """Place a hand-built agent in ``world``'s population; agents spawned
    later are numbered after it."""
    place(world.population, [agent])
    world._next_id = max(world._next_id, agent.id + 1)


def step_counted(world):
    """Step ``world`` once.  Returns ``(record, change, counted)``: how many
    agents the population gained, and how many this step's ``spawn`` events,
    less its ``goal`` events and the collided rows of the pre-step population
    whose countdown runs out, say it gained."""
    pop = world.population
    before = len(pop)
    expiring = int(np.count_nonzero((pop.status == Status.COLLIDED) & (pop.countdown <= 1)))
    record = world.step()
    kinds = [e.kind for e in record.events if e.step == world.step_count]
    counted = kinds.count("spawn") - kinds.count("goal") - expiring
    return record, len(world.population) - before, counted


def population(agents) -> Population:
    """The agents, in ascending id order, as the columns of a Population."""
    return place(Population(), agents)
