"""Walker and driver behavior: sensing, reaction rules, and kinematics.

Agents follow their planned route cell-center to cell-center.  Each step
``decide`` gathers the whole population into arrays once, tests each active
agent against the others near its window (its next few route cells), and
picks exactly one decision per active agent (stop, yield, decelerate,
accelerate, replan, proceed).  ``act`` then applies the decision and moves the
agent by its current speed along the plan polyline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .environment import Coord, Direction, DIRECTION_ORDER, DIRECTION_TABLE, GridMap
from .planner import BehaviorProfile, Plan, plan


class Status(Enum):
    ACTIVE = "active"
    PARKED = "parked"
    COLLIDED = "collided"


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


def decide(
    agents, grid: GridMap, lookahead: int, radius: float, yield_radius: float
) -> tuple[dict, dict, set]:
    """Sense and react for the whole population in one array pass.

    ``agents`` is the pre-step population.  Returns ``(decisions, pre_cells,
    statics)``: one Decision per active agent by id, in population order;
    every agent's floor cell by id; and the cells of inactive agents.

    An active agent perceives the agents near its window, its next
    ``lookahead`` plan cells.  Another agent is in the window when its
    distance to some window cell center is strictly below ``radius``; the
    nearest such slot of an active agent is the conflict slot.  An inactive
    agent on a window cell blocks the window.  A driver also looks for active
    walkers (sidewalk-adjacent ones included) within ``yield_radius`` of a
    zebra cell center in its window.  Then:

    - a walker on a zebra has right-of-way: it replans when blocked and
      otherwise proceeds;
    - any other walker stops for an active driver in its window, replans
      when blocked, and otherwise proceeds;
    - a driver yields to a walker near a zebra, decelerates when the
      conflict slot lies within its braking window ``ceil(speed)`` (stopping
      distance plus one cell), replans when blocked, and otherwise
      accelerates.

    Only the others on the cells of the window's bounding box widened by the
    agent's ``ceil(reach)`` are tested, found by binary search over the
    population sorted by flat cell, one search per box row.  The bound is
    exact because ``GridMap.build`` keeps every cell center inside its cell:
    a point closer than ``r`` to ``c + offset`` lies on a cell within
    ``c +- ceil(r)``.  Distances are
    ``dx*dx + dy*dy`` in float64, in the same order as a per-agent loop.
    """
    width = grid.width
    active = Status.ACTIVE
    pre_cells: dict = {}
    statics: set = set()
    xs, ys, flats, is_driver, is_active = [], [], [], [], []
    rows, ids, speeds, window = [], [], [], []  # one entry per active agent
    pad = [-1] * lookahead
    for i, a in enumerate(agents):
        cell = a.cell()
        pre_cells[a.id] = cell
        x, y = a.position
        xs.append(x)
        ys.append(y)
        flats.append(cell[1] * width + cell[0])
        is_driver.append(a.kind == "driver")
        if a.status is not active:
            is_active.append(False)
            statics.add(cell)
            continue
        is_active.append(True)
        rows.append(i)
        ids.append(a.id)
        speeds.append(a.speed)
        cells = a.plan.cells[a.cursor:a.cursor + lookahead] if a.plan is not None else ()
        window += [c[1] * width + c[0] for c in cells]
        window += pad[len(cells):]
    if not ids:
        return {}, pre_cells, statics

    # gather: the population as arrays, the windows as (active, slot) arrays
    n = len(ids)
    pos_x, pos_y = np.array(xs), np.array(ys)
    flat = np.array(flats)
    is_driver = np.array(is_driver)
    is_active = np.array(is_active)
    rows = np.array(rows)
    win = np.array(window).reshape(n, lookahead)
    valid = win >= 0
    win_y, win_x = np.divmod(win, width)
    center_x = win_x + grid.lane_offsets[0]
    center_y = win_y + grid.lane_offsets[1]
    zebras = grid.zebra_mask()
    zebra_slot = valid & zebras[win]
    driving = is_driver[rows]

    # buckets: the others on each row of each window's widened bounding box
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    # a box never needs to reach past the grid; the cap also keeps it in int64
    span = max(width, grid.height)
    reach = np.where(
        driving,
        min(math.ceil(max(radius, yield_radius)), span),
        min(math.ceil(radius), span),
    )
    x0 = np.maximum(np.where(valid, win_x, width).min(1) - reach, 0)
    x1 = np.minimum(np.where(valid, win_x, -1).max(1) + reach, width - 1)
    y0 = np.maximum(np.where(valid, win_y, grid.height).min(1) - reach, 0)
    y1 = np.minimum(np.where(valid, win_y, -1).max(1) + reach, grid.height - 1)
    box_rows = np.where(valid[:, 0], y1 - y0 + 1, 0)
    row_owner = np.repeat(np.arange(n), box_rows)
    row_y = np.repeat(y0 - (np.cumsum(box_rows) - box_rows), box_rows)
    row_y += np.arange(len(row_owner))
    lo = np.searchsorted(sorted_flat, row_y * width + x0[row_owner], "left")
    hi = np.searchsorted(sorted_flat, row_y * width + x1[row_owner], "right")
    found = hi - lo
    me = np.repeat(row_owner, found)
    other = np.repeat(lo - (np.cumsum(found) - found), found)
    other = order[other + np.arange(len(other))]
    keep = other != rows[me]
    me, other = me[keep], other[keep]

    # tests per (agent, other) pair and window slot
    dx = pos_x[other][:, None] - center_x[me]
    dy = pos_y[other][:, None] - center_y[me]
    d2 = dx * dx + dy * dy
    hit = (d2 < radius * radius) & valid[me]
    other_active = is_active[other]
    seen = other_active & hit.any(1)
    conflict = np.full(n, lookahead)
    np.minimum.at(conflict, me[seen], hit[seen].argmax(1))
    vehicle = np.zeros(n, dtype=bool)
    vehicle[me[seen & is_driver[other]]] = True
    inactive = ~other_active
    on_window = (flat[other[inactive]][:, None] == win[me[inactive]]).any(1)
    blocked = np.zeros(n, dtype=bool)
    blocked[me[inactive][on_window]] = True
    yielding = other_active & ~is_driver[other] & driving[me]
    yielding &= ((d2 < yield_radius * yield_radius) & zebra_slot[me]).any(1)
    near_zebra = np.zeros(n, dtype=bool)
    near_zebra[me[yielding]] = True

    # rules: the first condition that holds picks the outcome of its slot
    outcomes = (Decision.YIELD, Decision.DECELERATE, Decision.STOP, Decision.REPLAN,
                Decision.ACCELERATE, Decision.PROCEED)
    braking = (conflict < lookahead) & (conflict <= np.ceil(speeds))
    on_zebra = zebras[flat[rows]]
    codes = np.select(
        [
            driving & near_zebra,
            driving & braking,
            ~driving & ~on_zebra & vehicle,
            blocked,
            driving,
        ],
        range(5),
        5,
    )
    decisions = dict(zip(ids, map(outcomes.__getitem__, codes.tolist())))
    return decisions, pre_cells, statics


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
            agent.cursor = 1
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
    cells = agent.plan.cells
    budget = agent.speed
    x, y = agent.position
    while budget > 1e-12 and agent.cursor < len(cells):
        tx, ty = grid.center(cells[agent.cursor])
        dx, dy = tx - x, ty - y
        dist = math.hypot(dx, dy)
        if dist <= budget + 1e-12:
            x, y = tx, ty
            budget -= dist
            if agent.kind == "driver" and agent.cursor >= 1:
                d = _direction_between(cells[agent.cursor - 1], cells[agent.cursor])
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
