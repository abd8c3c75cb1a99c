"""Walker and driver behavior: the population's columns, sensing, reaction
rules, and kinematics.

The population is one ``Population``: a structure of arrays with one row per
agent, in ascending id order.  Each step ``decide`` reads its columns, tests
each active agent against the others near its window (its next few route
cells), and picks exactly one decision code per active agent (yield,
decelerate, stop, replan, accelerate, proceed).  ``act`` then applies the
codes as array updates and moves every agent with a speed along its plan
polyline.  ``AgentState`` is the record of one agent: what ``Population.extend``
takes in and ``Population.snapshot`` gives out, never a live copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress

import numpy as np

from .environment import Coord, Direction, DIRECTION_ORDER, DIRECTION_TABLE, GridMap
from .planner import BehaviorProfile, Plan, plan


class Status(IntEnum):
    """Lifecycle state; its value is the code in ``Population.status``."""

    ACTIVE = 0
    PARKED = 1
    COLLIDED = 2


class Decision(IntEnum):
    """One step's reaction; its value is the code ``decide`` returns, and the
    order is the priority of ``decide``'s rules."""

    YIELD = 0
    DECELERATE = 1
    STOP = 2
    REPLAN = 3
    ACCELERATE = 4
    PROCEED = 5


_STATUSES = tuple(Status)
_KINDS = ("walker", "driver")
# the heading code of a move by (dx, dy) between neighbouring cells
_MOVE_HEADING = {row[:2]: k for k, row in enumerate(DIRECTION_TABLE)}
_NORTH, _EAST, _SOUTH, _WEST = range(4)  # indices into DIRECTION_ORDER


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


def _floor_cells(x: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
    """The flat index ``y * width + x`` of the cell each point lies on."""
    return np.floor(y).astype(np.int64) * width + np.floor(x).astype(np.int64)


class Population:
    """The agents as columns, one row per agent in ascending id order.

    ``extend`` appends rows and ``keep`` drops them with one mask; a slot is
    never reused, so row order stays id order.  That order fixes the order of
    events and of the float sums of the heatmaps and the driver speed.

    Columns: ``id``; ``driver``, the kind (False for a walker); ``status``, a
    ``Status`` code; ``x`` and ``y``, the position, and ``cell``, its floor
    cell ``y * width + x``; ``speed``; ``heading``, an index into
    ``DIRECTION_ORDER`` (-1 for none); ``cursor``, the index of the next plan
    cell to reach; ``countdown``; ``goal``, a flat cell (-1 for none); ``w``,
    ``alpha`` and ``max_speed``, the behavior profile; ``plans``, each row's
    ``Plan`` or None; and ``route``, each plan's cells as flat indices,
    ``plan_len`` of them (0 without a plan), the rest of the row -1.  A plan's
    flat indices are written once, when the plan is assigned.
    """

    _COLUMNS = (
        ("id", np.int64), ("driver", bool), ("status", np.int8),
        ("x", np.float64), ("y", np.float64), ("cell", np.int64),
        ("speed", np.float64), ("heading", np.int8), ("cursor", np.int64),
        ("countdown", np.int64), ("goal", np.int64), ("w", np.float64),
        ("alpha", np.float64), ("max_speed", np.float64), ("plan_len", np.int64),
    )

    def __init__(self, width: int):
        self.width = width
        for name, dtype in self._COLUMNS:
            setattr(self, name, np.zeros(0, dtype))
        self.plans: list = []
        self.route = np.full((0, 1), -1, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.id)

    def _flat(self, cells) -> list[int]:
        width = self.width
        return [y * width + x for x, y in cells]

    def _fit_route(self, length: int) -> None:
        """Widen ``route`` to hold a plan of ``length`` cells."""
        have = self.route.shape[1]
        if length > have:
            wider = np.full((len(self.route), length), -1, dtype=np.int32)
            wider[:, :have] = self.route
            self.route = wider

    def extend(self, states) -> None:
        """Append one row per ``AgentState``, in order; their ids must ascend
        past every id present."""
        if not states:
            return
        ids = [a.id for a in states]
        last = int(self.id[-1]) if len(self.id) else -math.inf
        if any(b <= a for a, b in zip([last] + ids, ids)):
            raise ValueError(f"agent ids must ascend past {last}, got {ids}")
        width = self.width
        floor = math.floor
        plans = [a.plan for a in states]
        # one pass over the agents gives each new row's values in column
        # order; the cell is the floor cell AgentState.cell() names
        rows = [
            (a.id, a.kind == "driver", a.status, a.position[0], a.position[1],
             floor(a.position[1]) * width + floor(a.position[0]), a.speed,
             -1 if a.heading is None else DIRECTION_ORDER.index(a.heading),
             a.cursor, a.countdown,
             -1 if a.goal is None else a.goal[1] * width + a.goal[0],
             a.profile.w, a.profile.alpha, a.profile.max_speed,
             0 if p is None else len(p))
            for a, p in zip(states, plans)
        ]
        n = len(self.id)
        for (name, dtype), values in zip(self._COLUMNS, zip(*rows)):
            column = np.empty(n + len(rows), dtype)
            column[:n] = getattr(self, name)
            column[n:] = values
            setattr(self, name, column)
        # the plans' flat cells, row after row, fill each new row's first
        # plan_len slots of the route block
        lengths = self.plan_len[n:]
        self._fit_route(int(lengths.max()))
        block = np.full((len(rows), self.route.shape[1]), -1, dtype=np.int32)
        block[np.arange(block.shape[1]) < lengths[:, None]] = [
            y * width + x for p in plans if p is not None for x, y in p.cells
        ]
        self.route = np.concatenate((self.route, block))
        self.plans += plans

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where ``mask`` is False."""
        for name, _ in self._COLUMNS:
            setattr(self, name, getattr(self, name)[mask])
        self.route = self.route[mask]
        self.plans = list(compress(self.plans, mask.tolist()))

    def set_plan(self, row: int, route: Plan) -> None:
        """Give ``row`` the plan ``route``, with its cursor at 1."""
        n = len(route)
        self._fit_route(n)
        self.route[row, :n] = self._flat(route.cells)
        self.route[row, n:] = -1
        self.plan_len[row] = n
        self.plans[row] = route
        self.cursor[row] = 1

    def row_of(self, agent_id: int) -> int | None:
        """The row holding ``agent_id``, or None."""
        row = int(np.searchsorted(self.id, agent_id))
        return row if row < len(self.id) and self.id[row] == agent_id else None

    def coord(self, row: int) -> Coord:
        """The floor cell of ``row`` as ``(x, y)``."""
        y, x = divmod(int(self.cell[row]), self.width)
        return (x, y)

    def cells(self, mask: np.ndarray) -> set:
        """The floor cells of the rows in ``mask``, as ``(x, y)`` coords."""
        y, x = np.divmod(self.cell[mask], self.width)
        return set(zip(x.tolist(), y.tolist()))

    def profile(self, row: int) -> BehaviorProfile:
        return BehaviorProfile(
            kind=_KINDS[int(self.driver[row])],
            w=float(self.w[row]),
            alpha=float(self.alpha[row]),
            max_speed=float(self.max_speed[row]),
        )

    def snapshot(self) -> dict[int, AgentState]:
        """Every agent as an ``AgentState`` by id, in row order."""
        width = self.width
        out = {}
        for (i, driver, status, x, y, speed, heading, cursor, countdown, goal, w,
             alpha, max_speed, route) in zip(
            self.id.tolist(), self.driver.tolist(), self.status.tolist(),
            self.x.tolist(), self.y.tolist(), self.speed.tolist(),
            self.heading.tolist(), self.cursor.tolist(), self.countdown.tolist(),
            self.goal.tolist(), self.w.tolist(), self.alpha.tolist(),
            self.max_speed.tolist(), self.plans,
        ):
            kind = _KINDS[driver]
            out[i] = AgentState(
                id=i,
                kind=kind,
                profile=BehaviorProfile(kind=kind, w=w, alpha=alpha, max_speed=max_speed),
                position=(x, y),
                heading=DIRECTION_ORDER[heading] if heading >= 0 else None,
                speed=speed,
                plan=route,
                cursor=cursor,
                status=_STATUSES[status],
                countdown=countdown,
                goal=(goal % width, goal // width) if goal >= 0 else None,
            )
        return out


def decide(
    pop: Population, grid: GridMap, lookahead: int, radius: float, yield_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sense and react for the whole population in one array pass.

    ``pop`` is the pre-step population.  Returns ``(codes, pre_flat)``: one
    ``Decision`` code per active row, in row order, and a copy of every row's
    floor cell (``pop.cell``).

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
    flat = pop.cell
    pre_flat = flat.copy()
    is_active = pop.status == Status.ACTIVE
    rows = np.flatnonzero(is_active)
    n = len(rows)
    if not n:
        return np.zeros(0, dtype=np.int64), pre_flat

    # the windows as (active, slot) arrays, read from the plans' flat cells
    pos_x, pos_y = pop.x, pop.y
    is_driver = pop.driver
    speeds = pop.speed[rows]
    slots = pop.cursor[rows, None] + np.arange(lookahead)
    valid = slots < pop.plan_len[rows, None]
    last = pop.route.shape[1] - 1
    win = np.where(valid, pop.route[rows[:, None], np.minimum(slots, last)], -1)
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

    # rules: the first condition that holds picks its Decision code
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
        [Decision.YIELD, Decision.DECELERATE, Decision.STOP, Decision.REPLAN,
         Decision.ACCELERATE],
        Decision.PROCEED,
    )
    return codes, pre_flat


def act(
    pop: Population,
    codes: np.ndarray,
    grid: GridMap,
    statics: frozenset | set = frozenset(),
    accel: float = 1.0,
    decel: float = 1.0,
) -> list[int]:
    """Apply each active row's decision code, then advance along the plans.

    ``codes`` holds one ``Decision`` code per active row, in row order, as
    ``decide`` returns them; ``statics`` are the cells a replan avoids.  Stop
    and yield set the speed to 0, decelerate to ``max(0, speed - decel)``,
    accelerate to ``min(max_speed, speed + accel)``, and a walker that
    proceeds moves at ``max_speed``.  A replan plans from the row's cell to
    its goal; a failed one keeps the old plan and waits this step.  Returns
    the rows whose plan a replan replaced, in row order.
    """
    rows = np.flatnonzero(pop.status == Status.ACTIVE)
    speed = pop.speed[rows]
    max_speed = pop.max_speed[rows]
    speed[(codes == Decision.STOP) | (codes == Decision.YIELD)] = 0.0
    slowing = codes == Decision.DECELERATE
    slower = speed[slowing] - decel
    speed[slowing] = np.where(slower > 0.0, slower, 0.0)
    speeding = codes == Decision.ACCELERATE
    faster = speed[speeding] + accel
    speed[speeding] = np.where(faster < max_speed[speeding], faster, max_speed[speeding])
    walking = (codes == Decision.PROCEED) & ~pop.driver[rows]
    speed[walking] = max_speed[walking]
    replanned = []
    for i in np.flatnonzero(codes == Decision.REPLAN).tolist():
        row = int(rows[i])
        goal = int(pop.goal[row])
        route = None
        if goal >= 0:
            heading = int(pop.heading[row])
            route = plan(
                grid,
                pop.coord(row),
                (goal % pop.width, goal // pop.width),
                pop.profile(row),
                blocked=statics,
                heading=DIRECTION_ORDER[heading] if heading >= 0 else None,
            )
        if route is None:
            speed[i] = 0.0
        else:
            pop.set_plan(row, route)
            replanned.append(row)
            faster = speed[i] + accel
            capped = faster if faster < max_speed[i] else max_speed[i]
            speed[i] = capped if pop.driver[row] else max_speed[i]
    pop.speed[rows] = speed

    # _advance does nothing for the other rows: its loop guards are these
    moving = rows[(speed > 1e-12) & (pop.cursor[rows] < pop.plan_len[rows])]
    if len(moving):
        xs, ys = pop.x[moving].tolist(), pop.y[moving].tolist()
        cursors, headings = pop.cursor[moving].tolist(), pop.heading[moving].tolist()
        _advance(
            [pop.plans[row].cells for row in moving.tolist()], grid.lane_offsets,
            xs, ys, pop.speed[moving].tolist(), cursors, headings,
            pop.driver[moving].tolist(),
        )
        x, y = np.array(xs), np.array(ys)
        pop.x[moving], pop.y[moving] = x, y
        pop.cell[moving] = _floor_cells(x, y, pop.width)
        pop.cursor[moving], pop.heading[moving] = cursors, headings
    return replanned


def _advance(routes, offsets, xs, ys, budgets, cursors, headings, drivers):
    """Move agent j from ``(xs[j], ys[j])`` by ``budgets[j]`` along the
    polyline of the centers of the cells ``routes[j]``, ``cursors[j]`` being
    the index of the next to reach, one agent after the other.  Updates
    ``xs``, ``ys``, ``cursors`` and ``headings`` in place; a driver's heading
    code follows its moves."""
    ox, oy = offsets
    for j, (cells, x, y, budget, cursor, heading, driver) in enumerate(
        zip(routes, xs, ys, budgets, cursors, headings, drivers)
    ):
        while budget > 1e-12 and cursor < len(cells):
            cx, cy = cells[cursor]
            tx, ty = cx + ox, cy + oy
            dx, dy = tx - x, ty - y
            dist = math.hypot(dx, dy)
            if dist <= budget + 1e-12:
                x, y = tx, ty
                budget -= dist
                if driver and cursor >= 1:
                    ax, ay = cells[cursor - 1]
                    heading = _MOVE_HEADING.get((cx - ax, cy - ay), heading)
                cursor += 1
            else:
                x += dx / dist * budget
                y += dy / dist * budget
                if driver:
                    if abs(dx) >= abs(dy):
                        heading = _EAST if dx > 0 else _WEST
                    else:
                        heading = _SOUTH if dy > 0 else _NORTH
                budget = 0.0
        xs[j], ys[j], cursors[j], headings[j] = x, y, cursor, heading
