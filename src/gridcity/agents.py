"""Walker and driver behavior: the population's columns, sensing, reaction
rules, and kinematics.

The population is one ``Population``, one row per agent in ascending id
order: numpy columns for what the array passes read and write, and per-row
lists of the plans and of the objects ``plan`` takes (profile, goal,
heading).  Floor cells are computed from the positions, not stored.  Each
step ``decide`` reads the columns, tests each active agent against the others
near its window (its next few route cells), and picks exactly one decision
code per active agent (yield, decelerate, stop, replan, accelerate, proceed).
``act`` then applies the codes as array updates and moves every agent with a
speed along its plan polyline.  ``AgentState`` is the record of one agent:
what ``Population.extend`` takes in and ``Population.snapshot`` gives out,
never a live copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress

import numpy as np

from .environment import (Coord, Direction, DIRECTION_ORDER, DIRECTION_TABLE, GridMap,
                          GroundType)
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
# the heading of a move by (dx, dy) between neighbouring cells
_MOVE_HEADING = {row[:2]: d for d, row in zip(DIRECTION_ORDER, DIRECTION_TABLE)}


@dataclass
class AgentState:
    """Kinematic and lifecycle state of one walker or driver."""

    id: int
    profile: BehaviorProfile
    position: tuple[float, float]
    heading: Direction | None
    speed: float
    plan: Plan | None
    cursor: int  # index of the next plan cell to reach
    status: Status = Status.ACTIVE
    countdown: int = 0
    goal: Coord | None = None

    @property
    def kind(self) -> str:
        """'walker' or 'driver': the kind of the agent's profile."""
        return self.profile.kind


def floor_cells(x: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
    """The flat index ``y * width + x`` of the cell each point lies on."""
    return np.floor(y).astype(np.int64) * width + np.floor(x).astype(np.int64)


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``range(s, s + c)`` over each pair of ``starts``
    and ``counts``."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


class Population:
    """The agents as columns, one row per agent in ascending id order.

    ``extend`` appends rows and ``keep`` drops them with one mask; a slot is
    never reused, so row order stays id order.  That order fixes the order of
    events and of the float sums of the heatmaps and the driver speed.

    A fact is a numpy column only when an array pass reads or writes it:
    ``id``; ``driver``, the kind (False for a walker); ``status``, a
    ``Status`` code; ``x`` and ``y``, the position; ``speed``; ``cursor``,
    the index of the next plan cell to reach; ``countdown``; ``max_speed``;
    and ``plan_len``, the length of the row's plan (0 without one).  The
    facts ``plan`` takes are kept per row as the objects it takes, in four
    lists: ``plans``, each row's ``Plan`` or None, whose ``(x, y)`` cells are
    the one copy of its route;
    ``profiles``, the ``BehaviorProfile`` the agent spawned with; ``goals``,
    an ``(x, y)`` cell or None; and ``headings``, a ``Direction`` or None.
    A row's floor cell is computed from ``x`` and ``y`` where it is needed.
    """

    _COLUMNS = (
        ("id", np.int64), ("driver", bool), ("status", np.int8),
        ("x", np.float64), ("y", np.float64), ("speed", np.float64),
        ("cursor", np.int64), ("countdown", np.int64), ("max_speed", np.float64),
        ("plan_len", np.int64),
    )
    _LISTS = ("plans", "profiles", "goals", "headings")

    def __init__(self):
        for name, dtype in self._COLUMNS:
            setattr(self, name, np.zeros(0, dtype))
        for name in self._LISTS:
            setattr(self, name, [])

    def __len__(self) -> int:
        return len(self.id)

    def extend(self, states) -> None:
        """Append one row per ``AgentState``, in order; their ids must ascend
        past every id present."""
        if not states:
            return
        ids = [a.id for a in states]
        last = int(self.id[-1]) if len(self.id) else -math.inf
        if any(b <= a for a, b in zip([last] + ids, ids)):
            raise ValueError(f"agent ids must ascend past {last}, got {ids}")
        # one pass over the agents gives each new row's values in column
        # order, without a plan until _write_plans gives it one
        rows = [
            (a.id, a.profile.kind == "driver", a.status, a.position[0],
             a.position[1], a.speed, a.cursor, a.countdown, a.profile.max_speed, 0)
            for a in states
        ]
        n = len(self.id)
        for (name, dtype), values in zip(self._COLUMNS, zip(*rows)):
            column = np.empty(n + len(rows), dtype)
            column[:n] = getattr(self, name)
            column[n:] = values
            setattr(self, name, column)
        self.plans += [None] * len(rows)
        self.profiles += [a.profile for a in states]
        self.goals += [a.goal for a in states]
        self.headings += [a.heading for a in states]
        self._write_plans(slice(n, None), [a.plan for a in states])

    def _write_plans(self, rows, plans) -> None:
        """Give the rows of the slice ``rows`` the plans ``plans``, each a
        ``Plan`` or None, in order: the one writer of a row's ``plans`` entry
        and ``plan_len``."""
        self.plan_len[rows] = [0 if p is None else len(p) for p in plans]
        self.plans[rows] = plans

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where ``mask`` is False."""
        for name, _ in self._COLUMNS:
            setattr(self, name, getattr(self, name)[mask])
        kept = mask.tolist()
        for name in self._LISTS:
            setattr(self, name, list(compress(getattr(self, name), kept)))

    def set_plan(self, row: int, route: Plan) -> None:
        """Give ``row`` the plan ``route``, with its cursor at 1."""
        self._write_plans(slice(row, row + 1), [route])
        self.cursor[row] = 1

    def row_of(self, agent_id: int) -> int | None:
        """The row holding ``agent_id``, or None."""
        row = int(np.searchsorted(self.id, agent_id))
        return row if row < len(self.id) and self.id[row] == agent_id else None

    def coord(self, row: int) -> Coord:
        """The floor cell of ``row`` as ``(x, y)``."""
        return (math.floor(self.x[row]), math.floor(self.y[row]))

    def cells(self, mask: np.ndarray) -> set:
        """The floor cells of the rows in ``mask``, as ``(x, y)`` coords."""
        x = np.floor(self.x[mask]).astype(np.int64)
        y = np.floor(self.y[mask]).astype(np.int64)
        return set(zip(x.tolist(), y.tolist()))

    def blocking_cells(self) -> set:
        """The floor cells of the inactive (parked and collided) rows: the
        cells every plan avoids."""
        return self.cells(self.status != Status.ACTIVE)

    def snapshot(self) -> dict[int, AgentState]:
        """Every agent as an ``AgentState`` by id, in row order; its profile,
        plan, goal and heading are the objects the population holds."""
        out = {}
        for (i, status, x, y, speed, cursor, countdown, profile, route, goal,
             heading) in zip(
            self.id.tolist(), self.status.tolist(), self.x.tolist(),
            self.y.tolist(), self.speed.tolist(), self.cursor.tolist(),
            self.countdown.tolist(), self.profiles, self.plans, self.goals,
            self.headings,
        ):
            out[i] = AgentState(
                id=i,
                profile=profile,
                position=(x, y),
                heading=heading,
                speed=speed,
                plan=route,
                cursor=cursor,
                status=_STATUSES[status],
                countdown=countdown,
                goal=goal,
            )
        return out


def decide(
    pop: Population, grid: GridMap, lookahead: int, radius: float, yield_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sense and react for the whole population in one array pass.

    ``pop`` is the pre-step population.  Returns ``(codes, pre_flat)``: one
    ``Decision`` code per active row, in row order, and every row's floor
    cell as a flat index (``floor_cells``).

    An active agent perceives the agents near its window, its next
    ``lookahead`` plan cells, read from its ``Plan`` at its cursor; the
    window is no wider than the most plan cells any active row has left.
    Another agent is in the window when its
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

    No walker rule reads an active walker, so a walker does not test them.
    Only the others on the cells of the window's bounding box widened by the
    agent's ``ceil(reach)`` are tested, found per box row from a counting
    sort of the population by flat cell.  The bound is exact because
    ``GridMap.build`` keeps every cell center inside its cell: a point closer
    than ``r`` to ``c + offset`` lies on a cell within ``c +- ceil(r)``.
    Distances are ``dx*dx + dy*dy`` in float64, in the same order as a
    per-agent loop.
    """
    width = grid.width
    flat = floor_cells(pop.x, pop.y, width)
    is_active = pop.status == Status.ACTIVE
    rows = np.flatnonzero(is_active)
    n = len(rows)
    if not n:
        return np.zeros(0, dtype=np.int64), flat

    # the windows as (active, slot) flat cells, read from the plans; a slot
    # past a plan's end repeats the row's first slot, which no test below
    # tells from the first slot itself, and a row with no cell left is all -1
    # and gets no box
    cursors = pop.cursor[rows]
    left = pop.plan_len[rows] - cursors
    lookahead = max(1, min(lookahead, int(left.max())))
    live = left > 0
    valid = np.arange(lookahead) < left[:, None]
    win = np.full((n, lookahead), -1)
    plans = pop.plans
    win[valid] = [
        y * width + x
        for row, cursor in zip(rows[live].tolist(), cursors[live].tolist())
        for x, y in plans[row].cells[cursor:cursor + lookahead]
    ]
    win = np.where(valid, win, win[:, :1])
    win_y, win_x = np.divmod(win, width)
    center_x = win_x + grid.lane_offsets[0]
    center_y = win_y + grid.lane_offsets[1]
    zebras = grid.ground_mask(GroundType.ZEBRA)
    driving = pop.driver[rows]

    # buckets: the others on each row of each window's widened bounding box;
    # start[c] counts the agents on flat cells below c, so the agents on
    # cells a..b are order[start[a]:start[b + 1]] (one off the grid counts as
    # cell -1 or the cell past the last, and is in no bucket)
    order = np.argsort(flat, kind="stable")
    size = width * grid.height
    start = np.cumsum(np.bincount(np.clip(flat, -1, size) + 1, minlength=size + 2))
    # a box never needs to reach past the grid; the cap also keeps it in int64
    span = max(width, grid.height)
    reach = np.where(
        driving,
        min(math.ceil(max(radius, yield_radius)), span),
        min(math.ceil(radius), span),
    )
    x0 = np.maximum(win_x.min(1) - reach, 0)
    x1 = np.minimum(win_x.max(1) + reach, width - 1)
    y0 = np.maximum(win_y.min(1) - reach, 0)
    y1 = np.minimum(win_y.max(1) + reach, grid.height - 1)
    box_rows = np.where(live, y1 - y0 + 1, 0)
    row_owner = np.repeat(np.arange(n), box_rows)
    row_start = ranges(y0, box_rows) * width
    lo = start[row_start + x0[row_owner]]
    found = start[row_start + x1[row_owner] + 1] - lo
    me = np.repeat(row_owner, found)
    other = order[ranges(lo, found)]
    other_driver = pop.driver[other]
    other_active = is_active[other]
    keep = (other != rows[me]) & (driving[me] | other_driver | ~other_active)
    me, other = me[keep], other[keep]
    other_driver, other_active = other_driver[keep], other_active[keep]

    # tests per (agent, other) pair and window slot
    dx = pop.x[other][:, None] - center_x[me]
    dy = pop.y[other][:, None] - center_y[me]
    d2 = dx * dx + dy * dy
    hit = d2 < radius * radius
    seen = other_active & hit.any(1)
    conflict = np.full(n, lookahead)
    np.minimum.at(conflict, me[seen], hit[seen].argmax(1))
    vehicle = np.zeros(n, dtype=bool)
    vehicle[me[seen & other_driver]] = True
    inactive = ~other_active
    on_window = (flat[other[inactive]][:, None] == win[me[inactive]]).any(1)
    blocked = np.zeros(n, dtype=bool)
    blocked[me[inactive][on_window]] = True
    yielding = other_active & ~other_driver & driving[me]
    yielding &= ((d2 < yield_radius * yield_radius) & zebras[win][me]).any(1)
    near_zebra = np.zeros(n, dtype=bool)
    near_zebra[me[yielding]] = True

    # rules, lowest priority first: the last assignment that holds wins
    braking = (conflict < lookahead) & (conflict <= np.ceil(pop.speed[rows]))
    on_zebra = zebras[flat[rows]]
    codes = np.where(driving, Decision.ACCELERATE, Decision.PROCEED)
    codes[blocked] = Decision.REPLAN
    codes[~driving & ~on_zebra & vehicle] = Decision.STOP
    codes[driving & braking] = Decision.DECELERATE
    codes[driving & near_zebra] = Decision.YIELD
    return codes, flat


def act(
    pop: Population,
    codes: np.ndarray,
    grid: GridMap,
    accel: float = 1.0,
    decel: float = 1.0,
) -> list[int]:
    """Resolve each replan, apply each active row's decision code, then
    advance along the plans.

    ``codes`` holds one ``Decision`` code per active row, in row order, as
    ``decide`` returns them; it is left unchanged.  A replan plans from the
    row's cell to its goal around ``pop.blocking_cells()``, taken once and
    only when some row replans, row after row; its outcome is a code: a
    found route replaces the plan and then accelerates a driver or lets a
    walker proceed, and a failed one (or a row without a goal) keeps the old
    plan and stops.  Stop and yield set the speed to 0, decelerate to
    ``max(0, speed - decel)``, accelerate to ``min(max_speed, speed + accel)``,
    and a walker that proceeds moves at ``max_speed``.  Returns the rows whose
    plan a replan replaced, in row order.
    """
    rows = np.flatnonzero(pop.status == Status.ACTIVE)
    codes = codes.copy()
    replanned = []
    replans = np.flatnonzero(codes == Decision.REPLAN).tolist()
    # a replan moves no row and changes no status, so the set holds for all
    blocked = pop.blocking_cells() if replans else None
    for i in replans:
        row = int(rows[i])
        goal = pop.goals[row]
        route = None
        if goal is not None:
            route = plan(
                grid, pop.coord(row), goal, pop.profiles[row], blocked=blocked,
                heading=pop.headings[row],
            )
        if route is None:
            codes[i] = Decision.STOP
        else:
            pop.set_plan(row, route)
            replanned.append(row)
            codes[i] = Decision.ACCELERATE if pop.driver[row] else Decision.PROCEED
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
    pop.speed[rows] = speed

    # _advance does nothing for the other rows: its loop guards are these
    moving = rows[(speed > 1e-12) & (pop.cursor[rows] < pop.plan_len[rows])]
    if len(moving):
        moved = moving.tolist()
        xs, ys = pop.x[moving].tolist(), pop.y[moving].tolist()
        cursors = pop.cursor[moving].tolist()
        headings = [pop.headings[row] for row in moved]
        _advance(
            [pop.plans[row].cells for row in moved], grid.lane_offsets,
            xs, ys, pop.speed[moving].tolist(), cursors, headings,
            pop.driver[moving].tolist(),
        )
        pop.x[moving], pop.y[moving], pop.cursor[moving] = xs, ys, cursors
        for row, heading in zip(moved, headings):
            pop.headings[row] = heading
    return replanned


def _advance(routes, offsets, xs, ys, budgets, cursors, headings, drivers):
    """Move agent j from ``(xs[j], ys[j])`` by ``budgets[j]`` along the
    polyline of the centers of the cells ``routes[j]``, ``cursors[j]`` being
    the index of the next to reach, one agent after the other.  Updates
    ``xs``, ``ys``, ``cursors`` and ``headings`` in place; a driver's
    ``Direction`` heading follows its moves."""
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
                        heading = Direction.EAST if dx > 0 else Direction.WEST
                    else:
                        heading = Direction.SOUTH if dy > 0 else Direction.NORTH
                budget = 0.0
        xs[j], ys[j], cursors[j], headings[j] = x, y, cursor, heading
