"""Risk-aware Weighted A* route planning.

The search expands 4-neighbors best-first by f = g + w*h + alpha*r, where g
accumulates per-cell ground costs plus alpha-scaled action risk, h is the
Manhattan distance to the goal, and r prices driver maneuvers (forward, turns,
lane changes, wrong-way moves).  Walkers plan over plain cells with a single
zero-risk step action; drivers plan over (cell, heading) states so turn risk
is well-defined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .environment import (
    Coord,
    Direction,
    DIRECTION_ORDER,
    FLOW_GROUNDS,
    GridMap,
    GroundType,
)


class Action(Enum):
    FORWARD = "forward"
    RIGHT_TURN = "right_turn"
    LEFT_TURN = "left_turn"
    LANE_CHANGE = "lane_change"
    INVALID_TURN = "invalid_turn"
    BACKWARD = "backward"
    STEP = "step"  # walkers, direction-agnostic


# Internal integer codes keep the search inner loop allocation-free.
_FORWARD, _RIGHT, _LEFT, _LANE, _INVALID, _BACKWARD, _STEP = range(7)
_ACTIONS = (
    Action.FORWARD,
    Action.RIGHT_TURN,
    Action.LEFT_TURN,
    Action.LANE_CHANGE,
    Action.INVALID_TURN,
    Action.BACKWARD,
    Action.STEP,
)
_RISKS = (0.0, 1.0, 2.0, 3.0, 5.0, 20.0, 0.0)


def driver_risk(action: Action) -> float:
    """Risk of a driver maneuver (Forward 0 ... Backward 20)."""
    if action is Action.STEP:
        raise ValueError(f"{action} is not a driver action")
    return _RISKS[_ACTIONS.index(action)]


def walker_risk(action: Action) -> float:
    """Pedestrian risk is zero in all cases."""
    if action is not Action.STEP:
        raise ValueError(f"{action} is not a walker action")
    return 0.0


def manhattan(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass(frozen=True)
class BehaviorProfile:
    """Individual agent behavior: heuristic weight, risk sensitivity, speed."""

    kind: str  # 'walker' | 'driver'
    w: float = 1.0
    alpha: float = 0.0
    max_speed: float = 1.0

    def __post_init__(self):
        if self.kind not in ("walker", "driver"):
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.w < 1:
            raise ValueError("heuristic weight w must be >= 1")
        if self.alpha < 0:
            raise ValueError("risk sensitivity alpha must be >= 0")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be positive")


@dataclass(frozen=True)
class PlanStep:
    cell: Coord
    action: Action | None  # action taken to enter the cell; None at the start


@dataclass(frozen=True)
class Plan:
    """Cell-by-cell route from start to goal inclusive."""

    steps: tuple
    total_cost: float  # accumulated g at extraction (== f, since h(goal) = 0)
    risk_total: float  # unscaled sum of action risks along the route
    expansions: int

    @property
    def cells(self) -> tuple:
        return tuple(s.cell for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


# Direction indices in N, E, S, W order.
_N, _E, _S, _W = range(4)
_DX = (0, 1, 0, -1)
_DY = (-1, 0, 1, 0)
_OPP = (_S, _W, _N, _E)
_CW = (_E, _S, _W, _N)
_DIR_BY_INDEX = DIRECTION_ORDER
_INDEX_BY_DIR = {d: i for i, d in enumerate(DIRECTION_ORDER)}


class _Nav:
    """Flat precomputed arrays for one grid, cached on the grid."""

    __slots__ = (
        "width", "height", "size", "ground", "flow", "wcost", "dcost",
        "turnspot", "nbr", "edge_act",
    )

    def __init__(self, grid: GridMap):
        w, h = grid.width, grid.height
        self.width, self.height, self.size = w, h, w * h
        self.ground = [GroundType.ROAD] * self.size
        self.flow = [0] * self.size
        self.wcost = [0.0] * self.size
        self.dcost = [0.0] * self.size
        self.turnspot = [False] * self.size
        for y in range(h):
            for x in range(w):
                i = y * w + x
                cell = grid.cells[y][x]
                self.ground[i] = cell.ground
                mask = 0
                for d in cell.flow:
                    mask |= 1 << _INDEX_BY_DIR[d]
                self.flow[i] = mask
                self.wcost[i] = grid.walker_cost_at((x, y))
                self.dcost[i] = grid.driver_cost_at((x, y))
        for y in range(h):
            for x in range(w):
                i = y * w + x
                g = self.ground[i]
                if g in (GroundType.TURN, GroundType.LEFT_TURN):
                    self.turnspot[i] = True
                elif g in FLOW_GROUNDS:
                    for k in range(4):
                        nx, ny = x + _DX[k], y + _DY[k]
                        if 0 <= nx < w and 0 <= ny < h:
                            if self.ground[ny * w + nx] is GroundType.ZEBRA:
                                self.turnspot[i] = True
                                break
        # 4-neighbor index per cell and direction, -1 when off-grid
        self.nbr = [-1] * (self.size * 4)
        for y in range(h):
            for x in range(w):
                i4 = (y * w + x) * 4
                for k in range(4):
                    nx, ny = x + _DX[k], y + _DY[k]
                    if 0 <= nx < w and 0 <= ny < h:
                        self.nbr[i4 + k] = ny * w + nx
        self.edge_act = None  # driver action table, built on demand

    def edge_actions(self):
        """Action code for every (cell, heading, move direction) triple.

        Index layout: (cell_index * 4 + heading) * 4 + direction.  Built once
        per grid; off-grid moves keep a harmless placeholder since searches
        never follow them.
        """
        if self.edge_act is None:
            table = [_INVALID] * (self.size * 16)
            for i in range(self.size):
                base = i * 16
                for hd in range(4):
                    for k in range(4):
                        ti = self.nbr[i * 4 + k]
                        if ti >= 0:
                            table[base + hd * 4 + k] = _classify(self, i, ti, k, hd)
            self.edge_act = table
        return self.edge_act


def _nav(grid: GridMap) -> _Nav:
    nav = grid._cache.get("nav")
    if nav is None:
        nav = _Nav(grid)
        grid._cache["nav"] = nav
    return nav


def _classify(nav: _Nav, fi: int, ti: int, d: int, heading: int) -> int:
    fm = nav.flow[fi]
    if fm == 1 << _OPP[d]:
        return _BACKWARD  # against the only permitted direction
    if d == heading:
        return _FORWARD if fm & (1 << d) else _BACKWARD
    if d == _OPP[heading]:
        return _BACKWARD
    # perpendicular move
    tf = nav.flow[ti]
    if nav.ground[ti] is GroundType.ROAD and fm != 0 and tf == fm:
        return _LANE
    if nav.turnspot[fi] and tf & (1 << d):
        return _RIGHT if _CW[heading] == d else _LEFT
    return _INVALID


def classify_action(
    grid: GridMap, frm: Coord, to: Coord, heading: Direction
) -> Action:
    """Classify a driver move between 4-adjacent cells as one maneuver.

    Forward needs the move to match both the heading and the source cell's
    flow; moving against a cell's only flow direction, reversing, or going
    straight off-flow is Backward; perpendicular moves are a lane change onto
    a parallel same-flow road lane, a legal turn when leaving a turn cell (or
    a zebra-adjacent road cell) into aligned flow, and invalid otherwise.
    """
    if manhattan(frm, to) != 1:
        raise ValueError(f"cells {frm} and {to} are not 4-adjacent")
    nav = _nav(grid)
    dx, dy = to[0] - frm[0], to[1] - frm[1]
    for k in range(4):
        if (_DX[k], _DY[k]) == (dx, dy):
            d = k
            break
    fi = frm[1] * nav.width + frm[0]
    ti = to[1] * nav.width + to[0]
    return _ACTIONS[_classify(nav, fi, ti, d, _INDEX_BY_DIR[heading])]


def default_heading(grid: GridMap, cell: Coord) -> Direction:
    """Heading a driver inherits on a cell: its first flow direction (NESW order)."""
    flow = grid.flow_at(cell)
    for d in DIRECTION_ORDER:
        if d in flow:
            return d
    raise ValueError(f"cell {cell} has no flow direction to derive a heading from")


def plan(
    grid: GridMap,
    start: Coord,
    goal: Coord,
    profile: BehaviorProfile,
    blocked: frozenset | set = frozenset(),
    heading: Direction | None = None,
    trace: list | None = None,
) -> Plan | None:
    """Weighted A* route for one agent; None when no route exists.

    ``blocked`` marks temporary dynamic obstacles (damaged or parked agents)
    treated as infinite-cost cells; the start cell is never blocked, so callers
    may pass a set that holds it.  ``trace``, when given a list, receives
    one (step, x, y, g, h, r, f) tuple per node expansion.
    """
    nav = _nav(grid)
    if not grid.in_bounds(start) or not grid.in_bounds(goal):
        raise ValueError("start and goal must lie inside the grid")
    cost_arr = nav.wcost if profile.kind == "walker" else nav.dcost
    si = start[1] * nav.width + start[0]
    gi = goal[1] * nav.width + goal[0]
    if cost_arr[si] == math.inf:
        raise ValueError(f"start {start} is not traversable for a {profile.kind}")
    if cost_arr[gi] == math.inf:
        raise ValueError(f"goal {goal} is not traversable for a {profile.kind}")
    blocked_idx = {c[1] * nav.width + c[0] for c in blocked if grid.in_bounds(c)}
    blocked_idx.discard(si)

    if profile.kind == "walker":
        return _search_walker(nav, grid, si, gi, profile.w, blocked_idx, trace)
    if heading is None:
        heading = default_heading(grid, start)
    return _search_driver(
        nav, grid, si, gi, profile.w, profile.alpha,
        _INDEX_BY_DIR[heading], blocked_idx, trace,
    )


def _search_walker(nav, grid, si, gi, w, blocked_idx, trace):
    width = nav.width
    size = nav.size
    cost = nav.wcost
    nbr = nav.nbr
    inf = math.inf
    gx, gy = gi % width, gi // width
    g = [inf] * size
    came = [-1] * size
    g[si] = 0.0
    h0 = abs(si % width - gx) + abs(si // width - gy)
    heap = [(w * h0, h0, 0, si, 0.0)]
    counter = 1
    expansions = 0
    push = heappush
    pop = heappop
    while heap:
        f, h, _, idx, gval = pop(heap)
        if gval > g[idx]:
            continue
        if trace is not None:
            trace.append((expansions, idx % width, idx // width, gval, h, 0.0, f))
        expansions += 1
        if idx == gi:
            return _extract_walker(nav, grid, came, si, gi, gval, expansions)
        base = idx * 4
        for k in range(4):
            nidx = nbr[base + k]
            if nidx < 0:
                continue
            c = cost[nidx]
            if c == inf or nidx in blocked_idx:
                continue
            ng = gval + c
            if ng < g[nidx]:
                g[nidx] = ng
                came[nidx] = idx
                nh = abs(nidx % width - gx) + abs(nidx // width - gy)
                push(heap, (ng + w * nh, nh, counter, nidx, ng))
                counter += 1
    return None


def _extract_walker(nav, grid, came, si, gi, total, expansions):
    width = nav.width
    idxs = [gi]
    while idxs[-1] != si:
        idxs.append(came[idxs[-1]])
    idxs.reverse()
    steps = [PlanStep((si % width, si // width), None)]
    for idx in idxs[1:]:
        steps.append(PlanStep((idx % width, idx // width), Action.STEP))
    return Plan(tuple(steps), total, 0.0, expansions)


def _search_driver(nav, grid, si, gi, w, alpha, heading, blocked_idx, trace):
    width = nav.width
    size4 = nav.size * 4
    cost = nav.dcost
    nbr = nav.nbr
    edge_act = nav.edge_actions()
    risks = _RISKS
    inf = math.inf
    gx, gy = gi % width, gi // width
    g = [inf] * size4
    risk_acc = [0.0] * size4
    came = [-1] * size4
    act_in = [_FORWARD] * size4
    s0 = si * 4 + heading
    g[s0] = 0.0
    h0 = abs(si % width - gx) + abs(si // width - gy)
    heap = [(w * h0, h0, 0, s0, 0.0)]
    counter = 1
    expansions = 0
    push = heappush
    pop = heappop
    while heap:
        f, h, _, state, gval = pop(heap)
        if gval > g[state]:
            continue
        idx = state >> 2
        if trace is not None:
            r_in = _RISKS[act_in[state]] if came[state] >= 0 else 0.0
            trace.append((expansions, idx % width, idx // width, gval, h, r_in, f))
        expansions += 1
        if idx == gi:
            return _extract_driver(
                nav, grid, came, act_in, s0, state, gval, risk_acc[state], expansions,
            )
        nbase = idx * 4
        ebase = state * 4
        for k in range(4):
            nidx = nbr[nbase + k]
            if nidx < 0:
                continue
            c = cost[nidx]
            if c == inf or nidx in blocked_idx:
                continue
            a = edge_act[ebase + k]
            r = risks[a]
            ng = gval + c + alpha * r
            nstate = nidx * 4 + k
            if ng < g[nstate]:
                g[nstate] = ng
                risk_acc[nstate] = risk_acc[state] + r
                came[nstate] = state
                act_in[nstate] = a
                nh = abs(nidx % width - gx) + abs(nidx // width - gy)
                push(heap, (ng + w * nh, nh, counter, nstate, ng))
                counter += 1
    return None


def _extract_driver(nav, grid, came, act_in, s0, goal_state, total, risk_total,
                    expansions):
    width = nav.width
    states = [goal_state]
    while states[-1] != s0:
        states.append(came[states[-1]])
    states.reverse()
    steps = []
    for i, state in enumerate(states):
        idx = state >> 2
        action = _ACTIONS[act_in[state]] if i > 0 else None
        steps.append(PlanStep((idx % width, idx // width), action))
    return Plan(tuple(steps), total, risk_total, expansions)
