"""Risk-aware Weighted A* route planning.

The search expands 4-neighbors best-first by f = g + w*h + alpha*r, where g
accumulates per-cell ground costs plus alpha-scaled action risk, h is the
Manhattan distance to the goal, and r prices driver maneuvers (forward, turns,
lane changes, wrong-way moves).  One search serves both kinds over integer
states ``cell << shift``: walkers plan over plain cells (shift 0) with a single
zero-risk step action; drivers plan over (cell, heading) states (shift 2, the
heading in the two low bits) so turn risk is well-defined.
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
        if not all(math.isfinite(v) for v in (self.w, self.alpha, self.max_speed)):
            raise ValueError("w, alpha and max_speed must be finite")
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
_INDEX_BY_DIR = {d: i for i, d in enumerate(DIRECTION_ORDER)}


class _Nav:
    """Flat precomputed arrays for one grid, cached on the grid."""

    __slots__ = (
        "width", "height", "size", "ground", "flow", "wcost", "dcost",
        "turnspot", "nbr", "tables",
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
        self.tables = {}  # per-kind search tables, built on demand

    def moves(self, kind: str):
        """Search tables ``(shift, succ, cost, risk)`` for one agent kind.

        States are ``cell << shift``: shift 0 for walkers, shift 2 for
        drivers, whose two low bits hold the heading.  ``succ[cell*4 + k]`` is
        the state a move in direction k enters, -1 when the move leaves the
        grid or enters ground impassable to the kind.  ``cost[state]`` is the
        ground cost of entering the state's cell, and ``risk[state*4 + k]``
        the move's unscaled risk: all zeros for walkers, and for drivers
        filled only from driver-passable cells, since no search expands
        another.  Built once per grid and kind.
        """
        tables = self.tables.get(kind)
        if tables is None:
            size, nbr = self.size, self.nbr
            if kind == "walker":
                cell_cost = self.wcost
                succ = [n if n >= 0 and cell_cost[n] != math.inf else -1 for n in nbr]
                tables = (0, succ, cell_cost, [0.0] * (size * 4))
            else:
                cell_cost = self.dcost
                succ = [
                    (n << 2) | (e & 3) if n >= 0 and cell_cost[n] != math.inf else -1
                    for e, n in enumerate(nbr)
                ]
                cost = [c for c in cell_cost for _ in range(4)]
                risk = [0.0] * (size * 16)
                for i in range(size):
                    if cell_cost[i] == math.inf:
                        continue
                    for k in range(4):
                        if succ[i * 4 + k] >= 0:
                            ti = nbr[i * 4 + k]
                            for hd in range(4):
                                risk[(i * 4 + hd) * 4 + k] = _RISKS[_classify(self, i, ti, k, hd)]
                tables = (2, succ, cost, risk)
            self.tables[kind] = tables
        return tables


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

    if profile.kind == "walker":  # no walker move carries risk, whatever alpha
        return _search(nav, "walker", si, gi, profile.w, 0.0, blocked_idx, trace)
    if heading is None:
        heading = default_heading(grid, start)
    blocked_states = {(b << 2) | hd for b in blocked_idx for hd in range(4)}
    return _search(
        nav, "driver", (si << 2) | _INDEX_BY_DIR[heading], gi,
        profile.w, profile.alpha, blocked_states, trace,
    )


def _search(nav, kind, s0, gi, w, alpha, blocked, trace):
    """Weighted A* from state ``s0`` to any state on cell ``gi``."""
    shift, succ, cost, risk = nav.moves(kind)
    width = nav.width
    si = s0 >> shift
    inf = math.inf
    gx, gy = gi % width, gi // width
    g = [inf] * len(cost)
    came = [-1] * len(cost)
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
        idx = state >> shift
        if trace is not None:
            prev = came[state]
            r_in = risk[prev * 4 + (state & 3)] if prev >= 0 else 0.0
            trace.append((expansions, idx % width, idx // width, gval, h, r_in, f))
        expansions += 1
        if idx == gi:
            return _extract(nav, shift, came, s0, state, gval, expansions)
        nbase = idx * 4
        ebase = state * 4
        for k in range(4):
            nstate = succ[nbase + k]
            if nstate < 0 or nstate in blocked:
                continue
            ng = gval + cost[nstate] + alpha * risk[ebase + k]
            if ng < g[nstate]:
                g[nstate] = ng
                came[nstate] = state
                nidx = nstate >> shift
                nh = abs(nidx % width - gx) + abs(nidx // width - gy)
                push(heap, (ng + w * nh, nh, counter, nstate, ng))
                counter += 1
    return None


def _extract(nav, shift, came, s0, goal_state, total, expansions):
    width = nav.width
    states = [goal_state]
    while states[-1] != s0:
        states.append(came[states[-1]])
    states.reverse()
    si = s0 >> shift
    steps = [PlanStep((si % width, si // width), None)]
    risk_total = 0.0
    for prev, state in zip(states, states[1:]):
        idx = state >> shift
        if shift:  # a driver: the move's direction and the heading before it
            a = _classify(nav, prev >> 2, idx, state & 3, prev & 3)
            risk_total += _RISKS[a]
            action = _ACTIONS[a]
        else:
            action = Action.STEP
        steps.append(PlanStep((idx % width, idx // width), action))
    return Plan(tuple(steps), total, risk_total, expansions)
