"""Reference implementations that faster code is tested against.

``sense``, ``react_walker`` and ``react_driver`` are the per-agent loop that
``gridcity.agents.decide`` replaced: each agent senses the whole population
on its own, then one rule function picks its decision.

``act`` (with ``_advance``), ``detect_collisions`` and ``build_frame`` are the
per-agent step that the population's columns replaced: each walks a list or
dict of ``AgentState`` records and updates one agent at a time.  ``act``
replans through ``gridcity.planner.plan``.

``plan`` and the ``_moves``, ``_search`` and ``_extract`` it calls are the
Weighted A* kernel that per-cell move masks, coordinate tables and
cell-level blocking replaced: it scans all four directions of a flat
``succ`` table with ``-1`` for an invalid move, computes coordinates with
``%`` and ``//``, adds the risk term on every move, finds a driver's turn
spots one cell at a time (``_turnspot``, in place of the layout's
``turnspots`` table), and widens a driver's blocked cells to all four
heading states.  Its tables are layout tables under their own key, read
through ``GridMap.layout_table``.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush

from gridcity import planner
from gridcity.agents import AgentState, Decision, Status
from gridcity.engine import RUNOVER_DIST, VEHICLE_VEHICLE_DIST, Event
from gridcity.environment import (
    ROAD_FAMILY,
    Coord,
    Direction,
    DIRECTION_TABLE,
    FLOW_GROUNDS,
    GridMap,
    GroundType,
)
from gridcity.metrics import HeatmapSet, MetricsFrame
from gridcity.planner import (
    _RISKS,
    BehaviorProfile,
    Plan,
    _classify,
    default_heading,
)
from helpers import cell_of, cells_of, ground_of


@dataclass(frozen=True)
class Perception:
    """What one agent saw this step within its sensing window."""

    nearby: tuple  # AgentState entries within the window
    vehicle_conflict: bool  # an active driver is inside the window
    conflict_index: int | None  # window slot (0 = next cell) of the nearest active agent
    pedestrian_near_zebra: bool  # walker within yield radius of an upcoming zebra
    blocked_cells: frozenset  # upcoming plan cells occupied by inactive agents


_NOTHING_SEEN = Perception((), False, None, False, frozenset())


def _window(agent: AgentState, grid: GridMap, lookahead: int) -> list[Coord]:
    """The agent's next ``lookahead`` plan cells."""
    if agent.plan is None:
        return []
    return list(cells_of(grid, agent.plan)[agent.cursor:agent.cursor + lookahead])


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
    window = _window(agent, grid, lookahead)
    if not window:
        return _NOTHING_SEEN
    centers = []
    zebra_centers = []
    check_zebras = agent.kind == "driver"
    for c in window:
        center = (c[0] + 0.5, c[1] + 0.5)
        centers.append(center)
        if check_zebras and ground_of(grid, c) is GroundType.ZEBRA:
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
            cell = cell_of(other)
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
    on_zebra = ground_of(grid, cell_of(agent)) is GroundType.ZEBRA
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


# -- the per-agent step -------------------------------------------------------


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
    A replan plans to the plan's last cell; a failed one leaves the old plan
    in place and waits this step.
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
        new_plan = planner.plan(
            grid,
            cell_of(agent),
            cells_of(grid, agent.plan)[-1],
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
    for d, row in zip(Direction, DIRECTION_TABLE):
        if row[:2] == delta:
            return d
    return None


def _advance(agent: AgentState, grid: GridMap) -> None:
    """Move by the current speed along the plan polyline of cell centers."""
    if agent.plan is None:
        return
    cells = cells_of(grid, agent.plan)
    budget = agent.speed
    x, y = agent.position
    while budget > 1e-12 and agent.cursor < len(cells):
        cx, cy = cells[agent.cursor]
        tx, ty = cx + 0.5, cy + 0.5
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


def detect_collisions(agents, step: int = 0) -> list[Event]:
    """Report agent pairs closer than the sum of their effective radii.

    Vehicle-vehicle contact below 0.8 cell units, walker-driver (a runover)
    below 0.45; walker pairs never collide.  Only active agents participate
    and each unordered pair is reported at most once.
    """
    active = sorted(
        (a for a in agents if a.status is Status.ACTIVE),
        key=lambda a: a.position[0],
    )
    found = []
    for i in range(len(active)):
        a = active[i]
        ax, ay = a.position
        for j in range(i + 1, len(active)):
            b = active[j]
            dx = b.position[0] - ax
            if dx > VEHICLE_VEHICLE_DIST:
                break  # sorted by x; nothing farther can collide
            if a.kind == "walker" and b.kind == "walker":
                continue
            both_drivers = a.kind == "driver" and b.kind == "driver"
            threshold = VEHICLE_VEHICLE_DIST if both_drivers else RUNOVER_DIST
            dy = ay - b.position[1]
            if dx * dx + dy * dy < threshold * threshold:
                if both_drivers:
                    kind = "collision_vv"
                    ids = (a.id, b.id) if a.id < b.id else (b.id, a.id)
                else:
                    kind = "runover"
                    ids = (a.id, b.id) if a.kind == "walker" else (b.id, a.id)
                found.append(
                    Event(
                        step,
                        kind,
                        ids,
                        (ax + b.position[0]) / 2,
                        (ay + b.position[1]) / 2,
                    )
                )
    found.sort(key=lambda e: e.agents)
    return found


def build_frame(
    step, agents, pre_cells, events, grid, heatmaps: HeatmapSet
) -> tuple[MetricsFrame, list[int]]:
    """Aggregate one step and add its active-agent occupancy and speed samples
    to ``heatmaps``; also returns the ids of walkers that entered road ground
    this step (for event logging)."""
    active_walkers = 0
    active_drivers = 0
    speed_sum = 0.0
    on_road = 0
    entries: list[int] = []
    for agent in agents.values():
        if agent.status is not Status.ACTIVE:
            continue
        cell = cell_of(agent)
        x, y = cell
        if agent.kind == "driver":
            active_drivers += 1
            speed_sum += agent.speed
            heatmaps.driver_occupancy[y, x] += 1
            heatmaps.driver_speed_sum[y, x] += agent.speed
            continue
        active_walkers += 1
        heatmaps.walker_occupancy[y, x] += 1
        if ground_of(grid, cell) in ROAD_FAMILY:
            on_road += 1
            heatmaps.jaywalk[y, x] += 1
            before = pre_cells.get(agent.id)
            if before is not None and ground_of(grid, before) not in ROAD_FAMILY:
                entries.append(agent.id)
    collisions_vv = sum(1 for e in events if e.kind == "collision_vv")
    runovers = sum(1 for e in events if e.kind == "runover")
    frame = MetricsFrame(
        step=step,
        active_walkers=active_walkers,
        active_drivers=active_drivers,
        mean_driver_speed=(speed_sum / active_drivers) if active_drivers else None,
        jaywalk_entries=len(entries),
        walkers_on_road=on_road,
        collisions_vv=collisions_vv,
        runovers=runovers,
    )
    return frame, entries


# -- the Weighted A* kernel ----------------------------------------------------


def _turnspot(grid: GridMap, i: int) -> bool:
    """Whether a driver may turn when leaving cell i: a turn cell, or a flow
    cell with a zebra among its on-grid 4-neighbours."""
    ground = grid.ground
    if ground[i] == GroundType.TURN or ground[i] == GroundType.LEFT_TURN:
        return True
    if ground[i] not in FLOW_GROUNDS:
        return False
    width = grid.width
    x, y = i % width, i // width
    for dx, dy, _, _ in DIRECTION_TABLE:
        nx, ny = x + dx, y + dy
        if 0 <= nx < width and 0 <= ny < grid.height:
            if ground[ny * width + nx] == GroundType.ZEBRA:
                return True
    return False


def _moves(grid: GridMap, kind: str):
    """Search tables ``(shift, succ, risk)`` for one agent kind.

    States are ``cell << shift``: shift 0 for walkers, shift 2 for drivers,
    whose two low bits hold the heading.  ``succ[cell*4 + k]`` is the state a
    move in Direction k enters, -1 when the move leaves the grid or enters
    ground impassable to the kind, and
    ``risk[state*4 + k]`` the move's unscaled risk: all zeros for walkers,
    and for drivers filled only from driver-passable cells, since no search
    expands another.  The tables read the layout alone (``ground`` and
    ``flow``), never the obstacle overlay: an obstacle's infinite cost in
    ``GridMap.costs`` keeps every search out of it.  So they are built once
    per layout and kind, through ``GridMap.layout_table``.
    """
    def build():
        width, height = grid.width, grid.height
        size = width * height
        cell_cost = grid.ground_costs(kind)
        shift, heading_bits = (0, 0) if kind == "walker" else (2, 3)
        succ = [-1] * (size * 4)
        for y in range(height):
            for x in range(width):
                i4 = (y * width + x) * 4
                for k, (dx, dy, _, _) in enumerate(DIRECTION_TABLE):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height:
                        n = ny * width + nx
                        if cell_cost[n] != math.inf:
                            succ[i4 + k] = (n << shift) | (k & heading_bits)
        if kind == "walker":
            return (0, succ, [0.0] * (size * 4))
        risk = [0.0] * (size * 16)
        for i in range(size):
            if cell_cost[i] == math.inf:
                continue
            turnspot = _turnspot(grid, i)
            for k in range(4):
                n = succ[i * 4 + k]
                if n >= 0:
                    for hd, a in enumerate(_classify(grid, i, n >> 2, k, turnspot)):
                        risk[(i * 4 + hd) * 4 + k] = _RISKS[a]
        return (2, succ, risk)

    return grid.layout_table(("reference moves", kind), build)


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
    may pass a set that holds it.  A blocked goal can never be entered, so it
    gets None without a search.  ``trace``, when given a list, receives
    one (step, x, y, g, h, r, f) tuple per node expansion.
    """
    if not grid.in_bounds(start) or not grid.in_bounds(goal):
        raise ValueError("start and goal must lie inside the grid")
    width = grid.width
    cost_arr = grid.costs(profile.kind)
    si = start[1] * width + start[0]
    gi = goal[1] * width + goal[0]
    if cost_arr[si] == math.inf:
        raise ValueError(f"start {start} is not traversable for a {profile.kind}")
    if cost_arr[gi] == math.inf:
        raise ValueError(f"goal {goal} is not traversable for a {profile.kind}")
    blocked_idx = {c[1] * width + c[0] for c in blocked if grid.in_bounds(c)}
    blocked_idx.discard(si)
    if gi in blocked_idx:
        return None

    if profile.kind == "walker":  # no walker move carries risk, whatever alpha
        return _search(grid, "walker", si, gi, profile.w, 0.0, blocked_idx, trace)
    if heading is None:
        heading = default_heading(grid, start)
    blocked_states = {(b << 2) | hd for b in blocked_idx for hd in range(4)}
    return _search(
        grid, "driver", (si << 2) | heading, gi,
        profile.w, profile.alpha, blocked_states, trace,
    )


def _search(grid, kind, s0, gi, w, alpha, blocked, trace):
    """Weighted A* from state ``s0`` to any state on cell ``gi``.

    ``g`` and ``came`` are dicts over the states the search reaches, so a
    query pays for what it touches, not for the whole grid.  A state on an
    obstacle costs ``inf`` to enter, so ``ng < g`` never holds for it and it
    is never pushed.
    """
    shift, succ, risk = _moves(grid, kind)
    cost = grid.costs(kind)
    width = grid.width
    si = s0 >> shift
    inf = math.inf
    gx, gy = gi % width, gi // width
    g = {s0: 0.0}
    g_of = g.get
    came = {s0: -1}
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
            return _extract(shift, risk, came, s0, state, gval, expansions)
        nbase = idx * 4
        ebase = state * 4
        for k in range(4):
            nstate = succ[nbase + k]
            if nstate < 0 or nstate in blocked:
                continue
            nidx = nstate >> shift
            ng = gval + cost[nidx] + alpha * risk[ebase + k]
            if ng < g_of(nstate, inf):
                g[nstate] = ng
                came[nstate] = state
                nh = abs(nidx % width - gx) + abs(nidx // width - gy)
                push(heap, (ng + w * nh, nh, counter, nstate, ng))
                counter += 1
    return None


def _extract(shift, risk, came, s0, goal_state, total, expansions):
    states = [goal_state]
    while states[-1] != s0:
        states.append(came[states[-1]])
    states.reverse()
    risk_total = 0.0
    if shift:  # a driver: sum the moves' risks in route order
        for prev, state in zip(states, states[1:]):
            risk_total += risk[prev * 4 + (state & 3)]
    return Plan(array("i", [s >> shift for s in states]), total, risk_total, expansions)
