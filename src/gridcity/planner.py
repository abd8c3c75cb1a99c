"""Risk-aware Weighted A* route planning.

The search expands 4-neighbors best-first by f = g + w*h + alpha*r, where g
accumulates per-cell ground costs plus alpha-scaled action risk, h is the
Manhattan distance to the goal, and r prices driver maneuvers (forward, turns,
lane changes, wrong-way moves).  One search serves both kinds over integer
states ``cell << shift``: walkers plan over plain cells (shift 0), where no move
carries risk; drivers plan over (cell, heading) states (shift 2, the heading's
``Direction`` value in the two low bits) so turn risk is well-defined.  A plan
holds its route as the flat cells ``y * width + x`` of its states; a driver
move's risk is that of its ``Action``, which ``_classify`` names from the layout.

Each expansion is table lookups over data built once per layout: a cell's
move mask in ``_moves`` picks the shared tuple of its valid moves, and the
coordinate tables of ``_coords`` give the heuristic and the trace (and
``agents.act`` the cells it moves through).  A blocked cell blocks every state
on it, and the risk term is added only when alpha is non-zero.  Open states
pop by ``(f, h, counter)``; each expansion keeps its best new entry out of
the heap and takes the next state with ``heappushpop``, which pops what
``heappop`` over every entry would pop (see ``_search``), so a greedy run of
expansions never touches the heap.

``plan`` remembers the answer to each query made around no blocked cell and
without a trace, for one obstacle overlay of the layout at a time (see
``plan``): the runs of a sweep at one seed and obstruction repeat most of
their construction plans.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush, heappushpop

import numpy as np

from .environment import (
    Coord,
    Direction,
    DIRECTION_TABLE,
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


_RISKS = {Action.FORWARD: 0.0, Action.RIGHT_TURN: 1.0, Action.LEFT_TURN: 2.0,
          Action.LANE_CHANGE: 3.0, Action.INVALID_TURN: 5.0, Action.BACKWARD: 20.0}


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


@dataclass(frozen=True, slots=True)
class Plan:
    """Cell-by-cell route from start to goal inclusive.

    ``route`` holds each cell once, as its flat index ``y * width + x`` on
    the map it was planned on."""

    route: array  # array("i") of flat cell indices
    total_cost: float  # accumulated g at extraction (== f, since h(goal) = 0)
    risk_total: float  # unscaled sum of action risks along the route
    expansions: int

    def __len__(self) -> int:
        return len(self.route)


def _moves(grid: GridMap, kind: str):
    """Search tables ``(shift, moves, masks, risk)`` for one agent kind.

    States are ``cell << shift``: shift 0 for walkers, shift 2 for drivers,
    whose two low bits hold the heading.  ``masks[cell]`` is one byte whose
    bit k is set when the move in Direction k stays on the grid and enters
    ground the kind can pass.  ``moves[mask]`` is the tuple of that mask's
    moves ``(delta, step, k)`` in NESW order, which keeps the search's push
    order: the move from ``cell`` enters cell
    ``cell + step`` and state ``(cell << shift) + delta``, whose low bits
    hold k for a driver.  The 16 tuples are shared by every cell.
    ``risk[state*4 + k]`` is the unscaled risk of a driver's move in
    direction k from ``state``, one byte each (the risks are small
    integers, so ``alpha * risk`` is the double of the float risk); it is
    filled only from driver-passable cells, since no search expands
    another.  Walker moves carry no risk, so their ``risk`` is None.  The
    tables read the layout alone (``ground`` and ``flow``), never the
    obstacle overlay: an obstacle's infinite cost in ``GridMap.costs`` keeps
    every search out of it.  So they are a layout table
    (``GridMap.layout_table``), built once per layout and kind.
    """
    return grid.layout_table(("moves", kind), lambda: _build_moves(grid, kind))


def _build_moves(grid: GridMap, kind: str):
    """The search tables that ``_moves`` returns, built from the layout."""
    width, height = grid.width, grid.height
    cell_cost = grid.ground_costs(kind)
    shift, heading_bits = (0, 0) if kind == "walker" else (2, 3)
    steps = [dy * width + dx for dx, dy, _, _ in DIRECTION_TABLE]
    moves = tuple(
        tuple(
            ((step << shift) + (k & heading_bits), step, k)
            for k, step in enumerate(steps) if mask >> k & 1
        )
        for mask in range(16)
    )
    # bit k of a cell's mask is its neighbour's passability in direction k,
    # and 0 off the grid
    passable = (np.array(cell_cost) != math.inf).astype(np.uint8)
    masks = np.zeros(width * height, np.uint8)
    for k, near in enumerate(grid.neighbours(passable)):
        masks |= near << k
    masks = masks.tobytes()
    if kind == "walker":
        return 0, moves, masks, None
    risk = bytearray(width * height * 16)
    flow, ground, road = grid.flow, grid.ground, GroundType.ROAD
    turnspots = grid.turnspots().tolist()
    # a move's risks per heading, by all that _classify reads: the
    # two cells' flow, whether the target is road, turnspot and d
    risks_of: dict = {}
    for i, mask in enumerate(masks):
        if cell_cost[i] == math.inf:
            continue
        turnspot = turnspots[i]
        fm = flow[i]
        for _, step, k in moves[mask]:
            t = i + step
            move = (fm, flow[t], ground[t] == road, turnspot, k)
            risks = risks_of.get(move)
            if risks is None:
                risks = risks_of[move] = bytes([
                    int(_RISKS[a]) for a in _classify(grid, i, t, k, turnspot)
                ])
            # risk[(i*4 + hd)*4 + k] for the headings hd = 0..3
            risk[i * 16 + k:i * 16 + 16:4] = risks
    return 2, moves, masks, bytes(risk)


def _coords(grid: GridMap):
    """Per-cell coordinate tables ``(xs, ys)`` of the layout, indexed
    ``y * width + x``: each cell's x and its y.  A layout table
    (``GridMap.layout_table``)."""
    return grid.layout_table("coords", lambda: _build_coords(grid.width, grid.height))


def _build_coords(width: int, height: int):
    return list(range(width)) * height, [y for y in range(height) for _ in range(width)]


def _classify(grid: GridMap, fi: int, ti: int, d: int, turnspot: bool) -> list:
    """The Actions of a driver move from cell fi in Direction d into its
    neighbour ti, one per heading held before the move, at its value: forward
    along the heading and fi's flow, a lane change onto a parallel same-flow
    road lane, a turn off a ``turnspot`` into aligned flow, else invalid or
    backward (against fi's only flow, reversing or straight off-flow)."""
    _, _, back, clockwise = DIRECTION_TABLE[d]
    fm = grid.flow[fi]
    if fm == 1 << back:
        return [Action.BACKWARD] * 4  # against the only permitted direction
    tf = grid.flow[ti]
    if grid.ground[ti] == GroundType.ROAD and fm != 0 and tf == fm:
        right = left = Action.LANE_CHANGE
    elif turnspot and tf & (1 << d):
        right, left = Action.RIGHT_TURN, Action.LEFT_TURN
    else:
        right = left = Action.INVALID_TURN
    actions = [Action.BACKWARD] * 4  # reversing: heading opposite to d
    actions[d] = Action.FORWARD if fm & (1 << d) else Action.BACKWARD
    # from the heading counter-clockwise of d (clockwise of its opposite) the
    # move turns right; from the heading clockwise of d it turns left
    actions[DIRECTION_TABLE[back][3]] = right
    actions[clockwise] = left
    return actions


def default_heading(grid: GridMap, cell: Coord) -> Direction:
    """Heading a driver inherits on a cell: its first flow direction (NESW
    order).  The cell must lie inside the grid."""
    flow = grid.flow[grid.index_of(cell)]
    if not flow:
        raise ValueError(f"cell {cell} has no flow direction to derive a heading from")
    return Direction((flow & -flow).bit_length() - 1)  # the lowest bit set


# The most plans one layout's memo holds (about 0.7 KB each with its key); a
# full memo is emptied.  _MISS marks a query not yet answered, since None is
# an answer.
_MEMO_SIZE = 4096
_MISS = object()


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

    A query with no blocked cell (after the start is dropped) and no
    ``trace`` is answered once per layout: its answer, a ``Plan`` or None,
    is remembered in the layout table ``"plans"`` under ``(grid.obstacles,
    kind, start state, goal cell, w, alpha)``, which holds all that the
    search reads besides the layout itself (alpha is 0.0 for a walker, and a
    driver's start state holds its heading).  The memo holds one overlay's
    answers: a miss on another overlay empties it first, as does a miss on
    a full memo (``_MEMO_SIZE`` answers).  A sweep runs seed by seed, then
    obstruction by obstruction, so the runs that share an overlay (an equal
    obstacle set) meet while it is held, and only the bare layout
    (obstruction 0) comes back, at the next seed.  A ``Plan`` is frozen and
    nothing writes its route, so one object may serve many agents.  A blocked
    or traced query always searches.  A ``heading`` other than a
    ``Direction`` or None raises ValueError.
    """
    if heading is not None and not isinstance(heading, Direction):
        raise ValueError(f"heading must be a Direction or None, got {heading!r}")
    si, gi = grid.index_of(start), grid.index_of(goal)
    width = grid.width
    cost_arr = grid.costs(profile.kind)
    if cost_arr[si] == math.inf:
        raise ValueError(f"start {start} is not traversable for a {profile.kind}")
    if cost_arr[gi] == math.inf:
        raise ValueError(f"goal {goal} is not traversable for a {profile.kind}")
    blocked_idx = {c[1] * width + c[0] for c in blocked if grid.in_bounds(c)}
    blocked_idx.discard(si)
    if gi in blocked_idx:
        return None

    kind = profile.kind
    if kind == "walker":  # no walker move carries risk, whatever alpha
        s0, alpha = si, 0.0
    else:
        if heading is None:
            heading = default_heading(grid, start)
        s0, alpha = (si << 2) | heading, profile.alpha
    if blocked_idx or trace is not None:
        return _search(grid, kind, s0, gi, profile.w, alpha, blocked_idx, trace)
    memo = grid.layout_table("plans", dict)
    obstacles = grid.obstacles
    key = (obstacles, kind, s0, gi, profile.w, alpha)
    found = memo.get(key, _MISS)
    if found is _MISS:
        # identity first, so a miss on the held overlay object skips
        # comparing two obstacle sets
        held = next(iter(memo), key)[0]
        if len(memo) >= _MEMO_SIZE or (held is not obstacles and held != obstacles):
            memo.clear()
        found = memo[key] = _search(grid, kind, s0, gi, profile.w, alpha, blocked_idx, None)
    return found


def _search(grid, kind, s0, gi, w, alpha, blocked, trace):
    """Weighted A* from state ``s0`` to any state on cell ``gi``.

    ``blocked`` holds cells: a state is blocked exactly when its cell is.
    ``g`` and ``came`` are dicts over the states the search reaches, so a
    query pays for what it touches, not for the whole grid.  A state on an
    obstacle costs ``inf`` to enter, so ``ng < g`` never holds for it and it
    is never pushed.  The risk term is added only when ``alpha`` is non-zero,
    as a second addition after the cell cost, the float order of
    ``g + cost + alpha * risk``.  The heuristic is ``hx[x] + hy[y]``, two
    rows of distances to the goal's column and row built per search.

    Heap entries are ``(f, h, counter, state, g)``, and the counter is unique,
    so no two entries compare equal and the lowest entry is one definite
    entry.  ``best`` holds the lowest entry that the last expansion made,
    outside the heap; the others are pushed.  ``heappushpop(heap, best)``
    returns the lowest of ``best`` and the heap, the entry ``heappop`` would
    return had ``best`` been pushed too: ``best`` itself, untouched by the
    heap, when it is below the heap's top, and otherwise the top, with
    ``best`` pushed in its place, even when the two tie on f and h and the
    top wins on its earlier counter.  So the pop order, the expansions and
    the trace are those of a search that pushes every entry.
    """
    shift, moves, masks, risk = _moves(grid, kind)
    xs, ys = _coords(grid)
    cost = grid.costs(kind)
    si = s0 >> shift
    inf = math.inf
    gx, gy = xs[gi], ys[gi]
    hx = [*range(gx, 0, -1), *range(grid.width - gx)]  # hx[x] == abs(x - gx)
    hy = [*range(gy, 0, -1), *range(grid.height - gy)]
    g = {s0: 0.0}
    g_of = g.get
    came = {s0: -1}
    h0 = hx[xs[si]] + hy[ys[si]]
    heap = []
    best = (w * h0, h0, 0, s0, 0.0)
    counter = 1
    expansions = 0
    push = heappush
    pushpop = heappushpop
    pop = heappop
    while best is not None or heap:
        if best is None:
            f, h, _, state, gval = pop(heap)
        else:
            f, h, _, state, gval = pushpop(heap, best)
            best = None
        if gval > g[state]:
            continue
        idx = state >> shift
        if trace is not None:
            prev = came[state]
            r_in = float(risk[prev * 4 + (state & 3)]) if shift and prev >= 0 else 0.0
            trace.append((expansions, xs[idx], ys[idx], gval, h, r_in, f))
        expansions += 1
        if idx == gi:
            return _extract(shift, risk, came, s0, state, gval, expansions)
        ebase = state * 4
        base = idx << shift
        for delta, step, k in moves[masks[idx]]:
            nidx = idx + step
            if nidx in blocked:
                continue
            nstate = base + delta
            ng = gval + cost[nidx]
            if alpha:
                ng += alpha * risk[ebase + k]
            if ng < g_of(nstate, inf):
                g[nstate] = ng
                came[nstate] = state
                nh = hx[xs[nidx]] + hy[ys[nidx]]
                entry = (ng + w * nh, nh, counter, nstate, ng)
                counter += 1
                if best is None:
                    best = entry
                elif entry < best:
                    push(heap, best)
                    best = entry
                else:
                    push(heap, entry)
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
    route = array("i", [s >> shift for s in states] if shift else states)
    return Plan(route, total, risk_total, expansions)
