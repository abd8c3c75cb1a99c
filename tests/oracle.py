"""Independent Dijkstra oracle for checking planner costs.

Uniform-cost search (no heuristic, no weighting) over the same edge model the
planner defines: edge weight = destination cell cost + alpha * action risk.
Kept deliberately separate from the package's search code.
"""
from __future__ import annotations

import heapq
import math

from gridcity.environment import Direction, DIRECTION_TABLE, GridMap
from gridcity.planner import Action, classify_action

# the risk of each driver maneuver (Forward 0 ... Backward 20)
RISKS = {Action.FORWARD: 0, Action.RIGHT_TURN: 1, Action.LEFT_TURN: 2,
         Action.LANE_CHANGE: 3, Action.INVALID_TURN: 5, Action.BACKWARD: 20}


def walker_dijkstra(grid: GridMap, start, goal, blocked=frozenset()):
    """Cheapest walker cost start -> goal, or None when unreachable."""
    blocked = {c for c in blocked if c != start}
    cost, width = grid.costs("walker"), grid.width
    if math.inf in (cost[start[1] * width + start[0]], cost[goal[1] * width + goal[0]]):
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, math.inf):
            continue
        if cell == goal:
            return d
        for dx, dy, _, _ in DIRECTION_TABLE:
            to = (cell[0] + dx, cell[1] + dy)
            if not grid.in_bounds(to) or to in blocked:
                continue
            c = cost[to[1] * width + to[0]]
            if c == math.inf:
                continue
            nd = d + c
            if nd < dist.get(to, math.inf):
                dist[to] = nd
                heapq.heappush(heap, (nd, to))
    return None


def driver_dijkstra(grid: GridMap, start, goal, alpha=0.0, heading=None,
                    blocked=frozenset()):
    """Cheapest driver cost start -> goal over (cell, heading) states."""
    blocked = {c for c in blocked if c != start}
    cost, width = grid.costs("driver"), grid.width
    if math.inf in (cost[start[1] * width + start[0]], cost[goal[1] * width + goal[0]]):
        return None
    if heading is None:
        flow = grid.flow_at(start)
        heading = next(d for d in Direction if d in flow)
    dist = {(start, heading): 0.0}
    heap = [(0.0, 0, start, heading)]
    counter = 1
    while heap:
        d, _, cell, hd = heapq.heappop(heap)
        if d > dist.get((cell, hd), math.inf):
            continue
        if cell == goal:
            return d
        for direction, (dx, dy, _, _) in zip(Direction, DIRECTION_TABLE):
            to = (cell[0] + dx, cell[1] + dy)
            if not grid.in_bounds(to) or to in blocked:
                continue
            c = cost[to[1] * width + to[0]]
            if c == math.inf:
                continue
            action = classify_action(grid, cell, to, hd)
            nd = d + c + alpha * RISKS[action]
            state = (to, direction)
            if nd < dist.get(state, math.inf):
                dist[state] = nd
                heapq.heappush(heap, (nd, counter, to, direction))
                counter += 1
    return None


def oracle_cost(grid, start, goal, kind, alpha=0.0, heading=None, blocked=frozenset()):
    if kind == "walker":
        return walker_dijkstra(grid, start, goal, blocked=blocked)
    return driver_dijkstra(grid, start, goal, alpha=alpha, heading=heading,
                           blocked=blocked)
