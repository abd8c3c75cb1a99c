"""Pinned sha256 digest of the plans and search traces of seeded queries.

The CSV digests in ``test_digests.py`` only cover drivers with alpha 1.0.
These queries mix walkers and drivers, heuristic weights 1, 3 and 5,
non-integer risk sensitivities, blocked sets (some holding the start, some
the goal) and failed searches, so the digest pins every plan's cells and
actions, the float order of ``total_cost`` and ``risk_total``, the expansion
count and the full (step, x, y, g, h, r, f) trace.  A plan holds only its
cells, so the pinned actions are derived from them: ``route_actions`` names
each driver move, and every walker move is written as "step", the
direction-agnostic action walker plans carried when the digest was pinned.
A refactor of the planner must leave the digest unchanged; a deliberate
change of search behaviour re-pins it and says why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import random

from gridcity.environment import Direction, LayoutSpec, generate_layout, place_obstacles
from gridcity.planner import BehaviorProfile, plan
from helpers import cells_of, flow_of, parking_2x2, random_grid, route_actions, traversable_cells

EXPECTED = "6ae440e2f644b8a6b565fe3d172f07405593b55b7b6dc61126d5db83b9e666a3"


def _grids():
    city = generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))
    yield "city", place_obstacles(city, 0.05, random.Random(7)), 6
    yield "parking", parking_2x2(), 8
    for seed in range(4):
        yield f"random{seed}", random_grid(random.Random(seed), 15, 15), 6


def _queries():
    """(label, grid, start, goal, profile, blocked, heading) per query."""
    for name, grid, count in _grids():
        rng = random.Random(name)
        for kind in ("walker", "driver"):
            cells = traversable_cells(grid, kind)
            for i in range(count):
                start, goal = rng.sample(cells, 2)
                profile = BehaviorProfile(
                    kind=kind,
                    w=float(rng.choice((1, 3, 5))),
                    alpha=rng.choice((0.0, 0.37, 1.0, 2.9)),
                )
                blocked = set(rng.sample(cells, min(len(cells), 12)))
                blocked.discard(goal)
                if i == 0:
                    blocked.add(start)
                elif i == 1:
                    blocked.add(goal)  # fails at once, with an empty trace
                heading = None
                if kind == "driver" and i % 2:
                    flow = flow_of(grid, start)
                    heading = rng.choice([d for d in Direction if d in flow])
                label = f"{name}|{kind}|{start}|{goal}|{profile.w!r}|{profile.alpha!r}|{heading!s}"
                yield label, grid, start, goal, profile, frozenset(blocked), heading


def _record(lines, label, grid, profile, heading, route, trace):
    lines.append(label)
    if route is None:
        lines.append("no route")
    else:
        cells = cells_of(grid, route)
        lines.append(repr(cells))
        if profile.kind == "walker":
            moves = ["step"] * (len(route) - 1)
        else:
            moves = [a.value for a in route_actions(grid, cells, heading)]
        lines.append(repr([None] + moves))
        lines.append(f"{route.total_cost!r} {route.risk_total!r} {route.expansions}")
    for step, x, y, g, h, r, f in trace:
        lines.append(f"{step},{x},{y},{g!r},{h},{r!r},{f!r}")


def test_plan_and_trace_digest_is_pinned():
    lines: list = []
    found = failed = 0
    for label, grid, start, goal, profile, blocked, heading in _queries():
        trace: list = []
        route = plan(grid, start, goal, profile, blocked=blocked, heading=heading, trace=trace)
        if route is None:
            failed += 1
        else:
            found += 1
        _record(lines, label, grid, profile, heading, route, trace)
    assert found > 0 and failed > 0
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPECTED
