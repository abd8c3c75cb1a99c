import math
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcity.environment import (
    DIRECTION_TABLE,
    Direction,
    GroundType,
    LayoutSpec,
    ROAD_FAMILY,
    generate_layout,
    place_obstacles,
)
from gridcity import planner
from gridcity.planner import (
    Action,
    BehaviorProfile,
    Plan,
    default_heading,
    plan,
    _MEMO_SIZE,
    _build_moves,
    _coords,
    _moves,
)
from helpers import (
    cells_of, classify_action, flow_of, grid_of, ground_of, random_grid, random_instance,
    route_actions, traversable_cells,
)
from oracle import RISKS, oracle_cost
import reference

N, E, S, W = Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST


# -- risk tables ---------------------------------------------------------------


def test_driver_risk_table():
    assert planner._RISKS == RISKS


def test_profile_validation():
    with pytest.raises(ValueError):
        BehaviorProfile(kind="walker", w=0.5)
    with pytest.raises(ValueError):
        BehaviorProfile(kind="driver", alpha=-1)
    with pytest.raises(ValueError):
        BehaviorProfile(kind="driver", max_speed=0)
    with pytest.raises(ValueError):
        BehaviorProfile(kind="cyclist")
    for bad in ({"w": math.nan}, {"alpha": math.nan}, {"alpha": math.inf},
                {"max_speed": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            BehaviorProfile(kind="driver", **bad)


# -- driver action classification ----------------------------------------------


def test_classify_forward():
    grid = grid_of("rN-", "rN-", "rN-")
    assert classify_action(grid, (0, 1), (0, 0), N) is Action.FORWARD


def test_classify_backward_against_flow():
    grid = grid_of("rN-", "rN-", "rN-")
    for heading in (N, S, E):
        assert classify_action(grid, (0, 1), (0, 2), heading) is Action.BACKWARD


def test_classify_backward_wrong_way_straight():
    # heading north into a cell whose only flow is east
    grid = grid_of("rE-", "rE-")
    assert classify_action(grid, (0, 1), (0, 0), N) is Action.BACKWARD


def test_classify_backward_reversal():
    grid = grid_of("tNE tNE")
    assert classify_action(grid, (0, 0), (1, 0), W) is Action.BACKWARD


def test_classify_lane_change():
    grid = grid_of("rN- rN-")
    assert classify_action(grid, (0, 0), (1, 0), N) is Action.LANE_CHANGE


def test_classify_right_turn_from_turn_cell():
    # eastward move from a turn cell whose eastern neighbor flows east
    grid = grid_of("tNE rE-")
    assert classify_action(grid, (0, 0), (1, 0), N) is Action.RIGHT_TURN


def test_classify_left_turn():
    grid = grid_of("rW- lNW")
    assert classify_action(grid, (1, 0), (0, 0), N) is Action.LEFT_TURN


def test_classify_invalid_turn():
    # perpendicular move into aligned flow, but not from a turn spot
    grid = grid_of("rN- rE-", "b-- b--")
    assert classify_action(grid, (0, 0), (1, 0), N) is Action.INVALID_TURN


def test_classify_turn_next_to_zebra():
    # a road cell beside a zebra band counts as a turn spot...
    grid = grid_of("rN- rE-", "zN- b--")
    assert classify_action(grid, (0, 0), (1, 0), N) is Action.RIGHT_TURN
    # ...while the same move without the zebra neighbor stays invalid
    plain = grid_of("rN- rE-", "rN- b--")
    assert classify_action(plain, (0, 0), (1, 0), N) is Action.INVALID_TURN


def test_classify_from_a_cell_without_flow_is_no_turn():
    # a sidewalk beside a zebra is no turn spot, though a flow cell there is
    grid = grid_of("zN- rE-", "s-- rE-")
    assert classify_action(grid, (0, 1), (1, 1), N) is Action.INVALID_TURN
    assert classify_action(grid, (0, 1), (1, 1), S) is Action.INVALID_TURN
    assert classify_action(grid, (0, 1), (1, 1), E) is Action.BACKWARD


@pytest.mark.parametrize("heading", [5, -1, 4, 1, True, "E"])
def test_plan_and_classify_action_refuse_a_heading_that_is_no_direction(heading):
    # an int heading would be OR-ed into a driver's start state (5 plans as
    # EAST, -1 finds no route)
    grid = generate_layout(LayoutSpec())
    driver = BehaviorProfile("driver", alpha=1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"heading must be a Direction or None, got {heading!r}")):
        plan(grid, (0, 5), (0, 0), driver, heading=heading)


@pytest.mark.parametrize("read", [
    default_heading,
    lambda grid, cell: grid.index_of(cell),
    lambda grid, cell: plan(grid, cell, (0, 5), BehaviorProfile("walker")),
    lambda grid, cell: plan(grid, (0, 5), cell, BehaviorProfile("walker")),
], ids=["default_heading", "index_of", "plan_start", "plan_goal"])
def test_a_cell_read_refuses_a_cell_off_the_grid(read):
    # (-1, 1) would wrap onto (22, 0), a left-turn cell with flow north, and
    # (23, 0) onto (0, 1); a plan's other end, (0, 5), lies on the grid
    grid = generate_layout(LayoutSpec())
    assert (grid.width, grid.height) == (23, 23)
    for cell in [(-1, 1), (23, 0), (0, -1), (0, 23)]:
        with pytest.raises(ValueError, match=re.escape(f"cell {cell} lies outside the grid")):
            read(grid, cell)


def test_classify_generated_intersection_truth_table():
    """Every legal perpendicular exit from a generated intersection classifies
    as a turn whose handedness matches plane geometry."""
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    checked = 0
    for y in range(grid.height):
        for x in range(grid.width):
            if ground_of(grid, (x, y)) not in (GroundType.TURN, GroundType.LEFT_TURN):
                continue
            for heading in flow_of(grid, (x, y)):
                _, _, back, clockwise = DIRECTION_TABLE[heading]
                for d, (dx, dy, _, _) in zip(Direction, DIRECTION_TABLE):
                    to = (x + dx, y + dy)
                    if not grid.in_bounds(to):
                        continue
                    if d in (heading, Direction(back)):
                        continue
                    if d not in flow_of(grid, to):
                        continue
                    action = classify_action(grid, (x, y), to, heading)
                    expected = (
                        Action.RIGHT_TURN if Direction(clockwise) is d
                        else Action.LEFT_TURN
                    )
                    assert action is expected
                    checked += 1
    assert checked > 50


# -- planning ------------------------------------------------------------------


def uniform_sidewalk(n=10):
    row = " ".join(["s--"] * n)
    return grid_of(*[row] * n)


def test_walker_plan_on_uniform_grid():
    grid = uniform_sidewalk(10)
    profile = BehaviorProfile(kind="walker", w=1.0)
    route = plan(grid, (0, 0), (7, 7), profile)
    assert route.total_cost == 14.0
    assert len(route) == 15
    cells = cells_of(grid, route)
    assert (cells[0], cells[-1]) == ((0, 0), (7, 7))
    assert route.risk_total == 0.0


def test_plan_same_start_and_goal():
    grid = uniform_sidewalk(4)
    route = plan(grid, (2, 2), (2, 2), BehaviorProfile(kind="walker"))
    assert len(route) == 1
    assert route.total_cost == 0.0


def test_plan_rejects_untraversable_endpoints():
    grid = grid_of("s-- b--", "s-- s--")
    profile = BehaviorProfile(kind="walker")
    with pytest.raises(ValueError):
        plan(grid, (1, 0), (0, 0), profile)
    with pytest.raises(ValueError):
        plan(grid, (0, 0), (1, 0), profile)
    with pytest.raises(ValueError):
        plan(grid, (0, 0), (5, 5), profile)


def test_plan_failure_is_none():
    grid = grid_of("s-- b-- s--")
    assert plan(grid, (0, 0), (2, 0), BehaviorProfile(kind="walker")) is None


def test_plan_cells_are_adjacent_and_finite():
    rng = random.Random(11)
    profiles = {
        "walker": BehaviorProfile(kind="walker", w=2.0),
        "driver": BehaviorProfile(kind="driver", w=2.0, alpha=1.0),
    }
    found = 0
    for _ in range(40):
        kind = rng.choice(["walker", "driver"])
        grid, start, goal = random_instance(rng, kind)
        route = plan(grid, start, goal, profiles[kind])
        if route is None:
            continue
        found += 1
        cost = grid.costs(kind)
        cells = cells_of(grid, route)
        assert cells[0] == start
        assert cells[-1] == goal
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        for cell in cells:
            assert cost[cell[1] * grid.width + cell[0]] != math.inf
    assert found > 5


@pytest.mark.parametrize("w", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["walker", "driver"])
def test_a_plan_holds_its_cells_as_flat_indices(kind, w):
    # maps wider than tall, so a swapped x and y cannot decode back
    rng = random.Random(f"{kind} {w}")
    profile = BehaviorProfile(kind=kind, w=w, alpha=1.0 if kind == "driver" else 0.0)
    found = 0
    for _ in range(30):
        grid, start, goal = random_instance(rng, kind, width=17, height=11)
        route = plan(grid, start, goal, profile)
        if route is None:
            continue
        found += 1
        width = grid.width
        cells = cells_of(grid, route)
        assert cells[0] == start
        assert cells[-1] == goal
        assert len(route) == len(route.route)
        by_hand = array("i", [y * width + x for x, y in cells])
        assert Plan(by_hand, route.total_cost, route.risk_total, route.expansions) == route
    assert found > 5


def test_oracle_equivalence_quick():
    rng = random.Random(5)
    for kind in ("walker", "driver"):
        for alpha in (0.0, 1.0):
            agreements = 0
            for _ in range(25):
                grid, start, goal = random_instance(rng, kind)
                profile = BehaviorProfile(kind=kind, w=1.0, alpha=alpha)
                route = plan(grid, start, goal, profile)
                expected = oracle_cost(grid, start, goal, kind, alpha=alpha)
                if route is None:
                    assert expected is None
                else:
                    assert route.total_cost == expected
                    agreements += 1
            assert agreements > 3


def test_bounded_suboptimality_quick():
    rng = random.Random(6)
    for _ in range(30):
        kind = rng.choice(["walker", "driver"])
        grid, start, goal = random_instance(rng, kind)
        base = plan(grid, start, goal, BehaviorProfile(kind=kind, w=1.0))
        if base is None:
            continue
        for w in (1.5, 3.0):
            route = plan(grid, start, goal, BehaviorProfile(kind=kind, w=w))
            assert route is not None
            assert route.total_cost <= w * base.total_cost


def test_driver_risk_term_monotone_in_alpha():
    rng = random.Random(7)
    checked = 0
    for _ in range(30):
        grid, start, goal = random_instance(rng, "driver")
        risks = []
        for alpha in (0.0, 1.0, 2.0, 5.0):
            route = plan(grid, start, goal, BehaviorProfile(kind="driver", alpha=alpha))
            risks.append(None if route is None else route.risk_total)
        if any(r is None for r in risks):
            continue
        checked += 1
        for lo, hi in zip(risks, risks[1:]):
            assert hi <= lo
    assert checked > 5


def test_walker_cost_independent_of_alpha():
    rng = random.Random(8)
    checked = 0
    for _ in range(20):
        grid, start, goal = random_instance(rng, "walker")
        a = plan(grid, start, goal, BehaviorProfile(kind="walker", alpha=0.0))
        b = plan(grid, start, goal, BehaviorProfile(kind="walker", alpha=10.0))
        if a is None:
            assert b is None
            continue
        checked += 1
        assert a.total_cost == b.total_cost
        assert a.risk_total == b.risk_total == 0.0
    assert checked > 5


def test_scaling_leaves_optimal_routes_unchanged():
    """Scaling all finite cell costs and risks by c scales every optimal cost
    by c, so the optimizer set is unchanged."""
    rng = random.Random(9)
    checked = 0
    for _ in range(15):
        grid, start, goal = random_instance(rng, "driver")
        base = oracle_cost(grid, start, goal, "driver", alpha=1.0)
        if base is None:
            continue
        checked += 1
        route = plan(grid, start, goal, BehaviorProfile(kind="driver", alpha=1.0))
        assert route.total_cost == base
        for c in (2.0, 10.0):
            # scaled problem solved by the oracle with scaled edge weights:
            # equivalent to scaling the oracle result since edges scale linearly
            scaled = oracle_cost(grid, start, goal, "driver", alpha=1.0)
            assert c * scaled == c * base
            # the planner's route stays optimal under the scaled costs
            assert c * route.total_cost == c * base
    assert checked > 3


def test_greedier_weights_expand_no_more_nodes_mostly():
    rng = random.Random(10)
    wins = total = 0
    for _ in range(60):
        grid, start, goal = random_instance(rng, "walker")
        a = plan(grid, start, goal, BehaviorProfile(kind="walker", w=1.0))
        b = plan(grid, start, goal, BehaviorProfile(kind="walker", w=5.0))
        if a is None or b is None:
            continue
        total += 1
        if b.expansions <= a.expansions:
            wins += 1
    rate = wins / total if total else 0.0
    # informational: heuristic inflation typically reduces expansions
    print(f"\n[planner] w=5 expanded <= w=1 on {wins}/{total} instances ({rate:.0%})")
    assert total > 10


def test_high_weight_walker_uses_road_cells_low_weight_avoids():
    grid = place_obstacles(
        generate_layout(LayoutSpec(blocks_x=2, blocks_y=2)), 0.25, random.Random(3)
    )
    start, goal = (5, 4), (36, 37)
    cautious = plan(grid, start, goal, BehaviorProfile(kind="walker", w=1.0))
    reckless = plan(grid, start, goal, BehaviorProfile(kind="walker", w=5.0))
    road = lambda route: {c for c in cells_of(grid, route) if ground_of(grid, c) in ROAD_FAMILY}
    assert len(road(reckless)) > len(road(cautious))
    assert road(reckless) - road(cautious)


def test_a_walkers_road_cells_per_route_rise_with_its_weight():
    # on the bare city a walker at w <= 2 never leaves its sidewalks and
    # zebras (the same queries read 0 / 0 / 0.44 road cells per route), so
    # the obstacles are what make a detour across a lane worth weighing
    grid = place_obstacles(
        generate_layout(LayoutSpec(blocks_x=5, blocks_y=5)), 0.05, random.Random(3)
    )
    sites = [c for c in grid.walker_spawns if c not in grid.obstacles]
    rng = random.Random(0)
    queries = [rng.sample(sites, 2) for _ in range(200)]
    road = grid.ground_mask(*ROAD_FAMILY)
    means = []
    for w in (1.0, 2.0, 3.0):
        walker = BehaviorProfile(kind="walker", w=w)
        routes = [plan(grid, start, goal, walker).route for start, goal in queries]
        means.append(sum(int(road[i]) for route in routes for i in route) / len(routes))
    # read 2.00 / 3.62 / 5.96
    assert means[0] < means[1] < means[2]


# -- replan ---------------------------------------------------------------------


def test_replan_without_blockers_matches_plan():
    grid = uniform_sidewalk(8)
    profile = BehaviorProfile(kind="walker")
    assert (
        cells_of(grid, plan(grid, (0, 0), (5, 5), profile, blocked=frozenset()))
        == cells_of(grid, plan(grid, (0, 0), (5, 5), profile))
    )


def test_replan_avoids_blocked_cells_or_fails():
    # two east-west sidewalk corridors joined at both ends
    grid = grid_of(
        "s-- s-- s-- s-- s--",
        "s-- b-- b-- b-- s--",
        "s-- s-- s-- s-- s--",
    )
    profile = BehaviorProfile(kind="walker")
    base = plan(grid, (0, 0), (4, 0), profile)
    assert cells_of(grid, base) == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))
    blocked = {(1, 0), (2, 0), (3, 0)}
    detour = plan(grid, (0, 0), (4, 0), profile, blocked=blocked)
    assert detour is not None
    assert not blocked & set(cells_of(grid, detour))
    # blocking both corridors leaves no route
    assert plan(grid, (0, 0), (4, 0), profile, blocked=blocked | {(1, 2)}) is None


def test_replan_blocked_goal_fails():
    grid = uniform_sidewalk(5)
    profile = BehaviorProfile(kind="walker")
    assert plan(grid, (0, 0), (4, 4), profile, blocked={(4, 4)}) is None
    # a blocked goal can never be entered, so no search runs
    trace = []
    assert plan(grid, (0, 0), (4, 4), profile, blocked={(4, 4)}, trace=trace) is None
    assert trace == []
    city = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    (start, heading), goal = city.driver_spawns[0], city.driver_exits[0]
    driver = BehaviorProfile(kind="driver")
    assert plan(city, start, goal, driver, heading=heading) is not None
    assert plan(city, start, goal, driver, blocked={goal}, heading=heading, trace=trace) is None
    assert trace == []


def test_plan_ignores_blocked_start():
    # agents re-plan around the cells of every inactive agent, which may hold
    # their own; a driver facing away from its goal loops around the ring of
    # turn cells and back through its start rather than reverse
    ring = grid_of("s-- rN-", "tN- tSN", "tE- tW-")
    driver = BehaviorProfile(kind="driver", alpha=5.0)
    route = ((1, 1), (1, 2), (0, 2), (0, 1), (1, 1), (1, 0))
    assert cells_of(ring, plan(ring, (1, 1), (1, 0), driver, heading=S)) == route
    looped = plan(ring, (1, 1), (1, 0), driver, blocked={(1, 1)}, heading=S)
    assert cells_of(ring, looped) == route


def test_obstacle_overlay_shares_layout_tables_not_costs():
    # planning on the parent first builds its cost lists and search tables;
    # an overlay reuses the tables but marks its obstacles in its own costs,
    # on a sidewalk cell of the walker's route and a road cell of the driver's
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    walker = BehaviorProfile(kind="walker")
    (driver_start, heading), driver_goal = grid.driver_spawns[0], grid.driver_exits[0]
    driver = BehaviorProfile(kind="driver")
    queries = [
        (grid.walker_spawns[0], grid.walker_spawns[-1], walker, None),
        (driver_start, driver_goal, driver, heading),
    ]
    for start, goal, profile, hd in queries:
        route = cells_of(grid, plan(grid, start, goal, profile, heading=hd))
        cell = route[len(route) // 2]
        overlay = grid.with_obstacles({cell})
        detour = plan(overlay, start, goal, profile, heading=hd)
        assert detour is not None and cell not in cells_of(grid, detour)
        assert cells_of(grid, plan(grid, start, goal, profile, heading=hd)) == route
        assert _moves(overlay, profile.kind) is _moves(grid, profile.kind)
        assert _coords(overlay) is _coords(grid)
        assert overlay.costs(profile.kind) is not grid.costs(profile.kind)


# -- the plan memo ----------------------------------------------------------------


def _city_queries(grid):
    """A walker and a driver query of a generated layout, as (start, goal,
    profile, heading)."""
    (driver_start, heading), driver_goal = grid.driver_spawns[0], grid.driver_exits[0]
    return [
        (grid.walker_spawns[0], grid.walker_spawns[-1], BehaviorProfile(kind="walker", w=2.0), None),
        (driver_start, driver_goal, BehaviorProfile(kind="driver", w=3.0, alpha=1.5), heading),
    ]


def test_a_repeated_query_gets_the_remembered_plan():
    spec = LayoutSpec(blocks_x=1, blocks_y=1)
    grid = generate_layout(spec)
    for start, goal, profile, heading in _city_queries(grid):
        first = plan(grid, start, goal, profile, heading=heading)
        assert plan(grid, start, goal, profile, heading=heading) is first
        assert plan(grid.with_obstacles(()), start, goal, profile, heading=heading) is first
        # an unremembered search on a layout of its own gives the same plan
        assert plan(generate_layout(spec), start, goal, profile, heading=heading) == first


def test_a_traced_query_searches_and_fills_its_trace():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    for start, goal, profile, heading in _city_queries(grid):
        remembered = plan(grid, start, goal, profile, heading=heading)
        trace = []
        traced = plan(grid, start, goal, profile, heading=heading, trace=trace)
        assert traced == remembered and traced is not remembered
        assert len(trace) == remembered.expansions


def test_a_blocked_query_searches():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    memo = grid.layout_table("plans", dict)
    for start, goal, profile, heading in _city_queries(grid):
        remembered = plan(grid, start, goal, profile, heading=heading)
        size = len(memo)
        # a blocked cell off the route changes nothing but the search
        off_route = next(c for c in grid.walker_spawns if c not in cells_of(grid, remembered))
        searched = plan(grid, start, goal, profile, blocked={off_route}, heading=heading)
        assert searched == remembered and searched is not remembered
        assert len(memo) == size


def test_each_obstacle_overlay_gets_its_own_plans():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    for start, goal, profile, heading in _city_queries(grid):
        route = cells_of(grid, plan(grid, start, goal, profile, heading=heading))
        off_route = next(c for c in grid.walker_spawns if c not in route)
        overlay_a = grid.with_obstacles({off_route})
        remembered = plan(overlay_a, start, goal, profile, heading=heading)
        crossed = cells_of(grid, remembered)[len(remembered) // 2]
        overlay_b = grid.with_obstacles({crossed})
        detour = plan(overlay_b, start, goal, profile, heading=heading)
        assert detour is not None and crossed not in cells_of(grid, detour)
        assert plan(overlay_a, start, goal, profile, heading=heading) == remembered


def test_the_memo_holds_one_overlay():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    memo = grid.layout_table("plans", dict)
    queries = _city_queries(grid)
    routes = {c for start, goal, profile, heading in queries
              for c in cells_of(grid, plan(grid, start, goal, profile, heading=heading))}
    off_route = next(c for c in grid.walker_spawns if c not in routes)
    overlay = grid.with_obstacles({off_route})
    found = [plan(overlay, start, goal, profile, heading=heading)
             for start, goal, profile, heading in queries]
    assert [key[0] for key in memo] == [overlay.obstacles] * len(queries)
    # an equal overlay built apart gets the same answers
    twin = grid.with_obstacles(set(overlay.obstacles))
    assert twin.obstacles is not overlay.obstacles
    for (start, goal, profile, heading), remembered in zip(queries, found):
        assert plan(twin, start, goal, profile, heading=heading) is remembered
    # a full memo on one overlay is still emptied; start == goal makes
    # each weight a distinct one-expansion query
    cell = queries[0][0]
    for w in range(1, _MEMO_SIZE + 1 - len(queries)):
        plan(twin, cell, cell, BehaviorProfile(kind="walker", w=w))
    assert len(memo) == _MEMO_SIZE
    last = plan(twin, cell, cell, BehaviorProfile(kind="walker", w=_MEMO_SIZE))
    assert list(memo.values()) == [last]


def test_a_driver_heading_gets_its_own_plan():
    # facing south the driver loops around the ring; facing north it drives on
    ring = grid_of("s-- rN-", "tN- tSN", "tE- tW-")
    driver = BehaviorProfile(kind="driver", alpha=5.0)
    south = plan(ring, (1, 1), (1, 0), driver, heading=S)
    north = plan(ring, (1, 1), (1, 0), driver, heading=N)
    assert cells_of(ring, south) == ((1, 1), (1, 2), (0, 2), (0, 1), (1, 1), (1, 0))
    assert cells_of(ring, north) == ((1, 1), (1, 0))
    assert plan(ring, (1, 1), (1, 0), driver, heading=S) is south


def test_a_full_memo_is_emptied():
    grid = uniform_sidewalk(4)
    memo = grid.layout_table("plans", dict)
    # start == goal: each weight is a distinct one-expansion query
    for w in range(1, _MEMO_SIZE + 1):
        plan(grid, (0, 0), (0, 0), BehaviorProfile(kind="walker", w=w))
    assert len(memo) == _MEMO_SIZE
    last = plan(grid, (1, 1), (2, 2), BehaviorProfile(kind="walker"))
    assert list(memo.values()) == [last]
    assert plan(grid, (1, 1), (2, 2), BehaviorProfile(kind="walker")) is last


_SHARED_SPECS = (LayoutSpec(blocks_x=1, blocks_y=1), LayoutSpec(blocks_x=2, blocks_y=2))
_SHARED_BASES: dict = {}


def _outcomes(grid, queries):
    """Each query's plan and trace, or the error it raised."""
    found = []
    for start, goal, profile, heading in queries:
        trace = []
        try:
            route = plan(grid, start, goal, profile, heading=heading, trace=trace)
        except ValueError as exc:
            found.append(str(exc))
        else:
            found.append((route, trace))
    return found


@settings(max_examples=30, deadline=None)
@given(
    layout=st.sampled_from(range(len(_SHARED_SPECS))),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sidewalk=st.integers(min_value=0, max_value=40),
    road=st.integers(min_value=0, max_value=12),
)
def test_overlay_on_a_planned_layout_plans_like_a_fresh_one(layout, seed, sidewalk, road):
    spec = _SHARED_SPECS[layout]
    if spec not in _SHARED_BASES:
        base = generate_layout(spec)
        # the base plans first, so every overlay finds the tables built
        plan(base, base.walker_spawns[0], base.walker_spawns[-1], BehaviorProfile("walker"))
        (start, heading), goal = base.driver_spawns[0], base.driver_exits[0]
        plan(base, start, goal, BehaviorProfile("driver"), heading=heading)
        _SHARED_BASES[spec] = base
    base = _SHARED_BASES[spec]
    rng = random.Random(seed)
    cells = [(i % base.width, i // base.width) for i in range(len(base.ground))]
    sidewalks = [c for c in cells if ground_of(base, c) is GroundType.SIDEWALK]
    roads = [c for c, cost in zip(cells, base.costs("driver")) if cost != math.inf]
    obstacles = set(rng.sample(sidewalks, sidewalk)) | set(rng.sample(roads, road))
    queries = []
    for _ in range(3):
        queries.append((
            rng.choice(base.walker_spawns), rng.choice(base.walker_spawns),
            BehaviorProfile("walker", w=rng.choice((1.0, 3.0))), None,
        ))
        (start, heading), goal = rng.choice(base.driver_spawns), rng.choice(base.driver_exits)
        queries.append((
            start, goal,
            BehaviorProfile("driver", w=rng.choice((1.0, 3.0)), alpha=rng.uniform(0, 2)),
            heading,
        ))

    shared = base.with_obstacles(obstacles)
    fresh = generate_layout(spec).with_obstacles(obstacles)
    assert _outcomes(shared, queries) == _outcomes(fresh, queries)
    for kind in ("walker", "driver"):
        _, moves, masks, risk = _moves(shared, kind)
        _, base_moves, base_masks, base_risk = _moves(base, kind)
        assert moves is base_moves and masks is base_masks and risk is base_risk
    assert _coords(shared) is _coords(base)


# -- the kernel against its reference --------------------------------------------


_KERNEL_LAYOUTS: dict = {}


def _kernel_grid(source, rng):
    """A random small grid, or the 1x1 or 2x2 layout with random sidewalk and
    road obstacles on top of one shared layout."""
    if source == "random":
        return random_grid(rng, rng.randint(2, 9), rng.randint(1, 9))
    if source not in _KERNEL_LAYOUTS:
        blocks = int(source[0])
        _KERNEL_LAYOUTS[source] = generate_layout(LayoutSpec(blocks_x=blocks, blocks_y=blocks))
    base = _KERNEL_LAYOUTS[source]
    cells = [(i % base.width, i // base.width) for i in range(len(base.ground))]
    sidewalks = [c for c in cells if ground_of(base, c) is GroundType.SIDEWALK]
    roads = [c for c, cost in zip(cells, base.costs("driver")) if cost != math.inf]
    return base.with_obstacles(
        rng.sample(sidewalks, rng.randint(0, 30)) + rng.sample(roads, rng.randint(0, 8))
    )


def _kernel_outcome(planner, grid, start, goal, profile, blocked, heading):
    """A plan's cells, the reprs of its floats, its expansions and the repr of
    the full trace; or the error the query raised."""
    trace = []
    try:
        route = planner(grid, start, goal, profile, blocked=blocked, heading=heading, trace=trace)
    except ValueError as exc:
        return str(exc)
    if route is None:
        return None, repr(trace)
    found = (cells_of(grid, route), repr(route.total_cost), repr(route.risk_total),
             route.expansions)
    return found, repr(trace)


@settings(max_examples=80, deadline=None)
@given(
    source=st.sampled_from(("random", "1x1", "2x2")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plan_matches_the_reference_kernel(source, seed):
    # plans, float reprs, expansion counts and full traces equal those of the
    # reference kernel, for both kinds, w 1-5, alpha 0 and not, explicit and
    # default headings, and blocked sets holding the start, the goal's
    # neighbours and cells on the route
    rng = random.Random(seed)
    grid = _kernel_grid(source, rng)
    for kind in ("walker", "driver"):
        cells = traversable_cells(grid, kind)
        if len(cells) < 2:
            continue
        for _ in range(3):
            start, goal = rng.sample(cells, 2)
            profile = BehaviorProfile(
                kind=kind,
                w=rng.choice((1.0, 2.0, 3.0, 5.0, rng.uniform(1, 5))),
                alpha=rng.choice((0.0, rng.uniform(0, 3))),
            )
            heading = rng.choice((None, rng.choice(list(Direction))))
            try:
                free = reference.plan(grid, start, goal, profile, heading=heading)
            except ValueError:  # a driver start without flow and no heading
                free = None
            blocked = set(rng.sample(cells, rng.randint(0, min(len(cells), 6))))
            if free is not None:
                on_route = cells_of(grid, free)
                blocked |= set(rng.sample(on_route, rng.randint(0, len(on_route))))
            if rng.random() < 0.5:
                blocked |= {(goal[0] + dx, goal[1] + dy) for dx, dy, _, _ in DIRECTION_TABLE}
            if rng.random() < 0.5:
                blocked.add(start)
            if rng.random() < 0.8:
                blocked.discard(goal)
            query = (grid, start, goal, profile, frozenset(blocked), heading)
            assert _kernel_outcome(plan, *query) == _kernel_outcome(reference.plan, *query)


@pytest.mark.parametrize("source", ["city", 0, 1, 2, 3, 4, 5])
def test_move_masks_match_the_reference_successors(source):
    # bit k of a cell's mask is set exactly when the reference's successor
    # table has a move in direction k, and each mask's shared moves are its
    # set bits in NESW order, entering the reference's successor states; a
    # driver's risk bytes are the reference's risks, whose turn spots it
    # finds one cell at a time
    if source == "city":
        grid = generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))
    else:
        rng = random.Random(source)
        grid = random_grid(rng, rng.randint(1, 12), rng.randint(1, 12))
    for kind in ("walker", "driver"):
        shift, moves, masks, risk = _moves(grid, kind)
        _, succ, reference_risk = reference._moves(grid, kind)
        if shift:
            assert risk == bytes(int(r) for r in reference_risk)
        heading_bits = 3 if shift else 0
        assert len(moves) == 16 and len(masks) == grid.width * grid.height
        for mask, row in enumerate(moves):
            assert [k for _, _, k in row] == [k for k in range(4) if mask >> k & 1]
            for delta, step, k in row:
                dx, dy, _, _ = DIRECTION_TABLE[k]
                assert step == dy * grid.width + dx
                assert delta == (step << shift) + (k & heading_bits)
        for i, mask in enumerate(masks):
            valid = [k for k in range(4) if succ[i * 4 + k] != -1]
            assert [k for k in range(4) if mask >> k & 1] == valid
            entered = [(i << shift) + delta for delta, _, _ in moves[mask]]
            assert entered == [succ[i * 4 + k] for k in valid]


@pytest.mark.parametrize("kind, bound_kb", [("walker", 32), ("driver", 256)])
def test_city_search_tables_keep_under_their_bound(kind, bound_kb):
    # the tables keep one mask byte per cell and 16 shared move tuples, plus
    # a driver's 16 risk bytes per cell; never a tuple of states per cell
    grid = generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))
    grid.ground_costs(kind)  # a layout table of its own, built first
    tracemalloc.start()
    try:
        tables = _build_moves(grid, kind)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tables[2]) == grid.width * grid.height == 99 * 99
    assert kept < bound_kb * 1024, f"{kept / 1024:.0f} KB"


def test_city_planning_tables_and_memo_plans_keep_under_their_bound():
    # what a worker keeps to plan on the 99x99 city: the search, cost and
    # coordinate tables of both kinds and a few hundred remembered plans.  A
    # plan holds its route once, as flat cells, and no table holds an (x, y)
    # tuple per cell: such a table alone took 619 KiB here
    grid = generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))
    rng = random.Random(0)
    walker = BehaviorProfile(kind="walker", w=2.0)
    driver = BehaviorProfile(kind="driver", w=2.0, alpha=1.0)
    queries = [(rng.choice(grid.walker_spawns), rng.choice(grid.walker_spawns), walker, None)
               for _ in range(300)]
    for _ in range(100):
        (start, heading), goal = rng.choice(grid.driver_spawns), rng.choice(grid.driver_exits)
        queries.append((start, goal, driver, heading))
    tracemalloc.start()
    try:
        routes = [plan(grid, s, g, p, heading=h) for s, g, p, h in queries if s != g]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(grid.layout_table("plans", dict)) > 300
    assert sum(len(r) for r in routes if r is not None) > 20_000
    assert kept < 1024 * 1024, f"{kept / 1024:.0f} KiB"


def _tie_cases():
    # The kernel holds each expansion's best new entry out of the heap and
    # pops with heappushpop, which must pop exactly what heappop pops.
    # On open sidewalk at w = 1 every cell toward the goal has the same f, so
    # each expansion's best entry ties its sibling on f and h and wins on the
    # counter: the route runs along the first row, then down.
    yield uniform_sidewalk(8), (0, 0), (7, 7), 1.0, [(x, 0) for x in range(8)] + [
        (7, y) for y in range(1, 8)
    ]
    # (0, 0), the best entry of the third expansion (f 8, h 3), ties the heap
    # top (3, 1), pushed one expansion earlier, and loses on the counter.
    tie = grid_of("s-- s-- s-- b--", "s-- b-- s-- s--", "s-- s-- b-- s--")
    yield tie, (2, 0), (1, 2), 2.0, [
        (2, 0), (2, 1), (1, 0), (3, 1), (3, 2), (0, 0), (0, 1), (0, 2), (1, 2)
    ]
    # (1, 0) is a dead end: its only new entry, (0, 0) at f 5, loses to the
    # heap top (2, 1) at f 3.
    dead_end = grid_of("s-- s-- b-- s--", "s-- s-- s-- s--")
    yield dead_end, (1, 1), (3, 0), 1.0, [(1, 1), (1, 0), (2, 1), (3, 1), (3, 0)]


@pytest.mark.parametrize(
    "case", list(_tie_cases()), ids=["plateau", "tie-lost-on-counter", "best-loses"]
)
def test_tied_and_losing_best_entries_pop_like_the_reference(case):
    grid, start, goal, w, expanded = case
    profile = BehaviorProfile(kind="walker", w=w)
    query = (grid, start, goal, profile, frozenset(), None)
    assert _kernel_outcome(plan, *query) == _kernel_outcome(reference.plan, *query)
    trace = []
    route = plan(grid, start, goal, profile, trace=trace)
    assert [(x, y) for _, x, y, *_ in trace] == expanded
    assert route.expansions == len(expanded)


# -- debug trace -----------------------------------------------------------------


def _trace_cases():
    # a walker on uniform sidewalk, and a driver crossing a 2x2-block city
    # whose route turns both ways and changes lane, and whose search expands
    # states entered by every driver action
    yield uniform_sidewalk(6), (0, 0), (3, 3), BehaviorProfile(kind="walker"), None
    city = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    driver = BehaviorProfile(kind="driver", w=3.0, alpha=0.37)
    yield city, (10, 1), (30, 21), driver, W


@pytest.mark.parametrize("case", list(_trace_cases()), ids=["walker", "driver"])
def test_plan_trace_records_expansions(case):
    grid, start, goal, profile, heading = case
    trace = []
    route = plan(grid, start, goal, profile, heading=heading, trace=trace)
    assert len(trace) == route.expansions
    steps = [row[0] for row in trace]
    assert steps == list(range(len(trace)))
    first = trace[0]
    assert (first[1], first[2]) == start
    assert first[3] == 0.0  # g at the start
    assert first[5] == 0.0  # no action entered the start
    # f column is g + w*h throughout
    for _, x, y, g, h, r, f in trace:
        assert f == pytest.approx(g + profile.w * h)
    # each later expansion was entered from an earlier one on a neighbouring
    # cell: r is the unscaled risk of that move's action (classified with the
    # earlier state's heading) and g the earlier g plus cost and alpha * r
    cost = grid.costs(profile.kind)
    headings = [{heading}]
    for j, (_, x, y, g, _, r, _) in enumerate(trace[1:], 1):
        entered = set()
        for i, (_, px, py, pg, _, _, _) in enumerate(trace[:j]):
            for d, (dx, dy, _, _) in zip(Direction, DIRECTION_TABLE):
                if (px + dx, py + dy) != (x, y):
                    continue
                for hd in headings[i]:
                    if profile.kind == "walker":
                        risk = 0.0  # no walker move carries risk
                    else:
                        risk = RISKS[classify_action(grid, (px, py), (x, y), hd)]
                    if r == risk and g == pg + cost[y * grid.width + x] + profile.alpha * r:
                        entered.add(d)
        assert entered, trace[j]
        headings.append(entered)
    if profile.kind == "driver":
        actions = set(route_actions(grid, cells_of(grid, route), heading))
        assert {Action.RIGHT_TURN, Action.LEFT_TURN} <= actions
        assert {row[5] for row in trace} == {0.0, 1.0, 2.0, 3.0, 5.0, 20.0}


def test_default_heading_prefers_canonical_order():
    grid = grid_of("tNE")
    assert default_heading(grid, (0, 0)) is N
    with pytest.raises(ValueError):
        default_heading(grid_of("s--"), (0, 0))
