import copy
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcity.agents import Decision, Status, act, decide
from gridcity.engine import detect_collisions
from gridcity.environment import DIRECTION_OF_STEP, Direction, GridMap
from gridcity.metrics import HeatmapSet, build_frame
from gridcity.planner import BehaviorProfile
from helpers import (
    cell_of, cells_of, grid_of, make_agent, place, population, random_grid, rows_of, straight_plan,
)
import reference
from reference import react_driver, react_walker, sense

N, E = Direction.NORTH, Direction.EAST


def test_agent_cell_floors_positions():
    assert cell_of(make_agent(1, "walker", (3.9, 0.1))) == (3, 0)
    assert cell_of(make_agent(1, "walker", (0.0, 2.0))) == (0, 2)


def test_extend_refuses_ids_that_do_not_ascend():
    pop = population([])
    walker = BehaviorProfile(kind="walker")
    with pytest.raises(ValueError, match="ascend"):
        pop.extend([(3, walker, (0.5, 0.5), None, None),
                    (2, walker, (1.5, 0.5), None, None)])
    assert len(pop) == 0


def test_snapshot_returns_each_agent_as_it_went_in():
    """A snapshot gives back every field of every agent, and the very profile
    and plan objects, also after a ``keep`` and a later ``extend``."""
    grid = walking_strip()
    agents = []
    for kind in ("walker", "driver"):
        for status in Status:
            for heading, has_plan in itertools.product((None, E), (False, True)):
                agent_id = len(agents) + 1
                agent = make_agent(
                    agent_id, kind, (agent_id * 0.125, 0.5),
                    straight_plan([(0, 0), (1, 0), (2, 0)], grid.width) if has_plan else None,
                    cursor=agent_id % 3, speed=agent_id * 0.25, heading=heading,
                    status=status, w=float(agent_id), alpha=agent_id * 0.5,
                )
                agent.countdown = 3 if status is Status.COLLIDED else 0
                agents.append(agent)
    pop = population(agents)

    def assert_round_trip(expected):
        snapshot = pop.snapshot()
        assert list(snapshot) == [a.id for a in expected]
        for agent in expected:
            got = snapshot[agent.id]
            assert got == agent
            assert got.kind == agent.kind
            assert got.profile is agent.profile
            assert got.plan is agent.plan

    assert_round_trip(agents)
    dropped = agents[5]
    pop.keep(pop.id != dropped.id)
    kept = [a for a in agents if a is not dropped]
    assert_round_trip(kept)
    newcomer = make_agent(
        len(agents) + 1, "driver", (4.5, 0.5), straight_plan([(4, 0), (5, 0)], grid.width),
        heading=E, w=2.0,
    )
    place(pop, [newcomer])
    assert_round_trip(kept + [newcomer])


def test_agent_kind_is_the_kind_of_its_profile():
    agent = make_agent(1, "driver", (0.5, 0.5))
    assert agent.kind == agent.profile.kind == "driver"
    with pytest.raises(AttributeError):
        agent.kind = "walker"


def road_strip(length=10, token="rE-"):
    return grid_of(" ".join([token] * length))


def walking_strip(length=10):
    return grid_of(" ".join(["s--"] * length))


def eastbound_driver(agent_id, x, grid, speed=0.0, length=None):
    length = length if length is not None else grid.width
    cells = [(i, 0) for i in range(int(x), length)]
    agent = make_agent(
        agent_id, "driver", (x + 0.5, 0.5), straight_plan(cells, grid.width),
        heading=E, speed=speed,
    )
    return agent


def decisions(agents, grid, lookahead=4, radius=1.0, yield_radius=1.5):
    """``decide``'s decisions by agent id, at the default sensing settings."""
    pop = population(agents)
    codes, _ = decide(pop, grid, lookahead, radius, yield_radius)
    active = pop.id[pop.status == Status.ACTIVE].tolist()
    return dict(zip(active, map(Decision, codes.tolist())))


def blockers(cells):
    """A collided walker on each of ``cells``, with ids from 100 on: inactive
    rows, whose cells a replan avoids."""
    return [
        make_agent(100 + i, "walker", (x + 0.5, y + 0.5), status=Status.COLLIDED)
        for i, (x, y) in enumerate(sorted(cells))
    ]


def act_once(agent, decision, grid, blocked=frozenset()):
    """Apply one decision to ``agent``, with a collided walker on each cell
    of ``blocked``; returns whether it replanned and the agent's state
    afterwards."""
    pop = population([agent] + blockers(blocked))
    replanned = act(pop, np.array([decision]), grid, accel=1.0, decel=1.0)
    return bool(replanned), pop.snapshot()[agent.id]


# -- sensing -------------------------------------------------------------------


def test_sense_empty_world():
    grid = walking_strip()
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(i, 0) for i in range(6)], grid.width)
    )
    assert decisions([walker], grid) == {1: Decision.PROCEED}
    road = road_strip()
    driver = eastbound_driver(2, 0, road, speed=3.0)
    assert decisions([driver], road) == {2: Decision.ACCELERATE}
    codes, pre_flat = decide(population([]), grid, 4, 1.0, 1.5)
    assert (codes.tolist(), pre_flat.tolist()) == ([], [])


def test_sense_head_on_vehicles_both_in_conflict():
    grid = grid_of("rE- rE- rW- rW-")
    a = make_agent(
        1, "driver", (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0)], grid.width),
        heading=E
    )
    b = make_agent(
        2, "driver", (1.4, 0.5),
        straight_plan([(1, 0), (0, 0)], grid.width), heading=Direction.WEST,
    )
    # at speed 0 only a conflict in the next cell brakes: each sees the other there
    assert decisions([a, b], grid) == {1: Decision.DECELERATE, 2: Decision.DECELERATE}
    assert math.dist(a.position, b.position) == pytest.approx(0.9)


def test_sense_off_route_pedestrian_not_perceived():
    grid = grid_of(*[" ".join(["rE-"] * 10)] * 5)
    # at speed 3 any perceived agent in the 4-cell window brakes the driver
    driver = eastbound_driver(1, 0, grid, speed=3.0)
    # 3 cells off the route with lookahead 4 and radius 1
    bystander = make_agent(2, "walker", (2.5, 3.5), None)
    assert decisions([driver, bystander], grid)[1] is Decision.ACCELERATE
    bystander.position = (2.5, 0.9)
    assert decisions([driver, bystander], grid)[1] is Decision.DECELERATE


def test_sense_blocked_cells_lists_inactive_agents_on_route():
    grid = road_strip()
    driver = eastbound_driver(1, 0, grid)
    wreck = make_agent(2, "driver", (2.5, 0.5), None, status=Status.COLLIDED)
    parked = make_agent(3, "driver", (3.5, 0.5), None, status=Status.PARKED)
    far = make_agent(4, "driver", (8.5, 0.5), None, status=Status.PARKED)
    pop = population([driver, wreck, parked, far])
    codes, pre_flat = decide(pop, grid, 4, 1.0, 1.5)
    assert codes.tolist() == [Decision.REPLAN]
    pre_cells = {i: (f % grid.width, f // grid.width)
                 for i, f in zip(pop.id.tolist(), pre_flat.tolist())}
    assert pre_cells == {1: (0, 0), 2: (2, 0), 3: (3, 0), 4: (8, 0)}
    assert pop.cells(pop.status != Status.ACTIVE) == {(2, 0), (3, 0), (8, 0)}
    # beyond the window an inactive agent blocks nothing, nor does one off
    # the grid, on flat cell -1 or on the cell past the last
    off = [make_agent(i, "driver", position, None, status=Status.PARKED)
           for i, position in ((5, (-0.5, 0.5)), (6, (10.5, 0.5)))]
    assert decisions([driver, far] + off, grid) == {1: Decision.ACCELERATE}


def test_sense_window_respects_lookahead():
    grid = road_strip()
    # speed 6 brakes for a conflict in any slot of a 7-cell window
    driver = eastbound_driver(1, 0, grid, speed=6.0)
    ahead = make_agent(2, "driver", (6.5, 0.5), None, speed=0.0)
    assert decisions([driver, ahead], grid, lookahead=4)[1] is Decision.ACCELERATE
    assert decisions([driver, ahead], grid, lookahead=7)[1] is Decision.DECELERATE


def _random_population(rng: random.Random, grid: GridMap) -> list:
    """Walkers and drivers, active or not, half of them on lane centres, each
    with a random speed and a random-walk plan and cursor; some have no plan
    and some have passed its end."""
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    agents = []
    for agent_id in range(1, rng.randint(2, 30)):
        cell = (rng.randrange(grid.width), rng.randrange(grid.height))
        if rng.random() < 0.5:
            position = (cell[0] + 0.5, cell[1] + 0.5)
        else:
            position = (rng.uniform(0, grid.width), rng.uniform(0, grid.height))
        cells = [cell]
        for _ in range(rng.randint(0, 7)):
            dx, dy = rng.choice(moves)
            x, y = cells[-1]
            cells.append((min(max(x + dx, 0), grid.width - 1),
                          min(max(y + dy, 0), grid.height - 1)))
        status = rng.choice([Status.ACTIVE] * 3 + [Status.PARKED, Status.COLLIDED])
        route = straight_plan(cells, grid.width) if rng.random() < 0.9 else None
        agents.append(make_agent(
            agent_id, rng.choice(["walker", "driver"]), position, route,
            cursor=rng.randint(0, len(cells)), status=status,
            speed=rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        ))
    return agents


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    radius=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    yield_radius=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    lookahead=st.integers(min_value=1, max_value=6),
)
# a radius far beyond the grid searches each box row once, clipped to the grid
@example(seed=5, radius=1e6, yield_radius=1.5, lookahead=4)
@example(seed=5, radius=1.5, yield_radius=1e300, lookahead=6)
# radii where r + 0.5 is an integer, the edge of the reach of a box
@example(seed=3, radius=0.5, yield_radius=1.5, lookahead=3)
@example(seed=8, radius=1.5, yield_radius=2.5, lookahead=4)
@example(seed=13, radius=2.5, yield_radius=0.5, lookahead=5)
def test_decide_matches_the_per_agent_reference(seed, radius, yield_radius, lookahead):
    rng = random.Random(seed)
    rows = [
        ["zN-" if rng.random() < 0.3 else c for c in row]
        for row in rows_of(random_grid(rng, rng.randint(2, 9), rng.randint(2, 9)))
    ]
    grid = GridMap.build(rows)
    agents = _random_population(rng, grid)
    expected = {}
    for a in agents:
        if a.status is Status.ACTIVE:
            p = sense(a, agents, grid, lookahead, radius, yield_radius)
            is_walker = a.kind == "walker"
            expected[a.id] = react_walker(a, p, grid) if is_walker else react_driver(a, p)
    pop = population(agents)
    codes, pre_flat = decide(pop, grid, lookahead, radius, yield_radius)
    active = pop.id[pop.status == Status.ACTIVE].tolist()
    assert list(zip(active, map(Decision, codes.tolist()))) == list(expected.items())
    width = grid.width
    assert [(f % width, f // width) for f in pre_flat.tolist()] == [cell_of(a) for a in agents]
    assert pop.blocking_cells() == {cell_of(a) for a in agents if a.status is not Status.ACTIVE}


def _moving_population(rng: random.Random, grid: GridMap) -> list:
    """Walkers and drivers, active, parked or collided, each on a random walk
    over cells its kind may enter.  Each stands on the cell before its cursor,
    at its centre or anywhere inside it, with a zero, fractional or whole
    speed and max speed; cursors run from 0 to past the plan's end, and some
    agents have no plan or no heading."""
    moves = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    width = grid.width
    agents = []
    for agent_id in range(1, rng.randint(2, 60)):
        kind = rng.choice(["walker", "driver"])
        costs = grid.costs(kind)
        open_cells = [(i % width, i // width) for i, c in enumerate(costs) if c != math.inf]
        if not open_cells:
            continue
        cells = [rng.choice(open_cells)]
        for _ in range(rng.randint(0, 7)):
            x, y = cells[-1]
            steps = [(x + dx, y + dy) for dx, dy in moves
                     if grid.in_bounds((x + dx, y + dy))
                     and costs[(y + dy) * width + x + dx] != math.inf]
            if not steps:
                break
            cells.append(rng.choice(steps))
        cursor = rng.randint(0, len(cells))
        x, y = cells[max(cursor - 1, 0)]
        if rng.random() < 0.7:
            position = (x + 0.5, y + 0.5)
        else:
            position = (x + rng.random(), y + rng.random())
        status = rng.choice([Status.ACTIVE] * 4 + [Status.PARKED, Status.COLLIDED])
        route = straight_plan(cells, grid.width) if rng.random() < 0.9 else None
        agent = make_agent(
            agent_id, kind, position, route, cursor=cursor, status=status,
            speed=rng.choice([0.0, 0.25, 1.0, 2.0, rng.uniform(0.0, 3.0)]),
            heading=rng.choice([None] + list(Direction) * 3) if kind == "driver" else None,
            max_speed=rng.choice([1.0, 2.0, rng.uniform(0.1, 2.5)]),
            w=rng.randint(1, 3), alpha=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
        )
        if status is Status.COLLIDED:
            agent.countdown = rng.randint(1, 5)
        agents.append(agent)
    return agents


def _kinematics(states) -> list:
    """What acting changes, per agent, with floats as their repr."""
    return [
        (a.id, repr(a.position), repr(a.speed), a.heading, a.cursor, a.status, a.plan)
        for a in states
    ]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    lookahead=st.integers(min_value=1, max_value=5),
    radius=st.floats(min_value=0.2, max_value=2.0),
    yield_radius=st.floats(min_value=0.2, max_value=2.5),
    accel=st.floats(min_value=0.1, max_value=1.5),
    decel=st.floats(min_value=0.1, max_value=1.5),
)
# eight active drivers with fractional speeds, whose pairwise sum (numpy's
# np.sum) differs from a left-to-right one; and driver speeds whose sum
# differs when taken right to left
@example(seed=1116347426, lookahead=1, radius=1.0, yield_radius=1.5, accel=0.41,
         decel=1.01)
@example(seed=1059022248, lookahead=4, radius=1.0, yield_radius=1.5, accel=0.86,
         decel=0.9)
# a kind with no open cell skips an id, so the newcomer's id follows the last
@example(seed=520, lookahead=1, radius=1.0, yield_radius=1.0, accel=1.0, decel=1.0)
def test_columns_step_like_the_per_agent_reference(
    seed, lookahead, radius, yield_radius, accel, decel
):
    """Three steps of decide, act, collisions and the frame on the columns
    equal the per-agent reference exactly, with agents colliding, retiring
    and spawning between the phases as the engine has them do."""
    rng = random.Random(seed)
    rows = [
        ["zN-" if rng.random() < 0.2 else c for c in row]
        for row in rows_of(random_grid(rng, rng.randint(2, 12), rng.randint(2, 12)))
    ]
    grid = GridMap.build(rows)
    agents = _moving_population(rng, grid)
    ref = copy.deepcopy(agents)
    pop = population(agents)
    heat, heat_ref = HeatmapSet.create(grid), HeatmapSet.create(grid)
    walker_cells = [(i % grid.width, i // grid.width)
                    for i, c in enumerate(grid.costs("walker")) if c != math.inf]
    next_id = agents[-1].id + 1 if agents else 1
    for step in (1, 2, 3):
        active = [a for a in ref if a.status is Status.ACTIVE]
        expected = [
            react_walker(a, sense(a, ref, grid, lookahead, radius, yield_radius), grid)
            if a.kind == "walker"
            else react_driver(a, sense(a, ref, grid, lookahead, radius, yield_radius))
            for a in active
        ]
        codes, pre_flat = decide(pop, grid, lookahead, radius, yield_radius)
        assert list(map(Decision, codes.tolist())) == expected
        pre_ids, pre_cells = pop.id, {a.id: cell_of(a) for a in ref}
        statics = {cell_of(a) for a in ref if a.status is not Status.ACTIVE}
        assert pop.blocking_cells() == statics

        try:
            replanned_ref = [
                a.id for a, d in zip(active, expected)
                if reference.act(a, d, grid, statics, accel=accel, decel=decel)
            ]
        except ValueError:  # a driver replanning with no heading off a flow cell
            with pytest.raises(ValueError):
                act(pop, codes, grid, accel=accel, decel=decel)
            return
        replanned = act(pop, codes, grid, accel=accel, decel=decel)
        assert pop.id[replanned].tolist() == replanned_ref
        assert _kinematics(pop.snapshot().values()) == _kinematics(ref)

        events = detect_collisions(pop, step)
        events_ref = reference.detect_collisions(ref, step)
        assert repr(events) == repr(events_ref)
        hit = sorted({i for e in events for i in e.agents})
        for a in ref:
            if a.id in hit:
                a.status, a.speed = Status.COLLIDED, 0.0
        pop.status[np.searchsorted(pop.id, hit)] = Status.COLLIDED
        pop.speed[np.searchsorted(pop.id, hit)] = 0.0
        arrived = [a.id for a in ref if a.status is Status.ACTIVE
                   and a.plan is not None and a.cursor >= len(a.plan)]
        ref = [a for a in ref if a.id not in arrived]
        pop.keep(~np.isin(pop.id, arrived))
        if walker_cells:
            x, y = rng.choice(walker_cells)
            newcomer = make_agent(next_id, "walker", (x + 0.5, y + 0.5), None)
            next_id += 1
            ref.append(copy.deepcopy(newcomer))
            place(pop, [newcomer])

        frame, entries = build_frame(step, pop, pre_ids, pre_flat, events, grid, heat)
        frame_ref, entries_ref = reference.build_frame(
            step, {a.id: a for a in ref}, pre_cells, events_ref, grid, heat_ref
        )
        assert (repr(frame), entries) == (repr(frame_ref), entries_ref)
        for name in ("driver_occupancy", "driver_speed_sum", "walker_occupancy", "jaywalk"):
            assert getattr(heat, name).tobytes() == getattr(heat_ref, name).tobytes()
        assert _kinematics(pop.snapshot().values()) == _kinematics(ref)


# -- walker reactions ------------------------------------------------------------


def test_walker_stops_for_active_vehicle_on_road():
    grid = grid_of("s-- rN- s--")
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0)], grid.width)
    )
    vehicle = make_agent(2, "driver", (1.5, 0.5), None, heading=N, speed=1.0)
    assert decisions([walker, vehicle], grid)[1] is Decision.STOP


def test_walker_proceeds_on_zebra_despite_vehicle():
    grid = grid_of("s-- zN- rN- s--")
    walker = make_agent(
        1, "walker", (1.5, 0.5), straight_plan([(1, 0), (2, 0), (3, 0)], grid.width)
    )
    vehicle = make_agent(2, "driver", (2.5, 0.5), None, heading=N, speed=1.0)
    assert decisions([walker, vehicle], grid)[1] is Decision.PROCEED
    # the same walker on a sidewalk sees the vehicle and stops
    sidewalk = grid_of("s-- s-- rN- s--")
    assert decisions([walker, vehicle], sidewalk)[1] is Decision.STOP


def test_walker_on_zebra_replans_around_static_obstacle():
    grid = grid_of("s-- zN- zN- s--")
    walker = make_agent(
        1, "walker", (1.5, 0.5), straight_plan([(1, 0), (2, 0), (3, 0)], grid.width)
    )
    wreck = make_agent(2, "driver", (2.5, 0.5), None, status=Status.COLLIDED)
    assert decisions([walker, wreck], grid) == {1: Decision.REPLAN}


def test_walker_replans_for_parked_vehicle_on_route():
    grid = grid_of("s-- s-- pN- s--")
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0), (3, 0)], grid.width),
    )
    parked = make_agent(2, "driver", (2.5, 0.5), None, status=Status.PARKED)
    assert decisions([walker, parked], grid) == {1: Decision.REPLAN}


def test_walker_clear_path_proceeds():
    grid = walking_strip()
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(i, 0) for i in range(5)], grid.width)
    )
    assert decisions([walker], grid) == {1: Decision.PROCEED}
    # no walker rule reads an active walker, even one on the window
    others = [make_agent(i, "walker", (i - 0.5, 0.5), None) for i in (2, 3)]
    assert decisions([walker] + others, grid)[1] is Decision.PROCEED


# -- driver reactions --------------------------------------------------------------


def test_driver_yields_for_pedestrian_on_upcoming_zebra():
    grid = grid_of("rE- rE- zE- rE-")
    driver = eastbound_driver(1, 0, grid)
    walker = make_agent(2, "walker", (2.5, 0.5), None, max_speed=1.0)
    assert decisions([driver, walker], grid)[1] is Decision.YIELD


def test_driver_yields_for_sidewalk_pedestrian_near_zebra():
    grid = grid_of("rE- rE- zE- rE-", "s-- s-- s-- s--")
    driver = eastbound_driver(1, 0, grid, length=4)
    # on the sidewalk one cell south of the zebra: distance 1.0 < 1.5, but
    # not below the sensing radius 1.0 of any window cell
    walker = make_agent(2, "walker", (2.5, 1.5), None, max_speed=1.0)
    assert decisions([driver, walker], grid)[1] is Decision.YIELD


@pytest.mark.parametrize("yield_radius, walker_y, expected", [
    (1.5, 2.0, Decision.ACCELERATE),  # exactly 1.5 from the zebra's centre
    (1.5, 1.999, Decision.YIELD),
    # 2.25 < 1.5000000000000002**2, though 1.5000000000000002 + 0.5 == 2.0
    (math.nextafter(1.5, math.inf), 2.0, Decision.YIELD),
])
def test_driver_yields_only_strictly_inside_the_yield_radius(yield_radius, walker_y,
                                                             expected):
    grid = grid_of("rE- rE- zE- rE-", "s-- s-- s-- s--", "s-- s-- s-- s--")
    driver = eastbound_driver(1, 0, grid, length=4)
    walker = make_agent(2, "walker", (2.5, walker_y), None, max_speed=1.0)
    assert decisions([driver, walker], grid, yield_radius=yield_radius)[1] is expected


def test_driver_decelerates_behind_agent():
    grid = road_strip()
    driver = eastbound_driver(1, 0, grid, speed=2.0)
    leader = make_agent(2, "driver", (2.5, 0.5), None, speed=1.0)
    assert decisions([driver, leader], grid)[1] is Decision.DECELERATE


def test_driver_replans_for_inactive_blocker():
    grid = road_strip()
    # speed 3 would brake for an active agent anywhere in the window
    driver = eastbound_driver(1, 0, grid, speed=3.0)
    wreck = make_agent(2, "driver", (3.5, 0.5), None, status=Status.COLLIDED)
    assert decisions([driver, wreck], grid) == {1: Decision.REPLAN}


def test_driver_clear_road_accelerates():
    grid = road_strip()
    driver = eastbound_driver(1, 0, grid)
    assert decisions([driver], grid) == {1: Decision.ACCELERATE}


def test_zebra_right_of_way_pairing():
    # joint invariant: the walker on the zebra proceeds, the driver gives way
    grid = grid_of("rE- rE- zE- rE-", "s-- s-- s-- s--")
    driver = eastbound_driver(1, 0, grid, length=4)
    walker = make_agent(
        2, "walker", (2.5, 0.5), straight_plan([(2, 0), (2, 1)], grid.width),
        max_speed=1.0
    )
    decided = decisions([driver, walker], grid)
    assert decided[1] in (Decision.YIELD, Decision.DECELERATE)
    assert decided[2] is Decision.PROCEED


# -- kinematics ---------------------------------------------------------------------


def test_act_stop_keeps_position():
    grid = walking_strip()
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(0, 0), (1, 0)], grid.width),
        speed=1.0
    )
    _, walker = act_once(walker, Decision.STOP, grid)
    assert walker.position == (0.5, 0.5)
    assert walker.speed == 0.0


def test_act_unit_speed_advances_one_cell():
    grid = walking_strip()
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(i, 0) for i in range(5)], grid.width),
        max_speed=1.0,
    )
    _, walker = act_once(walker, Decision.PROCEED, grid)
    assert walker.position == (1.5, 0.5)
    assert walker.cursor == 2


def test_act_accelerate_clamps_at_max_speed():
    grid = road_strip()
    driver = eastbound_driver(1, 0, grid, speed=2.0)
    _, driver = act_once(driver, Decision.ACCELERATE, grid)
    assert driver.speed == 2.0
    assert driver.position == (2.5, 0.5)


def test_act_decelerate_floors_at_zero():
    grid = road_strip()
    driver = eastbound_driver(1, 0, grid, speed=0.5)
    _, driver = act_once(driver, Decision.DECELERATE, grid)
    assert driver.speed == 0.0
    assert driver.position == (0.5, 0.5)


def test_act_heading_follows_turns():
    grid = grid_of("s-- s--", "s-- s--")
    driver = make_agent(
        1, "driver", (0.5, 0.5),
        straight_plan([(0, 0), (1, 0), (1, 1)], grid.width),
        heading=E, max_speed=2.0, speed=2.0,
    )
    _, driver = act_once(driver, Decision.PROCEED, grid)
    assert driver.position == (1.5, 1.5)
    assert driver.heading is Direction.SOUTH


def test_heading_is_a_column_of_direction_codes():
    """A heading is held as its Direction value, -1 for none: extend writes
    it, act writes a turning driver's new code back with its move, and
    snapshot gives the Direction member or None."""
    grid = grid_of("s-- s--", "s-- s--")
    walker = make_agent(1, "walker", (0.5, 1.5), None)
    route = [(0, 0), (1, 0), (1, 1)]
    driver = make_agent(
        2, "driver", (0.5, 0.5), straight_plan(route, grid.width),
        heading=E, max_speed=2.0, speed=2.0,
    )
    pop = population([walker, driver])
    assert pop.heading.dtype == np.int8
    assert pop.heading.tolist() == [-1, E.value]
    act(pop, np.array([Decision.PROCEED, Decision.ACCELERATE]), grid, accel=1.0, decel=1.0)
    (x0, y0), (x1, y1) = route[-2:]
    last = DIRECTION_OF_STEP[(x1 - x0, y1 - y0)]
    assert last is not E and pop.cursor.tolist() == [1, 3]
    assert pop.heading.tolist() == [-1, last.value]
    states = pop.snapshot()
    assert states[1].heading is None
    assert states[2].heading is last


def test_act_replan_swaps_route_before_moving():
    grid = grid_of(
        "s-- s-- s-- s-- s--",
        "s-- b-- b-- b-- s--",
        "s-- s-- s-- s-- s--",
    )
    walker = make_agent(
        1, "walker",
        (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)], grid.width),
        max_speed=1.0,
    )
    replanned, walker = act_once(walker, Decision.REPLAN, grid, blocked={(1, 0)})
    assert replanned
    assert (1, 0) not in cells_of(grid, walker.plan)
    assert walker.position == (0.5, 1.5)  # moved along the detour already


def test_act_leaves_the_codes_unchanged():
    grid = grid_of("s-- s-- s--")
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0)], grid.width),
        max_speed=1.0,
    )
    for blocked in (frozenset(), {(1, 0)}):  # the replan finds a route, then none
        codes = np.array([Decision.REPLAN])
        act(population([walker] + blockers(blocked)), codes, grid, accel=1.0, decel=1.0)
        assert codes.tolist() == [Decision.REPLAN]


def test_act_failed_replan_waits_in_place():
    grid = grid_of("s-- s-- s--")
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(0, 0), (1, 0), (2, 0)], grid.width),
        max_speed=1.0,
    )
    old_plan = walker.plan
    replanned, walker = act_once(walker, Decision.REPLAN, grid, blocked={(1, 0)})
    assert not replanned
    assert walker.plan is old_plan
    assert walker.position == (0.5, 0.5)
    assert walker.speed == 0.0


def test_act_position_stays_on_polyline():
    grid = road_strip()
    cells = [(i, 0) for i in range(grid.width)]
    driver = make_agent(
        1, "driver", (0.5, 0.5), straight_plan(cells, grid.width),
        heading=E, max_speed=0.7,
    )
    pop = population([driver])
    xs = []
    for _ in range(12):
        act(pop, np.array([Decision.ACCELERATE]), grid, accel=1.0, decel=1.0)
        xs.append(pop.snapshot()[1].position)
    for x, y in xs:
        assert y == pytest.approx(0.5)
        assert 0.5 <= x <= 9.5 + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    speed=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    decision=st.sampled_from(
        [Decision.PROCEED, Decision.STOP, Decision.ACCELERATE, Decision.DECELERATE,
         Decision.YIELD]
    ),
)
def test_act_speed_clamped_and_no_teleport(speed, decision):
    grid = walking_strip(12)
    walker = make_agent(
        1, "walker", (0.5, 0.5), straight_plan([(i, 0) for i in range(12)], grid.width),
        max_speed=1.0, speed=min(speed, 1.0),
    )
    before = walker.position
    _, walker = act_once(walker, decision, grid)
    assert 0.0 <= walker.speed <= walker.profile.max_speed
    assert math.dist(before, walker.position) <= walker.speed + 1e-9
