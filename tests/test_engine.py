import math
import random
import tracemalloc

import pytest

from gridcity import engine
from gridcity.agents import Status, decide
from gridcity.engine import (
    Event,
    SimConfig,
    World,
    detect_collisions,
    run,
)
from gridcity.environment import GroundType, LayoutSpec, generate_layout
from gridcity.metrics import render_events_csv, render_heatmap_csv, render_metrics_csv
from helpers import cell_of, grid_of, make_agent, population, straight_plan

SMALL = LayoutSpec(blocks_x=2, blocks_y=2)


def small_grid():
    return generate_layout(SMALL)


# -- collision detection --------------------------------------------------------


def agents_at(*specs):
    """A population of plan-less active agents, ids 1, 2, ... in spec order."""
    return population(
        make_agent(i, kind, (x, y), None) for i, (kind, x, y) in enumerate(specs, start=1)
    )


def test_vehicle_pair_collides_below_point_eight():
    events = detect_collisions(agents_at(("driver", 0.0, 0.0), ("driver", 0.7, 0.0)))
    assert len(events) == 1
    assert events[0].kind == "collision_vv"
    assert events[0].agents == (1, 2)


def test_walker_driver_boundary_is_strict():
    assert detect_collisions(agents_at(("walker", 0.0, 0.0), ("driver", 0.45, 0.0))) == []
    hits = detect_collisions(agents_at(("walker", 0.0, 0.0), ("driver", 0.449, 0.0)))
    assert len(hits) == 1
    assert hits[0].kind == "runover"


def test_runover_lists_walker_first():
    hits = detect_collisions(agents_at(("driver", 0.0, 0.0), ("walker", 0.2, 0.0)))
    assert hits[0].agents == (2, 1)


def test_walkers_never_collide():
    assert detect_collisions(agents_at(("walker", 0.0, 0.0), ("walker", 0.0, 0.0))) == []


def test_inactive_agents_do_not_collide():
    crashed = make_agent(1, "driver", (0.0, 0.0), None, status=Status.COLLIDED)
    moving = make_agent(2, "driver", (0.1, 0.0), None)
    assert detect_collisions(population([crashed, moving])) == []


def test_each_pair_reported_once():
    hits = detect_collisions(
        agents_at(("driver", 0.0, 0.0), ("driver", 0.3, 0.0), ("driver", 0.6, 0.0))
    )
    pairs = sorted(e.agents for e in hits)
    assert pairs == [(1, 2), (1, 3), (2, 3)]


def test_detection_invariant_under_permutation():
    # rows follow ids, so a permutation of the rows is a relabelling of the ids
    base = [
        ("driver", 1.0, 1.0), ("walker", 1.3, 1.0), ("driver", 4.0, 4.0),
        ("driver", 4.5, 4.2), ("walker", 0.9, 1.1),
    ]

    def contacts(order):
        """Each contact as (kind, agents), agents named by their index in base."""
        events = detect_collisions(agents_at(*(base[i] for i in order)))
        named = [(e.kind, tuple(order[i - 1] for i in e.agents)) for e in events]
        return sorted((k, tuple(sorted(a)) if k == "collision_vv" else a) for k, a in named)

    expected = contacts(list(range(len(base))))
    assert expected
    rng = random.Random(0)
    for _ in range(10):
        order = list(range(len(base)))
        rng.shuffle(order)
        assert contacts(order) == expected


# -- config validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"walkers": -1},
        {"obstruction": 1.2},
        {"spawn_mode": "burst"},
        {"walker_w": (0, 3)},
        {"driver_alpha": (2.0, 1.0)},
        {"collision_countdown": 0},
        {"walker_max_speed": 0},
        {"spawn_mode": "poisson", "walker_rate": math.nan},
        {"driver_alpha": (math.nan, math.nan)},
        {"driver_alpha": (math.inf, math.inf)},
        {"sense_radius": math.inf},
        {"accel": -1.0},
        {"decel": 0.0},
        {"walker_speed_cap": math.inf},
    ],
)
def test_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs).validate()


def test_run_rejects_invalid_config_before_stepping():
    with pytest.raises(ValueError):
        run(SimConfig(steps=0), small_grid())


# -- stepping and lifecycle --------------------------------------------------------


def test_empty_world_step_advances_counter_only():
    world = World(small_grid(), SimConfig(steps=5, walkers=0, drivers=0, seed=1))
    record = world.step()
    assert record.step == 1
    assert record.events == []
    assert record.created == record.removed == 0
    assert world.agents == {}


def test_walker_reaching_goal_is_removed_with_event():
    grid = grid_of("b-- s-- s-- s-- b--")
    cfg = SimConfig(steps=10, walkers=1, seed=3)
    world = World(grid, cfg)
    assert len(world.agents) == 1
    goal_seen = False
    for _ in range(10):
        record = world.step()
        for event in record.events:
            if event.kind == "goal":
                goal_seen = True
    assert goal_seen


def test_replan_onto_own_goal_cell_retires_walker_same_step(monkeypatch):
    # the walker has crossed into its goal cell but not reached its center;
    # a collided walker there blocks the window, so it replans from the goal
    grid = grid_of("s-- s-- s--")
    world = World(grid, SimConfig(steps=1, walkers=0, seed=0))
    walker = make_agent(1, "walker", (1.2, 0.5), straight_plan([(0, 0), (1, 0)]), max_speed=1.0)
    blocker = make_agent(2, "walker", (1.7, 0.5), None, status=Status.COLLIDED)
    blocker.countdown = 5
    world.add(walker)
    world.add(blocker)
    # the walker's state after acting, before the goal pass retires it
    acted = {}

    def detect_after_acting(pop, step):
        acted.update(pop.snapshot())
        return detect_collisions(pop, step)

    monkeypatch.setattr(engine, "detect_collisions", detect_after_acting)
    record = world.step()
    walker = acted[1]
    assert walker.plan.cells == ((1, 0),)
    assert walker.cursor == 1
    assert [(e.kind, e.agents) for e in record.events] == [("replan", (1,)), ("goal", (1,))]
    assert list(world.agents) == [2]
    assert record.removed == 1


def test_driver_parks_on_parking_goal_and_reactivates():
    # one-way street ending in a parking space; the only goal is the parking cell
    grid = grid_of("rE- rE- rE- pE-")
    assert grid.parking_cells == ((3, 0),)
    cfg = SimConfig(steps=1, drivers=1, driver_max_speed=1.0, seed=0)
    world = World(grid, cfg)
    assert len(world.agents) == 1
    driver_id = next(iter(world.agents))
    parked = False
    for _ in range(12):
        record = world.step()
        if any(e.kind == "park" for e in record.events):
            parked = True
            break
    assert parked
    agent = world.agents[driver_id]
    assert agent.status is Status.PARKED
    assert cell_of(agent) == (3, 0)

    # wrong-way travel back down the one-way street is priced, not forbidden,
    # so the parked driver can take a fresh goal at the street entrance
    called_at = world.step_count
    assert world.reactivate(driver_id, (0, 0)) is True
    assert world.agents[driver_id].status is Status.ACTIVE
    with pytest.raises(ValueError):
        world.reactivate(driver_id, (0, 0))

    # a reactivation made between steps opens the next step's events, stamped
    # with the step count at the call, and is logged once
    first = world.step().events[0]
    assert (first.kind, first.agents, first.step) == ("reactivate", (driver_id,), called_at)
    assert not any(e.kind == "reactivate" for e in world.step().events)


def test_reactivate_unreachable_goal_reports_failure():
    # parking pocket plus a disconnected road stub
    grid = grid_of(
        "rE- rE- pE- b--",
        "b-- b-- b-- rN-",
    )
    cfg = SimConfig(steps=1, drivers=0, seed=0)
    world = World(grid, cfg)
    driver = make_agent(7, "driver", grid.center((2, 0)), None, status=Status.PARKED)
    world.add(driver)
    assert world.reactivate(7, (3, 1)) is False
    assert world.agents[7].status is Status.PARKED


def test_add_refuses_an_id_not_above_the_ids_present():
    world = World(small_grid(), SimConfig(steps=1, drivers=0, seed=0))
    world.add(make_agent(5, "walker", (0.5, 0.5)))
    for agent_id in (3, 5):
        with pytest.raises(ValueError, match="ascend"):
            world.add(make_agent(agent_id, "walker", (0.5, 0.5)))
    assert list(world.agents) == [5]


def test_reactivate_requires_parked_driver():
    world = World(small_grid(), SimConfig(steps=1, drivers=0, seed=0))
    with pytest.raises(ValueError):
        world.reactivate(99, (0, 0))


def test_collision_countdown_removes_after_exact_delay():
    grid = grid_of("rE- rE- rE- rE- rE-", "rW- rW- rW- rW- rW-")
    cfg = SimConfig(steps=1, drivers=0, collision_countdown=3, seed=0)
    world = World(grid, cfg)
    a = make_agent(1, "driver", (2.2, 0.5), None)
    b = make_agent(2, "driver", (2.6, 0.5), None)
    world.add(a)
    world.add(b)
    record = world.step()
    kinds = [e.kind for e in record.events]
    assert kinds.count("collision_vv") == 1
    a, b = world.agents[1], world.agents[2]
    assert a.status is Status.COLLIDED and b.status is Status.COLLIDED
    assert a.countdown == 3
    for expected_present in (True, True, False):
        record = world.step()
        assert (1 in world.agents) is expected_present
        assert (2 in world.agents) is expected_present


def test_replenish_keeps_population_at_target():
    cfg = SimConfig(steps=30, walkers=8, drivers=5, seed=11)
    world = World(small_grid(), cfg)

    def active_counts():
        active = [a.kind for a in world.agents.values() if a.status is Status.ACTIVE]
        return active.count("walker"), active.count("driver")

    for _ in range(30):
        world.step()
        walkers, drivers = active_counts()
        assert walkers <= 8
        assert drivers <= 5
    assert active_counts() == (8, 5)


def test_construction_spawn_events_open_step_one():
    cfg = SimConfig(steps=4, walkers=6, drivers=3, seed=5)
    world = World(small_grid(), cfg)
    spawned = world.agents
    assert sorted(a.kind for a in spawned.values()) == ["driver"] * 3 + ["walker"] * 6
    records = [world.step() for _ in range(cfg.steps)]
    opening = records[0].events[:len(spawned)]
    assert [(e.step, e.kind, e.agents, (e.x, e.y)) for e in opening] == [
        (0, "spawn", (i,), a.position) for i, a in spawned.items()
    ]
    assert all(e.step == 1 for e in records[0].events[len(opening):])
    assert run(cfg, small_grid()).events == [e for r in records for e in r.events]


def test_poisson_mode_rate_zero_spawns_nothing():
    cfg = SimConfig(
        steps=10, spawn_mode="poisson", walker_rate=0.0, driver_rate=0.0, seed=2
    )
    world = World(small_grid(), cfg)
    for _ in range(10):
        world.step()
    assert world.agents == {}


def test_poisson_mode_spawns_with_rate():
    cfg = SimConfig(
        steps=20, spawn_mode="poisson", walker_rate=0.8, driver_rate=0.3, seed=2
    )
    result = run(cfg, small_grid())
    spawns = [e for e in result.events if e.kind == "spawn"]
    assert spawns
    rerun = run(cfg, small_grid())
    assert [e.agents for e in rerun.events if e.kind == "spawn"] == [
        e.agents for e in spawns
    ]


def test_profile_sampling_ranges():
    cfg = SimConfig(
        steps=5, walkers=10, drivers=6, walker_w=(1, 3), driver_w=(1, 5), seed=4
    )
    world = World(small_grid(), cfg)
    seen_w = {"walker": set(), "driver": set()}
    for _ in range(5):
        world.step()
        for agent in world.agents.values():
            seen_w[agent.kind].add(agent.profile.w)
    assert all(1 <= w <= 3 and w == int(w) for w in seen_w["walker"])
    assert all(1 <= w <= 5 and w == int(w) for w in seen_w["driver"])
    assert len(seen_w["walker"]) > 1
    assert len(seen_w["driver"]) > 1


def test_walker_speed_cap_applied():
    cfg = SimConfig(steps=1, walkers=3, walker_max_speed=60.0, seed=5)
    world = World(small_grid(), cfg)
    assert all(
        a.profile.max_speed == 1.0
        for a in world.agents.values()
        if a.kind == "walker"
    )
    uncapped = SimConfig(
        steps=1, walkers=3, walker_max_speed=2.5, walker_speed_cap=None, seed=5
    )
    world2 = World(small_grid(), uncapped)
    assert all(a.profile.max_speed == 2.5 for a in world2.agents.values())


def test_conservation_every_step():
    cfg = SimConfig(steps=60, walkers=12, drivers=8, obstruction=0.05,
                    walker_w=(1, 3), seed=9)
    world = World(small_grid(), cfg)
    for _ in range(60):
        before = len(world.agents)
        record = world.step()
        after = len(world.agents)
        assert after - before == record.created - record.removed


def test_a_lookahead_past_every_route_costs_no_memory():
    # a window slot past the longest plan is past every plan, so a huge
    # lookahead decides as that plan's length does and allocates nothing for it
    cfg = SimConfig(walkers=4, drivers=2, lookahead=10**5, seed=1)
    world = World(generate_layout(LayoutSpec(blocks_x=1, blocks_y=1)), cfg)
    pop, grid = world.population, world.grid
    codes, _ = decide(pop, grid, cfg.lookahead, cfg.sense_radius, cfg.yield_radius)
    widest, _ = decide(pop, grid, int(pop.plan_len.max()), cfg.sense_radius,
                       cfg.yield_radius)
    assert codes.tolist() == widest.tolist()
    tracemalloc.start()
    try:
        world.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_run_deterministic_outputs():
    cfg = SimConfig(steps=40, walkers=10, drivers=8, obstruction=0.05, seed=21)
    grid = small_grid()
    a = run(cfg, grid)
    b = run(cfg, small_grid())
    assert render_metrics_csv(a.frames) == render_metrics_csv(b.frames)
    assert render_events_csv(a.events) == render_events_csv(b.events)
    for kind in ("driver_occupancy", "driver_speed_sum", "walker_occupancy", "jaywalk"):
        table = getattr(a.heatmaps, kind)
        assert render_heatmap_csv(table) == render_heatmap_csv(getattr(b.heatmaps, kind))


def test_different_seeds_differ():
    grid = small_grid()
    a = run(SimConfig(steps=30, walkers=10, drivers=5, seed=1), grid)
    b = run(SimConfig(steps=30, walkers=10, drivers=5, seed=2), grid)
    assert render_events_csv(a.events) != render_events_csv(b.events)


def test_runover_involves_one_walker_one_driver():
    grid = small_grid()
    cfg = SimConfig(
        steps=120, walkers=30, drivers=25, obstruction=0.1, walker_w=(3, 3),
        seed=14,
    )
    world = World(grid, cfg)
    checked = 0
    for _ in range(120):
        record = world.step()
        for event in record.events:
            if event.kind == "runover":
                walker_id, driver_id = event.agents
                assert world.agents[walker_id].kind == "walker"
                assert world.agents[driver_id].kind == "driver"
                checked += 1
    assert checked > 0


def test_automatic_reactivation_policy():
    # parking pocket mid-street, with the street exit as an alternative goal
    grid = grid_of("rE- rE- pE- rE-")
    cfg = SimConfig(steps=1, drivers=0, reactivation_prob=1.0, seed=0)
    world = World(grid, cfg)
    parked = make_agent(5, "driver", grid.center((2, 0)), None, status=Status.PARKED)
    world.add(parked)
    saw_reactivate = False
    for _ in range(10):
        record = world.step()
        if any(e.kind == "reactivate" for e in record.events):
            saw_reactivate = True
            break
    assert saw_reactivate
    assert world.agents[5].status is Status.ACTIVE or 5 not in world.agents


def test_poisson_draw_mean_tracks_rate():
    from gridcity.engine import _poisson

    rng = random.Random(123)
    draws = [_poisson(2.0, rng) for _ in range(3000)]
    assert abs(sum(draws) / len(draws) - 2.0) < 0.1


def test_obstruction_applied_by_world():
    cfg = SimConfig(steps=1, obstruction=0.1, seed=3)
    world = World(small_grid(), cfg)
    sidewalks = small_grid().ground.count(GroundType.SIDEWALK)
    assert len(world.grid.obstacles) == round(0.1 * sidewalks)
    again = World(small_grid(), cfg)
    assert again.grid.obstacles == world.grid.obstacles


def test_obstructed_driver_sites_are_dropped():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    cfg = SimConfig(steps=50, drivers=10, seed=1)
    for obstacle in (grid.driver_spawns[0][0], grid.driver_exits[0]):
        world = World(grid.with_obstacles({obstacle}), cfg)
        sites, goals, *_ = world._spawn_table["driver"]
        assert obstacle not in [site for site, _ in sites]
        assert obstacle not in goals
        for _ in range(cfg.steps):
            world.step()
            for a in world.agents.values():
                assert a.goal != obstacle
                assert a.plan is None or obstacle not in a.plan.cells
    # a run over the obstructed site completes with drivers about
    result = run(cfg, grid.with_obstacles({grid.driver_spawns[0][0]}))
    assert sum(e.kind == "spawn" for e in result.events) >= cfg.drivers
    # an obstructed parking space is no goal either
    lot = grid_of("rE- rE- pE- pE-")
    assert lot.parking_cells == ((2, 0), (3, 0))
    world = World(lot.with_obstacles({(2, 0)}), SimConfig(steps=1, drivers=1, seed=0))
    goals = world._spawn_table["driver"][1]
    assert (2, 0) not in goals and (3, 0) in goals


def test_driver_goal_on_an_exit_and_a_parking_cell_is_listed_once():
    # (3, 0) is both the strip's exit and a parking cell; listing it twice
    # would draw it twice as often on spawn and reactivation
    lot = grid_of("rE- rE- pE- pE-")
    assert lot.driver_exits == ((3, 0),) and lot.parking_cells == ((2, 0), (3, 0))
    world = World(lot, SimConfig(steps=1, drivers=1, seed=0))
    assert world._spawn_table["driver"][1] == [(3, 0), (2, 0)]


STALL_STEPS = 50


def stalled_after(world: World, steps: int) -> dict:
    """Step ``world`` ``steps`` times and count, by kind, the active agents
    that have not moved for at least ``STALL_STEPS`` steps at the end."""
    last_moved = {}  # agent id -> (position, step it last moved)
    for t in range(1, steps + 1):
        world.step()
        stalled = {"walker": 0, "driver": 0}
        for agent in world.agents.values():
            if agent.status is not Status.ACTIVE:
                continue
            seen = last_moved.get(agent.id)
            if seen is None or seen[0] != agent.position:
                last_moved[agent.id] = (agent.position, t)
            elif t - seen[1] >= STALL_STEPS:
                stalled[agent.kind] += 1
    return stalled


@pytest.mark.xfail(
    strict=True,
    reason="walker-driver yield deadlock (ROADMAP item 1): a driver yields to a "
    "sidewalk walker near a zebra, and the walker stops for the stopped driver",
)
def test_no_agent_stalls_in_the_city():
    # at step 120 this city has 15 stalled walkers and 7 stalled drivers
    cfg = SimConfig(steps=120, walkers=200, drivers=100, obstruction=0.05,
                    walker_w=(1, 3), driver_w=(1, 5), seed=7)
    world = World(generate_layout(LayoutSpec(blocks_x=5, blocks_y=5)), cfg)
    assert stalled_after(world, cfg.steps) == {"walker": 0, "driver": 0}


@pytest.mark.xfail(
    strict=True,
    reason="driver-driver head-on deadlock (ROADMAP item 2): two drivers whose "
    "next cells are each other's cells both decelerate to 0 and never replan",
)
def test_no_driver_stalls_in_a_jam():
    # at step 300 all 70 active drivers of this jam are stalled
    cfg = SimConfig(steps=300, drivers=70, seed=0)
    world = World(generate_layout(LayoutSpec(blocks_x=2, blocks_y=2)), cfg)
    assert stalled_after(world, cfg.steps) == {"walker": 0, "driver": 0}

