import dataclasses
import hashlib
import importlib.util
import math
import random
import re
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
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
from gridcity.metrics import (
    export_run,
    render_events_csv,
    render_heatmap_csv,
    render_metrics_csv,
)
from helpers import (
    add_agent, cell_of, cells_of, grid_of, make_agent, parking_2x2, population, step_counted,
    straight_plan,
)
from test_digests import SCENARIOS

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

# a value of every integer field that is not an integer, each named when refused
NON_INTEGERS = [
    ("steps", 2.5), ("walkers", 2.5), ("walkers", True), ("drivers", 1.0),
    ("collision_countdown", 2.5), ("lookahead", 2.5), ("seed", 1.5),
    ("walker_w", (1, 2.5)), ("driver_w", (True, 2)),
]
# a value of a float field that is not a number, each named when refused
NON_NUMBERS = [("obstruction", "0.1"), ("driver_alpha", (0, "1")), ("accel", True)]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"walkers": -1},
        {"obstruction": 1.2},
        {"walker_w": (0, 3)},
        {"driver_alpha": (2.0, 1.0)},
        {"collision_countdown": 0},
        {"walker_max_speed": 0},
        {"walker_rate": math.nan},
        {"driver_alpha": (math.nan, math.nan)},
        {"driver_alpha": (math.inf, math.inf)},
        {"sense_radius": math.inf},
        {"accel": -1.0},
        {"decel": 0.0},
        {"walker_rate": -1},
        {"lookahead": 0},
        {"sense_radius": 0},
        {"yield_radius": -1},
        {"reactivation_prob": 1.5},
        {"walkers": 5, "walker_rate": 0.5},
        {"drivers": 1, "walker_rate": 0.5},
        *({name: value} for name, value in NON_INTEGERS),
        *({name: value} for name, value in NON_NUMBERS),
        {"sense_radius": np.float32("inf")},
    ],
)
def test_config_rejected(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_an_integer_field_names_itself_and_takes_a_numpy_integer():
    for name, value in NON_INTEGERS:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            SimConfig(**{name: value})
    config = SimConfig(steps=np.int64(3), walker_w=(np.int32(1), 2))
    assert config.steps == 3 and config.walker_w == (1, 2)


def test_a_float_field_names_itself_and_takes_a_numpy_number():
    for name, value in NON_NUMBERS:
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            SimConfig(**{name: value})
    config = SimConfig(obstruction=np.float32(0.5), driver_alpha=(np.int64(0), 1))
    assert config.obstruction == 0.5 and config.driver_alpha == (0, 1)


def test_replace_checks_the_values_it_changes():
    with pytest.raises(ValueError, match="steps must be positive"):
        dataclasses.replace(SimConfig(), steps=0)


def test_config_is_frozen():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.steps = 0
    assert cfg.steps == 1000


def test_run_rejects_invalid_config_before_stepping():
    with pytest.raises(ValueError):
        run(SimConfig(steps=0), small_grid())


# -- stepping and lifecycle --------------------------------------------------------


def test_empty_world_step_advances_counter_only():
    world = World(small_grid(), SimConfig(steps=5, walkers=0, drivers=0, seed=1))
    record = world.step()
    assert record.frame.step == 1
    assert record.events == []
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
    walker = make_agent(
        1, "walker", (1.2, 0.5), straight_plan([(0, 0), (1, 0)], grid.width),
        goal=(1, 0), max_speed=1.0
    )
    blocker = make_agent(2, "walker", (1.7, 0.5), None, status=Status.COLLIDED)
    blocker.countdown = 5
    add_agent(world, walker)
    add_agent(world, blocker)
    # the walker's state after acting, before the goal pass retires it
    acted = {}

    def detect_after_acting(pop, step):
        acted.update(pop.snapshot())
        return detect_collisions(pop, step)

    monkeypatch.setattr(engine, "detect_collisions", detect_after_acting)
    record = world.step()
    walker = acted[1]
    assert cells_of(grid, walker.plan) == ((1, 0),)
    assert walker.cursor == 1
    assert [(e.kind, e.agents) for e in record.events] == [("replan", (1,)), ("goal", (1,))]
    assert list(world.agents) == [2]


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
    driver = make_agent(7, "driver", (2.5, 0.5), None, status=Status.PARKED)
    add_agent(world, driver)
    assert world.reactivate(7, (3, 1)) is False
    assert world.agents[7].status is Status.PARKED


def test_add_refuses_an_id_not_above_the_ids_present():
    world = World(small_grid(), SimConfig(steps=1, drivers=0, seed=0))
    add_agent(world, make_agent(5, "walker", (0.5, 0.5)))
    for agent_id in (3, 5):
        with pytest.raises(ValueError, match="ascend"):
            add_agent(world, make_agent(agent_id, "walker", (0.5, 0.5)))
    assert list(world.agents) == [5]


def test_reactivation_on_a_map_without_parking_is_refused():
    # a generated layout has no parking cell, and a run drops obstructed
    # goals: on neither map would a driver park
    config = SimConfig(steps=3, drivers=2, reactivation_prob=0.5)
    parking = parking_2x2()
    for grid in (small_grid(), parking.with_obstacles(parking.parking_cells)):
        with pytest.raises(ValueError, match="^reactivation_prob: the map has no unobstructed "
                                             "parking cell, so no driver parks$"):
            run(config, grid)
    # one free parking cell is enough
    World(parking.with_obstacles(parking.parking_cells[1:]), config)


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
    add_agent(world, a)
    add_agent(world, b)
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
    cfg = SimConfig(steps=10, walker_rate=0.0, driver_rate=0.0, seed=2)
    world = World(small_grid(), cfg)
    for _ in range(10):
        world.step()
    assert world.agents == {}


def test_poisson_mode_spawns_with_rate():
    cfg = SimConfig(steps=20, walker_rate=0.8, driver_rate=0.3, seed=2)
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


def test_walker_max_speed_applied():
    world = World(small_grid(), SimConfig(steps=1, walkers=3, walker_max_speed=2.5, seed=5))
    assert [a.profile.max_speed for a in world.agents.values()] == [2.5] * 3


def test_conservation_every_step():
    # the population changes by this step's spawns, less its goals and its
    # expired collisions; on the parking city drivers also park and reactivate
    cfg = SimConfig(steps=60, walkers=12, drivers=8, obstruction=0.05,
                    walker_w=(1, 3), seed=9)
    for grid, config in ((small_grid(), cfg),
                         (parking_2x2(), dataclasses.replace(cfg, reactivation_prob=0.2))):
        world = World(grid, config)
        for _ in range(60):
            _, change, counted = step_counted(world)
            assert change == counted, world.step_count


def test_perfbench_step_observer_counts_active_agents_and_refused_spawns():
    # perfbench's traced runs read a step's active agents and its refused
    # spawns (the world's warnings) through this observer
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", Path(__file__).parents[1] / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    observe = layers.observers(Status)["engine.step"]
    # one driver site, so a target of three refuses a spawn every step
    world = World(grid_of("rE- rE- rE- rE-"), SimConfig(steps=6, drivers=3, seed=0))
    for _ in range(6):
        record = world.step()
        wid, active, _, refused = observe((world,), {}, record)
        assert wid == id(world)
        assert active == np.count_nonzero(world.population.status == Status.ACTIVE) > 0
        assert refused == len(world.warnings) > world.step_count


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_step_puts_an_active_agent_on_a_cell_its_kind_cannot_enter(name):
    # no step puts an agent where its kind cannot go
    make_grid, config, _ = SCENARIOS[name]
    world = World(make_grid(), config)
    grid = world.grid
    for _ in range(config.steps):
        world.step()
        pop = world.population
        for row in np.flatnonzero(pop.status == Status.ACTIVE).tolist():
            x, y = pop.coord(row)
            kind = "driver" if pop.driver[row] else "walker"
            assert math.isfinite(grid.costs(kind)[y * grid.width + x]), (
                world.step_count, int(pop.id[row]), (x, y))


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
    assert "".join(render_metrics_csv(a.frames)) == "".join(render_metrics_csv(b.frames))
    assert "".join(render_events_csv(a.events)) == "".join(render_events_csv(b.events))
    for kind in ("driver_occupancy", "driver_speed_sum", "walker_occupancy", "jaywalk"):
        table = getattr(a.heatmaps, kind)
        assert ("".join(render_heatmap_csv(table))
                == "".join(render_heatmap_csv(getattr(b.heatmaps, kind))))


def test_different_seeds_differ():
    grid = small_grid()
    a = run(SimConfig(steps=30, walkers=10, drivers=5, seed=1), grid)
    b = run(SimConfig(steps=30, walkers=10, drivers=5, seed=2), grid)
    assert "".join(render_events_csv(a.events)) != "".join(render_events_csv(b.events))


# A run with targets, and one with arrival rates instead, on a map with
# parking cells; per SimConfig field, a value off the one these runs take.
EVERY_INPUT_BASE = SimConfig(steps=60, walkers=30, drivers=20, obstruction=0.05,
                             walker_w=(1, 3), driver_w=(1, 5), reactivation_prob=0.05,
                             seed=1)
EVERY_INPUT_ARRIVALS = dataclasses.replace(EVERY_INPUT_BASE, walkers=0, drivers=0,
                                           walker_rate=0.5, driver_rate=0.3)
EVERY_INPUT = {
    "steps": 61, "walkers": 31, "drivers": 21, "obstruction": 0.1,
    "walker_rate": 0.6, "driver_rate": 0.4, "walker_w": (1, 4), "driver_w": (1, 4),
    "driver_alpha": (0.0, 2.0), "walker_max_speed": 0.8, "driver_max_speed": 2.5,
    "collision_countdown": 3, "lookahead": 2, "sense_radius": 1.5, "yield_radius": 2.5,
    "accel": 0.5, "decel": 0.5, "reactivation_prob": 0.2, "seed": 2,
}


def test_every_config_field_changes_the_run(tmp_path):
    # a setting earns its place only when its value changes what a run
    # writes; a new SimConfig field fails here until it has a case
    assert sorted(EVERY_INPUT) == sorted(f.name for f in dataclasses.fields(SimConfig))
    grid = parking_2x2()

    def digest(config, name):
        paths = export_run(run(config, grid), tmp_path / name)
        return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()

    arrivals = ("walker_rate", "driver_rate")
    base = {False: digest(EVERY_INPUT_BASE, "base"),
            True: digest(EVERY_INPUT_ARRIVALS, "arrivals")}
    unchanged = []
    for name, value in EVERY_INPUT.items():
        config = EVERY_INPUT_ARRIVALS if name in arrivals else EVERY_INPUT_BASE
        changed = digest(dataclasses.replace(config, **{name: value}), name)
        if changed == base[name in arrivals]:
            unchanged.append(name)
    assert unchanged == []


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
    parked = make_agent(5, "driver", (2.5, 0.5), None, status=Status.PARKED)
    add_agent(world, parked)
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


def test_poisson_draws_large_rates_in_parts_and_small_ones_as_before():
    # exp(-rate) underflows to 0 above about 745, which capped a one-part
    # draw near 750; a rate up to 500 is still one part, so these draws are
    # the values recorded from the one-part draw
    rng = random.Random(2024)
    draws = [engine._poisson(rate, rng) for rate in (0.3, 3, 500) for _ in range(5)]
    assert draws == [0, 0, 0, 1, 0, 3, 5, 5, 2, 1, 496, 516, 531, 504, 512]
    rng = random.Random(5)
    mean = statistics.fmean(engine._poisson(2000, rng) for _ in range(200))
    assert abs(mean - 2000) <= 20


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
                assert a.plan is None or obstacle not in cells_of(grid, a.plan)
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

