"""Discrete-time simulation engine.

``World`` owns the population as one ``agents.Population``: one row per agent
in ascending id order, held as numpy columns for the array passes and as
per-row lists of the plans and of the profiles ``plan`` takes.  Each step runs
three phases.  One array pass over the columns (``agents.decide``) senses the
snapshot of the previous positions and picks one decision code per active
agent.  ``agents.act`` then applies the codes and moves every agent with a
speed.  A global iterate phase then expires collision countdowns, detects
collisions on post-move positions, retires agents that reached their goals,
parks drivers on parking goals, optionally reactivates parked drivers, and
spawns replacements, appended in one go; expired and retired rows leave with
one mask.  Every plan (spawn, replan, reactivation) avoids
``Population.blocking_cells()``, the cells of the parked and collided agents;
a replan hands ``plan`` the stored profile, the last cell of the row's plan as
its goal, and the ``Direction`` of a driver's heading code.  A spawn draws its
site, goal and profile from one per-kind table and enters the population as
a row.  ``World.agents`` is a snapshot of ``AgentState`` records built from
the population.  A run is fully determined by (config, seed).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics as metrics_mod
from .agents import AgentState, Population, Status, act, decide, ranges
from .environment import Coord, GridMap, GroundType, place_obstacles
from .planner import BehaviorProfile, default_heading, plan

# Square agent footprints: half the side length is the effective radius.
VEHICLE_RADIUS = 0.4  # vehicles occupy 0.8 x 0.8 cell units
WALKER_RADIUS = 0.05  # pedestrians occupy 0.1 x 0.1 cell units
VEHICLE_VEHICLE_DIST = VEHICLE_RADIUS + VEHICLE_RADIUS  # 0.8
RUNOVER_DIST = VEHICLE_RADIUS + WALKER_RADIUS  # 0.45


@dataclass(frozen=True)
class SimConfig:
    """Run parameters: population, behavior distributions, sensing, seed.
    Checked when made (a ValueError names the field) and frozen, so a changed
    config is made with ``dataclasses.replace``, which checks it again."""

    steps: int = 1000
    walkers: int = 0
    drivers: int = 0
    obstruction: float = 0.0
    walker_rate: float = 0.0  # poisson arrivals per step, instead of a target
    driver_rate: float = 0.0
    walker_w: tuple[int, int] = (1, 1)  # integer uniform inclusive
    driver_w: tuple[int, int] = (1, 1)
    driver_alpha: tuple[float, float] = (1.0, 1.0)  # real uniform
    walker_max_speed: float = 1.0
    driver_max_speed: float = 2.0
    collision_countdown: int = 10
    lookahead: int = 4
    sense_radius: float = 1.0
    yield_radius: float = 1.5
    accel: float = 1.0
    decel: float = 1.0
    reactivation_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            integer = f.type in ("int", "tuple[int, int]")
            kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, bool) or not isinstance(v, kinds):
                    raise ValueError(f"{f.name} must be "
                                     f"{'an integer' if integer else 'a number'}, got {v!r}")
                if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {v!r}")
            # stored as Python numbers, so a numpy one seeds a run and echoes
            cast = int if integer else float
            object.__setattr__(self, f.name, tuple(map(cast, value))
                               if isinstance(value, tuple) else cast(value))
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.walkers < 0 or self.drivers < 0:
            raise ValueError("population targets must be >= 0")
        if not 0 <= self.obstruction <= 1:
            raise ValueError("obstruction must lie in [0, 1]")
        if self.walker_rate < 0 or self.driver_rate < 0:
            raise ValueError("poisson rates must be >= 0")
        if (self.walker_rate or self.driver_rate) and (self.walkers or self.drivers):
            raise ValueError("a run sets population targets (walkers, drivers) or "
                             "arrival rates (walker_rate, driver_rate), not both")
        for name, rng in (("walker_w", self.walker_w), ("driver_w", self.driver_w)):
            lo, hi = rng
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range must satisfy 1 <= low <= high")
        lo, hi = self.driver_alpha
        if lo < 0 or hi < lo:
            raise ValueError("driver_alpha range must satisfy 0 <= low <= high")
        if self.walker_max_speed <= 0 or self.driver_max_speed <= 0:
            raise ValueError("max speeds must be positive")
        if self.collision_countdown < 1:
            raise ValueError("collision_countdown must be >= 1")
        if self.accel <= 0 or self.decel <= 0:
            raise ValueError("accel and decel must be positive")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if self.sense_radius <= 0 or self.yield_radius <= 0:
            raise ValueError("sensing radii must be positive")
        if not 0 <= self.reactivation_prob <= 1:
            raise ValueError("reactivation_prob must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class Event:
    """One logged occurrence (spawn, goal, park, reactivate, collision_vv,
    runover, jaywalk_entry, replan)."""

    step: int
    kind: str
    agents: tuple
    x: float
    y: float


@dataclass
class StepRecord:
    events: list
    frame: metrics_mod.MetricsFrame


def detect_collisions(pop: Population, step: int = 0) -> list[Event]:
    """Report agent pairs closer than the sum of their effective radii.

    Vehicle-vehicle contact below 0.8 cell units, walker-driver (a runover)
    below 0.45; walker pairs never collide.  Only active agents participate
    and each unordered pair is reported at most once, the events sorted by
    their ids.  The active rows are stable-sorted by x, and each is paired
    with those after it whose x lies within 0.8 of its own; a pair is a
    contact when ``dx*dx + dy*dy < t*t`` in float64.
    """
    rows = np.flatnonzero(pop.status == Status.ACTIVE.value)
    order = rows[np.argsort(pop.x[rows], kind="stable")]
    xs, ys = pop.x[order], pop.y[order]
    driver, ids = pop.driver[order], pop.id[order]
    # x ascends, so every b within reach of a follows a up to the bound; a
    # pair past it has dx > 0.8, whose square is no contact
    count = np.searchsorted(xs, xs + VEHICLE_VEHICLE_DIST, "right")
    follower = np.arange(1, len(xs) + 1)
    count -= follower
    a = np.repeat(np.arange(len(xs)), count)
    b = ranges(follower, count)
    both_drivers = driver[a] & driver[b]
    dx = xs[b] - xs[a]
    dy = ys[a] - ys[b]
    threshold = np.where(
        both_drivers,
        VEHICLE_VEHICLE_DIST * VEHICLE_VEHICLE_DIST,
        RUNOVER_DIST * RUNOVER_DIST,
    )
    hit = (driver[a] | driver[b]) & (dx * dx + dy * dy < threshold)
    a, b, both_drivers = a[hit], b[hit], both_drivers[hit]
    # collision_vv lists the lower id first, a runover the walker first
    first = np.where(both_drivers, np.minimum(ids[a], ids[b]),
                     np.where(driver[a], ids[b], ids[a]))
    second = np.where(both_drivers, np.maximum(ids[a], ids[b]),
                      np.where(driver[a], ids[a], ids[b]))
    mid_x = (xs[a] + xs[b]) / 2
    mid_y = (ys[a] + ys[b]) / 2
    found = np.lexsort((second, first))
    return [
        Event(step, "collision_vv" if vv else "runover", (i, j), x, y)
        for vv, i, j, x, y in zip(
            both_drivers[found].tolist(), first[found].tolist(), second[found].tolist(),
            mid_x[found].tolist(), mid_y[found].tolist(),
        )
    ]


def _poisson(rate: float, rng: random.Random) -> int:
    """A Poisson draw at ``rate`` by Knuth's product of uniforms, taken in
    parts of at most 500 and summed: ``exp(-rate)`` underflows to 0 above
    about 745.  A rate up to 500 is one part."""
    k = 0
    while rate > 0:
        part = min(rate, 500.0)
        rate -= part
        limit = math.exp(-part)
        p = rng.random()
        while p > limit:
            k += 1
            p *= rng.random()
    return k


def check_map(grid: GridMap, config: SimConfig) -> None:
    """Raise ValueError when ``config`` needs what ``grid`` lacks: a driver
    can be reactivated only on a map with a parking cell free of obstacles."""
    if config.reactivation_prob > 0 and all(c in grid.obstacles for c in grid.parking_cells):
        raise ValueError(
            "reactivation_prob: the map has no unobstructed parking cell, so no driver parks")


class World:
    """Owner of the grid, the agent population (``population``, the columns),
    and the step loop.  Its ``SimConfig`` was checked when made and is frozen,
    so the world checks only what the config needs of its grid (``check_map``).

    Events go to one pending list: what is logged between steps (the
    construction's spawns of a run with targets, a ``reactivate`` call) opens
    the next step's record with the step count at the time it was logged.
    ``_log`` builds each event of one agent from its row, and
    ``detect_collisions`` each event of a pair.
    """

    def __init__(self, grid: GridMap, config: SimConfig):
        check_map(grid, config)
        master = random.Random(config.seed)
        obstacle_seed = master.getrandbits(64)
        self.spawn_rng = random.Random(master.getrandbits(64))
        self.react_rng = random.Random(master.getrandbits(64))
        if config.obstruction > 0:
            grid = place_obstacles(grid, config.obstruction, random.Random(obstacle_seed))
        self.grid = grid
        self.config = config
        # an obstructed site or goal is dropped: no agent starts on or heads
        # for it; a cell that is both an exit and a parking cell is one goal,
        # listed where it first appears
        walker_goals = [c for c in grid.walker_spawns if c not in grid.obstacles]
        driver_goals = [
            c for c in dict.fromkeys(grid.driver_exits + grid.parking_cells)
            if c not in grid.obstacles
        ]
        # per kind: (cell, heading) sites, goals, w range, alpha range, max
        # speed; a lone walker site has no distinct goal to pair with, so no
        # walker spawns rather than draw for one in vain
        self._spawn_table = {
            "walker": ([(c, None) for c in walker_goals] if len(walker_goals) > 1 else [],
                       walker_goals, config.walker_w, (0.0, 0.0), config.walker_max_speed),
            "driver": ([s for s in grid.driver_spawns if s[0] not in grid.obstacles],
                       driver_goals, config.driver_w, config.driver_alpha,
                       config.driver_max_speed),
        }
        self.population = Population()
        self.step_count = 0
        self.warnings: list[str] = []
        self.heatmaps = metrics_mod.HeatmapSet.create(grid)
        self._next_id = 1
        # the events of the step under way, or of the next step between steps
        self._events: list[Event] = []
        if config.walkers or config.drivers:  # arrivals begin at step 1
            self._spawn_phase()

    # -- population ---------------------------------------------------------

    def _sample_profile(self, kind: str) -> BehaviorProfile:
        """Draw ``w``, then ``alpha``, from ``kind``'s ranges."""
        _, _, w, alpha, max_speed = self._spawn_table[kind]
        rng = self.spawn_rng
        # a walker's alpha range is (0, 0), drawn all the same to keep the stream
        return BehaviorProfile(kind=kind, w=float(rng.randint(int(w[0]), int(w[1]))),
                               alpha=rng.uniform(*alpha), max_speed=max_speed)

    def _spawn(self, kind: str, sites: list, blocked: set) -> tuple | None:
        """The row ``(id, profile, position, heading, plan)`` of a new ``kind``
        agent on a random ``(cell, heading)`` site, with a route around
        ``blocked`` to a random goal; None when 10 draws find no route."""
        goals = self._spawn_table[kind][1]
        if not sites or not goals:
            return None
        rng = self.spawn_rng
        for _ in range(10):
            start, heading = rng.choice(sites)
            goal = rng.choice(goals)
            if goal == start:
                continue
            profile = self._sample_profile(kind)
            route = plan(
                self.grid, start, goal, profile, blocked=blocked, heading=heading
            )
            if route is None:
                continue
            self._next_id += 1
            center = (start[0] + 0.5, start[1] + 0.5)
            return self._next_id - 1, profile, center, heading, route
        return None

    def _log(self, kind: str, rows) -> None:
        """Log a ``kind`` event per row of ``rows`` (row indices or a slice),
        in order, at the row's position and the step count: the one builder of
        a one-agent event."""
        pop, t = self.population, self.step_count
        ids, xs, ys = (column[rows].tolist() for column in (pop.id, pop.x, pop.y))
        self._events.extend(Event(t, kind, (i,), x, y) for i, x, y in zip(ids, xs, ys))

    def _spawn_phase(self) -> None:
        """Spawn this phase's agents, append them to the population at once
        and log their events."""
        cfg = self.config
        pop = self.population
        blocked = pop.blocking_cells()
        occupied = pop.cells(pop.driver)  # cells that hold a driver
        # a kind replenishes to its target, or with no target takes Poisson
        # arrivals at its rate (none at rate 0); a SimConfig allows not both
        active = pop.status == Status.ACTIVE.value
        drivers = int(np.count_nonzero(active & pop.driver))
        walkers = int(np.count_nonzero(active)) - drivers
        wanted = [
            ("walker", cfg.walkers - walkers if cfg.walkers
             else _poisson(cfg.walker_rate, self.spawn_rng)),
            ("driver", cfg.drivers - drivers if cfg.drivers
             else _poisson(cfg.driver_rate, self.spawn_rng)),
        ]
        spawned = []
        for kind, count in wanted:
            table_sites = self._spawn_table[kind][0]
            for _ in range(count):
                sites = table_sites
                if kind == "driver":
                    # a driver spawns only on a cell that no driver holds
                    sites = [s for s in sites if s[0] not in occupied]
                row = self._spawn(kind, sites, blocked)
                if row is None:
                    self.warnings.append(f"step {self.step_count}: could not spawn "
                                         f"a {kind} (sites exhausted)")
                    continue
                spawned.append(row)
                if kind == "driver":
                    y, x = divmod(row[4].route[0], self.grid.width)  # its site
                    occupied.add((x, y))
        pop.extend(spawned)
        self._log("spawn", slice(len(pop) - len(spawned), None))

    @property
    def agents(self) -> dict[int, AgentState]:
        """A snapshot of every agent by id, in id order, built from the
        population's columns; changing it changes nothing in the world."""
        return self.population.snapshot()

    # -- lifecycle ----------------------------------------------------------

    def reactivate(self, driver_id: int, new_goal: Coord) -> bool:
        """Give a parked driver a fresh goal; False when no route exists.  A
        goal off the grid, or one a driver cannot enter, raises ValueError
        (from ``plan``) and leaves the driver parked.  Its ``reactivate``
        event joins the events of the step under way, or opens those of the
        next step when called between steps."""
        pop = self.population
        row = pop.row_of(driver_id)
        if row is None or not pop.driver[row] or pop.status[row] != Status.PARKED.value:
            raise ValueError(f"agent {driver_id} is not a parked driver")
        start = pop.coord(row)
        heading = default_heading(self.grid, start)
        # taken anew each call: an earlier reactivation may have freed a cell
        route = plan(
            self.grid, start, new_goal, pop.profiles[row],
            blocked=pop.blocking_cells(), heading=heading,
        )
        if route is None:
            return False
        pop.status[row] = Status.ACTIVE.value
        pop.set_plan(row, route)
        pop.heading[row] = heading
        pop.speed[row] = 0.0
        self._log("reactivate", slice(row, row + 1))
        return True

    # -- stepping -----------------------------------------------------------

    def step(self) -> StepRecord:
        """Advance one step: decide, act, then the iterate phase.  The
        record's events start with those logged since the last step."""
        self.step_count += 1
        t = self.step_count
        cfg = self.config
        grid = self.grid
        pop = self.population
        events = self._events

        # sense + react: nobody moves until every decision is made, so the
        # columns are the pre-step snapshot
        pre_ids = pop.id
        codes, pre_flat = decide(
            pop, grid, cfg.lookahead, cfg.sense_radius, cfg.yield_radius
        )

        # act
        self._log("replan", act(pop, codes, grid, accel=cfg.accel, decel=cfg.decel))

        # iterate: expire collision countdowns from earlier steps; the expired
        # rows leave with the retired ones below, and being inactive they take
        # no part in between
        collided = pop.status == Status.COLLIDED.value
        pop.countdown[collided] -= 1
        gone = collided & (pop.countdown <= 0)

        # iterate: detect new collisions on post-move positions
        collision_events = detect_collisions(pop, t)
        events.extend(collision_events)
        if collision_events:
            hit = np.searchsorted(pop.id, [i for e in collision_events for i in e.agents])
            pop.status[hit] = Status.COLLIDED.value
            pop.countdown[hit] = cfg.collision_countdown
            pop.speed[hit] = 0.0

        # iterate: deactivate agents that reached their goal
        arrived = np.flatnonzero(
            (pop.status == Status.ACTIVE.value) & (pop.plan_len > 0)
            & (pop.cursor >= pop.plan_len)
        )
        for row, driver in zip(arrived.tolist(), pop.driver[arrived].tolist()):
            if driver and grid.ground[pop.plans[row].route[-1]] == GroundType.PARKING:
                pop.status[row] = Status.PARKED.value
                pop.speed[row] = 0.0
                self._log("park", slice(row, row + 1))
            else:
                self._log("goal", slice(row, row + 1))
                gone[row] = True
        if gone.any():
            pop.keep(~gone)

        # iterate: optional random reactivation of parked drivers
        if cfg.reactivation_prob > 0:
            goals = self._spawn_table["driver"][1]
            parked = np.flatnonzero(pop.status == Status.PARKED.value)
            for row, agent_id in zip(parked.tolist(), pop.id[parked].tolist()):
                if goals and self.react_rng.random() < cfg.reactivation_prob:
                    goal = self.react_rng.choice(goals)
                    if goal != pop.coord(row):
                        self.reactivate(agent_id, goal)

        # iterate: replace departed agents
        self._spawn_phase()

        frame, entry_ids = metrics_mod.build_frame(
            t, pop, pre_ids, pre_flat, events, grid, self.heatmaps
        )
        self._log("jaywalk_entry", np.searchsorted(pop.id, entry_ids))
        self._events = []
        return StepRecord(events, frame)


@dataclass
class SimulationResult:
    """Everything one run produced: metric stream, event log, heatmaps."""

    config: SimConfig
    frames: list
    events: list
    heatmaps: metrics_mod.HeatmapSet
    warnings: list = field(default_factory=list)

    @property
    def total_jaywalk_entries(self) -> int:
        return sum(f.jaywalk_entries for f in self.frames)

    @property
    def total_collisions_vv(self) -> int:
        return sum(f.collisions_vv for f in self.frames)

    @property
    def total_runovers(self) -> int:
        return sum(f.runovers for f in self.frames)

    @property
    def mean_driver_speed(self) -> float | None:
        """Run-level mean over every active-driver observation."""
        count = int(self.heatmaps.driver_occupancy.sum())
        if count == 0:
            return None
        return float(self.heatmaps.driver_speed_sum.sum() / count)


def run(config: SimConfig, grid: GridMap) -> SimulationResult:
    """Execute a fresh seeded world for config.steps steps.

    The same (config, grid) pair always produces bitwise identical results.
    """
    world = World(grid, config)
    records = [world.step() for _ in range(config.steps)]
    return SimulationResult(
        config=config,
        frames=[r.frame for r in records],
        events=[e for r in records for e in r.events],
        heatmaps=world.heatmaps,
        warnings=world.warnings,
    )
