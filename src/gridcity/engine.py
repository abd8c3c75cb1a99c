"""Discrete-time simulation engine.

Each step runs three phases.  One array pass over the population
(``agents.decide``) senses the snapshot of the previous positions and picks
one decision per active agent.  Every active agent then acts (moves).  A
global iterate phase then detects collisions on post-move positions, retires
agents that reached their goals, parks drivers on parking goals, expires
collision countdowns, optionally reactivates parked drivers, and spawns
replacements.
A run is fully determined by (config, seed).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

from . import metrics as metrics_mod
from .agents import AgentState, Status, act, decide
from .environment import Coord, GridMap, GroundType, place_obstacles
from .planner import BehaviorProfile, default_heading, plan

# Square agent footprints: half the side length is the effective radius.
VEHICLE_RADIUS = 0.4  # vehicles occupy 0.8 x 0.8 cell units
WALKER_RADIUS = 0.05  # pedestrians occupy 0.1 x 0.1 cell units
VEHICLE_VEHICLE_DIST = 0.8  # VEHICLE_RADIUS + VEHICLE_RADIUS
RUNOVER_DIST = 0.45  # VEHICLE_RADIUS + WALKER_RADIUS


@dataclass
class SimConfig:
    """Run parameters: population, behavior distributions, sensing, seed."""

    steps: int = 1000
    walkers: int = 0
    drivers: int = 0
    obstruction: float = 0.0
    spawn_mode: str = "replenish"  # 'replenish' | 'poisson'
    walker_rate: float = 0.0  # poisson arrivals per step
    driver_rate: float = 0.0
    walker_w: tuple[int, int] = (1, 1)  # integer uniform inclusive
    driver_w: tuple[int, int] = (1, 1)
    walker_alpha: tuple[float, float] = (0.0, 0.0)  # real uniform
    driver_alpha: tuple[float, float] = (1.0, 1.0)
    walker_max_speed: float = 1.0
    driver_max_speed: float = 2.0
    walker_speed_cap: float | None = 1.0  # walkers move at most this unless None
    collision_countdown: int = 10
    lookahead: int = 4
    sense_radius: float = 1.0
    yield_radius: float = 1.5
    accel: float = 1.0
    decel: float = 1.0
    reactivation_prob: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.walkers < 0 or self.drivers < 0:
            raise ValueError("population targets must be >= 0")
        if not 0 <= self.obstruction <= 1:
            raise ValueError("obstruction must lie in [0, 1]")
        if self.spawn_mode not in ("replenish", "poisson"):
            raise ValueError(f"unknown spawn_mode {self.spawn_mode!r}")
        if self.walker_rate < 0 or self.driver_rate < 0:
            raise ValueError("poisson rates must be >= 0")
        for name, rng in (("walker_w", self.walker_w), ("driver_w", self.driver_w)):
            lo, hi = rng
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range must satisfy 1 <= low <= high")
        for name, rng in (
            ("walker_alpha", self.walker_alpha),
            ("driver_alpha", self.driver_alpha),
        ):
            lo, hi = rng
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} range must satisfy 0 <= low <= high")
        if self.walker_max_speed <= 0 or self.driver_max_speed <= 0:
            raise ValueError("max speeds must be positive")
        if self.walker_speed_cap is not None and self.walker_speed_cap <= 0:
            raise ValueError("walker_speed_cap must be positive or None")
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


@dataclass(frozen=True)
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
    step: int
    events: list
    frame: metrics_mod.MetricsFrame
    created: int
    removed: int


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


def _poisson(rate: float, rng: random.Random) -> int:
    if rate <= 0:
        return 0
    limit = math.exp(-rate)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class World:
    """Owner of the grid, the agent population, and the step loop."""

    def __init__(self, grid: GridMap, config: SimConfig):
        config.validate()
        master = random.Random(config.seed)
        obstacle_seed = master.getrandbits(64)
        self.spawn_rng = random.Random(master.getrandbits(64))
        self.react_rng = random.Random(master.getrandbits(64))
        if config.obstruction > 0:
            grid = place_obstacles(grid, config.obstruction, random.Random(obstacle_seed))
        self.grid = grid
        self.config = config
        self._walker_goals = [c for c in grid.walker_spawns if c not in grid.obstacles]
        # a lone site has no distinct goal to pair with: spawn no walkers
        # rather than draw for one in vain
        walker_sites = [(c, None) for c in self._walker_goals]
        self._walker_sites = walker_sites if len(walker_sites) > 1 else []
        # an obstructed driver site is dropped the same way: no driver starts
        # on or heads for it; a cell that is both an exit and a parking cell
        # is one goal, listed where it first appears
        self._driver_sites = [s for s in grid.driver_spawns if s[0] not in grid.obstacles]
        self._driver_goals = [
            c for c in dict.fromkeys(grid.driver_exits + grid.parking_cells)
            if c not in grid.obstacles
        ]
        self.agents: dict[int, AgentState] = {}
        self.step_count = 0
        self.warnings: list[str] = []
        self.heatmaps = metrics_mod.HeatmapSet.create(grid)
        self._next_id = 1
        self._loose_events: list[Event] = []
        self.initial_events: list[Event] = []
        if config.spawn_mode == "replenish":
            self._spawn_phase(self.initial_events, 0)

    # -- population ---------------------------------------------------------

    def _sample_profile(self, kind: str) -> BehaviorProfile:
        cfg = self.config
        rng = self.spawn_rng
        if kind == "walker":
            w = rng.randint(int(cfg.walker_w[0]), int(cfg.walker_w[1]))
            alpha = rng.uniform(*cfg.walker_alpha)
            speed = cfg.walker_max_speed
            if cfg.walker_speed_cap is not None:
                speed = min(speed, cfg.walker_speed_cap)
        else:
            w = rng.randint(int(cfg.driver_w[0]), int(cfg.driver_w[1]))
            alpha = rng.uniform(*cfg.driver_alpha)
            speed = cfg.driver_max_speed
        return BehaviorProfile(kind=kind, w=float(w), alpha=alpha, max_speed=speed)

    def _spawn(self, kind: str, sites: list, goals: list, statics) -> AgentState | None:
        """Spawn a ``kind`` agent on a random ``(cell, heading)`` site with a
        route to a random goal; None when 10 draws find no route."""
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
                self.grid, start, goal, profile, blocked=statics, heading=heading
            )
            if route is None:
                continue
            agent = AgentState(
                id=self._next_id,
                kind=kind,
                profile=profile,
                position=self.grid.center(start),
                heading=heading,
                speed=0.0,
                plan=route,
                cursor=1,
                goal=goal,
            )
            self._next_id += 1
            return agent
        return None

    def _spawn_phase(self, events: list, step: int) -> int:
        cfg = self.config
        statics = set()  # cells of inactive agents
        occupied = set()  # cells that hold a driver
        active = {"walker": 0, "driver": 0}
        for a in self.agents.values():
            cell = a.cell()
            if a.status is Status.ACTIVE:
                active[a.kind] += 1
            else:
                statics.add(cell)
            if a.kind == "driver":
                occupied.add(cell)
        created = 0
        if cfg.spawn_mode == "replenish":
            wanted = [
                ("walker", cfg.walkers - active["walker"]),
                ("driver", cfg.drivers - active["driver"]),
            ]
        else:
            wanted = [
                ("walker", _poisson(cfg.walker_rate, self.spawn_rng)),
                ("driver", _poisson(cfg.driver_rate, self.spawn_rng)),
            ]
        for kind, count in wanted:
            for _ in range(max(0, count)):
                if kind == "walker":
                    sites, goals = self._walker_sites, self._walker_goals
                else:
                    # a driver spawns only on a cell that no driver holds
                    sites = [s for s in self._driver_sites if s[0] not in occupied]
                    goals = self._driver_goals
                agent = self._spawn(kind, sites, goals, statics)
                if agent is None:
                    self.warnings.append(
                        f"step {step}: could not spawn a {kind} (sites exhausted)"
                    )
                    continue
                self.agents[agent.id] = agent
                if kind == "driver":
                    occupied.add(agent.cell())
                events.append(Event(step, "spawn", (agent.id,), *agent.position))
                created += 1
        return created

    # -- lifecycle ----------------------------------------------------------

    def reactivate(self, driver_id: int, new_goal: Coord) -> bool:
        """Give a parked driver a fresh goal; False when no route exists."""
        agent = self.agents.get(driver_id)
        if agent is None or agent.kind != "driver" or agent.status is not Status.PARKED:
            raise ValueError(f"agent {driver_id} is not a parked driver")
        start = agent.cell()
        heading = default_heading(self.grid, start)
        statics = {
            a.cell() for a in self.agents.values() if a.status is not Status.ACTIVE
        }
        route = plan(
            self.grid, start, new_goal, agent.profile, blocked=statics, heading=heading
        )
        if route is None:
            return False
        agent.status = Status.ACTIVE
        agent.plan = route
        agent.cursor = 1
        agent.goal = new_goal
        agent.heading = heading
        agent.speed = 0.0
        self._loose_events.append(
            Event(self.step_count, "reactivate", (agent.id,), *agent.position)
        )
        return True

    # -- stepping -----------------------------------------------------------

    def step(self) -> StepRecord:
        self.step_count += 1
        t = self.step_count
        cfg = self.config
        grid = self.grid
        events: list[Event] = []
        if self._loose_events:
            events.extend(self._loose_events)
            self._loose_events = []
        created = 0
        removed = 0

        # sense + react: nobody moves until every decision is made, so the
        # agent states are the pre-step snapshot
        ordered = list(self.agents.values())
        decisions, pre_cells, statics = decide(
            ordered, grid, cfg.lookahead, cfg.sense_radius, cfg.yield_radius
        )

        # act
        for a in ordered:
            if a.status is not Status.ACTIVE:
                continue
            replanned = act(
                a, decisions[a.id], grid, statics, accel=cfg.accel, decel=cfg.decel
            )
            if replanned:
                events.append(Event(t, "replan", (a.id,), *a.position))

        # iterate: expire collision countdowns from earlier steps
        for a in list(self.agents.values()):
            if a.status is Status.COLLIDED:
                a.countdown -= 1
                if a.countdown <= 0:
                    del self.agents[a.id]
                    removed += 1

        # iterate: detect new collisions on post-move positions
        collision_events = detect_collisions(self.agents.values(), t)
        events.extend(collision_events)
        hit_ids = {i for e in collision_events for i in e.agents}
        for agent_id in sorted(hit_ids):
            a = self.agents[agent_id]
            a.status = Status.COLLIDED
            a.countdown = cfg.collision_countdown
            a.speed = 0.0

        # iterate: deactivate agents that reached their goal
        for a in list(self.agents.values()):
            if a.status is not Status.ACTIVE or a.plan is None:
                continue
            if a.cursor >= len(a.plan):
                if (
                    a.kind == "driver"
                    and a.goal is not None
                    and grid.ground_at(a.goal) is GroundType.PARKING
                ):
                    a.status = Status.PARKED
                    a.speed = 0.0
                    events.append(Event(t, "park", (a.id,), *a.position))
                else:
                    events.append(Event(t, "goal", (a.id,), *a.position))
                    del self.agents[a.id]
                    removed += 1

        # iterate: optional random reactivation of parked drivers
        if cfg.reactivation_prob > 0:
            goals = self._driver_goals
            for a in list(self.agents.values()):
                if a.status is Status.PARKED and goals:
                    if self.react_rng.random() < cfg.reactivation_prob:
                        goal = self.react_rng.choice(goals)
                        if goal != a.cell():
                            self.reactivate(a.id, goal)
            if self._loose_events:
                events.extend(self._loose_events)
                self._loose_events = []

        # iterate: replace departed agents
        created += self._spawn_phase(events, t)

        frame, entry_ids = metrics_mod.build_frame(
            t, self.agents, pre_cells, events, grid, self.heatmaps
        )
        for walker_id in entry_ids:
            a = self.agents[walker_id]
            events.append(Event(t, "jaywalk_entry", (walker_id,), *a.position))
        return StepRecord(t, events, frame, created, removed)


@dataclass
class SimulationResult:
    """Everything one run produced: metric stream, event log, heatmaps."""

    config: SimConfig
    grid: GridMap
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
    def mean_walkers_on_road(self) -> float:
        if not self.frames:
            return 0.0
        return sum(f.walkers_on_road for f in self.frames) / len(self.frames)

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
    events = list(world.initial_events)
    for record in records:
        events.extend(record.events)
    return SimulationResult(
        config=config,
        grid=world.grid,
        frames=[r.frame for r in records],
        events=events,
        heatmaps=world.heatmaps,
        warnings=world.warnings,
    )
