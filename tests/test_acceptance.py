"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and runtime
budget and prints a single PASS/FAIL line.  Trend criteria run the full
seeded scenario batteries; oracle criteria compare against the independent
Dijkstra implementation in oracle.py.
"""
import hashlib
import random
import statistics
import time

import yaml
from scipy import stats

from gridcity.cli import SUMMARY_METRICS, Scenario, execute_sweep, load_config, point_label
from gridcity.engine import SimConfig, World, detect_collisions, run
from gridcity.environment import ROAD_FAMILY, GroundType, LayoutSpec, generate_layout
from gridcity.planner import BehaviorProfile, plan
from helpers import (
    ground_of, make_agent, population, random_grid, step_counted, traversable_cells,
)
from oracle import oracle_cost

TWO_BLOCKS = LayoutSpec(blocks_x=2, blocks_y=2)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")


def battery(out, sim: SimConfig, name: str, values: list, metric: str) -> dict:
    """Each run's ``metric`` (a ``SUMMARY_METRICS`` column, or the mean of a
    ``metrics.csv`` column) at each of ``values`` of ``sim``'s field ``name``,
    by value in seed order: one sweep over seeds 0-9 with two workers."""
    scenario = Scenario(sim, TWO_BLOCKS, sweep={name: values}, seeds=list(range(10)))
    _, outcomes = execute_sweep(scenario, out, parallel=2)
    assert all(o.ok for o in outcomes)
    columns = [column for column, _ in SUMMARY_METRICS]

    def value(o):
        if metric in columns:
            return o.values[columns.index(metric)]
        run_dir = out / point_label(o.point, sim) / f"seed{o.seed}"
        header, *rows = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()
        at = header.split(",").index(metric)
        # the mean of an integer column: its exact sum over the step count
        return sum(int(row.split(",")[at]) for row in rows) / len(rows)

    return {v: [value(o) for o in outcomes if o.point[name] == v] for v in values}


def test_01_oracle_equivalence():
    """plan(w=1) matches the Dijkstra oracle exactly on 200 random grids."""
    t0 = time.perf_counter()
    rng = random.Random(1234)
    mismatches = 0
    compared = 0
    for _ in range(200):
        grid = random_grid(rng, 15, 15)
        for kind in ("walker", "driver"):
            cells = traversable_cells(grid, kind)
            if len(cells) < 2:
                continue
            start = rng.choice(cells)
            goal = rng.choice(cells)
            if start == goal:
                continue
            for alpha in (0.0, 1.0, 5.0):
                profile = BehaviorProfile(kind=kind, w=1.0, alpha=alpha)
                route = plan(grid, start, goal, profile)
                expected = oracle_cost(grid, start, goal, kind, alpha=alpha)
                if route is None:
                    if expected is not None:
                        mismatches += 1
                else:
                    compared += 1
                    if route.total_cost != expected:
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and compared > 400 and elapsed < 10.0
    report(
        "C1 oracle equivalence",
        ok,
        f"{compared} reachable comparisons, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert compared > 400
    assert elapsed < 10.0


def test_02_bounded_suboptimality():
    """cost(plan(w)) <= w * cost(plan(1)) with alpha = 0."""
    t0 = time.perf_counter()
    rng = random.Random(4321)
    weights = (1.5, 3.0, 5.0, 10.0)
    violations = 0
    instances = 0
    while instances < 100:
        kind = "walker" if instances % 2 == 0 else "driver"
        grid = random_grid(rng, 15, 15)
        cells = traversable_cells(grid, kind)
        if len(cells) < 2:
            continue
        start = rng.choice(cells)
        goal = rng.choice(cells)
        if start == goal:
            continue
        base = plan(grid, start, goal, BehaviorProfile(kind=kind, w=1.0, alpha=0.0))
        if base is None:
            continue
        instances += 1
        for w in weights:
            route = plan(grid, start, goal, BehaviorProfile(kind=kind, w=w, alpha=0.0))
            if route is None or route.total_cost > w * base.total_cost:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(
        "C2 bounded suboptimality",
        ok,
        f"100 instances x {len(weights)} weights, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 10.0


def test_03_jaywalk_weight_trend(tmp_path):
    """Walkers-on-road occupancy strictly increases with w in {1, 3, 5}."""
    t0 = time.perf_counter()
    sim = SimConfig(steps=300, walkers=50, drivers=0, obstruction=0.05)
    runs = battery(tmp_path, sim, "walker_w", [(1, 1), (3, 3), (5, 5)], "walkers_on_road")
    means = {w: statistics.fmean(values) for (w, _), values in runs.items()}
    elapsed = time.perf_counter() - t0
    increasing = means[1] < means[3] < means[5]
    ok = increasing and elapsed < 30.0
    report("C3 jaywalking weight trend", ok,
           f"occupancy {means[1]:.2f} < {means[3]:.2f} < {means[5]:.2f}, {elapsed:.1f}s")
    assert increasing
    assert elapsed < 30.0


def test_04_obstruction_sensitivity(tmp_path):
    """At w=3, 5% obstruction at least doubles jaywalk occupancy over 0%."""
    t0 = time.perf_counter()
    sim = SimConfig(steps=300, walkers=50, drivers=0, walker_w=(3, 3))
    runs = battery(tmp_path, sim, "obstruction", [0.0, 0.05, 0.10], "walkers_on_road")
    occupancy = {fraction: statistics.fmean(values) for fraction, values in runs.items()}
    elapsed = time.perf_counter() - t0
    doubled = occupancy[0.05] >= 2 * occupancy[0.0] and occupancy[0.05] > 0
    monotone = occupancy[0.10] >= occupancy[0.05]
    ok = doubled and monotone and elapsed < 60.0
    report("C4 obstruction sensitivity", ok,
           f"occupancy 0%={occupancy[0.0]:.2f} 5%={occupancy[0.05]:.2f} "
           f"10%={occupancy[0.10]:.2f}, {elapsed:.1f}s")
    assert doubled
    assert monotone
    assert elapsed < 60.0


def test_05_runover_density_trend(tmp_path):
    """Total runovers grow with driver count (positive rank correlation)."""
    t0 = time.perf_counter()
    sim = SimConfig(steps=300, walkers=50, obstruction=0.05, walker_w=(3, 3))
    runs = battery(tmp_path, sim, "drivers", [10, 30, 50], "runovers")
    pairs = [(drivers, total) for drivers, totals in runs.items() for total in totals]
    means = {drivers: statistics.fmean(totals) for drivers, totals in runs.items()}
    elapsed = time.perf_counter() - t0
    nondecreasing = means[10] <= means[30] <= means[50]
    rho = stats.spearmanr([p[0] for p in pairs], [p[1] for p in pairs]).statistic
    ok = nondecreasing and rho > 0 and elapsed < 120.0
    report("C5 runover density trend", ok,
           f"means {means[10]:.1f}/{means[30]:.1f}/{means[50]:.1f}, "
           f"spearman {rho:.2f}, {elapsed:.1f}s")
    assert nondecreasing
    assert rho > 0
    assert elapsed < 120.0


def test_06_speed_density_trend(tmp_path):
    """Mean driver speed strictly decreases as driver count grows."""
    t0 = time.perf_counter()
    runs = battery(tmp_path, SimConfig(steps=300, walkers=0), "drivers", [10, 30, 50, 70],
                   "mean_driver_speed")
    ordered = [statistics.fmean(speeds) for speeds in runs.values()]
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    ok = decreasing and elapsed < 120.0
    report("C6 speed density trend", ok,
           "speeds " + "/".join(f"{s:.3f}" for s in ordered) + f", {elapsed:.1f}s")
    assert decreasing
    assert elapsed < 120.0


def test_07_collision_geometry_boundaries():
    """Collision thresholds are exact: vv 0.8, walker-driver 0.45, ww never."""
    eps = 1e-9
    failures = []

    def outcome(kind_a, kind_b, distance):
        agents = population([
            make_agent(1, kind_a, (0.0, 0.0), None),
            make_agent(2, kind_b, (distance, 0.0), None),
        ])
        return len(detect_collisions(agents))

    cases = []
    for threshold, kinds in ((0.8, ("driver", "driver")), (0.45, ("walker", "driver")),
                             (0.45, ("driver", "walker"))):
        cases.append((kinds, threshold - eps, 1))
        cases.append((kinds, threshold, 0))
        cases.append((kinds, threshold + eps, 0))
    for distance in (0.0, 0.04, 0.45 - eps, 0.8 - eps):
        cases.append((("walker", "walker"), distance, 0))

    for kinds, distance, expected in cases:
        got = outcome(kinds[0], kinds[1], distance)
        if got != expected:
            failures.append((kinds, distance, expected, got))
    ok = not failures
    report("C7 collision geometry boundaries", ok, f"{len(cases)} boundary cases")
    assert not failures, failures


def test_08_sweep_determinism(tmp_path):
    """Two executions of the mini-sweep produce byte-identical outputs."""
    t0 = time.perf_counter()
    doc = {
        "steps": 100,
        "layout": {"blocks_x": 2, "blocks_y": 2},
        "profiles": {"walker": {"w": [1, 3]}, "driver": {"w": [1, 5]}},
        "sweep": {
            "walkers": [0, 10, 20],
            "drivers": [0, 10, 20],
            "obstruction": [0.0, 0.05],
        },
        "seeds": [7],
    }
    config = tmp_path / "mini.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    scenario = load_config(config)

    digests = []
    for label in ("a", "b"):
        out = tmp_path / label
        points, outcomes = execute_sweep(scenario, out)
        assert len(points) == 18 and all(o.ok for o in outcomes)
        bundle = {}
        for path in sorted(out.rglob("*.csv")):
            bundle[str(path.relative_to(out))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
        digests.append(bundle)
    elapsed = time.perf_counter() - t0
    identical = digests[0] == digests[1]
    ok = identical and len(digests[0]) == 18 * 6 + 1
    report(
        "C8 sweep determinism",
        ok,
        f"{len(digests[0])} files byte-compared, {elapsed:.1f}s",
    )
    assert identical
    assert len(digests[0]) == 18 * 6 + 1  # per-run CSVs plus summary.csv


def test_09_conservation_invariants():
    """Occupancy increments equal active counts; the population changes by
    each step's spawns, less its goals and its expired collisions."""
    grid = generate_layout(TWO_BLOCKS)
    cfg = SimConfig(
        steps=200, walkers=15, drivers=10, obstruction=0.05, walker_w=(1, 3),
        driver_w=(1, 5), seed=77,
    )
    world = World(grid, cfg)
    violations = 0
    for _ in range(200):
        walkers_before = world.heatmaps.walker_occupancy.sum()
        drivers_before = world.heatmaps.driver_occupancy.sum()
        record, change, counted = step_counted(world)
        frame = record.frame
        if world.heatmaps.walker_occupancy.sum() - walkers_before != frame.active_walkers:
            violations += 1
        if world.heatmaps.driver_occupancy.sum() - drivers_before != frame.active_drivers:
            violations += 1
        if change != counted:
            violations += 1
    ok = violations == 0
    report("C9 conservation invariants", ok, "200 steps, exact")
    assert violations == 0


def test_10_heatmap_layer_semantics():
    """Obstructed blocks show depressed driver speeds; jaywalk stays on road."""
    t0 = time.perf_counter()
    spec = LayoutSpec(blocks_x=3, blocks_y=3)
    grid = generate_layout(spec)
    sw = 2 * spec.lanes_per_direction
    pitch = spec.block_side + sw

    def block_ring(i, j):
        x0, y0 = sw + i * pitch, sw + j * pitch
        return [
            (x, y)
            for x in range(x0, x0 + spec.block_side)
            for y in range(y0, y0 + spec.block_side)
            if ground_of(grid, (x, y)) is GroundType.SIDEWALK
        ]

    obstructed_blocks = [(0, 1), (1, 1)]
    rng = random.Random(99)
    overlay = set()
    for block in obstructed_blocks:
        ring = block_ring(*block)
        overlay |= set(rng.sample(ring, round(0.4 * len(ring))))
    scene = grid.with_obstacles(overlay)

    def neighborhood(i, j):
        x0, y0 = i * pitch, j * pitch
        return {
            (x, y)
            for x in range(x0, min(x0 + spec.block_side + 2 * sw, grid.width))
            for y in range(y0, min(y0 + spec.block_side + 2 * sw, grid.height))
        }

    obstructed_region = set()
    for block in obstructed_blocks:
        obstructed_region |= neighborhood(*block)
    clear_region = set()
    for i in range(spec.blocks_x):
        for j in range(spec.blocks_y):
            if (i, j) not in obstructed_blocks:
                clear_region |= neighborhood(i, j)
    clear_region -= obstructed_region

    sums = {"obstructed": 0.0, "clear": 0.0}
    counts = {"obstructed": 0, "clear": 0}
    jaywalk_clean = True
    for seed in range(5):
        cfg = SimConfig(
            steps=300, walkers=100, drivers=50, walker_w=(1, 3), driver_w=(1, 5),
            seed=seed,
        )
        result = run(cfg, scene)
        speed_sum = result.heatmaps.driver_speed_sum
        occupancy = result.heatmaps.driver_occupancy
        for x, y in obstructed_region:
            sums["obstructed"] += speed_sum[y, x]
            counts["obstructed"] += occupancy[y, x]
        for x, y in clear_region:
            sums["clear"] += speed_sum[y, x]
            counts["clear"] += occupancy[y, x]
        jay = result.heatmaps.jaywalk
        for y in range(grid.height):
            for x in range(grid.width):
                if jay[y, x] and ground_of(scene, (x, y)) not in ROAD_FAMILY:
                    jaywalk_clean = False
    obstructed_mean = sums["obstructed"] / counts["obstructed"]
    clear_mean = sums["clear"] / counts["clear"]
    elapsed = time.perf_counter() - t0
    slower = obstructed_mean < clear_mean
    ok = slower and jaywalk_clean and elapsed < 180.0
    report(
        "C10 heatmap layer semantics",
        ok,
        f"speed {obstructed_mean:.3f} vs {clear_mean:.3f}, "
        f"jaywalk on road-family only: {jaywalk_clean}, {elapsed:.1f}s",
    )
    assert jaywalk_clean
    assert slower
    assert elapsed < 180.0
