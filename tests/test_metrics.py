import hashlib
import tracemalloc

import numpy as np
import pytest

from gridcity.agents import Status
from gridcity.engine import Event, SimConfig, SimulationResult, World, run
from gridcity.environment import LayoutSpec, ROAD_FAMILY, generate_layout
from gridcity.metrics import (
    HeatmapSet,
    MetricsFrame,
    build_frame,
    export_run,
    render_events_csv,
    render_heatmap_csv,
    render_metrics_csv,
)
from helpers import grid_of, ground_of, make_agent, population


# -- frame aggregation ----------------------------------------------------------


def frame_for(grid, agents, pre_cells, events=(), heatmaps=None):
    """``build_frame`` over the agents, with pre-step cells by id."""
    heatmaps = heatmaps or HeatmapSet.create(grid)
    pre_ids = sorted(pre_cells)
    pre_flat = [pre_cells[i][1] * grid.width + pre_cells[i][0] for i in pre_ids]
    return build_frame(
        1, population(agents), np.array(pre_ids, dtype=np.int64),
        np.array(pre_flat, dtype=np.int64), list(events), grid, heatmaps,
    )


def test_sidewalk_to_road_counts_one_entry():
    grid = grid_of("s-- rN- rN-")
    walker = make_agent(1, "walker", (1.5, 0.5), None)
    frame, entries = frame_for(grid, [walker], {1: (0, 0)})
    assert frame.jaywalk_entries == 1
    assert frame.walkers_on_road == 1
    assert entries == [1]


def test_staying_on_road_counts_occupancy_not_entry():
    grid = grid_of("s-- rN- rN-")
    walker = make_agent(1, "walker", (2.5, 0.5), None)
    frame, entries = frame_for(grid, [walker], {1: (1, 0)})
    assert frame.jaywalk_entries == 0
    assert frame.walkers_on_road == 1
    assert entries == []


def test_zebra_is_not_jaywalking():
    grid = grid_of("s-- zN- rN-")
    walker = make_agent(1, "walker", (1.5, 0.5), None)
    frame, _ = frame_for(grid, [walker], {1: (0, 0)})
    assert frame.jaywalk_entries == 0
    assert frame.walkers_on_road == 0


def test_mean_speed_absent_without_active_drivers():
    grid = grid_of("s-- rN-")
    walker = make_agent(1, "walker", (0.5, 0.5), None)
    parked = make_agent(2, "driver", (1.5, 0.5), None, status=Status.PARKED)
    frame, _ = frame_for(grid, [walker, parked], {1: (0, 0)})
    assert frame.mean_driver_speed is None
    assert frame.active_drivers == 0


def test_collision_counts_copied_from_events():
    grid = grid_of("rN- rN-")
    events = [
        Event(1, "collision_vv", (1, 2), 0.0, 0.0),
        Event(1, "runover", (3, 4), 0.0, 0.0),
        Event(1, "spawn", (5,), 0.0, 0.0),
    ]
    frame, _ = frame_for(grid, [], {}, events)
    assert frame.collisions_vv == 1
    assert frame.runovers == 1


# -- heatmap accumulation ----------------------------------------------------------


def test_stationary_driver_accumulates_speed_mean():
    grid = grid_of("rE- rE-")
    heat = HeatmapSet.create(grid)
    driver = make_agent(1, "driver", (0.5, 0.5), None, speed=1.5)
    for _ in range(10):
        frame_for(grid, [driver], {1: (0, 0)}, heatmaps=heat)
    assert heat.driver_occupancy[0, 0] == 10
    assert heat.driver_speed_sum[0, 0] / heat.driver_occupancy[0, 0] == 1.5
    assert heat.driver_occupancy[0, 1] == 0


def test_speed_mean_is_exact_over_mixed_samples():
    grid = grid_of("rE-")
    heat = HeatmapSet.create(grid)
    driver = make_agent(1, "driver", (0.5, 0.5), None, speed=1.0)
    frame_for(grid, [driver], {1: (0, 0)}, heatmaps=heat)
    driver.speed = 2.0
    frame_for(grid, [driver], {1: (0, 0)}, heatmaps=heat)
    assert heat.driver_speed_sum[0, 0] / heat.driver_occupancy[0, 0] == 1.5


def test_occupancy_conservation_and_jaywalk_consistency():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    cfg = SimConfig(steps=50, walkers=12, drivers=6, obstruction=0.05,
                    walker_w=(3, 3), seed=17)
    world = World(grid, cfg)
    for _ in range(50):
        walkers_before = world.heatmaps.walker_occupancy.sum()
        drivers_before = world.heatmaps.driver_occupancy.sum()
        jaywalk_before = world.heatmaps.jaywalk.sum()
        record = world.step()
        assert (
            world.heatmaps.walker_occupancy.sum() - walkers_before
            == record.frame.active_walkers
        )
        assert (
            world.heatmaps.driver_occupancy.sum() - drivers_before
            == record.frame.active_drivers
        )
        assert (
            world.heatmaps.jaywalk.sum() - jaywalk_before
            == record.frame.walkers_on_road
        )


def test_jaywalk_layer_nonzero_only_on_road_family():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    cfg = SimConfig(steps=80, walkers=15, obstruction=0.1, walker_w=(4, 4), seed=23)
    result = run(cfg, grid)
    layer = result.heatmaps.jaywalk
    assert layer.sum() > 0
    for y in range(grid.height):
        for x in range(grid.width):
            if layer[y, x]:
                assert ground_of(grid, (x, y)) in ROAD_FAMILY


def test_heatmap_set_tables_have_grid_shape():
    grid = grid_of("rE- rE- rE-", "rE- rE- rE-")
    heat = HeatmapSet.create(grid)
    tables = (heat.driver_occupancy, heat.driver_speed_sum, heat.walker_occupancy,
              heat.jaywalk)
    for table in tables:
        assert table.shape == (2, 3)
        assert not table.any()


def test_monotone_accumulators():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    cfg = SimConfig(steps=30, walkers=5, drivers=3, seed=2)
    world = World(grid, cfg)
    kinds = ("driver_occupancy", "driver_speed_sum", "walker_occupancy", "jaywalk")
    last = dict.fromkeys(kinds, 0.0)
    for _ in range(30):
        world.step()
        for kind in kinds:
            total = getattr(world.heatmaps, kind).sum()
            assert total >= last[kind]
            last[kind] = total


# -- export -----------------------------------------------------------------------


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_export_row_counts_and_stability(tmp_path):
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    cfg = SimConfig(steps=25, walkers=4, drivers=2, seed=8)
    result = run(cfg, grid)
    first = export_run(result, tmp_path / "a")
    metrics_lines = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
    assert len(metrics_lines) == 26  # header + one row per step
    assert metrics_lines[0].startswith("step,active_walkers,active_drivers,")
    names = sorted(p.name for p in first)
    assert names == [
        "events.csv",
        "heatmap_driver_occupancy.csv",
        "heatmap_driver_speed.csv",
        "heatmap_jaywalk.csv",
        "heatmap_walker_occupancy.csv",
        "metrics.csv",
    ]
    second = export_run(result, tmp_path / "b")
    for p1, p2 in zip(first, second):
        assert digest(p1) == digest(p2)


def test_export_empty_run_has_zero_heatmaps(tmp_path):
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    result = run(SimConfig(steps=5, seed=1), grid)
    export_run(result, tmp_path)
    for name in ("heatmap_walker_occupancy.csv", "heatmap_driver_occupancy.csv"):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert all(row.endswith(",0") or row.endswith(",0.0") for row in rows)


def test_export_unwritable_path_names_target(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    result = run(SimConfig(steps=2, seed=1), grid)
    with pytest.raises(OSError, match="taken"):
        export_run(result, blocker / "out")


def test_mean_speed_none_written_as_empty_field(tmp_path):
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    result = run(SimConfig(steps=3, walkers=2, seed=1), grid)
    lines = export_run(result, tmp_path)[0].read_text().splitlines()
    # mean_driver_speed column stays empty when no driver is active
    assert lines[1].split(",")[3] == ""


def test_export_holds_one_grid_row_at_a_time(tmp_path):
    # a 289x289 map, whose heatmap CSVs built whole peak at over 11 MB
    grid = generate_layout(LayoutSpec(blocks_x=15, blocks_y=15))
    assert (grid.width, grid.height) == (289, 289)
    heat = HeatmapSet.create(grid)
    rng = np.random.default_rng(1)
    shape = heat.driver_occupancy.shape
    heat.driver_occupancy[:] = rng.integers(0, 400, shape)
    heat.driver_speed_sum[:] = heat.driver_occupancy * rng.random(shape)
    heat.walker_occupancy[:] = rng.integers(0, 400, shape)
    heat.jaywalk[:] = rng.integers(0, 40, shape)
    frames = [MetricsFrame(t, 200, 100, t / 7 if t % 5 else None, 1, 3, 0, t % 2)
              for t in range(1000)]
    events = [Event(t // 3, "replan", (t,), t / 9, 0.5) for t in range(3500)]
    result = SimulationResult(SimConfig(), frames, events, heat)
    tracemalloc.start()
    try:
        paths = export_run(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
    mean = np.divide(heat.driver_speed_sum, heat.driver_occupancy,
                     out=np.zeros(shape), where=heat.driver_occupancy > 0)
    texts = [render_metrics_csv(frames), render_events_csv(events)] + [
        render_heatmap_csv(table)
        for table in (heat.driver_occupancy, mean, heat.walker_occupancy, heat.jaywalk)
    ]
    assert [p.name for p in paths][:2] == ["metrics.csv", "events.csv"]
    for path, chunks in zip(paths, texts, strict=True):
        assert path.read_text(encoding="utf-8") == "".join(chunks), path.name
