"""Per-step performance indicators, per-cell heatmap layers, CSV export.

Jaywalking is tracked two ways: entry events (a walker's cell switching from
non-road to road ground this step) and occupancy (walkers currently on road
ground).  Road ground for this purpose is road, turn, left-turn and pothole
cells; zebras and parking lots are lawful pedestrian area.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .agents import Population, Status, floor_cells
from .environment import GridMap, ROAD_FAMILY

EVENT_COLUMNS = ("step", "event_type", "agent_a", "agent_b", "x", "y")


@dataclass(frozen=True, slots=True)
class MetricsFrame:
    """One step's aggregate indicators."""

    step: int
    active_walkers: int
    active_drivers: int
    mean_driver_speed: float | None  # absent (None) when no driver is active
    jaywalk_entries: int
    walkers_on_road: int
    collisions_vv: int
    runovers: int


#: The ``metrics.csv`` columns: one per ``MetricsFrame`` field, in field order.
METRICS_COLUMNS = tuple(f.name for f in fields(MetricsFrame))


@dataclass
class HeatmapSet:
    """Per-cell ``[y, x]`` accumulators over active agent-steps.

    The driver-speed mean is ``driver_speed_sum / driver_occupancy``, since
    both tables gain one sample per active driver per step.
    """

    driver_occupancy: np.ndarray
    driver_speed_sum: np.ndarray
    walker_occupancy: np.ndarray
    jaywalk: np.ndarray

    @classmethod
    def create(cls, grid: GridMap) -> "HeatmapSet":
        shape = (grid.height, grid.width)
        return cls(
            driver_occupancy=np.zeros(shape, dtype=np.int64),
            driver_speed_sum=np.zeros(shape, dtype=np.float64),
            walker_occupancy=np.zeros(shape, dtype=np.int64),
            jaywalk=np.zeros(shape, dtype=np.int64),
        )


def build_frame(
    step, pop: Population, pre_ids, pre_flat, events, grid, heatmaps: HeatmapSet
) -> tuple[MetricsFrame, list[int]]:
    """Aggregate one step and add its active-agent occupancy and speed samples
    to ``heatmaps``; also returns the ids of walkers that entered road ground,
    ``grid.ground_mask(*ROAD_FAMILY)``, this step (``World`` logs them).

    ``pre_ids`` and ``pre_flat`` are the ids and flat floor cells of the
    pre-step rows; an agent absent from them (spawned this step) enters
    nothing.  The post-step cells are floored from ``pop.x`` and ``pop.y``.
    Samples are added in row order, and the driver speeds are summed left to
    right in row order, so every float sum is that of a per-agent loop.
    """
    active = pop.status == Status.ACTIVE.value
    cells = floor_cells(pop.x[active], pop.y[active], grid.width)
    driving = pop.driver[active]
    driver_cells, walker_cells = cells[driving], cells[~driving]
    speeds = pop.speed[active][driving]
    np.add.at(heatmaps.driver_occupancy.reshape(-1), driver_cells, 1)
    np.add.at(heatmaps.driver_speed_sum.reshape(-1), driver_cells, speeds)
    np.add.at(heatmaps.walker_occupancy.reshape(-1), walker_cells, 1)
    road = grid.ground_mask(*ROAD_FAMILY)
    on_road = road[walker_cells]
    np.add.at(heatmaps.jaywalk.reshape(-1), walker_cells[on_road], 1)
    # a walker on road ground entered it when its pre-step cell was not road
    ids = pop.id[active][~driving][on_road]
    at = np.searchsorted(pre_ids, ids)
    known = np.append(pre_ids, -1)[at] == ids
    entered = known & ~road[np.append(pre_flat, 0)[at]]
    entries = ids[entered].tolist()
    active_drivers = len(speeds)
    collisions_vv = sum(1 for e in events if e.kind == "collision_vv")
    runovers = sum(1 for e in events if e.kind == "runover")
    frame = MetricsFrame(
        step=step,
        active_walkers=len(walker_cells),
        active_drivers=active_drivers,
        mean_driver_speed=(
            float(np.add.accumulate(speeds)[-1]) / active_drivers if active_drivers else None
        ),
        jaywalk_entries=len(entries),
        walkers_on_road=len(ids),
        collisions_vv=collisions_vv,
        runovers=runovers,
    )
    return frame, entries


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_metrics_csv(frames) -> str:
    row = attrgetter(*METRICS_COLUMNS)
    lines = [",".join(METRICS_COLUMNS)]
    for f in frames:
        lines.append(",".join(_fmt(v) for v in row(f)))
    return "\n".join(lines) + "\n"


def render_events_csv(events) -> str:
    lines = [",".join(EVENT_COLUMNS)]
    for e in events:
        a = e.agents[0] if len(e.agents) > 0 else ""
        b = e.agents[1] if len(e.agents) > 1 else ""
        lines.append(f"{e.step},{e.kind},{a},{b},{_fmt(e.x)},{_fmt(e.y)}")
    return "\n".join(lines) + "\n"


def render_heatmap_csv(table: np.ndarray) -> str:
    """One ``x,y,value`` row per cell of a ``[y, x]`` table: integer tables
    print as integers, float tables as the ``repr`` of each float."""
    fmt = repr if table.dtype.kind == "f" else str
    lines = ["x,y,value"]
    for y, row in enumerate(table.tolist()):
        for x, value in enumerate(row):
            lines.append(f"{x},{y},{fmt(value)}")
    return "\n".join(lines) + "\n"


def export_run(result, out_dir) -> list[Path]:
    """Write metrics.csv, events.csv and one heatmap CSV per layer.

    Output bytes are a pure function of the result, so re-exporting the same
    run reproduces identical files.  A directory or file that cannot be
    written raises pathlib's OSError unchanged; it names the path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, content: str) -> None:
        path = out / name
        path.write_text(content, encoding="utf-8", newline="\n")
        paths.append(path)

    write("metrics.csv", render_metrics_csv(result.frames))
    write("events.csv", render_events_csv(result.events))
    heat = result.heatmaps
    occupancy = heat.driver_occupancy
    speed_mean = np.divide(
        heat.driver_speed_sum, occupancy,
        out=np.zeros(occupancy.shape), where=occupancy > 0,
    )
    for kind, table in (
        ("driver_occupancy", occupancy),
        ("driver_speed", speed_mean),
        ("walker_occupancy", heat.walker_occupancy),
        ("jaywalk", heat.jaywalk),
    ):
        write(f"heatmap_{kind}.csv", render_heatmap_csv(table))
    return paths
