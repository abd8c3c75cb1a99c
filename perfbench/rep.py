"""One execution of a benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload city --seeds 7,8 --out DIR
                             [--workers N] [--last-point] [--trace]

Runs the workload for the given seeds as one sweep through gridcity's
command-line layer (``execute_sweep``; one worker runs in-process), checks the
CSVs of every run, and prints one JSON object as its last line of standard
output.  Without ``--trace`` only the spans that
the end-to-end metrics need are recorded (one per run, grid build, world
construction and step); with it every layer boundary is recorded and the
per-layer metrics are added.  Exits 1 when an output check fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gridcity import LayoutSpec, SimConfig  # noqa: E402
from gridcity import cli  # noqa: E402
from gridcity.agents import Status  # noqa: E402

import layers  # noqa: E402
from probes import Tracer  # noqa: E402

# The paper's sweep axes, cut to two or three points each.
SWEEP_AXES = {"walkers": [0, 100, 200], "drivers": [20, 100], "obstruction": [0.0, 0.10]}

CSV_FILES = (
    "metrics.csv",
    "events.csv",
    "heatmap_driver_occupancy.csv",
    "heatmap_driver_speed.csv",
    "heatmap_walker_occupancy.csv",
    "heatmap_jaywalk.csv",
)

# (span name, module, attribute alternatives).  The end-to-end metrics need
# only these four, so they are recorded in every execution.
E2E_PROBES = (
    ("cli.execute_run", "gridcity.cli", ("execute_run",)),
    ("cli.build_grid", "gridcity.cli", ("build_grid",)),
    ("engine.World.__init__", "gridcity.engine", ("World.__init__",)),
    ("engine.step", "gridcity.engine", ("World.step",)),
)
# Layer boundaries, recorded only in traced executions.  The engine binds
# these names at import, so the probes go on the attributes it calls through.
LAYER_PROBES = (
    ("engine.run", "gridcity.cli", ("run",)),
    ("environment.generate_layout", "gridcity.cli", ("generate_layout",)),
    ("metrics.export_run", "gridcity.cli", ("export_run",)),
    ("environment.place_obstacles", "gridcity.engine", ("place_obstacles",)),
    ("agents.view_of", "gridcity.engine", ("view_of",)),
    ("agents.sense", "gridcity.engine", ("sense",)),
    ("agents.react_walker", "gridcity.engine", ("react_walker",)),
    ("agents.react_driver", "gridcity.engine", ("react_driver",)),
    ("agents.act", "gridcity.engine", ("act",)),
    ("planner.plan", "gridcity.engine", ("plan",)),
    ("planner.replan", "gridcity.agents", ("replan", "plan")),
    ("engine.detect_collisions", "gridcity.engine", ("detect_collisions",)),
    ("metrics.build_frame", "gridcity.metrics", ("build_frame",)),
    ("metrics.accumulate_heatmaps", "gridcity.metrics", ("accumulate_heatmaps",)),
)


def scenario(workload: str, seeds: list[int], last_point: bool = False) -> cli.Scenario:
    """The workload's inputs: one run per sweep point and seed, or only the
    last (heaviest) sweep point."""
    if workload == "city":
        sim = SimConfig(steps=300, walkers=200, drivers=100, obstruction=0.05,
                        walker_w=(1, 3), driver_w=(1, 5))
        layout, sweep = LayoutSpec(blocks_x=5, blocks_y=5), {}
    elif workload == "jam":
        # the densest point of the speed-density acceptance regime (C6)
        sim = SimConfig(steps=300, walkers=0, drivers=70)
        layout, sweep = LayoutSpec(blocks_x=2, blocks_y=2), {}
    elif workload == "sweep":
        sim = SimConfig(steps=100, walker_w=(1, 3), driver_w=(1, 5))
        layout, sweep = LayoutSpec(blocks_x=5, blocks_y=5), SWEEP_AXES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if last_point:
        sweep = {axis: values[-1:] for axis, values in sweep.items()}
    return cli.Scenario(sim=sim, layout=layout, grid_path=None, obstacles_path=None,
                        sweep=dict(sweep), seeds=list(seeds))


def install(tracer: Tracer, traced: bool) -> list[str]:
    """Wrap the probe points; returns the names of layer probes not found."""
    observers = layers.observers(Status) if traced else {}
    missing = []
    for name, module, attrs in E2E_PROBES + (LAYER_PROBES if traced else ()):
        if not any(tracer.wrap(module, a, name, observers.get(name)) for a in attrs):
            if (name, module, attrs) in E2E_PROBES:
                raise RuntimeError(f"{module}.{attrs[0]} is missing")
            missing.append(name)
    return missing


def check_run(run_dir: Path, sim: SimConfig, walkers: int, drivers: int,
              events: dict) -> tuple[str | None, list[str]]:
    """Check one run's CSVs; returns the run's digest (None when a check
    failed) and the failed checks."""
    present = sorted(p.name for p in run_dir.glob("*.csv"))
    if present != sorted(CSV_FILES) or (run_dir / "error.txt").exists():
        return None, [f"files {present}"]
    text = {name: (run_dir / name).read_text(encoding="utf-8") for name in CSV_FILES}
    rows = [line.split(",") for line in text["metrics.csv"].splitlines()[1:]]
    if [int(r[0]) for r in rows] != list(range(1, sim.steps + 1)):
        return None, [f"metrics.csv has {len(rows)} rows, not one per step"]
    errors = []
    if any(int(r[1]) > walkers or int(r[2]) > drivers for r in rows):
        errors.append("active population above its target")

    def heat_total(name: str) -> int:
        lines = text[f"heatmap_{name}.csv"].splitlines()[1:]
        return sum(int(line.rsplit(",", 1)[1]) for line in lines)

    # every active agent-step lands in exactly one occupancy cell
    if heat_total("walker_occupancy") != sum(int(r[1]) for r in rows):
        errors.append("walker occupancy != active walker-steps")
    if heat_total("driver_occupancy") != sum(int(r[2]) for r in rows):
        errors.append("driver occupancy != active driver-steps")
    for line in text["events.csv"].splitlines()[1:]:
        kind = line.split(",", 2)[1]
        if kind not in events:
            errors.append(f"unknown event kind {kind!r}")
            break
        events[kind] += 1
    digest = hashlib.sha256()
    for name in CSV_FILES:
        digest.update(f"{name}:{hashlib.sha256(text[name].encode()).hexdigest()}\n".encode())
    return (None if errors else digest.hexdigest()), errors


def execute(workload: str, seeds: list[int], out: Path, workers: int,
            last_point: bool, traced: bool) -> dict:
    spool = out / "spool"
    spool.mkdir(parents=True)
    tracer = Tracer(spool)
    missing = install(tracer, traced)
    scen = scenario(workload, seeds, last_point)
    runs_dir = out / "runs"
    t0 = perf_counter()
    points, outcomes = cli.execute_sweep(scen, runs_dir, parallel=workers)
    wall_s = perf_counter() - t0
    tracer.uninstall()
    tracer.merge_spool()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    errors = [f"run failed: {o.point} seed {o.seed}: {o.error}" for o in outcomes if not o.ok]
    events = dict.fromkeys(layers.EVENT_KINDS, 0)
    digests: dict[str, str | None] = {}
    sim = scen.sim
    for point in points:
        for seed in seeds:
            run = f"{cli.point_label(point, sim)}/seed{seed}"
            digests[run], problems = check_run(
                runs_dir / run, sim, point.get("walkers", sim.walkers),
                point.get("drivers", sim.drivers), events,
            )
            errors += [f"{run}: {problem}" for problem in problems]
    summary = (runs_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    if len(summary) != len(points) + 1:
        errors.append(f"summary.csv has {len(summary) - 1} rows for {len(points)} points")

    groups = tracer.by_name()
    span_s = {name: [tracer.end[i] - tracer.start[i] for i in spans]
              for name, spans in groups.items()}
    run_spans = groups.get("cli.execute_run", [])
    setup = {i: 0.0 for i in run_spans}
    for name in ("cli.build_grid", "engine.World.__init__"):
        for i in groups.get(name, []):
            setup[tracer.ancestor_named(i, "cli.execute_run")] += tracer.end[i] - tracer.start[i]
    runs = len(digests)
    if len(run_spans) != runs or len(span_s["engine.step"]) != runs * sim.steps:
        errors.append(f"recorded {len(run_spans)} runs and {len(span_s['engine.step'])} "
                      f"steps for {runs} runs of {sim.steps} steps")
    result = {
        "workload": workload,
        "seeds": seeds,
        "traced": traced,
        "errors": errors,
        "digests": digests,
        "runs": runs,
        "failed_runs": sum(d is None for d in digests.values()),
        "wall_s": wall_s,
        "run_s": span_s["cli.execute_run"],
        "setup_s": [setup[i] for i in run_spans],
        "step_s": span_s["engine.step"],
        "peak_rss_mb": rss_kb / 1024,
    }
    if traced:
        metrics, problems = layers.compute(tracer, runs, events)
        result["layers"] = metrics
        result["missing_probes"] = missing
        errors += problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated simulation seeds")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workers", type=int, default=1, help="sweep pool size")
    parser.add_argument("--last-point", action="store_true",
                        help="run only the last point of the workload's sweep")
    parser.add_argument("--trace", action="store_true", help="record every layer (one worker)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.trace and args.workers != 1:
        parser.error("--trace records spans in-process and needs --workers 1")
    result = execute(args.workload, seeds, args.out, args.workers, args.last_point, args.trace)
    print(json.dumps(result))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
