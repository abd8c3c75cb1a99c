"""The ``gridcity`` command line: ``run``, ``sweep``, ``gen-map`` and
``plan-debug`` over the scenarios and runs of ``gridcity.cli``.

A command's errors reach their exit status through the group's one handler:
a ``ValueError`` (a configuration error) exits with status 2 and an ``OSError``
(an output path that cannot be written) with status 1.  A failed run, a sweep
with a failed run and a ``plan-debug`` with no route also exit with status 1.
"""
from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import click

from .cli import (
    ConfigError,
    build_grid,
    execute_run,
    execute_sweep,
    load_config,
    point_label,
)
from .environment import (
    LayoutSpec,
    generate_layout,
    parse_grid,
    place_obstacles,
    serialize_grid,
    serialize_obstacle_list,
)
from .planner import BehaviorProfile, plan as plan_route


class _Commands(click.Group):
    """The ``gridcity`` group: a command's ``ValueError`` exits 2 as a
    configuration error, its ``OSError`` exits 1 as a failure."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            click.echo(f"config error: {exc}", err=True)
            ctx.exit(2)
        except OSError as exc:
            click.echo(f"{ctx.invoked_subcommand} failed: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Commands)
def main():
    """Deterministic urban mobility simulator on a grid-encoded city."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--steps", type=click.IntRange(min=1), default=None,
              help="Override the step count.")
@click.option("--out", "out_dir", type=click.Path(), default="out", show_default=True)
def run_command(config_path, seed, steps, out_dir):
    """Execute a single scenario and write metrics, events and heatmaps."""
    scenario = load_config(config_path)
    given = {name: value for name, value in (("seed", seed), ("steps", steps))
             if value is not None}
    scenario = dataclasses.replace(scenario, sim=dataclasses.replace(scenario.sim, **given))
    try:
        result = execute_run(scenario, out_dir)
    except Exception as exc:  # noqa: BLE001
        click.echo(f"run failed: {exc}", err=True)
        sys.exit(1)
    click.echo(
        f"completed {result.config.steps} steps; "
        f"jaywalk entries {result.total_jaywalk_entries}, "
        f"collisions {result.total_collisions_vv}, runovers {result.total_runovers}"
    )
    for warning in result.warnings[:5]:
        click.echo(f"warning: {warning}", err=True)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seeds", "seeds_csv", default=None, help="Comma-separated seed list.")
@click.option("--steps", type=click.IntRange(min=1), default=None,
              help="Override the step count.")
@click.option("--out", "out_dir", type=click.Path(), default="sweep_out", show_default=True)
@click.option("--parallel", type=click.IntRange(min=1), default=1, show_default=True)
def sweep_command(config_path, seeds_csv, steps, out_dir, parallel):
    """Execute the scenario's sweep grid across seeds and summarize."""
    scenario = load_config(config_path)
    if seeds_csv is not None:
        try:
            seeds = [int(s) for s in seeds_csv.split(",") if s.strip()]
        except ValueError:
            raise ConfigError("--seeds must be comma-separated integers") from None
        if not seeds:  # a scenario reads no seeds as its own sim.seed
            raise ConfigError("--seeds must name at least one seed")
        try:
            scenario = dataclasses.replace(scenario, seeds=seeds)
        except ConfigError as exc:  # the only value changed: the seeds
            raise ConfigError(f"--{exc}") from None
    if steps is not None:
        scenario = dataclasses.replace(scenario,
                                       sim=dataclasses.replace(scenario.sim, steps=steps))
    points, outcomes = execute_sweep(scenario, out_dir, parallel=parallel)
    failures = [o for o in outcomes if not o.ok]
    click.echo(
        f"{len(points)} sweep points, {len(outcomes)} runs, {len(failures)} failed"
    )
    for failure in failures:
        click.echo(
            f"failed: {point_label(failure.point, scenario.sim)} seed {failure.seed}: "
            f"{failure.error}",
            err=True,
        )
    if failures:
        sys.exit(1)


@main.command("gen-map")
@click.option("--blocks-x", type=int, required=True)
@click.option("--blocks-y", type=int, required=True)
@click.option("--block-side", type=int, default=LayoutSpec.block_side, show_default=True)
@click.option("--lanes", type=int, default=LayoutSpec.lanes_per_direction, show_default=True)
@click.option("--obstruction", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def gen_map_command(blocks_x, blocks_y, block_side, lanes, obstruction, seed, out_path):
    """Generate a block layout and write it as a grid file.

    ``--obstruction`` obstructs that fraction of the sidewalk cells, drawn with
    ``--seed``; the obstacles go to a ``.obstacles`` sidecar file.
    """
    spec = LayoutSpec(blocks_x=blocks_x, blocks_y=blocks_y, block_side=block_side,
                      lanes_per_direction=lanes)
    grid = place_obstacles(generate_layout(spec), obstruction, random.Random(seed))
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(serialize_grid(grid), encoding="utf-8", newline="\n")
    click.echo(f"wrote {grid.width}x{grid.height} grid to {out}")
    if grid.obstacles:
        sidecar = out.with_suffix(out.suffix + ".obstacles")
        sidecar.write_text(
            serialize_obstacle_list(grid.obstacles), encoding="utf-8", newline="\n"
        )
        click.echo(f"wrote {len(grid.obstacles)} obstacles to {sidecar}")


@main.command("plan-debug")
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--grid", "grid_path", default=None, type=click.Path())
@click.option("--kind", type=click.Choice(["walker", "driver"]), required=True)
@click.option("--start", "start_s", required=True, help="x,y")
@click.option("--goal", "goal_s", required=True, help="x,y")
@click.option("-w", "--weight", type=float, default=1.0, show_default=True)
@click.option("--alpha", type=float, default=0.0, show_default=True,
              help="A driver's risk sensitivity.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Trace CSV destination (stdout when omitted).")
def plan_debug_command(config_path, grid_path, kind, start_s, goal_s, weight,
                       alpha, out_path):
    """Plan one route and dump the expanded-node trace as CSV."""
    if (config_path is None) == (grid_path is None):
        raise ConfigError("give exactly one of --config or --grid")
    if config_path is not None:
        grid = build_grid(load_config(config_path))
    elif not Path(grid_path).is_file():
        raise ConfigError(f"grid file not found: {Path(grid_path)}")
    else:
        grid = parse_grid(Path(grid_path).read_text(encoding="utf-8"))

    def parse_coord(text, name):
        try:
            x, y = map(int, text.split(","))
        except ValueError:
            raise ConfigError(f"{name} must be 'x,y'") from None
        return (x, y)

    start = parse_coord(start_s, "--start")
    goal = parse_coord(goal_s, "--goal")
    trace: list = []
    if kind == "walker" and alpha:  # the library ignores a walker's alpha
        raise ConfigError("--alpha: no walker move carries risk, so a walker takes no alpha")
    profile = BehaviorProfile(kind=kind, w=weight, alpha=alpha)
    route = plan_route(grid, start, goal, profile, trace=trace)
    lines = ["step,x,y,g,h,r,f"]
    for step, x, y, g, h, r, f in trace:
        lines.append(f"{step},{x},{y},{g!r},{h},{r!r},{f!r}")
    content = "\n".join(lines) + "\n"
    if out_path:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(content, encoding="utf-8", newline="\n")
        click.echo(f"wrote {len(trace)} expansions to {out_path}")
    else:
        click.echo(content, nl=False)
    if route is None:
        click.echo("no route found", err=True)
        sys.exit(1)
    click.echo(
        f"route: {len(route)} cells, cost {route.total_cost!r}, "
        f"risk {route.risk_total!r}, {route.expansions} expansions",
        err=True,
    )


if __name__ == "__main__":
    main()
