"""Scenarios, single runs and sweeps; the command line is ``gridcity.commands``.

Scenario files are YAML documents carrying the simulation parameters plus
either an inline procedural layout or a grid-file path, an optional sweep
section (per-parameter value lists over walkers / drivers / obstruction),
and an optional seed list.  Every run directory receives the fully resolved
effective config so the run can be reproduced from it exactly.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import numbers
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .engine import SimConfig, SimulationResult, run
from .environment import (
    GridMap,
    LayoutSpec,
    generate_layout,
    parse_grid,
    parse_obstacle_list,
)
from .metrics import export_run

SWEEPABLE = ("walkers", "drivers", "obstruction")


class ConfigError(ValueError):
    """Scenario file failed validation; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    """A run's config, its map (a layout, or a grid file and an optional
    obstacle list), its sweep axes and its seeds.  Checked when made, with
    the ConfigError a scenario file gets for the same value, and frozen, so
    a changed scenario is made with ``dataclasses.replace``, which checks it
    again.  Making one reads no file."""

    sim: SimConfig
    layout: LayoutSpec | None = None
    grid_path: Path | None = None
    obstacles_path: Path | None = None
    sweep: dict = field(default_factory=dict)
    seeds: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if (self.layout is None) == (self.grid_path is None):
            raise ConfigError("exactly one of 'layout' or 'grid' must be present")
        if self.layout is not None and self.obstacles_path is not None:
            raise ConfigError("'obstacles' requires a 'grid' file, not a layout")
        for name, value in (("grid", self.grid_path), ("obstacles", self.obstacles_path)):
            if value is not None and not isinstance(value, Path):
                raise ConfigError(f"{name}: expected a Path, got {value!r}")
        if not isinstance(self.sweep, dict):
            raise ConfigError("sweep: expected a mapping")
        # every point must make a valid SimConfig; each axis is checked on
        # its own, since no SimConfig check ties walkers, drivers and
        # obstruction together
        for key, values in _mapping(self.sweep, SWEEPABLE, "sweep").items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep.{key}: expected a non-empty list")
            _distinct(values, f"sweep.{key}",
                      _obstruction_label if key == "obstruction" else None)
            for value in values:
                try:
                    dataclasses.replace(self.sim, **{key: value})
                except ValueError as exc:
                    raise ConfigError(f"sweep.{key}: {exc}") from None
        if not isinstance(self.seeds, list):
            raise ConfigError("seeds: expected a list of integers")
        try:  # each seed is checked and stored as the seed field is
            seeds = [dataclasses.replace(self.sim, seed=s).seed for s in self.seeds]
        except ValueError as exc:
            raise ConfigError(f"seeds: {exc}") from None
        object.__setattr__(self, "seeds", _distinct(seeds, "seeds"))


def _number(value, name: str, cast):
    """``cast(value)``, or a ConfigError naming the field when that fails.

    No field takes a bool, and an int field no float with a fractional
    part, so ``2.9`` is not silently read as 2; ``2.0`` reads as 2.
    """
    if isinstance(value, bool) or (
        cast is int and isinstance(value, float) and not value.is_integer()
    ):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


def _scalar(cast):
    return lambda value, name: _number(value, name, cast)


def _pair(cast):
    """A ``[low, high]`` range; a single number ``v`` reads as ``[v, v]``."""

    def convert(value, name):
        if isinstance(value, (int, float)):
            value = (value, value)
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{name}: expected a number or a [low, high] pair")
        return (_number(value[0], name, cast), _number(value[1], name, cast))

    return convert


def _distinct(values: list, name: str, label=None) -> list:
    """``values``, or a ConfigError naming the field when one repeats, or when
    two share the ``label`` of their run directory: either would run twice
    into one directory."""
    seen: dict = {}
    for value in values:
        key = value if label is None else label(value)
        if key in seen:
            if seen[key] == value:
                raise ConfigError(f"{name}: repeated value {value!r}")
            raise ConfigError(
                f"{name}: {seen[key]!r} and {value!r} share the run directory label {key}"
            )
        seen[key] = value
    return values


# The scenario format: (YAML path, SimConfig field, conversion of the YAML
# value).  load_config reads every SimConfig field through this table and
# effective_config_dict writes every one back through it.
_SIM_FIELDS = (
    ("steps", "steps", _scalar(int)),
    ("walkers", "walkers", _scalar(int)),
    ("drivers", "drivers", _scalar(int)),
    ("obstruction", "obstruction", _scalar(float)),
    ("walker_rate", "walker_rate", _scalar(float)),
    ("driver_rate", "driver_rate", _scalar(float)),
    ("profiles.walker.w", "walker_w", _pair(int)),
    ("profiles.walker.max_speed", "walker_max_speed", _scalar(float)),
    ("profiles.driver.w", "driver_w", _pair(int)),
    ("profiles.driver.alpha", "driver_alpha", _pair(float)),
    ("profiles.driver.max_speed", "driver_max_speed", _scalar(float)),
    ("collision_countdown", "collision_countdown", _scalar(int)),
    ("sensing.lookahead", "lookahead", _scalar(int)),
    ("sensing.radius", "sense_radius", _scalar(float)),
    ("sensing.yield_radius", "yield_radius", _scalar(float)),
    ("accel", "accel", _scalar(float)),
    ("decel", "decel", _scalar(float)),
    ("reactivation_prob", "reactivation_prob", _scalar(float)),
    ("seed", "seed", _scalar(int)),
)


def _put(tree: dict, path: str, value) -> None:
    """Set ``tree[a][b][c] = value`` for the dotted ``path`` ``a.b.c``."""
    *sections, leaf = path.split(".")
    for name in sections:
        tree = tree.setdefault(name, {})
    tree[leaf] = value


def _mapping(section, keys, where: str) -> dict:
    """``section`` checked to be a mapping over ``keys``; None reads as empty."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return section


def _leaves(section, tree: dict, prefix: str) -> dict:
    """``{dotted path: value}`` of every leaf of ``section`` that ``tree`` allows."""
    found = {}
    for key, value in _mapping(section, tree, prefix or "scenario").items():
        path = f"{prefix}.{key}" if prefix else key
        if tree[key] is None:
            found[path] = value
        else:
            found.update(_leaves(value, tree[key], path))
    return found


def load_config(path) -> Scenario:
    """Read a scenario file into a ``Scenario``, applying documented defaults;
    its files must exist, and its map is built here."""
    # PyYAML is imported here alone, not with the module: _echo_config
    # writes config.yaml itself, so the workers of a sweep made in Python
    # never load it
    import yaml

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, UnicodeDecodeError) as exc:  # YAML is UTF-8 text
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    # every key a scenario may hold: the _SIM_FIELDS paths and five more
    tree: dict = dict.fromkeys(("layout", "grid", "obstacles", "sweep", "seeds"))
    for key, _, _ in _SIM_FIELDS:
        _put(tree, key, None)
    raw = _leaves(raw, tree, "")

    kwargs = {
        name: convert(raw[key], key)
        for key, name, convert in _SIM_FIELDS
        if key in raw
    }
    try:
        sim = SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    layout = None
    if "layout" in raw:
        fields = {f.name for f in dataclasses.fields(LayoutSpec)}
        section = _mapping(raw["layout"], fields, "layout")
        values = {key: _number(v, f"layout.{key}", int) for key, v in section.items()}
        try:
            layout = LayoutSpec(**values)
        except ValueError as exc:
            raise ConfigError(f"layout: {exc}") from None
    # a sweep value is read like the field it stands for, and a seed like seed
    converters = {key: convert for key, _, convert in _SIM_FIELDS}
    sweep = {
        key: [converters[key](v, f"sweep.{key}") for v in values]
        if isinstance(values, list) else values
        for key, values in _mapping(raw.get("sweep"), SWEEPABLE, "sweep").items()
    }
    # absent or left empty, the seeds read like an empty section
    seeds = [] if raw.get("seeds") is None else raw["seeds"]
    if isinstance(seeds, list):
        seeds = [converters["seed"](s, "seeds") for s in seeds]
    files = {key: (path.parent / str(raw[key])).resolve() if key in raw else None
             for key in ("grid", "obstacles")}
    scenario = Scenario(sim, layout, files["grid"], files["obstacles"], sweep, seeds)
    for file, what in zip(files.values(), ("grid file", "obstacle list")):
        if file is not None and not file.is_file():
            raise ConfigError(f"{what} not found: {file}")
    try:  # build the map once, before any run: a grid file is read and checked
        grid = build_grid(scenario)
    except ValueError as exc:  # a bad grid file, obstacle list or obstacle
        raise ConfigError(str(exc)) from None
    if sim.reactivation_prob > 0 and not grid.parking_cells:
        raise ConfigError("reactivation_prob: the map has no parking cell, so no driver parks")
    return scenario


@functools.lru_cache(maxsize=1)
def _base_grid(source: LayoutSpec | str, obstacles: str | None = None) -> GridMap:
    """The map of a ``LayoutSpec``, or of a grid file's text with an obstacle
    list's text overlaid, kept for the next call in this process: the runs of
    a sweep share one map, its search tables and its plan memo.  A file is
    keyed on its text, so one edited since is read anew."""
    if isinstance(source, LayoutSpec):
        return generate_layout(source)
    grid = parse_grid(source)
    return grid if obstacles is None else grid.with_obstacles(parse_obstacle_list(obstacles))


def build_grid(scenario: Scenario) -> GridMap:
    """Base map for a scenario; run-time obstruction is applied by the engine."""
    if scenario.layout is not None:
        return _base_grid(scenario.layout)
    obstacles = scenario.obstacles_path
    return _base_grid(scenario.grid_path.read_text(encoding="utf-8"),
                      obstacles and obstacles.read_text(encoding="utf-8"))


def effective_config_dict(scenario: Scenario) -> dict:
    """Fully resolved single-run scenario, reloadable by load_config."""
    doc: dict = {}
    for key, name, _ in _SIM_FIELDS:
        value = getattr(scenario.sim, name)
        _put(doc, key, list(value) if isinstance(value, tuple) else value)
    if scenario.layout is not None:
        doc["layout"] = dataclasses.asdict(scenario.layout)
    else:
        doc["grid"] = "map.grid"
        if scenario.obstacles_path is not None:
            doc["obstacles"] = "obstacles.txt"
    return doc


def _yaml_lines(doc: dict, indent: str = "") -> list[str]:
    """The lines ``yaml.safe_dump(doc, sort_keys=True,
    default_flow_style=False)`` writes for an ``effective_config_dict``: keys
    sorted, a nested mapping two spaces in, a list's items at its key's
    indent."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines += [f"{indent}{key}:", *_yaml_lines(value, indent + "  ")]
        elif isinstance(value, list):
            lines += [f"{indent}{key}:", *(f"{indent}- {_yaml_scalar(v)}" for v in value)]
        else:
            lines.append(f"{indent}{key}: {_yaml_scalar(value)}")
    return lines


def _yaml_scalar(value) -> str:
    """An int, a finite float or a file name as PyYAML's SafeRepresenter
    writes it: a float is its repr, with ``.0`` put before an exponent that
    follows no ``.`` (``1e-05`` is ``1.0e-05``), as a YAML float needs."""
    if not isinstance(value, float):
        return str(value)
    text = repr(value)
    return text if "." in text else text.replace("e", ".0e", 1)


def _echo_config(scenario: Scenario, out_dir: Path) -> None:
    """Write ``config.yaml`` from ``effective_config_dict``, in the bytes
    PyYAML would write, and copy the scenario's map files beside it."""
    # the bytes are read before any is written, so a run re-run in place
    # from its own config.yaml copies each file onto itself unharmed
    if scenario.grid_path is not None:
        (out_dir / "map.grid").write_bytes(scenario.grid_path.read_bytes())
        if scenario.obstacles_path is not None:
            (out_dir / "obstacles.txt").write_bytes(scenario.obstacles_path.read_bytes())
    text = "\n".join(_yaml_lines(effective_config_dict(scenario))) + "\n"
    (out_dir / "config.yaml").write_text(text, encoding="utf-8")


def execute_run(scenario: Scenario, out_dir) -> SimulationResult:
    """Run ``scenario.sim`` on the scenario's map and write its outputs under
    out_dir.  A run at other values (a sweep point, a seed, a step count) is
    a scenario changed with ``dataclasses.replace``, which checks them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad out_dir fails before the run
    result = run(scenario.sim, build_grid(scenario))
    export_run(result, out)
    _echo_config(scenario, out)
    return result


def _obstruction_label(obstruction: float) -> str:
    """The obstruction part of a run directory name: the percentage to six
    significant digits."""
    return "o" + format(obstruction * 100, "g")


def point_label(point: dict, sim: SimConfig) -> str:
    sim = dataclasses.replace(sim, **point)
    return f"w{sim.walkers}_d{sim.drivers}_{_obstruction_label(sim.obstruction)}"


def sweep_points(scenario: Scenario) -> list[dict]:
    """Cartesian product of the sweep value lists, in declaration order."""
    keys = [k for k in SWEEPABLE if k in scenario.sweep]
    if not keys:
        return [{}]
    products = itertools.product(*(scenario.sweep[k] for k in keys))
    return [dict(zip(keys, combo)) for combo in products]


#: The ``summary.csv`` metrics as ``(column, SimulationResult attribute)``
#: pairs, in column order; each column gets a ``_mean`` and a ``_std``.
SUMMARY_METRICS = (
    ("mean_driver_speed", "mean_driver_speed"),
    ("jaywalk_entries", "total_jaywalk_entries"),
    ("collisions_vv", "total_collisions_vv"),
    ("runovers", "total_runovers"),
)


@dataclass
class TaskOutcome:
    """One sweep run: its point and seed, whether it ran, and its
    ``SUMMARY_METRICS`` values in order (empty when it failed)."""

    point: dict
    seed: int
    ok: bool
    error: str = ""
    values: tuple = ()


def _run_task(scenario: Scenario, point: dict, seed: int, out_dir: str) -> TaskOutcome:
    """One run of a sweep: the scenario at ``point`` and ``seed``.  A failure,
    a bad value included, is recorded in its outcome, and in its ``error.txt``
    when its directory could be made, and does not stop the sweep."""
    out = Path(out_dir)
    try:
        sim = dataclasses.replace(scenario.sim, seed=seed, **point)
        result = execute_run(dataclasses.replace(scenario, sim=sim), out)
        values = tuple(getattr(result, attr) for _, attr in SUMMARY_METRICS)
        return TaskOutcome(point=point, seed=seed, ok=True, values=values)
    except Exception as exc:  # noqa: BLE001 - the sweep must keep going
        with contextlib.suppress(OSError):  # the directory may be what failed
            (out / "error.txt").write_text(
                f"{exc}\n\n{traceback.format_exc()}", encoding="utf-8"
            )
        return TaskOutcome(point=point, seed=seed, ok=False, error=str(exc))


def _mean_std(values: list) -> tuple[str, str]:
    # imported here, not with the module: only a sweep's parent writes the
    # summary, after its workers are done, so no worker loads statistics
    import statistics

    if not values:
        return "", ""
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return repr(float(mean)), repr(float(std))


def render_summary_csv(scenario: Scenario, points: list, outcomes: list) -> str:
    """One row per point: its walkers, drivers and obstruction, its count of
    runs that ran, and the mean and sample std of each ``SUMMARY_METRICS``
    column over those runs, a run without a value (None) left out; a column
    with no value is empty."""
    header = ["walkers", "drivers", "obstruction", "seeds"] + [
        f"{column}_{stat}" for column, _ in SUMMARY_METRICS for stat in ("mean", "std")
    ]
    lines = [",".join(header)]
    for point in points:
        ok_runs = [o for o in outcomes if o.point == point and o.ok]
        sim = dataclasses.replace(scenario.sim, **point)
        row = [sim.walkers, sim.drivers, format(sim.obstruction, "g"), len(ok_runs)]
        for k in range(len(SUMMARY_METRICS)):
            values = [o.values[k] for o in ok_runs]
            row += _mean_std([float(v) for v in values if v is not None])
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def execute_sweep(scenario: Scenario, out_dir, parallel: int = 1) -> tuple[list, list]:
    """Run the sweep product x the scenario's seeds (its ``sim.seed`` when it
    lists none), each point and seed on the scenario's other values; returns
    (points, outcomes).

    Each run writes under ``out_dir/<point label>/seed<seed>``.  The runs go to
    ``min(parallel, runs)`` worker processes, or run in this process when
    that is 1; a ``parallel`` other than an integer of at least 1 raises
    ValueError before anything is written, and an ``out_dir`` that cannot be
    made raises OSError before any run.  They run seed by seed in the
    order given, then obstruction by obstruction in declaration order, with
    the points in declaration order within: the runs of one seed and
    obstruction place the same obstacles and spawn the same first agents, so
    a worker's plan memo serves their construction plans.  The outcomes come
    back point by point, with the seeds inner."""
    if (isinstance(parallel, bool) or not isinstance(parallel, numbers.Integral)
            or parallel < 1):
        raise ValueError(f"parallel must be an integer of at least 1, got {parallel!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad out_dir fails before the runs
    seeds = scenario.seeds or [scenario.sim.seed]
    points = sweep_points(scenario)
    default = scenario.sim.obstruction
    obstructions = scenario.sweep.get("obstruction", [default])
    tasks = sorted(
        ((scenario, point, seed, str(out / point_label(point, scenario.sim) / f"seed{seed}"))
         for point in points for seed in seeds),
        key=lambda task: (seeds.index(task[2]),
                          obstructions.index(task[1].get("obstruction", default))))
    workers = min(parallel, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            done = pool.starmap(_run_task, tasks)
    else:
        done = list(itertools.starmap(_run_task, tasks))
    outcomes = sorted(done, key=lambda o: (points.index(o.point), seeds.index(o.seed)))
    (out / "summary.csv").write_text(
        render_summary_csv(scenario, points, outcomes), encoding="utf-8", newline="\n"
    )
    return points, outcomes
