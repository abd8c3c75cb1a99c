"""Scenarios, single runs and sweeps; the command line is ``gridcity.commands``.

Scenario files are YAML documents carrying the simulation parameters plus
either an inline procedural layout or a grid-file path, an optional sweep
section (a value list per SimConfig field but the seed, named by its path)
and an optional seed list.  Every run directory receives the fully resolved
effective config so the run can be reproduced from it exactly.
"""
from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import math
import numbers
import os
import pickle
import selectors
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .engine import SimConfig, SimulationResult, check_map, run
from .environment import (
    GridMap,
    LayoutSpec,
    generate_layout,
    parse_grid,
    parse_obstacle_list,
)
from .metrics import export_run


class ConfigError(ValueError):
    """Scenario file failed validation; message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    """A run's config, its map (a layout, or a grid file and an optional
    obstacle list), its sweep axes (value lists by SimConfig field name) and
    its seeds.  Checked when made, with the ConfigError a scenario file gets
    for the same value, and frozen, so a changed scenario is made with
    ``dataclasses.replace``, which checks it again.  Making one reads no file."""

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
        # each axis is checked alone, named by its scenario-file path, and
        # stored in field order as SimConfig stores its values; then each point
        axes = _mapping(self.sweep, _AXES, "sweep")
        sweep = {}
        for name in [name for name in _AXES if name in axes]:
            where = f"sweep.{_AXES[name]}"
            if not isinstance(axes[name], list) or not axes[name]:
                raise ConfigError(f"{where}: expected a non-empty list")
            sweep[name] = _values(self.sim, name, axes[name], where,
                                  functools.partial(_label_part, name))
        object.__setattr__(self, "sweep", sweep)
        for point in sweep_points(self):
            try:
                dataclasses.replace(self.sim, **point)
            except ValueError as exc:
                raise ConfigError(f"sweep: at {point}: {exc}") from None
        if not isinstance(self.seeds, list):
            raise ConfigError("seeds: expected a list of integers")
        object.__setattr__(self, "seeds", _values(self.sim, "seed", self.seeds, "seeds"))


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


def _pair(cast):
    """A ``[low, high]`` range; a single value ``v``, a quoted number
    included, reads as ``[v, v]``."""

    def convert(value, name):
        if isinstance(value, (int, float, str)):
            value = (value, value)
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{name}: expected a number or a [low, high] pair")
        return (_number(value[0], name, cast), _number(value[1], name, cast))

    return convert


def _values(sim: SimConfig, name: str, values: list, where: str, label=None) -> list:
    """``values`` as ``sim`` checks and stores its field ``name``, or a
    ConfigError naming ``where`` for a bad value, or for two that would run
    into one directory: equal, or alike in their run directory ``label``."""
    seen: dict = {}
    for value in values:
        try:
            value = getattr(dataclasses.replace(sim, **{name: value}), name)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        key = value if label is None else label(value)
        if key in seen:
            if seen[key] == value:
                raise ConfigError(f"{where}: repeated value {value!r}")
            raise ConfigError(
                f"{where}: {seen[key]!r} and {value!r} share the run directory label {key}"
            )
        seen[key] = value
    return list(seen.values())


# A YAML value's conversion, by the annotation of the field it sets.
_CONVERSIONS = {
    "int": functools.partial(_number, cast=int),
    "float": functools.partial(_number, cast=float),
    "tuple[int, int]": _pair(int),
    "tuple[float, float]": _pair(float),
}

# The YAML path of each SimConfig field a scenario nests in a section; every
# other field is read at its own name.
_NESTED_PATHS = {
    "walker_w": "profiles.walker.w", "walker_max_speed": "profiles.walker.max_speed",
    "driver_w": "profiles.driver.w", "driver_alpha": "profiles.driver.alpha",
    "driver_max_speed": "profiles.driver.max_speed",
    "lookahead": "sensing.lookahead", "sense_radius": "sensing.radius",
    "yield_radius": "sensing.yield_radius",
}

# The scenario format, one (YAML path, field, conversion) row per SimConfig
# field.  load_config reads every field through this table and
# effective_config_dict writes every one back through it.
_SIM_FIELDS = tuple(
    (_NESTED_PATHS.get(f.name, f.name), f.name, _CONVERSIONS[f.type])
    for f in dataclasses.fields(SimConfig)
)

# The sweep axes' paths by field name, in field order: all but the seed.
_AXES = {name: path for path, name, _ in _SIM_FIELDS if name != "seed"}


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
        types = {f.name: f.type for f in dataclasses.fields(LayoutSpec)}
        section = _mapping(raw["layout"], types, "layout")
        values = {k: _CONVERSIONS[types[k]](v, f"layout.{k}") for k, v in section.items()}
        try:
            layout = LayoutSpec(**values)
        except ValueError as exc:
            raise ConfigError(f"layout: {exc}") from None
    # a sweep axis is named by its field's path and each of its values read
    # like the field, and a seed like seed
    fields = {key: (name, convert) for key, name, convert in _SIM_FIELDS}
    sweep = {
        fields[key][0]: [fields[key][1](v, f"sweep.{key}") for v in values]
        if isinstance(values, list) else values
        for key, values in _mapping(raw.get("sweep"), _AXES.values(), "sweep").items()
    }
    # absent or left empty, the seeds read like an empty section
    seeds = [] if raw.get("seeds") is None else raw["seeds"]
    if isinstance(seeds, list):
        seeds = [fields["seed"][1](s, "seeds") for s in seeds]
    files = {key: (path.parent / str(raw[key])).resolve() if key in raw else None
             for key in ("grid", "obstacles")}
    scenario = Scenario(sim, layout, files["grid"], files["obstacles"], sweep, seeds)
    for file, what in zip(files.values(), ("grid file", "obstacle list")):
        if file is not None and not file.is_file():
            raise ConfigError(f"{what} not found: {file}")
    try:  # build the map once, before any run: a grid file is read and checked
        check_map(build_grid(scenario), sim)
    except ValueError as exc:  # a bad map file or obstacle, or a config the map cannot run
        raise ConfigError(str(exc)) from None
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


def _map_source(scenario: Scenario) -> tuple:
    """``_base_grid``'s arguments: the layout, or the map files' texts."""
    if scenario.layout is not None:
        return (scenario.layout,)
    obstacles = scenario.obstacles_path
    return (scenario.grid_path.read_text(encoding="utf-8"),
            obstacles and obstacles.read_text(encoding="utf-8"))


def build_grid(scenario: Scenario) -> GridMap:
    """Base map for a scenario's run; run-time obstruction is applied by the engine."""
    return _base_grid(*_map_source(scenario))


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


#: The fields in every label and summary row, each with its label prefix.
_STEM = {"walkers": "w", "drivers": "d", "obstruction": "o"}


def _text(value) -> str:
    """A value in a label or ``summary.csv``: a float to six significant
    digits, a pair as ``low-high``."""
    if isinstance(value, tuple):
        return "-".join(map(_text, value))
    return format(value, "g") if isinstance(value, float) else str(value)


def _label_part(name: str, value) -> str:
    """``w50``, ``d20``, ``o5`` (obstruction in percent), or ``walker_w1-3``."""
    return _STEM.get(name, name) + _text(value * 100 if name == "obstruction" else value)


def point_label(point: dict, sim: SimConfig) -> str:
    """``w<walkers>_d<drivers>_o<pct>``, then one part per other field of
    ``point``, in field order."""
    sim = dataclasses.replace(sim, **point)
    names = [*_STEM, *(name for name in _AXES if name in point and name not in _STEM)]
    return "_".join(_label_part(name, getattr(sim, name)) for name in names)


def sweep_points(scenario: Scenario) -> list[dict]:
    """Cartesian product of the sweep value lists, the axes in SimConfig field
    order and each axis's values in declaration order."""
    products = itertools.product(*scenario.sweep.values())
    return [dict(zip(scenario.sweep, combo)) for combo in products]


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


def _failed(task: tuple, error: str, detail: str = "") -> TaskOutcome:
    """The failed outcome of ``task``, its ``error`` and ``detail`` also
    written to its ``error.txt`` where its directory can be made."""
    _, point, seed, out_dir = task
    with contextlib.suppress(OSError):  # the directory may be what failed
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "error.txt").write_text(f"{error}\n{detail}", encoding="utf-8")
    return TaskOutcome(point=point, seed=seed, ok=False, error=error)


def _run_task(scenario: Scenario, point: dict, seed: int, out_dir: str) -> TaskOutcome:
    """One run of a sweep: the scenario at ``point`` and ``seed``, with no sweep
    of its own to check again.  A failure, a bad value included, is recorded
    in its outcome, and in its ``error.txt`` when its directory could be made,
    and does not stop the sweep."""
    try:
        sim = dataclasses.replace(scenario.sim, seed=seed, **point)
        result = execute_run(dataclasses.replace(scenario, sim=sim, sweep={}), out_dir)
        values = tuple(getattr(result, attr) for _, attr in SUMMARY_METRICS)
        return TaskOutcome(point=point, seed=seed, ok=True, values=values)
    except Exception as exc:  # noqa: BLE001 - the sweep must keep going
        # imported here, not with the module: only a failed run needs it, and
        # a sweep's forked workers hold a copy of what the parent imported
        import traceback

        return _failed((scenario, point, seed, out_dir), str(exc),
                       f"\n{traceback.format_exc()}")


def _mean_std(values: list) -> tuple[str, str]:
    """The mean and sample std of the floats ``values`` as ``repr`` text, the
    std 0.0 for one value and both empty for none.

    Each is the float that ``statistics.fmean`` and ``statistics.stdev``
    return on Python 3.11 and later: the ``fsum`` over the count, and the
    correctly rounded square root of the exact sample variance, rounded as
    ``statistics._float_sqrt_of_frac`` does.  Written out because importing
    ``statistics`` also loads ``fractions`` and ``decimal`` into the sweep's
    parent, whose memory counts with its workers', and because Python 3.10's
    ``stdev`` rounds twice, so the summary's bytes would depend on the
    Python that wrote them."""
    if not values:
        return "", ""
    k = len(values)
    mean = math.fsum(values) / k
    if k == 1:
        return repr(mean), repr(0.0)
    # each value is an integer over the largest of their power-of-two
    # denominators, so the variance is exactly n / m
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    ints = [num * (d // den) for num, den in ratios]
    total = sum(ints)
    n = k * sum(i * i for i in ints) - total * total
    m = k * (k - 1) * d * d
    # n / m scaled by 4**-q to about 109 bits, so its integer root has about
    # 55; that root's last bit set when inexact (round to odd), then one
    # rounding to a float
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    std = (root << q) / 1 if q >= 0 else root / (1 << -q)
    return repr(mean), repr(std)


def render_summary_csv(scenario: Scenario, points: list, outcomes: list) -> str:
    """One row per point: its walkers, drivers and obstruction, its count of
    runs that ran, the mean and sample std of each ``SUMMARY_METRICS`` column
    over those runs (``_mean_std``: the floats ``statistics`` gives, without
    importing it), a run without a value (None) left out, and the value of
    each other sweep axis; a column with no value is empty."""
    others = [name for name in scenario.sweep if name not in _STEM]
    header = [*_STEM, "seeds"] + [
        f"{column}_{stat}" for column, _ in SUMMARY_METRICS for stat in ("mean", "std")
    ] + others
    lines = [",".join(header)]
    for point in points:
        ok_runs = [o for o in outcomes if o.point == point and o.ok]
        sim = dataclasses.replace(scenario.sim, **point)
        row = [sim.walkers, sim.drivers, _text(sim.obstruction), len(ok_runs)]
        for k in range(len(SUMMARY_METRICS)):
            values = [o.values[k] for o in ok_runs]
            row += _mean_std([float(v) for v in values if v is not None])
        row += [_text(getattr(sim, name)) for name in others]
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


#: The order that ends a worker; no run's index reaches it.
_DONE = (2**32 - 1).to_bytes(4, "little")


def _work(tasks: list, orders: int, report: int):
    """A forked worker's whole life: until its order pipe ``orders`` reads
    ``_DONE`` or empty, read a run's index from it, run that task and report
    its outcome, pickled, on the pipe ``report``.  It ends the process, and
    never returns into the caller's code."""
    code = 1
    try:
        with open(report, "wb") as out:
            # each order is one 4-byte write, which a pipe keeps whole
            while (record := os.read(orders, 4)) and record != _DONE:
                pickle.dump(_run_task(*tasks[int.from_bytes(record, "little")]), out)
                out.flush()
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _fork_runs(tasks: list, workers: int) -> list:
    """Each task's ``_run_task`` outcome, in task order, from ``workers``
    forked processes, which inherit the map ``_base_grid`` has cached.

    Of T tasks, worker k of W owns the consecutive share ``[T*k//W,
    T*(k+1)//W)`` and runs it from the front, so one worker meets the runs
    of a seed and obstruction and its plan memo serves them.  It holds one
    run at a time: this process writes the next run's index on the worker's
    order pipe when it forks it and when it reads a run's pickled outcome
    from its report pipe, watched with one selector, and writes ``_DONE``
    when no run is left.  A worker done with its share takes the last
    unstarted run of the largest share left, so a worker slowed by other
    load holds the sweep up by at most its run.  A worker whose report pipe
    ends before a whole outcome fails the run it was on, its error naming
    the worker's exit status, and a new worker forked from this process
    takes over its share.  Every worker is reaped, and its pipes closed,
    before this returns, and killed first when this process fails."""
    done: list = [None] * len(tasks)
    shares = [collections.deque(range(len(tasks) * k // workers,
                                      len(tasks) * (k + 1) // workers)) for k in range(workers)]
    live: dict = {}  # a report pipe's file -> [pid, order pipe, share, run handed or None]

    def order(report) -> None:
        """Hand the worker reporting on ``report`` its next run, or ``_DONE``."""
        worker = live[report]
        record, worker[3] = _DONE, None
        if source := worker[2] or max(shares, key=len):
            worker[3] = source.popleft() if source is worker[2] else source.pop()
            record = worker[3].to_bytes(4, "little")
        with contextlib.suppress(BrokenPipeError):  # it has ended, and fails its run
            os.write(worker[1], record)

    def fork(share: collections.deque) -> None:
        for stream in (sys.stdout, sys.stderr):  # no worker writes again what is buffered
            with contextlib.suppress(AttributeError, ValueError):  # gone or closed
                stream.flush()
        orders_r, orders_w = os.pipe()
        report_r, report_w = os.pipe()
        try:
            if (pid := os.fork()) == 0:
                _work(tasks, orders_r, report_w)
        except BaseException:
            os.close(orders_w)
            os.close(report_r)
            raise
        finally:
            os.close(orders_r)
            os.close(report_w)
        report = open(report_r, "rb")
        live[report] = [pid, orders_w, share, None]
        selector.register(report, selectors.EVENT_READ)
        order(report)

    def reap(report) -> int:
        """Wait for the worker reporting on ``report``, close its two pipes
        and return its exit code."""
        pid, orders, *_ = live.pop(report)
        selector.unregister(report)
        report.close()
        os.close(orders)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    with selectors.DefaultSelector() as selector:
        try:
            for share in shares:
                fork(share)
            while live:
                for key, _ in selector.select():
                    report = key.fileobj
                    try:
                        done[live[report][3]] = pickle.load(report)
                    except (EOFError, pickle.UnpicklingError):  # it has ended
                        _, _, share, run = live[report]
                        code = reap(report)
                        if run is not None:
                            ended = (f"was killed by signal {-code}" if code < 0
                                     else f"exited with status {code}")
                            done[run] = _failed(
                                tasks[run], f"its worker process {ended} before reporting it")
                            if any(shares):
                                fork(share)
                    else:
                        order(report)
        except BaseException:
            import signal  # imported here, not with the module: only a failing runner kills

            for pid, *_ in live.values():
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            while live:
                reap(next(iter(live)))
    return done


def execute_sweep(scenario: Scenario, out_dir, parallel: int = 1) -> tuple[list, list]:
    """Run the sweep product x the scenario's seeds (its ``sim.seed`` when it
    lists none), each point and seed on the scenario's other values; returns
    (points, outcomes).

    Each run writes under ``out_dir/<point label>/seed<seed>``.  The runs go to
    ``min(parallel, runs)`` forked worker processes (``_fork_runs``), or run
    in this process when that is 1; a ``parallel`` other than an integer of
    at least 1, one above 1 where ``os.fork`` is missing, or a point the map
    cannot run (``check_map``), raises ValueError before anything is written,
    and an ``out_dir`` that cannot be made raises OSError before any run.
    They run seed by seed in the order given, then obstruction by obstruction
    in declaration order, with the points in product order within, and each
    worker owns one consecutive share of that order: the runs of one seed
    and obstruction place the same obstacles and spawn the same first agents,
    so a worker's plan memo serves their construction plans.  A worker done
    with its share takes the runs left in the largest other share, from its
    back.  A failed run stops no other, and a worker that dies fails only the
    run it was on.  The outcomes come back point by point, with the seeds
    inner."""
    if (isinstance(parallel, bool) or not isinstance(parallel, numbers.Integral)
            or parallel < 1):
        raise ValueError(f"parallel must be an integer of at least 1, got {parallel!r}")
    if parallel > 1 and not hasattr(os, "fork"):
        raise ValueError(f"parallel {parallel} needs os.fork, which this platform lacks")
    points = sweep_points(scenario)
    # the map is built, or found cached, here; not by build_grid, whose
    # calls perfbench counts as a run's set-up.  Forked workers inherit it
    # from _base_grid's cache.
    grid = _base_grid(*_map_source(scenario))
    for point in points:
        check_map(grid, dataclasses.replace(scenario.sim, **point))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # a bad out_dir fails before the runs
    seeds = scenario.seeds or [scenario.sim.seed]
    default = scenario.sim.obstruction
    obstructions = scenario.sweep.get("obstruction", [default])
    tasks = [
        (scenario, point, seed, str(out / point_label(point, scenario.sim) / f"seed{seed}"))
        for seed in seeds for obstruction in obstructions
        for point in points if point.get("obstruction", default) == obstruction
    ]
    workers = min(parallel, len(tasks))
    if workers > 1:
        done = _fork_runs(tasks, workers)
    else:
        done = list(itertools.starmap(_run_task, tasks))
    outcomes = sorted(done, key=lambda o: (points.index(o.point), seeds.index(o.seed)))
    (out / "summary.csv").write_text(
        render_summary_csv(scenario, points, outcomes), encoding="utf-8", newline="\n"
    )
    return points, outcomes
