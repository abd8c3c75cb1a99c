import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcity.cli import (
    _NESTED_PATHS,
    _SIM_FIELDS,
    ConfigError,
    Scenario,
    _echo_config,
    build_grid,
    effective_config_dict,
    execute_run,
    execute_sweep,
    load_config,
    point_label,
    sweep_points,
)
from gridcity.commands import main
from gridcity.engine import SimConfig, run
from gridcity.environment import (
    GroundType,
    LayoutSpec,
    generate_layout,
    parse_grid,
    parse_obstacle_list,
    place_obstacles,
    serialize_grid,
    serialize_obstacle_list,
)
from gridcity.metrics import export_run
from test_digests import SCENARIOS


def write_config(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def with_sim(scenario, **values):
    """``scenario`` with ``values`` in place of those of its ``SimConfig``."""
    return dataclasses.replace(scenario, sim=dataclasses.replace(scenario.sim, **values))


MINIMAL = {
    "steps": 5,
    "walkers": 2,
    "layout": {"blocks_x": 1, "blocks_y": 1},
    "seed": 1,
}


# -- config loading -------------------------------------------------------------


def test_minimal_config_applies_defaults(tmp_path):
    scenario = load_config(write_config(tmp_path, {"layout": {"blocks_x": 1, "blocks_y": 1}}))
    assert scenario.sim.steps == 1000
    assert scenario.sim.collision_countdown == 10
    assert scenario.sim.lookahead == 4
    assert scenario.layout is not None
    assert scenario.sweep == {}


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_layout_and_grid_are_mutually_exclusive(tmp_path):
    grid_file = tmp_path / "map.grid"
    grid_file.write_text("1 1\nrN-\n")
    doc = dict(MINIMAL, grid="map.grid")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_config(tmp_path, doc))
    doc2 = {"steps": 5}
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write_config(tmp_path, doc2))


def test_unknown_field_is_named(tmp_path):
    doc = dict(MINIMAL, walkres=3)
    with pytest.raises(ConfigError, match="walkres"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("patch, key", [
    ({"spawn_mode": "poisson"}, "scenario: unknown field 'spawn_mode'"),
    ({"profiles": {"walker": {"alpha": 1}}}, "profiles.walker: unknown field 'alpha'"),
])
def test_removed_keys_are_unknown_fields(tmp_path, patch, key):
    config = write_config(tmp_path, dict(MINIMAL, **patch))
    with pytest.raises(ConfigError, match=f"^{key}$"):
        load_config(config)
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    assert result.stderr == f"config error: {key}\n"


def test_invalid_value_is_reported(tmp_path):
    doc = dict(MINIMAL, steps=0)
    with pytest.raises(ConfigError, match="steps"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("patch, field", [
    ({"steps": "abc"}, "steps"),
    ({"profiles": {"walker": {"w": [1, "x"]}}}, "profiles.walker.w"),
    ({"sensing": {"radius": "far"}}, "sensing.radius"),
    ({"profiles": {"driver": 3}}, "profiles.driver"),
    ({"layout": {"blocks_x": [1]}}, "layout"),
    ({"walkers": 2.9}, "walkers"),
    ({"profiles": {"driver": {"w": [1.5, 3.7]}}}, "profiles.driver.w"),
    ({"layout": {"blocks_x": 1.9}}, "layout.blocks_x"),
    ({"seeds": [True]}, "seeds"),
    ({"profiles": {"walker": {"w": [1, 2, 3]}}}, "profiles.walker.w"),
    ({"layout": {"blocks_x": 0}}, "layout"),
    ({"seeds": [2.5]}, "seeds: expected an integer, got 2.5"),
    # no number field takes a bool, as SimConfig takes none
    ({"obstruction": True}, "obstruction: expected a number, got True"),
    ({"profiles": {"driver": {"alpha": [True, 2]}}},
     "profiles.driver.alpha: expected a number, got True"),
])
def test_non_numeric_value_is_config_error(tmp_path, patch, field):
    config = write_config(tmp_path, dict(MINIMAL, **patch))
    with pytest.raises(ConfigError, match=field):
        load_config(config)
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    assert f"config error: {field}" in result.output


@pytest.mark.parametrize("text, message", [
    ("steps: [1\n", "invalid YAML"),
    ("layout: {blocks_x: 1}\nobstacles: obs.txt\n", "'obstacles' requires a 'grid' file"),
    ("grid: nope.grid\n", "grid file not found"),
    ("grid: map.grid\nobstacles: nope.txt\n", "obstacle list not found"),
    ("grid: bad.grid\n",
     "row 0, column 0: token 'sN-': cell type 's' does not take flow directions"),
    ("grid: map.grid\nobstacles: off.txt\n", "obstacle (500, 500) outside the grid"),
    ("grid: building.grid\nobstacles: obs.txt\n", "obstacle (0, 0) placed on a building cell"),
], ids=["invalid_yaml", "obstacles_beside_layout", "missing_grid", "missing_obstacles",
        "malformed_token", "off_grid_obstacle", "obstacle_on_building"])
def test_bad_scenario_file_is_config_error(tmp_path, text, message):
    (tmp_path / "map.grid").write_text("1 1\nrN-\n")
    (tmp_path / "bad.grid").write_text("1 1\nsN-\n")
    (tmp_path / "building.grid").write_text("1 1\nb--\n")
    (tmp_path / "obs.txt").write_text("0 0\n")
    (tmp_path / "off.txt").write_text("500 500\n")
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(config)
    for command in ("run", "sweep"):
        out = tmp_path / command
        result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: ")
        assert not out.exists()


@pytest.mark.parametrize("patch, message", [
    ({"walker_rate": 0.5}, "a run sets population targets (walkers, drivers) or arrival "
                           "rates (walker_rate, driver_rate), not both"),
    # at walkers 50 the rate would change nothing: an arrivals run has no target
    ({"walkers": 0, "driver_rate": 0.5, "sweep": {"walkers": [0, 50]}},
     "sweep.walkers: a run sets population targets"),
    # a generated layout has no parking cell, so no driver parks to reactivate
    ({"reactivation_prob": 0.1}, "reactivation_prob: the map has no unobstructed parking cell"),
], ids=["rate_and_target", "arrivals_sweep_over_walkers", "reactivation_without_parking"])
def test_an_input_that_changes_nothing_is_config_error(tmp_path, patch, message):
    config = write_config(tmp_path, dict(MINIMAL, **patch))
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        load_config(config)
    for command in ("run", "sweep"):
        out = tmp_path / command
        result = CliRunner().invoke(main, [command, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"config error: {message}")
        assert not out.exists()


def test_a_scenario_file_that_is_not_utf8_is_config_error(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_bytes(b"steps: 5\nwalkers: 2\n# \xff\n")
    with pytest.raises(ConfigError, match=f"^invalid YAML in {re.escape(str(config))}: "
                                          "'utf-8' codec can't decode byte 0xff"):
        load_config(config)
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: invalid YAML in ")
    assert not out.exists()


def test_seeds_that_are_no_list_are_refused(tmp_path):
    with pytest.raises(ConfigError, match="^seeds: expected a list of integers$"):
        Scenario(SimConfig(), LayoutSpec(), seeds=5)
    config = write_config(tmp_path, dict(MINIMAL, seeds=5))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["sweep", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "config error: seeds: expected a list of integers\n"
    assert not out.exists()


def test_integral_floats_load_as_ints(tmp_path):
    doc = dict(MINIMAL, walkers=2.0, layout={"blocks_x": 2.0})
    doc["profiles"] = {"driver": {"w": [1.0, 5.0]}}
    scenario = load_config(write_config(tmp_path, doc))
    assert type(scenario.sim.walkers) is int and scenario.sim.walkers == 2
    assert scenario.sim.driver_w == (1, 5)
    assert all(type(w) is int for w in scenario.sim.driver_w)
    assert type(scenario.layout.blocks_x) is int and scenario.layout.blocks_x == 2


def test_sweep_lists_must_be_nonempty(tmp_path):
    doc = dict(MINIMAL, sweep={"walkers": []})
    with pytest.raises(ConfigError, match="sweep.walkers"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("values, message", [
    ({"walkers": [2, 2.9]}, "expected an integer, got 2.9"),
    ({"walkers": [True]}, "expected an integer, got True"),
    ({"drivers": [-1]}, "population targets must be >= 0"),
    ({"obstruction": ["lots"]}, "expected a number, got 'lots'"),
    ({"obstruction": [0.1, 1.5]}, "obstruction must lie in"),
    ({"obstruction": [True]}, "expected a number, got True"),
    ({"profiles.walker.w": [[0, 1]]}, "walker_w range must satisfy 1 <= low <= high"),
])
def test_sweep_values_are_checked_like_their_fields(tmp_path, values, message):
    config = write_config(tmp_path, dict(MINIMAL, sweep=values))
    key = next(iter(values))
    with pytest.raises(ConfigError, match=f"sweep.{key}: {message}"):
        load_config(config)
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 2
    assert f"config error: sweep.{key}" in result.output
    assert not (tmp_path / "s").exists()


def test_sweep_values_are_converted_like_their_fields(tmp_path):
    # a quoted number reads as the number, as it does for the field itself,
    # and a listed seed as the seed field reads it
    doc = dict(MINIMAL, sweep={"walkers": [2.0], "obstruction": ["0.1"]}, seeds=[2.0, "3"])
    config = write_config(tmp_path, doc)
    scenario = load_config(config)
    assert scenario.sweep == {"walkers": [2], "obstruction": [0.1]}
    assert type(scenario.sweep["walkers"][0]) is int
    assert scenario.seeds == [2, 3] and all(type(s) is int for s in scenario.seeds)
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 0, result.output
    for seed in (2, 3):
        assert (tmp_path / "s" / "w2_d0_o10" / f"seed{seed}" / "metrics.csv").is_file()


@pytest.mark.parametrize("patch, args, name", [
    ({"sweep": {"walkers": [2, 2.0]}, "seeds": [1]}, [], "sweep.walkers: repeated value 2"),
    ({"sweep": {"obstruction": [0, 0.1, "0.1"]}}, [], "sweep.obstruction: repeated value 0.1"),
    ({"seeds": [1, 1]}, [], "seeds: repeated value 1"),
    ({}, ["--seeds", "1,1"], "--seeds: repeated value 1"),
    # two values that print alike would share the run directory w2_d0_o10
    ({"sweep": {"obstruction": [0.1, 0.1000000001]}, "seeds": [1]}, [],
     "sweep.obstruction: 0.1 and 0.1000000001 share the run directory label o10"),
    # a listed seed is read like the seed field, so 1.0 is 1
    ({"seeds": [1, 1.0]}, [], "seeds: repeated value 1"),
])
def test_repeated_sweep_values_and_seeds_are_refused(tmp_path, patch, args, name):
    # a repeated value or seed would run twice into one run directory and
    # write two identical summary rows that each count both seeds
    config = write_config(tmp_path, dict(MINIMAL, steps=3, **patch))
    if args:
        scenario = load_config(config)
        with pytest.raises(ConfigError, match="^seeds: repeated value 1"):
            dataclasses.replace(scenario, seeds=[1, 1])
    else:
        with pytest.raises(ConfigError, match=name):
            load_config(config)
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s"), *args]
    )
    assert result.exit_code == 2
    assert f"config error: {name}" in result.output
    assert not (tmp_path / "s").exists()


# a Scenario built in Python is checked as a scenario file is
@pytest.mark.parametrize("fields, message", [
    ({"sweep": {"walkers": [2, 2]}}, "sweep.walkers: repeated value 2"),
    ({"sweep": {"obstruction": [0.1, 0.1000000001]}},
     "sweep.obstruction: 0.1 and 0.1000000001 share the run directory label o10"),
    ({"sweep": {"lanes": [1]}}, "sweep: unknown field 'lanes'"),
    ({"sweep": {"seed": [1]}}, "sweep: unknown field 'seed'"),
    ({"sweep": {"accel": [1.0, 1.0000001]}},
     "sweep.accel: 1.0 and 1.0000001 share the run directory label accel1"),
    # each axis makes valid configs, but its point (5, 0.5) sets both a
    # target and a rate
    ({"sim": SimConfig(steps=3), "sweep": {"walkers": [0, 5], "walker_rate": [0.0, 0.5]}},
     "sweep: at {'walkers': 5, 'walker_rate': 0.5}: a run sets population targets "
     "(walkers, drivers) or arrival rates (walker_rate, driver_rate), not both"),
    ({"sweep": {"walkers": []}}, "sweep.walkers: expected a non-empty list"),
    ({"sweep": {"walkers": [-1]}}, "sweep.walkers: population targets must be >= 0"),
    ({"seeds": [1, 1]}, "seeds: repeated value 1"),
    ({"seeds": [2.5]}, "seeds: seed must be an integer, got 2.5"),
    ({"seeds": [True]}, "seeds: seed must be an integer, got True"),
    ({"layout": None}, "exactly one of 'layout' or 'grid' must be present"),
    ({"grid_path": Path("map.grid")}, "exactly one of 'layout' or 'grid' must be present"),
    ({"obstacles_path": Path("obs.txt")}, "'obstacles' requires a 'grid' file, not a layout"),
    ({"layout": None, "grid_path": "map.grid"}, "grid: expected a Path, got 'map.grid'"),
    ({"layout": None, "grid_path": Path("map.grid"), "obstacles_path": "obs.txt"},
     "obstacles: expected a Path, got 'obs.txt'"),
    ({"sweep": None}, "sweep: expected a mapping"),
], ids=["repeated_value", "shared_label", "unknown_axis", "seed_axis", "shared_float_label",
        "bad_point", "empty_axis", "bad_value",
        "repeated_seed", "fractional_seed", "bool_seed", "no_map", "both_maps",
        "obstacles_beside_layout", "str_grid", "str_obstacles", "no_sweep"])
def test_a_bad_scenario_is_refused_when_made(fields, message):
    base = {"sim": SimConfig(steps=3, walkers=2), "layout": LayoutSpec()}
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        Scenario(**dict(base, **fields))


@pytest.mark.parametrize("seeds", [None, []])
def test_empty_seed_list_runs_the_scenario_seed(tmp_path, seeds):
    config = write_config(tmp_path, dict(MINIMAL, steps=3, seeds=seeds))
    assert load_config(config).seeds == []
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s")]
    )
    assert result.exit_code == 0, result.output
    assert "1 sweep points, 1 runs" in result.output
    assert (tmp_path / "s" / "w2_d0_o0" / "seed1" / "metrics.csv").is_file()


def test_profile_ranges_accept_scalar_or_pair(tmp_path):
    doc = dict(MINIMAL)
    doc["profiles"] = {"walker": {"w": 3}, "driver": {"w": [1, 5], "alpha": [0, 1]}}
    scenario = load_config(write_config(tmp_path, doc))
    assert scenario.sim.walker_w == (3, 3)
    assert scenario.sim.driver_w == (1, 5)
    assert scenario.sim.driver_alpha == (0.0, 1.0)


def test_a_quoted_number_reads_as_a_one_value_range(tmp_path):
    # as a quoted number reads for every other number field
    doc = dict(MINIMAL, profiles={"walker": {"w": "3"}, "driver": {"w": "2", "alpha": "0.5"}})
    sim = load_config(write_config(tmp_path, doc)).sim
    assert (sim.walker_w, sim.driver_w, sim.driver_alpha) == ((3, 3), (2, 2), (0.5, 0.5))
    doc["profiles"] = {"walker": {"w": "x"}}
    with pytest.raises(ConfigError, match=r"^profiles\.walker\.w: expected a number, got 'x'$"):
        load_config(write_config(tmp_path, doc))


def test_a_python_scenario_reactivating_without_parking_is_refused(tmp_path):
    # a generated layout has no parking cell: the run is refused as the
    # scenario file is
    scenario = Scenario(SimConfig(steps=3, drivers=2, reactivation_prob=0.5), LayoutSpec())
    with pytest.raises(ValueError, match="^reactivation_prob: the map has no unobstructed "
                                         "parking cell, so no driver parks$"):
        execute_run(scenario, tmp_path / "out")
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_every_simconfig_field_but_the_seed_is_a_sweep_axis():
    sim = SimConfig(steps=3)
    for f in dataclasses.fields(SimConfig):
        sweep = {f.name: [getattr(sim, f.name)]}
        if f.name == "seed":
            with pytest.raises(ConfigError, match="^sweep: unknown field 'seed'$"):
                Scenario(sim, LayoutSpec(), sweep=sweep)
        else:
            assert sweep_points(Scenario(sim, LayoutSpec(), sweep=sweep)) == [
                {f.name: getattr(sim, f.name)}]


def test_grid_file_scenario_loads_with_obstacles(tmp_path):
    (tmp_path / "map.grid").write_text("2 1\nrE- rE-\n")
    (tmp_path / "obs.txt").write_text("")
    doc = {"steps": 3, "grid": "map.grid", "obstacles": "obs.txt"}
    scenario = load_config(write_config(tmp_path, doc))
    grid = build_grid(scenario)
    assert grid.width == 2


def test_full_experiment_grid_shape(tmp_path):
    doc = {
        "steps": 1000,
        "layout": {"blocks_x": 5, "blocks_y": 5},
        "sweep": {
            "walkers": list(range(0, 201, 25)),
            "drivers": [20, 40, 60, 80, 100],
            "obstruction": [0.0, 0.05, 0.10],
        },
    }
    scenario = load_config(write_config(tmp_path, doc))
    points = sweep_points(scenario)
    assert len(points) == 9 * 5 * 3


# -- the scenario format ----------------------------------------------------------

# Between them, every SimConfig field away from its default, with scalar and
# pair ranges: a layout run with targets, and a run with arrival rates on a
# grid file whose map has a parking cell.
EVERY_FIELD = {
    "steps": 3, "walkers": 4, "drivers": 2, "obstruction": 0.05,
    "profiles": {
        "walker": {"w": 2, "max_speed": 0.75},
        "driver": {"w": [2, 4], "alpha": 2, "max_speed": 3.0},
    },
    "collision_countdown": 7,
    "sensing": {"lookahead": 3, "radius": 1.25, "yield_radius": 2.0},
    "accel": 0.5, "decel": 1.5, "seed": 5,
    "layout": {"blocks_x": 2, "blocks_y": 1, "block_side": 11, "lanes_per_direction": 1},
}
EVERY_FIELD_GRID = {
    "steps": 2, "walker_rate": 0.5, "driver_rate": 0.25, "reactivation_prob": 0.1,
    "grid": "map.grid", "obstacles": "obs.txt",
}


def write_parking_strip(tmp_path):
    """A sidewalk cell, two road cells and a parking cell, with an obstacle
    on the sidewalk cell."""
    (tmp_path / "map.grid").write_text("4 1\ns-- rE- rE- pE-\n")
    (tmp_path / "obs.txt").write_text("0 0\n")


def test_a_scenario_reactivating_with_every_parking_cell_obstructed_exits_2(tmp_path):
    write_parking_strip(tmp_path)
    (tmp_path / "obs.txt").write_text("0 0\n3 0\n")  # the strip's one parking cell too
    config = write_config(tmp_path, EVERY_FIELD_GRID)  # reactivation_prob 0.1
    with pytest.raises(ConfigError, match="^reactivation_prob: the map has no unobstructed"):
        load_config(config)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: reactivation_prob: ")
    assert not out.exists()


def test_sim_fields_name_every_simconfig_field_once():
    names = [name for _, name, _ in _SIM_FIELDS]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(SimConfig))
    paths = [path for path, _, _ in _SIM_FIELDS]
    assert len(set(paths)) == len(paths)


def test_nested_paths_name_simconfig_fields():
    # a path left behind by a renamed field would be silently ignored
    names = {f.name for f in dataclasses.fields(SimConfig)}
    assert sorted(set(_NESTED_PATHS) - names) == []


def test_every_field_docs_set_every_simconfig_field(tmp_path):
    write_parking_strip(tmp_path)
    sims = [load_config(write_config(tmp_path, doc)).sim for doc in (EVERY_FIELD, EVERY_FIELD_GRID)]
    defaults = SimConfig()
    for f in dataclasses.fields(SimConfig):
        assert any(getattr(sim, f.name) != getattr(defaults, f.name) for sim in sims), f.name


@pytest.mark.parametrize("doc, digest", [
    (EVERY_FIELD, "4728bef18d4c43bd80ec6644f3146e242492eec3f035738a2392e9a96c1cef31"),
    (EVERY_FIELD_GRID, "30554718825557dbbbe6aacffa327f6059c788c4261e7ebd27b5b1aa48e071cc"),
    ({"steps": 2, "grid": "map.grid", "obstacles": "obs.txt"},
     "9814ba5ec4fa9dc27eefbf4ad56b9a078d5a9ad5a973b090532e5c11cecd00aa"),
    # floats whose repr has no "." (1e-05, 1e-07), which YAML writes 1.0e-05
    ({"steps": 2, "walkers": 2, "drivers": 1, "obstruction": 0.00001,
      "profiles": {"driver": {"alpha": [0.0, 1.0e-07]}}, "seed": -4,
      "layout": {"blocks_x": 1, "blocks_y": 1}},
     "4c9448c6f99fd32c5c61c3de239016f99b20f5391f9ba5875fc5303d7d8cace2"),
], ids=["every_field", "every_field_grid", "grid_file", "exponent_floats"])
def test_echoed_config_bytes_are_pinned(tmp_path, doc, digest):
    write_parking_strip(tmp_path)
    scenario = load_config(write_config(tmp_path, doc))
    execute_run(scenario, tmp_path / "out")
    echoed = tmp_path / "out" / "config.yaml"
    assert hashlib.sha256(echoed.read_bytes()).hexdigest() == digest
    assert load_config(echoed).sim == scenario.sim


def _floats(low=0.0, high=None, above_low=False):
    """Finite floats from ``low`` (or above it) to ``high``, with the ones
    hardest to write among them: -0.0, a subnormal and exponents."""
    hard = [v for v in (-0.0, 5e-324, 1e-05, 1e16)
            if (v > low if above_low else v >= low) and (high is None or v <= high)]
    return st.sampled_from(hard) | st.floats(
        min_value=low, max_value=high, exclude_min=above_low,
        allow_nan=False, allow_infinity=False)


def _ints(low=1):
    return st.integers(min_value=low, max_value=2**70)


def _ranges(values):
    return st.tuples(values, values).map(sorted).map(tuple)


@st.composite
def _sim_configs(draw):
    # a run sets population targets or arrival rates, not both
    targets = draw(st.booleans())
    counts = _ints(0) if targets else st.just(0)
    rates = st.just(0.0) if targets else _floats()
    return SimConfig(
        steps=draw(_ints()), walkers=draw(counts), drivers=draw(counts),
        obstruction=draw(_floats(high=1.0)),
        walker_rate=draw(rates), driver_rate=draw(rates),
        walker_w=draw(_ranges(_ints())), driver_w=draw(_ranges(_ints())),
        driver_alpha=draw(_ranges(_floats())),
        walker_max_speed=draw(_floats(above_low=True)),
        driver_max_speed=draw(_floats(above_low=True)),
        collision_countdown=draw(_ints()), lookahead=draw(_ints()),
        sense_radius=draw(_floats(above_low=True)),
        yield_radius=draw(_floats(above_low=True)),
        accel=draw(_floats(above_low=True)), decel=draw(_floats(above_low=True)),
        reactivation_prob=draw(_floats(high=1.0)),
        seed=draw(st.integers(min_value=-2**70, max_value=2**70)),
    )


# a small layout, so that load_config builds its map quickly
_LAYOUTS = st.builds(LayoutSpec, blocks_x=st.integers(1, 3), blocks_y=st.integers(1, 3),
                     block_side=st.integers(3, 12), lanes_per_direction=st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(sim=_sim_configs(), layout=st.none() | _LAYOUTS, obstacles=st.booleans())
def test_echoed_config_is_what_pyyaml_writes_and_reloads(sim, layout, obstacles):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_parking_strip(tmp)
        if layout is None:
            scenario = Scenario(sim, grid_path=tmp / "map.grid",
                                obstacles_path=tmp / "obs.txt" if obstacles else None)
        else:  # a layout has no parking cell, which reactivation needs
            scenario = Scenario(dataclasses.replace(sim, reactivation_prob=0.0), layout)
        out = tmp / "out"
        out.mkdir()
        _echo_config(scenario, out)
        echoed = out / "config.yaml"
        assert echoed.read_text(encoding="utf-8") == yaml.safe_dump(
            effective_config_dict(scenario), sort_keys=True, default_flow_style=False)
        assert load_config(echoed).sim == scenario.sim


# -- single run -------------------------------------------------------------------


def test_execute_run_writes_outputs_and_echo(tmp_path):
    scenario = load_config(write_config(tmp_path, MINIMAL))
    out = tmp_path / "out"
    result = execute_run(scenario, out)
    assert (out / "metrics.csv").is_file()
    assert (out / "events.csv").is_file()
    assert (out / "config.yaml").is_file()
    assert len(result.frames) == 5


@pytest.mark.parametrize("doc, seed", [
    # run at a seed other than its file's: the echo holds the seed run
    ({"steps": 20, "walkers": 6, "drivers": 4, "obstruction": 0.05,
      "layout": {"blocks_x": 2, "blocks_y": 1}, "profiles": {"walker": {"w": [1, 3]}},
      "seed": 13}, 99),
    # rates and no targets: config.yaml names no spawn mode, so its reload
    # must still take arrivals
    ({"steps": 20, "walker_rate": 0.5, "driver_rate": 0.3, "obstruction": 0.05,
      "layout": {"blocks_x": 2, "blocks_y": 1}, "seed": 13}, 13),
    # a grid file with its gen-map obstacle sidecar, which the run copies next
    # to its config.yaml
    ({"steps": 20, "walkers": 6, "drivers": 4, "grid": "city.grid",
      "obstacles": "city.grid.obstacles", "seed": 13}, 13),
    # floats whose repr has no ".", and a negative seed
    ({"steps": 2, "walkers": 2, "drivers": 1, "obstruction": 0.00001,
      "profiles": {"driver": {"alpha": [0.0, 1.0e-07]}}, "layout": {"blocks_x": 1, "blocks_y": 1},
      "seed": -4}, -4),
], ids=["walker_w_range", "arrivals", "grid_file", "exponent_floats"])
def test_echoed_config_reproduces_run_exactly(tmp_path, doc, seed):
    if "grid" in doc:
        result = CliRunner().invoke(main, [
            "gen-map", "--blocks-x", "2", "--blocks-y", "1", "--obstruction", "0.05",
            "--seed", "3", "--out", str(tmp_path / "city.grid")])
        assert result.exit_code == 0, result.output
    scenario = load_config(write_config(tmp_path, doc))
    first = tmp_path / "first"
    execute_run(with_sim(scenario, seed=seed), first)
    echoed = load_config(first / "config.yaml")
    assert echoed.sim.seed == seed
    second = tmp_path / "second"
    execute_run(echoed, second)
    for name in RUN_CSVS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_a_scenario_of_numpy_numbers_runs_as_one_of_python_numbers(tmp_path):
    # a numpy number is stored as a Python one, so it seeds a run and its
    # config.yaml holds plain numbers
    sim = SimConfig(steps=8, walkers=4, drivers=3, obstruction=0.05, walker_w=(1, 3),
                    driver_w=(1, 5), driver_alpha=(0.5, 1.0), walker_max_speed=1.5,
                    driver_max_speed=2.5, collision_countdown=3, lookahead=3,
                    sense_radius=1.2, yield_radius=2.0, accel=0.5, decel=1.5, seed=3)

    def numpy(value):
        if isinstance(value, tuple):
            return tuple(map(numpy, value))
        return np.int64(value) if isinstance(value, int) else np.float64(value)

    python = Scenario(sim=sim, layout=LayoutSpec(blocks_x=2), sweep={"obstruction": [0.0, 0.1]},
                      seeds=[3])
    scenarios = {
        "python": python,
        "numpy": Scenario(
            sim=SimConfig(**{f.name: numpy(getattr(sim, f.name))
                             for f in dataclasses.fields(SimConfig)}),
            layout=LayoutSpec(**{name: numpy(value)
                                 for name, value in dataclasses.asdict(python.layout).items()}),
            sweep={"obstruction": list(map(numpy, python.sweep["obstruction"]))},
            seeds=list(map(numpy, python.seeds))),
    }
    assert type(scenarios["numpy"].seeds[0]) is int
    for name, scenario in scenarios.items():
        execute_run(scenario, tmp_path / name / "run")
        execute_sweep(scenario, tmp_path / name / "sweep")
    files = sorted(p.relative_to(tmp_path / "python")
                   for p in (tmp_path / "python").rglob("*") if p.is_file())
    assert len(files) == 3 * (len(RUN_CSVS) + 1) + 1  # a run, two sweep runs, summary.csv
    for name in files:
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes()
    assert load_config(tmp_path / "numpy" / "run" / "config.yaml").sim == sim


def test_run_command_cli(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    runner = CliRunner()
    result = runner.invoke(
        main, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 0, result.output
    assert "completed 5 steps" in result.output


def test_run_command_bad_config_exits_2(tmp_path):
    config = write_config(tmp_path, {"steps": 5})
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    config = write_config(tmp_path, MINIMAL)
    result = runner.invoke(
        main, ["run", "--config", str(config), "--steps", "0", "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert not (tmp_path / "o").exists()


def test_run_command_seed_and_steps_match_the_same_values_in_the_file(tmp_path):
    doc = dict(MINIMAL, drivers=2)
    runner = CliRunner()
    given = runner.invoke(main, [
        "run", "--config", str(write_config(tmp_path, doc)),
        "--out", str(tmp_path / "given"), "--seed", "9", "--steps", "4"])
    assert given.exit_code == 0, given.output
    written = write_config(tmp_path, dict(doc, seed=9, steps=4), "written.yaml")
    result = runner.invoke(main, ["run", "--config", str(written),
                                  "--out", str(tmp_path / "written")])
    assert result.exit_code == 0, result.output
    assert given.output == result.output
    assert result.output.startswith("completed 4 steps; ")
    names = sorted(RUN_CSVS + ("config.yaml",))
    assert sorted(p.name for p in (tmp_path / "given").iterdir()) == names
    for name in names:
        given, written = (tmp_path / "given" / name), (tmp_path / "written" / name)
        assert given.read_bytes() == written.read_bytes(), name


def test_build_grid_reuses_the_last_generated_layout(tmp_path):
    scenario = load_config(write_config(tmp_path, MINIMAL))
    grid = build_grid(scenario)
    assert build_grid(scenario) is grid
    other = dataclasses.replace(scenario, layout=LayoutSpec(blocks_x=2, blocks_y=1))
    assert build_grid(other) is not grid
    assert build_grid(other) is build_grid(other)


def test_pinned_run_after_another_obstruction_of_its_layout(tmp_path):
    # the pinned city run, in a process whose cached layout already planned
    # under another obstacle overlay, still writes the pinned CSVs
    _, config, expected = SCENARIOS["city_200w_100d"]
    scenario = Scenario(
        sim=config, layout=LayoutSpec(blocks_x=5, blocks_y=5), grid_path=None,
        obstacles_path=None,
    )
    execute_run(with_sim(scenario, steps=5, obstruction=0.10), tmp_path / "other")
    execute_run(scenario, tmp_path / "pinned")
    digests = {
        name: hashlib.sha256((tmp_path / "pinned" / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert digests == expected


RUN_CSVS = ("metrics.csv", "events.csv", "heatmap_driver_occupancy.csv",
            "heatmap_driver_speed.csv", "heatmap_walker_occupancy.csv", "heatmap_jaywalk.csv")


@pytest.mark.parametrize("source", ["layout", "grid_file"])
def test_a_run_writes_the_same_bytes_whatever_ran_before_it(tmp_path, source):
    # the 4-walker point at seed 1 plans the first 4 of the 6-walker point's
    # walkers, and its plans stay remembered on the cached map, generated or
    # read from a grid file and an obstacle list
    import gridcity.cli as cli_mod

    doc = {"steps": 20, "walkers": 4, "drivers": 2, "seed": 1,
           "layout": {"blocks_x": 2, "blocks_y": 1}}
    if source == "grid_file":
        spec = LayoutSpec(**doc.pop("layout"))
        city = place_obstacles(generate_layout(spec), 0.05, random.Random(3))
        (tmp_path / "map.grid").write_text(serialize_grid(city))
        (tmp_path / "obs.txt").write_text(serialize_obstacle_list(city.obstacles))
        doc.update(grid="map.grid", obstacles="obs.txt")
    scenario = load_config(write_config(tmp_path, doc))
    execute_run(scenario, tmp_path / "before")
    grid = build_grid(scenario)
    assert build_grid(scenario) is grid
    assert grid.layout_table("plans", dict)
    execute_run(with_sim(scenario, walkers=6), tmp_path / "after")
    cli_mod._base_grid.cache_clear()
    assert build_grid(scenario) is not grid
    execute_run(with_sim(scenario, walkers=6), tmp_path / "fresh")
    for name in RUN_CSVS:
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    if source == "grid_file":  # a file rewritten at the same path is read anew
        grid = build_grid(scenario)
        (tmp_path / "map.grid").write_text(
            serialize_grid(generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))))
        (tmp_path / "obs.txt").write_text("")
        rewritten = build_grid(scenario)
        assert rewritten.width < grid.width and not rewritten.obstacles


def test_a_grid_file_run_reruns_in_place(tmp_path):
    # the run copies map.grid and obstacles.txt next to its config.yaml, so a
    # re-run from that config into the same directory copies each onto itself
    city = place_obstacles(generate_layout(LayoutSpec(blocks_x=1, blocks_y=1)), 0.05,
                           random.Random(3))
    (tmp_path / "map.grid").write_text(serialize_grid(city))
    (tmp_path / "obs.txt").write_text(serialize_obstacle_list(city.obstacles))
    doc = {"steps": 10, "walkers": 3, "drivers": 2, "seed": 1,
           "grid": "map.grid", "obstacles": "obs.txt"}
    first = tmp_path / "first"
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(write_config(tmp_path, doc)),
                                  "--out", str(first)])
    assert result.exit_code == 0, result.output
    before = {p.name: p.read_bytes() for p in first.iterdir()}
    result = runner.invoke(main, ["run", "--config", str(first / "config.yaml"),
                                  "--out", str(first)])
    assert result.exit_code == 0, result.output
    assert {p.name: p.read_bytes() for p in first.iterdir()} == before


def test_steps_override(tmp_path):
    scenario = load_config(write_config(tmp_path, MINIMAL))
    result = execute_run(with_sim(scenario, steps=3), tmp_path / "o")
    assert len(result.frames) == 3


# -- sweeps -----------------------------------------------------------------------


def sweep_doc():
    return {
        "steps": 6,
        "walkers": 3,
        "drivers": 0,
        "layout": {"blocks_x": 1, "blocks_y": 1},
        "sweep": {"walkers": [2, 4]},
        "seeds": [1, 2, 3],
    }


def test_sweep_creates_run_directories_and_summary(tmp_path):
    scenario = load_config(write_config(tmp_path, sweep_doc()))
    out = tmp_path / "sweep"
    points, outcomes = execute_sweep(scenario, out)
    assert len(points) == 2
    assert len(outcomes) == 6
    assert all(o.ok for o in outcomes)
    for point in points:
        for seed in (1, 2, 3):
            run_dir = out / point_label(point, scenario.sim) / f"seed{seed}"
            assert (run_dir / "metrics.csv").is_file()
            assert (run_dir / "config.yaml").is_file()
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + one row per point
    assert summary[0].startswith("walkers,drivers,obstruction,seeds,")


# a sweep with a point without drivers (empty speed columns), points with and
# without obstacles, and three seeds, so every column has a mean and a std
PINNED_SUMMARY = """\
walkers,drivers,obstruction,seeds,mean_driver_speed_mean,mean_driver_speed_std,\
jaywalk_entries_mean,jaywalk_entries_std,collisions_vv_mean,collisions_vv_std,\
runovers_mean,runovers_std
20,0,0,3,,,0.0,0.0,0.0,0.0,0.0,0.0
20,0,0.1,3,,,49.333333333333336,14.46835627614047,0.0,0.0,0.0,0.0
20,12,0,3,1.5298611111111111,0.1407805209984414,0.3333333333333333,0.5773502691896257,\
1.6666666666666667,2.0816659994661326,0.3333333333333333,0.5773502691896257
20,12,0.1,3,1.5166666666666666,0.06009252125773316,42.0,13.114877048604,\
1.3333333333333333,1.1547005383792515,0.6666666666666666,1.1547005383792515
"""


def test_sweep_summary_bytes_are_pinned(tmp_path):
    scenario = Scenario(
        sim=SimConfig(steps=40, walkers=20), layout=LayoutSpec(blocks_x=2, blocks_y=1),
        grid_path=None, obstacles_path=None,
        sweep={"drivers": [0, 12], "obstruction": [0.0, 0.1]}, seeds=[1, 2, 3],
    )
    execute_sweep(scenario, tmp_path)
    assert (tmp_path / "summary.csv").read_bytes() == PINNED_SUMMARY.encode()


def test_a_sweep_writes_the_same_bytes_with_one_worker_with_two_and_over_its_grid_file(
        tmp_path):
    # 16 points of a nested and three stem axes, over two shared seeds
    body = {"steps": 20, "seeds": [1, 2], "sweep": {
        "walkers": [4, 6], "drivers": [2, 4], "obstruction": [0, 0.1],
        "profiles.walker.w": [[1, 1], [3, 3]]}}
    result = CliRunner().invoke(main, ["gen-map", "--blocks-x", "2", "--blocks-y", "1",
                                       "--out", str(tmp_path / "city.grid")])
    assert result.exit_code == 0, result.output
    layout = load_config(write_config(tmp_path, dict(body, layout={"blocks_x": 2, "blocks_y": 1})))
    grid = load_config(write_config(tmp_path, dict(body, grid="city.grid"), "grid.yaml"))
    outputs = {}
    for name, scenario, parallel in [("one", layout, 1), ("two", layout, 2), ("grid", grid, 2)]:
        out = tmp_path / name
        _, outcomes = execute_sweep(scenario, out, parallel=parallel)
        assert len(outcomes) == 32 and all(o.ok for o in outcomes)
        outputs[name] = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*.csv")}
    assert len(outputs["one"]) == 32 * len(RUN_CSVS) + 1  # and summary.csv
    assert outputs["two"] == outputs["one"]
    assert outputs["grid"] == outputs["one"]
    # a swept run again, alone, from the config.yaml the sweep wrote for it
    swept = tmp_path / "one" / "w6_d4_o10_walker_w3-3" / "seed2"
    execute_run(load_config(swept / "config.yaml"), tmp_path / "alone")
    for name in RUN_CSVS:
        assert (tmp_path / "alone" / name).read_bytes() == (swept / name).read_bytes(), name


@pytest.fixture
def in_process_runner(monkeypatch):
    """Replaces the sweep's fork runner (``_fork_runs``) by one that runs the
    tasks here and records the worker count asked for and the task list it
    receives."""
    import gridcity.cli as cli_mod

    record = {"sizes": [], "tasks": []}

    def in_process(tasks, workers):
        record["sizes"].append(workers)
        record["tasks"].append(list(tasks))
        return list(itertools.starmap(cli_mod._run_task, tasks))

    monkeypatch.setattr(cli_mod, "_fork_runs", in_process)
    return record


def test_sweep_starts_no_more_workers_than_runs(tmp_path, in_process_runner):
    sizes = in_process_runner["sizes"]
    scenario = load_config(write_config(tmp_path, dict(sweep_doc(), seeds=[1])))
    execute_sweep(scenario, tmp_path / "eight", parallel=8)
    assert sizes == [2]
    execute_sweep(scenario, tmp_path / "one", parallel=1)
    assert sizes == [2]
    assert ((tmp_path / "eight" / "summary.csv").read_bytes()
            == (tmp_path / "one" / "summary.csv").read_bytes())


@pytest.mark.parametrize("parallel", [0, -1, 2.5, True])
def test_sweep_refuses_a_parallel_that_is_no_positive_integer(tmp_path, parallel):
    scenario = load_config(write_config(tmp_path, sweep_doc()))
    with pytest.raises(ValueError, match="^parallel must be"):
        execute_sweep(scenario, tmp_path / "s", parallel=parallel)
    assert not (tmp_path / "s").exists()


def test_sweep_refuses_a_parallel_above_1_without_os_fork(tmp_path, monkeypatch):
    scenario = load_config(write_config(tmp_path, sweep_doc()))
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="needs os.fork"):
        execute_sweep(scenario, tmp_path / "s", parallel=2)
    assert not (tmp_path / "s").exists()


def test_sweep_refuses_an_out_dir_it_cannot_make_before_any_run(tmp_path, monkeypatch):
    import gridcity.cli as cli_mod

    scenario = load_config(write_config(tmp_path, sweep_doc()))
    (tmp_path / "taken").write_text("")
    tasks = []
    monkeypatch.setattr(cli_mod, "_run_task", lambda *task: tasks.append(task))
    with pytest.raises(OSError):
        execute_sweep(scenario, tmp_path / "taken")
    assert tasks == []


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_sweep_run_that_cannot_make_its_directory_fails_alone(tmp_path, parallel):
    config = write_config(tmp_path, dict(MINIMAL, sweep={"walkers": [2, 3]}))
    scenario = load_config(config)
    out = tmp_path / "out"
    out.mkdir()
    (out / "w2_d0_o0").write_text("")  # a regular file where the run's directory goes
    _, outcomes = execute_sweep(scenario, out, parallel=parallel)
    assert [o.ok for o in outcomes] == [False, True]
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[:4] for line in summary[1:]] == [
        ["2", "0", "0", "0"], ["3", "0", "0", "1"]
    ]
    names = ["metrics", "events", "heatmap_driver_occupancy", "heatmap_driver_speed",
             "heatmap_walker_occupancy", "heatmap_jaywalk"]
    for name in names:
        assert (out / "w3_d0_o0" / "seed1" / f"{name}.csv").is_file()
    # the sweep command exits 1 and names the failed run in one line
    result = CliRunner().invoke(main, ["sweep", "--config", str(config), "--out", str(out),
                                       "--parallel", str(parallel)])
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("failed: w2_d0_o0 seed 1: ")
    assert (out / "summary.csv").read_text().splitlines() == summary


def _output_of_fresh_interpreter(code: str, *args: str, timeout: float = 30) -> str:
    """What a fresh interpreter prints running ``code`` with ``args`` as
    ``sys.argv[1:]``; it runs in a process group of its own, which is killed
    whole when it outlasts ``timeout`` seconds, its workers included."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err
    return out


def _dying_worker_sweep(steps: int, walkers: list, seeds: list, dies: tuple,
                        mid_report: bool = False) -> str:
    """The code of a ``walkers`` x ``seeds`` sweep of ``steps``-step runs on two
    workers, whose run at ``dies``, a (walkers, seed) pair, ends its worker
    with exit status 3: before the run, or after the run and half its report
    when ``mid_report``.  It prints its outcomes, its summary, whether a child
    process is left, the exceptions its reads of a report raised, and its
    descriptors before and after the sweep (None without ``/proc/self/fd``),
    as JSON, and takes its out directory as its one argument."""
    return f"""
import json, os, pickle, sys, types
from pathlib import Path
import gridcity.cli as cli
from gridcity import LayoutSpec, SimConfig

run_task = cli._run_task
raised = []

def dying(scenario, point, seed, out_dir):
    if (point["walkers"], seed) == {dies!r}:
        os._exit(3)
    return run_task(scenario, point, seed, out_dir)

def dump(outcome, out):
    data = pickle.dumps(outcome)
    if (outcome.point["walkers"], outcome.seed) == {dies!r}:
        out.write(data[:len(data) // 2])
        out.flush()
        os._exit(3)
    out.write(data)

def load(report):
    try:
        return pickle.load(report)
    except Exception as exc:
        raised.append(type(exc).__name__)
        raise

def descriptors():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

if {mid_report!r}:
    cli.pickle = types.SimpleNamespace(dump=dump, load=load,
                                       UnpicklingError=pickle.UnpicklingError)
else:
    cli._run_task = dying
scenario = cli.Scenario(SimConfig(steps={steps}, walkers=2, drivers=0),
                        LayoutSpec(blocks_x=1, blocks_y=1),
                        sweep={{"walkers": {walkers!r}}}, seeds={seeds!r})
out = Path(sys.argv[1])
before = descriptors()
_, outcomes = cli.execute_sweep(scenario, out, parallel=2)
after = descriptors()
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "none"
print(json.dumps({{
    "outcomes": [[o.point["walkers"], o.seed, o.ok, o.error] for o in outcomes],
    "summary": (out / "summary.csv").read_text(),
    "left": left,
    "raised": raised,
    "descriptors": [before, after],
}}))
"""


def _one_of_four_runs_lost(out: Path, mid_report: bool) -> dict:
    """The JSON of a sweep of four runs on two workers, one of which ends its
    worker with exit status 3 (``_dying_worker_sweep``), checked: that run
    alone fails, naming the status in its error and its ``error.txt``, the
    summary counts the other three, no child is left and no descriptor is
    left open."""
    code = _dying_worker_sweep(3, [2, 3], [1, 2], (3, 1), mid_report)
    done = json.loads(_output_of_fresh_interpreter(code, str(out)))
    outcomes = {(walkers, seed): (ok, error) for walkers, seed, ok, error in done["outcomes"]}
    assert len(outcomes) == 4
    ok, error = outcomes.pop((3, 1))
    assert not ok and "status 3" in error
    assert all(ok for ok, _ in outcomes.values())
    assert [line.split(",")[:4] for line in done["summary"].splitlines()[1:]] == [
        ["2", "0", "0", "2"], ["3", "0", "0", "1"]
    ]
    assert "status 3" in (out / "w3_d0_o0" / "seed1" / "error.txt").read_text()
    assert done["left"] == "none"
    before, after = done["descriptors"]
    assert before == after
    return done


def test_a_sweep_worker_that_dies_fails_its_runs_and_the_sweep_returns(tmp_path):
    _one_of_four_runs_lost(tmp_path / "out", mid_report=False)


def test_a_sweep_worker_that_dies_mid_report_fails_only_that_run(tmp_path):
    # the run's outputs are written, but half its pickled outcome reaches the
    # sweep, which reads it as a worker that has ended
    done = _one_of_four_runs_lost(tmp_path / "out", mid_report=True)
    assert "UnpicklingError" in done["raised"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_forked_sweep_leaves_its_process_no_open_descriptor(tmp_path):
    scenario = Scenario(SimConfig(steps=2, walkers=2, drivers=0),
                        LayoutSpec(blocks_x=1, blocks_y=1),
                        sweep={"walkers": [2, 3]}, seeds=[1, 2])
    before = sorted(os.listdir("/proc/self/fd"))
    _, outcomes = execute_sweep(scenario, tmp_path / "out", parallel=2)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(outcomes) == 4 and all(o.ok for o in outcomes)


def test_a_sweep_worker_that_dies_costs_only_the_run_it_was_on(tmp_path):
    # the dying run is the third of the first worker's share of four; a new
    # worker takes over the fourth, unless the other worker has taken it
    out = tmp_path / "out"
    code = _dying_worker_sweep(2, [2, 3, 4], [1, 2, 3], (4, 1))
    done = json.loads(_output_of_fresh_interpreter(code, str(out)))
    outcomes = {(walkers, seed): (ok, error) for walkers, seed, ok, error in done["outcomes"]}
    assert len(outcomes) == 9
    ok, error = outcomes.pop((4, 1))
    assert not ok and "status 3" in error
    assert all(ok for ok, _ in outcomes.values())
    assert "status 3" in (out / "w4_d0_o0" / "seed1" / "error.txt").read_text()
    assert done["left"] == "none"


def test_a_sweep_that_fails_itself_kills_and_reaps_its_workers(tmp_path):
    # the sweep fails on its first report, one worker's 1-step run; unkilled,
    # the other worker would outlast the timeout on its 100000-step run
    code = """
import os, pickle, sys, types
import gridcity.cli as cli
from gridcity import LayoutSpec, SimConfig

def unreadable(report):
    raise RuntimeError("unreadable report")

cli.pickle = types.SimpleNamespace(dump=pickle.dump, load=unreadable,
                                   UnpicklingError=pickle.UnpicklingError)
scenario = cli.Scenario(SimConfig(steps=100000, walkers=20, drivers=5), LayoutSpec(),
                        sweep={"steps": [1, 100000]})
try:
    cli.execute_sweep(scenario, sys.argv[1], parallel=2)
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("none")
"""
    assert _output_of_fresh_interpreter(code, str(tmp_path / "out")).splitlines() == [
        "unreadable report", "none"
    ]


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("sim, sweep", [
    (SimConfig(steps=2, drivers=1, reactivation_prob=0.5), {"walkers": [1, 2]}),
    (SimConfig(steps=2, drivers=1), {"reactivation_prob": [0.0, 0.5]}),
], ids=["scenario", "point"])
def test_a_sweep_its_map_cannot_run_is_refused_before_anything_is_written(
        tmp_path, sim, sweep, parallel):
    # a generated layout has no parking cell, so no point may reactivate
    scenario = Scenario(sim, LayoutSpec(), sweep=sweep)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^reactivation_prob: the map has no unobstructed"):
        execute_sweep(scenario, out, parallel=parallel)
    assert not out.exists()


def test_a_sweep_of_a_nested_field_runs_what_run_runs(tmp_path):
    # the walker weight, the behavioural axis, on the jaywalking-trend layout
    layout = {"blocks_x": 2, "blocks_y": 2}
    doc = {"steps": 100, "walkers": 50, "obstruction": 0.05, "layout": layout,
           "sweep": {"profiles.walker.w": [[1, 1], [3, 3], [5, 5]]}, "seeds": [1, 2]}
    out = tmp_path / "sweep"
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.output == "3 sweep points, 6 runs, 0 failed\n"
    grid = generate_layout(LayoutSpec(**layout))
    for w in (1, 3, 5):
        for seed in (1, 2):
            sim = SimConfig(steps=100, walkers=50, obstruction=0.05, walker_w=(w, w), seed=seed)
            alone = tmp_path / "alone" / f"w{w}" / f"seed{seed}"
            export_run(run(sim, grid), alone)
            for name in RUN_CSVS:
                swept = out / f"w50_d0_o5_walker_w{w}-{w}" / f"seed{seed}" / name
                assert swept.read_bytes() == (alone / name).read_bytes(), (w, seed, name)
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header.endswith(",runovers_mean,runovers_std,walker_w")
    assert [row.rsplit(",", 1)[1] for row in rows] == ["1-1", "3-3", "5-5"]


def test_sweep_takes_a_numpy_integer_parallel_like_an_int(tmp_path, in_process_runner):
    scenario = load_config(write_config(tmp_path, sweep_doc()))
    execute_sweep(scenario, tmp_path / "s", parallel=np.int64(2))
    assert in_process_runner["sizes"] == [2]


def test_sweep_runs_seed_by_seed_then_obstruction_by_obstruction(
        tmp_path, monkeypatch, in_process_runner):
    import gridcity.cli as cli_mod

    ran = []
    run_task = cli_mod._run_task

    def recording(scenario, point, seed, out_dir):
        ran.append((seed, point["obstruction"], point["walkers"]))
        return run_task(scenario, point, seed, out_dir)

    monkeypatch.setattr(cli_mod, "_run_task", recording)
    doc = dict(MINIMAL, steps=3,
               sweep={"walkers": [2, 4], "obstruction": [0, 0.1]}, seeds=[1, 2])
    scenario = load_config(write_config(tmp_path, doc))
    expected = [(seed, obstruction, walkers) for seed in (1, 2)
                for obstruction in (0, 0.1) for walkers in (2, 4)]

    points, outcomes = execute_sweep(scenario, tmp_path / "serial")
    assert ran == expected
    assert [(o.point, o.seed) for o in outcomes] == [(p, s) for p in points for s in (1, 2)]
    assert all(o.ok for o in outcomes)

    ran.clear()
    points, outcomes = execute_sweep(scenario, tmp_path / "pool", parallel=2)
    assert in_process_runner["sizes"] == [2]
    [tasks] = in_process_runner["tasks"]
    assert [(seed, point["obstruction"], point["walkers"])
            for _, point, seed, _ in tasks] == expected
    assert ran == expected
    assert [(o.point, o.seed) for o in outcomes] == [(p, s) for p in points for s in (1, 2)]
    assert ((tmp_path / "serial" / "summary.csv").read_bytes()
            == (tmp_path / "pool" / "summary.csv").read_bytes())


def test_forked_workers_take_the_runs_in_consecutive_shares(tmp_path, monkeypatch):
    import gridcity.cli as cli_mod

    log = tmp_path / "ran.txt"
    run_task = cli_mod._run_task
    order = [(seed, walkers) for seed in (1, 2, 3) for walkers in (2, 3, 4)]

    def started() -> list:
        return [(int(pid), int(k)) for pid, k in map(str.split, log.read_text().splitlines())]

    def logging(scenario, point, seed, out_dir):
        k = order.index((seed, point["walkers"]))
        with open(log, "a", encoding="utf-8") as fh:  # one short append per run
            fh.write(f"{os.getpid()} {k}\n")
        # the second worker's first run lasts until the first worker has
        # taken run 8 from the back of the second worker's share
        waited = 0
        while k == 4 and 8 not in [j for _, j in started()] and waited < 3000:
            time.sleep(0.01)
            waited += 1
        return run_task(scenario, point, seed, out_dir)

    monkeypatch.setattr(cli_mod, "_run_task", logging)
    doc = dict(MINIMAL, steps=2, sweep={"walkers": [2, 3, 4]}, seeds=[1, 2, 3])
    _, outcomes = execute_sweep(load_config(write_config(tmp_path, doc)), tmp_path / "s",
                                parallel=2)
    assert all(o.ok for o in outcomes)
    ran = started()
    assert sorted(k for _, k in ran) == list(range(9))
    worker = {k: pid for pid, k in ran}
    assert worker[0] != worker[4]
    # worker k of 2 runs its share [9k // 2, 9(k + 1) // 2) from the front, in
    # task order, and once it is done takes the other share's runs from the back
    assert [k for pid, k in ran if pid == worker[0]][:5] == [0, 1, 2, 3, 8]
    for pid, share in ((worker[0], range(4)), (worker[4], range(4, 9))):
        mine = [k for p, k in ran if p == pid]
        own = [k for k in mine if k in share]
        assert own == list(share[:len(own)])
        assert mine == own + sorted(set(mine) - set(own), reverse=True)


def overfull_obstruction_config(tmp_path, sweep=None):
    """A grid-file scenario on the 1x1-block layout whose obstacle list holds
    3 of its 56 sidewalk cells, so an obstruction of 1.0 cannot be placed."""
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    (tmp_path / "map.grid").write_text(serialize_grid(grid), encoding="utf-8")
    sidewalks = sorted(
        (i % grid.width, i // grid.width)
        for i, g in enumerate(grid.ground) if g == GroundType.SIDEWALK
    )
    assert len(sidewalks) == 56
    (tmp_path / "obstacles.txt").write_text(
        "".join(f"{x} {y}\n" for x, y in sidewalks[:3]), encoding="utf-8"
    )
    doc = {"steps": 3, "walkers": 2, "grid": "map.grid", "obstacles": "obstacles.txt",
           "seeds": [1]}
    if sweep is not None:
        doc["sweep"] = sweep
    else:
        doc["obstruction"] = 1.0
    return write_config(tmp_path, doc)


OVERFULL = "cannot obstruct 56 sidewalk cells, only 53 free"


def test_sweep_command_reports_a_failed_point_and_exits_1(tmp_path):
    config = overfull_obstruction_config(tmp_path, sweep={"obstruction": [0, 1.0]})
    out = tmp_path / "sweep"
    result = CliRunner().invoke(main, ["sweep", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert "2 sweep points, 2 runs, 1 failed" in result.stdout
    assert f"failed: w2_d0_o100 seed 1: {OVERFULL}\n" in result.stderr
    error = (out / "w2_d0_o100" / "seed1" / "error.txt").read_text()
    assert OVERFULL in error
    assert "Traceback (most recent call last)" in error  # imported only when a run fails
    assert (out / "w2_d0_o0" / "seed1" / "metrics.csv").is_file()
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[:4] for line in summary[1:]] == [
        ["2", "0", "0", "1"], ["2", "0", "1", "0"]
    ]


def test_run_command_reports_a_failed_run_and_exits_1(tmp_path):
    config = overfull_obstruction_config(tmp_path)
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1
    assert result.stderr == f"run failed: {OVERFULL}\n"


def test_run_command_prints_at_most_five_warnings(tmp_path):
    # 40 drivers on the 16 driver sites of a 1x1-block city: most spawns fail
    doc = {"steps": 3, "drivers": 40, "layout": {"blocks_x": 1, "blocks_y": 1}, "seed": 1}
    config = write_config(tmp_path, doc)
    assert len(execute_run(load_config(config), tmp_path / "api").warnings) > 5
    result = CliRunner().invoke(
        main, ["run", "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 0, result.output
    warnings = [ln for ln in result.stderr.splitlines() if ln.startswith("warning: ")]
    assert len(warnings) == 5
    assert warnings[0].endswith("could not spawn a driver (sites exhausted)")


def test_sweep_command_rejects_malformed_seeds(tmp_path):
    config = write_config(tmp_path, sweep_doc())
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
               "--seeds", "1,x"],
    )
    assert result.exit_code == 2
    assert result.stderr == "config error: --seeds must be comma-separated integers\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("seeds", [",", ""])
def test_sweep_command_refuses_an_empty_seed_list(tmp_path, seeds):
    # a given --seeds that names no seed must not run the scenario's own
    config = write_config(tmp_path, dict(sweep_doc(), seeds=[4, 5]))
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
               "--seeds", seeds],
    )
    assert result.exit_code == 2
    assert result.stderr == "config error: --seeds must name at least one seed\n"
    assert not (tmp_path / "s").exists()


def test_sweep_failure_leaves_marker_and_continues(tmp_path, monkeypatch):
    scenario = load_config(write_config(tmp_path, sweep_doc()))
    import gridcity.cli as cli_mod

    real_run = cli_mod.run

    def flaky(config, grid):
        if config.walkers == 4 and config.seed == 2:
            raise RuntimeError("synthetic run failure")
        return real_run(config, grid)

    monkeypatch.setattr(cli_mod, "run", flaky)
    out = tmp_path / "sweep"
    points, outcomes = execute_sweep(scenario, out)
    failed = [o for o in outcomes if not o.ok]
    assert len(failed) == 1
    marker = out / "w4_d0_o0" / "seed2" / "error.txt"
    assert marker.is_file()
    assert "synthetic run failure" in marker.read_text()
    assert (out / "summary.csv").is_file()


def test_sweep_command_cli_exit_codes(tmp_path):
    config = write_config(tmp_path, sweep_doc())
    runner = CliRunner()
    ok = runner.invoke(
        main,
        ["sweep", "--config", str(config), "--out", str(tmp_path / "s"),
         "--seeds", "5"],
    )
    assert ok.exit_code == 0, ok.output
    assert "2 sweep points, 2 runs, 0 failed" in ok.output
    zero = runner.invoke(
        main,
        ["sweep", "--config", str(config), "--out", str(tmp_path / "z"), "--steps", "0"],
    )
    assert zero.exit_code == 2
    assert not (tmp_path / "z").exists()
    for parallel in ("0", "-4"):
        bad = runner.invoke(
            main,
            ["sweep", "--config", str(config), "--out", str(tmp_path / "p"),
             "--parallel", parallel],
        )
        assert bad.exit_code == 2
        assert "--parallel" in bad.output
        assert not (tmp_path / "p").exists()


def test_sweep_command_refuses_steps_when_the_scenario_sweeps_steps(tmp_path):
    config = write_config(tmp_path, dict(MINIMAL, sweep={"steps": [4, 6]}))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["sweep", "--config", str(config), "--out", str(out),
                                       "--steps", "2"])
    assert result.exit_code == 2
    assert result.stderr == ("config error: --steps: the scenario sweeps steps, "
                             "so --steps would change no run\n")
    assert not out.exists()


def test_sweep_command_steps_and_seeds_match_the_same_values_in_the_file(tmp_path):
    runner = CliRunner()
    given = runner.invoke(main, [
        "sweep", "--config", str(write_config(tmp_path, sweep_doc())),
        "--out", str(tmp_path / "given"), "--steps", "3", "--seeds", "4,5"])
    assert given.exit_code == 0, given.output
    written = write_config(tmp_path, dict(sweep_doc(), steps=3, seeds=[4, 5]), "written.yaml")
    result = runner.invoke(main, ["sweep", "--config", str(written),
                                  "--out", str(tmp_path / "written")])
    assert result.exit_code == 0, result.output
    assert given.output == result.output == "2 sweep points, 4 runs, 0 failed\n"
    names = ["summary.csv"] + [f"{label}/seed{seed}/{name}" for label in ("w2_d0_o0", "w4_d0_o0")
                               for seed in (4, 5) for name in RUN_CSVS]
    for name in names:
        given, written = (tmp_path / "given" / name), (tmp_path / "written" / name)
        assert given.read_bytes() == written.read_bytes(), name
    assert len(list((tmp_path / "given").rglob("*.csv"))) == len(names)


def test_point_label_formats_obstruction_percent():
    from gridcity.engine import SimConfig

    sim = SimConfig()
    assert point_label({"walkers": 50, "drivers": 20, "obstruction": 0.05}, sim) == "w50_d20_o5"
    assert point_label({"obstruction": 0.10}, sim) == "w0_d0_o10"
    assert point_label({}, sim) == "w0_d0_o0"
    # every other field follows in field order, a pair as low-high
    assert point_label({"accel": 0.5, "walker_w": (1, 3), "walkers": 5}, sim) == (
        "w5_d0_o0_walker_w1-3_accel0.5")
    assert point_label({"lookahead": 6, "driver_alpha": (0.0, 1e-07)}, sim) == (
        "w0_d0_o0_driver_alpha0-1e-07_lookahead6")


# -- gen-map ------------------------------------------------------------------------


def test_gen_map_roundtrips_through_parser(tmp_path):
    runner = CliRunner()
    out = tmp_path / "city.grid"
    result = runner.invoke(
        main,
        ["gen-map", "--blocks-x", "2", "--blocks-y", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    grid = parse_grid(out.read_text())
    assert grid.width == 2 * 15 + 3 * 4


def test_gen_map_single_block_formulas(tmp_path):
    from gridcity.environment import GroundType

    runner = CliRunner()
    out = tmp_path / "one.grid"
    result = runner.invoke(
        main, ["gen-map", "--blocks-x", "1", "--blocks-y", "1", "--out", str(out)]
    )
    assert result.exit_code == 0
    count = parse_grid(out.read_text()).ground.count
    assert count(GroundType.BUILDING) == 13 * 13
    assert count(GroundType.SIDEWALK) == 4 * 15 - 4


def test_gen_map_rejects_bad_ring(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["gen-map", "--blocks-x", "1", "--blocks-y", "1", "--block-side", "2",
         "--out", str(tmp_path / "x.grid")],
    )
    assert result.exit_code == 2
    assert result.stderr == "config error: block_side must be at least 3\n"


def test_gen_map_obstacle_sidecar(tmp_path):
    runner = CliRunner()
    out = tmp_path / "obstructed.grid"
    result = runner.invoke(
        main,
        ["gen-map", "--blocks-x", "1", "--blocks-y", "1", "--obstruction", "0.1",
         "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    sidecar = tmp_path / "obstructed.grid.obstacles"
    assert sidecar.is_file()
    assert len(sidecar.read_text().splitlines()) == round(0.1 * 56)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(out) == "86079cedf52db46177d8d34f25ccdc0a973e00955a16f11aac6e7446d809a933"
    assert digest(sidecar) == "7c647bf5f0d2279e133bce1b179e839fd854214ea139a493b7bf65dc01e2b612"


def test_gen_map_rejects_bad_obstruction(tmp_path):
    result = CliRunner().invoke(
        main,
        ["gen-map", "--blocks-x", "1", "--blocks-y", "1", "--obstruction", "1.5",
         "--out", str(tmp_path / "x.grid")],
    )
    assert result.exit_code == 2
    assert "config error: obstruction fraction" in result.output


# -- plan-debug -----------------------------------------------------------------------


def test_plan_debug_emits_trace_csv(tmp_path):
    grid_file = tmp_path / "strip.grid"
    grid_file.write_text("6 1\n" + " ".join(["s--"] * 6) + "\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["plan-debug", "--grid", str(grid_file), "--kind", "walker",
         "--start", "0,0", "--goal", "5,0"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "step,x,y,g,h,r,f"
    assert lines[1].startswith("0,0,0,")


def test_plan_debug_trace_file_and_route_summary(tmp_path):
    grid_file = tmp_path / "strip.grid"
    grid_file.write_text("4 1\nrE- rE- rE- rE-\n")
    trace_file = tmp_path / "sub" / "trace.csv"  # --out makes its directory
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["plan-debug", "--grid", str(grid_file), "--kind", "driver",
         "--start", "0,0", "--goal", "3,0", "--alpha", "1.0",
         "--out", str(trace_file)],
    )
    assert result.exit_code == 0, result.output
    assert trace_file.read_text().startswith("step,x,y,g,h,r,f")
    assert "route: 4 cells" in result.output


@pytest.mark.parametrize("start", ["a,1", "1,2,3"])
def test_plan_debug_rejects_malformed_coordinates(tmp_path, start):
    grid_file = tmp_path / "strip.grid"
    grid_file.write_text("2 1\ns-- s--\n")
    result = CliRunner().invoke(
        main,
        ["plan-debug", "--grid", str(grid_file), "--kind", "walker",
         "--start", start, "--goal", "1,0"],
    )
    assert result.exit_code == 2
    assert "config error: --start must be 'x,y'" in result.output


@pytest.mark.parametrize("option", [
    ["--kind", "driver", "-w", "0.5"],
    ["--kind", "driver", "--alpha", "-1"],
    ["--kind", "driver", "--alpha", "inf"],
    ["--kind", "walker", "--alpha", "1"],  # no walker move carries risk
])
def test_plan_debug_rejects_bad_profile(tmp_path, option):
    grid_file = tmp_path / "strip.grid"
    grid_file.write_text("4 1\nrE- rE- rE- rE-\n")
    result = CliRunner().invoke(
        main,
        ["plan-debug", "--grid", str(grid_file), "--start", "0,0", "--goal", "3,0", *option],
    )
    assert result.exit_code == 2
    assert result.output.startswith("config error: ")


@pytest.mark.parametrize(
    "kind, start, goal, options",
    [("walker", "4,4", "18,18", []), ("driver", "2,10", "20,12", ["-w", "2", "--alpha", "1"])],
)
def test_plan_debug_config_plans_on_the_scenario_layout(tmp_path, kind, start, goal, options):
    """``--config`` plans on the scenario's base map, without the run-time
    obstruction; with a ``layout`` section and no obstruction that is the map
    ``gen-map`` writes for the layout, so the trace bytes and the route line
    equal those of ``--grid`` on that file."""
    runner = CliRunner()
    grid_file = tmp_path / "city.grid"
    result = runner.invoke(
        main, ["gen-map", "--blocks-x", "1", "--blocks-y", "1", "--out", str(grid_file)]
    )
    assert result.exit_code == 0, result.output
    config = write_config(tmp_path, MINIMAL)
    traces, routes = [], []
    for source in (["--config", str(config)], ["--grid", str(grid_file)]):
        trace_file = tmp_path / f"trace{len(traces)}.csv"
        result = runner.invoke(
            main,
            ["plan-debug", *source, "--kind", kind, "--start", start, "--goal", goal,
             *options, "--out", str(trace_file)],
        )
        assert result.exit_code == 0, result.output
        traces.append(trace_file.read_bytes())
        routes.append([ln for ln in result.output.splitlines() if ln.startswith("route:")])
    assert traces[0] == traces[1]
    assert routes[0] == routes[1] and len(routes[0]) == 1


def test_readme_quick_start_outputs_are_pinned(tmp_path, monkeypatch):
    # the README's gen-map and plan-debug commands, as written there
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    commands = [
        "gen-map --blocks-x 5 --blocks-y 5 --out city.grid",
        "gen-map --blocks-x 5 --blocks-y 5 --obstruction 0.05 --seed 3 --out city.grid",
        "plan-debug --grid city.grid --kind walker --start 5,4 --goal 94,94 -w 3",
        "plan-debug --grid city.grid --kind driver --start 2,93 --goal 0,19 -w 3 --alpha 1",
    ]
    results = [runner.invoke(main, command.split()) for command in commands]
    assert [r.exit_code for r in results] == [0] * 4, [r.output for r in results]
    assert results[3].stderr.startswith("route: 77 cells")
    outputs = {"trace.csv": results[2].stdout_bytes, "driver.csv": results[3].stdout_bytes,
               "city.grid": (tmp_path / "city.grid").read_bytes(),
               "city.grid.obstacles": (tmp_path / "city.grid.obstacles").read_bytes()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == {
        "trace.csv": "d578bceadd1e97af91f18c3f33f6ada3f15c61794b311d2bccb4c648f9c35336",
        "driver.csv": "49f8b9190c66aadb6902214cb3b440bb5d605ef76c94d4dbc7cee65aeca44bc8",
        "city.grid": "cadc07417302cacc16dd8e429585c0d76a2fcfd7caaeb481ed4c965e12b7cb4c",
        "city.grid.obstacles": "b8fc4acbcb0ad6dddb260ac2054db620fa03d3eb9d83fd6e5ed6f68f3f5f7073",
    }
    # the map and its obstacle list parse back to the same bytes
    text = outputs["city.grid"].decode()
    assert serialize_grid(parse_grid(text)) == text
    text = outputs["city.grid.obstacles"].decode()
    assert serialize_obstacle_list(parse_obstacle_list(text)) == text


def test_plan_debug_unreachable_goal_writes_the_trace_and_exits_1(tmp_path):
    grid_file = tmp_path / "split.grid"
    grid_file.write_text("3 1\ns-- b-- s--\n")
    trace_file = tmp_path / "trace.csv"
    result = CliRunner().invoke(
        main,
        ["plan-debug", "--grid", str(grid_file), "--kind", "walker",
         "--start", "0,0", "--goal", "2,0", "--out", str(trace_file)],
    )
    assert result.exit_code == 1
    assert trace_file.read_text().splitlines()[0] == "step,x,y,g,h,r,f"
    assert result.stdout == f"wrote 1 expansions to {trace_file}\n"
    assert result.stderr == "no route found\n"


@pytest.mark.parametrize("source, message", [
    (["--grid", "missing.grid"], "grid file not found: {tmp_path}/missing.grid"),
    (["--grid", "bad.grid"], "row 0, column 1: token 'xx' must be 3 characters"),
    (["--config", "scenario.yaml"], "obstacle (9, 9) outside the grid"),
], ids=["missing_file", "bad_token", "off_grid_obstacle"])
def test_plan_debug_missing_grid_file_exits_2(tmp_path, source, message):
    (tmp_path / "bad.grid").write_text("2 1\ns-- xx\n")
    (tmp_path / "map.grid").write_text("2 1\ns-- s--\n")
    (tmp_path / "obs.txt").write_text("9 9\n")
    write_config(tmp_path, {"grid": "map.grid", "obstacles": "obs.txt"})
    result = CliRunner().invoke(
        main, ["plan-debug", source[0], str(tmp_path / source[1]), "--kind", "walker",
               "--start", "0,0", "--goal", "1,0"],
    )
    assert result.exit_code == 2
    assert result.stderr == f"config error: {message.format(tmp_path=tmp_path)}\n"
    assert "Traceback" not in result.output


def test_plan_debug_requires_exactly_one_source(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["plan-debug", "--kind", "walker", "--start", "0,0", "--goal", "1,0"]
    )
    assert result.exit_code == 2


# -- the exit path ----------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ["run", "--config", "scenario.yaml"],
    ["sweep", "--config", "scenario.yaml", "--parallel", "1"],
    ["sweep", "--config", "scenario.yaml", "--parallel", "2"],
    ["gen-map", "--blocks-x", "1", "--blocks-y", "1"],
    ["plan-debug", "--grid", "map.grid", "--kind", "walker", "--start", "0,0",
     "--goal", "1,0"],
], ids=["run", "sweep_parallel_1", "sweep_parallel_2", "gen_map", "plan_debug"])
def test_an_output_path_under_a_regular_file_exits_1_in_one_line(tmp_path, args):
    # the gridcity script in a fresh process, so that a traceback would show
    write_config(tmp_path, dict(sweep_doc(), steps=2))
    (tmp_path / "map.grid").write_text("2 1\ns-- s--\n")
    (tmp_path / "taken").write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gridcity.commands", *args, "--out", "taken/out"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"{args[0]} failed: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.grid", "scenario.yaml", "taken"]


@pytest.mark.parametrize("text, prefix", [
    (b"steps: 2\n# \xff\n", "config error: invalid YAML in "),
    # a generated layout has no parking cell, so reactivation is refused at load time
    (b"steps: 2\nlayout: {blocks_x: 1, blocks_y: 1}\nreactivation_prob: 0.1\n",
     "config error: reactivation_prob: "),
], ids=["not_utf8", "reactivation_without_parking"])
def test_a_bad_scenario_file_exits_2_in_one_line(tmp_path, text, prefix):
    # the gridcity script in a fresh process, so that a traceback would show
    (tmp_path / "scenario.yaml").write_bytes(text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gridcity.commands", "run", "--config", "scenario.yaml",
         "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(prefix)
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


# -- the import boundary ----------------------------------------------------------


def _heavy_modules_after(code: str, *args: str) -> str:
    """Which of click, multiprocessing, PyYAML, statistics and traceback a
    fresh interpreter has loaded after running ``code`` with ``args`` as
    ``sys.argv[1:]``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    heavy = "{'click', 'multiprocessing', 'yaml', 'statistics', 'traceback'}"
    code += f"; print(sorted({heavy} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_the_python_api_loads_neither_click_nor_yaml():
    # a sweep's forked workers hold a copy of what its parent imported
    root = Path(__file__).resolve().parents[1]
    assert _heavy_modules_after("import sys, gridcity, gridcity.cli") == "[]\n"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["gridcity"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    assert sorted(entry.commands) == ["gen-map", "plan-debug", "run", "sweep"]


def test_a_run_loads_neither_yaml_nor_statistics(tmp_path):
    # what a sweep's worker does: config.yaml is written without PyYAML,
    # statistics is the summary's, which only the sweep's parent writes, and
    # traceback is only a failed run's
    code = ("import sys; from gridcity import LayoutSpec, SimConfig; "
            "from gridcity.cli import Scenario, execute_run; "
            "execute_run(Scenario(sim=SimConfig(steps=2, walkers=2, drivers=1), "
            "layout=LayoutSpec()), sys.argv[1])")
    assert _heavy_modules_after(code, str(tmp_path / "out")) == "[]\n"
    assert (tmp_path / "out" / "config.yaml").is_file()


def test_a_forked_sweep_loads_neither_multiprocessing_nor_click_nor_yaml(tmp_path):
    # its workers are forked from it and hold a copy of what it imported;
    # statistics is its summary's, loaded after the workers are done
    code = ("import sys; from gridcity import LayoutSpec, SimConfig; "
            "from gridcity.cli import Scenario, execute_sweep; "
            "execute_sweep(Scenario(sim=SimConfig(steps=2, walkers=2, drivers=1), "
            "layout=LayoutSpec(), sweep={'walkers': [2, 3]}), sys.argv[1], parallel=2)")
    assert _heavy_modules_after(code, str(tmp_path / "out")) == "['statistics']\n"
    assert (tmp_path / "out" / "summary.csv").is_file()
    assert len(list((tmp_path / "out").glob("*/seed*/metrics.csv"))) == 2
