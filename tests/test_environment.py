import hashlib
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcity.environment import (
    DIRECTION_OF_STEP,
    DIRECTION_TABLE,
    Direction,
    FLOW_GROUNDS,
    GridMap,
    GridParseError,
    GroundType,
    LayoutSpec,
    ROAD_FAMILY,
    generate_layout,
    parse_grid,
    parse_obstacle_list,
    place_obstacles,
    serialize_grid,
    serialize_obstacle_list,
    _GROUND_LETTERS,
    _decode,
    _token,
)
from helpers import flow_of, grid_of, random_grid


# -- cell codec ---------------------------------------------------------------


def test_ground_chars_bijective():
    chars = [_GROUND_LETTERS[g] for g in GroundType]
    assert sorted(chars) == sorted("rsbpztloh")
    for g in GroundType:
        token = chars[g] + ("N-" if g in FLOW_GROUNDS else "--")
        assert GridMap.build([[token]]).ground_at((0, 0)) is g


@pytest.mark.parametrize(
    "token,ground,flow",
    [
        ("rN-", GroundType.ROAD, {Direction.NORTH}),
        ("b--", GroundType.BUILDING, set()),
        ("s--", GroundType.SIDEWALK, set()),
        ("zNE", GroundType.ZEBRA, {Direction.NORTH, Direction.EAST}),
        ("tSW", GroundType.TURN, {Direction.SOUTH, Direction.WEST}),
        ("hE-", GroundType.POTHOLE, {Direction.EAST}),
    ],
)
def test_token_decode(token, ground, flow):
    grid = GridMap.build([[token]])
    assert grid.ground_at((0, 0)) is ground
    assert flow_of(grid, (0, 0)) == frozenset(flow)
    assert serialize_grid(grid) == f"1 1\n{token}\n"


#: The error of a map whose one cell holds the token.  A road of three
#: directions cannot be written: its token is 4 characters long.
MALFORMED_TOKENS = {
    "rNX": "unknown direction character 'X'",
    "rNN": "token 'rNN': duplicate flow direction",
    "r-N": "token 'r-N': direction after '-' placeholder",
    "sN-": "token 'sN-': cell type 's' does not take flow directions",
    "r--": "token 'r--': cell type 'r' requires 1-2 flow directions, got 0",
    "xN-": "unknown ground character 'x'",
    "r": "token 'r' must be 3 characters",
    "rNSE": "token 'rNSE' must be 3 characters",
    "o-S": "token 'o-S': direction after '-' placeholder",
}


@pytest.mark.parametrize("token", list(MALFORMED_TOKENS))
def test_token_rejects_malformed(token):
    message = "row 0, column 0: " + MALFORMED_TOKENS[token]
    with pytest.raises(GridParseError, match="^" + re.escape(message) + "$"):
        GridMap.build([[token]])


def test_direction_encoding_is_consistent():
    """A Direction's value is its DIRECTION_TABLE row, its flow bit and the
    place of its letter, its name's first, in a token."""
    assert len(DIRECTION_OF_STEP) == 4
    for d in Direction:
        dx, dy, opposite, clockwise = DIRECTION_TABLE[d]
        assert DIRECTION_TABLE[opposite][:2] == (-dx, -dy)
        assert DIRECTION_TABLE[clockwise][:2] == (-dy, dx)  # y grows downward
        assert DIRECTION_OF_STEP[(dx, dy)] is d
        token = "r" + d.name[0] + "-"
        assert _decode(token) == (GroundType.ROAD, 1 << d)
        assert _token(GroundType.ROAD, 1 << d) == token
        assert str(d) == f"Direction.{d.name}"  # as plan-digest labels print it


def test_token_canonical_direction_order():
    grid = GridMap.build([["rWN"]])
    assert flow_of(grid, (0, 0)) == frozenset({Direction.WEST, Direction.NORTH})
    assert serialize_grid(grid) == "1 1\nrNW\n"


# -- grid parsing -------------------------------------------------------------


def test_parse_minimal_grid():
    grid = grid_of("rN- b--", "s-- zE-")
    assert grid.width == 2 and grid.height == 2
    assert grid.ground_at((0, 0)) is GroundType.ROAD
    assert flow_of(grid, (1, 1)) == frozenset({Direction.EAST})


def test_parse_error_names_position():
    # in the second map the bad token follows a good one and comes again:
    # the first cell that holds it is named
    for text, position in [("2 2\nrN- b--\ns-- rNX\n", "row 1, column 1"),
                           ("2 2\nrN- rNX\ns-- rNX\n", "row 0, column 1")]:
        with pytest.raises(GridParseError, match=position):
            parse_grid(text)


def test_parse_ragged_row():
    with pytest.raises(GridParseError, match=r"row 1"):
        parse_grid("2 2\nrN- b--\ns--\n")


def test_parse_wrong_row_count():
    with pytest.raises(GridParseError, match="expected 3 rows"):
        parse_grid("2 3\nrN- b--\ns-- s--\n")


def test_parse_bad_header():
    with pytest.raises(GridParseError, match="header"):
        parse_grid("two 2\nrN- b--\n")


@pytest.mark.parametrize("text, message", [
    ("", "empty grid file"),
    ("2 1 1\nrN- b--\n", "header"),
    ("0 1\n", "dimensions must be positive"),
    ("3 1\nrN- rN-\n", "row 0: expected 3 tokens, found 2"),
])
def test_parse_refuses_an_empty_file_or_a_bad_size(text, message):
    with pytest.raises(GridParseError, match=message):
        parse_grid(text)


def test_parse_ignores_comments_and_blank_lines():
    text = "# city map\n2 1\n\nrN- rN-\n# trailing note\n"
    grid = parse_grid(text)
    assert grid.width == 2 and grid.height == 1


@pytest.mark.parametrize("source", ["layout", "text"])
def test_a_5x5_city_map_is_built_in_under_1_mb(source):
    # a map build reads one row of tokens at a time and decodes each
    # distinct token once; it never holds every token of the map
    spec = LayoutSpec(blocks_x=5, blocks_y=5)
    text = serialize_grid(generate_layout(spec))
    tracemalloc.start()
    try:
        grid = generate_layout(spec) if source == "layout" else parse_grid(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.width == grid.height == 99
    assert peak < 2**20, f"{peak / 1024:.0f} KB"


def test_roundtrip_generated_layout():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=1))
    again = parse_grid(serialize_grid(grid))
    assert again == grid
    assert serialize_grid(again) == serialize_grid(grid)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_random_grids(seed):
    grid = random_grid(random.Random(seed), width=6, height=5)
    assert parse_grid(serialize_grid(grid)) == grid


def test_obstacle_list_roundtrip():
    coords = frozenset({(3, 4), (0, 0), (7, 2)})
    assert parse_obstacle_list(serialize_obstacle_list(coords)) == coords


def test_obstacle_list_rejects_garbage():
    with pytest.raises(GridParseError):
        parse_obstacle_list("1 2 3\n")
    with pytest.raises(GridParseError, match="obstacle line 1: expected integers"):
        parse_obstacle_list("0 0\n1 y\n")


def test_obstacle_list_skips_blank_and_comment_lines():
    assert parse_obstacle_list("# header\n\n1 2\n   \n# note\n3 4\n") == {(1, 2), (3, 4)}
    # a line is numbered from 0, the skipped lines counted too
    with pytest.raises(GridParseError, match="^obstacle line 2: expected integers$"):
        parse_obstacle_list("# a\n\n1 x\n")


# -- procedural layout --------------------------------------------------------


def test_layout_dimensions_and_counts_5x5():
    grid = generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))
    assert grid.width == 5 * 15 + 6 * 4
    assert grid.height == 99
    count = grid.ground.count
    assert count(GroundType.BUILDING) == 25 * 13 * 13
    assert count(GroundType.SIDEWALK) == 25 * (4 * 15 - 4)
    assert count(GroundType.TURN) + count(GroundType.LEFT_TURN) == 6 * 6 * 16


#: sha256 of serialize_grid(generate_layout(LayoutSpec(*key)))
LAYOUT_DIGESTS = {
    (1, 1, 3, 1): "317ff304c6357b72ea93ddfae6db7ff81a2311d1a1f773de5823eb6342de658b",
    (2, 3, 15, 2): "59b006532d9475f2169d80c857417ee0d071cd08bc24f7a4c801cfeca068b1e3",
    (3, 2, 4, 3): "b20dcd7120e1b57b977395302366f4eb2b7ba08d99fa88df27aaae33b5ffccbd",
    (4, 1, 7, 1): "71220b5febf0b92a7d0c15d93bb437c6dfc39c0b9ff98e98d9970b77cdcbefac",
    (5, 5, 15, 2): "cadc07417302cacc16dd8e429585c0d76a2fcfd7caaeb481ed4c965e12b7cb4c",
}


def test_generated_layout_bytes_are_pinned():
    grids = []
    for key, digest in LAYOUT_DIGESTS.items():
        grid = generate_layout(LayoutSpec(*key))
        assert hashlib.sha256(serialize_grid(grid).encode()).hexdigest() == digest, key
        grids.append(grid)
    # spawn sites and exits, also of random maps as narrow as one cell, where
    # a boundary cell has two opposite inward directions
    for seed in range(50):
        rng = random.Random(seed)
        grids.append(random_grid(rng, rng.randint(1, 12), rng.randint(1, 12)))
    assert sum(min(g.width, g.height) == 1 for g in grids) == 8
    sites = hashlib.sha256()
    for g in grids:
        spawns = [(c, d.name[0]) for c, d in g.driver_spawns]  # N, E, S or W
        sites.update(repr((g.walker_spawns, spawns, g.driver_exits)).encode())
    assert sites.hexdigest() == "4996b4dc758a22cdb972eaf3a9a6f2935a7621d026617b7e76eef600095f1cbe"


def test_layout_single_block_sidewalk_ring():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    assert grid.ground.count(GroundType.SIDEWALK) == 4 * 15 - 4


def test_layout_zebra_band_count():
    bx, by, lanes = 2, 3, 2
    grid = generate_layout(LayoutSpec(blocks_x=bx, blocks_y=by, lanes_per_direction=lanes))
    sw = 2 * lanes
    expected = (2 * by * (bx + 1) + 2 * bx * (by + 1)) * sw
    assert grid.ground.count(GroundType.ZEBRA) == expected


def test_layout_interior_street_has_two_lanes_per_direction():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=1, lanes_per_direction=2))
    # interior vertical corridor sits right of the first block
    x0 = 4 + 15
    y = 4 + 7  # a block row, plain street
    dirs = [flow_of(grid, (x0 + i, y)) for i in range(4)]
    assert dirs[0] == dirs[1] == frozenset({Direction.SOUTH})
    assert dirs[2] == dirs[3] == frozenset({Direction.NORTH})


def test_layout_road_lanes_single_direction_and_opposing_adjacent():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    for y in range(grid.height):
        for x in range(grid.width):
            if grid.ground_at((x, y)) is GroundType.ROAD:
                assert len(flow_of(grid, (x, y))) == 1
    # opposing halves of every corridor touch at the centerline
    sw, pitch = 4, 19
    for k in range(3):
        x_left = k * pitch + 1  # last southbound lane
        x_right = k * pitch + 2  # first northbound lane
        y = sw + 7
        assert flow_of(grid, (x_left, y)) == frozenset({Direction.SOUTH})
        assert flow_of(grid, (x_right, y)) == frozenset({Direction.NORTH})


def test_layout_turn_cells_advertise_both_lane_directions():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1, lanes_per_direction=1))
    for y in range(grid.height):
        for x in range(grid.width):
            if grid.ground_at((x, y)) in (GroundType.TURN, GroundType.LEFT_TURN):
                flow = flow_of(grid, (x, y))
                assert len(flow) == 2
                axes = {d in (Direction.NORTH, Direction.SOUTH) for d in flow}
                assert axes == {True, False}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"blocks_x": 0, "blocks_y": 1},
        {"blocks_x": 1, "blocks_y": 1, "block_side": 2},
        {"blocks_x": 1, "blocks_y": 1, "lanes_per_direction": 0},
        {"blocks_x": 1.5},
        {"blocks_y": True},
        {"block_side": 15.0},
        {"lanes_per_direction": "2"},
    ],
)
def test_layout_rejects_bad_spec(kwargs):
    with pytest.raises(ValueError):
        generate_layout(LayoutSpec(**kwargs))


def test_layout_spec_checks_itself_when_made():
    with pytest.raises(ValueError, match="block_side must be at least 3"):
        LayoutSpec(blocks_x=1, blocks_y=1, block_side=2)
    with pytest.raises(ValueError, match=r"^block_side must be an integer, got 15\.0$"):
        LayoutSpec(block_side=15.0)
    assert LayoutSpec() == LayoutSpec(blocks_x=1, blocks_y=1)


# -- obstacles ----------------------------------------------------------------


def test_place_obstacles_zero_fraction_is_identity():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    assert place_obstacles(grid, 0.0, random.Random(1)) is grid


def test_place_obstacles_exact_count():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    sidewalks = grid.ground.count(GroundType.SIDEWALK)
    for fraction in (0.05, 0.33, 1.0):
        obstructed = place_obstacles(grid, fraction, random.Random(9))
        assert len(obstructed.obstacles) == round(fraction * sidewalks)


def test_place_obstacles_deterministic_and_on_sidewalks_only():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=1))
    a = place_obstacles(grid, 0.1, random.Random(42))
    b = place_obstacles(grid, 0.1, random.Random(42))
    assert a.obstacles == b.obstacles
    for coord in a.obstacles:
        assert grid.ground_at(coord) is GroundType.SIDEWALK


def test_place_obstacles_refuses_more_cells_than_are_free():
    # a scenario with a grid, an obstacle list and an obstruction fraction
    # asks for this: the list already obstructs one sidewalk cell
    grid = grid_of("s-- s-- s-- b--").with_obstacles({(1, 0)})
    with pytest.raises(ValueError, match="cannot obstruct 3 sidewalk cells, only 2 free"):
        place_obstacles(grid, 1.0, random.Random(0))


def test_place_obstacles_rejects_bad_fraction():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    with pytest.raises(ValueError):
        place_obstacles(grid, -0.1, random.Random(0))


def test_with_obstacles_validation():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    with pytest.raises(ValueError, match="outside"):
        grid.with_obstacles({(-1, 0)})
    # find a building cell
    building = next(
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.ground_at((x, y)) is GroundType.BUILDING
    )
    with pytest.raises(ValueError, match="building"):
        grid.with_obstacles({building})


# -- costs --------------------------------------------------------------------


def test_walker_cost_table():
    expected = {
        GroundType.SIDEWALK: 1,
        GroundType.ZEBRA: 1,
        GroundType.ROAD: 5,
        GroundType.TURN: 10,
        GroundType.LEFT_TURN: 10,
        GroundType.PARKING: 5,
        GroundType.POTHOLE: 1,
        GroundType.BUILDING: math.inf,
        GroundType.OBSTACLE: math.inf,
    }
    for ground, value in expected.items():
        token = _GROUND_LETTERS[ground] + ("N-" if ground in FLOW_GROUNDS else "--")
        assert GridMap.build([[token]]).costs("walker")[0] == value


def test_driver_cost_table():
    expected = {
        GroundType.ROAD: 1,
        GroundType.ZEBRA: 1,
        GroundType.PARKING: 5,
        GroundType.POTHOLE: 5,
        GroundType.TURN: 1,
        GroundType.LEFT_TURN: 1,
        GroundType.SIDEWALK: math.inf,
        GroundType.BUILDING: math.inf,
        GroundType.OBSTACLE: math.inf,
    }
    for ground, value in expected.items():
        token = _GROUND_LETTERS[ground] + ("N-" if ground in FLOW_GROUNDS else "--")
        assert GridMap.build([[token]]).costs("driver")[0] == value


def test_cost_overlay_infinite():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    site = grid.walker_spawns[0]
    obstructed = grid.with_obstacles({site})
    i = site[1] * grid.width + site[0]
    assert grid.costs("walker")[i] == 1
    assert obstructed.costs("walker")[i] == math.inf
    assert obstructed.costs("driver")[i] == math.inf


# -- ground masks -------------------------------------------------------------


def test_ground_mask_marks_the_cells_of_its_ground_types():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=1))
    for grounds in ((GroundType.ZEBRA,), tuple(ROAD_FAMILY)):
        expected = [
            grid.ground_at((x, y)) in grounds
            for y in range(grid.height) for x in range(grid.width)
        ]
        assert grid.ground_mask(*grounds).tolist() == expected


def test_a_cell_is_one_ground_byte_and_one_flow_byte():
    grids = [generate_layout(LayoutSpec(blocks_x=5, blocks_y=5))]
    grids += [random_grid(random.Random(seed), 12, 9) for seed in range(5)]
    for grid in grids:
        cells = [(x, y) for y in range(grid.height) for x in range(grid.width)]
        for table in (grid.ground, grid.flow):
            assert type(table) is bytes and len(table) == grid.width * grid.height
        grounds = [grid.ground_at(c) for c in cells]
        assert all(g is GroundType(byte) for g, byte in zip(grounds, grid.ground))
        for kinds in [(g,) for g in GroundType] + [tuple(FLOW_GROUNDS), tuple(ROAD_FAMILY)]:
            mask = grid.ground_mask(*kinds)
            assert mask.tolist() == [g in kinds for g in grounds]
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
        site = next(c for c, g in zip(cells, grounds) if g != GroundType.BUILDING)
        overlay = grid.with_obstacles({site})
        assert overlay.ground_mask(*ROAD_FAMILY) is grid.ground_mask(*ROAD_FAMILY)


def test_ground_mask_is_one_table_per_set_of_ground_types():
    grid = generate_layout(LayoutSpec(blocks_x=1, blocks_y=1))
    road = grid.ground_mask(*ROAD_FAMILY)
    assert grid.ground_mask(*reversed(tuple(ROAD_FAMILY))) is road
    assert grid.ground_mask(*ROAD_FAMILY, GroundType.ROAD) is road
    assert grid.ground_mask(GroundType.ZEBRA) is not road
    overlay = grid.with_obstacles({grid.walker_spawns[0]})
    assert overlay.ground_mask(*ROAD_FAMILY) is road
    assert overlay.ground_mask(GroundType.ZEBRA) is grid.ground_mask(GroundType.ZEBRA)


# -- spawn sites --------------------------------------------------------------


def test_walker_spawn_sites_are_building_adjacent_sidewalks():
    # exactly the sidewalk cells with a BUILDING among their on-grid
    # 4-neighbours, sorted, and the parking goals exactly the parking cells,
    # sorted; random grids put sidewalks on their edges and corners, beside
    # obstacle and parking ground, and diagonal to buildings
    grids = [generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))]
    for seed in range(12):
        rng = random.Random(seed)
        grids.append(random_grid(rng, rng.randint(1, 15), rng.randint(1, 15)))
    for grid in grids:
        cells = sorted((x, y) for x in range(grid.width) for y in range(grid.height))
        sites = [
            (x, y) for x, y in cells
            if grid.ground_at((x, y)) is GroundType.SIDEWALK and any(
                grid.in_bounds((x + dx, y + dy))
                and grid.ground_at((x + dx, y + dy)) is GroundType.BUILDING
                for dx, dy, _, _ in DIRECTION_TABLE
            )
        ]
        assert grid.walker_spawns == tuple(sites)
        parking = [c for c in cells if grid.ground_at(c) is GroundType.PARKING]
        assert grid.parking_cells == tuple(parking)
    assert all(grid.walker_spawns and grid.parking_cells for grid in grids[1:4])


def test_driver_spawn_sites_are_road_cells_with_flow():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    assert grid.driver_spawns
    for (x, y), heading in grid.driver_spawns:
        assert grid.ground_at((x, y)) is GroundType.ROAD
        assert heading in flow_of(grid, (x, y))


def test_driver_exits_on_boundary():
    grid = generate_layout(LayoutSpec(blocks_x=2, blocks_y=2))
    assert grid.driver_exits
    for x, y in grid.driver_exits:
        assert x in (0, grid.width - 1) or y in (0, grid.height - 1)


def test_grid_map_rejects_ragged_rows():
    # an empty map is malformed like a ragged one
    for rows, message in [
        ([["s--", "s--"], ["s--"]], "row 1: expected 2 tokens, found 1"),
        ([], "grid must have at least one row and one column"),
        ([[]], "grid must have at least one row and one column"),
    ]:
        with pytest.raises(GridParseError, match="^" + re.escape(message) + "$"):
            GridMap.build(rows)
