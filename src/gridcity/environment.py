"""Grid-encoded city environment.

Each cell of the map is a 3-character token: a ground-type character followed
by up to two permitted vehicular flow directions (padded with '-').  A
direction is a ``Direction``, whose value is its row of ``DIRECTION_TABLE`` and
its bit in a cell's flow mask; a ground is a ``GroundType``, whose value is
its byte in ``GridMap.ground``.  The module covers the token codec, whole-grid
(de)serialization, procedural block layouts, sidewalk obstacle placement, and
the per-cell traversal costs for both agent kinds.
"""
from __future__ import annotations

import dataclasses
import math
import random
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

Coord = tuple[int, int]


class GridParseError(ValueError):
    """Malformed grid text (bad token, ragged rows, bad header)."""


class Direction(int, Enum):
    """A heading, whose value is its DIRECTION_TABLE row, its flow-mask bit,
    a driver state's two heading bits and its letter's place in a token."""

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3


#: One row per Direction, at its value: ``(dx, dy, opposite, clockwise)``,
#: the last two as Direction values; the one place direction geometry is
#: written.  y grows downward (text rows), so NORTH points toward row 0.
DIRECTION_TABLE: tuple[tuple[int, int, int, int], ...] = (
    (0, -1, 2, 1),
    (1, 0, 3, 2),
    (0, 1, 0, 3),
    (-1, 0, 1, 0),
)

#: The Direction of each step ``(dx, dy)`` of DIRECTION_TABLE; a step that is
#: not a key is no move to a 4-adjacent cell.
DIRECTION_OF_STEP: dict = {row[:2]: d for d, row in zip(Direction, DIRECTION_TABLE)}

#: A token's flow letter of each Direction, at its value.
_FLOW_LETTERS = "NESW"


class GroundType(int, Enum):
    """A cell's ground, whose value is its byte in ``GridMap.ground`` and its
    letter's place in ``_GROUND_LETTERS``.  ROAD is 0: compare, never test truth."""

    ROAD = 0
    SIDEWALK = 1
    BUILDING = 2
    PARKING = 3
    ZEBRA = 4
    TURN = 5
    LEFT_TURN = 6
    OBSTACLE = 7
    POTHOLE = 8


#: A token's ground letter of each GroundType, at its value.
_GROUND_LETTERS = "rsbpztloh"


#: Ground types that carry 1-2 vehicular flow directions.
FLOW_GROUNDS = frozenset(
    {
        GroundType.ROAD,
        GroundType.ZEBRA,
        GroundType.PARKING,
        GroundType.TURN,
        GroundType.LEFT_TURN,
        GroundType.POTHOLE,
    }
)

#: Ground types a pedestrian counts as roadway when stepping onto them
#: outside a crossing (zebras and parking lots are lawful pedestrian ground).
ROAD_FAMILY = frozenset(
    {GroundType.ROAD, GroundType.TURN, GroundType.LEFT_TURN, GroundType.POTHOLE}
)

_WALKER_COSTS = {
    GroundType.SIDEWALK: 1.0,
    GroundType.ZEBRA: 1.0,
    GroundType.ROAD: 5.0,
    GroundType.TURN: 10.0,
    GroundType.LEFT_TURN: 10.0,
    GroundType.PARKING: 5.0,
    GroundType.POTHOLE: 1.0,
    GroundType.BUILDING: math.inf,
    GroundType.OBSTACLE: math.inf,
}

_DRIVER_COSTS = {
    GroundType.ROAD: 1.0,
    GroundType.ZEBRA: 1.0,
    GroundType.PARKING: 5.0,
    GroundType.POTHOLE: 5.0,
    GroundType.TURN: 1.0,
    GroundType.LEFT_TURN: 1.0,
    GroundType.SIDEWALK: math.inf,
    GroundType.BUILDING: math.inf,
    GroundType.OBSTACLE: math.inf,
}


def _decode(token: str) -> tuple[GroundType, int]:
    """A token's ground type and its flow as a NESW bit mask (bit d stands for
    Direction d); the flow letters may come in any order."""
    if len(token) != 3:
        raise GridParseError(f"token {token!r} must be 3 characters")
    g = _GROUND_LETTERS.find(token[0])
    if g < 0:
        raise GridParseError(f"unknown ground character {token[0]!r}")
    ground = GroundType(g)
    flow = token[1:].rstrip("-")
    if "-" in flow:
        raise GridParseError(f"token {token!r}: direction after '-' placeholder")
    mask = 0
    for ch in flow:
        d = _FLOW_LETTERS.find(ch)
        if d < 0:
            raise GridParseError(f"unknown direction character {ch!r}")
        mask |= 1 << d
    if len(set(flow)) < len(flow):
        raise GridParseError(f"token {token!r}: duplicate flow direction")
    if ground in FLOW_GROUNDS and not flow:
        raise GridParseError(
            f"token {token!r}: cell type {token[0]!r} requires 1-2 flow directions, got 0"
        )
    if ground not in FLOW_GROUNDS and flow:
        raise GridParseError(
            f"token {token!r}: cell type {token[0]!r} does not take flow directions"
        )
    return ground, mask


def _token(ground: int, mask: int) -> str:
    """The canonical token of a cell: its flow letters in NESW order."""
    flow = "".join(ch for d, ch in enumerate(_FLOW_LETTERS) if mask >> d & 1)
    return _GROUND_LETTERS[ground] + flow.ljust(2, "-")


@dataclass(frozen=True)
class GridMap:
    """Immutable city grid: per-cell bytes, obstacle overlay, and sites.

    ``ground`` and ``flow`` are bytes, one per cell, indexed ``y * width + x``:
    the cell's GroundType value and its permitted vehicular flow directions as a
    NESW bit mask (bit d stands for Direction d); together they are the
    layout.  Obstacles are an overlay on top of the ground type so the
    underlying cell stays inspectable; they enter only the per-kind cost
    lists of ``costs``.  Tables derived from the layout alone are built and
    shared through ``layout_table``; ``_costs`` holds the map's own cost
    lists.  Spawn sites are computed once at construction: walker sites are
    the sidewalk cells ``beside`` a building, parking cells are the PARKING
    cells, driver sites are road cells where an inbound lane enters the map
    (paired with the inbound heading), driver exits are boundary cells whose
    flow points off the map.  Agents move between cell centers: cell
    ``(x, y)``'s is ``(x + 0.5, y + 0.5)``.
    """

    width: int
    height: int
    ground: bytes
    flow: bytes
    obstacles: frozenset = frozenset()
    walker_spawns: tuple = ()
    driver_spawns: tuple = ()
    driver_exits: tuple = ()
    parking_cells: tuple = ()
    _tables: dict = field(default_factory=dict, compare=False, repr=False)
    _costs: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, rows: Iterable[Sequence[str]]) -> "GridMap":
        """The map whose row ``y`` is the ``y``-th of ``rows``, each a sequence
        of cell tokens.  The rows are read one at a time, and each distinct
        token is decoded once."""
        cells: dict[str, tuple[GroundType, int]] = {}
        decoded = []
        for y, tokens in enumerate(rows):
            if y == 0:
                width = len(tokens)
            elif len(tokens) != width:
                raise GridParseError(f"row {y}: expected {width} tokens, found {len(tokens)}")
            for x, token in enumerate(tokens):
                cell = cells.get(token)
                if cell is None:
                    try:
                        cell = cells[token] = _decode(token)
                    except GridParseError as exc:
                        raise GridParseError(f"row {y}, column {x}: {exc}") from None
                decoded.append(cell)
        if not decoded:
            raise GridParseError("grid must have at least one row and one column")
        height = len(decoded) // width
        ground = bytes(g for g, _ in decoded)
        flow = bytes(mask for _, mask in decoded)
        layout = cls(width, height, ground, flow)
        driver_spawns, driver_exits = _driver_sites(ground, flow, width, height)
        return dataclasses.replace(
            layout,
            walker_spawns=_sorted_cells(
                layout.ground_mask(GroundType.SIDEWALK) & layout.beside(GroundType.BUILDING), width
            ),
            driver_spawns=driver_spawns,
            driver_exits=driver_exits,
            parking_cells=_sorted_cells(layout.ground_mask(GroundType.PARKING), width),
        )

    def in_bounds(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def index_of(self, coord: Coord) -> int:
        """The flat index ``y * width + x`` of a cell; ValueError off the grid."""
        if not self.in_bounds(coord):
            raise ValueError(f"cell {coord} lies outside the grid")
        return coord[1] * self.width + coord[0]

    def ground_at(self, coord: Coord) -> GroundType:
        return GroundType(self.ground[self.index_of(coord)])

    def layout_table(self, key, build):
        """The layout's table ``key``, made by ``build()`` on first use.

        Every table derived from the layout alone is built and shared here:
        they live in ``_tables``, one dict the layout shares by reference
        with every overlay made from it, so each is built once per layout,
        whichever map asks first."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    def ground_costs(self, kind: str) -> list:
        """Traversal cost per cell of the layout alone for a 'walker' or a
        'driver', indexed ``y * width + x``: infinite on impassable ground,
        blind to obstacles.  Built once per layout and kind, and shared with
        its overlays."""
        table = _WALKER_COSTS if kind == "walker" else _DRIVER_COSTS
        return self.layout_table(("costs", kind), lambda: [table[g] for g in self.ground])

    def costs(self, kind: str) -> list:
        """Traversal cost per cell for a 'walker' or a 'driver', indexed
        ``y * width + x``: the ground cost, infinite on obstacles.  This is
        the only place obstacles enter a search.  Built once per grid and
        kind, as a copy of ``ground_costs`` with the obstacle cells marked."""
        costs = self._costs.get(kind)
        if costs is None:
            costs = self.ground_costs(kind)
            if self.obstacles:
                costs = costs.copy()
                for x, y in self.obstacles:
                    costs[y * self.width + x] = math.inf
            self._costs[kind] = costs
        return costs

    def ground_mask(self, *grounds: GroundType) -> np.ndarray:
        """The one mask rule: a read-only boolean array, indexed ``y * width +
        x``, of the cells whose ground type is one of ``grounds``.  Built once
        per layout and set of ground types, whatever their order, and kept."""
        return self.layout_table(("mask", frozenset(grounds)), lambda: np.frombuffer(
            self.ground.translate(bytes(g in grounds for g in range(256))), bool))

    def neighbours(self, cells: np.ndarray) -> list:
        """The layout's one 4-neighbour rule: for ``cells``, indexed ``y *
        width + x``, one array per Direction, at its value, whose entry at a
        cell is that of ``cells`` at the cell's neighbour in that direction,
        or 0 where that neighbour is off the grid."""
        width, height = self.width, self.height
        padded = np.zeros((height + 2, width + 2), cells.dtype)
        padded[1:-1, 1:-1] = cells.reshape(height, width)
        return [padded[1 + dy:1 + dy + height, 1 + dx:1 + dx + width].ravel()
                for dx, dy, _, _ in DIRECTION_TABLE]

    def beside(self, *grounds: GroundType) -> np.ndarray:
        """Boolean array, indexed ``y * width + x``, of the cells that have a
        4-neighbour whose ground type is one of ``grounds``; a neighbour off
        the grid never counts.  Made on each call and not kept."""
        north, east, south, west = self.neighbours(self.ground_mask(*grounds))
        return north | east | south | west

    def turnspots(self) -> np.ndarray:
        """Boolean array, indexed ``y * width + x``, of the cells a driver
        may turn on leaving: TURN and LEFT_TURN cells, and the flow cells
        beside a ZEBRA.  A layout table, built once per layout."""
        return self.layout_table("turnspots", lambda: (
            self.ground_mask(GroundType.TURN, GroundType.LEFT_TURN)
            | self.ground_mask(*FLOW_GROUNDS) & self.beside(GroundType.ZEBRA)
        ))

    def with_obstacles(self, obstacles: Iterable[Coord]) -> "GridMap":
        """New map with the given obstacle overlay (spawn sites unchanged).

        The overlay shares the layout's ``_tables`` dict by reference, so the
        search tables are built once per layout, whichever map plans first;
        only its cost lists are its own."""
        obstacles = frozenset(obstacles)
        for x, y in obstacles:
            if not self.in_bounds((x, y)):
                raise ValueError(f"obstacle ({x}, {y}) outside the grid")
            if self.ground[y * self.width + x] == GroundType.BUILDING:
                raise ValueError(f"obstacle ({x}, {y}) placed on a building cell")
        return dataclasses.replace(self, obstacles=obstacles, _costs={})


def _sorted_cells(mask: np.ndarray, width: int) -> tuple:
    """The ``(x, y)`` cells set in ``mask`` (indexed ``y * width + x``), sorted."""
    return tuple(sorted((i % width, i // width) for i in np.flatnonzero(mask).tolist()))


def _driver_sites(ground, flow, width, height) -> tuple[tuple, tuple]:
    """Driver spawn sites and exits, from the lanes that cross the boundary.

    A boundary cell's inward directions are the DIRECTION_TABLE rows whose
    backward neighbour ``(x - dx, y - dy)`` is off the map.  A boundary cell
    whose flow points off the map is an exit.  Entry lanes are traced inward
    from the boundary until a plain road cell: spawn sites must sit on Road
    ground even when the lane enters the map through an intersection or a
    crossing band.
    """
    spawns, exits = set(), set()
    for y in range(height):
        # the boundary ring: the first and last rows whole, the others' ends
        for x in range(width) if y in (0, height - 1) else (0, width - 1):
            if _DRIVER_COSTS[ground[y * width + x]] == math.inf:
                continue
            for d, (dx, dy, back, _) in zip(Direction, DIRECTION_TABLE):
                if 0 <= x - dx < width and 0 <= y - dy < height:
                    continue  # the lane behind this cell is on the map
                if flow[y * width + x] >> back & 1:
                    exits.add((x, y))
                px, py = x, y
                for _ in range(max(width, height)):
                    i = py * width + px
                    if _DRIVER_COSTS[ground[i]] == math.inf or not flow[i] >> d & 1:
                        break
                    if ground[i] == GroundType.ROAD:
                        spawns.add(((px, py), d))
                        break
                    px, py = px + dx, py + dy
                    if not (0 <= px < width and 0 <= py < height):
                        break
    # a cell may take two inward headings: they sort by their token letters
    spawns = sorted(spawns, key=lambda s: (s[0], _FLOW_LETTERS[s[1]]))
    return tuple(spawns), tuple(sorted(exits))


def parse_grid(text: str) -> GridMap:
    """Parse grid file content into a GridMap.

    Format: a ``<width> <height>`` header line, then ``height`` lines of
    ``width`` whitespace-separated 3-character tokens.  Lines starting with
    '#' are ignored.
    """
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GridParseError("empty grid file")
    header = lines[0].split()
    if len(header) != 2:
        raise GridParseError("header must be '<width> <height>'")
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise GridParseError("header must be '<width> <height>'") from None
    if width < 1 or height < 1:
        raise GridParseError("grid dimensions must be positive")
    body = lines[1:]
    if len(body) != height:
        raise GridParseError(f"expected {height} rows, found {len(body)}")
    grid = GridMap.build(line.split() for line in body)
    if grid.width != width:
        raise GridParseError(f"row 0: expected {width} tokens, found {grid.width}")
    return grid


def serialize_grid(grid: GridMap) -> str:
    """Canonical text form of a grid; parse_grid inverts it exactly."""
    tokens = {cell: _token(*cell) for cell in set(zip(grid.ground, grid.flow))}
    cells = [tokens[cell] for cell in zip(grid.ground, grid.flow)]
    width = grid.width
    lines = [f"{width} {grid.height}"]
    lines += (" ".join(cells[i:i + width]) for i in range(0, len(cells), width))
    return "\n".join(lines) + "\n"


def parse_obstacle_list(text: str) -> frozenset:
    """Parse an obstacle list: one 'x y' pair per line, '#' comments ignored."""
    coords = set()
    for i, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GridParseError(f"obstacle line {i}: expected 'x y', got {line!r}")
        try:
            coords.add((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GridParseError(f"obstacle line {i}: expected integers") from None
    return frozenset(coords)


def serialize_obstacle_list(obstacles: Iterable[Coord]) -> str:
    return "".join(f"{x} {y}\n" for x, y in sorted(obstacles))


@dataclass(frozen=True)
class LayoutSpec:
    """Parameters of a procedural block layout: a block is a square of side
    ``block_side``, a building of side ``block_side - 2`` in a one-cell
    sidewalk ring.  Checked when made: a bad value raises ValueError."""

    blocks_x: int = 1
    blocks_y: int = 1
    block_side: int = 15
    lanes_per_direction: int = 2

    def __post_init__(self) -> None:
        for name, v in dataclasses.asdict(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # a numpy integer is stored as int
        if self.blocks_x < 1 or self.blocks_y < 1:
            raise ValueError("block counts must be at least 1")
        if self.block_side < 3:
            raise ValueError("block_side must be at least 3")
        if self.lanes_per_direction < 1:
            raise ValueError("lanes_per_direction must be at least 1")


def generate_layout(spec: LayoutSpec) -> GridMap:
    """Generate a city of uniform blocks separated by two-way streets.

    Every block is a building square wrapped in a one-cell sidewalk ring.
    Street corridors (2 * lanes_per_direction cells wide) run between and
    around the blocks; right-hand traffic puts northbound lanes on the east
    half of vertical corridors and eastbound lanes on the south half of
    horizontal ones.  Corridor crossings become turn cells advertising both
    lane directions: ``TURN`` where both lanes lie in the first half of their
    corridors or both in the second, ``LEFT_TURN`` elsewhere.  A lane cell
    whose offset along its street (``y % pitch`` on a vertical lane,
    ``x % pitch`` on a horizontal one) is ``sw`` or ``pitch - 1``, right
    beside an intersection, is a zebra with its lane's flow, so zebra bands
    span each street on every approach to one.  The layout is spelled one
    row of cell tokens at a time, as a grid file writes it, and built by
    ``GridMap.build``.
    """
    lanes = spec.lanes_per_direction
    sw = 2 * lanes
    pitch = spec.block_side + sw
    width = spec.blocks_x * pitch + sw
    height = spec.blocks_y * pitch + sw

    road, zebra, turn, left_turn, sidewalk, building = (_GROUND_LETTERS[g] for g in (
        GroundType.ROAD, GroundType.ZEBRA, GroundType.TURN, GroundType.LEFT_TURN,
        GroundType.SIDEWALK, GroundType.BUILDING,
    ))

    def row(y: int) -> list[str]:
        oh = y % pitch
        dh = "W" if oh < lanes else "E"
        edge_h = oh in (sw, pitch - 1)  # a block's top or bottom row
        tokens = []
        for x in range(width):
            ov = x % pitch
            dv = "S" if ov < lanes else "N"
            edge_v = ov in (sw, pitch - 1)  # a block's left or right column
            if ov < sw and oh < sw:
                right = (ov < lanes) == (oh < lanes)  # dh is clockwise of dv
                tokens.append((turn if right else left_turn) + dv + dh)
            elif ov < sw:
                tokens.append((zebra if edge_h else road) + dv + "-")
            elif oh < sw:
                tokens.append((zebra if edge_v else road) + dh + "-")
            else:
                tokens.append((sidewalk if edge_v or edge_h else building) + "--")
        return tokens

    return GridMap.build(row(y) for y in range(height))


def place_obstacles(grid: GridMap, fraction: float, rng: random.Random) -> GridMap:
    """Obstruct round(fraction * sidewalk cells) sidewalk cells, uniformly.

    Sampling is without replacement among not-yet-obstructed sidewalk cells;
    a fixed rng seed reproduces the exact obstacle set.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("obstruction fraction must lie in [0, 1]")
    # the sidewalk cells as flat indices, in sorted (x, y) order, depend on
    # the layout alone
    width = grid.width
    sidewalks = grid.layout_table("sidewalks", lambda: array("i", [
        y * width + x
        for x, y in _sorted_cells(grid.ground_mask(GroundType.SIDEWALK), width)
    ]))
    target = round(fraction * len(sidewalks))
    if target == 0:
        return grid
    taken = {y * width + x for x, y in grid.obstacles}
    free = [i for i in sidewalks if i not in taken]
    if target > len(free):
        raise ValueError(
            f"cannot obstruct {target} sidewalk cells, only {len(free)} free"
        )
    picked = rng.sample(free, target)
    return grid.with_obstacles(grid.obstacles | frozenset((i % width, i // width) for i in picked))
