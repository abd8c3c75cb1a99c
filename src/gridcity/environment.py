"""Grid-encoded city environment.

Each cell of the map is a 3-character token: a ground-type character followed
by up to two permitted vehicular flow directions (padded with '-').  The module
covers the token codec, whole-grid (de)serialization, procedural block layouts,
sidewalk obstacle placement, and the per-cell traversal costs for both agent
kinds.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

Coord = tuple[int, int]


class GridParseError(ValueError):
    """Malformed grid text (bad token, ragged rows, bad header)."""


class LayoutError(ValueError):
    """Invalid procedural layout parameters."""


class Direction(Enum):
    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"

    @property
    def dx(self) -> int:
        return _DELTAS[self][0]

    @property
    def dy(self) -> int:
        return _DELTAS[self][1]

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITES[self]

    @property
    def clockwise(self) -> "Direction":
        return _CLOCKWISE[self]

    @classmethod
    def from_char(cls, ch: str) -> "Direction":
        try:
            return cls(ch)
        except ValueError:
            raise GridParseError(f"unknown direction character {ch!r}") from None


# y grows downward (text rows), so NORTH points toward row 0.
_DELTAS = {
    Direction.NORTH: (0, -1),
    Direction.EAST: (1, 0),
    Direction.SOUTH: (0, 1),
    Direction.WEST: (-1, 0),
}
_OPPOSITES = {
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
}
_CLOCKWISE = {
    Direction.NORTH: Direction.EAST,
    Direction.EAST: Direction.SOUTH,
    Direction.SOUTH: Direction.WEST,
    Direction.WEST: Direction.NORTH,
}

#: Canonical ordering for serialization and neighbor expansion.
DIRECTION_ORDER: tuple[Direction, ...] = (
    Direction.NORTH,
    Direction.EAST,
    Direction.SOUTH,
    Direction.WEST,
)


class GroundType(Enum):
    ROAD = "r"
    SIDEWALK = "s"
    BUILDING = "b"
    PARKING = "p"
    ZEBRA = "z"
    TURN = "t"
    LEFT_TURN = "l"
    OBSTACLE = "o"
    POTHOLE = "h"

    @classmethod
    def from_char(cls, ch: str) -> "GroundType":
        try:
            return cls(ch)
        except ValueError:
            raise GridParseError(f"unknown ground character {ch!r}") from None


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


@dataclass(frozen=True)
class CellCode:
    """One grid cell: ground type plus permitted vehicular flow directions."""

    ground: GroundType
    flow: frozenset = frozenset()

    def __post_init__(self):
        if self.ground in FLOW_GROUNDS:
            if not 1 <= len(self.flow) <= 2:
                raise ValueError(
                    f"cell type {self.ground.value!r} requires 1-2 flow directions, "
                    f"got {len(self.flow)}"
                )
        elif self.flow:
            raise ValueError(
                f"cell type {self.ground.value!r} does not take flow directions"
            )

    def token(self) -> str:
        chars = [d.value for d in DIRECTION_ORDER if d in self.flow]
        return self.ground.value + "".join(chars).ljust(2, "-")

    @classmethod
    def from_token(cls, token: str) -> "CellCode":
        if len(token) != 3:
            raise GridParseError(f"token {token!r} must be 3 characters")
        ground = GroundType.from_char(token[0])
        dirs: list[Direction] = []
        seen_pad = False
        for ch in token[1:]:
            if ch == "-":
                seen_pad = True
                continue
            if seen_pad:
                raise GridParseError(
                    f"token {token!r}: direction after '-' placeholder"
                )
            d = Direction.from_char(ch)
            if d in dirs:
                raise GridParseError(f"token {token!r}: duplicate flow direction")
            dirs.append(d)
        try:
            return cls(ground, frozenset(dirs))
        except ValueError as exc:
            raise GridParseError(f"token {token!r}: {exc}") from None


def walker_cost(cell: CellCode) -> float:
    """Pedestrian traversal cost for one cell; infinite on impassable ground."""
    return _WALKER_COSTS[cell.ground]


def driver_cost(cell: CellCode) -> float:
    """Vehicle traversal cost for one cell; infinite on impassable ground."""
    return _DRIVER_COSTS[cell.ground]


@dataclass(frozen=True)
class GridMap:
    """Immutable city grid: cells, obstacle overlay, and spawn/goal sites.

    ``cells`` is indexed ``[y][x]``.  Obstacles are an overlay on top of the
    ground type so the underlying cell stays inspectable.  Spawn sites are
    computed once at construction: walker sites are building-adjacent sidewalk
    cells, driver sites are road cells where an inbound lane enters the map
    (paired with the inbound heading), driver exits are boundary cells whose
    flow points off the map.
    """

    width: int
    height: int
    cells: tuple
    obstacles: frozenset = frozenset()
    walker_spawns: tuple = ()
    driver_spawns: tuple = ()
    driver_exits: tuple = ()
    parking_cells: tuple = ()
    lane_offsets: tuple[float, float] = (0.5, 0.5)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(
        cls,
        rows: Sequence[Sequence[CellCode]],
        obstacles: Iterable[Coord] = (),
        lane_offsets: tuple[float, float] = (0.5, 0.5),
    ) -> "GridMap":
        if not rows or not rows[0]:
            raise ValueError("grid must have at least one row and one column")
        width = len(rows[0])
        for y, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {y} has {len(row)} cells, expected {width}")
        height = len(rows)
        cells = tuple(tuple(row) for row in rows)
        obstacles = frozenset(obstacles)
        _check_obstacles(cells, width, height, obstacles)
        if not (0 <= lane_offsets[0] < 1 and 0 <= lane_offsets[1] < 1):
            raise ValueError("lane offsets must lie in [0, 1)")
        return cls(
            width=width,
            height=height,
            cells=cells,
            obstacles=obstacles,
            walker_spawns=_walker_spawn_sites(cells, width, height),
            driver_spawns=_driver_spawn_sites(cells, width, height),
            driver_exits=_driver_exit_sites(cells, width, height),
            parking_cells=tuple(
                sorted(
                    (x, y)
                    for y in range(height)
                    for x in range(width)
                    if cells[y][x].ground is GroundType.PARKING
                )
            ),
            lane_offsets=lane_offsets,
        )

    def in_bounds(self, coord: Coord) -> bool:
        x, y = coord
        return 0 <= x < self.width and 0 <= y < self.height

    def cell_at(self, coord: Coord) -> CellCode:
        x, y = coord
        return self.cells[y][x]

    def ground_at(self, coord: Coord) -> GroundType:
        return self.cell_at(coord).ground

    def flow_at(self, coord: Coord) -> frozenset:
        return self.cell_at(coord).flow

    def walker_cost_at(self, coord: Coord) -> float:
        if coord in self.obstacles:
            return math.inf
        return _WALKER_COSTS[self.cell_at(coord).ground]

    def driver_cost_at(self, coord: Coord) -> float:
        if coord in self.obstacles:
            return math.inf
        return _DRIVER_COSTS[self.cell_at(coord).ground]

    def center(self, coord: Coord) -> tuple[float, float]:
        """Continuous lane-center point of a cell."""
        return (coord[0] + self.lane_offsets[0], coord[1] + self.lane_offsets[1])

    def with_obstacles(self, obstacles: Iterable[Coord]) -> "GridMap":
        """New map with the given obstacle overlay (spawn sites unchanged)."""
        obstacles = frozenset(obstacles)
        _check_obstacles(self.cells, self.width, self.height, obstacles)
        return dataclasses.replace(self, obstacles=obstacles, _cache={})

    def ground_counts(self) -> dict:
        counts: dict = {g: 0 for g in GroundType}
        for row in self.cells:
            for cell in row:
                counts[cell.ground] += 1
        return counts


def _check_obstacles(cells, width, height, obstacles: frozenset) -> None:
    for x, y in obstacles:
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"obstacle ({x}, {y}) outside the grid")
        if cells[y][x].ground is GroundType.BUILDING:
            raise ValueError(f"obstacle ({x}, {y}) placed on a building cell")


def _walker_spawn_sites(cells, width, height) -> tuple:
    sites = []
    for y in range(height):
        for x in range(width):
            if cells[y][x].ground is not GroundType.SIDEWALK:
                continue
            for d in DIRECTION_ORDER:
                nx, ny = x + d.dx, y + d.dy
                if 0 <= nx < width and 0 <= ny < height:
                    if cells[ny][nx].ground is GroundType.BUILDING:
                        sites.append((x, y))
                        break
    return tuple(sorted(sites))


def _inward_dirs(x: int, y: int, width: int, height: int) -> list[Direction]:
    dirs = []
    if y == 0:
        dirs.append(Direction.SOUTH)
    if y == height - 1:
        dirs.append(Direction.NORTH)
    if x == 0:
        dirs.append(Direction.EAST)
    if x == width - 1:
        dirs.append(Direction.WEST)
    return dirs


def _driver_spawn_sites(cells, width, height) -> tuple:
    # Entry lanes are traced inward from the boundary until a plain road cell:
    # spawn sites must sit on Road ground even when the lane enters the map
    # through an intersection or a crossing band.
    sites = set()
    for y in range(height):
        for x in range(width):
            if x not in (0, width - 1) and y not in (0, height - 1):
                continue
            cell = cells[y][x]
            for d in _inward_dirs(x, y, width, height):
                if d not in cell.flow:
                    continue
                px, py = x, y
                for _ in range(max(width, height)):
                    c = cells[py][px]
                    if _DRIVER_COSTS[c.ground] == math.inf or d not in c.flow:
                        break
                    if c.ground is GroundType.ROAD:
                        sites.add(((px, py), d))
                        break
                    px, py = px + d.dx, py + d.dy
                    if not (0 <= px < width and 0 <= py < height):
                        break
    return tuple(sorted(sites, key=lambda s: (s[0], s[1].value)))


def _driver_exit_sites(cells, width, height) -> tuple:
    sites = set()
    for y in range(height):
        for x in range(width):
            if x not in (0, width - 1) and y not in (0, height - 1):
                continue
            cell = cells[y][x]
            if _DRIVER_COSTS[cell.ground] == math.inf:
                continue
            for d in _inward_dirs(x, y, width, height):
                if d.opposite in cell.flow:
                    sites.add((x, y))
    return tuple(sorted(sites))


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
    rows = []
    for y, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != width:
            raise GridParseError(f"row {y}: expected {width} tokens, found {len(tokens)}")
        row = []
        for x, token in enumerate(tokens):
            try:
                row.append(CellCode.from_token(token))
            except GridParseError as exc:
                raise GridParseError(f"row {y}, column {x}: {exc}") from None
        rows.append(row)
    return GridMap.build(rows)


def serialize_grid(grid: GridMap) -> str:
    """Canonical text form of a grid; parse_grid inverts it exactly."""
    lines = [f"{grid.width} {grid.height}"]
    for row in grid.cells:
        lines.append(" ".join(cell.token() for cell in row))
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
    """Parameters of a procedural block layout."""

    blocks_x: int
    blocks_y: int
    block_side: int = 15
    building_side: int = 13
    lanes_per_direction: int = 2

    def validate(self) -> None:
        if self.blocks_x < 1 or self.blocks_y < 1:
            raise LayoutError("block counts must be at least 1")
        if self.building_side < 1:
            raise LayoutError("building_side must be at least 1")
        if self.building_side + 2 != self.block_side:
            raise LayoutError(
                f"building_side + 2 must equal block_side "
                f"({self.building_side} + 2 != {self.block_side})"
            )
        if self.lanes_per_direction < 1:
            raise LayoutError("lanes_per_direction must be at least 1")


def generate_layout(spec: LayoutSpec) -> GridMap:
    """Generate a city of uniform blocks separated by two-way streets.

    Every block is a building square wrapped in a one-cell sidewalk ring.
    Street corridors (2 * lanes_per_direction cells wide) run between and
    around the blocks; right-hand traffic puts northbound lanes on the east
    half of vertical corridors and eastbound lanes on the south half of
    horizontal ones.  Corridor crossings become turn cells advertising both
    lane directions, and zebra bands span each street on every approach to an
    intersection.
    """
    spec.validate()
    lanes = spec.lanes_per_direction
    sw = 2 * lanes
    bs = spec.block_side
    pitch = bs + sw
    width = spec.blocks_x * bs + (spec.blocks_x + 1) * sw
    height = spec.blocks_y * bs + (spec.blocks_y + 1) * sw

    def corridor_offset(i: int):
        off = i % pitch
        return off if off < sw else None

    rows: list[list[CellCode]] = []
    for y in range(height):
        oh = corridor_offset(y)
        row: list[CellCode] = []
        for x in range(width):
            ov = corridor_offset(x)
            if ov is not None and oh is not None:
                dv = Direction.SOUTH if ov < lanes else Direction.NORTH
                dh = Direction.WEST if oh < lanes else Direction.EAST
                ground = GroundType.TURN if dv.clockwise is dh else GroundType.LEFT_TURN
                row.append(CellCode(ground, frozenset({dv, dh})))
            elif ov is not None:
                dv = Direction.SOUTH if ov < lanes else Direction.NORTH
                row.append(CellCode(GroundType.ROAD, frozenset({dv})))
            elif oh is not None:
                dh = Direction.WEST if oh < lanes else Direction.EAST
                row.append(CellCode(GroundType.ROAD, frozenset({dh})))
            else:
                bx = x % pitch - sw
                by = y % pitch - sw
                ring = bx in (0, bs - 1) or by in (0, bs - 1)
                row.append(
                    CellCode(GroundType.SIDEWALK if ring else GroundType.BUILDING)
                )
        rows.append(row)

    # Zebra bands: one per street side at each intersection approach.
    for kv in range(spec.blocks_x + 1):
        for kh in range(spec.blocks_y + 1):
            ix0, iy0 = kv * pitch, kh * pitch
            bands = []
            if iy0 - 1 >= 0:
                bands += [(x, iy0 - 1) for x in range(ix0, ix0 + sw)]
            if iy0 + sw < height:
                bands += [(x, iy0 + sw) for x in range(ix0, ix0 + sw)]
            if ix0 - 1 >= 0:
                bands += [(ix0 - 1, y) for y in range(iy0, iy0 + sw)]
            if ix0 + sw < width:
                bands += [(ix0 + sw, y) for y in range(iy0, iy0 + sw)]
            for x, y in bands:
                cell = rows[y][x]
                assert cell.ground is GroundType.ROAD
                rows[y][x] = CellCode(GroundType.ZEBRA, cell.flow)

    return GridMap.build(rows)


def place_obstacles(grid: GridMap, fraction: float, rng: random.Random) -> GridMap:
    """Obstruct round(fraction * sidewalk cells) sidewalk cells, uniformly.

    Sampling is without replacement among not-yet-obstructed sidewalk cells;
    a fixed rng seed reproduces the exact obstacle set.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("obstruction fraction must lie in [0, 1]")
    sidewalks = sorted(
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.cells[y][x].ground is GroundType.SIDEWALK
    )
    target = round(fraction * len(sidewalks))
    if target == 0:
        return grid
    free = [c for c in sidewalks if c not in grid.obstacles]
    if target > len(free):
        raise ValueError(
            f"cannot obstruct {target} sidewalk cells, only {len(free)} free"
        )
    picked = rng.sample(free, target)
    return grid.with_obstacles(grid.obstacles | frozenset(picked))
