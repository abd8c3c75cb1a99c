"""gridcity: deterministic multi-agent urban mobility simulation."""

from .environment import (
    Coord,
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
)
from .planner import (
    Action,
    BehaviorProfile,
    Plan,
    classify_action,
    default_heading,
    plan,
)
from .agents import (
    AgentState,
    Decision,
    Population,
    Status,
    act,
    decide,
)
from .engine import (
    Event,
    RUNOVER_DIST,
    SimConfig,
    SimulationResult,
    StepRecord,
    VEHICLE_VEHICLE_DIST,
    VEHICLE_RADIUS,
    WALKER_RADIUS,
    World,
    detect_collisions,
    run,
)
from .metrics import (
    HeatmapSet,
    MetricsFrame,
    build_frame,
    export_run,
)

__version__ = "0.1.0"
