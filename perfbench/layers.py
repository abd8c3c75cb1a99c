"""Per-layer metrics of a traced execution, computed from its spans.

``observers`` gives the per-call observers a traced execution installs with
its probes; ``compute`` turns the recorded spans and observations into the
metrics listed in ``METRICS``.  Times and counts are per run (a sweep's runs
averaged); shares are ratios of totals over the whole execution.
"""
from __future__ import annotations

STALL_STEPS = 50  # an active agent that has not moved for this many steps is stalled
PLANNER_W = (("walker", 1), ("walker", 3), ("driver", 1), ("driver", 3), ("driver", 5))
EVENT_KINDS = (
    "spawn", "goal", "park", "reactivate", "collision_vv", "runover",
    "jaywalk_entry", "replan",
)

METRICS = (
    ("agents.sense.calls", "count"),
    ("agents.sense.us_mean", "us"),
    ("agents.sense.share", "ratio"),
    ("agents.sense.candidates_per_call", "count"),
    ("agents.sense.hits_per_call", "count"),
    ("agents.sense.hit_ratio", "ratio"),
    ("agents.view_of.s", "s"),
    ("agents.react.s", "s"),
    ("agents.act.self_s", "s"),
    # walker searches never fail on the listed workloads' layouts, so there
    # is no planner.walker.failed.* (a time that is 0 on every run)
    *(
        (f"planner.{kind}.{outcome}.{stat}", unit)
        for kind, outcome in (("walker", "found"), ("driver", "found"), ("driver", "failed"))
        for stat, unit in (("calls", "count"), ("ms_mean", "ms"), ("expansions_mean", "count"))
    ),
    ("planner.spawn.share", "ratio"),
    ("planner.replan.share", "ratio"),
    ("planner.replan.repeat_failed_share", "ratio"),
    ("planner.expansions_per_s", "1/s"),
    *((f"planner.{kind}.w{w}.ms_mean", "ms") for kind, w in PLANNER_W),
    ("planner.cold_plan_ms", "ms"),
    ("environment.generate_layout_s", "s"),
    ("environment.place_obstacles_s", "s"),
    ("engine.step.self_s", "s"),
    ("engine.detect_collisions.s", "s"),
    ("engine.spawn_refused", "count"),
    ("engine.active_agents_mean", "count"),
    ("engine.stalled_share", "ratio"),
    *((f"engine.events.{kind}", "count") for kind in EVENT_KINDS),
    ("metrics.build_frame.s", "s"),
    ("metrics.accumulate_heatmaps.s", "s"),
    ("metrics.export_run.s", "s"),
    ("metrics.export_bytes", "B"),
    ("cli.build_grid.s", "s"),
    ("cli.execute_run.s", "s"),
    ("bench.spans", "count"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_overhead_share", "ratio"),
)

_PLAN_PARAMS = ("grid", "start", "goal", "profile", "blocked", "heading")


def _plan_call(args, kwargs, result):
    """The whole input of a plan or replan call, and what it returned."""
    bound = dict(zip(_PLAN_PARAMS, args))
    bound.update(kwargs)
    start = bound.get("start", bound.get("current"))
    profile = bound["profile"]
    grid = bound["grid"]
    key = (id(grid), profile.kind, start, bound.get("heading"), bound["goal"],
           profile.w, profile.alpha, frozenset(bound.get("blocked", ())))
    expansions = None if result is None else result.expansions
    return key, grid, profile, expansions


def _sense_call(args, kwargs, perception):
    others = args[1] if len(args) > 1 else kwargs["others"]
    return len(others), len(perception.nearby)


def _export_call(args, kwargs, paths):
    return sum(p.stat().st_size for p in paths)


def observers(status) -> dict:
    """Per-call observers by span name; ``status`` is gridcity's Status enum."""
    last_moved: dict = {}  # (world id, agent id) -> (position, step it last moved)
    worlds: dict = {}  # keeps every world alive so that no id is reused
    active_status = status.ACTIVE

    def step_call(args, kwargs, record):
        world = args[0]
        t, wid = world.step_count, id(world)
        worlds.setdefault(wid, world)
        active = stalled = 0
        for agent in world.agents.values():
            if agent.status is not active_status:
                continue
            active += 1
            seen = last_moved.get((wid, agent.id))
            if seen is None or seen[0] != agent.position:
                last_moved[(wid, agent.id)] = (agent.position, t)
            elif t - seen[1] >= STALL_STEPS:
                stalled += 1
        return wid, active, stalled, len(getattr(world, "warnings", ()))

    return {
        "engine.step": step_call,
        "agents.sense": _sense_call,
        "planner.plan": _plan_call,
        "planner.replan": _plan_call,
        "metrics.export_run": _export_call,
    }


def _replay_expansions(grid, profile, key) -> int:
    """Expansions of a failed search, counted by replaying it with a trace."""
    from gridcity.planner import plan

    _, _, start, heading, goal, _, _, blocked = key
    trace: list = []
    plan(grid, start, goal, profile, blocked=blocked, heading=heading, trace=trace)
    return len(trace)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def compute(tracer, runs: int, events: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics and a list of accounting problems (empty when sound)."""
    groups = tracer.by_name()
    own = tracer.self_times()
    start, end = tracer.start, tracer.end

    def spans(name):
        return groups.get(name, [])

    def total(name):
        return sum(end[i] - start[i] for i in spans(name))

    def self_total(name):
        return sum(own[i] for i in spans(name))

    step_total = total("engine.step") or 1.0
    m: dict[str, float] = {}

    sense = [obs for _, obs in tracer.kept_calls("agents.sense")]
    candidates = sum(c for c, _ in sense)
    hits = sum(h for _, h in sense)
    m["agents.sense.calls"] = len(sense) / runs
    m["agents.sense.us_mean"] = self_total("agents.sense") / max(1, len(sense)) * 1e6
    m["agents.sense.share"] = self_total("agents.sense") / step_total
    m["agents.sense.candidates_per_call"] = candidates / max(1, len(sense))
    m["agents.sense.hits_per_call"] = hits / max(1, len(sense))
    m["agents.sense.hit_ratio"] = hits / max(1, candidates)
    m["agents.view_of.s"] = self_total("agents.view_of") / runs
    m["agents.react.s"] = (self_total("agents.react_walker")
                           + self_total("agents.react_driver")) / runs
    m["agents.act.self_s"] = self_total("agents.act") / runs

    # planner: every call in call order, with its site and outcome
    calls = sorted(
        [(span, obs, "replan") for span, obs in tracer.kept_calls("planner.replan")]
        + [(span, obs, "spawn") for span, obs in tracer.kept_calls("planner.plan")]
    )
    replayed: dict = {}
    failed_before: set = set()
    repeat_failed = failed_replans = 0
    stats: dict = {}
    total_expansions = 0
    for span, (key, grid, profile, expansions), site in calls:
        ms = (end[span] - start[span]) * 1e3
        outcome = "found"
        if expansions is None:
            outcome = "failed"
            if key not in replayed:
                replayed[key] = _replay_expansions(grid, profile, key)
            expansions = replayed[key]
            if site == "replan":
                failed_replans += 1
                repeat_failed += key in failed_before
            failed_before.add(key)
        total_expansions += expansions
        stats.setdefault((profile.kind, outcome), []).append((ms, expansions))
        if outcome == "found":
            stats.setdefault((profile.kind, int(profile.w)), []).append((ms, expansions))
    for kind, outcome in (("walker", "found"), ("driver", "found"), ("driver", "failed")):
        rows = stats.get((kind, outcome), [])
        m[f"planner.{kind}.{outcome}.calls"] = len(rows) / runs
        m[f"planner.{kind}.{outcome}.ms_mean"] = _mean(ms for ms, _ in rows)
        m[f"planner.{kind}.{outcome}.expansions_mean"] = _mean(e for _, e in rows)
    spawn_in_steps = [i for i in spans("planner.plan")
                      if tracer.ancestor_named(i, "engine.step") >= 0]
    m["planner.spawn.share"] = sum(end[i] - start[i] for i in spawn_in_steps) / step_total
    m["planner.replan.share"] = total("planner.replan") / step_total
    m["planner.replan.repeat_failed_share"] = repeat_failed / max(1, failed_replans)
    plan_s = total("planner.plan") + total("planner.replan")
    m["planner.expansions_per_s"] = total_expansions / plan_s if plan_s else 0.0
    for kind, w in PLANNER_W:
        m[f"planner.{kind}.w{w}.ms_mean"] = _mean(ms for ms, _ in stats.get((kind, w), []))

    # the first plan of each kind on each fresh world pays for the lazy
    # navigation arrays and, for drivers, the edge-action table
    first: dict = {}
    for span, (_, _, profile, _), _ in calls:
        world = tracer.ancestor_named(span, "engine.World.__init__")
        if world >= 0:
            first.setdefault((world, profile.kind), end[span] - start[span])
    worlds = len(spans("engine.World.__init__")) or 1
    m["planner.cold_plan_ms"] = sum(first.values()) / worlds * 1e3

    m["environment.generate_layout_s"] = total("environment.generate_layout") / runs
    m["environment.place_obstacles_s"] = total("environment.place_obstacles") / runs
    m["engine.step.self_s"] = self_total("engine.step") / runs
    m["engine.detect_collisions.s"] = total("engine.detect_collisions") / runs
    steps = [obs for _, obs in tracer.kept_calls("engine.step")]
    refused = {wid: warnings for wid, _, _, warnings in steps}
    active = sum(a for _, a, _, _ in steps)
    m["engine.spawn_refused"] = sum(refused.values()) / runs
    m["engine.active_agents_mean"] = active / max(1, len(steps))
    m["engine.stalled_share"] = sum(s for _, _, s, _ in steps) / max(1, active)
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = events.get(kind, 0) / runs
    m["metrics.build_frame.s"] = total("metrics.build_frame") / runs
    m["metrics.accumulate_heatmaps.s"] = total("metrics.accumulate_heatmaps") / runs
    m["metrics.export_run.s"] = total("metrics.export_run") / runs
    m["metrics.export_bytes"] = sum(b for _, b in tracer.kept_calls("metrics.export_run")) / runs
    m["cli.build_grid.s"] = total("cli.build_grid") / runs
    m["cli.execute_run.s"] = total("cli.execute_run") / runs
    m["bench.spans"] = len(start) / runs
    return m, accounting_problems(tracer, own)


def accounting_problems(tracer, own) -> list[str]:
    """Check that spans nest and that self times inside steps add up.

    Every child interval must lie inside its parent's, and the self times of
    the step spans and all their descendants must sum to the step time.
    """
    start, end, parent, name_of = tracer.start, tracer.end, tracer.parent, tracer.name_of
    step_id = tracer.names.index("engine.step")
    problems = []
    in_step = [False] * len(start)
    inside = step_time = 0.0
    for i, p in enumerate(parent):
        if p >= 0 and not (start[p] <= start[i] <= end[i] <= end[p]):
            problems.append(f"span {tracer.names[name_of[i]]} #{i} escapes its parent")
            break
        in_step[i] = name_of[i] == step_id or (p >= 0 and in_step[p])
        if in_step[i]:
            inside += own[i]
        if name_of[i] == step_id:
            step_time += end[i] - start[i]
    if abs(inside - step_time) > 1e-9 * max(1.0, len(start)):
        problems.append(f"self times inside steps sum to {inside!r} s, steps took {step_time!r} s")
    return problems

