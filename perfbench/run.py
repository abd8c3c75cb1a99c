"""gridcity benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload city|jam|sweep|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each execution of a workload runs in a fresh process (``rep.py``).  Without
tracing, a run sweeps a battery of seeds derived from ``--seed``, its size
fixed by ``--seconds``, and then runs the first seed again to check that the
same inputs give byte-identical CSVs.  With ``--trace 1`` it alternates
untraced and traced executions of the seed, requires identical outputs, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exits 1 when an output check fails and 2 when gridcity's
sources are absent.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("city", "jam", "sweep")
DEFAULT_SEED = {"city": 7, "jam": 1, "sweep": 7}
WORKERS = 2  # the battery's sweep pool: the machine's core count
# Seconds, on the 2-vCPU baseline machine, that one more seed adds to the
# battery, that the repeat of the last sweep point takes, and that one
# untraced-plus-traced pair takes.  They fix the work of a run from --seconds
# alone, never from how fast the program under test is.
COST_S = {  # workload: (seed, repeat, trace pair)
    "city": (4.2, 8.0, 17.0),
    "jam": (2.0, 4.5, 9.5),
    "sweep": (10.5, 3.0, 42.0),
}
DEADLINE_S = 170.0

# The metrics of the JSON result, the ones BENCHMARK.json bounds.  The report
# also prints step_ms_p50, step_ms_p95 and failed_run_share.  A step with an
# exhaustive failed search takes 15-50 ms against 2-30 ms without, and the
# share of such steps changes with the seeds, so a step-latency quantile near
# that share jumps between the two (jam's median, city's and sweep's 95th
# percentile move by 20-80% between seeds) and no bound can hold it.  The
# share of failed runs is 0 whenever the output check passes.
E2E_METRICS = (
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def battery(seed: int, count: int) -> list[int]:
    """``count`` simulation seeds: ``seed`` itself, then draws seeded by it."""
    rng = random.Random(seed)
    return [seed] + [rng.randrange(2**31) for _ in range(count - 1)]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


class Runner:
    """Starts executions in fresh processes until a shared deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def execute(self, workload: str, seeds: list[int], workers: int = 1,
                last_point: bool = False, traced: bool = False) -> dict:
        self.count += 1
        out = self.workdir / f"exec-{self.count}"
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seeds", ",".join(map(str, seeds)), "--out", str(out),
               "--workers", str(workers)]
        cmd += ["--last-point"] * last_point + ["--trace"] * traced
        failed = {"seeds": seeds, "runs": len(seeds), "failed_runs": len(seeds)}
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            return dict(failed, errors=["not started: run deadline passed"])
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=dict(os.environ, TMPDIR=str(self.workdir)),
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return dict(failed, errors=["killed at the run deadline"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            return dict(failed, errors=[f"exit {proc.returncode}: {tail}"])


def end_to_end(workload: str, result: dict) -> dict:
    """Each end-to-end metric as (value, spread over runs, sample count, what)."""
    steps, setups, run_s = result["step_s"], result["setup_s"], result["run_s"]
    per_run = len(steps) // len(run_s)
    run_steps = [steps[i:i + per_run] for i in range(0, len(steps), per_run)]
    if workload == "sweep":
        rate = len(steps) / result["wall_s"]
        run_rates = [per_run / t for t in run_s]
    else:
        rate = len(steps) / sum(steps)
        run_rates = [per_run / sum(r) for r in run_steps]
    runs = len(run_s)
    return {
        "steps_per_s": (rate, spread(run_rates), len(steps), "steps"),
        "step_ms_p50": (statistics.median(steps) * 1e3,
                        spread([statistics.median(r) for r in run_steps]), len(steps), "steps"),
        "step_ms_p95": (p95(steps) * 1e3, spread([p95(r) for r in run_steps]),
                        len(steps), "steps"),
        "setup_s": (statistics.median(setups), spread(setups), len(setups), "set-ups"),
        "wall_s": (result["wall_s"], spread(run_s), runs, "runs"),
        "peak_rss_mb": (result["peak_rss_mb"], 0.0, 1, "execution"),
    }


def check_outputs(results: list[dict], lines: list[str]) -> tuple[int, int]:
    """(attempted, failed) runs.  A run fails when it raised, wrote error.txt,
    failed a check, or its CSVs differ from an earlier run of the same inputs."""
    attempted = failed = 0
    first: dict = {}
    for r in results:
        attempted += r["runs"]
        failed += r["failed_runs"]
        lines += [f"  check failed: {error}" for error in r["errors"]]
        for run, digest in r.get("digests", {}).items():
            if digest is not None and first.setdefault(run, digest) != digest:
                lines.append(f"  check failed: {run} gave {digest}, earlier {first[run]}")
                failed += 1
        if r["errors"] and not r["failed_runs"]:
            failed += r["runs"]
    return attempted, failed


def seed_digest(result: dict, seed: int) -> str:
    """One digest over the runs of ``seed`` (one per sweep point)."""
    runs = sorted((run, d) for run, d in result["digests"].items()
                  if run.endswith(f"/seed{seed}"))
    return hashlib.sha256(repr(runs).encode()).hexdigest()


def bench_untraced(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    seed_s, repeat_s, _ = COST_S[workload]
    seeds = battery(seed, max(2, int((seconds - repeat_s) // seed_s)))
    results = [runner.execute(workload, seeds, workers=WORKERS),
               runner.execute(workload, [seed], last_point=True)]
    lines = [f"workload {workload}: seeds {','.join(map(str, seeds))} in one sweep, "
             f"then the last sweep point of seed {seed} again"]
    attempted, failed = check_outputs(results, lines)
    metrics = {}
    if not failed:
        lines.append(f"  digest of seed {seed}: {seed_digest(results[0], seed)} "
                     "(identical when repeated)")
        table = end_to_end(workload, results[0])
        table["failed_run_share"] = (failed / attempted, 0.0, attempted, "runs")
        units = dict(E2E_METRICS, step_ms_p50="ms", step_ms_p95="ms", failed_run_share="ratio")
        lines.append(f"  {'metric':<18}{'unit':<7}{'value':>14}{'spread':>9}  samples")
        for name, (value, spr, n, what) in table.items():
            lines.append(f"  {name:<18}{units[name]:<7}{value:>14.6g}{spr:>9.1%}  {n} {what}")
        metrics = {name: {"value": table[name][0], "unit": unit} for name, unit in E2E_METRICS}
    return attempted, failed, metrics, lines


def bench_traced(runner: Runner, workload: str, seed: int, seconds: int) -> tuple:
    pairs = max(1, int(seconds // COST_S[workload][2]))
    results = [runner.execute(workload, [seed], traced=traced)
               for _ in range(pairs) for traced in (False, True)]
    lines = [f"workload {workload}: seed {seed} in-process, untraced then traced, "
             f"{pairs} time(s)"]
    attempted, failed = check_outputs(results, lines)
    metrics = {}
    if not failed:
        plain = statistics.median(sum(r["run_s"]) for r in results[0::2])
        overhead = statistics.median(sum(r["run_s"]) for r in results[1::2]) - plain
        layer = {name: statistics.median(r["layers"][name] for r in results[1::2])
                 for name in results[1]["layers"]}
        layer["bench.trace_overhead_s"] = overhead
        layer["bench.trace_overhead_share"] = overhead / plain
        lines.append(f"  digest of seed {seed}: {seed_digest(results[1], seed)} "
                     "(identical untraced and traced); span accounting closes")
        lines.append(f"  tracing overhead: {overhead:.3f} s on {plain:.3f} s of untraced runs "
                     f"({overhead / plain:.1%}), medians of {pairs}")
        if results[1]["missing_probes"]:
            lines.append(f"  probes not found: {', '.join(results[1]['missing_probes'])}")
        lines.append(f"  {'metric (median of the traced executions)':<42}{'unit':<7}{'value':>14}")
        for name, unit in LAYER_METRICS:
            lines.append(f"  {name:<42}{unit:<7}{layer[name]:>14.6g}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_METRICS}
    return attempted, failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: 7 for city and sweep, 1 for jam)")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gridcity" / "__init__.py").is_file():
        print(f"gridcity sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            runner = Runner(workdir, monotonic() + DEADLINE_S)
            seed = DEFAULT_SEED[workload] if args.seed is None else args.seed
            if args.trace:
                attempted, failed, metrics, lines = bench_traced(
                    runner, workload, seed, args.seconds)
            else:
                attempted, failed, metrics, lines = bench_untraced(
                    runner, workload, seed, args.seconds)
            print("\n".join(lines), flush=True)
            print(json.dumps({"correct": failed == 0, "attempted": attempted,
                              "failed": failed, "metrics": metrics}), flush=True)
            status = max(status, 1 if failed else 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return status


if __name__ == "__main__":
    sys.exit(main())
