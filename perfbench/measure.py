"""Timed phase of one benchmark run, in a fresh process of its own.

``run.py`` writes a plan (JSON) and starts ``python3 perfbench/measure.py
PLAN``.  This process imports ``entropygate`` from the checkout's ``src``,
runs the plan's CLI stages in-process with ``cli.main`` one at a time, and
repeats the stage list until the plan's seconds are spent.  After every
stage it takes the API stub's counters (outside the timed region); after
every repetition it checks the outputs.  Its peak RSS therefore covers only
the timed stages.  With tracing on, the first half of the time runs
untraced and the second half traced, so the overhead can be reported.
Around every stage it times the workload's calibration kernel, if any, so
the stage's CPU time can be rescaled to a reference CPU speed.  Results go to the plan's ``result``
path.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
import urllib.request
from pathlib import Path

import numpy as np

import tracing
import workloads

# Host CPU speed drifts by up to 2x within a minute on shared machines, so
# CPU-bound wall times are rescaled to a reference speed.  Two calibration
# kernels measure it: interpreted Python, and numpy gathers over fresh
# arrays, which slow down less than Python does in a slow period.  Each
# takes its REFERENCE_S at the reference speed.  A workload calibrates with
# the kernel like its own work, and only with that one: the numpy kernel's
# arrays would otherwise raise a light workload's peak RSS.
REFERENCE_S = {"python": 0.015, "numpy": 0.018}
_VALUES = np.arange(706, dtype=np.float64)
_RNG = np.random.default_rng(0)


class TransportCounter:
    """Counts every HTTP request the backend sends through ``requests``, and
    its failures, whether it uses ``requests.post`` or a ``Session``.

    Retries by the backend show up as attempts beyond the calls the stub
    served; connection errors never reach the stub at all.
    """

    def __init__(self):
        import requests

        self.lock = threading.Lock()
        self.attempts = 0
        self.errors = 0
        original = requests.Session.request
        counter = self

        def request(session, *args, **kwargs):
            with counter.lock:
                counter.attempts += 1
            try:
                return original(session, *args, **kwargs)
            except requests.RequestException:
                with counter.lock:
                    counter.errors += 1
                raise

        requests.Session.request = request

    def take(self) -> tuple[int, int]:
        with self.lock:
            counts = (self.attempts, self.errors)
            self.attempts = self.errors = 0
        return counts


def stub_snapshot(url: str) -> dict:
    request = urllib.request.Request(f"{url}/_bench/snapshot", data=b"{}", method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()] if path.exists() else []
    return len(files), sum(p.stat().st_size for p in files)


def run_stage(cli, argv: list[str]):
    try:
        return cli.main(argv)
    except Exception:  # an uncaught error in a stage is a failed operation, not a crash
        traceback.print_exc()
        return "exception"


def check(plan: dict, out: Path, expected: dict, stubs: dict) -> tuple[int, list[str]]:
    """Run the workload's output checks; returns (checks made, failures)."""
    kind = plan["checks"]
    if kind == "table1":
        return 1, workloads.check_table1_report(out)
    results = [
        workloads.check_clusters(out, expected),
        workloads.check_grades(out, expected),
    ]
    if kind == "cold":
        results.append(workloads.check_http_report(out, expected))
    else:
        failures = []
        try:
            if workloads.report_without_latency(out) != expected["reference_report"]:
                failures.append("report differs from the cold run's report")
        except (OSError, ValueError) as exc:
            failures.append(f"unreadable report ({exc})")
        results.append(failures)
        served = {stage: sum(s["requests"].values()) for stage, s in stubs.items()}
        results.append([f"stub served {served} requests, expected none"] if any(served.values()) else [])
    return len(results), [msg for failures in results for msg in failures]


def run_rep(plan: dict, index: int, cli, expected: dict, counter, tracer) -> dict:
    work = Path(plan["work"])
    out = work / f"rep-{index}" if plan["fresh_out"] else Path(plan["out"])
    walls, cpus, exits, stubs = {}, {}, {}, {}
    kernel = plan["calibration"]
    speeds = [calibrate(kernel)] if kernel else []
    for stage, argv in plan["stages"]:
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        with tracer.stage(f"cli.{stage}") if tracer else contextlib.nullcontext():
            cpu = time.process_time()
            started = time.perf_counter()
            code = run_stage(cli, argv)
            walls[stage] = time.perf_counter() - started
            cpus[stage] = time.process_time() - cpu
        if kernel:
            speeds.append(calibrate(kernel))
        exits[stage] = code
        if plan["stub_url"]:
            stubs[stage] = stub_snapshot(plan["stub_url"])
    attempts, transport_errors = counter.take() if counter else (0, 0)
    checks, failures = check(plan, out, expected, stubs)
    cache_files, cache_bytes = tree_size(out / "cache")
    if plan["fresh_out"]:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "walls": walls,
        "cpu": cpus,
        "calibration_s": speeds,
        "exits": exits,
        "stub": stubs,
        "attempts": attempts,
        "transport_errors": transport_errors,
        "checks": checks,
        "failures": failures,
        "cache_files": cache_files,
        "cache_bytes": cache_bytes,
    }


def calibrate(kernel: str) -> float:
    """Time one fixed calibration kernel: the host's current CPU speed."""
    started = time.perf_counter()
    if kernel == "python":
        total = 0
        for i in range(150_000):
            total += i * i % 7
    else:
        index = _RNG.integers(0, len(_VALUES), size=(2000, len(_VALUES)))
        (_VALUES[index] * (index > 300)).sum()
    return time.perf_counter() - started


def at_reference_speed(wall: float, cpu: float, before: float, after: float, kernel: str) -> float:
    """Wall time with its own CPU time rescaled to the reference CPU speed.

    ``before`` and ``after`` time ``kernel`` just around the timed work;
    waiting time (model calls, sleeps) is kept as measured.
    """
    return wall + min(cpu, wall) * (2 * REFERENCE_S[kernel] / (before + after) - 1.0)


def adjusted_wall(rep: dict, kernel: str | None) -> float:
    """One repetition's wall time at the reference speed, stage by stage;
    the raw wall time when ``kernel`` is None."""
    if kernel is None:
        return sum(rep["walls"].values())
    speeds = rep["calibration_s"]
    return sum(
        at_reference_speed(rep["walls"][stage], rep["cpu"][stage], speeds[i], speeds[i + 1], kernel)
        for i, stage in enumerate(rep["walls"])
    )


def run_phase(plan, seconds, cli, expected, counter, tracer) -> list[dict]:
    reps = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        mark = len(tracer.spans) if tracer else 0
        rep = run_rep(plan, len(reps), cli, expected, counter, tracer)
        if tracer is not None:
            rep["layers"] = tracing.layer_metrics(tracer.spans[mark:])
        reps.append(rep)
    return reps


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    from entropygate import cli

    expected = json.loads(Path(plan["expected"]).read_text(encoding="utf-8"))
    counter = TransportCounter() if plan["stub_url"] else None
    result = {"phases": {}}
    if plan["trace"]:
        result["phases"]["untraced"] = run_phase(plan, plan["seconds"] / 2, cli, expected, counter, None)
        tracer = tracing.Tracer()
        tracing.install(tracer, plan["question_ids"])
        try:
            result["phases"]["traced"] = run_phase(plan, plan["seconds"] / 2, cli, expected, counter, tracer)
        finally:
            tracer.uninstall()
        result["self_times"] = tracing.summarize(tracer.spans)
        with open(plan["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    else:
        result["phases"]["untraced"] = run_phase(plan, plan["seconds"], cli, expected, counter, None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_median_s"] = {
        phase: statistics.median(sum(rep["walls"].values()) for rep in reps)
        for phase, reps in result["phases"].items()
    }
    result["adjusted_wall_median_s"] = {
        phase: statistics.median(adjusted_wall(rep, plan["calibration"]) for rep in reps)
        for phase, reps in result["phases"].items()
    }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
