"""Benchmark for entropygate: end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-http --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see BENCHMARK.json for why each was chosen):

* ``cold-http``: empty output directory and cache; ``sample -> cluster ->
  grade -> report`` against a loopback chat-completions stub in its own
  process, with a fixed 10 ms sleep per call.
* ``warm-replay``: the same corpus with a cache that set-up filled;
  ``sample/cluster/grade --force`` then ``report``.  The stub must serve 0
  requests.
* ``report-706``: 706 questions in the paper's Table 1 proportions, built
  through the CLI with the offline mock; ``report`` then ``curve``.

The load is a closed loop: the CLI runs with ``--concurrency`` equal to the
number of usable CPUs, so each worker sends its next call only after the
previous one returns.  Set-up runs three times and ``setup_s`` is its
median.  The timed stages run in a fresh child process (``measure.py``),
repeated until ``--seconds`` are spent; ``wall_s`` is the median over
repetitions and ``peak_rss_mb`` the child's peak RSS.  Host CPU speed
drifts on shared machines, so ``setup_s``, and ``wall_s`` on the CPU-bound
workloads (warm-replay, report-706), count the program's own CPU time at a
reference speed, measured by calibration kernels just around each stage
(``measure.at_reference_speed``); waiting time counts as measured, and the
raw times are in the result files.
``--trace 1`` runs half the time untraced and half traced, and prints the
per-layer metrics with the tracing overhead instead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the failed share:
non-zero stage exits, stub errors, connection errors and failed output
checks over stages, model calls and checks.  Every run also writes its
environment, raw repetitions and (traced) spans under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cold-http", "warm-replay", "report-706")
SETUP_REPEATS = 3
DELAY_MS = 10.0
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end well within 180 s
STAGES = ("sample", "cluster", "grade", "report", "curve")
ROLES = ("sample", "baseline", "judge", "grade")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"cli.{stage}.wall_s": "s" for stage in STAGES},
    **{f"cli.{stage}.self_s": "s" for stage in STAGES},
    "cli.cluster.parallel_efficiency": "ratio",
    "gateway.http.calls": "count",
    "gateway.http.attempts": "count",
    "gateway.http.overhead_ms_mean": "ms",
    "gateway.http.build_payload_ms_mean": "ms",
    "gateway.http.connections_per_request": "ratio",
    **{f"gateway.http.request_bytes_mean.{role}": "B" for role in ROLES},
    **{f"gateway.calls.{role}": "count" for role in ROLES},
    "gateway.cache.hits": "count",
    "gateway.cache.misses": "count",
    "gateway.cache.hit_ratio": "ratio",
    "gateway.cache.hit_us_mean": "us",
    "gateway.cache.miss_overhead_us_mean": "us",
    "gateway.cache.files": "count",
    "gateway.cache.bytes": "B",
    "clustering.judged_pairs": "count",
    "clustering.duplicate_pair_share": "ratio",
    "clustering.cluster_answers.self_ms_per_pair": "ms",
    "clustering.assemble_clusters.us_mean": "us",
    "clustering.write_audit_record.ms_mean": "ms",
    "clustering.read_audit_record.ms_mean": "ms",
    "entropy.discrete_semantic_entropy.us_mean": "us",
    "corpus.load_corpus.ms": "ms",
    "corpus.grade.us_mean": "us",
    "evaluation.bootstrap_delta.t0.6.s": "s",
    "evaluation.bootstrap_delta.t0.3.s": "s",
    "evaluation.bootstrap_delta.peak_mb": "MB",
    "evaluation.coverage_curve.ms": "ms",
    "evaluation.subgroup_report.ms": "ms",
    "api.requests": "count",
    "api.busy_s": "s",
    "api.max_in_flight": "count",
    "question_latency_p50_s": "s",
    "question_latency_tail_s": "s",
    "question_latency.tail_percentile": "%",
    "question_latency.samples": "count",
    "model_calls_per_question": "calls",
    "model_tokens_per_question": "tokens",
    "failed_share": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tally:
    """Attempted and failed operations across set-up and the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]):
        """Count ``attempted`` operations; ``failures`` describe the failed ones."""
        self.attempted += attempted
        if failures:
            self.failed += min(len(failures), max(1, attempted))
            self.messages.extend(failures)


class Stub:
    """The loopback API stub, in a process of its own."""

    def __init__(self, spec: str, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--spec", spec, "--delay-ms", str(delay_ms)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else b""
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("the API stub did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def post(self, path: str) -> dict:
        request = urllib.request.Request(f"{self.url}{path}", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def stop(self):
        if self.proc.poll() is None:
            with contextlib.suppress(OSError, AttributeError):
                self.post("/_bench/shutdown")
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_cli(stages, tally: Tally) -> None:
    """Run CLI stages in this process (set-up only), counting failures."""
    from entropygate import cli

    for stage, argv in stages:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an uncaught stage error fails set-up, not the run
                code = f"{type(exc).__name__}: {exc}"
        tally.add(1, [] if code == 0 else [f"set-up {stage} exited {code}"])


def http_stages(corpus: str, url: str, nproc: int, out: str) -> list:
    """The cold pipeline; later stages read the settings sample stored."""
    sample = [
        "sample", "--out", out, "--corpus", corpus,
        "--endpoint", f"{url}/v1/chat/completions", "--model", workloads.MODEL,
        "--api-key-env", "", "--concurrency", str(nproc), "--grader", "model-judge",
    ]
    return [("sample", sample)] + [(stage, [stage, "--out", out]) for stage in ("cluster", "grade", "report")]


def setup(workload: str, work: Path, seed: int, nproc: int, tally: Tally) -> dict:
    """Build one workload's inputs and state; returns the child's plan fields."""
    if workload == "report-706":
        built = workloads.build_table1(work, seed)
        out = work / "run"
        run_cli(
            [
                ("sample", ["sample", "--corpus", built["corpus"], "--out", str(out),
                            "--mock-script", built["script"], "--k", str(workloads.TABLE1_K),
                            "--concurrency", str(nproc), "--no-cache"]),
                ("cluster", ["cluster", "--out", str(out)]),
                ("grade", ["grade", "--out", str(out)]),
            ],
            tally,
        )
        return {
            "stub": None, "expected": {}, "question_ids": {}, "questions": built["questions"],
            "out": str(out), "fresh_out": False, "checks": "table1", "calibration": "numpy",
            "stages": [(stage, [stage, "--out", str(out)]) for stage in ("report", "curve")],
        }

    expected = workloads.build_http(work, seed)
    warm = workload == "warm-replay"
    stub = Stub(expected["stub_spec"], 0.0 if warm else DELAY_MS)
    state = {
        "stub": stub, "expected": expected, "questions": len(expected["questions"]),
        "question_ids": {q["question"]: qid for qid, q in expected["questions"].items()},
    }
    if not warm:
        # Mostly waiting on the API, with the client's CPU time spread over
        # worker threads off the critical path: raw wall time is steadier.
        return {**state, "out": None, "fresh_out": True, "checks": "cold", "calibration": None,
                "stages": http_stages(expected["corpus"], stub.url, nproc, "{out}")}
    out = work / "run"
    run_cli(http_stages(expected["corpus"], stub.url, nproc, str(out)), tally)
    for failures in (workloads.check_clusters(out, expected), workloads.check_grades(out, expected),
                     workloads.check_http_report(out, expected)):
        tally.add(1, failures)
    stub.post("/_bench/snapshot")  # start the timed phase from zeroed counters
    try:
        expected["reference_report"] = workloads.report_without_latency(out)
    except (OSError, ValueError):
        expected["reference_report"] = None  # every replay then fails its report check
    forced = [(stage, [stage, "--out", str(out), "--force"]) for stage in ("sample", "cluster", "grade")]
    return {**state, "out": str(out), "fresh_out": False, "checks": "warm", "calibration": "python",
            "stages": forced + [("report", ["report", "--out", str(out)])]}


def environment(seed: int) -> dict:
    import numpy
    import requests

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _stub_totals(rep: dict) -> dict:
    totals = {"requests": {r: 0 for r in ROLES}, "request_bytes": {r: 0 for r in ROLES},
              "tokens": 0, "connections": 0, "errors": 0, "busy_s": 0.0, "max_in_flight": 0}
    for snap in rep["stub"].values():
        for role in ROLES:
            totals["requests"][role] += snap["requests"][role]
            totals["request_bytes"][role] += snap["request_bytes"][role]
            totals["tokens"] += snap["tokens_in"][role] + snap["tokens_out"][role]
        totals["connections"] += snap["connections"]
        totals["errors"] += snap["errors"]
        totals["busy_s"] += snap["busy_s"]
        totals["max_in_flight"] = max(totals["max_in_flight"], snap["max_in_flight"])
    return totals


def question_latencies(reps: list[dict]) -> list[float]:
    """Per question and repetition: first request to last response, as the
    stub saw it, summed over the sample and cluster stages."""
    values = []
    for rep in reps:
        per_question: dict[str, float] = {}
        for stage in ("sample", "cluster"):
            for qid, _, first, last in rep["stub"].get(stage, {}).get("question_spans", []):
                per_question[qid] = per_question.get(qid, 0.0) + (last - first)
        values.extend(per_question.values())
    return values


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return (ordered[-1], 100.0) if ordered else (0.0, 0.0)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def tally_child(result: dict, tally: Tally) -> None:
    for reps in result["phases"].values():
        for rep in reps:
            bad = [f"{stage} exited {code}" for stage, code in rep["exits"].items() if code != 0]
            tally.add(len(rep["exits"]), bad)
            totals = _stub_totals(rep) if rep["stub"] else None
            if totals:
                served = sum(totals["requests"].values()) + totals["errors"]
                errors = [f"stub error replies: {totals['errors']}"] if totals["errors"] else []
                tally.add(served, errors)
            if rep["transport_errors"]:
                tally.add(rep["transport_errors"], [f"connection errors: {rep['transport_errors']}"])
            tally.add(rep["checks"], rep["failures"])


def per_layer(state: dict, result: dict, nproc: int, tally: Tally) -> dict[str, float]:
    traced, untraced = result["phases"]["traced"], result["phases"]["untraced"]
    metrics: dict[str, float] = {}
    for stage in STAGES:
        metrics[f"cli.{stage}.wall_s"] = _median(rep["walls"].get(stage, 0.0) for rep in traced)
    for name in traced[0]["layers"]:
        metrics[name] = _median(rep["layers"][name] for rep in traced)
    del metrics["gateway.http.invoke_ms_sum"]

    per_rep = [(rep, _stub_totals(rep)) for rep in traced] if state["stub"] else []
    metrics.update({
        "cli.cluster.parallel_efficiency": _median(
            rep["stub"]["cluster"]["busy_s"] / (nproc * rep["walls"]["cluster"])
            for rep, _ in per_rep
        ),
        "gateway.http.attempts": _median(rep["attempts"] for rep in traced),
        "gateway.http.overhead_ms_mean": _median(
            (rep["layers"]["gateway.http.invoke_ms_sum"] - 1e3 * t["busy_s"])
            / max(1, rep["layers"]["gateway.http.calls"])
            for rep, t in per_rep
        ),
        "gateway.http.connections_per_request":
            _median(t["connections"] / max(1, sum(t["requests"].values())) for _, t in per_rep),
        "gateway.cache.files": _median(rep["cache_files"] for rep in traced),
        "gateway.cache.bytes": _median(rep["cache_bytes"] for rep in traced),
        "api.requests": _median(sum(t["requests"].values()) for _, t in per_rep),
        "api.busy_s": _median(t["busy_s"] for _, t in per_rep),
        "api.max_in_flight": _median(t["max_in_flight"] for _, t in per_rep),
    })
    for role in ROLES:
        metrics[f"gateway.calls.{role}"] = _median(t["requests"][role] for _, t in per_rep)
        metrics[f"gateway.http.request_bytes_mean.{role}"] = _median(
            t["request_bytes"][role] / max(1, t["requests"][role]) for _, t in per_rep
        )

    # User-facing figures that exist only where a model API is called; taken
    # from the untraced half so tracing cannot inflate them.
    latencies = question_latencies(untraced) if state["stub"] else []
    tail_value, tail_pct = tail(latencies)
    untraced_totals = [_stub_totals(rep) for rep in untraced] if state["stub"] else []
    questions = state["questions"]
    metrics.update({
        "question_latency_p50_s": _median(latencies),
        "question_latency_tail_s": tail_value,
        "question_latency.tail_percentile": tail_pct,
        "question_latency.samples": len(latencies),
        "model_calls_per_question":
            _median(sum(t["requests"].values()) / questions for t in untraced_totals),
        "model_tokens_per_question": _median(t["tokens"] / questions for t in untraced_totals),
        "failed_share": tally.failed / max(1, tally.attempted),
        "trace.untraced_wall_s": result["wall_median_s"]["untraced"],
        "trace.traced_wall_s": result["wall_median_s"]["traced"],
    })
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    tally = Tally()
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    states = []
    try:
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            if states:
                previous = states.pop()
                if previous["stub"]:
                    previous["stub"].stop()
            work = base / f"setup-{attempt}"
            work.mkdir(parents=True)
            before, cpu, t0 = measure.calibrate("python"), time.process_time(), time.perf_counter()
            state = setup(workload, work, seed, nproc, tally)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu
            after = measure.calibrate("python")
            setup_times.append(measure.at_reference_speed(wall, cpu, before, after, "python"))
            states.append(state)

        plan = {
            "src": str(SRC), "work": str(work), "seconds": seconds, "trace": trace,
            "stub_url": state["stub"].url if state["stub"] else None,
            "result": str(work / "result.json"), "spans": str(RESULTS / f"{tag}.spans.jsonl"),
            "expected": str(work / "expected.json"),
            **{key: state[key] for key in
               ("out", "fresh_out", "checks", "stages", "question_ids", "calibration")},
        }
        Path(plan["expected"]).write_text(json.dumps(state["expected"]), encoding="utf-8")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        budget = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
        child = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(plan_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=budget,
        )
        if child.returncode != 0:
            raise RuntimeError(f"timed phase exited {child.returncode}")
        result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    finally:
        for leftover in states:
            if leftover["stub"]:
                leftover["stub"].stop()
        shutil.rmtree(base, ignore_errors=True)

    tally_child(result, tally)
    if trace:
        metrics = per_layer(state, result, nproc, tally)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": result["adjusted_wall_median_s"]["untraced"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "environment": environment(seed),
        "seconds": seconds,
        "trace": trace,
        "setup_times_s": setup_times,
        "failures": tally.messages,
        "summary": summary,
        "timed_phase": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return summary, record


def print_summary(workload: str, summary: dict, record: dict) -> None:
    share = summary["failed"] / summary["attempted"]
    print(f"{workload}: failed_share {share:.6g} ({summary['failed']}/{summary['attempted']})")
    for name, metric in summary["metrics"].items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    if summary["metrics"].get("question_latency.samples", {}).get("value"):
        m = summary["metrics"]
        print(f"{workload}: question latency tail is p{m['question_latency.tail_percentile']['value']:.1f}"
              f" of {m['question_latency.samples']['value']} questions")
    for message in record["failures"][:20]:
        print(f"{workload}: FAILED {message}")


def declared_metrics_differ() -> bool:
    """True when BENCHMARK.json names other metrics or units than this file."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return False
    declared = json.loads(path.read_text(encoding="utf-8"))
    return any(
        {m["name"]: m["unit"] for m in declared[key]} != units
        for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entropygate benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entropygate" / "cli.py").is_file():
        print(f"error: no entropygate sources under {SRC}", file=sys.stderr)
        return 2
    if declared_metrics_differ():
        print("error: BENCHMARK.json and perfbench/run.py declare different metrics", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        summary, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_summary(args.workload, summary, record)
        print(json.dumps(summary))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:  # each in a fresh process, for its own peak RSS
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
