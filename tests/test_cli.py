"""Command-line pipeline: staging, resumability, config merge, exit codes."""

from __future__ import annotations

import importlib.util
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import entropygate
from conftest import make_mock_corpus, make_mock_script
from entropygate import cli, entropy, gateway, scheduler
from entropygate.cli import (
    EXIT_BACKEND,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    _curve_grid,
    main,
    question_file_name,
)
from entropygate.clustering import cluster_answers
from entropygate.scheduler import Job, run_jobs


@pytest.fixture
def workdir(tmp_path):
    """A corpus, a mock script, and an output directory ready to run."""
    corpus_path = tmp_path / "corpus.jsonl"
    script_path = tmp_path / "mock.json"
    records = make_mock_corpus(corpus_path, count=10)
    make_mock_script(script_path, records)
    return {
        "corpus": corpus_path,
        "script": script_path,
        "out": tmp_path / "out",
        "records": records,
    }


def base_args(workdir, *extra):
    return [
        "--out", str(workdir["out"]),
        "--mock-script", str(workdir["script"]),
        "--iterations", "2000",
        *extra,
    ]


def three_text_question(tmp_path, *extra) -> list[str]:
    """Sample one question whose 15 answers hold 3 texts; returns the stage args."""
    corpus_path = tmp_path / "corpus.jsonl"
    [record] = make_mock_corpus(corpus_path, count=1)
    script = {"tokens_in": 690, "tokens_out": 43,
              "answers": {record["id"]: {"sample": ["ct", "mri", "xray"] * 5, "baseline": ["ct"]}}}
    script_path = tmp_path / "three.json"
    script_path.write_text(json.dumps(script))
    args = ["--out", str(tmp_path / "out"), "--mock-script", str(script_path), *extra]
    assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
    return args


def run_pipeline(workdir, *extra):
    assert main(["sample", "--corpus", str(workdir["corpus"]), *base_args(workdir, *extra)]) == EXIT_OK
    assert main(["cluster", *base_args(workdir, *extra)]) == EXIT_OK
    assert main(["grade", *base_args(workdir, *extra)]) == EXIT_OK
    assert main(["report", *base_args(workdir, *extra)]) == EXIT_OK


class TestRunConfig:
    def test_defaults_mirror_protocol(self):
        config = RunConfig()
        assert config.k == 15
        assert config.sample_temperature == 1.0
        assert config.baseline_temperature == 0.1
        assert config.thresholds == (0.6, 0.3)
        assert config.iterations == 100_000
        assert config.comparisons == 12
        assert config.price == 10.0

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"k": 0}, "invalid sample count"),
            ({"thresholds": ()}, "threshold"),
            ({"thresholds": (0.6, -1.0)}, "invalid threshold"),
            ({"iterations": 0}, "iteration"),
            ({"alpha": 0.0}, "alpha"),
            ({"comparisons": 0}, "comparison"),
            ({"concurrency": 0}, "concurrency"),
            ({"adapter": "mystery"}, "adapter"),
            ({"policy": "mystery"}, "policy"),
            ({"grader": "mystery"}, "grader"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(**kwargs)


class TestQuestionFileName:
    def test_safe_ids_pass_through(self):
        assert question_file_name("synpic-100.v2_a") == "q-synpic-100.v2_a"

    def test_unsafe_ids_are_hashed(self):
        name = question_file_name("weird id/№7")
        assert name.startswith("h-") and len(name) == 26
        assert name == question_file_name("weird id/№7")
        assert name != question_file_name("weird id/№8")


class TestCurveGrid:
    def test_default_grid(self):
        grid = _curve_grid(RunConfig())
        assert len(grid) == 13
        assert grid[0] == 1.2 and grid[-1] == 0.0
        assert grid == sorted(grid, reverse=True)

    def test_custom_grid(self):
        grid = _curve_grid(RunConfig(curve_start=0.5, curve_stop=0.3, curve_step=0.1))
        assert grid == [0.5, 0.4, 0.3]


class TestPipeline:
    def test_stages_produce_expected_layout(self, workdir):
        run_pipeline(workdir)
        out = workdir["out"]
        assert (out / "config.json").exists()
        assert (out / "corpus.jsonl").exists()
        assert len(list((out / "samples").glob("*.json"))) == 10
        assert len(list((out / "clusters").glob("*.json"))) == 10
        assert (out / "grades" / "grades.jsonl").exists()
        reports = out / "reports"
        for name in ("report.json", "cost.json", "outcomes.jsonl", "curve.csv",
                     "summary.txt", "sankey-0.6.csv", "sankey-0.3.csv"):
            assert (reports / name).exists(), name

    def test_report_numbers_and_echo(self, workdir, capsys):
        run_pipeline(workdir)
        summary = (workdir["out"] / "reports" / "summary.txt").read_text()
        assert "questions: 10" in summary
        assert "70.0 → 100.0 (Δ +30.0, n=7/10)" in summary
        assert "threshold 0.3" in summary
        assert "Bonferroni" in summary
        assert '"k": 15' in summary  # config echo
        printed = capsys.readouterr().out
        assert "70.0 → 100.0" in printed

        report = json.loads((workdir["out"] / "reports" / "report.json").read_text())
        assert report["questions"] == 10
        assert report["config"]["k"] == 15
        by_threshold = {entry["threshold"]: entry for entry in report["outcomes"]}
        assert by_threshold[0.6]["n_retained"] == 7
        assert by_threshold[0.3]["n_retained"] == 4
        assert by_threshold[0.6]["delta"] == pytest.approx(30.0)

    def test_sample_records_carry_usage(self, workdir):
        assert main(["sample", "--corpus", str(workdir["corpus"]), *base_args(workdir)]) == EXIT_OK
        record = json.loads((workdir["out"] / "samples" / "q-q00.json").read_text())
        assert record["id"] == "q00"
        assert len(record["samples"]) == 15
        assert [s["ordinal"] for s in record["samples"]] == list(range(15))
        assert record["samples"][0]["tokens_in"] == 690
        assert record["baseline"]["temperature"] == 0.1

    def test_cluster_records_have_entropy(self, workdir):
        for stage in ("sample", "cluster"):
            args = base_args(workdir)
            if stage == "sample":
                args = ["--corpus", str(workdir["corpus"]), *args]
            assert main([stage, *args]) == EXIT_OK
        record = json.loads((workdir["out"] / "clusters" / "q-q00.json").read_text())
        assert record["k"] == 15
        assert record["dse"] == 0.0  # q00 answers are all identical
        scattered = json.loads((workdir["out"] / "clusters" / "q-q02.json").read_text())
        assert scattered["dse"] == pytest.approx(1.1760912590556813)

    def test_curve_and_cost_subcommands(self, workdir):
        run_pipeline(workdir)
        assert main(["curve", *base_args(workdir)]) == EXIT_OK
        assert main(["cost", *base_args(workdir)]) == EXIT_OK
        cost = json.loads((workdir["out"] / "reports" / "cost.json").read_text())
        assert cost["questions"] == 10
        assert cost["pipeline_latency_ms"] == pytest.approx(6000.0)
        curve_text = (workdir["out"] / "reports" / "curve.csv").read_text()
        assert curve_text.startswith("threshold,fraction_rejected,delta,n_retained")

    def test_cost_counts_each_judge_call_once(self, tmp_path):
        args = three_text_question(tmp_path)
        assert main(["cluster", *args]) == EXIT_OK
        assert main(["cost", *args]) == EXIT_OK
        cost = json.loads((tmp_path / "out" / "reports" / "cost.json").read_text())
        assert cost["sampling_tokens"] == 16 * (690 + 43)
        assert cost["entailment_tokens"] == 9 * (690 + 43)  # 3 x 3 text pairs, not 210


class TestStaleRecords:
    def test_new_samples_invalidate_clusters_and_grades(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        records = make_mock_corpus(corpus_path, count=3)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        make_mock_script(first, records, k=5)
        second.write_text(json.dumps({"answers": {
            record["id"]: {"sample": [f"other-{j}" for j in range(5)], "baseline": ["zzz"]}
            for record in records
        }}))
        out = tmp_path / "out"
        common = ["--out", str(out), "--k", "5", "--iterations", "500"]
        old = [*common, "--mock-script", str(first)]
        new = [*common, "--mock-script", str(second)]
        assert main(["sample", "--corpus", str(corpus_path), *old]) == EXIT_OK
        assert main(["cluster", *old]) == EXIT_OK
        assert main(["grade", *old]) == EXIT_OK
        assert main(["sample", "--force", "--no-cache", *new]) == EXIT_OK
        capsys.readouterr()

        for stage in ("report", "cost"):
            assert main([stage, *new]) == EXIT_INCOMPLETE
            assert "stale clusters for 3 question(s): q00, q01, q02" in capsys.readouterr().err

        assert main(["cluster", *new]) == EXIT_OK
        assert "(3 new, 0 already complete)" in capsys.readouterr().out
        audit = json.loads((out / "clusters" / "q-q00.json").read_text())
        assert audit["samples"] == [f"other-{j}" for j in range(5)]
        assert audit["dse"] == pytest.approx(0.69897000433601886)  # log10(5)

        assert main(["report", *new]) == EXIT_INCOMPLETE
        assert "stale grades for 3 question(s): q00, q01, q02" in capsys.readouterr().err
        assert main(["grade", *new]) == EXIT_OK
        grades = (out / "grades" / "grades.jsonl").read_text().splitlines()
        assert [json.loads(line)["answer"] for line in grades] == ["zzz"] * 3


class TestResumability:
    def test_rerun_is_idempotent_and_makes_no_new_calls(self, workdir):
        run_pipeline(workdir, "--call-log")
        log_path = workdir["out"] / "calls.jsonl"
        first_len = len(log_path.read_text().splitlines())
        report_bytes = (workdir["out"] / "reports" / "report.json").read_bytes()

        run_pipeline(workdir, "--call-log")
        assert len(log_path.read_text().splitlines()) == first_len
        assert (workdir["out"] / "reports" / "report.json").read_bytes() == report_bytes

    def test_force_redoes_work_through_the_cache(self, workdir):
        run_pipeline(workdir, "--call-log")
        log_path = workdir["out"] / "calls.jsonl"
        first_len = len(log_path.read_text().splitlines())
        assert main(["sample", "--force", *base_args(workdir, "--call-log")]) == EXIT_OK
        lines = log_path.read_text().splitlines()
        assert len(lines) > first_len
        assert all(json.loads(line)["cached"] for line in lines[first_len:])

    def test_torn_cluster_record_is_redone(self, workdir, capsys):
        assert main(["sample", "--corpus", str(workdir["corpus"]), *base_args(workdir)]) == EXIT_OK
        assert main(["cluster", *base_args(workdir)]) == EXIT_OK
        path = workdir["out"] / "clusters" / "q-q00.json"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        capsys.readouterr()
        assert main(["cluster", *base_args(workdir)]) == EXIT_OK
        assert "(1 new, 9 already complete)" in capsys.readouterr().out
        assert path.read_bytes() == whole

    def test_config_merge_prefers_stored_over_default(self, workdir):
        args = base_args(workdir)
        assert main(["sample", "--corpus", str(workdir["corpus"]), "--k", "5", *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK  # no --k: stored value wins
        record = json.loads((workdir["out"] / "clusters" / "q-q00.json").read_text())
        assert record["k"] == 5
        stored = json.loads((workdir["out"] / "config.json").read_text())
        assert stored["k"] == 5

    def test_cli_flag_overrides_stored(self, workdir):
        args = base_args(workdir)
        assert main(["sample", "--corpus", str(workdir["corpus"]), "--k", "5", *args]) == EXIT_OK
        assert main(["sample", "--k", "3", "--force", *args]) == EXIT_OK
        stored = json.loads((workdir["out"] / "config.json").read_text())
        assert stored["k"] == 3


@pytest.fixture
def mock_calls(monkeypatch):
    """Counts MockBackend calls by role and the most in flight at once;
    set ``delay_s`` to hold each call open."""
    lock = threading.Lock()
    stats = {"delay_s": 0.0, "in_flight": 0, "peak": 0, "roles": {}}
    original = gateway.MockBackend.invoke

    def invoke(backend, request):
        with lock:
            stats["in_flight"] += 1
            stats["peak"] = max(stats["peak"], stats["in_flight"])
            stats["roles"][request.role] = stats["roles"].get(request.role, 0) + 1
        try:
            time.sleep(stats["delay_s"])
            return original(backend, request)
        finally:
            with lock:
                stats["in_flight"] -= 1

    monkeypatch.setattr(gateway.MockBackend, "invoke", invoke)
    return stats


def stage_files(out: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(out)): path.read_bytes()
        for name in ("samples", "clusters", "grades", "reports")
        for path in sorted((out / name).rglob("*"))
        if path.is_file()
    }


class TestScheduler:
    def test_interrupt_stops_queued_calls_from_starting(self):
        started = []

        def call(key):
            started.append(key)
            if key == 0:
                raise KeyboardInterrupt
            time.sleep(0.02)

        job = Job("q00", {slot: slot for slot in range(50)}, call, lambda results, errors: None)
        with pytest.raises(KeyboardInterrupt):
            run_jobs(2, [job])
        assert len(started) < 10

    def test_every_job_finishes_once_under_contention(self):
        finished = []
        outcome = {}

        def job(q):
            def finish(results, errors):
                finished.append((q, results, errors))

            return Job(f"q{q:03d}", {slot: slot % 7 for slot in range(30)}, lambda key: 2 * key,
                       finish)

        def run():
            outcome["value"] = run_jobs(8, map(job, range(300)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome["value"] == (300, [])
        assert sorted(q for q, _, _ in finished) == list(range(300))
        want = {slot: 2 * (slot % 7) for slot in range(30)}
        assert all(results == want and not errors for _, results, errors in finished)

    def test_calls_in_flight_reach_concurrency_and_never_exceed_it(self, workdir, mock_calls):
        mock_calls["delay_s"] = 0.005
        args = ["sample", "--corpus", str(workdir["corpus"]), "--no-cache", "--concurrency", "4"]
        assert main([*args, *base_args(workdir)]) == EXIT_OK
        assert sum(mock_calls["roles"].values()) == 10 * 16
        assert mock_calls["peak"] == 4

    def test_output_does_not_depend_on_concurrency(self, workdir):
        outputs = []
        for concurrency in ("1", "4"):
            shutil.rmtree(workdir["out"], ignore_errors=True)
            assert main(["sample", "--corpus", str(workdir["corpus"]),
                         *base_args(workdir, "--concurrency", concurrency)]) == EXIT_OK
            for stage in ("cluster", "grade"):
                assert main([stage, *base_args(workdir, "--concurrency", concurrency)]) == EXIT_OK
            # The report echoes the config, so it runs at one setting for both.
            assert main(["report", *base_args(workdir, "--concurrency", "4")]) == EXIT_OK
            outputs.append(stage_files(workdir["out"]))
        assert len(outputs[0]) == 10 + 10 + 1 + 7
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("cache", ["--cache", "--no-cache"])
    def test_identical_judge_requests_are_sent_once(self, tmp_path, mock_calls, cache):
        args = three_text_question(tmp_path, cache, "--concurrency", "4")
        assert main(["cluster", *args]) == EXIT_OK
        assert mock_calls["roles"][gateway.ROLE_JUDGE] == 9
        audit = json.loads((tmp_path / "out" / "clusters" / "q-q00.json").read_text())
        assert len(audit["verdicts"]) == 210
        assert audit["cluster_sizes"] == [5, 5, 5]

    def test_library_sends_identical_judge_requests_once(self, tmp_path):
        args = three_text_question(tmp_path)
        assert main(["cluster", *args]) == EXIT_OK
        audit = json.loads((tmp_path / "out" / "clusters" / "q-q00.json").read_text())
        backend = gateway.MockBackend()
        judge = gateway.entailment_judge(backend, question_id="q00")
        partition, matrix = cluster_answers(audit["samples"], judge, context="q")
        assert backend.call_count == 9
        assert matrix.complete
        assert [list(cluster) for cluster in partition.clusters] == audit["clusters"]

    def test_pending_work_stays_bounded(self, tmp_path, monkeypatch, mock_calls):
        lock = threading.Lock()
        counts = {"futures": 0, "open": 0, "peak_open": 0}

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                with lock:
                    counts["futures"] += 1
                return super().submit(fn, *args, **kwargs)

        class CountingJob(Job):
            def __post_init__(self):
                with lock:
                    counts["open"] += 1
                    counts["peak_open"] = max(counts["peak_open"], counts["open"])
                finish = self.finish

                def counted(results, errors):
                    with lock:
                        counts["open"] -= 1
                    finish(results, errors)

                self.finish = counted

        monkeypatch.setattr(scheduler, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(scheduler, "Job", CountingJob)
        corpus_path = tmp_path / "corpus.jsonl"
        script_path = tmp_path / "mock.json"
        make_mock_script(script_path, make_mock_corpus(corpus_path, count=200), k=5)
        args = ["--out", str(tmp_path / "out"), "--mock-script", str(script_path),
                "--k", "5", "--no-cache", "--concurrency", "3"]
        assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK
        assert mock_calls["roles"][gateway.ROLE_SAMPLE] == 200 * 5
        assert counts["futures"] == 2 * 3  # one per worker, per stage
        assert counts["open"] == 0
        assert counts["peak_open"] <= 3 + 1


class _CompletionHandler(BaseHTTPRequestHandler):
    """Answers every chat completion with "ct"; counts connections and requests."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
    def log_message(self, format, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests += 1
        body = json.dumps({
            "model": "m",
            "choices": [{"message": {"role": "assistant", "content": "ct"}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 1},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def completion_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = 0
    server.requests = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def http_args(server, corpus_path, out, *extra):
    return ["sample", "--corpus", str(corpus_path), "--out", str(out), "--endpoint", server.url,
            "--model", "m", "--api-key-env", "", *extra]


class TestHttpStage:
    def test_connections_are_kept_alive(self, tmp_path, completion_server, caplog, monkeypatch):
        caplog.set_level(logging.WARNING, logger="urllib3")
        closed = []
        close = gateway.HttpBackend.close
        monkeypatch.setattr(gateway.HttpBackend, "close",
                            lambda backend: closed.append(True) or close(backend))
        corpus_path = tmp_path / "corpus.jsonl"
        rows = make_mock_corpus(corpus_path, count=20)
        with open(corpus_path, "w") as handle:
            for index, row in enumerate(rows):
                image = tmp_path / f"{index}.png"
                image.write_bytes(b"\x89PNG\r\n\x1a\n")
                handle.write(json.dumps({**row, "image": str(image)}) + "\n")
        args = http_args(completion_server, corpus_path, tmp_path / "out", "--concurrency", "12")
        assert main(args) == EXIT_OK
        assert completion_server.requests == 20 * 16
        assert completion_server.connections <= 12
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]
        assert closed == [True]

    def test_every_missing_image_is_named_before_any_call(self, tmp_path, completion_server, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        rows = make_mock_corpus(corpus_path, count=3)
        with open(corpus_path, "w") as handle:
            for index, row in enumerate(rows):
                handle.write(json.dumps({**row, "image": f"/nonexistent/{index}.png"}) + "\n")
        args = http_args(completion_server, corpus_path, tmp_path / "out", "--concurrency", "1")
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(f"/nonexistent/{index}.png" in err for index in range(3))
        assert completion_server.requests == 0


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workdir):
        assert main(["sample", "--frobnicate", *base_args(workdir)]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_invalid_k_is_usage_error(self, workdir):
        args = ["sample", "--corpus", str(workdir["corpus"]), "--k", "0", *base_args(workdir)]
        assert main(args) == EXIT_USAGE

    def test_sample_without_corpus_is_usage_error(self, workdir):
        assert main(["sample", *base_args(workdir)]) == EXIT_USAGE

    def test_cluster_before_sample_is_incomplete(self, workdir):
        args = ["cluster", "--corpus", str(workdir["corpus"]), *base_args(workdir)]
        assert main(args) == EXIT_INCOMPLETE

    def test_report_before_grade_is_incomplete(self, workdir, capsys):
        args = base_args(workdir)
        assert main(["sample", "--corpus", str(workdir["corpus"]), *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK
        assert main(["report", *args]) == EXIT_INCOMPLETE
        assert "grade stage" in capsys.readouterr().err

    def test_short_script_is_backend_failure(self, workdir, tmp_path):
        # Script covers only 9 of the 10 questions: the missing one fails,
        # the rest complete and stay on disk for a later resume.
        short = tmp_path / "short.json"
        make_mock_script(short, workdir["records"][:-1])
        args = [
            "sample", "--corpus", str(workdir["corpus"]),
            "--out", str(workdir["out"]), "--mock-script", str(short),
        ]
        assert main(args) == EXIT_BACKEND
        assert len(list((workdir["out"] / "samples").glob("*.json"))) == 9

    def test_missing_image_file_is_usage_error(self, tmp_path, monkeypatch, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        record = {
            "id": "q00",
            "image": "/nonexistent/x.png",
            "question": "What imaging modality is shown?",
            "reference": "ct",
            "dataset": "DemoSet",
            "subgroup": "modality",
        }
        corpus_path.write_text(json.dumps(record) + "\n")
        requests_made = []
        monkeypatch.setattr(
            gateway, "_requests_transport", lambda *args: requests_made.append(args)
        )
        args = [
            "sample", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"),
            "--endpoint", "http://127.0.0.1:9/v1/chat/completions", "--model", "m",
        ]
        assert main(args) == EXIT_USAGE
        assert "/nonexistent/x.png" in capsys.readouterr().err
        assert requests_made == []

    @pytest.mark.parametrize(
        "case", ["corpus-directory", "missing-import", "missing-script", "malformed-script"]
    )
    def test_unreadable_named_input_is_usage_error(self, workdir, tmp_path, capsys, case):
        bad = tmp_path / "bad"
        stage = ["sample", "--corpus", str(workdir["corpus"])]
        script = workdir["script"]
        if case == "corpus-directory":
            bad.mkdir()
            stage = ["sample", "--corpus", str(bad)]
        elif case == "missing-import":
            assert main([*stage, *base_args(workdir)]) == EXIT_OK
            stage = ["grade", "--import", str(bad)]
        elif case == "malformed-script":
            bad.write_text("{not json")
            script = bad
        else:
            script = bad
        args = [*stage, "--out", str(workdir["out"]), "--mock-script", str(script)]
        assert main(args) == EXIT_USAGE
        assert str(bad) in capsys.readouterr().err

    def test_all_questions_rejected_is_incomplete(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        records = make_mock_corpus(corpus_path, count=2)
        script = {
            "judge": {"rule": "equality"},
            "answers": {
                record["id"]: {
                    "sample": [f"{record['id']}-v{j}" for j in range(15)],
                    "baseline": [record["reference"]],
                }
                for record in records
            },
        }
        script_path = tmp_path / "scattered.json"
        script_path.write_text(json.dumps(script))
        out = tmp_path / "out"
        args = ["--out", str(out), "--mock-script", str(script_path), "--iterations", "500"]
        assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK
        assert main(["grade", *args]) == EXIT_OK
        assert main(["report", *args]) == EXIT_INCOMPLETE
        assert "empty retained set" in capsys.readouterr().err


class TestTracing:
    def test_benchmark_tracer_sees_every_cluster_layer(self, workdir):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracing.install(tracer, {})
        try:
            with tracer.stage("cli.sample"):
                assert main(["sample", "--corpus", str(workdir["corpus"]),
                             *base_args(workdir)]) == EXIT_OK
            with tracer.stage("cli.cluster"):
                assert main(["cluster", *base_args(workdir)]) == EXIT_OK
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer.spans)
        for name in ("gateway.judge_entailment", "entropy.discrete_semantic_entropy",
                     "clustering.audit_record", "clustering.write_audit_record"):
            assert summary.get(name, {"count": 0})["count"] > 0, name
        assert summary["clustering.write_audit_record"]["count"] == 10
        assert cli.discrete_semantic_entropy is entropy.discrete_semantic_entropy


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(entropygate.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        completed = subprocess.run(
            [sys.executable, "-m", "entropygate", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 0
        assert "{sample,cluster,grade,report,curve,cost}" in completed.stdout
