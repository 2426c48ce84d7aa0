"""Command-line pipeline: staging, resumability, config merge, exit codes."""

from __future__ import annotations

import importlib.util
import json
import logging
import math
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
    CURVE_THRESHOLDS,
    RunConfig,
    main,
    question_file_name,
)
from entropygate.clustering import cluster_answers
from entropygate.errors import (
    BackendError,
    CorpusFormatError,
    EmptyRetainedSetError,
    GradingError,
    IncompleteMatrixError,
    IncompleteRecordsError,
    JudgingError,
    SamplingIncompleteError,
    UnknownQuestionIdsError,
    UsageError,
)
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


def sampled_run(tmp_path, count, *extra) -> list[str]:
    """Sample ``count`` mock questions at k=5, with a "yes" reply scripted
    for model-judge grading; returns the stage args."""
    corpus_path = tmp_path / "corpus.jsonl"
    script_path = tmp_path / "mock.json"
    records = make_mock_corpus(corpus_path, count=count)
    script = make_mock_script(script_path, records, k=5)
    script["grades"] = {record["id"]: "yes" for record in records}
    script_path.write_text(json.dumps(script))
    args = ["--out", str(tmp_path / "out"), "--mock-script", str(script_path),
            "--k", "5", "--iterations", "500", *extra]
    assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
    return args


def graded_run(tmp_path, count, *extra) -> list[str]:
    """``sampled_run``, then cluster and grade; returns the stage args."""
    args = sampled_run(tmp_path, count, *extra)
    assert main(["cluster", *args]) == EXIT_OK
    assert main(["grade", *args]) == EXIT_OK
    return args


def read_grades(tmp_path) -> list[dict]:
    path = tmp_path / "out" / "grades" / "grades.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


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
            ({"thresholds": (math.nan,)}, "invalid threshold"),
            ({"thresholds": (math.inf,)}, "invalid threshold"),
            ({"sample_temperature": math.nan}, "temperature"),
            ({"price": math.inf}, "price"),
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
        grid = list(CURVE_THRESHOLDS)
        assert len(grid) == 13
        assert grid[0] == 1.2 and grid[-1] == 0.0
        assert grid == sorted(grid, reverse=True)


class TestPipeline:
    def test_stages_produce_expected_layout(self, workdir):
        run_pipeline(workdir)
        out = workdir["out"]
        assert (out / "config.json").exists()
        assert (out / "corpus.jsonl").exists()
        for name in ("samples", "clusters"):  # one compact JSON object per record
            records = list((out / name).glob("*.json"))
            assert len(records) == 10
            for path in records:
                text = path.read_text(encoding="utf-8")
                assert text == json.dumps(
                    json.loads(text), sort_keys=True, ensure_ascii=False, separators=(",", ":")
                ) + "\n"
        assert (out / "grades" / "grades.jsonl").exists()
        reports = out / "reports"
        for name in ("report.json", "cost.json", "outcomes.jsonl", "curve.csv",
                     "summary.txt", "sankey-0.6.csv", "sankey-0.3.csv"):
            assert (reports / name).exists(), name
        for path in (out / "config.json", reports / "report.json", reports / "cost.json"):
            assert path.read_text().startswith("{\n  "), path  # indented for reading

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

    def test_empty_answers_cluster_together(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        script_path = tmp_path / "mock.json"
        records = make_mock_corpus(corpus_path, count=2)
        script = make_mock_script(script_path, records, k=5)
        script["answers"]["q00"]["sample"] = ["ct", "", "ct", "", "ct"]
        script_path.write_text(json.dumps(script))
        args = ["--out", str(tmp_path / "out"), "--mock-script", str(script_path), "--k", "5"]
        assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK
        audit = json.loads((tmp_path / "out" / "clusters" / "q-q00.json").read_text())
        assert audit["clusters"] == [[0, 2, 4], [1, 3]]

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

        for stage in ("report", "curve", "cost"):
            assert main([stage, *new]) == EXIT_INCOMPLETE
            assert "stale clusters for 3 question(s): q00, q01, q02" in capsys.readouterr().err
        assert not (out / "reports" / "curve.csv").exists()

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

    def test_other_grader_makes_grades_stale(self, tmp_path, capsys):
        args = graded_run(tmp_path, 3)
        capsys.readouterr()
        assert main(["report", "--grader", "normalized-containment", *args]) == EXIT_INCOMPLETE
        assert main(["curve", *args]) == EXIT_INCOMPLETE
        assert capsys.readouterr().err.count("stale grades for 3 question(s): q00, q01, q02") == 2

        assert main(["grade", *args]) == EXIT_OK
        assert "graded 3 question(s) (3 new, 0 already complete)" in capsys.readouterr().out
        assert [g["grader"] for g in read_grades(tmp_path)] == ["normalized-containment"] * 3
        assert main(["report", *args]) == EXIT_OK


class TestGradeImport:
    def test_override_stays_until_its_question_is_regraded(self, tmp_path, capsys):
        args = graded_run(tmp_path, 3)
        exact = read_grades(tmp_path)
        assert [g["correct"] for g in exact] == [True, True, False]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text("q00 0\n")
        second.write_text("q02 yes\n")
        assert main(["grade", "--import", str(first), *args]) == EXIT_OK
        assert main(["grade", "--import", str(second), *args]) == EXIT_OK
        imported = [
            {**exact[0], "correct": False, "grader": "imported"},
            exact[1],
            {**exact[2], "correct": True, "grader": "imported"},
        ]
        assert read_grades(tmp_path) == imported
        capsys.readouterr()
        assert main(["grade", *args]) == EXIT_OK
        assert "(0 new, 3 already complete)" in capsys.readouterr().out
        assert read_grades(tmp_path) == imported

        script_path = tmp_path / "mock.json"
        script = json.loads(script_path.read_text())
        for answers in script["answers"].values():
            answers["baseline"] = ["zzz"]
        script_path.write_text(json.dumps(script))
        assert main(["sample", "--force", "--no-cache", *args]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", *args]) == EXIT_INCOMPLETE
        assert "stale grades for 3 question(s): q00, q01, q02" in capsys.readouterr().err
        assert main(["grade", *args]) == EXIT_OK
        assert [(g["answer"], g["correct"], g["grader"]) for g in read_grades(tmp_path)] == [
            ("zzz", False, "normalized-exact")
        ] * 3

    def test_import_settles_a_grade_the_model_cannot_give(self, tmp_path, capsys):
        args = sampled_run(tmp_path, 3, "--grader", "model-judge")
        script_path = tmp_path / "mock.json"
        script = json.loads(script_path.read_text())
        script["grades"]["q01"] = "maybe"
        script_path.write_text(json.dumps(script))
        assert main(["grade", *args]) == EXIT_BACKEND
        assert "q01: grading failed for question 'q01': unparseable reply 'maybe'" in (
            capsys.readouterr().err
        )
        script["grades"]["q01"] = "yes"  # the cache still replays the three replies
        script_path.write_text(json.dumps(script))
        assert main(["grade", *args]) == EXIT_BACKEND
        assert "unparseable reply 'maybe'" in capsys.readouterr().err

        settled = tmp_path / "settled.txt"
        settled.write_text("q01 yes\n")
        assert main(["grade", "--import", str(settled), *args]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            "(0 new, 3 already complete) into "
            f"{tmp_path / 'out' / 'grades' / 'grades.jsonl'}; "
            "0 model call(s) sent, 0 replayed from the cache\n"
        )
        grades = read_grades(tmp_path)
        assert [g["grader"] for g in grades] == ["model-judge", "imported", "model-judge"]
        assert grades[1]["correct"] is True

    @pytest.mark.parametrize("force", [False, True])
    def test_imported_questions_get_no_grading_call(self, tmp_path, mock_calls, capsys, force):
        args = sampled_run(tmp_path, 3, "--grader", "model-judge", "--no-cache")
        overrides = tmp_path / "overrides.txt"
        overrides.write_text("q00 no\nq02 no\n")
        stage = ["grade", "--force"] if force else ["grade"]
        assert main([*stage, "--import", str(overrides), *args]) == EXIT_OK
        assert mock_calls["roles"][gateway.ROLE_GRADE] == 1
        assert "graded 3 question(s) (1 new, 2 already complete)" in capsys.readouterr().out
        grades = [(g["question_id"], g["grader"], g["correct"]) for g in read_grades(tmp_path)]
        assert grades == [
            ("q00", "imported", False), ("q01", "model-judge", True), ("q02", "imported", False)
        ]


class TestResumability:
    def test_rerun_is_idempotent_and_makes_no_new_calls(self, workdir, capsys):
        run_pipeline(workdir)
        report_bytes = (workdir["out"] / "reports" / "report.json").read_bytes()
        capsys.readouterr()

        run_pipeline(workdir)
        lines = capsys.readouterr().out.splitlines()
        for verb in ("sampled", "clustered"):  # the default grader makes no call
            [line] = [line for line in lines if line.startswith(f"{verb} 10 question(s)")]
            assert line.endswith("; 0 model call(s) sent, 0 replayed from the cache")
        assert (workdir["out"] / "reports" / "report.json").read_bytes() == report_bytes

    def test_grade_redoes_only_missing_grades(self, tmp_path, mock_calls, capsys):
        args = graded_run(tmp_path, 10, "--grader", "model-judge", "--no-cache")
        assert mock_calls["roles"][gateway.ROLE_GRADE] == 10
        path = tmp_path / "out" / "grades" / "grades.jsonl"
        whole = path.read_text()
        lines = whole.splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[4:]))
        capsys.readouterr()
        assert main(["grade", *args]) == EXIT_OK
        assert mock_calls["roles"][gateway.ROLE_GRADE] == 11
        assert capsys.readouterr().out.endswith(f"(1 new, 9 already complete) into {path}\n")
        assert path.read_text() == whole

    def test_interrupted_grade_keeps_finished_grades(self, tmp_path, mock_calls, monkeypatch,
                                                     capsys):
        args = sampled_run(tmp_path, 10, "--grader", "model-judge", "--no-cache",
                           "--concurrency", "1")
        counting = gateway.MockBackend.invoke

        def invoke(backend, request):  # Ctrl-C in the 6th grade call
            if request.role == gateway.ROLE_GRADE and mock_calls["roles"].get(request.role) == 5:
                raise KeyboardInterrupt
            return counting(backend, request)

        monkeypatch.setattr(gateway.MockBackend, "invoke", invoke)
        with pytest.raises(KeyboardInterrupt):
            main(["grade", *args])
        assert [g["question_id"] for g in read_grades(tmp_path)] == [f"q0{i}" for i in range(5)]

        monkeypatch.setattr(gateway.MockBackend, "invoke", counting)
        capsys.readouterr()
        assert main(["grade", *args]) == EXIT_OK
        assert mock_calls["roles"][gateway.ROLE_GRADE] == 5 + 5
        assert "(5 new, 5 already complete)" in capsys.readouterr().out
        assert len(read_grades(tmp_path)) == 10

    def test_force_redoes_work_through_the_cache(self, workdir, capsys):
        run_pipeline(workdir)
        capsys.readouterr()
        assert main(["sample", "--force", *base_args(workdir)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            "(10 new, 0 already complete) into "
            f"{workdir['out'] / 'samples'}; 0 model call(s) sent, 160 replayed from the cache\n"
        )

    def test_model_judge_regrade_replays_from_the_cache(self, tmp_path, capsys):
        args = graded_run(tmp_path, 3, "--grader", "model-judge")
        capsys.readouterr()
        assert main(["grade", "--force", *args]) == EXIT_OK
        assert capsys.readouterr().out.endswith("; 0 model call(s) sent, 3 replayed from the cache\n")

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

    def test_replay_rewrites_nothing(self, workdir):
        run_pipeline(workdir)
        files = sorted(path for path in workdir["out"].rglob("*") if path.is_file())
        for path in files:  # an old time, so that any rewrite shows
            os.utime(path, ns=(10**18, 10**18))
        for stage in ("sample", "cluster", "grade"):
            assert main([stage, "--force", *base_args(workdir)]) == EXIT_OK
        assert main(["report", *base_args(workdir)]) == EXIT_OK
        assert sorted(path for path in workdir["out"].rglob("*") if path.is_file()) == files
        rewritten = [str(path) for path in files if path.stat().st_mtime_ns != 10**18]
        assert rewritten == []

    def test_torn_sample_record_is_named_and_redone(self, workdir, capsys):
        run_pipeline(workdir)
        path = workdir["out"] / "samples" / "q-q03.json"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        capsys.readouterr()
        assert main(["report", *base_args(workdir)]) == EXIT_INCOMPLETE
        assert "stale samples for 1 question(s): q03;" in capsys.readouterr().err
        assert main(["sample", *base_args(workdir)]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            "(1 new, 9 already complete) into "
            f"{workdir['out'] / 'samples'}; 0 model call(s) sent, 16 replayed from the cache\n"
        )
        assert path.read_bytes() == whole

    def test_records_and_entries_in_the_indented_layout_still_load(self, workdir, capsys):
        # the layout records and cache entries were written in before they became compact
        run_pipeline(workdir)
        out = workdir["out"]
        for name in ("samples", "clusters", "cache"):
            for path in (out / name).rglob("*.json"):
                value = json.loads(path.read_text(encoding="utf-8"))
                text = json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)
                path.write_text(text + ("\n" if name != "cache" else ""), encoding="utf-8")
        before = stage_files(out)
        capsys.readouterr()
        assert main(["sample", *base_args(workdir)]) == EXIT_OK
        assert main(["cluster", *base_args(workdir)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert all("(0 new, 10 already complete)" in line for line in lines), lines
        assert stage_files(out) == before
        assert main(["cluster", "--force", *base_args(workdir)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("; 0 model call(s) sent, 661 replayed from the cache\n")
        assert main(["report", *base_args(workdir)]) == EXIT_OK

    def test_config_merge_prefers_stored_over_default(self, workdir):
        args = base_args(workdir)
        assert main(["sample", "--corpus", str(workdir["corpus"]), "--k", "5", *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK  # no --k: stored value wins
        record = json.loads((workdir["out"] / "clusters" / "q-q00.json").read_text())
        assert record["k"] == 5
        stored = json.loads((workdir["out"] / "config.json").read_text())
        assert stored["k"] == 5

    def test_config_with_curve_settings_still_loads(self, workdir):
        # A config.json written when the curve sweep had three settings.
        out = workdir["out"]
        stored = {**RunConfig(out=str(out)).to_dict(), "k": 5, "call_log": True,
                  "curve_start": 1.2, "curve_stop": 0.0, "curve_step": 0.1}
        out.mkdir()
        (out / "config.json").write_text(json.dumps(stored))
        assert main(["sample", "--corpus", str(workdir["corpus"]), *base_args(workdir)]) == EXIT_OK
        record = json.loads((out / "samples" / "q-q00.json").read_text())
        assert record["k"] == 5
        config = json.loads((out / "config.json").read_text())
        assert config["k"] == 5
        assert not [key for key in config if key.startswith("curve_")]
        assert "call_log" not in config

    def test_cli_flag_overrides_stored(self, workdir):
        args = base_args(workdir)
        assert main(["sample", "--corpus", str(workdir["corpus"]), "--k", "5", *args]) == EXIT_OK
        assert main(["sample", "--k", "3", "--force", *args]) == EXIT_OK
        stored = json.loads((workdir["out"] / "config.json").read_text())
        assert stored["k"] == 3


@pytest.fixture
def mock_calls(monkeypatch):
    """Counts MockBackend calls by role and the most in flight at once;
    set ``delay_s`` to hold each call open, as a backend that waits on the
    network would (inside ``scheduler.waiting()``)."""
    lock = threading.Lock()
    stats = {"delay_s": 0.0, "in_flight": 0, "peak": 0, "roles": {}}
    original = gateway.MockBackend.invoke

    def invoke(backend, request):
        with lock:
            stats["in_flight"] += 1
            stats["peak"] = max(stats["peak"], stats["in_flight"])
            stats["roles"][request.role] = stats["roles"].get(request.role, 0) + 1
        try:
            with scheduler.waiting():
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

    def test_any_backend_error_fails_only_its_question(self):
        class QuotaError(BackendError):
            pass

        def call(key):
            if key == "q1":
                raise QuotaError("quota exhausted")
            return key

        finished = []

        def finish(results, errors):
            if errors:
                raise errors[0]
            finished.append(results[0])

        jobs = [Job(f"q{q}", {0: f"q{q}"}, call, finish) for q in range(4)]
        done, failures = run_jobs(2, jobs)
        assert done == 3
        assert [(qid, type(exc)) for qid, exc in failures] == [("q1", QuotaError)]
        assert sorted(finished) == ["q0", "q2", "q3"]

    def test_every_job_finishes_once_under_contention(self):
        finished = []
        outcome = {}

        def job(q):
            def finish(results, errors):
                finished.append((q, results, errors))

            return Job(f"q{q:03d}", {slot: slot % 7 for slot in range(30)}, call, finish)

        def call(key):
            with scheduler.waiting():  # hands the run lock to another worker
                return 2 * key

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

    def test_errors_raised_while_waiting_fail_only_their_jobs(self):
        def call(key):
            with scheduler.waiting():
                time.sleep(0.001)
                if key % 3 == 0:
                    raise BackendError(f"call {key} failed")
            return key

        def finish(results, errors):
            if errors:
                raise errors[0]

        outcome = {}
        jobs = [Job(f"q{q:02d}", {0: q}, call, finish) for q in range(20)]
        runner = threading.Thread(target=lambda: outcome.update(value=run_jobs(4, jobs)),
                                  daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        done, failures = outcome["value"]
        assert done == 20 - 7
        assert [(qid, str(exc)) for qid, exc in failures] == [
            (f"q{q:02d}", f"call {q} failed") for q in range(0, 20, 3)
        ]

    def test_waiting_is_a_no_op_outside_the_pool_and_when_nested(self):
        with scheduler.waiting():
            pass

        def call(key):
            with scheduler.waiting():
                with scheduler.waiting():
                    return key

        assert run_jobs(1, [Job("q00", {0: 0}, call, lambda results, errors: None)]) == (1, [])

    def test_warm_replay_costs_no_more_cpu_at_more_workers(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        script_path = tmp_path / "mock.json"
        make_mock_script(script_path, make_mock_corpus(corpus_path, count=40))
        args = ["--out", str(tmp_path / "out"), "--mock-script", str(script_path)]
        assert main(["sample", "--corpus", str(corpus_path), *args]) == EXIT_OK
        assert main(["cluster", *args]) == EXIT_OK

        # Back-to-back runs in alternating order: the load of a shared host
        # moves both settings alike, and the totals even out single runs.
        for stage, pairs in (("sample", 9), ("cluster", 5)):
            cpu = {"1": 0.0, "4": 0.0}
            for pair in range(pairs):
                for concurrency in ("1", "4") if pair % 2 else ("4", "1"):
                    started = time.process_time()
                    assert main([stage, "--force", "--concurrency", concurrency, *args]) == EXIT_OK
                    cpu[concurrency] += time.process_time() - started
            assert cpu["4"] <= 1.25 * cpu["1"], (stage, cpu)

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
    """Holds each chat completion ``server.delay_s``, then answers "ct", or
    an error body under ``server.status`` if that is not 200; counts
    connections, requests and the most requests open at once."""

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
        server = self.server
        with server.lock:
            server.requests += 1
            server.open += 1
            server.peak_open = max(server.peak_open, server.open)
        time.sleep(server.delay_s)
        with server.lock:
            server.open -= 1  # before the reply, so the client cannot send ahead of it
        if server.status == 200:
            reply = {
                "model": "m",
                "choices": [{"message": {"role": "assistant", "content": "ct"}}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 1},
            }
        else:
            reply = {"error": {"message": "image too large"}}
        body = json.dumps(reply).encode()
        self.send_response(server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def completion_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.status = 200
    server.delay_s = 0.0
    server.connections = server.requests = server.open = server.peak_open = 0
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


def corpus_with_images(tmp_path, count) -> Path:
    """A mock corpus whose questions name image files that exist."""
    corpus_path = tmp_path / "corpus.jsonl"
    rows = make_mock_corpus(corpus_path, count=count)
    with open(corpus_path, "w") as handle:
        for index, row in enumerate(rows):
            image = tmp_path / f"{index}.png"
            image.write_bytes(b"\x89PNG\r\n\x1a\n")
            handle.write(json.dumps({**row, "image": str(image)}) + "\n")
    return corpus_path


class TestHttpStage:
    def test_connections_are_kept_alive(self, tmp_path, completion_server, caplog, monkeypatch):
        caplog.set_level(logging.WARNING, logger="urllib3")
        closed = []
        close = gateway.HttpBackend.close
        monkeypatch.setattr(gateway.HttpBackend, "close",
                            lambda backend: closed.append(True) or close(backend))
        corpus_path = corpus_with_images(tmp_path, 20)
        args = http_args(completion_server, corpus_path, tmp_path / "out", "--concurrency", "12")
        assert main(args) == EXIT_OK
        assert completion_server.requests == 20 * 16
        assert completion_server.connections <= 12
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]
        assert closed == [True]

    def test_requests_open_reach_concurrency_and_never_exceed_it(self, tmp_path,
                                                                 completion_server):
        completion_server.delay_s = 0.02
        corpus_path = corpus_with_images(tmp_path, 6)
        args = http_args(completion_server, corpus_path, tmp_path / "out", "--k", "4",
                         "--concurrency", "4")
        assert main(args) == EXIT_OK
        assert completion_server.requests == 6 * 5
        assert completion_server.peak_open == 4

    def test_failure_lines_name_the_call_error(self, tmp_path, completion_server, capsys):
        completion_server.status = 400
        corpus_path = corpus_with_images(tmp_path, 2)
        args = http_args(completion_server, corpus_path, tmp_path / "out", "--k", "1")
        assert main(args) == EXIT_BACKEND
        err = capsys.readouterr().err
        for qid in ("q00", "q01"):
            assert (f"  {qid}: sampling incomplete for question '{qid}': missing ordinals [0]; "
                    f"first error: HTTP 400 from {completion_server.url}: ") in err
        assert "image too large" in err
        assert completion_server.requests == 2 * 2  # a 400 is not retried

    def test_unset_api_key_variable_is_usage_error_before_any_call(
        self, tmp_path, completion_server, monkeypatch, capsys
    ):
        monkeypatch.delenv("NOPE_KEY", raising=False)
        corpus_path = corpus_with_images(tmp_path, 2)
        args = http_args(completion_server, corpus_path, tmp_path / "out",
                         "--api-key-env", "NOPE_KEY")
        assert main(args) == EXIT_USAGE
        assert "API key environment variable 'NOPE_KEY' is not set" in capsys.readouterr().err
        assert completion_server.requests == 0

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

    def test_non_finite_setting_is_usage_error_and_not_stored(self, tmp_path, capsys):
        args = graded_run(tmp_path, 3)
        config = (tmp_path / "out" / "config.json").read_bytes()
        assert main(["report", *args, "--thresholds", "inf"]) == EXIT_USAGE
        assert "invalid threshold" in capsys.readouterr().err
        assert (tmp_path / "out" / "config.json").read_bytes() == config

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

    def test_unreadable_cluster_record_is_named(self, tmp_path, capsys):
        args = graded_run(tmp_path, 3)
        record = tmp_path / "out" / "clusters" / "q-q01.json"
        record.unlink()
        record.mkdir()  # reading it raises IsADirectoryError
        capsys.readouterr()
        assert main(["report", *args]) == EXIT_INCOMPLETE
        assert "stale clusters for 1 question(s): q01" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error,code",
        [
            (UsageError("no corpus"), EXIT_USAGE),
            (CorpusFormatError("invalid JSON", path="c.jsonl", line=3), EXIT_USAGE),
            (UnknownQuestionIdsError(["zz"]), EXIT_USAGE),
            (IncompleteRecordsError("missing grades; run the grade stage first"), EXIT_INCOMPLETE),
            (EmptyRetainedSetError("empty retained set"), EXIT_INCOMPLETE),
            (IncompleteMatrixError([(0, 1)]), EXIT_INCOMPLETE),
            (BackendError("HTTP 500"), EXIT_BACKEND),
            (SamplingIncompleteError("q00", [3]), EXIT_BACKEND),
            (JudgingError([(0, 1)]), EXIT_BACKEND),
            (GradingError("unparseable reply"), EXIT_BACKEND),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
    )
    def test_status_is_the_error_class_exit_code(self, monkeypatch, capsys, error, code):
        def cmd_cost(args):
            raise error

        monkeypatch.setattr(cli, "cmd_cost", cmd_cost)
        assert main(["cost"]) == code == type(error).exit_code
        assert capsys.readouterr().err == f"error: {error}\n"

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


@pytest.fixture
def tracing():
    """The benchmark's tracer, ``perfbench/tracing.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracing:
    def test_benchmark_tracer_sees_every_cluster_layer(self, workdir, tracing):
        script = json.loads(workdir["script"].read_text())
        script["grades"] = {record["id"]: "yes" for record in workdir["records"]}
        workdir["script"].write_text(json.dumps(script))
        tracer = tracing.Tracer()
        tracing.install(tracer, {})
        try:
            with tracer.stage("cli.sample"):
                assert main(["sample", "--corpus", str(workdir["corpus"]),
                             *base_args(workdir)]) == EXIT_OK
            with tracer.stage("cli.cluster"):
                assert main(["cluster", *base_args(workdir)]) == EXIT_OK
            with tracer.stage("cli.grade"):
                assert main(["grade", "--grader", "model-judge", *base_args(workdir)]) == EXIT_OK
            summary = tracing.summarize(tracer.spans)
            tracer.spans.clear()
            with tracer.stage("cli.cluster"):
                assert main(["cluster", *base_args(workdir)]) == EXIT_OK
            rerun = tracing.summarize(tracer.spans)
        finally:
            tracer.uninstall()
        for name in ("gateway.judge_entailment", "entropy.discrete_semantic_entropy",
                     "clustering.audit_record", "clustering.write_audit_record"):
            assert summary.get(name, {"count": 0})["count"] > 0, name
        assert summary["clustering.write_audit_record"]["count"] == 10
        assert summary["corpus.grade"]["count"] == 10
        assert rerun["clustering.read_audit_record"]["count"] == 10
        assert "gateway.judge_entailment" not in rerun
        assert cli.discrete_semantic_entropy is entropy.discrete_semantic_entropy

    def test_benchmark_tracer_sees_every_report_layer(self, workdir, tracing):
        run_pipeline(workdir)
        tracer = tracing.Tracer()
        # install reads every attribute it wraps, so a renamed or removed one raises here
        tracing.install(tracer, {})
        summaries = {}
        try:
            assert all(callable(original) for _, _, original, _ in tracer._patches)
            for command in ("report", "curve"):
                tracer.spans.clear()
                with tracer.stage(f"cli.{command}"):
                    assert main([command, *base_args(workdir)]) == EXIT_OK
                summaries[command] = {
                    name: entry["count"] for name, entry in tracing.summarize(tracer.spans).items()
                }
        finally:
            tracer.uninstall()
        report, curve = summaries["report"], summaries["curve"]
        assert report["clustering.read_audit_record"] == curve["clustering.read_audit_record"] == 10
        assert report["evaluation.bootstrap_delta"] == 2
        assert report["gateway.account_usage"] == 1
        assert curve["evaluation.coverage_curve"] == 1
        assert "clustering.load_audit_record" not in report  # cost reads the rows as stored


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
