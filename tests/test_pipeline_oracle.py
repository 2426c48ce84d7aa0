"""The CLI's numbers on random small mock runs, against ``helpers.pipeline_oracle``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entropygate.cli import EXIT_INCOMPLETE, EXIT_OK, main
from entropygate.clustering import POLICIES
from helpers import pipeline_oracle

# Normalised already, so a grade is plain equality; few, so texts repeat.
VOCABULARY = ("ct", "mri", "xray", "pet ct", "ultrasound")
WORDINGS = ("What modality is shown?", "Which plane is this?", "Is there a fracture?")


@st.composite
def mock_runs(draw):
    """(corpus records, mock script, k, policy): 1-8 questions, k 1-6."""
    count, k = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    text = st.sampled_from(VOCABULARY)
    corpus = [
        {"id": f"q{index}", "image": f"images/{index}.png",
         "question": draw(st.sampled_from(WORDINGS)), "reference": draw(text),
         "dataset": draw(st.sampled_from(["A", "B"])),
         "subgroup": draw(st.sampled_from(["modality", "plane"]))}
        for index in range(count)
    ]
    rule = draw(st.sampled_from(["equality", "equivalence-classes", "random"]))
    judge = {"rule": rule}
    if rule == "equivalence-classes":
        labels = draw(st.lists(st.sampled_from([None, 0, 1, 2]),
                               min_size=len(VOCABULARY), max_size=len(VOCABULARY)))
        classes = [[word for word, label in zip(VOCABULARY, labels) if label == number]
                   for number in range(3)]
        judge["classes"] = [c for c in classes if c]
    elif rule == "random":  # not transitive, so the two policies can differ
        judge.update(seed=draw(st.integers(0, 9)), p_entail=draw(st.sampled_from([0.5, 0.8])))
    script = {
        "tokens_in": draw(st.integers(0, 900)),
        "tokens_out": draw(st.integers(0, 90)),
        "latency_ms": draw(st.sampled_from([0.0, 250.0, 3000.0])),
        "judge": judge,
        "answers": {
            record["id"]: {"sample": draw(st.lists(text, min_size=k, max_size=k)),
                           "baseline": [draw(text)]}
            for record in corpus
        },
    }
    return corpus, script, k, draw(st.sampled_from(POLICIES))


def run(stage: str, *args: str) -> tuple[int, str, str]:
    """``main([stage, *args])``: its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([stage, *args])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(mock_runs())
def test_a_mock_run_gives_the_oracle_numbers(mock_run):
    corpus, script, k, policy = mock_run
    oracle = pipeline_oracle(corpus, script, k, policy)
    # The cache's store syncs to disk as it closes; in memory, 30 runs take a second.
    memory = "/dev/shm" if os.path.isdir("/dev/shm") else None
    with tempfile.TemporaryDirectory(dir=memory) as folder:
        folder = Path(folder)
        (folder / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in corpus))
        (folder / "mock.json").write_text(json.dumps(script))
        out = folder / "out"
        args = ["--out", str(out), "--mock-script", str(folder / "mock.json"), "--k", str(k),
                "--policy", policy, "--iterations", "200"]

        code, printed, _ = run("sample", "--corpus", str(folder / "corpus.jsonl"), *args)
        assert code == EXIT_OK
        assert printed.endswith(
            f"; {oracle['calls']['sample']} model call(s) sent, 0 replayed from the cache\n"
        )
        code, printed, _ = run("cluster", *args)
        assert code == EXIT_OK
        assert printed.endswith(
            f"; {oracle['calls']['judge']} model call(s) sent, 0 replayed from the cache\n"
        )
        for qid, expected in oracle["questions"].items():
            record = json.loads((out / "clusters" / f"q-{qid}.json").read_text())
            assert sorted(record["clusters"]) == expected["partition"]
            assert sorted(record["cluster_sizes"]) == sorted(map(len, expected["partition"]))
            assert record["dse"] == pytest.approx(expected["dse"], abs=1e-12)
        assert run("grade", *args)[0] == EXIT_OK
        assert run("cost", *args)[0] == EXIT_OK
        cost = json.loads((out / "reports" / "cost.json").read_text())
        assert cost == pytest.approx(oracle["cost"], rel=1e-12)

        code, _, error = run("report", *args)
        empty = [row for row in oracle["outcomes"] if row[1] == 0]
        if empty:  # the first threshold that keeps nothing stops the report
            assert code == EXIT_INCOMPLETE
            assert error == (f"error: empty retained set at threshold {empty[0][0]:g}: "
                             f"all {len(corpus)} question(s) rejected\n")
            return
        assert code == EXIT_OK
        report = json.loads((out / "reports" / "report.json").read_text())
        baseline = 100.0 * sum(q["correct"] for q in oracle["questions"].values()) / len(corpus)
        assert [
            (o["threshold"], o["n_retained"], o["n_total"], o["baseline_accuracy"],
             o["filtered_accuracy"], o["delta"])
            for o in report["outcomes"]
        ] == [
            pytest.approx((threshold, retained, total, baseline, accuracy, delta), rel=1e-12)
            for threshold, retained, total, _, accuracy, delta in oracle["outcomes"]
        ]
        assert [
            ((row["dataset"], row["subgroup"]), row["n_total"], row["baseline_accuracy"],
             [(c["threshold"], c["n_retained"], c["accuracy"], c["delta"])
              for c in row["thresholds"]])
            for row in report["subgroups"]
        ] == [
            (name, rows[0][2], pytest.approx(accuracy, rel=1e-12),
             [(t, kept, pytest.approx(acc, rel=1e-12), pytest.approx(d, rel=1e-12))
              for t, kept, _, _, acc, d in rows])
            for name, (accuracy, rows) in oracle["subgroups"].items()
        ]
