"""Shared fixtures: reconstructed result sets and mock pipeline inputs."""

from __future__ import annotations

import contextlib
import json
import sqlite3
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from entropygate.evaluation import QuestionResult


def _results(blocks) -> list[QuestionResult]:
    """Expand (count, correct_count, dse, dataset, subgroup) blocks."""
    results = []
    serial = 0
    for count, correct_count, dse, dataset, subgroup in blocks:
        for index in range(count):
            results.append(
                QuestionResult(
                    question_id=f"{dataset}-{subgroup}-{serial:04d}",
                    dataset=dataset,
                    subgroup=subgroup,
                    entropy=dse,
                    correct=index < correct_count,
                    answer="a",
                )
            )
            serial += 1
    return results


@pytest.fixture
def table1_results() -> list[QuestionResult]:
    """706 combined-set results reconstructed from the published totals.

    365 of 706 baseline-correct (51.7%); 499 at entropy <= 0.6 with 314
    correct (62.9%); 334 at entropy <= 0.3 with 255 correct (76.3%).
    """
    return _results(
        [
            (334, 255, 0.1, "combined", "all"),
            (165, 59, 0.5, "combined", "all"),
            (207, 51, 0.9, "combined", "all"),
        ]
    )


@pytest.fixture
def modality_results() -> list[QuestionResult]:
    """125 modality-subgroup results: baseline 81.6%, nothing rejected at
    0.6, and 114 retained at 0.3 with 84.2% accuracy."""
    return _results(
        [
            (114, 96, 0.1, "vqa", "modality"),
            (11, 6, 0.5, "vqa", "modality"),
        ]
    )


@pytest.fixture
def abnormality_results() -> list[QuestionResult]:
    """125 abnormality-subgroup results: baseline 13.6%, 27 retained at
    0.6 with 33.3% accuracy."""
    return _results(
        [
            (27, 9, 0.5, "vqa", "abnormality"),
            (98, 8, 0.9, "vqa", "abnormality"),
        ]
    )


def make_mock_corpus(path: Path, count: int = 10) -> list[dict]:
    """Write a small canonical corpus; returns the records."""
    records = []
    for index in range(count):
        records.append(
            {
                "id": f"q{index:02d}",
                "image": f"images/{index}.png",
                "question": f"What imaging modality is shown in study {index}?",
                "reference": "ct" if index % 2 == 0 else "mri",
                "dataset": "DemoSet",
                "subgroup": "modality" if index < count // 2 else "plane",
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return records


def make_mock_script(path: Path, records, k: int = 15) -> dict:
    """Scripted answers giving a mix of consistent, mixed, and scattered
    sample sets, so the corpus spans low, middle, and maximal entropy."""
    answers = {}
    for index, record in enumerate(records):
        reference = record["reference"]
        if index % 3 == 0:
            samples = [reference] * k
            baseline = reference
        elif index % 3 == 1:
            majority = max(1, k - 7)
            samples = [reference] * majority + ["uncertain"] * 4 + ["possibly xray"] * 3
            samples = samples[:k]
            baseline = reference
        else:
            samples = [f"guess-{j}" for j in range(k)]
            baseline = "not the reference"
        answers[record["id"]] = {"sample": samples, "baseline": [baseline]}
    script = {
        "latency_ms": 3000.0,
        "tokens_in": 690,
        "tokens_out": 43,
        "judge": {"rule": "equality"},
        "answers": answers,
    }
    path.write_text(json.dumps(script, indent=2), encoding="utf-8")
    return script


def store_rows(cache: Path) -> dict[str, dict]:
    """Every row of the record/replay store in ``cache``, by key: its reply
    columns and request by column name."""
    with contextlib.closing(sqlite3.connect(cache / "replies.sqlite")) as db:
        db.row_factory = sqlite3.Row
        return {row["key"]: dict(row) for row in db.execute("SELECT * FROM calls")}
