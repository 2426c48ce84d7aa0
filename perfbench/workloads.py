"""Seeded inputs and expected outputs for the benchmark workloads.

The program under test only ever sees the files written here: a canonical
corpus, real PNG images, and (for the offline workload) a mock script.  The
loopback API stub sees the ``stub.json`` spec, which holds the scripted
answers, the judge's equivalence classes and one-way entailments, and the
grade table.  Everything derives from ``--seed``; the mix of question types
is fixed, so seeds change texts, images and order but not the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import zlib
from collections import Counter
from pathlib import Path

K = 15  # samples per question on the HTTP workloads (the paper's k)
IMAGE_SIDE = 288  # 288 x 288 RGB noise: about 243 KB as PNG, 330 KB as base64
SAMPLE_TEMPERATURE = 1.0
BASELINE_TEMPERATURE = 0.1
MODEL = "stub-vlm"

# Question types of the HTTP corpus, in id order.  The one all-distinct
# question comes first so that, with questions run in id order, the longest
# job always starts at once and the schedule does not depend on the seed.
HTTP_MIX = ("distinct",) + ("agree", "mixed", "oneway") * 3

# Table 1 of the paper: (questions, correct, entropy band) for 706 questions.
TABLE1_BLOCKS = ((334, 255, "low"), (165, 59, "mid"), (207, 51, "high"))
TABLE1_K = 5
# Cluster-size partitions of k = 5 by entropy band (base 10):
# low <= 0.3 < mid <= 0.6 < high.
TABLE1_PARTITIONS = {
    "low": ((5,), (4, 1), (3, 2)),
    "mid": ((3, 1, 1), (2, 2, 1), (2, 1, 1, 1)),
    "high": ((1, 1, 1, 1, 1),),
}
TABLE1_EXPECTED = {
    # threshold -> (n_retained, n_total, baseline %, filtered %), rounded to .1
    0.6: (499, 706, "51.7", "62.9"),
    0.3: (334, 706, "51.7", "76.3"),
}

_ADJECTIVES = (
    "acute", "chronic", "diffuse", "focal", "bilateral", "left", "right",
    "posterior", "anterior", "lobulated", "cystic", "calcified", "enhancing",
    "infiltrative", "septated", "hyperdense", "hypodense", "nodular",
)
_ORGANS = (
    "hepatic", "renal", "pulmonary", "splenic", "pancreatic", "adrenal",
    "thyroid", "cerebral", "cardiac", "osseous", "vertebral", "pleural",
)
_FINDINGS = (
    "mass", "lesion", "effusion", "hemorrhage", "infarct", "abscess",
    "fracture", "stenosis", "aneurysm", "nodule", "edema", "thrombosis",
)
_MODIFIERS = (
    "with surrounding edema", "with central necrosis", "on contrast phase",
    "with mass effect", "in the axial plane", "with rim enhancement",
)
_PARAPHRASES = ("{}", "findings consistent with {}", "{} is present")


def entropy10(sizes) -> float:
    """Base-10 Shannon entropy of a cluster-size multiset."""
    total = sum(sizes)
    return -sum((c / total) * math.log10(c / total) for c in sizes)


def png_bytes(rng: random.Random, side: int) -> bytes:
    """A valid RGB PNG of incompressible noise, so its size is predictable."""
    row = side * 3
    raw = b"".join(b"\x00" + rng.randbytes(row) for _ in range(side))

    def chunk(kind: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", side, side, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 1)) + chunk(b"IEND", b"")
    )


class _Texts:
    """Unique answer phrases drawn from a seeded vocabulary."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def phrase(self) -> str:
        while True:
            text = " ".join(
                (self.rng.choice(_ADJECTIVES), self.rng.choice(_ORGANS), self.rng.choice(_FINDINGS))
            )
            if text not in self.used:
                self.used.add(text)
                return text


def _http_question(kind: str, texts: _Texts, rng: random.Random):
    """Scripted samples, judge relations and grading for one question type.

    Returns (samples, baseline, reference, classes, oneway, expected sizes).
    Texts inside one class are paraphrases (mutual entailment); a one-way
    pair (specific, general) entails in that direction only.
    """
    classes: list[list[str]] = []
    oneway: list[list[str]] = []
    if kind == "agree":
        base = texts.phrase()
        variants = [form.format(base) for form in _PARAPHRASES]
        counts = rng.choice(((7, 5, 3), (9, 4, 2), (6, 6, 3)))
        samples = [v for v, c in zip(variants, counts) for _ in range(c)]
        classes.append(variants)
        baseline, reference, sizes = variants[0], variants[1], [K]
    elif kind == "mixed":
        a, b, c = texts.phrase(), texts.phrase(), texts.phrase()
        a_variants = [a, _PARAPHRASES[1].format(a)]
        split = rng.choice(((5, 3), (6, 2), (4, 4)))
        samples = [a_variants[0]] * split[0] + [a_variants[1]] * split[1] + [b] * 4 + [c] * 3
        classes.append(a_variants)
        baseline, reference, sizes = a, b, [8, 4, 3]
    elif kind == "oneway":
        general = texts.phrase()
        specific = f"{general} {rng.choice(_MODIFIERS)}"
        texts.used.add(specific)
        samples = [general] * 10 + [specific] * 5
        oneway.append([specific, general])
        baseline, reference, sizes = general, general, [10, 5]
    elif kind == "distinct":
        samples = [texts.phrase() for _ in range(K)]
        baseline, reference, sizes = texts.phrase(), texts.phrase(), [1] * K
    else:
        raise ValueError(f"unknown question type {kind!r}")
    rng.shuffle(samples)
    return samples, baseline, reference, classes, oneway, sizes


def _same_class(classes, a: str, b: str) -> bool:
    return a == b or any(a in group and b in group for group in classes)


def build_http(work: Path, seed: int) -> dict:
    """Corpus, images and stub spec for ``cold-http`` and ``warm-replay``.

    Returns the expectation record the checks compare outputs against.
    """
    rng = random.Random(f"entropygate-bench-http-{seed}")
    texts = _Texts(rng)
    images = work / "images"
    images.mkdir(parents=True, exist_ok=True)
    stub_questions = {}
    corpus_lines = []
    expected = {}
    classes: list[list[str]] = []
    oneway: list[list[str]] = []
    subgroups = ("modality", "plane", "organ", "abnormality")
    for index, kind in enumerate(HTTP_MIX):
        qid = f"q{index:02d}"
        question = (
            f"Study {index}-{rng.randrange(10**6):06d}: what is the main finding "
            f"on this {rng.choice(('CT', 'MRI', 'radiograph', 'ultrasound'))} image?"
        )
        samples, baseline, reference, q_classes, q_oneway, sizes = _http_question(kind, texts, rng)
        classes.extend(q_classes)
        oneway.extend(q_oneway)
        image = png_bytes(rng, IMAGE_SIDE)
        image_path = (images / f"{qid}.png").resolve()
        image_path.write_bytes(image)
        correct = _same_class(q_classes, baseline, reference)
        stub_questions[question] = {
            "id": qid,
            "samples": samples,
            "baseline": baseline,
            "image_bytes": len(image),
            "image_sha256": hashlib.sha256(image).hexdigest(),
        }
        corpus_lines.append(
            json.dumps(
                {
                    "id": qid,
                    "image": str(image_path),
                    "question": question,
                    "reference": reference,
                    "dataset": "BenchSet",
                    "subgroup": subgroups[index % len(subgroups)],
                },
                sort_keys=True,
            )
        )
        pairs = [(samples[i], samples[j]) for i in range(K) for j in range(K) if i != j]
        expected[qid] = {
            "kind": kind,
            "question": question,
            "samples": samples,
            "sizes": sorted(sizes, reverse=True),
            "dse": entropy10(sizes),
            "correct": correct,
            "judged_pairs": len(pairs),
            "distinct_pairs": len(set(pairs)),
        }
    corpus_path = work / "corpus.jsonl"
    corpus_path.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    spec = {
        "model": MODEL,
        "sample_temperature": SAMPLE_TEMPERATURE,
        "baseline_temperature": BASELINE_TEMPERATURE,
        "questions": stub_questions,
        "classes": classes,
        "oneway": oneway,
    }
    spec_path = work / "stub.json"
    spec_path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    judged = sum(e["judged_pairs"] for e in expected.values())
    distinct = sum(e["distinct_pairs"] for e in expected.values())
    return {
        "corpus": str(corpus_path),
        "stub_spec": str(spec_path),
        "questions": expected,
        "duplicate_pair_share": (judged - distinct) / judged,
        "retained": {
            str(t): sum(1 for e in expected.values() if e["dse"] <= t) for t in (0.6, 0.3)
        },
    }


def build_table1(work: Path, seed: int) -> dict:
    """706-question corpus and mock script in the paper's Table 1 proportions.

    Each question's k = 5 scripted samples follow a cluster-size partition
    drawn from its entropy band; the offline mock judges by text equality.
    Correct questions serve the reference as their baseline answer.
    """
    rng = random.Random(f"entropygate-bench-table1-{seed}")
    image = work / "image.png"
    image.parent.mkdir(parents=True, exist_ok=True)
    image.write_bytes(png_bytes(rng, 16))
    rows = []
    for count, correct, band in TABLE1_BLOCKS:
        rows.extend((band, index < correct) for index in range(count))
    rng.shuffle(rows)
    subgroups = [("VQA-Med", "modality"), ("VQA-Med", "plane"), ("VQA-Med", "organ"),
                 ("VQA-Med", "abnormality"), ("RadDataset", "CT"), ("RadDataset", "MRI")]
    corpus_lines = []
    answers = {}
    for index, (band, correct) in enumerate(rows):
        qid = f"r{index:04d}"
        sizes = rng.choice(TABLE1_PARTITIONS[band])
        cluster_texts = [f"answer {rng.randrange(10**6):06d} {c}" for c in range(len(sizes))]
        samples = [text for text, size in zip(cluster_texts, sizes) for _ in range(size)]
        rng.shuffle(samples)
        reference = cluster_texts[0]
        dataset, subgroup = subgroups[rng.randrange(len(subgroups))]
        corpus_lines.append(
            json.dumps(
                {
                    "id": qid,
                    "image": str(image.resolve()),
                    "question": f"Question {index} about study {rng.randrange(10**6):06d}?",
                    "reference": reference,
                    "dataset": dataset,
                    "subgroup": subgroup,
                },
                sort_keys=True,
            )
        )
        answers[qid] = {
            "sample": samples,
            "baseline": [reference if correct else f"{reference} not"],
        }
    corpus_path = work / "corpus.jsonl"
    corpus_path.write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    script_path = work / "script.json"
    script = {"tokens_in": 690, "tokens_out": 43, "judge": {"rule": "equality"}, "answers": answers}
    script_path.write_text(json.dumps(script), encoding="utf-8")
    return {"corpus": str(corpus_path), "script": str(script_path), "questions": len(rows)}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages (empty when correct)
# ---------------------------------------------------------------------------

def check_clusters(out: Path, expected: dict) -> list[str]:
    """Cluster-size multisets and entropies against the generator's values.

    Multisets, not cluster ordinals, so a scheduler that reorders calls
    within a question still passes.
    """
    failures = []
    for qid, want in expected["questions"].items():
        path = out / "clusters" / f"q-{qid}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"{qid}: unreadable cluster record ({exc})")
            continue
        sizes = sorted(record.get("cluster_sizes", []), reverse=True)
        if sizes != want["sizes"]:
            failures.append(f"{qid}: cluster sizes {sizes} != {want['sizes']}")
        if abs(float(record.get("dse", -1.0)) - want["dse"]) > 1e-12:
            failures.append(f"{qid}: dse {record.get('dse')} != {want['dse']}")
        if Counter(record.get("samples", [])) != Counter(want["samples"]):
            failures.append(f"{qid}: sample texts differ from the scripted multiset")
    return failures


def check_grades(out: Path, expected: dict) -> list[str]:
    failures = []
    try:
        lines = (out / "grades" / "grades.jsonl").read_text(encoding="utf-8").splitlines()
        grades = {g["question_id"]: g["correct"] for g in map(json.loads, filter(None, lines))}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable grades ({exc})"]
    for qid, want in expected["questions"].items():
        if grades.get(qid) is not want["correct"]:
            failures.append(f"{qid}: graded {grades.get(qid)} != {want['correct']}")
    return failures


def check_http_report(out: Path, expected: dict) -> list[str]:
    """Retained counts and accuracies in report.json against the generator."""
    try:
        report = json.loads((out / "reports" / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable report ({exc})"]
    questions = expected["questions"].values()
    total = len(expected["questions"])
    baseline = 100.0 * sum(q["correct"] for q in questions) / total
    failures = []
    outcomes = {o["threshold"]: o for o in report.get("outcomes", [])}
    for threshold in (0.6, 0.3):
        kept = [q for q in questions if q["dse"] <= threshold]
        outcome = outcomes.get(threshold)
        if outcome is None:
            failures.append(f"report has no outcome at {threshold}")
            continue
        filtered = 100.0 * sum(q["correct"] for q in kept) / len(kept)
        got = (outcome["n_retained"], outcome["n_total"])
        if got != (len(kept), total):
            failures.append(f"threshold {threshold}: n {got} != {(len(kept), total)}")
        if abs(outcome["baseline_accuracy"] - baseline) > 1e-9:
            failures.append(f"threshold {threshold}: baseline {outcome['baseline_accuracy']}")
        if abs(outcome["filtered_accuracy"] - filtered) > 1e-9:
            failures.append(f"threshold {threshold}: filtered {outcome['filtered_accuracy']}")
    return failures


def report_without_latency(out: Path):
    """report.json with every measured-latency field removed, for comparison."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if "latency" not in k}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(json.loads((out / "reports" / "report.json").read_text(encoding="utf-8")))


def check_table1_report(out: Path) -> list[str]:
    """The paper's Table 1 lines: 51.7 -> 62.9 (499/706), 51.7 -> 76.3 (334/706)."""
    try:
        report = json.loads((out / "reports" / "report.json").read_text(encoding="utf-8"))
        curve = (out / "reports" / "curve.csv").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return [f"unreadable report outputs ({exc})"]
    failures = []
    outcomes = {o["threshold"]: o for o in report.get("outcomes", [])}
    for threshold, (kept, total, base, filtered) in TABLE1_EXPECTED.items():
        o = outcomes.get(threshold)
        got = o and (
            o["n_retained"], o["n_total"],
            f"{o['baseline_accuracy']:.1f}", f"{o['filtered_accuracy']:.1f}",
        )
        if got != (kept, total, base, filtered):
            failures.append(f"threshold {threshold}: {got} != {(kept, total, base, filtered)}")
    if len(curve) != 14:  # header + thresholds 1.2, 1.1, ..., 0.0
        failures.append(f"curve.csv has {len(curve)} lines, expected 14")
    return failures
