"""Question corpora: canonical format, dataset adapters, and grading.

The canonical corpus is JSONL, one question per line::

    {"id": "...", "image": "path-or-url", "question": "...",
     "reference": "...", "dataset": "...", "subgroup": "..."}

Adapters convert the two supported source layouts into that shape:

* ``load_vqa_med``: pipe-delimited QA files (``image|question|answer`` or
  ``image|category|question|answer``), one file or a directory of them.
* ``load_rad_dataset``: a CSV manifest with image/modality/diagnosis
  columns; the question defaults to an open diagnosis prompt and the
  modality becomes the subgroup.

Grading compares a model answer against the reference, with three
interchangeable graders: normalized exact match, normalized containment,
and a yes/no model judge.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import CorpusFormatError, GradingError, UnknownQuestionIdsError, write_text_atomic
from .gateway import ROLE_GRADE, Backend, BackendError, ask, parse_yes_no_reply

log = logging.getLogger(__name__)

GRADER_EXACT = "normalized-exact"
GRADER_CONTAINMENT = "normalized-containment"
GRADER_MODEL = "model-judge"
GRADER_IMPORTED = "imported"

GRADERS = (GRADER_EXACT, GRADER_CONTAINMENT, GRADER_MODEL)

_FIELDS = ("id", "image", "question", "reference", "dataset", "subgroup")


@dataclass(frozen=True)
class ImageQuestion:
    """One question about one image, with its reference answer."""

    id: str
    image_ref: str
    question: str
    reference: str
    dataset: str
    subgroup: str

    def __post_init__(self):
        for name in ("id", "question", "reference", "dataset", "subgroup"):
            if not getattr(self, name).strip():
                raise ValueError(f"ImageQuestion.{name} must be nonempty")


@dataclass(frozen=True)
class GradedAnswer:
    """Correctness judgment for one answer to one question."""

    question_id: str
    answer: str
    reference: str
    correct: bool
    grader: str


# ---------------------------------------------------------------------------
# Canonical JSONL corpus
# ---------------------------------------------------------------------------

def load_corpus(path: str | Path) -> list[ImageQuestion]:
    """Read a canonical JSONL corpus, validating ids and required fields.

    Malformed lines and duplicate ids raise ``CorpusFormatError`` with the
    file and line number; blank lines are skipped.  An empty corpus loads
    to an empty list with a warning.
    """
    path = Path(path)
    items: list[ImageQuestion] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc}", path=str(path), line=line_no)
            if not isinstance(record, dict):
                raise CorpusFormatError("record is not an object", path=str(path), line=line_no)
            missing = [name for name in _FIELDS if not record.get(name)]
            if missing:
                raise CorpusFormatError(
                    f"missing or empty field(s): {', '.join(missing)}",
                    path=str(path),
                    line=line_no,
                )
            qid = str(record["id"])
            if qid in seen:
                raise CorpusFormatError(
                    f"duplicate question id {qid!r} (first seen on line {seen[qid]})",
                    path=str(path),
                    line=line_no,
                )
            seen[qid] = line_no
            items.append(
                ImageQuestion(
                    id=qid,
                    image_ref=str(record["image"]),
                    question=str(record["question"]),
                    reference=str(record["reference"]),
                    dataset=str(record["dataset"]),
                    subgroup=str(record["subgroup"]),
                )
            )
    if not items:
        log.warning("corpus %s is empty", path)
    return items


def write_corpus(items: Iterable[ImageQuestion], path: str | Path):
    """Write questions as canonical JSONL (UTF-8, one object per line)."""
    lines = []
    for item in items:
        record = {
            "id": item.id,
            "image": item.image_ref,
            "question": item.question,
            "reference": item.reference,
            "dataset": item.dataset,
            "subgroup": item.subgroup,
        }
        lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    write_text_atomic(path, "".join(lines))


# ---------------------------------------------------------------------------
# Source adapters
# ---------------------------------------------------------------------------

_CATEGORY_ALIASES = {
    "modality": "modality",
    "plane": "plane",
    "organ": "organ",
    "organ system": "organ",
    "organ_system": "organ",
    "abnormality": "abnormality",
    "abnormalities": "abnormality",
}


def _normalize_category(raw: str) -> str:
    key = raw.strip().casefold().replace("-", " ")
    return _CATEGORY_ALIASES.get(key, raw.strip().casefold())


def load_vqa_med(source: str | Path) -> list[ImageQuestion]:
    """Adapt pipe-delimited VQA files into the canonical corpus shape.

    Each line is ``image|question|answer`` or ``image|category|question|
    answer``; the 4-field form carries the subgroup, the 3-field form
    takes the subgroup from the file's stem.  A directory is read as all
    its ``*.txt`` files in sorted order.  Ids are ``<subgroup>-<image>``
    made unique with a numeric suffix on collision; the dataset is
    ``VQA-Med-2019``.
    """
    source = Path(source)
    if source.is_dir():
        files = sorted(source.glob("*.txt"))
        if not files:
            raise CorpusFormatError("no *.txt files in directory", path=str(source))
    else:
        files = [source]

    items: list[ImageQuestion] = []
    used_ids: dict[str, int] = {}
    for file in files:
        file_subgroup = _normalize_category(file.stem)
        with open(file, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("|")
                if len(fields) == 3:
                    image, question, answer = fields
                    subgroup = file_subgroup
                elif len(fields) == 4:
                    image, category, question, answer = fields
                    subgroup = _normalize_category(category)
                else:
                    raise CorpusFormatError(
                        f"expected 3 or 4 pipe-delimited fields, got {len(fields)}",
                        path=str(file),
                        line=line_no,
                    )
                image = image.strip()
                question = question.strip()
                answer = answer.strip()
                if not (image and question and answer):
                    raise CorpusFormatError(
                        "empty image, question, or answer field",
                        path=str(file),
                        line=line_no,
                    )
                base = f"{subgroup}-{image}"
                count = used_ids.get(base, 0)
                used_ids[base] = count + 1
                qid = base if count == 0 else f"{base}-{count + 1}"
                items.append(
                    ImageQuestion(
                        id=qid,
                        image_ref=image,
                        question=question,
                        reference=answer,
                        dataset="VQA-Med-2019",
                        subgroup=subgroup,
                    )
                )
    return items


_MODALITY_ALIASES = {
    "ct": "CT",
    "ct scan": "CT",
    "computed tomography": "CT",
    "mr": "MRI",
    "mri": "MRI",
    "mri scan": "MRI",
    "magnetic resonance": "MRI",
    "magnetic resonance imaging": "MRI",
    "radiograph": "radiography",
    "radiographs": "radiography",
    "radiography": "radiography",
    "x ray": "radiography",
    "xray": "radiography",
    "plain film": "radiography",
    "angiogram": "angiography",
    "angiograms": "angiography",
    "angiography": "angiography",
}

_DEFAULT_DIAGNOSIS_QUESTION = "What is the most likely diagnosis?"


def load_rad_dataset(source: str | Path) -> list[ImageQuestion]:
    """Adapt a diagnosis-benchmark CSV manifest into the canonical shape.

    Required columns: image, modality, diagnosis.  Optional: id (defaults
    to the image stem), question (defaults to an open diagnosis prompt),
    context (prepended to the question when present).  The modality is
    normalized to one of CT / MRI / radiography / angiography and becomes
    the subgroup; an unrecognized modality is kept casefolded with a
    warning rather than dropped.  The dataset is ``RadDataset``.
    """
    source = Path(source)
    with open(source, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise CorpusFormatError("missing CSV header", path=str(source))
        header = {name.strip().casefold(): name for name in reader.fieldnames}
        for required in ("image", "modality", "diagnosis"):
            if required not in header:
                raise CorpusFormatError(
                    f"missing required column {required!r}", path=str(source)
                )

        items: list[ImageQuestion] = []
        seen: dict[str, int] = {}
        for line_no, row in enumerate(reader, start=2):
            def cell(name: str) -> str:
                column = header.get(name)
                return (row.get(column) or "").strip() if column else ""

            image = cell("image")
            modality_raw = cell("modality")
            diagnosis = cell("diagnosis")
            if not (image and modality_raw and diagnosis):
                raise CorpusFormatError(
                    "empty image, modality, or diagnosis field",
                    path=str(source),
                    line=line_no,
                )
            modality = _MODALITY_ALIASES.get(modality_raw.casefold().replace("-", " "))
            if modality is None:
                modality = modality_raw.casefold()
                log.warning(
                    "%s line %d: unrecognized modality %r kept as subgroup",
                    source,
                    line_no,
                    modality_raw,
                )
            qid = cell("id") or Path(image).stem
            if qid in seen:
                raise CorpusFormatError(
                    f"duplicate question id {qid!r} (first seen on line {seen[qid]})",
                    path=str(source),
                    line=line_no,
                )
            seen[qid] = line_no
            question = cell("question") or _DEFAULT_DIAGNOSIS_QUESTION
            context = cell("context")
            if context:
                question = f"{context}\n{question}"
            items.append(
                ImageQuestion(
                    id=qid,
                    image_ref=image,
                    question=question,
                    reference=diagnosis,
                    dataset="RadDataset",
                    subgroup=modality,
                )
            )
    return items


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

def normalize_text(text: str) -> str:
    """Casefold, trim, collapse runs of whitespace, drop trailing punctuation."""
    collapsed = " ".join(text.split())
    return collapsed.casefold().rstrip(".,;:!?")


def grade(
    item: ImageQuestion,
    answer: str,
    grader: str = GRADER_EXACT,
    backend: Backend | None = None,
) -> GradedAnswer:
    """Judge one answer against the question's reference.

    ``normalized-exact`` requires the normalized strings to match;
    ``normalized-containment`` also accepts the normalized reference
    appearing inside the normalized answer (or the reverse); and
    ``model-judge`` asks a yes/no question of the given backend through
    ``gateway.ask`` (an unparseable reply is asked again, as the judge's
    is), raising ``GradingError`` on backend failure or when no reply
    parses.
    """
    if grader == GRADER_EXACT:
        correct = normalize_text(answer) == normalize_text(item.reference)
    elif grader == GRADER_CONTAINMENT:
        a, r = normalize_text(answer), normalize_text(item.reference)
        correct = a == r or (r and r in a) or (a and a in r)
        correct = bool(correct)
    elif grader == GRADER_MODEL:
        if backend is None:
            raise ValueError("model-judge grading requires a backend")
        try:
            correct, reply, *_ = ask(
                backend, parse_yes_no_reply, question_id=item.id, role=ROLE_GRADE,
                temperature=0.0, question=item.question, premise=item.reference, hypothesis=answer,
            )
        except BackendError as exc:
            raise GradingError(f"grading failed for question {item.id!r}: {exc}") from exc
        if correct is None:
            raise GradingError(
                f"grading failed for question {item.id!r}: unparseable reply {reply.text!r}"
            )
    else:
        raise ValueError(f"unknown grader {grader!r}")
    return GradedAnswer(
        question_id=item.id,
        answer=answer,
        reference=item.reference,
        correct=correct,
        grader=grader,
    )


def import_grades(path: str | Path, known_ids: Iterable[str]) -> dict[str, bool]:
    """Read human grade overrides: one ``question_id  verdict`` pair per line.

    Pairs may be comma- or whitespace-separated; verdicts accept 1/0,
    true/false, yes/no, correct/incorrect (case-insensitive).  Lines
    starting with ``#`` are comments.  Ids not present in ``known_ids``
    raise ``UnknownQuestionIdsError``; a repeated id keeps the last
    verdict.
    """
    path = Path(path)
    known = set(known_ids)
    truthy = {"1", "true", "yes", "correct", "y"}
    falsy = {"0", "false", "no", "incorrect", "n"}
    overrides: dict[str, bool] = {}
    unknown: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"expected 'question_id verdict', got {line!r}",
                    path=str(path),
                    line=line_no,
                )
            qid, verdict_raw = parts
            verdict_token = verdict_raw.casefold()
            if verdict_token in truthy:
                verdict = True
            elif verdict_token in falsy:
                verdict = False
            else:
                raise CorpusFormatError(
                    f"unrecognized verdict {verdict_raw!r}", path=str(path), line=line_no
                )
            if qid not in known:
                unknown.append(qid)
                continue
            overrides[qid] = verdict
    if unknown:
        raise UnknownQuestionIdsError(unknown)
    return overrides
