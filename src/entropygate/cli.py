"""Command-line pipeline: sample, cluster, grade, report, curve, cost.

Stages persist everything under one output directory::

    out/
      config.json     resolved settings, merged across invocations
      corpus.jsonl    canonical question corpus
      cache/          record/replay store for model calls
      samples/        per-question sampled + baseline answers
      clusters/       per-question entailment audit records with entropy
      grades/         grades.jsonl, one verdict per question
      reports/        report.json, summary.txt, outcomes.jsonl,
                      curve.csv, sankey-<t>.csv, cost.json

Each stage is idempotent: work already on disk is skipped, so re-running
a completed stage performs no model calls.  The sample, cluster and grade
stages run every model call of every question on one bounded pool
(``--concurrency`` calls in flight) and write each question's record as
soon as its calls are done, so interrupting a stage keeps every finished
question; behind the record/replay cache, the calls of unfinished ones
that completed are not paid for again.  Exit codes: 0 success, 1 usage
error, 2 incomplete pipeline data, 3 backend failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Hashable, Iterable

from . import clustering, corpus, evaluation, gateway
from .entropy import cluster_distribution, discrete_semantic_entropy
from .errors import (
    BackendError,
    CorpusFormatError,
    EmptyRetainedSetError,
    EntropyGateError,
    GradingError,
    JudgingError,
    SamplingIncompleteError,
    UnknownQuestionIdsError,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2
EXIT_BACKEND = 3

ADAPTERS = {
    "canonical": corpus.load_corpus,
    "vqa-med": corpus.load_vqa_med,
    "rad-dataset": corpus.load_rad_dataset,
}

# Field defaults captured up front: the RunConfig body defines a field
# named ``corpus`` which shadows the module inside the class namespace.
_DEFAULT_POLICY = clustering.POLICY_COMPONENTS
_DEFAULT_GRADER = corpus.GRADER_EXACT


@dataclass(frozen=True)
class RunConfig:
    """Resolved pipeline settings; defaults follow the evaluated protocol:
    15 samples at temperature 1.0, the served answer at 0.1, thresholds
    0.6 and 0.3, 100,000 bootstrap iterations, alpha .05 over 12
    comparisons."""

    out: str = "out"
    corpus: str | None = None
    adapter: str = "canonical"
    endpoint_url: str | None = None
    model: str | None = None
    api_key_env: str = "ENTROPYGATE_API_KEY"
    mock_script: str | None = None
    use_cache: bool = True
    cache_dir: str | None = None  # default: <out>/cache
    call_log: bool = False
    k: int = 15
    sample_temperature: float = 1.0
    baseline_temperature: float = 0.1
    thresholds: tuple[float, ...] = (0.6, 0.3)
    policy: str = _DEFAULT_POLICY
    grader: str = _DEFAULT_GRADER
    iterations: int = 100_000
    seed: int = 0
    alpha: float = 0.05
    comparisons: int = 12
    concurrency: int = 4
    price: float = 10.0
    curve_start: float = 1.2
    curve_stop: float = 0.0
    curve_step: float = 0.1

    def __post_init__(self):
        if self.adapter not in ADAPTERS:
            raise ValueError(f"unknown adapter {self.adapter!r}")
        if self.k < 1:
            raise ValueError("invalid sample count")
        if self.sample_temperature < 0 or self.baseline_temperature < 0:
            raise ValueError("temperatures must be >= 0")
        if not self.thresholds or any(t < 0 for t in self.thresholds):
            raise ValueError("invalid threshold")
        if self.policy not in (clustering.POLICY_COMPONENTS, clustering.POLICY_GREEDY):
            raise ValueError(f"unknown clustering policy {self.policy!r}")
        if self.grader not in corpus.GRADERS:
            raise ValueError(f"unknown grader {self.grader!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.comparisons < 1:
            raise ValueError("comparisons must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.price < 0:
            raise ValueError("price must be >= 0")
        if self.curve_step <= 0:
            raise ValueError("curve step must be > 0")
        if self.curve_start < self.curve_stop or self.curve_stop < 0:
            raise ValueError("curve range must satisfy start >= stop >= 0")

    # -- paths ------------------------------------------------------------

    @property
    def out_dir(self) -> Path:
        return Path(self.out)

    @property
    def config_path(self) -> Path:
        return self.out_dir / "config.json"

    @property
    def corpus_path(self) -> Path:
        return self.out_dir / "corpus.jsonl"

    @property
    def samples_dir(self) -> Path:
        return self.out_dir / "samples"

    @property
    def clusters_dir(self) -> Path:
        return self.out_dir / "clusters"

    @property
    def grades_path(self) -> Path:
        return self.out_dir / "grades" / "grades.jsonl"

    @property
    def reports_dir(self) -> Path:
        return self.out_dir / "reports"

    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else self.out_dir / "cache"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["thresholds"] = list(self.thresholds)
        return data


class _UsageError(Exception):
    pass


class _IncompleteError(Exception):
    pass


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the stored config.json, and explicit flags.

    Precedence: flag given on this invocation > value stored under the
    output directory by an earlier stage > built-in default.  The merged
    result is persisted back, keeping settings consistent across stages.
    """
    out = args.out or RunConfig.out
    stored = {}
    config_path = Path(out) / "config.json"
    if config_path.exists():
        try:
            stored = json.loads(config_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise _UsageError(f"unreadable config {config_path}: {exc}")
    values: dict = {}
    for field in fields(RunConfig):
        if field.name == "out":
            continue
        given = getattr(args, field.name, None)
        if given is not None:
            values[field.name] = given
        elif field.name in stored and stored[field.name] is not None:
            values[field.name] = stored[field.name]
    if "thresholds" in values:
        values["thresholds"] = tuple(float(t) for t in values["thresholds"])
    try:
        config = RunConfig(out=out, **values)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc))
    config.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(config.config_path, config.to_dict())
    return config


# ---------------------------------------------------------------------------
# Shared stage plumbing
# ---------------------------------------------------------------------------

_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


def question_file_name(question_id: str) -> str:
    """Filesystem-safe, collision-free file stem for a question id."""
    if _SAFE_ID.match(question_id):
        return f"q-{question_id}"
    return "h-" + hashlib.sha256(question_id.encode("utf-8")).hexdigest()[:24]


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _load_items(config: RunConfig) -> list[corpus.ImageQuestion]:
    """Corpus precedence: explicit --corpus, else the canonical copy."""
    if config.corpus:
        try:
            items = ADAPTERS[config.adapter](config.corpus)
        except FileNotFoundError as exc:
            raise _UsageError(f"corpus not found: {exc}")
        if not items:
            raise _UsageError(f"corpus {config.corpus} is empty")
        return items
    if config.corpus_path.exists():
        items = corpus.load_corpus(config.corpus_path)
        if not items:
            raise _UsageError(f"corpus {config.corpus_path} is empty")
        return items
    raise _UsageError(
        "no corpus: pass --corpus (with --adapter) or run the sample stage first"
    )


def _build_backend(config: RunConfig, required: bool = True) -> gateway.Backend | None:
    if config.mock_script:
        backend: gateway.Backend = gateway.MockBackend.from_script(config.mock_script)
    elif config.endpoint_url and config.model:
        backend = gateway.HttpBackend(
            gateway.BackendConfig(
                endpoint_url=config.endpoint_url,
                model_name=config.model,
                api_key_env=config.api_key_env,
            ),
            max_connections=config.concurrency,
        )
    elif required:
        raise _UsageError(
            "no backend configured: pass --mock-script, or --endpoint plus --model"
        )
    else:
        return None
    if config.use_cache:
        log_path = config.out_dir / "calls.jsonl" if config.call_log else None
        backend = gateway.with_cache(backend, config.resolved_cache_dir(), log_path)
    return backend


@dataclass
class _Job:
    """One question's model calls and the reduction that consumes them.

    ``slots`` maps each result slot to the key of the request that fills
    it; ``call(key)`` makes that request.  Slots with equal keys share one
    call.  ``finish(results, errors)`` gets, per slot, the call's result or
    its per-call error (``BackendError`` or ``GradingError``).
    """

    question_id: str
    slots: dict[Hashable, Hashable]
    call: Callable[[Hashable], object]
    finish: Callable[[dict, dict], None]
    results: dict = field(default_factory=dict)  # by key
    errors: dict = field(default_factory=dict)  # by key
    left: int = 0  # keys whose call has not returned


_CALL_ERRORS = (BackendError, GradingError)
_QUESTION_ERRORS = (BackendError, SamplingIncompleteError, JudgingError, GradingError)


def _run_jobs(concurrency: int, jobs: Iterable[_Job]) -> tuple[int, list[tuple[str, str]]]:
    """Run every job's calls on one pool of ``concurrency`` workers.

    The workers take calls from one lazy queue in job order, then slot
    order, so at most ``concurrency`` calls are in flight and at most
    ``concurrency + 1`` jobs are open, however long the corpus.  Each
    distinct key of a job is called once (single-flight: request keys
    carry the question id, so no two jobs share one), and every slot with
    that key gets the result.  The worker that ends a job's last call runs
    its ``finish``.

    Returns (done, failures) where failures is a sorted list of
    (question_id, message) for the jobs whose ``finish`` raised a
    per-question error.  Any other exception, Ctrl-C included, stops the
    workers from taking further calls and propagates once the running
    ones end.
    """
    lock = threading.RLock()  # reentrant: calls() finishes a job without calls
    stop = threading.Event()
    done = 0
    failures: list[tuple[str, str]] = []

    def finish(job: _Job) -> None:
        nonlocal done
        results = {s: job.results[k] for s, k in job.slots.items() if k in job.results}
        errors = {s: job.errors[k] for s, k in job.slots.items() if k in job.errors}
        try:
            job.finish(results, errors)
        except _QUESTION_ERRORS as exc:
            with lock:
                failures.append((job.question_id, str(exc)))
        else:
            with lock:
                done += 1

    def calls():
        for job in jobs:
            keys = list(dict.fromkeys(job.slots.values()))
            job.left = len(keys)
            if not keys:
                finish(job)
            for key in keys:
                yield job, key

    queue = calls()

    def work() -> None:
        try:
            while not stop.is_set():
                with lock:
                    entry = next(queue, None)
                if entry is None:
                    return
                job, key = entry
                try:
                    outcome, store = job.call(key), job.results
                except _CALL_ERRORS as exc:
                    outcome, store = exc, job.errors
                with lock:
                    store[key] = outcome
                    job.left -= 1
                    last = not job.left
                if last:
                    finish(job)
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=concurrency)
    try:
        for worker in [pool.submit(work) for _ in range(concurrency)]:
            worker.result()
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    failures.sort()
    return done, failures


def _report_failures(stage: str, failures: list[tuple[str, str]]) -> int:
    ids = ", ".join(qid for qid, _ in failures)
    print(f"{stage} failed for {len(failures)} question(s): {ids}", file=sys.stderr)
    for qid, message in failures:
        print(f"  {qid}: {message}", file=sys.stderr)
    return EXIT_BACKEND


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _samples_path(config: RunConfig, item) -> Path:
    return config.samples_dir / f"{question_file_name(item.id)}.json"


def _load_samples(path: Path, config: RunConfig) -> dict | None:
    """The sample record at ``path`` if it is complete for ``config``, else None."""
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        complete = (
            record["k"] == config.k
            and record["sample_temperature"] == config.sample_temperature
            and record["baseline_temperature"] == config.baseline_temperature
            and len(record["samples"]) == config.k
            and isinstance(record["baseline"], dict)
        )
    except (ValueError, KeyError, TypeError):
        return None
    return record if complete else None


def _sample_to_dict(sample: gateway.AnswerSample) -> dict:
    return {
        "ordinal": sample.ordinal,
        "text": sample.text,
        "temperature": sample.temperature,
        "tokens_in": sample.tokens_in,
        "tokens_out": sample.tokens_out,
        "latency_ms": sample.latency_ms,
        "fingerprint": sample.backend_fingerprint,
    }


def _unreadable_images(items) -> list[str]:
    """The local image files among ``items`` that cannot be opened."""
    refs = {item.image_ref for item in items if item.image_ref}
    unreadable = []
    for ref in sorted(refs):
        if ref.startswith("data:"):
            continue
        try:
            open(ref, "rb").close()
        except OSError:
            unreadable.append(ref)
    return unreadable


def cmd_sample(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    corpus.write_corpus(items, config.corpus_path)
    force = bool(getattr(args, "force", False))
    todo = [
        item
        for item in sorted(items, key=lambda i: i.id)
        if force or _load_samples(_samples_path(config, item), config) is None
    ]
    backend = _build_backend(config)
    temperatures = {
        gateway.ROLE_SAMPLE: config.sample_temperature,
        gateway.ROLE_BASELINE: config.baseline_temperature,
    }

    def job(item: corpus.ImageQuestion) -> _Job:
        def call(slot):
            role, ordinal = slot
            return gateway.draw_answer(backend, item, ordinal, temperatures[role], role)

        def finish(results, errors):
            def drawn(role):
                return {ordinal: s for (r, ordinal), s in results.items() if r == role}

            samples = gateway.collect_samples(item.id, config.k, drawn(gateway.ROLE_SAMPLE))
            [baseline] = gateway.collect_samples(item.id, 1, drawn(gateway.ROLE_BASELINE))
            _write_json(
                _samples_path(config, item),
                {
                    "id": item.id,
                    "k": config.k,
                    "sample_temperature": config.sample_temperature,
                    "baseline_temperature": config.baseline_temperature,
                    "samples": [_sample_to_dict(s) for s in samples],
                    "baseline": _sample_to_dict(baseline),
                },
            )

        slots = [(gateway.ROLE_SAMPLE, ordinal) for ordinal in range(config.k)]
        slots.append((gateway.ROLE_BASELINE, 0))
        return _Job(item.id, {slot: slot for slot in slots}, call, finish)

    try:
        if not config.mock_script:  # the mock backend never reads images
            unreadable = _unreadable_images(todo)
            if unreadable:
                raise _UsageError(
                    f"cannot read {len(unreadable)} image file(s): {', '.join(unreadable)}"
                )
        done, failures = _run_jobs(config.concurrency, map(job, todo))
    finally:
        backend.close()
    if failures:
        return _report_failures("sampling", failures)
    print(
        f"sampled {len(items)} question(s) "
        f"({done} new, {len(items) - len(todo)} already complete) into {config.samples_dir}"
    )
    return EXIT_OK


def _require_samples(config: RunConfig, items) -> dict[str, dict]:
    records = {}
    missing = []
    for item in items:
        record = _load_samples(_samples_path(config, item), config)
        if record is None:
            missing.append(item.id)
        else:
            records[item.id] = record
    if missing:
        raise _IncompleteError(
            f"missing or incomplete samples for {len(missing)} question(s): "
            f"{', '.join(sorted(missing))}; run the sample stage first"
        )
    return records


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _clusters_path(config: RunConfig, item) -> Path:
    return config.clusters_dir / f"{question_file_name(item.id)}.json"


def _load_cluster(path: Path, config: RunConfig) -> dict | None:
    """The audit record at ``path`` if it is complete for ``config``, else None."""
    if not path.exists():
        return None
    try:
        record = clustering.read_audit_record(path)
        complete = record["k"] == config.k and record["policy"] == config.policy
    except (ValueError, KeyError, TypeError):
        return None
    return record if complete else None


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    try:
        sample_records = _require_samples(config, items)
    except _IncompleteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INCOMPLETE
    force = bool(getattr(args, "force", False))
    todo = [
        item
        for item in sorted(items, key=lambda i: i.id)
        if force or _load_cluster(_clusters_path(config, item), config) is None
    ]
    backend = _build_backend(config)

    def job(item: corpus.ImageQuestion) -> _Job:
        texts = [s["text"] for s in sample_records[item.id]["samples"]]

        def call(texts_pair):
            premise, hypothesis = texts_pair
            return gateway.judge_entailment(
                backend, item.question, premise, hypothesis, question_id=item.id
            )

        def finish(results, errors):
            partition, matrix = clustering.reduce_verdicts(len(texts), results, config.policy)
            dse = discrete_semantic_entropy(cluster_distribution(partition.sizes))
            record = clustering.audit_record(item.id, texts, matrix, partition, dse.value)
            config.clusters_dir.mkdir(parents=True, exist_ok=True)
            clustering.write_audit_record(_clusters_path(config, item), record)

        slots = {(i, j): (texts[i], texts[j]) for i, j in clustering.required_checks(len(texts))}
        return _Job(item.id, slots, call, finish)

    try:
        done, failures = _run_jobs(config.concurrency, map(job, todo))
    finally:
        backend.close()
    if failures:
        return _report_failures("clustering", failures)
    print(
        f"clustered {len(items)} question(s) "
        f"({done} new, {len(items) - len(todo)} already complete) into {config.clusters_dir}"
    )
    return EXIT_OK


def _require_clusters(config: RunConfig, items) -> dict[str, dict]:
    records = {}
    missing = []
    for item in items:
        record = _load_cluster(_clusters_path(config, item), config)
        if record is None:
            missing.append(item.id)
        else:
            records[item.id] = record
    if missing:
        raise _IncompleteError(
            f"missing or incomplete clusters for {len(missing)} question(s): "
            f"{', '.join(sorted(missing))}; run the cluster stage first"
        )
    return records


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

def _load_grades(config: RunConfig, items) -> dict[str, dict] | None:
    """Grades by question id if every item has one, else None."""
    if not config.grades_path.exists():
        return None
    grades = {}
    try:
        with open(config.grades_path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    grades[record["question_id"]] = record
    except (ValueError, KeyError):
        return None
    return grades if all(item.id in grades for item in items) else None


def cmd_grade(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    try:
        sample_records = _require_samples(config, items)
    except _IncompleteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INCOMPLETE
    force = bool(getattr(args, "force", False))
    import_file = getattr(args, "import_file", None)
    if not force and import_file is None and _load_grades(config, items) is not None:
        print(f"grades already complete at {config.grades_path}")
        return EXIT_OK

    backend = _build_backend(config) if config.grader == corpus.GRADER_MODEL else None
    by_id: dict[str, corpus.GradedAnswer] = {}

    def job(item: corpus.ImageQuestion) -> _Job:
        def call(answer):
            return corpus.grade(item, answer, config.grader, backend)

        def finish(results, errors):
            if errors:
                raise errors[0]
            by_id[item.id] = results[0]

        answer = sample_records[item.id]["baseline"]["text"]
        return _Job(item.id, {0: answer}, call, finish)

    try:
        _, failures = _run_jobs(config.concurrency, map(job, sorted(items, key=lambda i: i.id)))
    finally:
        if backend is not None:
            backend.close()
    if failures:
        return _report_failures("grading", failures)
    graded = list(by_id.values())

    if import_file:
        overrides = corpus.import_grades(import_file, [item.id for item in items])
        graded = corpus.apply_grade_overrides(graded, overrides)

    config.grades_path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for record in sorted(graded, key=lambda g: g.question_id):
        lines.append(
            json.dumps(
                {
                    "question_id": record.question_id,
                    "answer": record.answer,
                    "reference": record.reference,
                    "correct": record.correct,
                    "grader": record.grader,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    tmp = config.grades_path.with_name(f".grades.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, config.grades_path)
    print(f"graded {len(graded)} question(s) with {config.grader} into {config.grades_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report / curve / cost
# ---------------------------------------------------------------------------

def _collect_results(config: RunConfig, items, cluster_records) -> list[evaluation.QuestionResult]:
    grades = _load_grades(config, items)
    if grades is None:
        raise _IncompleteError(
            "grades are missing or incomplete; run the grade stage "
            "(or import human grades with: grade --import FILE)"
        )
    results = []
    for item in sorted(items, key=lambda i: i.id):
        results.append(
            evaluation.QuestionResult(
                question_id=item.id,
                dataset=item.dataset,
                subgroup=item.subgroup,
                entropy=float(cluster_records[item.id]["dse"]),
                correct=bool(grades[item.id]["correct"]),
                answer=str(grades[item.id]["answer"]),
            )
        )
    return results


def _curve_grid(config: RunConfig) -> list[float]:
    """Descending sweep start..stop inclusive, on one decimal-step lattice."""
    steps = int(round((config.curve_start - config.curve_stop) / config.curve_step))
    grid = [round(config.curve_stop + i * config.curve_step, 10) for i in range(steps, -1, -1)]
    return [g for g in grid if g >= 0]


def _cost_inputs(config: RunConfig, items, sample_records, cluster_records):
    samples = []
    verdicts = []
    for item in items:
        record = sample_records[item.id]
        for s in record["samples"] + [record["baseline"]]:
            samples.append(
                gateway.AnswerSample(
                    question_id=item.id,
                    ordinal=s["ordinal"],
                    text=s["text"],
                    temperature=s["temperature"],
                    tokens_in=s["tokens_in"],
                    tokens_out=s["tokens_out"],
                    latency_ms=s["latency_ms"],
                    backend_fingerprint=s["fingerprint"],
                )
            )
        _, _, matrix, _, _ = clustering.load_audit_record(cluster_records[item.id])
        verdicts.extend(matrix.verdicts.values())
    return samples, verdicts


def _cost_dict(estimate: gateway.CostEstimate, question_count: int) -> dict:
    data = asdict(estimate)
    data["questions"] = question_count
    if question_count:
        data["mean_cost_per_question"] = estimate.total_cost / question_count
    return data


def _threshold_label(threshold: float, k: int) -> str:
    label = f"threshold {threshold:g}"
    if evaluation.no_filtering(threshold, k):
        label += " [no filtering]"
    return label


def _bootstrap_dict(boot: evaluation.BootstrapResult) -> dict:
    return {
        "threshold": boot.outcome.threshold,
        "n_total": boot.outcome.total,
        "n_retained": boot.outcome.retained,
        "baseline_accuracy": boot.outcome.baseline_accuracy,
        "filtered_accuracy": boot.outcome.filtered_accuracy,
        "delta": boot.delta,
        "ci_low": boot.ci_low,
        "ci_high": boot.ci_high,
        "p_value": boot.p_value,
        "alpha": boot.alpha,
        "comparisons": boot.comparisons,
        "significant_after_bonferroni": boot.significant,
        "iterations": boot.iterations,
        "seed": boot.seed,
        "generator": boot.generator,
    }


def cmd_report(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    cluster_records = _require_clusters(config, items)
    results = _collect_results(config, items, cluster_records)
    sample_records = _require_samples(config, items)

    summary_lines = [
        "selective prediction report",
        f"config: {json.dumps(config.to_dict(), sort_keys=True)}",
        f"questions: {len(results)}",
    ]
    boots = []
    for threshold in config.thresholds:
        boot = evaluation.bootstrap_delta(
            results,
            threshold,
            iterations=config.iterations,
            seed=config.seed,
            alpha=config.alpha,
            comparisons=config.comparisons,
        )
        boots.append(boot)
        line = evaluation.format_outcome_line(boot.outcome)
        significance = "significant" if boot.significant else "not significant"
        summary_lines.append(
            f"{_threshold_label(threshold, config.k)}: {line}, "
            f"{100 * (1 - config.alpha):.0f}% CI [{boot.ci_low:+.1f}, {boot.ci_high:+.1f}], "
            f"{evaluation.format_p_value(boot.p_value)}, {significance} "
            f"after Bonferroni ({config.alpha:g}/{config.comparisons})"
        )

    subgroups = evaluation.subgroup_report(results, list(config.thresholds))
    for row in subgroups:
        cells = []
        for cell in row.cells:
            if cell.accuracy is None:
                cells.append(f"{cell.threshold:g}: rejected all")
            else:
                cells.append(f"{cell.threshold:g}: {cell.accuracy:.1f} (n={cell.retained})")
        summary_lines.append(
            f"subgroup {row.dataset}:{row.subgroup}: baseline {row.baseline_accuracy:.1f} "
            f"(n={row.total}); " + "; ".join(cells)
        )

    samples, verdicts = _cost_inputs(config, items, sample_records, cluster_records)
    estimate = gateway.account_usage(samples, verdicts, config.price)
    cost = _cost_dict(estimate, len(items))
    summary_lines.append(
        f"cost: ${estimate.total_cost:.2f} total "
        f"(${cost.get('mean_cost_per_question', 0.0):.2f}/question) at "
        f"${config.price:g}/1M tokens; pipeline latency ~{estimate.pipeline_latency_ms / 1000:.1f}s"
    )

    curve_points = evaluation.coverage_curve(results, _curve_grid(config))

    report = {
        "config": config.to_dict(),
        "questions": len(results),
        "outcomes": [_bootstrap_dict(b) for b in boots],
        "subgroups": [
            {
                "dataset": row.dataset,
                "subgroup": row.subgroup,
                "n_total": row.total,
                "baseline_accuracy": row.baseline_accuracy,
                "thresholds": [
                    {
                        "threshold": cell.threshold,
                        "n_retained": cell.retained,
                        "accuracy": cell.accuracy,
                        "delta": cell.delta,
                    }
                    for cell in row.cells
                ],
            }
            for row in subgroups
        ],
        "cost": cost,
    }

    reports = config.reports_dir
    reports.mkdir(parents=True, exist_ok=True)
    _write_json(reports / "report.json", report)
    _write_json(reports / "cost.json", cost)
    evaluation.write_outcomes_jsonl(results, list(config.thresholds), reports / "outcomes.jsonl")
    evaluation.write_curve_csv(curve_points, reports / "curve.csv")
    for threshold in config.thresholds:
        edges = evaluation.sankey_export(results, threshold)
        evaluation.write_sankey_csv(edges, reports / f"sankey-{threshold:g}.csv")
    summary = "\n".join(summary_lines) + "\n"
    (reports / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    results = _collect_results(config, items, _require_clusters(config, items))
    points = evaluation.coverage_curve(results, _curve_grid(config))
    config.reports_dir.mkdir(parents=True, exist_ok=True)
    path = config.reports_dir / "curve.csv"
    evaluation.write_curve_csv(points, path)
    print(f"wrote {len(points)} curve point(s) to {path}")
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    try:
        sample_records = _require_samples(config, items)
        cluster_records = _require_clusters(config, items)
    except _IncompleteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INCOMPLETE
    samples, verdicts = _cost_inputs(config, items, sample_records, cluster_records)
    estimate = gateway.account_usage(samples, verdicts, config.price)
    cost = _cost_dict(estimate, len(items))
    config.reports_dir.mkdir(parents=True, exist_ok=True)
    _write_json(config.reports_dir / "cost.json", cost)
    print(
        f"total ${estimate.total_cost:.2f} "
        f"(sampling ${estimate.sampling_cost:.2f} + entailment ${estimate.entailment_cost:.2f}) "
        f"for {len(items)} question(s) at ${config.price:g}/1M tokens"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argparse maps its own usage failures to exit code 2; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--corpus", default=None, help="corpus file or directory")
    parser.add_argument(
        "--adapter", default=None, choices=sorted(ADAPTERS), help="corpus input format"
    )
    parser.add_argument("--mock-script", dest="mock_script", default=None,
                        help="JSON script for the offline mock backend")
    parser.add_argument("--endpoint", dest="endpoint_url", default=None,
                        help="chat-completions endpoint URL")
    parser.add_argument("--model", default=None, help="model name sent to the endpoint")
    parser.add_argument("--api-key-env", dest="api_key_env", default=None,
                        help="environment variable holding the API key")
    parser.add_argument("--cache", dest="use_cache", action=argparse.BooleanOptionalAction,
                        default=None, help="record/replay cache for model calls (default on)")
    parser.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="cache location (default: <out>/cache)")
    parser.add_argument("--call-log", dest="call_log", action=argparse.BooleanOptionalAction,
                        default=None, help="append per-call records to <out>/calls.jsonl")
    parser.add_argument("--k", type=int, default=None, help="samples per question (default 15)")
    parser.add_argument("--sample-temperature", dest="sample_temperature", type=float,
                        default=None, help="sampling temperature (default 1.0)")
    parser.add_argument("--baseline-temperature", dest="baseline_temperature", type=float,
                        default=None, help="served-answer temperature (default 0.1)")
    parser.add_argument("--thresholds", type=float, nargs="+", default=None,
                        help="entropy acceptance thresholds (default 0.6 0.3)")
    parser.add_argument("--policy", default=None,
                        choices=[clustering.POLICY_COMPONENTS, clustering.POLICY_GREEDY],
                        help="cluster assembly policy")
    parser.add_argument("--grader", default=None, choices=list(corpus.GRADERS),
                        help="answer grading rule")
    parser.add_argument("--iterations", type=int, default=None,
                        help="bootstrap iterations (default 100000)")
    parser.add_argument("--seed", type=int, default=None, help="bootstrap seed (default 0)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="significance level (default 0.05)")
    parser.add_argument("--comparisons", type=int, default=None,
                        help="Bonferroni comparison count (default 12)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="model calls in flight across questions (default 4)")
    parser.add_argument("--price", type=float, default=None,
                        help="dollars per million tokens (default 10.0)")
    parser.add_argument("--curve-start", dest="curve_start", type=float, default=None,
                        help="curve sweep start threshold (default 1.2)")
    parser.add_argument("--curve-stop", dest="curve_stop", type=float, default=None,
                        help="curve sweep final threshold (default 0.0)")
    parser.add_argument("--curve-step", dest="curve_step", type=float, default=None,
                        help="curve sweep step (default 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entropygate",
        description=(
            "Detect likely hallucinations from a black-box vision-language model "
            "by sampling repeated answers, clustering them by mutual entailment, "
            "and gating on the entropy of the cluster distribution."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("sample", cmd_sample, "draw k sampled answers plus the served baseline answer"),
        ("cluster", cmd_cluster, "judge pairwise entailment and compute per-question entropy"),
        ("grade", cmd_grade, "grade baseline answers against references"),
        ("report", cmd_report, "evaluate filtering: accuracy, bootstrap, subgroups, cost"),
        ("curve", cmd_curve, "export the accuracy/coverage trade-off sweep"),
        ("cost", cmd_cost, "recompute the token cost and latency estimate"),
    ]
    for name, func, help_text in specs:
        sub = commands.add_parser(name, help=help_text)
        _add_common(sub)
        if name in ("sample", "cluster", "grade"):
            sub.add_argument("--force", action="store_true",
                            help="recompute even where outputs already exist")
        if name == "grade":
            sub.add_argument("--import", dest="import_file", default=None,
                            help="two-column file of human grade overrides")
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IncompleteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INCOMPLETE
    except (CorpusFormatError, UnknownQuestionIdsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EmptyRetainedSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (BackendError, SamplingIncompleteError, JudgingError, GradingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except EntropyGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
