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
a completed stage performs no model calls.  A record is reused only if
every input it stores is the current one; else it is stale and redone:
a cluster record made from other sample texts, and a grade of another
baseline answer or by another grader (an imported grade stays current);
``report``, ``curve`` and ``cost`` read the run the same way and exit 2
naming the questions whose records are missing or stale.
The sample, cluster and grade stages work per question: they run every
model call of the questions with no current record (all of them under
``--force``) on one bounded pool (``--concurrency`` calls in flight).
``sample`` and ``cluster`` write each question's record as soon as its
calls are done, so interrupting a stage keeps every finished question;
behind the record/replay cache, the calls of unfinished ones that
completed are not paid for again.  ``grade`` writes ``grades.jsonl`` when
it ends, finished or interrupted.  An ``--import`` line is its question's
grade, with no call, until the question is regraded (by ``--force``
without that line, or for a new baseline answer).  Exit codes: 0 success,
else the ``exit_code`` of the error that stopped the stage (``errors.EXIT_*``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

from . import clustering, corpus, evaluation, gateway, scheduler
from .entropy import cluster_distribution, discrete_semantic_entropy
from .errors import (  # the EXIT_* names are the CLI's public exit statuses
    EXIT_BACKEND,
    EXIT_INCOMPLETE,
    EXIT_USAGE,
    EntropyGateError,
    IncompleteRecordsError,
    UsageError,
    read_record,
    write_record,
    write_text_atomic,
)

log = logging.getLogger(__name__)

EXIT_OK = 0

ADAPTERS = {
    "canonical": corpus.load_corpus,
    "vqa-med": corpus.load_vqa_med,
    "rad-dataset": corpus.load_rad_dataset,
}

# The `curve` sweep: 1.2 (above log10(15), so nothing is rejected), 1.1, ..., 0.0.
CURVE_THRESHOLDS = tuple(i / 10 for i in range(12, -1, -1))

# Field defaults captured up front: the RunConfig body defines a field
# named ``corpus`` which shadows the module inside the class namespace.
_DEFAULT_POLICY = clustering.POLICY_COMPONENTS
_DEFAULT_GRADER = corpus.GRADER_EXACT


def _finite_nonnegative(*values: float) -> bool:
    return all(math.isfinite(value) and value >= 0 for value in values)


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

    def __post_init__(self):
        if self.adapter not in ADAPTERS:
            raise ValueError(f"unknown adapter {self.adapter!r}")
        if self.k < 1:
            raise ValueError("invalid sample count")
        if not _finite_nonnegative(self.sample_temperature, self.baseline_temperature):
            raise ValueError("temperatures must be finite and >= 0")
        if not self.thresholds or not _finite_nonnegative(*self.thresholds):
            raise ValueError("invalid threshold")
        if self.policy not in clustering.POLICIES:
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
        if not _finite_nonnegative(self.price):
            raise ValueError("price must be finite and >= 0")

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

    # Cached: a stage joins one record path per question onto these.
    @functools.cached_property
    def samples_dir(self) -> str:
        return str(self.out_dir / "samples")

    @functools.cached_property
    def clusters_dir(self) -> str:
        return str(self.out_dir / "clusters")

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
            raise UsageError(f"unreadable config {config_path}: {exc}")
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
        raise UsageError(str(exc))
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
    write_text_atomic(path, json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n")


def _read_input(what: str, path: str, read: Callable):
    """``read(path)`` for a file named on the command line; an unreadable or
    malformed file is a usage error naming it."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")


def _load_items(config: RunConfig) -> list[corpus.ImageQuestion]:
    """Corpus precedence: explicit --corpus, else the canonical copy."""
    if config.corpus:
        items = _read_input("corpus", config.corpus, ADAPTERS[config.adapter])
        if not items:
            raise UsageError(f"corpus {config.corpus} is empty")
        return items
    if config.corpus_path.exists():
        items = corpus.load_corpus(config.corpus_path)
        if not items:
            raise UsageError(f"corpus {config.corpus_path} is empty")
        return items
    raise UsageError("no corpus: pass --corpus (with --adapter) or run the sample stage first")


def _build_backend(config: RunConfig) -> gateway.Backend:
    if config.mock_script:
        backend: gateway.Backend = _read_input(
            "mock script", config.mock_script, gateway.MockBackend.from_script
        )
    elif config.endpoint_url and config.model:
        if config.api_key_env and config.api_key_env not in os.environ:
            raise UsageError(f"API key environment variable {config.api_key_env!r} is not set")
        backend = gateway.HttpBackend(
            gateway.BackendConfig(
                endpoint_url=config.endpoint_url,
                model_name=config.model,
                api_key_env=config.api_key_env,
            ),
            max_connections=config.concurrency,
        )
    else:
        raise UsageError("no backend configured: pass --mock-script, or --endpoint plus --model")
    if config.use_cache:
        backend = gateway.CachingBackend(backend, config.resolved_cache_dir())
    return backend


def _current(record: dict, **inputs) -> bool:
    """Whether ``record`` was made from the current inputs: each named field
    it stores equals the given value, or is a member of a given set."""
    return all(
        record[name] in value if isinstance(value, set) else record[name] == value
        for name, value in inputs.items()
    )


def _todo(args: argparse.Namespace, items, load: Callable) -> list:
    """The items a stage (re)does, by id: all under ``--force``, else those
    ``load(item)`` finds no current record for."""
    return [item for item in sorted(items, key=lambda i: i.id) if args.force or load(item) is None]


# stage: (what fails, what the summary says it did, the RunConfig path written)
_STAGES = {
    "sample": ("sampling", "sampled", "samples_dir"),
    "cluster": ("clustering", "clustered", "clusters_dir"),
    "grade": ("grading", "graded", "grades_path"),
}


def _run_stage(config: RunConfig, stage: str, items, todo, job: Callable, backend) -> int:
    """Run ``job(item)`` for every item of ``todo`` on one pool of
    ``--concurrency`` calls and close ``backend``; then exit 3 naming the
    questions that failed, or print one summary line with the cache's counts."""
    failed, verb, where = _STAGES[stage]
    try:
        done, failures = scheduler.run_jobs(config.concurrency, map(job, todo))
    finally:
        if backend is not None:
            backend.close()
    if failures:
        ids = ", ".join(qid for qid, _ in failures)
        print(f"{failed} failed for {len(failures)} question(s): {ids}", file=sys.stderr)
        for qid, exc in failures:
            print(f"  {qid}: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    calls = ""
    if isinstance(backend, gateway.CachingBackend):
        calls = f"; {backend.misses} model call(s) sent, {backend.hits} replayed from the cache"
    print(
        f"{verb} {len(items)} question(s) ({done} new, "
        f"{len(items) - len(todo)} already complete) into {getattr(config, where)}{calls}"
    )
    return EXIT_OK


def _require(items, load: Callable, stage: str) -> dict[str, dict]:
    """Each item's ``load(item)`` record by id; ``IncompleteRecordsError`` naming
    the items it returns None for."""
    records = {item.id: load(item) for item in items}
    missing = sorted(qid for qid, record in records.items() if record is None)
    if missing:
        raise IncompleteRecordsError(
            f"missing, incomplete or stale {stage}s for {len(missing)} question(s): "
            f"{', '.join(missing)}; run the {stage} stage first"
        )
    return records


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _samples_path(config: RunConfig, item) -> str:
    return f"{config.samples_dir}/{question_file_name(item.id)}.json"


def _load_samples(config: RunConfig, item) -> dict | None:
    """The item's sample record if it is complete for ``config``, else None."""
    try:
        record = read_record(_samples_path(config, item))
        complete = (
            _current(
                record,
                k=config.k,
                sample_temperature=config.sample_temperature,
                baseline_temperature=config.baseline_temperature,
            )
            and len(record["samples"]) == config.k
            and isinstance(record["baseline"], dict)
        )
    except (OSError, ValueError, KeyError, TypeError):
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


def _check_images(todo) -> None:
    """Usage error naming every local image file among ``todo`` that cannot
    be opened."""
    unreadable = []
    for ref in sorted({item.image_ref for item in todo if item.image_ref}):
        if ref.startswith("data:"):
            continue
        try:
            open(ref, "rb").close()
        except OSError:
            unreadable.append(ref)
    if unreadable:
        raise UsageError(f"cannot read {len(unreadable)} image file(s): {', '.join(unreadable)}")


def cmd_sample(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    corpus.write_corpus(items, config.corpus_path)
    todo = _todo(args, items, functools.partial(_load_samples, config))
    if not config.mock_script:  # the mock backend never reads images
        _check_images(todo)
    backend = _build_backend(config)
    draws = {
        gateway.ROLE_SAMPLE: (config.k, config.sample_temperature),
        gateway.ROLE_BASELINE: (1, config.baseline_temperature),
    }

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        def done(drawn):
            [baseline] = drawn[gateway.ROLE_BASELINE]
            write_record(
                _samples_path(config, item),
                {
                    "id": item.id,
                    "k": config.k,
                    "sample_temperature": config.sample_temperature,
                    "baseline_temperature": config.baseline_temperature,
                    "samples": [_sample_to_dict(s) for s in drawn[gateway.ROLE_SAMPLE]],
                    "baseline": _sample_to_dict(baseline),
                },
            )

        return gateway.sampling_job(backend, item, draws, done)

    return _run_stage(config, "sample", items, todo, job, backend)


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _clusters_path(config: RunConfig, item) -> str:
    return f"{config.clusters_dir}/{question_file_name(item.id)}.json"


def _texts(sample_record: dict) -> list[str]:
    return [s["text"] for s in sample_record["samples"]]


def _load_cluster(config: RunConfig, sample_records, item) -> dict | None:
    """The item's audit record if it is complete for ``config`` and was
    computed from the item's current sample texts, else None."""
    texts = _texts(sample_records[item.id])
    try:
        record = clustering.read_audit_record(_clusters_path(config, item))
        complete = _current(record, k=config.k, policy=config.policy, samples=texts)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return record if complete else None


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    sample_records = _require(items, functools.partial(_load_samples, config), "sample")
    todo = _todo(args, items, functools.partial(_load_cluster, config, sample_records))
    backend = _build_backend(config)

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        texts = _texts(sample_records[item.id])

        def done(partition, matrix):
            dse = discrete_semantic_entropy(cluster_distribution(partition.sizes))
            record = clustering.audit_record(item.id, texts, matrix, partition, dse.value)
            clustering.write_audit_record(_clusters_path(config, item), record)

        judge = gateway.entailment_judge(backend, question_id=item.id)
        return clustering.judging_job(item.id, texts, judge, item.question, config.policy, done)

    return _run_stage(config, "cluster", items, todo, job, backend)


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

def _load_grades(config: RunConfig, sample_records) -> dict[str, dict]:
    """The current grades on disk by question id: made by the configured
    grader or imported, and of the question's current baseline answer."""
    graders = {config.grader, corpus.GRADER_IMPORTED}
    try:
        with open(config.grades_path, encoding="utf-8") as handle:
            grades = {
                record["question_id"]: record
                for record in map(json.loads, filter(str.strip, handle))
            }
        return {
            qid: record
            for qid, record in grades.items()
            if qid in sample_records
            and _current(record, grader=graders, answer=sample_records[qid]["baseline"]["text"])
        }
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def cmd_grade(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    sample_records = _require(items, functools.partial(_load_samples, config), "sample")
    imported = {}
    if args.import_file:  # read before any grading call, so a bad file costs nothing
        read = functools.partial(corpus.import_grades, known_ids=[item.id for item in items])
        imported = _read_input("grade file", args.import_file, read)
    grades = _load_grades(config, sample_records)
    for item in items:
        if item.id in imported:  # a grade of the current baseline answer
            answer = sample_records[item.id]["baseline"]["text"]
            grade = corpus.GradedAnswer(
                item.id, answer, item.reference, imported[item.id], corpus.GRADER_IMPORTED
            )
            grades[item.id] = asdict(grade)
    todo = _todo(args, items, lambda item: grades.get(item.id))
    todo = [item for item in todo if item.id not in imported]
    backend = _build_backend(config) if config.grader == corpus.GRADER_MODEL else None

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        def call(answer):
            return corpus.grade(item, answer, config.grader, backend)

        def finish(results, errors):
            if errors:
                raise errors[0]
            grades[item.id] = asdict(results[0])

        answer = sample_records[item.id]["baseline"]["text"]
        return scheduler.Job(item.id, {0: answer}, call, finish)

    try:
        return _run_stage(config, "grade", items, todo, job, backend)
    finally:  # also on Ctrl-C, so every finished grade is kept
        lines = [json.dumps(grades[q], ensure_ascii=False, sort_keys=True) for q in sorted(grades)]
        write_text_atomic(config.grades_path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# report / curve / cost
# ---------------------------------------------------------------------------

def _judged_run(config: RunConfig):
    """The items of a finished run with their current sample and cluster
    records by id; ``IncompleteRecordsError`` naming the ids whose records
    are missing, incomplete or stale."""
    items = _load_items(config)
    sample_records = _require(items, functools.partial(_load_samples, config), "sample")
    load = functools.partial(_load_cluster, config, sample_records)
    return items, sample_records, _require(items, load, "cluster")


def _collect_results(
    config: RunConfig, items, sample_records, cluster_records
) -> list[evaluation.QuestionResult]:
    on_disk = _load_grades(config, sample_records)
    grades = _require(items, lambda item: on_disk.get(item.id), "grade")
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


def _cost_inputs(items, sample_records, cluster_records):
    """The recorded answer draws, and one verdict per judge call."""
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
        verdicts.extend(clustering.judge_calls(cluster_records[item.id]))
    return samples, verdicts


def _write_cost(config: RunConfig, items, sample_records, cluster_records) -> dict:
    """Account the recorded usage into reports/cost.json and return it."""
    samples, verdicts = _cost_inputs(items, sample_records, cluster_records)
    cost = asdict(gateway.account_usage(samples, verdicts, config.price))
    cost["questions"] = len(items)
    cost["mean_cost_per_question"] = cost["total_cost"] / len(items)
    _write_json(config.reports_dir / "cost.json", cost)
    return cost


def _write_curve(config: RunConfig, results) -> int:
    """Write the threshold sweep to reports/curve.csv; returns its point count."""
    points = evaluation.coverage_curve(results, CURVE_THRESHOLDS)
    evaluation.write_curve_csv(points, config.reports_dir / "curve.csv")
    return len(points)


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
    items, sample_records, cluster_records = _judged_run(config)
    results = _collect_results(config, items, sample_records, cluster_records)

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

    cost = _write_cost(config, items, sample_records, cluster_records)
    summary_lines.append(
        f"cost: ${cost['total_cost']:.2f} total "
        f"(${cost['mean_cost_per_question']:.2f}/question) at "
        f"${config.price:g}/1M tokens; pipeline latency ~{cost['pipeline_latency_ms'] / 1000:.1f}s"
    )

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
    _write_json(reports / "report.json", report)
    evaluation.write_outcomes_jsonl(results, list(config.thresholds), reports / "outcomes.jsonl")
    _write_curve(config, results)
    for threshold in config.thresholds:
        edges = evaluation.sankey_export(results, threshold)
        evaluation.write_sankey_csv(edges, reports / f"sankey-{threshold:g}.csv")
    summary = "\n".join(summary_lines) + "\n"
    write_text_atomic(reports / "summary.txt", summary)
    print(summary, end="")
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    count = _write_curve(config, _collect_results(config, *_judged_run(config)))
    print(f"wrote {count} curve point(s) to {config.reports_dir / 'curve.csv'}")
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    cost = _write_cost(config, *_judged_run(config))
    print(
        f"total ${cost['total_cost']:.2f} "
        f"(sampling ${cost['sampling_cost']:.2f} + entailment ${cost['entailment_cost']:.2f}) "
        f"for {cost['questions']} question(s) at ${config.price:g}/1M tokens"
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
    parser.add_argument("--k", type=int, default=None, help="samples per question (default 15)")
    parser.add_argument("--sample-temperature", dest="sample_temperature", type=float,
                        default=None, help="sampling temperature (default 1.0)")
    parser.add_argument("--baseline-temperature", dest="baseline_temperature", type=float,
                        default=None, help="served-answer temperature (default 0.1)")
    parser.add_argument("--thresholds", type=float, nargs="+", default=None,
                        help="entropy acceptance thresholds (default 0.6 0.3)")
    parser.add_argument("--policy", default=None, choices=clustering.POLICIES,
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
    common = argparse.ArgumentParser(add_help=False)  # built once, a parent of each subcommand
    _add_common(common)

    specs = [
        ("sample", cmd_sample, "draw k sampled answers plus the served baseline answer"),
        ("cluster", cmd_cluster, "judge pairwise entailment and compute per-question entropy"),
        ("grade", cmd_grade, "grade baseline answers against references"),
        ("report", cmd_report, "evaluate filtering: accuracy, bootstrap, subgroups, cost"),
        ("curve", cmd_curve, "export the accuracy/coverage trade-off sweep"),
        ("cost", cmd_cost, "recompute the token cost and latency estimate"),
    ]
    for name, func, help_text in specs:
        sub = commands.add_parser(name, help=help_text, parents=[common])
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
    except EntropyGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
