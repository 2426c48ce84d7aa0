"""Command-line pipeline: sample, cluster, grade, report, curve, cost.

Stages persist everything under one output directory::

    out/
      config.json     resolved settings, merged across invocations
      corpus.jsonl    the questions, copied by sample; later stages read it
      cache/          record/replay store, replies.sqlite: a row per model
                      call, keyed by the request and its image's bytes
      samples.jsonl   a header line (backend, k, temperatures), then each
                      question's sampled + baseline answers, one line each
      clusters/       per-question entailment audit records with entropy
      grades/         grades.jsonl, one verdict per question
      reports/        report.json, summary.txt, outcomes.jsonl,
                      curve.csv, sankey-<t>.csv, cost.json

Only ``sample`` reads ``--corpus`` (through ``--adapter``); later stages
read the run's ``corpus.jsonl``, so a run continues from any directory.
The record/replay cache is the one resume mechanism.  Every run of the
sample, cluster and grade stages rebuilds every question's record from
its model calls on one bounded pool (``--concurrency`` calls in flight);
the cache replays each call it holds, and a file is rewritten only when
its bytes change.  So rerunning a finished stage sends no call and
rewrites nothing, and a record made from other inputs (edited, torn, or
in an older layout) does not outlive a run of its stage.  ``cluster``
writes each question's record as soon as its calls are done; ``sample``
and ``grade`` write the lines that run built when they end, also on
failure or Ctrl-C.
An ``--import`` line is an input: its question's grade, with no call,
for as long as its answer is the current baseline answer (remove the
line to regrade).  Every ``.jsonl`` file is written by
``errors.write_jsonl``, and a line of ``samples.jsonl`` or
``grades.jsonl`` that does not parse is missing for its own question
only.  Later stages exit 2 naming ``sample`` if the header
of ``samples.jsonl`` holds other settings or another backend than the
config gives, and ``report``, ``curve`` and ``cost`` exit 2 naming the
questions whose records are missing or stale: a cluster record in an
older layout or made from other sample texts, a grade of another
baseline answer, grader or (``model-judge``) backend, or a record
holding a value later stages cannot compute with (an entropy, token
count, latency or flag of the wrong type or range).
Exit codes: 0 success, else the ``exit_code`` of the error that stopped
the stage (``errors.EXIT_*``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import operator
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
    read_bytes,
    read_jsonl,
    write_jsonl,
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
    api_key_env: str = gateway.BackendConfig.api_key_env
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

    @property
    def samples_path(self) -> Path:
        return self.out_dir / "samples.jsonl"

    # Cached: a stage joins one record path per question onto it.
    @functools.cached_property
    def clusters_dir(self) -> str:
        return str(self.out_dir / "clusters")

    @property
    def grades_path(self) -> Path:
        return self.out_dir / "grades" / "grades.jsonl"

    @property
    def reports_dir(self) -> Path:
        return self.out_dir / "reports"

    def path(self, stored: str) -> str:
        """A stored ``corpus``, ``mock_script`` or ``cache_dir``, read from ``out``."""
        return os.path.normpath(os.path.join(self.out, stored))

    def resolved_cache_dir(self) -> Path:
        return Path(self.path(self.cache_dir)) if self.cache_dir else self.out_dir / "cache"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["thresholds"] = list(self.thresholds)
        return data


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, the stored config.json, and explicit flags.

    Precedence: flag given on this invocation > value stored under the
    output directory by an earlier stage > built-in default.  The merged
    result is persisted back, keeping settings consistent across stages,
    with a relative ``--corpus``, ``--mock-script`` or ``--cache-dir`` made
    relative to ``out``.
    A merged config that names both a mock script and an endpoint, or an
    endpoint with the cache off (a rerun could not resume, and would pay
    for every call again), is a usage error and is not persisted.
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

    def origin(name: str, flag: str) -> str:
        return flag if getattr(args, name, None) is not None else f"stored in {config_path}"

    if values.get("mock_script") and values.get("endpoint_url"):
        raise UsageError(
            f"both a mock script ({values['mock_script']}, "
            f"{origin('mock_script', 'from --mock-script')}) and an endpoint "
            f"({values['endpoint_url']}, {origin('endpoint_url', 'from --endpoint')}) are set; "
            "pass --mock-script '' or --endpoint '' to clear one"
        )
    if values.get("endpoint_url") and values.get("use_cache") is False:
        raise UsageError(
            f"the cache is off ({origin('use_cache', 'from --no-cache')}) for an endpoint "
            f"({values['endpoint_url']}); an endpoint run resumes only through the cache: "
            "pass --cache"
        )
    for name in ("corpus", "mock_script", "cache_dir"):
        given = getattr(args, name, None)
        if given and not os.path.isabs(given):
            values[name] = os.path.relpath(given, out)
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


def _read_corpus(path: str | Path, read: Callable) -> list[corpus.ImageQuestion]:
    """``read(path)``; a usage error naming an unreadable or empty corpus."""
    items = _read_input("corpus", path, read)
    if not items:
        raise UsageError(f"corpus {path} is empty")
    return items


def _load_items(config: RunConfig) -> list[corpus.ImageQuestion]:
    """The questions ``sample`` copied to ``<out>/corpus.jsonl``, which every
    later stage reads; ``IncompleteRecordsError`` if there is no copy."""
    if not config.corpus_path.exists():
        raise IncompleteRecordsError(f"no corpus {config.corpus_path}; run the sample stage first")
    return _read_corpus(config.corpus_path, corpus.load_corpus)


_NO_BACKEND = "no backend configured: pass --mock-script, or --endpoint plus --model"


def _build_backend(config: RunConfig) -> gateway.Backend:
    if config.mock_script:
        backend: gateway.Backend = _read_input(
            "mock script", config.path(config.mock_script), gateway.MockBackend.from_script
        )
    elif config.endpoint_url and config.model:
        backend = gateway.HttpBackend(
            gateway.BackendConfig(
                endpoint_url=config.endpoint_url,
                model_name=config.model,
                api_key_env=config.api_key_env,
            ),
        )
    else:
        raise UsageError(_NO_BACKEND)
    if config.use_cache:
        backend = gateway.CachingBackend(backend, config.resolved_cache_dir())
    return backend


def _backend_name(config: RunConfig) -> str:
    """The configured backend's ``model_name`` (``gateway.backend_name``),
    without building the backend, so a stage that makes no call needs no
    API key."""
    if config.mock_script:
        script = _read_input("mock script", config.path(config.mock_script), read_bytes)
        return gateway.backend_name(script=script)
    if config.endpoint_url and config.model:
        return gateway.backend_name(model=config.model)
    raise UsageError(_NO_BACKEND)


def _rows(rows, width: int) -> bool:
    """Whether each of ``rows`` is a positional row of ``width`` fields, as
    records store them; a record in an older layout holds objects."""
    return set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}


def _by_id(items) -> list:
    return sorted(items, key=lambda item: item.id)


def _run_stage(
    args: argparse.Namespace, config: RunConfig, failed: str, jobs, backend,
    summary: Callable[[], str],
) -> int:
    """Run ``jobs`` on one pool of ``--concurrency`` calls and close
    ``backend``; then exit 3 naming the questions whose ``failed`` (say,
    "sampling") failed, or print ``summary()`` with the cache's counts, or
    a note that ``config.json`` keeps the cache off, and any HTTP retries."""
    try:
        failures = scheduler.run_jobs(config.concurrency, jobs)
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
    elif backend is not None and args.use_cache is None:  # off by a stored --no-cache
        calls = "; cache off, as config.json keeps from an earlier --no-cache (--cache turns it on)"
    http = getattr(backend, "inner", backend)
    if isinstance(http, gateway.HttpBackend) and http.retries:
        retries = "retry" if http.retries == 1 else "retries"
        calls += f"; {http.retries} HTTP {retries}, {http.backoff_s:.1f} s of backoff"
    print(summary() + calls)
    return EXIT_OK


def _require(records: dict[str, dict | None], stage: str) -> dict[str, dict]:
    """``records`` by id; ``IncompleteRecordsError`` naming the ids whose
    record is None."""
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

# The fields of one row of a sample line's ``samples``, and of its
# ``baseline``: the answer's, in this order.  The row's index is the
# ordinal, and its temperature the header's ``sample_temperature`` or
# ``baseline_temperature``.
SAMPLE_FIELDS = ("text", "tokens_in", "tokens_out", "latency_ms", "backend_fingerprint",
                 "estimated_tokens")
_sample_row = operator.attrgetter(*SAMPLE_FIELDS)
_TEXT = SAMPLE_FIELDS.index("text")

# A stored row's ``gateway.USAGE_FIELDS``, read by position.
_sample_usage = operator.itemgetter(*map(SAMPLE_FIELDS.index, gateway.USAGE_FIELDS))
_call_usage = operator.itemgetter(*map(clustering.CALL_FIELDS.index, gateway.USAGE_FIELDS))
_COUNT = (int, type(None))


def _usable(usages) -> bool:
    """Whether each ``gateway.USAGE_FIELDS`` tuple holds what ``cost`` adds
    up: token counts that are ints or null, a number for the latency and a
    bool for the estimated flag."""
    return all(
        isinstance(tokens_in, _COUNT) and isinstance(tokens_out, _COUNT)
        and isinstance(latency_ms, (int, float)) and isinstance(estimated, bool)
        for tokens_in, tokens_out, latency_ms, estimated in usages
    )


def _samples_header(config: RunConfig) -> dict:
    """The first line of ``samples.jsonl``: what its answers were drawn with."""
    return {
        "backend": _backend_name(config),
        "baseline_temperature": config.baseline_temperature,
        "k": config.k,
        "sample_temperature": config.sample_temperature,
    }


def _sample_records(config: RunConfig, items) -> dict[str, dict]:
    """The line of ``samples.jsonl`` for each of ``items``, by id.
    ``IncompleteRecordsError`` if there is no such file, naming each setting
    its header holds other than ``_samples_header(config)``, or naming the
    ids whose line is missing, malformed or holds a value ``cost`` cannot
    add up."""
    path = config.samples_path
    try:
        header, *lines = read_jsonl(path)
        changed = [f"{name} {header.get(name)!r} where the config gives {value!r}"
                   for name, value in _samples_header(config).items() if header.get(name) != value]
    except (OSError, ValueError, AttributeError):
        raise IncompleteRecordsError(f"no samples {path}; run the sample stage first")
    if changed:
        raise IncompleteRecordsError(
            f"{path} was sampled with {', '.join(changed)}; run the sample stage first"
        )
    records = dict.fromkeys(item.id for item in items)
    for record in lines:
        try:
            rows = [*record["samples"], record["baseline"]]
            if (record["id"] in records and len(rows) == config.k + 1
                    and _usable(map(_sample_usage, rows))):
                records[record["id"]] = record
        except (LookupError, TypeError):
            continue
    return _require(records, "sample")


def _baseline_text(sample_record: dict) -> str:
    return sample_record["baseline"][_TEXT]


def _check_images(items) -> None:
    """Usage error naming every local image file among ``items`` that cannot
    be opened."""
    unreadable = []
    for ref in sorted({item.image_ref for item in items if item.image_ref}):
        if ref.startswith(gateway.IMAGE_URLS):
            continue
        try:
            open(ref, "rb").close()
        except OSError:
            unreadable.append(ref)
    if unreadable:
        raise UsageError(f"cannot read {len(unreadable)} image file(s): {', '.join(unreadable)}")


def cmd_sample(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if not config.corpus:
        raise UsageError("no corpus: pass --corpus (with --adapter)")
    items = _read_corpus(config.path(config.corpus), ADAPTERS[config.adapter])
    corpus.write_corpus(items, config.corpus_path)
    if not config.mock_script:  # the mock backend never reads images
        _check_images(items)
    backend = _build_backend(config)
    draws = {
        gateway.ROLE_SAMPLE: (config.k, config.sample_temperature),
        gateway.ROLE_BASELINE: (1, config.baseline_temperature),
    }
    lines = {}  # by id, for the questions sampled in this run

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        def done(drawn):
            [baseline] = drawn[gateway.ROLE_BASELINE]
            samples = list(map(_sample_row, drawn[gateway.ROLE_SAMPLE]))
            lines[item.id] = {"baseline": _sample_row(baseline), "id": item.id, "samples": samples}

        return gateway.sampling_job(backend, item, draws, done)

    header = _samples_header(config)
    summary = f"sampled {len(items)} question(s) into {config.samples_path}"
    try:
        return _run_stage(args, config, "sampling", map(job, _by_id(items)), backend,
                          lambda: summary)
    finally:  # also on failure or Ctrl-C, so no line outlives a run that did not rebuild it
        write_jsonl(config.samples_path, [header, *(lines[qid] for qid in sorted(lines))])


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def _clusters_path(config: RunConfig, question_id: str) -> str:
    return f"{config.clusters_dir}/{question_file_name(question_id)}.json"


def _texts(sample_record: dict) -> list[str]:
    return [row[_TEXT] for row in sample_record["samples"]]


def _load_cluster(config: RunConfig, texts: list[str], question_id: str) -> dict | None:
    """The question's audit record if it is complete for ``config``, was
    computed from the sample ``texts`` and holds values later stages can
    use (a finite entropy >= 0, usage ``cost`` can add up), else None.  A
    record in an older layout, with a ``verdicts`` row per index pair or
    with ``calls`` rows as objects, is stale: ``cluster`` rebuilds it,
    through the cache with no call."""
    try:
        record = clustering.read_audit_record(_clusters_path(config, question_id))
        calls = record["calls"]
        current = (
            record["k"] == config.k and record["policy"] == config.policy
            and record["samples"] == texts and _finite_nonnegative(record["dse"])
            and _rows(calls, len(clustering.CALL_FIELDS)) and _usable(map(_call_usage, calls))
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return record if current else None


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    sample_records = _sample_records(config, items)
    backend = _build_backend(config)
    unparseable = 0  # verdicts whose reply did not parse: recorded as does-not-entail

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        texts = _texts(sample_records[item.id])

        def done(partition, calls):
            nonlocal unparseable
            dse = discrete_semantic_entropy(cluster_distribution(partition.sizes))
            record = clustering.audit_record(item.id, texts, calls, partition, dse.value)
            clustering.write_audit_record(_clusters_path(config, item.id), record)
            unparseable += sum(
                gateway.parse_entailment_reply(call.raw_judge_output) is None for call in calls
            )

        judge = gateway.entailment_judge(backend, question_id=item.id)
        return clustering.judging_job(item.id, texts, judge, item.question, config.policy, done)

    def summary() -> str:
        line = f"clustered {len(items)} question(s) into {config.clusters_dir}"
        if unparseable:
            line += f"; {unparseable} judge repl(ies) unparseable, recorded as does-not-entail"
        return line

    return _run_stage(args, config, "clustering", map(job, _by_id(items)), backend, summary)


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------

def _load_grades(config: RunConfig, sample_records) -> dict[str, dict]:
    """The current grades on disk by question id: a bool verdict on the
    question's current baseline answer, imported or made by the configured
    grader, with a ``model-judge`` grade's ``backend`` the configured
    backend's name.  A line that does not parse or is not current is
    skipped alone; an unreadable file holds no grades."""
    graders = {config.grader, corpus.GRADER_IMPORTED}
    backend = _backend_name(config) if config.grader == corpus.GRADER_MODEL else None
    try:
        lines = read_jsonl(config.grades_path)
    except OSError:
        return {}
    grades = {}
    for record in lines:
        try:
            qid, grader, answer = record["question_id"], record["grader"], record["answer"]
            if (qid in sample_records and grader in graders and isinstance(answer, str)
                    and answer == _baseline_text(sample_records[qid])
                    and isinstance(record["correct"], bool)
                    and record.get("backend") == (backend if grader == config.grader else None)):
                grades[qid] = record
        except (KeyError, TypeError):
            continue
    return grades


def cmd_grade(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items = _load_items(config)
    sample_records = _sample_records(config, items)
    imported = {}
    if args.import_file:  # read before any grading call, so a bad file costs nothing
        read = functools.partial(corpus.import_grades, known_ids=[item.id for item in items])
        imported = _read_input("grade file", args.import_file, read)
    # An imported grade is an input: it stays while its answer is current.
    grades = {
        qid: grade
        for qid, grade in _load_grades(config, sample_records).items()
        if grade["grader"] == corpus.GRADER_IMPORTED
    }
    for item in items:
        if item.id in imported:  # a grade of the current baseline answer
            answer = _baseline_text(sample_records[item.id])
            grade = corpus.GradedAnswer(
                item.id, answer, item.reference, imported[item.id], corpus.GRADER_IMPORTED
            )
            grades[item.id] = asdict(grade)
    todo = [item for item in _by_id(items) if item.id not in grades]
    backend = _build_backend(config) if config.grader == corpus.GRADER_MODEL else None

    def job(item: corpus.ImageQuestion) -> scheduler.Job:
        def call(answer):
            return corpus.grade(item, answer, config.grader, backend)

        def finish(results, errors):
            if errors:
                raise errors[answer]
            grades[item.id] = asdict(results[answer])
            if backend is not None:
                grades[item.id]["backend"] = backend.model_name

        answer = _baseline_text(sample_records[item.id])
        return scheduler.Job(item.id, [answer], call, finish)

    summary = (f"graded {len(items)} question(s) ({len(items) - len(todo)} imported) "
               f"into {config.grades_path}")
    try:
        return _run_stage(args, config, "grading", map(job, todo), backend, lambda: summary)
    finally:  # also on Ctrl-C, so every finished grade is kept
        write_jsonl(config.grades_path, [grades[qid] for qid in sorted(grades)])


# ---------------------------------------------------------------------------
# report / curve / cost
# ---------------------------------------------------------------------------

def _judged_run(config: RunConfig):
    """The items of a finished run with their current sample and cluster
    records by id; ``IncompleteRecordsError`` naming the ids whose records
    are missing, incomplete or stale."""
    items = _load_items(config)
    sample_records = _sample_records(config, items)
    cluster_records = {
        item.id: _load_cluster(config, _texts(sample_records[item.id]), item.id) for item in items
    }
    return items, sample_records, _require(cluster_records, "cluster")


def _collect_results(
    config: RunConfig, items, sample_records, cluster_records
) -> list[evaluation.QuestionResult]:
    on_disk = _load_grades(config, sample_records)
    grades = _require({item.id: on_disk.get(item.id) for item in items}, "grade")
    results = []
    for item in _by_id(items):
        results.append(
            evaluation.QuestionResult(
                question_id=item.id,
                dataset=item.dataset,
                subgroup=item.subgroup,
                entropy=float(cluster_records[item.id]["dse"]),
                correct=grades[item.id]["correct"],
                answer=grades[item.id]["answer"],
            )
        )
    return results


def _cost_inputs(items, sample_records, cluster_records):
    """The usage of each recorded answer draw, and of each judge call as its
    cluster record's ``calls`` row stores it, as ``gateway.USAGE_FIELDS`` tuples."""
    samples = []
    verdicts = []
    for item in items:
        record = sample_records[item.id]
        samples.extend(map(_sample_usage, record["samples"]))
        samples.append(_sample_usage(record["baseline"]))
        verdicts.extend(map(_call_usage, cluster_records[item.id]["calls"]))
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


def _bootstraps(config: RunConfig, results) -> list[evaluation.BootstrapResult]:
    """``bootstrap_delta`` at each threshold, in ``--thresholds`` order, so
    the first threshold that retains nothing is the one raised."""
    return [
        evaluation.bootstrap_delta(
            results,
            threshold,
            iterations=config.iterations,
            seed=config.seed,
            alpha=config.alpha,
            comparisons=config.comparisons,
        )
        for threshold in config.thresholds
    ]


def cmd_report(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    items, sample_records, cluster_records = _judged_run(config)
    results = _collect_results(config, items, sample_records, cluster_records)

    summary_lines = [
        "selective prediction report",
        f"config: {json.dumps(config.to_dict(), sort_keys=True)}",
        f"questions: {len(results)}",
    ]
    boots = _bootstraps(config, results)
    for threshold, boot in zip(config.thresholds, boots):
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
    parser.add_argument("--corpus", default=None, help="corpus file or directory, read by sample")
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
            # Accepted and ignored: every run rebuilds every record through
            # the cache.  The benchmark's warm-replay workload still passes
            # --force; the flag goes once that workload drops it.
            sub.add_argument("--force", action="store_true", help=argparse.SUPPRESS)
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
