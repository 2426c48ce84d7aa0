"""In-memory span tracing around the program's public functions.

The tracer replaces module attributes and class methods of ``entropygate``
with wrappers, from the benchmark's side only: nothing in the package
changes.  Each span records (id, parent id, name, start, end, question id,
attributes).  Spans started in a worker thread with no open span of their
own take the current stage span as parent.  A span's self time is its
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span tuple fields.
ID, PARENT, NAME, START, END, QID, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self._root: tuple[int, str | None] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, qid=None, attrs=None, memory: bool = False):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a traced call.

        ``qid(args, kwargs)`` and ``attrs(args, kwargs)`` extract the
        question id and extra attributes; a span without its own question
        id inherits its parent's.  ``memory`` records the tracemalloc peak.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            question = qid(args, kwargs) if qid else None
            if question is None and parent is not None:
                question = parent[1]
            extra = attrs(args, kwargs) if attrs else {}
            stack.append((span_id, question))
            if memory:
                tracemalloc.start()
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    extra["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, name, start, end, question, extra)
                )

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, is_dict))

    def uninstall(self):
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def stage(self, name: str):
        """Root span for one CLI stage; parents spans opened in pool threads."""
        span_id = next(self._ids)
        self._root = (span_id, None)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._root = None
            self.spans.append((span_id, None, name, start, end, None, {}))


def install(tracer: Tracer, question_ids: dict[str, str]) -> None:
    """Wrap the layer boundaries the per-layer metrics are derived from."""
    from entropygate import cli, clustering, corpus, evaluation, gateway

    request_qid = lambda a, kw: a[1].question_id  # noqa: E731  (self, request)
    request_role = lambda a, kw: {"role": a[1].role}  # noqa: E731
    w = tracer.wrap
    w(gateway.HttpBackend, "invoke", "gateway.HttpBackend.invoke", request_qid, request_role)
    w(gateway.HttpBackend, "build_payload", "gateway.HttpBackend.build_payload", request_qid)
    w(gateway.CachingBackend, "invoke", "gateway.CachingBackend.invoke", request_qid, request_role)
    w(gateway, "sample_answers", "gateway.sample_answers", lambda a, kw: a[1].id)
    w(
        gateway, "judge_entailment", "gateway.judge_entailment",
        lambda a, kw: kw.get("question_id"),
        lambda a, kw: {"pair": hash((kw.get("question_id"), a[2], a[3]))},
    )
    w(gateway, "account_usage", "gateway.account_usage")
    w(
        clustering, "cluster_answers", "clustering.cluster_answers",
        lambda a, kw: question_ids.get(kw.get("context")),
    )
    w(clustering, "mutual_entailment_graph", "clustering.mutual_entailment_graph")
    w(clustering, "assemble_clusters", "clustering.assemble_clusters")
    w(clustering, "audit_record", "clustering.audit_record", lambda a, kw: a[0])
    w(clustering, "write_audit_record", "clustering.write_audit_record",
      lambda a, kw: a[1].get("question_id"))
    w(clustering, "read_audit_record", "clustering.read_audit_record",
      lambda a, kw: Path(a[0]).stem[2:])
    w(clustering, "load_audit_record", "clustering.load_audit_record")
    w(cli, "discrete_semantic_entropy", "entropy.discrete_semantic_entropy")
    w(cli, "cluster_distribution", "entropy.cluster_distribution")
    w(corpus, "load_corpus", "corpus.load_corpus")
    w(cli.ADAPTERS, "canonical", "corpus.load_corpus")
    w(corpus, "write_corpus", "corpus.write_corpus")
    w(corpus, "grade", "corpus.grade", lambda a, kw: a[0].id)
    w(evaluation, "bootstrap_delta", "evaluation.bootstrap_delta",
      attrs=lambda a, kw: {"threshold": a[1]}, memory=True)
    w(evaluation, "coverage_curve", "evaluation.coverage_curve")
    w(evaluation, "subgroup_report", "evaluation.subgroup_report")
    w(evaluation, "write_outcomes_jsonl", "evaluation.write_outcomes_jsonl")


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START]) - _union(
            [(max(lo, span[START]), min(hi, span[END])) for lo, hi in children.get(span[ID], [])]
        )
        for span in spans
    }


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Count, total and self seconds per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span[NAME]]
        row["count"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += selfs[span[ID]]
    return dict(sorted(table.items()))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures for one repetition's spans (units in the names)."""
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        if span[PARENT] is not None:
            kids[span[PARENT]].append(span)
    dur = lambda s: s[END] - s[START]  # noqa: E731
    selfs = self_times(spans)

    cache = by_name["gateway.CachingBackend.invoke"]
    misses = [s for s in cache if kids[s[ID]]]
    hits = [s for s in cache if not kids[s[ID]]]
    judged = by_name["gateway.judge_entailment"]
    pair_keys = [s[ATTRS]["pair"] for s in judged]
    judge_time = sum(
        dur(k) for s in by_name["clustering.cluster_answers"] for k in kids[s[ID]]
        if k[NAME] == "gateway.judge_entailment"
    )
    cluster_time = sum(dur(s) for s in by_name["clustering.cluster_answers"])
    metrics = {
        f"cli.{stage}.self_s": sum(selfs[s[ID]] for s in by_name[f"cli.{stage}"])
        for stage in ("sample", "cluster", "grade", "report", "curve")
    }
    metrics.update({
        "gateway.http.build_payload_ms_mean":
            1e3 * _mean(dur(s) for s in by_name["gateway.HttpBackend.build_payload"]),
        "gateway.cache.hits": len(hits),
        "gateway.cache.misses": len(misses),
        "gateway.cache.hit_ratio": len(hits) / len(cache) if cache else 0.0,
        "gateway.cache.hit_us_mean": 1e6 * _mean(dur(s) for s in hits),
        "gateway.cache.miss_overhead_us_mean":
            1e6 * _mean(dur(s) - sum(dur(k) for k in kids[s[ID]]) for s in misses),
        "clustering.judged_pairs": len(judged),
        "clustering.duplicate_pair_share":
            (len(pair_keys) - len(set(pair_keys))) / len(pair_keys) if pair_keys else 0.0,
        "clustering.cluster_answers.self_ms_per_pair":
            1e3 * (cluster_time - judge_time) / len(judged) if judged else 0.0,
        "clustering.assemble_clusters.us_mean":
            1e6 * _mean(dur(s) for s in by_name["clustering.assemble_clusters"]),
        "clustering.write_audit_record.ms_mean":
            1e3 * _mean(dur(s) for s in by_name["clustering.write_audit_record"]),
        "clustering.read_audit_record.ms_mean":
            1e3 * _mean(dur(s) for s in by_name["clustering.read_audit_record"]),
        "entropy.discrete_semantic_entropy.us_mean":
            1e6 * _mean(dur(s) for s in by_name["entropy.discrete_semantic_entropy"]),
        "corpus.load_corpus.ms": 1e3 * _mean(dur(s) for s in by_name["corpus.load_corpus"]),
        "corpus.grade.us_mean": 1e6 * _mean(dur(s) for s in by_name["corpus.grade"]),
        "evaluation.coverage_curve.ms":
            1e3 * _mean(dur(s) for s in by_name["evaluation.coverage_curve"]),
        "evaluation.subgroup_report.ms":
            1e3 * _mean(dur(s) for s in by_name["evaluation.subgroup_report"]),
        "evaluation.bootstrap_delta.peak_mb":
            max((s[ATTRS]["peak_mb"] for s in by_name["evaluation.bootstrap_delta"]), default=0.0),
    })
    for threshold in (0.6, 0.3):
        metrics[f"evaluation.bootstrap_delta.t{threshold:g}.s"] = _mean(
            dur(s) for s in by_name["evaluation.bootstrap_delta"]
            if s[ATTRS]["threshold"] == threshold
        )
    http = by_name["gateway.HttpBackend.invoke"]
    metrics["gateway.http.invoke_ms_sum"] = 1e3 * sum(dur(s) for s in http)
    metrics["gateway.http.calls"] = len(http)
    return metrics
