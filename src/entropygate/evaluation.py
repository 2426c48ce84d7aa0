"""Selective-prediction evaluation: filtering, bootstrap, and reports.

A question is retained at threshold t when its entropy is at or below t
(inclusive, so a threshold at the entropy ceiling retains everything).
Accuracy deltas between the filtered and unfiltered sets are tested with
a paired bootstrap over questions: each resample draws n questions with
replacement and scores both conditions on the same draw, so per-question
difficulty cancels.  The paired delta depends only on how many resampled
questions fall in each retained/rejected x correct/incorrect cell, and
resampling n questions makes those four counts Multinomial(n, observed
cell shares); the bootstrap draws the counts directly, so each resample
costs O(1) instead of O(n).  Resamples that happen to retain nothing are
redrawn from a keyed substream (the delta is undefined there), which keeps
results byte-reproducible for a given seed.

Reports cover accuracy/coverage at fixed thresholds, a threshold sweep
(the coverage curve), per-subgroup breakdowns, and a flow table mapping
each dataset subgroup into retained/rejected x correct/incorrect, ready
to plot as a Sankey diagram.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyRetainedSetError, write_text_atomic

_REDRAW_KEY = 7901  # fixed tag keeping redraw substreams disjoint from the main draw


@dataclass(frozen=True)
class QuestionResult:
    """Per-question evaluation record: entropy plus graded correctness.

    ``correct`` refers to the low-temperature answer that would be served
    to a user; ``entropy`` is measured on the high-temperature samples.
    """

    question_id: str
    dataset: str
    subgroup: str
    entropy: float
    correct: bool
    answer: str = ""

    def __post_init__(self):
        if not self.question_id:
            raise ValueError("question_id must be nonempty")
        if not (self.entropy >= 0.0 and math.isfinite(self.entropy)):
            raise ValueError(f"entropy must be finite and >= 0, got {self.entropy}")

    def retained_at(self, threshold: float) -> bool:
        return self.entropy <= threshold


@dataclass(frozen=True)
class FilterOutcome:
    """Accuracy and coverage after gating at one threshold."""

    threshold: float
    total: int
    retained: int
    baseline_correct: int
    retained_correct: int
    baseline_accuracy: float  # percent, over all questions
    filtered_accuracy: float  # percent, over retained questions
    delta: float  # percentage points, filtered minus baseline

    @property
    def coverage(self) -> float:
        """Fraction of questions answered rather than abstained."""
        return self.retained / self.total


@dataclass(frozen=True)
class BootstrapResult:
    """Paired-bootstrap test of the filtered-vs-baseline accuracy delta."""

    outcome: FilterOutcome
    iterations: int
    seed: int
    delta: float  # observed, percentage points
    ci_low: float
    ci_high: float
    p_value: float
    alpha: float
    comparisons: int
    significant: bool
    generator: str  # RNG scheme identity, for reproducibility audits


@dataclass(frozen=True)
class CurvePoint:
    """One threshold on the accuracy/coverage trade-off curve."""

    threshold: float
    retained: int
    total: int
    coverage: float
    accuracy: float | None  # percent; None when nothing is retained
    delta: float | None  # points vs baseline; None when nothing is retained

    @property
    def fraction_rejected(self) -> float:
        return 1.0 - self.coverage


@dataclass(frozen=True)
class SubgroupRow:
    """One dataset subgroup across all requested thresholds."""

    dataset: str
    subgroup: str
    total: int
    baseline_accuracy: float
    cells: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class FlowEdge:
    """One source-to-outcome count for the abstention flow diagram."""

    source: str  # "dataset:subgroup"
    target: str  # retained/rejected x correct/incorrect
    count: int


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def _check_threshold(threshold: float):
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError("invalid threshold")


def selective_accuracy(results: Sequence[QuestionResult], threshold: float) -> FilterOutcome:
    """Accuracy over the retained set versus the unfiltered baseline.

    Raises ``EmptyRetainedSetError`` when the threshold rejects every
    question, since filtered accuracy is then undefined.
    """
    _check_threshold(threshold)
    if not results:
        raise ValueError("no results to evaluate")
    total = len(results)
    baseline_correct = sum(1 for r in results if r.correct)
    retained_results = [r for r in results if r.retained_at(threshold)]
    if not retained_results:
        raise EmptyRetainedSetError(
            f"empty retained set at threshold {threshold:g}: all {total} question(s) rejected"
        )
    retained_correct = sum(1 for r in retained_results if r.correct)
    baseline_accuracy = 100.0 * baseline_correct / total
    filtered_accuracy = 100.0 * retained_correct / len(retained_results)
    return FilterOutcome(
        threshold=threshold,
        total=total,
        retained=len(retained_results),
        baseline_correct=baseline_correct,
        retained_correct=retained_correct,
        baseline_accuracy=baseline_accuracy,
        filtered_accuracy=filtered_accuracy,
        delta=filtered_accuracy - baseline_accuracy,
    )


# ---------------------------------------------------------------------------
# Paired bootstrap
# ---------------------------------------------------------------------------

def bootstrap_delta(
    results: Sequence[QuestionResult],
    threshold: float,
    iterations: int = 100_000,
    seed: int = 0,
    alpha: float = 0.05,
    comparisons: int = 12,
    max_redraws: int = 100,
) -> BootstrapResult:
    """Percentile-bootstrap CI and two-sided p-value for the accuracy delta.

    Each of ``iterations`` resamples draws n questions with replacement
    and computes filtered minus baseline accuracy on that draw.  The
    delta depends only on the resampled retained count K, the retained
    correct count A and the rejected correct count C, so they are drawn
    directly from one PRNG stream (PCG64 seeded with ``seed``), factoring
    the multinomial through K::

        K ~ Bin(n, retained / n)
        A | K ~ Bin(K, retained_correct / retained)
        C | K ~ Bin(n - K, rejected_correct / rejected)
        delta = 100 * (A / K - (A + C) / n)

    which has the same distribution as resampling question indices.
    Resamples with K = 0 are redrawn, in at most ``max_redraws`` rounds,
    from a substream keyed by ``seed``; ``EmptyRetainedSetError`` is
    raised if any is still empty.  The p-value is twice the smaller tail
    fraction of the delta distribution around zero, floored at
    1/iterations and capped at 1.  Significance applies a
    Bonferroni-corrected strict cutoff ``p < alpha / comparisons``.

    Identical inputs and seed reproduce the result bit-for-bit within
    one ``generator`` version.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if comparisons < 1:
        raise ValueError("comparisons must be >= 1")
    if max_redraws < 1:
        raise ValueError("max_redraws must be >= 1")
    outcome = selective_accuracy(results, threshold)

    n = outcome.total
    retained = outcome.retained
    # Correct share among rejected questions; 0/1 when nothing is rejected.
    rejected_share = (outcome.baseline_correct - outcome.retained_correct) / max(n - retained, 1)
    rng = np.random.default_rng(seed)
    kept = rng.binomial(n, retained / n, size=iterations)
    # Substream keyed by (seed, tag): disjoint from the main stream.
    redraw = np.random.default_rng(np.random.SeedSequence([seed, _REDRAW_KEY]))
    empty = np.flatnonzero(kept == 0)
    for _ in range(max_redraws):
        if not empty.size:
            break
        kept[empty] = redraw.binomial(n, retained / n, size=empty.size)
        empty = empty[kept[empty] == 0]
    if empty.size:
        raise EmptyRetainedSetError(
            f"empty retained set: {empty.size} resample(s) still retained nothing "
            f"after {max_redraws} redraw(s)"
        )
    kept_correct = rng.binomial(kept, outcome.retained_correct / retained)
    all_correct = rng.binomial(n - kept, rejected_share)
    all_correct += kept_correct
    deltas = kept_correct / kept
    del kept, kept_correct  # caps the peak at four iteration-length arrays
    deltas -= all_correct / n
    deltas *= 100.0

    ci_low, ci_high = np.percentile(deltas, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    frac_low = float(np.mean(deltas <= 0.0))
    frac_high = float(np.mean(deltas >= 0.0))
    p_value = min(1.0, max(2.0 * min(frac_low, frac_high), 1.0 / iterations))
    return BootstrapResult(
        outcome=outcome,
        iterations=iterations,
        seed=seed,
        delta=outcome.delta,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        p_value=p_value,
        alpha=alpha,
        comparisons=comparisons,
        significant=bonferroni_significant(p_value, alpha, comparisons),
        generator="numpy-pcg64-binomial-cells",
    )


def bonferroni_significant(p_value: float, alpha: float = 0.05, comparisons: int = 12) -> bool:
    """Strict Bonferroni cutoff: significant iff p < alpha / comparisons."""
    if comparisons < 1:
        raise ValueError("comparisons must be >= 1")
    return p_value < alpha / comparisons


# ---------------------------------------------------------------------------
# Curves, subgroups, flows
# ---------------------------------------------------------------------------

def _sweep(results: Sequence[QuestionResult], thresholds: Sequence[float]) -> list[CurvePoint]:
    """Every threshold's point from one sort by entropy: the retained set
    at t is the prefix of entropies <= t, its correct count a prefix sum."""
    ordered = sorted(results, key=lambda r: r.entropy)
    entropies = [r.entropy for r in ordered]
    correct = list(accumulate((r.correct for r in ordered), initial=0))
    total = len(ordered)
    baseline = 100.0 * correct[total] / total
    points = []
    for threshold in thresholds:
        kept = bisect_right(entropies, threshold)
        accuracy = 100.0 * correct[kept] / kept if kept else None
        points.append(
            CurvePoint(
                threshold=threshold,
                retained=kept,
                total=total,
                coverage=kept / total,
                accuracy=accuracy,
                delta=None if accuracy is None else accuracy - baseline,
            )
        )
    return points


def coverage_curve(
    results: Sequence[QuestionResult], thresholds: Sequence[float]
) -> list[CurvePoint]:
    """Sweep thresholds from permissive to strict.

    Thresholds must be strictly descending.  A threshold that retains
    nothing yields a point with ``accuracy``/``delta`` of None instead of
    an error, so the curve can run all the way to zero.
    """
    if not results:
        raise ValueError("no results to evaluate")
    if not thresholds:
        raise ValueError("no thresholds given")
    for value in thresholds:
        _check_threshold(value)
    for earlier, later in zip(thresholds, thresholds[1:]):
        if not later < earlier:
            raise ValueError("thresholds must be strictly descending")
    return _sweep(results, thresholds)


def subgroup_report(
    results: Sequence[QuestionResult], thresholds: Sequence[float]
) -> list[SubgroupRow]:
    """Per-(dataset, subgroup) accuracy at each threshold, sorted by name.

    Empty retained sets show as None cells rather than errors: small
    subgroups routinely lose all members at strict thresholds.
    """
    if not results:
        raise ValueError("no results to evaluate")
    for value in thresholds:
        _check_threshold(value)
    groups: dict[tuple[str, str], list[QuestionResult]] = {}
    for result in results:
        groups.setdefault((result.dataset, result.subgroup), []).append(result)
    return [
        SubgroupRow(
            dataset=dataset,
            subgroup=subgroup,
            total=len(members),
            baseline_accuracy=100.0 * sum(1 for r in members if r.correct) / len(members),
            cells=tuple(_sweep(members, thresholds)),
        )
        for (dataset, subgroup), members in sorted(groups.items())
    ]


TARGET_ACCEPTED_TRUE = "accepted-true"
TARGET_ACCEPTED_FALSE = "accepted-false"
TARGET_REJECTED_TRUE = "rejected-true"
TARGET_REJECTED_FALSE = "rejected-false"


def sankey_export(results: Sequence[QuestionResult], threshold: float) -> list[FlowEdge]:
    """Flow counts from each dataset subgroup into the four gate outcomes.

    Sources are ``dataset:subgroup``; targets split accepted/rejected by
    true/false answers.  Zero-count edges are omitted and the rest sorted
    by (source, target) so output is stable.
    """
    _check_threshold(threshold)
    counts: dict[tuple[str, str], int] = {}
    for result in results:
        source = f"{result.dataset}:{result.subgroup}"
        gate = "accepted" if result.retained_at(threshold) else "rejected"
        answer = "true" if result.correct else "false"
        key = (source, f"{gate}-{answer}")
        counts[key] = counts.get(key, 0) + 1
    return [
        FlowEdge(source=source, target=target, count=count)
        for (source, target), count in sorted(counts.items())
    ]


# ---------------------------------------------------------------------------
# Writers and display formatting
# ---------------------------------------------------------------------------

def write_outcomes_jsonl(
    results: Sequence[QuestionResult], thresholds: Sequence[float], path: str | Path
):
    """One JSON line per question: entropy, correctness, and gate decisions."""
    records = (
        {
            "id": result.question_id,
            "dataset": result.dataset,
            "subgroup": result.subgroup,
            "entropy": result.entropy,
            "correct": result.correct,
            "answer": result.answer,
            "retained": {f"{t:g}": result.retained_at(t) for t in thresholds},
        }
        for result in sorted(results, key=lambda r: r.question_id)
    )
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records]
    write_text_atomic(path, "".join(lines))


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list]):
    """Render the rows first, so a failing ``rows`` leaves ``path`` as it was."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, text.getvalue())


def write_curve_csv(points: Iterable[CurvePoint], path: str | Path):
    rows = (
        [
            f"{point.threshold:g}",
            f"{point.fraction_rejected:.6f}",
            "undefined" if point.delta is None else f"{point.delta:.6f}",
            point.retained,
        ]
        for point in points
    )
    _write_csv(path, ["threshold", "fraction_rejected", "delta", "n_retained"], rows)


def write_sankey_csv(edges: Iterable[FlowEdge], path: str | Path):
    rows = ([edge.source, edge.target, edge.count] for edge in edges)
    _write_csv(path, ["source", "target", "count"], rows)


def format_outcome_line(outcome: FilterOutcome) -> str:
    """Fixed one-line rendering: baseline, filtered, delta, and counts."""
    return (
        f"{outcome.baseline_accuracy:.1f} → {outcome.filtered_accuracy:.1f} "
        f"(Δ {outcome.delta:+.1f}, n={outcome.retained}/{outcome.total})"
    )


def no_filtering(threshold: float, cluster_count_ceiling: int) -> bool:
    """True when the threshold can never reject (at or above max entropy)."""
    if cluster_count_ceiling < 1:
        raise ValueError("invalid cluster size")
    return threshold >= math.log10(cluster_count_ceiling)


def format_p_value(p_value: float) -> str:
    """APA-style p display: 'p < .001' below a milli, else 'p = .xxx'."""
    if p_value < 0.001:
        return "p < .001"
    text = f"{p_value:.3f}"
    if text.startswith("0."):
        text = text[1:]
    return f"p = {text}"
