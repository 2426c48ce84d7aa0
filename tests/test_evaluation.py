"""Selective accuracy, bootstrap statistics, curves, and report exports."""

from __future__ import annotations

import csv
import json
import math
import random
import tracemalloc

import pytest

from entropygate.errors import EmptyRetainedSetError
from entropygate.evaluation import (
    TARGET_ACCEPTED_FALSE,
    TARGET_ACCEPTED_TRUE,
    TARGET_REJECTED_FALSE,
    TARGET_REJECTED_TRUE,
    QuestionResult,
    bonferroni_significant,
    bootstrap_delta,
    coverage_curve,
    format_outcome_line,
    format_p_value,
    no_filtering,
    sankey_export,
    selective_accuracy,
    subgroup_report,
    write_curve_csv,
    write_outcomes_jsonl,
    write_sankey_csv,
)
from helpers import bootstrap_oracle, threshold_scan


def result(qid="q", entropy=0.1, correct=True, dataset="d", subgroup="s"):
    return QuestionResult(
        question_id=qid,
        dataset=dataset,
        subgroup=subgroup,
        entropy=entropy,
        correct=correct,
    )


class TestQuestionResult:
    def test_entropy_must_be_finite_nonnegative(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                result(entropy=bad)

    def test_retention_is_inclusive(self):
        r = result(entropy=0.6)
        assert r.retained_at(0.6)
        assert not r.retained_at(0.5999999)


class TestSelectiveAccuracy:
    def test_published_style_aggregate(self, table1_results):
        baseline = selective_accuracy(table1_results, 2.0)
        assert baseline.total == 706
        assert round(baseline.baseline_accuracy, 1) == 51.7

        at_06 = selective_accuracy(table1_results, 0.6)
        assert (at_06.retained, at_06.retained_correct) == (499, 314)
        assert round(at_06.filtered_accuracy, 1) == 62.9
        assert round(at_06.delta, 1) == 11.2

        at_03 = selective_accuracy(table1_results, 0.3)
        assert (at_03.retained, at_03.retained_correct) == (334, 255)
        assert round(at_03.filtered_accuracy, 1) == 76.3
        assert round(at_03.delta, 1) == 24.6

    def test_counting_identities(self, table1_results):
        outcome = selective_accuracy(table1_results, 0.6)
        assert outcome.baseline_correct == sum(1 for r in table1_results if r.correct)
        assert outcome.coverage == outcome.retained / outcome.total
        assert outcome.delta == outcome.filtered_accuracy - outcome.baseline_accuracy

    def test_zero_entropy_everywhere_means_no_change(self):
        results = [result(qid=f"q{i}", entropy=0.0, correct=i % 2 == 0) for i in range(10)]
        outcome = selective_accuracy(results, 0.3)
        assert outcome.retained == 10
        assert outcome.delta == 0.0

    def test_all_rejected_raises(self):
        results = [result(qid=f"q{i}", entropy=0.9) for i in range(4)]
        with pytest.raises(EmptyRetainedSetError, match="empty retained set"):
            selective_accuracy(results, 0.3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            selective_accuracy([], 0.6)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="invalid threshold"):
            selective_accuracy([result()], float("nan"))


class TestBootstrap:
    def two_point_results(self):
        return [
            result(qid="good", entropy=0.1, correct=True),
            result(qid="bad", entropy=0.9, correct=False),
        ]

    def test_same_seed_reproduces_exactly(self, table1_results):
        first = bootstrap_delta(table1_results, 0.6, iterations=2000, seed=11)
        second = bootstrap_delta(table1_results, 0.6, iterations=2000, seed=11)
        assert first == second

    def test_different_seed_differs(self, table1_results):
        first = bootstrap_delta(table1_results, 0.6, iterations=2000, seed=1)
        second = bootstrap_delta(table1_results, 0.6, iterations=2000, seed=2)
        assert (first.ci_low, first.ci_high) != (second.ci_low, second.ci_high)

    def test_same_seed_reproduces_with_redraws(self):
        # One retained question among twenty: about 36% of resamples
        # retain nothing and go through the redraw substream.
        results = [result(qid="kept", entropy=0.1, correct=True)]
        results += [result(qid=f"r{i}", entropy=0.9, correct=i % 2 == 0) for i in range(19)]
        first = bootstrap_delta(results, 0.3, iterations=10_000, seed=5)
        second = bootstrap_delta(results, 0.3, iterations=10_000, seed=5)
        assert first == second
        assert first != bootstrap_delta(results, 0.3, iterations=10_000, seed=6)

    @pytest.mark.parametrize("threshold", [0.6, 0.3])
    def test_matches_index_resampling_oracle(self, table1_results, threshold):
        boot = bootstrap_delta(table1_results, threshold, iterations=20_000, seed=0)
        ci_low, ci_high, p_value = bootstrap_oracle(
            table1_results, threshold, iterations=20_000, seed=0
        )
        assert boot.ci_low == pytest.approx(ci_low, abs=0.5)
        assert boot.ci_high == pytest.approx(ci_high, abs=0.5)
        assert boot.p_value == pytest.approx(p_value, abs=1e-3)
        assert boot.significant == bonferroni_significant(p_value)

    def test_matches_oracle_off_the_p_value_floor(self):
        # Two retained questions of ten: about a tenth of resamples retain
        # nothing, and p sits near .013, far above 1/iterations, so the
        # tail fractions themselves are compared (standard error ~.0016).
        results = [result(qid=f"a{i}", entropy=0.1, correct=True) for i in range(2)]
        results += [result(qid=f"b{i}", entropy=0.9, correct=i < 4) for i in range(8)]
        boot = bootstrap_delta(results, 0.3, iterations=20_000, seed=0)
        _, _, p_value = bootstrap_oracle(results, 0.3, iterations=20_000, seed=0)
        assert 0.005 < p_value < 0.05
        assert boot.p_value == pytest.approx(p_value, abs=0.005)

    def test_memory_does_not_scale_with_questions(self, table1_results):
        tracemalloc.start()
        try:
            bootstrap_delta(table1_results, 0.6, iterations=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_two_point_enumeration(self):
        # Resamples of {good, bad}: (g,g) -> delta 0, (g,b)/(b,g) -> +50,
        # (b,b) is empty after filtering and gets redrawn.  Conditioned on a
        # non-empty draw the delta distribution is {0: 1/3, +50: 2/3}.
        boot = bootstrap_delta(self.two_point_results(), 0.3, iterations=100_000, seed=0)
        assert boot.ci_low == 0.0
        assert boot.ci_high == 50.0
        assert boot.p_value == pytest.approx(2 / 3, abs=0.01)

    def test_degenerate_all_correct(self):
        results = [result(qid=f"q{i}", entropy=0.0, correct=True) for i in range(5)]
        boot = bootstrap_delta(results, 0.6, iterations=5000, seed=0)
        assert (boot.ci_low, boot.ci_high) == (0.0, 0.0)
        assert boot.p_value == 1.0

    def test_p_value_floor(self, table1_results):
        boot = bootstrap_delta(table1_results, 0.3, iterations=1000, seed=0)
        assert boot.p_value >= 1 / 1000

    def test_redraw_budget_exhaustion(self):
        # One retained question among twenty: a resample misses it with
        # probability (19/20)^20, so a single-redraw budget fails quickly.
        results = [result(qid="kept", entropy=0.1, correct=True)]
        results += [result(qid=f"r{i}", entropy=0.9, correct=False) for i in range(19)]
        with pytest.raises(EmptyRetainedSetError):
            bootstrap_delta(results, 0.3, iterations=10_000, seed=0, max_redraws=1)

    def test_validation(self, table1_results):
        with pytest.raises(ValueError):
            bootstrap_delta(table1_results, 0.6, iterations=0)
        with pytest.raises(ValueError):
            bootstrap_delta([], 0.6)


class TestBonferroni:
    def test_strict_inequality_contract(self):
        assert bonferroni_significant(0.003, alpha=0.05, comparisons=12)
        assert not bonferroni_significant(0.100, alpha=0.05, comparisons=12)
        assert not bonferroni_significant(0.05 / 12, alpha=0.05, comparisons=12)
        assert not bonferroni_significant(0.05, alpha=0.05, comparisons=1)
        assert bonferroni_significant(0.049, alpha=0.05, comparisons=1)


class TestCoverageCurve:
    def test_thresholds_must_descend(self, table1_results):
        with pytest.raises(ValueError):
            coverage_curve(table1_results, [0.3, 0.6])
        with pytest.raises(ValueError):
            coverage_curve(table1_results, [0.6, 0.6])

    def test_coverage_monotone_and_endpoints(self, table1_results):
        points = coverage_curve(table1_results, [1.2, 0.9, 0.6, 0.3, 0.0])
        coverages = [p.coverage for p in points]
        assert coverages == sorted(coverages, reverse=True)
        # 1.2 >= log10(15): nothing can be rejected
        assert points[0].coverage == 1.0
        assert points[0].delta == 0.0
        assert points[0].fraction_rejected == 0.0

    def test_empty_tail_point_is_flagged_not_fatal(self):
        results = [result(qid=f"q{i}", entropy=0.9) for i in range(5)]
        [high, low] = coverage_curve(results, [0.9, 0.3])
        assert high.retained == 5
        assert low.retained == 0
        assert low.accuracy is None and low.delta is None
        assert low.fraction_rejected == 1.0

    def test_counts_match_selective_accuracy(self, table1_results):
        [point] = coverage_curve(table1_results, [0.6])
        outcome = selective_accuracy(table1_results, 0.6)
        assert point.retained == outcome.retained
        assert point.accuracy == pytest.approx(outcome.filtered_accuracy)
        assert point.delta == pytest.approx(outcome.delta)


class TestSubgroupReport:
    def test_published_style_rows(self, modality_results, abnormality_results):
        rows = subgroup_report(modality_results + abnormality_results, [0.6, 0.3])
        assert [(r.dataset, r.subgroup) for r in rows] == [
            ("vqa", "abnormality"),
            ("vqa", "modality"),
        ]
        abnormality, modality = rows

        assert modality.total == 125
        assert round(modality.baseline_accuracy, 1) == 81.6
        at_06, at_03 = modality.cells
        assert at_06.retained == 125  # nothing rejected at the loose threshold
        assert round(at_06.accuracy, 1) == 81.6
        assert at_03.retained == 114
        assert round(at_03.accuracy, 1) == 84.2

        a_06, a_03 = abnormality.cells
        assert a_06.retained == 27
        assert round(a_06.accuracy, 1) == 33.3
        assert a_03.retained == 0 and a_03.accuracy is None

    def test_single_member_group(self):
        rows = subgroup_report([result(qid="only", entropy=0.1, correct=True)], [0.6])
        assert rows[0].total == 1
        assert rows[0].baseline_accuracy == 100.0

    def test_totals_partition_the_input(self, modality_results, abnormality_results):
        rows = subgroup_report(modality_results + abnormality_results, [0.6])
        assert sum(r.total for r in rows) == len(modality_results) + len(abnormality_results)


class TestSweepOracle:
    @staticmethod
    def scan(points):
        return [(p.threshold, p.retained, p.total, p.coverage, p.accuracy, p.delta) for p in points]

    @pytest.mark.parametrize("seed", range(25))
    def test_curve_and_subgroups_match_a_per_threshold_scan(self, seed):
        rng = random.Random(seed)
        # Entropies mostly on the thresholds' own lattice: ties, and values
        # exactly at a threshold, which is retained.
        lattice = [round(0.1 * i, 1) for i in range(13)]
        results = [
            result(
                qid=f"q{i}",
                entropy=rng.choice(lattice) if rng.random() < 0.7 else rng.uniform(0.0, 1.3),
                correct=rng.random() < 0.5,
                dataset=rng.choice("ab"),
                subgroup=rng.choice("xyz"),
            )
            for i in range(rng.randint(1, 60))
        ]
        thresholds = rng.sample(lattice, rng.randint(1, 6))
        descending = sorted(thresholds, reverse=True)
        assert self.scan(coverage_curve(results, descending)) == threshold_scan(results, descending)

        groups = {}
        for r in results:
            groups.setdefault((r.dataset, r.subgroup), []).append(r)
        rows = subgroup_report(results, thresholds)
        assert [(row.dataset, row.subgroup) for row in rows] == sorted(groups)
        for row in rows:
            members = groups[(row.dataset, row.subgroup)]
            assert row.total == len(members)
            assert row.baseline_accuracy == 100.0 * sum(r.correct for r in members) / len(members)
            assert self.scan(row.cells) == threshold_scan(members, thresholds)


class TestSankeyExport:
    def test_flows_partition_the_group(self):
        results = [
            result(qid="a", entropy=0.1, correct=True),
            result(qid="b", entropy=0.1, correct=True),
            result(qid="c", entropy=0.9, correct=False),
            result(qid="d", entropy=0.1, correct=False),
        ]
        edges = sankey_export(results, 0.6)
        assert len(edges) == 3  # no rejected-true flow, zero counts omitted
        assert sum(e.count for e in edges) == 4
        by_target = {e.target: e.count for e in edges}
        assert by_target == {
            TARGET_ACCEPTED_TRUE: 2,
            TARGET_ACCEPTED_FALSE: 1,
            TARGET_REJECTED_FALSE: 1,
        }
        assert all(e.source == "d:s" for e in edges)

    def test_all_rejected_has_only_rejected_targets(self):
        results = [
            result(qid="a", entropy=0.9, correct=True),
            result(qid="b", entropy=0.9, correct=False),
        ]
        edges = sankey_export(results, 0.3)
        assert {e.target for e in edges} == {TARGET_REJECTED_TRUE, TARGET_REJECTED_FALSE}

    def test_accepted_total_matches_retention(self, table1_results):
        edges = sankey_export(table1_results, 0.3)
        accepted = sum(e.count for e in edges if e.target.startswith("accepted"))
        assert accepted == 334

    def test_sorted_by_source_then_target(self, modality_results, abnormality_results):
        edges = sankey_export(modality_results + abnormality_results, 0.6)
        keys = [(e.source, e.target) for e in edges]
        assert keys == sorted(keys)


class TestWriters:
    def test_curve_csv(self, tmp_path):
        results = [result(qid=f"q{i}", entropy=0.9) for i in range(3)]
        points = coverage_curve(results, [1.2, 0.3])
        path = tmp_path / "curve.csv"
        write_curve_csv(points, path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["threshold", "fraction_rejected", "delta", "n_retained"]
        assert rows[1][0] == "1.2" and rows[1][3] == "3"
        assert rows[2][2] == "undefined" and rows[2][3] == "0"

    def test_failing_points_leave_the_previous_curve_csv(self, tmp_path):
        results = [result(qid=f"q{i}", entropy=0.1 * i) for i in range(3)]
        points = coverage_curve(results, [1.2, 0.3, 0.0])
        path = tmp_path / "curve.csv"
        write_curve_csv(points, path)
        before = path.read_bytes()

        def torn():
            yield points[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_curve_csv(torn(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

    def test_outcomes_jsonl_sorted_and_parseable(self, tmp_path):
        results = [
            result(qid="zz", entropy=0.9, correct=False),
            result(qid="aa", entropy=0.1, correct=True),
        ]
        path = tmp_path / "outcomes.jsonl"
        write_outcomes_jsonl(results, [0.6, 0.3], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["id"] for r in records] == ["aa", "zz"]
        assert records[0]["retained"] == {"0.6": True, "0.3": True}
        assert records[1]["retained"] == {"0.6": False, "0.3": False}

    def test_sankey_csv(self, tmp_path):
        edges = sankey_export([result(qid="a", correct=True)], 0.6)
        path = tmp_path / "sankey.csv"
        write_sankey_csv(edges, path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["source", "target", "count"], ["d:s", "accepted-true", "1"]]


class TestDisplayHelpers:
    def test_outcome_line(self, table1_results):
        line = format_outcome_line(selective_accuracy(table1_results, 0.3))
        assert line == "51.7 → 76.3 (Δ +24.6, n=334/706)"

    def test_no_filtering_boundary(self):
        assert no_filtering(1.2, 15)
        assert no_filtering(math.log10(15), 15)
        assert not no_filtering(0.6, 15)
        with pytest.raises(ValueError, match="invalid cluster size"):
            no_filtering(0.6, 0)

    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0005, "p < .001"),
            (0.003, "p = .003"),
            (0.0462, "p = .046"),
            (0.100, "p = .100"),
            (1.0, "p = 1.000"),
        ],
    )
    def test_p_value_display(self, p, expected):
        assert format_p_value(p) == expected
