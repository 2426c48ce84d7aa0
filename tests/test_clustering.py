"""Mutual-entailment graph building and cluster assembly."""

from __future__ import annotations

import json
import logging
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from entropygate.clustering import (
    CALL_FIELDS,
    LABEL_ENTAILS,
    LABEL_NOT_ENTAILS,
    POLICY_COMPONENTS,
    POLICY_GREEDY,
    EntailmentGraph,
    EntailmentMatrix,
    EntailmentVerdict,
    SemanticClustering,
    assemble_clusters,
    audit_record,
    cluster_answers,
    judging_job,
    load_audit_record,
    mutual_entailment_graph,
    read_audit_record,
    required_checks,
    write_audit_record,
)
from entropygate import cli
from entropygate.entropy import cluster_distribution, discrete_semantic_entropy
from entropygate.errors import BackendError, IncompleteMatrixError, JudgingError
from entropygate.gateway import (
    AnswerSample,
    CachingBackend,
    MockBackend,
    account_usage,
    entailment_judge,
    equivalence_class_judge,
)
from entropygate.scheduler import run_jobs
from helpers import components_by_bfs, random_equivalence_classes, refines


def verdict(i: int, j: int, entails: bool) -> EntailmentVerdict:
    return EntailmentVerdict(
        premise_index=i,
        hypothesis_index=j,
        label=LABEL_ENTAILS if entails else LABEL_NOT_ENTAILS,
        raw_judge_output="entailment" if entails else "no-entailment",
    )


def matrix_from_rule(k: int, rule) -> EntailmentMatrix:
    verdicts = {(i, j): verdict(i, j, rule(i, j)) for i, j in required_checks(k)}
    return EntailmentMatrix(k=k, verdicts=verdicts)


def simple_judge(rule):
    """Judge callable deciding from the sample texts 's<i>'."""

    def judge(context, premise, hypothesis):
        i, j = int(premise[1:]), int(hypothesis[1:])
        return verdict(0, 1, rule(i, j))

    return judge


def judged(samples: list[str], judge, policy: str = POLICY_COMPONENTS):
    """The (partition, call verdicts) that ``judging_job`` hands to ``done``,
    as the cluster stage gets them."""
    outcome = []
    job = judging_job("q", samples, judge, "q", policy, lambda *result: outcome.extend(result))
    assert run_jobs(1, [job]) == []
    return tuple(outcome)


class TestRequiredChecks:
    def test_k15_has_210_ordered_pairs(self):
        pairs = required_checks(15)
        assert len(pairs) == 15 * 14 == 210
        assert len(set(pairs)) == 210
        assert all(i != j for i, j in pairs)

    def test_both_directions_and_order(self):
        pairs = required_checks(3)
        assert pairs == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_k1_needs_no_checks(self):
        assert required_checks(1) == []


class TestVerdictAndMatrix:
    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            verdict(2, 2, True)
        with pytest.raises(ValueError):
            EntailmentVerdict(0, 1, label="maybe", raw_judge_output="maybe")
        assert verdict(0, 1, True).entails
        assert not verdict(0, 1, False).entails

    def test_matrix_completeness(self):
        full = matrix_from_rule(3, lambda i, j: True)
        assert full.missing_pairs() == []
        partial = EntailmentMatrix(k=3, verdicts={(0, 1): verdict(0, 1, True)})
        assert partial.missing_pairs() == [(0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_incomplete_matrix_rejected_by_graph(self):
        partial = EntailmentMatrix(k=3, verdicts={(0, 1): verdict(0, 1, True)})
        with pytest.raises(IncompleteMatrixError, match="missing verdicts"):
            mutual_entailment_graph(partial)


class TestMutualEntailmentGraph:
    def test_edge_requires_both_directions(self):
        # 0->1 entails but 1->0 does not; 1<->2 mutual.
        def rule(i, j):
            return (i, j) in {(0, 1), (1, 2), (2, 1)}

        graph = mutual_entailment_graph(matrix_from_rule(3, rule))
        assert graph.edges == frozenset({(1, 2)})
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)
        assert not graph.has_edge(0, 1)

    def test_all_entail_gives_complete_graph(self):
        graph = mutual_entailment_graph(matrix_from_rule(4, lambda i, j: True))
        assert len(graph.edges) == 6


class TestAssembleClusters:
    def test_chain_components_versus_greedy(self):
        # Mutual edges 0-1 and 1-2 only: components merge all three while
        # greedy keeps 2 out (it is not adjacent to representative 0).
        graph = EntailmentGraph(k=3, edges=frozenset({(0, 1), (1, 2)}))
        components = assemble_clusters(graph, POLICY_COMPONENTS)
        greedy = assemble_clusters(graph, POLICY_GREEDY)
        assert components.clusters == ((0, 1, 2),)
        assert greedy.clusters == ((0, 1), (2,))
        assert refines(greedy.clusters, components.clusters)

    def test_no_edges_gives_singletons(self):
        graph = EntailmentGraph(k=4, edges=frozenset())
        for policy in (POLICY_COMPONENTS, POLICY_GREEDY):
            clustering = assemble_clusters(graph, policy)
            assert clustering.clusters == ((0,), (1,), (2,), (3,))

    def test_unknown_policy(self):
        graph = EntailmentGraph(k=2, edges=frozenset())
        with pytest.raises(ValueError):
            assemble_clusters(graph, "majority-vote")

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SemanticClustering(k=3, clusters=((0, 1),), policy=POLICY_COMPONENTS)
        with pytest.raises(ValueError):
            SemanticClustering(k=3, clusters=((0, 1), (1, 2)), policy=POLICY_COMPONENTS)

    def test_components_match_bfs_oracle_on_random_graphs(self):
        rng = random.Random(1331)
        for _ in range(300):
            k = rng.randint(1, 10)
            edges = set()
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.random() < 0.3:
                        edges.add((i, j))
            graph = EntailmentGraph(k=k, edges=frozenset(edges))
            ours = [list(c) for c in assemble_clusters(graph, POLICY_COMPONENTS).clusters]
            assert ours == components_by_bfs(k, edges)

    def test_greedy_always_refines_components_on_random_graphs(self):
        rng = random.Random(7117)
        for _ in range(300):
            k = rng.randint(1, 10)
            edges = frozenset(
                (i, j)
                for i in range(k)
                for j in range(i + 1, k)
                if rng.random() < 0.4
            )
            graph = EntailmentGraph(k=k, edges=edges)
            components = assemble_clusters(graph, POLICY_COMPONENTS).clusters
            greedy = assemble_clusters(graph, POLICY_GREEDY).clusters
            assert refines(greedy, components)

    def test_random_non_transitive_verdicts_match_oracle(self):
        rng = random.Random(909)
        for _ in range(200):
            k = rng.randint(2, 8)
            directed = {(i, j): rng.random() < 0.5 for i, j in required_checks(k)}
            matrix = matrix_from_rule(k, lambda i, j: directed[(i, j)])
            graph = mutual_entailment_graph(matrix)
            mutual = {(i, j) for i, j in graph.edges}
            ours = [list(c) for c in assemble_clusters(graph, POLICY_COMPONENTS).clusters]
            assert ours == components_by_bfs(k, mutual)


class TestClusterAnswers:
    def test_equivalence_recovered_and_call_count(self):
        calls = []

        def rule(i, j):
            calls.append((i, j))
            return i % 2 == j % 2

        samples = [f"s{i}" for i in range(6)]
        clustering, matrix = cluster_answers(samples, simple_judge(rule), context="q")
        assert len(calls) == 6 * 5
        assert clustering.clusters == ((0, 2, 4), (1, 3, 5))
        assert matrix.missing_pairs() == []

    def test_verdict_indices_rewritten_per_pair(self):
        samples = ["s0", "s1", "s2"]
        _, matrix = cluster_answers(samples, simple_judge(lambda i, j: True), context="q")
        for (i, j), v in matrix.verdicts.items():
            assert (v.premise_index, v.hypothesis_index) == (i, j)

    def test_failures_surface_partial_matrix_then_resume(self):
        samples = ["s0", "s1", "s2"]
        fail_on = {(1, 2), (2, 0)}

        def flaky(context, premise, hypothesis):
            i, j = int(premise[1:]), int(hypothesis[1:])
            if (i, j) in fail_on:
                raise BackendError("down")
            return verdict(0, 1, True)

        with pytest.raises(JudgingError, match="entailment judging failed") as excinfo:
            cluster_answers(samples, flaky, context="q")
        assert str(excinfo.value).endswith("[(1, 2), (2, 0)]; first error: down")
        assert excinfo.value.failed_pairs == sorted(fail_on)

    def test_rerun_over_cache_repeats_only_the_failed_pair(self, tmp_path):
        samples = ["ct", "computed tomography", "mri"]
        same = equivalence_class_judge([["ct", "computed tomography"]])

        def flaky_rule(premise, hypothesis):
            if (premise, hypothesis) == (samples[1], samples[2]):
                raise BackendError("down")
            return same(premise, hypothesis)

        flaky = CachingBackend(MockBackend(judge_rule=flaky_rule), tmp_path / "cache")
        with pytest.raises(JudgingError) as excinfo:
            cluster_answers(samples, entailment_judge(flaky, question_id="q1"), context="q")
        assert excinfo.value.failed_pairs == [(1, 2)]

        healthy = MockBackend(judge_rule=same)
        cached = CachingBackend(healthy, tmp_path / "cache")
        clustering, matrix = cluster_answers(
            samples, entailment_judge(cached, question_id="q1"), context="q"
        )
        assert healthy.call_count == 1
        assert matrix.missing_pairs() == []
        assert clustering.clusters == ((0, 1), (2,))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            cluster_answers([], simple_judge(lambda i, j: True), context="q")

    def test_random_equivalence_relations_recovered(self):
        rng = random.Random(2024)
        for _ in range(100):
            k = rng.randint(1, 8)
            classes = random_equivalence_classes(rng, k)
            owner = {m: ci for ci, members in enumerate(classes) for m in members}
            samples = [f"s{i}" for i in range(k)]
            clustering, _ = cluster_answers(
                samples, simple_judge(lambda i, j: owner[i] == owner[j]), context="q"
            )
            assert [list(c) for c in clustering.clusters] == classes


class TestAuditRecords:
    def test_round_trip(self, tmp_path):
        samples = ["s0", "s1", "s2", "s3"]
        judge = simple_judge(lambda i, j: i % 2 == j % 2)
        clustering, matrix = cluster_answers(samples, judge, context="q")
        record = audit_record("q-7", samples, judged(samples, judge)[1], clustering, dse=0.30103)
        assert len(record["calls"]) == 12
        assert record["cluster_sizes"] == [2, 2]

        path = tmp_path / "audit.json"
        write_audit_record(path, record)
        loaded = read_audit_record(path)
        qid, texts, matrix2, clustering2, dse = load_audit_record(loaded)
        assert (qid, texts, dse) == ("q-7", samples, 0.30103)
        assert clustering2.clusters == clustering.clusters
        assert matrix2 == matrix

    def test_verdicts_serialized_in_check_order(self):
        samples = ["s0", "s1", "s2"]
        clustering, calls = judged(samples, simple_judge(lambda i, j: True))
        record = audit_record("q", samples, calls, clustering, dse=0.0)
        assert [tuple(row[:2]) for row in record["calls"]] == required_checks(3)

    def test_missing_call_rows_leave_pairs_unjudged(self):
        samples = ["ct", "mri", "ct"]
        clustering, calls = judged(samples, entailment_judge(MockBackend()))
        record = audit_record("q", samples, calls, clustering, dse=0.0)
        record["calls"] = [row for row in record["calls"] if samples[row[1]] != "mri"]
        _, _, partial, _, _ = load_audit_record(record)
        assert partial.missing_pairs() == [(0, 1), (2, 1)]
        with pytest.raises(IncompleteMatrixError):
            mutual_entailment_graph(partial)


@st.composite
def judged_matrices(draw) -> tuple[list[str], EntailmentMatrix]:
    """Samples over texts that repeat, and a matrix with one drawn verdict
    per (premise text, hypothesis text), as a judge of the texts gives it.
    A text need not entail itself, so the verdicts need not be transitive."""
    k = draw(st.integers(1, 15))
    texts = st.sampled_from(["ct", "mri", "", "CT", "x-ray"])
    samples = draw(st.lists(texts, min_size=k, max_size=k))
    calls: dict[tuple[str, str], dict] = {}
    verdicts = {}
    for i, j in required_checks(k):
        texts = (samples[i], samples[j])
        if texts not in calls:
            calls[texts] = dict(
                label=draw(st.sampled_from([LABEL_ENTAILS, LABEL_NOT_ENTAILS])),
                raw_judge_output=draw(st.sampled_from(["entailment", "no", ""])),
                tokens_in=draw(st.none() | st.integers(0, 999)),
                tokens_out=draw(st.none() | st.integers(0, 999)),
                latency_ms=draw(st.integers(0, 9999)) / 8,
                estimated_tokens=draw(st.booleans()),
            )
        verdicts[(i, j)] = EntailmentVerdict(i, j, **calls[texts])
    return samples, EntailmentMatrix(k=k, verdicts=verdicts)


def matrix_judge(samples: list[str], matrix: EntailmentMatrix):
    """The judge whose verdict on two texts is the one ``matrix`` holds for them."""
    by_texts = {(samples[i], samples[j]): v for (i, j), v in matrix.verdicts.items()}
    return lambda context, premise, hypothesis: by_texts[premise, hypothesis]


def stored(samples: list[str], matrix: EntailmentMatrix, policy: str = POLICY_COMPONENTS) -> dict:
    """The audit record the cluster stage writes for ``matrix``'s judge, as
    read back from disk."""
    partition, calls = judged(samples, matrix_judge(samples, matrix), policy)
    dse = discrete_semantic_entropy(cluster_distribution(partition.sizes)).value
    return json.loads(json.dumps(audit_record("q", samples, calls, partition, dse)))


@st.composite
def stored_audit_records(draw) -> dict:
    """An audit record as read back from disk, over texts that repeat."""
    return stored(*draw(judged_matrices()))


def judge_calls_oracle(record: dict) -> list[EntailmentVerdict]:
    """The full matrix, deduplicated by (premise text, hypothesis text)."""
    _, texts, matrix, _, _ = load_audit_record(record)
    calls = {}
    for (i, j), v in matrix.verdicts.items():
        calls.setdefault((texts[i], texts[j]), v)
    return list(calls.values())


class TestJudgeCalls:
    @given(judged_matrices(), st.sampled_from([POLICY_COMPONENTS, POLICY_GREEDY]))
    def test_matches_matrix_deduplicated_by_text_pair(self, drawn, policy):
        samples, matrix = drawn
        # The stage's graph, built from the text-pair verdicts, against the
        # library reference over the full index matrix.
        reference = assemble_clusters(mutual_entailment_graph(matrix), policy)
        assert cluster_answers(samples, matrix_judge(samples, matrix), "q", policy) == (
            reference, matrix
        )
        record = stored(samples, matrix, policy)
        first = {}
        for (i, j), v in matrix.verdicts.items():  # in required_checks order
            first.setdefault((samples[i], samples[j]), v)
        assert [dict(zip(CALL_FIELDS, row)) for row in record["calls"]] == [
            {"premise_index": v.premise_index, "hypothesis_index": v.hypothesis_index,
             "label": v.label, "raw_judge_output": v.raw_judge_output,
             "tokens_in": v.tokens_in, "tokens_out": v.tokens_out,
             "latency_ms": v.latency_ms, "estimated_tokens": v.estimated_tokens}
            for v in first.values()
        ]
        _, _, loaded, partition, dse = load_audit_record(record)
        assert loaded == matrix
        assert partition == reference
        assert dse == discrete_semantic_entropy(cluster_distribution(reference.sizes)).value

    def test_one_verdict_per_call_judging_job_made(self):
        samples = ["ct", "mri", "xray"] * 5
        backend = MockBackend()
        partition, calls = judged(samples, entailment_judge(backend))
        assert backend.call_count == len(calls) == 9
        rows = audit_record("q", samples, calls, partition, dse=0.0)["calls"]
        # the first pair of required_checks with each (premise, hypothesis) texts
        assert [tuple(row[:2]) for row in rows] == [
            (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 4), (2, 0), (2, 1), (2, 5),
        ]


@st.composite
def stored_sample_records(draw) -> dict:
    """A sample record's draws as read back from disk, some with no token counts."""

    def row() -> list:
        fields = {
            "text": "ct",
            "tokens_in": draw(st.none() | st.integers(0, 999)),
            "tokens_out": draw(st.none() | st.integers(0, 999)),
            "latency_ms": draw(st.integers(0, 9999)) / 8,
            "backend_fingerprint": "mock",
            "estimated_tokens": draw(st.booleans()),
        }
        return [fields[name] for name in cli.SAMPLE_FIELDS]

    k = draw(st.integers(1, 6))
    return {"samples": [row() for _ in range(k)], "baseline": row()}


def usage_from_objects(items, sample_records, cluster_records):
    """The cost inputs as full ``AnswerSample`` and ``EntailmentVerdict`` objects."""
    samples = [
        AnswerSample(item.id, ordinal, temperature=1.0, **dict(zip(cli.SAMPLE_FIELDS, row)))
        for item in items
        for ordinal, row in enumerate(
            sample_records[item.id]["samples"] + [sample_records[item.id]["baseline"]]
        )
    ]
    verdicts = [v for item in items for v in judge_calls_oracle(cluster_records[item.id])]
    return samples, verdicts


def accounted(samples, verdicts):
    """``account_usage`` at $10/1M tokens, and the warnings it logged."""
    warnings: list[str] = []
    logger = logging.getLogger("entropygate.gateway")
    handler = logging.Handler()
    handler.emit = lambda record: warnings.append(record.getMessage())
    logger.addHandler(handler)
    try:
        return account_usage(samples, verdicts, 10.0), warnings
    finally:
        logger.removeHandler(handler)


class TestCostFromRows:
    @given(st.lists(st.tuples(stored_sample_records(), stored_audit_records()),
                    min_size=1, max_size=4))
    def test_rows_cost_what_the_objects_cost(self, questions):
        items = [SimpleNamespace(id=f"q{index}") for index in range(len(questions))]
        sample_records = {item.id: samples for item, (samples, _) in zip(items, questions)}
        cluster_records = {item.id: audit for item, (_, audit) in zip(items, questions)}
        rows = accounted(*cli._cost_inputs(items, sample_records, cluster_records))
        samples, verdicts = usage_from_objects(items, sample_records, cluster_records)
        objects = accounted(samples, verdicts)
        assert rows == objects
        estimate, warnings = rows
        assert bool(warnings) == (estimate.incomplete_records > 0)
        assert estimate.estimated_records == sum(
            call.estimated_tokens and None not in (call.tokens_in, call.tokens_out)
            for call in samples + verdicts
        )
