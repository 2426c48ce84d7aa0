"""Mutual-entailment graph building and cluster assembly."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from entropygate.clustering import (
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
    judge_calls,
    load_audit_record,
    mutual_entailment_graph,
    read_audit_record,
    required_checks,
    write_audit_record,
)
from entropygate.errors import BackendError, IncompleteMatrixError, JudgingError
from entropygate.gateway import (
    CachingBackend,
    MockBackend,
    entailment_judge,
    equivalence_class_judge,
)
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
        assert full.complete
        assert full.missing_pairs() == []
        partial = EntailmentMatrix(k=3, verdicts={(0, 1): verdict(0, 1, True)})
        assert not partial.complete
        assert (1, 0) in partial.missing_pairs()

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
        assert matrix.complete

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
        assert matrix.complete
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
        clustering, matrix = cluster_answers(
            samples, simple_judge(lambda i, j: i % 2 == j % 2), context="q"
        )
        record = audit_record("q-7", samples, matrix, clustering, dse=0.30103)
        assert len(record["verdicts"]) == 12
        assert record["cluster_sizes"] == [2, 2]

        path = tmp_path / "audit.json"
        write_audit_record(path, record)
        loaded = read_audit_record(path)
        qid, texts, matrix2, clustering2, dse = load_audit_record(loaded)
        assert (qid, texts, dse) == ("q-7", samples, 0.30103)
        assert clustering2.clusters == clustering.clusters
        assert matrix2.verdicts.keys() == matrix.verdicts.keys()
        for pair, v in matrix.verdicts.items():
            assert matrix2.verdicts[pair].label == v.label
            assert matrix2.verdicts[pair].raw_judge_output == v.raw_judge_output

    def test_verdicts_serialized_in_check_order(self):
        samples = ["s0", "s1", "s2"]
        clustering, matrix = cluster_answers(
            samples, simple_judge(lambda i, j: True), context="q"
        )
        record = audit_record("q", samples, matrix, clustering, dse=0.0)
        order = [(v["premise"], v["hypothesis"]) for v in record["verdicts"]]
        assert order == required_checks(3)


@st.composite
def stored_audit_records(draw) -> dict:
    """An audit record as read back from disk, over texts that repeat."""
    k = draw(st.integers(1, 6))
    samples = draw(st.lists(st.sampled_from(["ct", "mri", ""]), min_size=k, max_size=k))
    verdicts = {
        (i, j): EntailmentVerdict(
            premise_index=i,
            hypothesis_index=j,
            label=draw(st.sampled_from([LABEL_ENTAILS, LABEL_NOT_ENTAILS])),
            raw_judge_output=draw(st.sampled_from(["entailment", "no", ""])),
            tokens_in=draw(st.none() | st.integers(0, 999)),
            tokens_out=draw(st.none() | st.integers(0, 999)),
            latency_ms=draw(st.integers(0, 9999)) / 8,
        )
        for i, j in required_checks(k)
    }
    matrix = EntailmentMatrix(k=k, verdicts=verdicts)
    partition = assemble_clusters(mutual_entailment_graph(matrix))
    return json.loads(json.dumps(audit_record("q", samples, matrix, partition, dse=0.0)))


def judge_calls_oracle(record: dict) -> list[EntailmentVerdict]:
    """The full matrix, deduplicated by (premise text, hypothesis text)."""
    _, texts, matrix, _, _ = load_audit_record(record)
    calls = {}
    for (i, j), v in matrix.verdicts.items():
        calls.setdefault((texts[i], texts[j]), v)
    return list(calls.values())


class TestJudgeCalls:
    @given(stored_audit_records())
    def test_matches_matrix_deduplicated_by_text_pair(self, record):
        assert judge_calls(record) == judge_calls_oracle(record)

    def test_one_verdict_per_call_judging_job_made(self):
        samples = ["ct", "mri", "xray"] * 5
        judge = entailment_judge(MockBackend())
        partition, matrix = cluster_answers(samples, judge, context="q")
        calls = judge_calls(audit_record("q", samples, matrix, partition, dse=0.0))
        assert [(v.premise_index, v.hypothesis_index) for v in calls] == [
            (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 4), (2, 0), (2, 1), (2, 5)
        ]
