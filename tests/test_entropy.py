"""Entropy scoring and gating against an arbitrary-precision oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from entropygate.entropy import (
    ClusterDistribution,
    EntropyValue,
    GateDecision,
    cluster_distribution,
    discrete_semantic_entropy,
    gate,
    max_entropy,
)
from helpers import entropy_oracle, integer_partitions, random_partition

counts_strategy = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=15)


class TestClusterDistribution:
    def test_probabilities_sum_to_one_and_keep_order(self):
        dist = cluster_distribution([8, 4, 3])
        assert dist.total == 15
        assert dist.probabilities == (8 / 15, 4 / 15, 3 / 15)
        assert abs(sum(dist.probabilities) - 1.0) < 1e-12

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="no clusters"):
            cluster_distribution([])

    @pytest.mark.parametrize("bad", [[0], [3, 0], [-1, 4], [2.5, 3]])
    def test_nonpositive_or_fractional_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid cluster size"):
            cluster_distribution(bad)


class TestDiscreteSemanticEntropy:
    def test_single_cluster_is_exactly_zero(self):
        assert discrete_semantic_entropy(cluster_distribution([15])).value == 0.0

    def test_singletons_reach_log10_k(self):
        value = discrete_semantic_entropy(cluster_distribution([1] * 15)).value
        assert value == pytest.approx(math.log10(15), abs=1e-12)
        assert value == pytest.approx(1.1760912590556813, abs=1e-12)

    def test_frozen_oracle_values(self):
        # Frozen from the 50-digit oracle in helpers.entropy_oracle.
        assert discrete_semantic_entropy(cluster_distribution([8, 4, 3])).value == pytest.approx(
            0.4384696840285889, abs=1e-12
        )
        assert discrete_semantic_entropy(cluster_distribution([10, 5])).value == pytest.approx(
            0.27643459094367495, abs=1e-12
        )

    def test_sample_count_recorded(self):
        entropy = discrete_semantic_entropy(cluster_distribution([10, 5]))
        assert entropy.sample_count == 15

    @given(counts_strategy)
    def test_matches_oracle(self, counts):
        value = discrete_semantic_entropy(cluster_distribution(counts)).value
        assert value == pytest.approx(entropy_oracle(counts), abs=1e-12)

    @given(counts_strategy)
    def test_bounded_by_cluster_count(self, counts):
        value = discrete_semantic_entropy(cluster_distribution(counts)).value
        assert -1e-15 <= value <= math.log10(len(counts)) + 1e-12

    @given(counts_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariant(self, counts, rng):
        shuffled = list(counts)
        rng.shuffle(shuffled)
        a = discrete_semantic_entropy(cluster_distribution(counts)).value
        b = discrete_semantic_entropy(cluster_distribution(shuffled)).value
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=15))
    def test_merging_clusters_lowers_entropy(self, counts):
        merged = [counts[0] + counts[1]] + counts[2:]
        fine = discrete_semantic_entropy(cluster_distribution(counts)).value
        coarse = discrete_semantic_entropy(cluster_distribution(merged)).value
        assert coarse < fine + 1e-12

    def test_exhaustive_small_partitions_match_oracle(self):
        for k in range(1, 9):
            for partition in integer_partitions(k):
                value = discrete_semantic_entropy(cluster_distribution(partition)).value
                assert value == pytest.approx(entropy_oracle(partition), abs=1e-12)

    def test_random_k15_partitions_match_oracle(self):
        rng = random.Random(4242)
        for _ in range(200):
            counts = random_partition(rng, 15)
            value = discrete_semantic_entropy(cluster_distribution(counts)).value
            assert value == pytest.approx(entropy_oracle(counts), abs=1e-12)


class TestEntropyValue:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid sample count"):
            EntropyValue(value=0.0, sample_count=0)
        with pytest.raises(ValueError):
            EntropyValue(value=-0.5, sample_count=15)
        with pytest.raises(ValueError):
            EntropyValue(value=math.log10(15) + 1e-6, sample_count=15)
        # At the ceiling (within tolerance) is legal.
        EntropyValue(value=math.log10(15), sample_count=15)


class TestMaxEntropy:
    def test_value(self):
        assert max_entropy(15) == pytest.approx(math.log10(15), abs=0)
        assert max_entropy(1) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            max_entropy(0)


class TestGate:
    def test_boundary_is_inclusive(self):
        entropy = EntropyValue(0.6, 15)
        assert gate(entropy, 0.6).accepted
        assert gate(entropy, 0.60000001).accepted
        assert not gate(entropy, 0.59999999).accepted

    def test_zero_entropy_accepted_at_zero_threshold(self):
        assert gate(EntropyValue(0.0, 15), 0.0).accepted

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_invalid_threshold(self, bad):
        with pytest.raises(ValueError, match="invalid threshold"):
            gate(EntropyValue(0.5, 15), bad)

    def test_decision_consistency_enforced(self):
        entropy = EntropyValue(0.5, 15)
        with pytest.raises(ValueError):
            GateDecision(entropy=entropy, threshold=0.3, accepted=True)
        decision = GateDecision(entropy=entropy, threshold=0.3, accepted=False)
        assert not decision.accepted
