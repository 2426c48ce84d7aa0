"""Discrete semantic entropy over answer clusters, and threshold gating.

Everything in this module is a pure function over immutable values: a
partition of k sampled answers into meaning-equivalent clusters is reduced
to its cluster-size distribution, the Shannon entropy of that distribution
(base 10, so the value is in dits) scores the semantic dispersion of the
answers, and a threshold comparison turns the score into an accept/reject
decision.  Low entropy means the model answered consistently; high entropy
flags a question as hallucination-prone.

Conventions
-----------
* Logarithms are base 10 throughout.  With k samples the entropy lies in
  [0, log10(k)]: 0 when all samples share one cluster, log10(k) when every
  sample is its own cluster.  Callers wanting nats or bits convert outside.
* Threshold comparison is inclusive: an entropy exactly equal to the
  threshold is accepted.
* Invariant checks use an absolute tolerance of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_TOL = 1e-12


@dataclass(frozen=True)
class ClusterDistribution:
    """Cluster sizes of a semantic partition and their relative frequencies.

    ``probabilities[i] = counts[i] / total`` with ``total = sum(counts)``.
    Every count must be at least 1, so every probability is in (0, 1].
    """

    counts: tuple[int, ...]
    total: int = field(init=False)
    probabilities: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not self.counts:
            raise ValueError("no clusters")
        if any((not isinstance(c, int)) or c < 1 for c in self.counts):
            raise ValueError(f"invalid cluster size in {self.counts}")
        total = sum(self.counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(
            self, "probabilities", tuple(c / total for c in self.counts)
        )
        assert abs(sum(self.probabilities) - 1.0) <= _TOL


@dataclass(frozen=True)
class EntropyValue:
    """A discrete semantic entropy in dits, tied to its sample count k."""

    value: float
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("invalid sample count")
        upper = math.log10(self.sample_count) + _TOL
        if not 0.0 <= self.value <= upper:
            raise ValueError(
                f"entropy {self.value} outside [0, log10({self.sample_count})]"
            )


@dataclass(frozen=True)
class GateDecision:
    """Outcome of comparing an entropy against an acceptance threshold."""

    entropy: EntropyValue
    threshold: float
    accepted: bool

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("invalid threshold")
        if self.accepted != (self.entropy.value <= self.threshold):
            raise ValueError("accepted flag inconsistent with entropy/threshold")


def cluster_distribution(cluster_sizes: list[int] | tuple[int, ...]) -> ClusterDistribution:
    """Relative frequency of each cluster among the sampled answers.

    Order of the input sizes is preserved in the probabilities.  Raises
    ``ValueError`` on an empty list ("no clusters") or any size < 1
    ("invalid cluster size").
    """
    return ClusterDistribution(counts=tuple(cluster_sizes))


def discrete_semantic_entropy(dist: ClusterDistribution) -> EntropyValue:
    """Shannon entropy (base 10) of the cluster distribution.

    ``-sum(p * log10(p))`` over the cluster probabilities.  A single
    cluster gives exactly 0.0; k singleton clusters give log10(k).  No p
    is 0: ``ClusterDistribution`` holds no empty cluster.
    """
    h = 0.0
    for p in dist.probabilities:
        h -= p * math.log10(p)
    return EntropyValue(value=h, sample_count=dist.total)


def max_entropy(k: int) -> float:
    """Largest possible entropy with k samples: log10(k).

    Reached when every sample is its own cluster.
    """
    if k < 1:
        raise ValueError("invalid sample count")
    return math.log10(k)


def gate(entropy: EntropyValue, threshold: float) -> GateDecision:
    """Accept the question iff its entropy is at or below the threshold.

    The boundary is inclusive: ``entropy.value == threshold`` is accepted.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError("invalid threshold")
    return GateDecision(
        entropy=entropy,
        threshold=threshold,
        accepted=entropy.value <= threshold,
    )
