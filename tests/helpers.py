"""Independent oracles and generators shared across the test suite.

The oracles deliberately avoid the package's own code paths: entropy is
recomputed with 50-digit arbitrary-precision arithmetic, components
are recovered by breadth-first search over the edge set, and the paired
bootstrap resamples question indices.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
from mpmath import mp, mpf


def entropy_oracle(counts, dps: int = 50) -> float:
    """Arbitrary-precision -sum(p*log10(p)) over cluster counts."""
    with mp.workdps(dps):
        total = mpf(sum(counts))
        acc = mpf(0)
        for count in counts:
            if count > 0:
                p = mpf(count) / total
                acc -= p * mp.log(p, 10)
        return float(acc)


def integer_partitions(n: int):
    """All partitions of n as nonincreasing tuples (exhaustive)."""

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def random_partition(rng: random.Random, n: int) -> list[int]:
    """One uniform-ish random partition of n into positive parts."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    parts = []
    prev = 0
    for cut in cuts + [n]:
        parts.append(cut - prev)
        prev = cut
    return parts


def random_equivalence_classes(rng: random.Random, k: int) -> list[list[int]]:
    """A random partition of range(k) into equivalence classes."""
    classes: list[list[int]] = []
    for index in range(k):
        if classes and rng.random() < 0.7:
            rng.choice(classes).append(index)
        else:
            classes.append([index])
    for members in classes:
        members.sort()
    classes.sort(key=lambda c: c[0])
    return classes


def components_by_bfs(k: int, edges) -> list[list[int]]:
    """Connected components of an undirected graph, breadth-first."""
    adjacency: dict[int, set[int]] = {i: set() for i in range(k)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    components = []
    for start in range(k):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        component = []
        while queue:
            node = queue.popleft()
            component.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(component))
    return components


def refines(finer, coarser) -> bool:
    """True when every block of ``finer`` sits inside one ``coarser`` block."""
    block_of = {}
    for index, block in enumerate(coarser):
        for member in block:
            block_of[member] = index
    for block in finer:
        owners = {block_of[member] for member in block}
        if len(owners) != 1:
            return False
    return True


def bootstrap_oracle(results, threshold, iterations, seed, chunk=1000):
    """Paired bootstrap by index resampling: (ci_low, ci_high, p_value).

    Draws n question indices per resample and drops resamples that retain
    nothing.  Its draws differ from ``bootstrap_delta``'s cell counts, so
    tests compare the resulting CI bounds and p-values, not the draws.
    """
    correct = np.array([r.correct for r in results], dtype=np.float64)
    retained = np.array([r.entropy <= threshold for r in results])
    rng = np.random.default_rng(seed)
    deltas = np.empty(0)
    while deltas.size < iterations:
        idx = rng.integers(0, len(results), size=(chunk, len(results)))
        hits, kept = correct[idx], retained[idx]
        ok = kept.any(axis=1)
        filtered = (hits * kept).sum(axis=1)[ok] / kept.sum(axis=1)[ok]
        deltas = np.append(deltas, 100.0 * (filtered - hits.mean(axis=1)[ok]))
    deltas = deltas[:iterations]
    ci_low, ci_high = np.percentile(deltas, [2.5, 97.5])
    tail = min(np.mean(deltas <= 0.0), np.mean(deltas >= 0.0))
    return float(ci_low), float(ci_high), min(1.0, max(2.0 * tail, 1.0 / iterations))
