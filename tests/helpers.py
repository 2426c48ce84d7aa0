"""Independent oracles and generators shared across the test suite.

The oracles deliberately avoid the package's own code paths: entropy is
recomputed with 50-digit arbitrary-precision arithmetic, components
are recovered by breadth-first search over the edge set, the paired
bootstrap resamples question indices (or, for a few questions, its exact
distribution is enumerated), threshold sweeps rescan every result at
every threshold, and a mock run's numbers are derived from its script.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from types import SimpleNamespace

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


def exact_deltas(results, threshold):
    """The paired bootstrap's exact delta distribution, {delta: probability}.

    Enumerates every way n resampled questions fall into the four
    retained/rejected x correct/incorrect cells, with its multinomial
    probability, drops the ways that retain nothing and renormalises.  The
    delta is computed as ``bootstrap_delta`` computes it, so equal counts
    give equal floats.  Meant for a few questions: the ways number
    C(n + 3, 3).
    """
    n = len(results)
    cells = [0, 0, 0, 0]  # retained correct, retained wrong, rejected correct, rejected wrong
    for r in results:
        cells[2 * (r.entropy > threshold) + (not r.correct)] += 1
    dist = {}
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                counts = (a, b, c, n - a - b - c)
                if a + b == 0:
                    continue
                probability = math.factorial(n)
                for count, members in zip(counts, cells):
                    probability *= (members / n) ** count / math.factorial(count)
                if probability:
                    delta = (a / (a + b) - (a + c) / n) * 100.0
                    dist[delta] = dist.get(delta, 0.0) + probability
    total = sum(dist.values())
    return {delta: probability / total for delta, probability in dist.items()}


def threshold_scan(results, thresholds):
    """Rescan all results at each threshold: one (threshold, retained,
    total, coverage, accuracy, delta) tuple per threshold, accuracy and
    delta None when nothing is retained."""
    total = len(results)
    baseline = 100.0 * sum(1 for r in results if r.correct) / total
    rows = []
    for threshold in thresholds:
        kept = [r for r in results if r.entropy <= threshold]
        accuracy = 100.0 * sum(1 for r in kept if r.correct) / len(kept) if kept else None
        delta = None if accuracy is None else accuracy - baseline
        rows.append((threshold, len(kept), total, len(kept) / total, accuracy, delta))
    return rows


def _mock_judge(spec: dict):
    """The mock judge's rule.  ``random``: the premise entails the hypothesis
    when the first 8 bytes of sha256("<seed>\\x1f<premise>\\x1f<hypothesis>"),
    read as a fraction of 2**64, fall below ``p_entail``; neither symmetric
    nor transitive.  Otherwise texts in listed classes entail each other
    when their classes agree (a text listed twice takes its last class),
    and any other text entails only itself."""
    if spec.get("rule") == "random":
        def drawn(premise: str, hypothesis: str) -> bool:
            digest = hashlib.sha256(f"{spec['seed']}\x1f{premise}\x1f{hypothesis}".encode())
            return int(digest.hexdigest()[:16], 16) < spec["p_entail"] * 2**64

        return drawn
    classes = {}
    if spec.get("rule") == "equivalence-classes":
        for number, members in enumerate(spec["classes"]):
            for member in members:
                classes[member] = number

    def entails(premise: str, hypothesis: str) -> bool:
        if premise in classes and hypothesis in classes:
            return classes[premise] == classes[hypothesis]
        return premise == hypothesis

    return entails


def greedy_scan(k: int, edges) -> list[list[int]]:
    """Scan 0..k-1; each joins the first cluster whose lowest member it
    shares an edge with, else opens a cluster."""
    linked = set(edges) | {(b, a) for a, b in edges}
    clusters: list[list[int]] = []
    for index in range(k):
        for cluster in clusters:
            if (index, cluster[0]) in linked:
                cluster.append(index)
                break
        else:
            clusters.append([index])
    return clusters


def pipeline_oracle(corpus, script, k: int, policy: str, thresholds=(0.6, 0.3),
                    price: float = 10.0) -> dict:
    """What ``sample``, ``cluster --policy <policy>``, ``grade``
    (normalized-exact) and ``report`` give for the mock ``script`` over
    ``corpus`` (its records as dicts), derived from the script alone.  The
    answers and references must be drawn already normalised, so a grade is
    plain equality.

    Returns ``questions`` by id, each with its ``partition`` (sorted index
    lists: connected components, or a greedy scan), ``dse``, ``correct``
    and ``pairs`` (the distinct ordered text pairs judged); ``calls`` by
    role; ``outcomes`` and ``subgroups`` as ``threshold_scan`` rows
    (``subgroups`` by (dataset, subgroup), each with its baseline
    accuracy); and ``cost``.
    """
    entails = _mock_judge(script.get("judge", {"rule": "equality"}))
    questions = {}
    for record in corpus:
        answers = script["answers"][record["id"]]
        texts = answers["sample"][:k]
        pairs = {(texts[i], texts[j]) for i in range(k) for j in range(k) if i != j}
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)
                 if entails(texts[i], texts[j]) and entails(texts[j], texts[i])]
        partition = (components_by_bfs(k, edges) if policy == "connected-components"
                     else greedy_scan(k, edges))
        questions[record["id"]] = {
            "partition": sorted(partition),
            "dse": entropy_oracle([len(block) for block in partition]),
            "correct": answers["baseline"][0] == record["reference"],
            "pairs": len(pairs),
            "dataset": record["dataset"],
            "subgroup": record["subgroup"],
        }
    results = []
    groups: dict = {}
    for question in questions.values():
        result = SimpleNamespace(entropy=question["dse"], correct=question["correct"])
        results.append(result)
        groups.setdefault((question["dataset"], question["subgroup"]), []).append(result)
    n = len(questions)
    judged = sum(q["pairs"] for q in questions.values())
    per_call = script["tokens_in"] + script["tokens_out"]
    latency = script["latency_ms"]
    sampling, entailment = n * (k + 1) * per_call, judged * per_call
    total = (sampling + entailment) * price / 1e6
    return {
        "questions": questions,
        "calls": {"sample": n * (k + 1), "judge": judged},
        "outcomes": threshold_scan(results, thresholds),
        "subgroups": {
            name: (100.0 * sum(r.correct for r in members) / len(members),
                   threshold_scan(members, thresholds))
            for name, members in sorted(groups.items())
        },
        "cost": {
            "sampling_tokens": sampling,
            "entailment_tokens": entailment,
            "sampling_cost": sampling * price / 1e6,
            "entailment_cost": entailment * price / 1e6,
            "total_cost": total,
            "mean_call_latency_ms": latency,
            "pipeline_latency_ms": 2 * latency,
            "incomplete_records": 0,
            "estimated_records": 0,
            "questions": n,
            "mean_cost_per_question": total / n,
            "price_per_million_tokens": price,
        },
    }
