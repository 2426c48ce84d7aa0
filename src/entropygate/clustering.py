"""Semantic clustering of sampled answers via pairwise mutual entailment.

k sampled answers are partitioned into meaning-equivalent clusters by
judging each distinct ordered pair of their texts (premise, hypothesis)
once with an entailment judge, and linking two answers only when each text
entails the other.  Entailment in a single direction is not enough: "axial
CT with contrast" entails "CT" without the reverse holding, and such pairs
stay separate.  The graph comes straight from those text-pair verdicts; the
k*(k-1) index matrix is built only for the library functions that return
one, ``cluster_answers`` and ``load_audit_record``.

Because judged verdicts need not be transitive, turning the mutual
entailment relation into a partition needs a policy:

* ``connected-components`` (default): clusters are the connected
  components of the undirected mutual-entailment graph.
* ``greedy-representative``: scan answers in index order and join the
  first existing cluster whose representative (its lowest-index member)
  is mutually entailed with the answer, else open a new cluster.  This is
  the assignment scheme common in text-only semantic-uncertainty code; it
  always refines (or equals) the component partition on the same graph.

The chosen policy is recorded on the result so runs are auditable.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import scheduler
from .errors import (
    IncompleteMatrixError, JudgingError, compact_json, holds, read_bytes, write_bytes,
)

LABEL_ENTAILS = "entails"
LABEL_NOT_ENTAILS = "does-not-entail"

POLICY_COMPONENTS = "connected-components"
POLICY_GREEDY = "greedy-representative"
POLICIES = (POLICY_COMPONENTS, POLICY_GREEDY)


@dataclass(frozen=True)
class EntailmentVerdict:
    """One directed entailment judgment: does premise entail hypothesis?

    ``label`` is parsed deterministically from ``raw_judge_output`` (see
    ``gateway.parse_entailment_reply``); the raw text is kept verbatim for
    audit.  Token and latency fields are optional accounting attached by
    live backends; ``estimated_tokens`` marks counts the backend estimated
    because the endpoint sent none.
    """

    premise_index: int
    hypothesis_index: int
    label: str
    raw_judge_output: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    latency_ms: float = 0.0
    estimated_tokens: bool = False

    def __post_init__(self):
        if self.premise_index == self.hypothesis_index:
            raise ValueError("a verdict must relate two distinct samples")
        if self.label not in (LABEL_ENTAILS, LABEL_NOT_ENTAILS):
            raise ValueError(f"unknown verdict label {self.label!r}")

    @property
    def entails(self) -> bool:
        return self.label == LABEL_ENTAILS


# The fields of one ``calls`` row of an audit record, in order: those of the
# verdict one judge call gave, for the first index pair with the call's texts.
CALL_FIELDS = tuple(f.name for f in fields(EntailmentVerdict))

# A verdict's fields after its two pair indices.
_verdict_fields = operator.attrgetter(*CALL_FIELDS[2:])


# An entailment judge: (question context, premise text, hypothesis text) ->
# EntailmentVerdict.  judging_job overwrites the indices on the returned
# verdict with those of the first index pair that has the two texts.
Judge = Callable[[str, str, str], EntailmentVerdict]


@dataclass
class EntailmentMatrix:
    """The directed verdicts for one question's k samples, by index pair.

    Complete when every ordered pair (i, j), i != j, has a verdict
    (``missing_pairs`` lists the others): exactly k*(k-1) entries.
    """

    k: int
    verdicts: dict[tuple[int, int], EntailmentVerdict] = field(default_factory=dict)

    def missing_pairs(self) -> list[tuple[int, int]]:
        return [p for p in required_checks(self.k) if p not in self.verdicts]


@dataclass(frozen=True)
class EntailmentGraph:
    """Undirected mutual-entailment graph: edge {i, j} iff i<->j entail."""

    k: int
    edges: frozenset[tuple[int, int]]  # normalized (i, j) with i < j

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.k):
                raise ValueError(f"edge ({i}, {j}) invalid for k={self.k}")

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class SemanticClustering:
    """A partition of sample indices {0..k-1} into semantic clusters."""

    k: int
    clusters: tuple[tuple[int, ...], ...]
    policy: str

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown clustering policy {self.policy!r}")
        seen: list[int] = []
        for cluster in self.clusters:
            if not cluster:
                raise ValueError("empty cluster in partition")
            seen.extend(cluster)
        if sorted(seen) != list(range(self.k)):
            raise ValueError("clusters do not form a partition of the samples")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)


def required_checks(k: int) -> list[tuple[int, int]]:
    """All ordered index pairs to judge for k samples, in lexicographic order.

    Self-pairs are never judged (an answer always entails itself), so the
    list has exactly k*(k-1) entries.
    """
    if k < 1:
        raise ValueError("invalid sample count")
    return [(i, j) for i in range(k) for j in range(k) if i != j]


def mutual_entailment_graph(matrix: EntailmentMatrix) -> EntailmentGraph:
    """Edge {i, j} iff verdict(i->j) and verdict(j->i) are both "entails".

    Raises ``IncompleteMatrixError`` when any ordered pair lacks a verdict.
    """
    missing = matrix.missing_pairs()
    if missing:
        raise IncompleteMatrixError(missing)
    verdicts = matrix.verdicts
    return _graph(matrix.k, lambda i, j: verdicts[(i, j)].entails)


def _graph(k: int, entails: Callable[[int, int], bool]) -> EntailmentGraph:
    """Edge {i, j} iff ``entails(i, j)`` and ``entails(j, i)``."""
    edges = ((i, j) for i in range(k) for j in range(i + 1, k) if entails(i, j) and entails(j, i))
    return EntailmentGraph(k=k, edges=frozenset(edges))


def assemble_clusters(graph: EntailmentGraph, policy: str = POLICY_COMPONENTS) -> SemanticClustering:
    """Turn a mutual-entailment graph into a partition under a policy."""
    if policy == POLICY_COMPONENTS:
        clusters = _connected_components(graph)
    elif policy == POLICY_GREEDY:
        clusters = _greedy_representative(graph)
    else:
        raise ValueError(f"unknown clustering policy {policy!r}")
    return SemanticClustering(k=graph.k, clusters=clusters, policy=policy)


def _connected_components(graph: EntailmentGraph) -> tuple[tuple[int, ...], ...]:
    # Union-find with path compression; union by attaching larger root.
    parent = list(range(graph.k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in graph.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            # keep the smaller index as root so output ordering is stable
            if ri < rj:
                parent[rj] = ri
            else:
                parent[ri] = rj

    groups: dict[int, list[int]] = {}
    for v in range(graph.k):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def _greedy_representative(graph: EntailmentGraph) -> tuple[tuple[int, ...], ...]:
    clusters: list[list[int]] = []
    for v in range(graph.k):
        for cluster in clusters:
            rep = cluster[0]  # lowest index, since v only grows
            if graph.has_edge(v, rep):
                cluster.append(v)
                break
        else:
            clusters.append([v])
    return tuple(tuple(c) for c in clusters)


def judging_job(
    question_id: str,
    samples: list[str],
    judge: Judge,
    context: str,
    policy: str,
    done: Callable[[SemanticClustering, list[EntailmentVerdict]], None],
) -> scheduler.Job:
    """One question's judge calls as a scheduler job, keyed by text pair.

    It lists each distinct (premise, hypothesis) text pair of
    ``required_checks`` once, in that order; a call's verdict carries the
    first index pair with its texts.  Edge {i, j} holds iff the verdicts for
    (t_i, t_j) and (t_j, t_i) both entail; ``done(partition, calls)`` gets
    the partition under ``policy`` and the verdicts in call order.  Raises
    ``JudgingError`` with every index pair whose texts' call failed after
    the backend's retries, and the first such call's error.
    """
    first: dict[tuple[str, str], tuple[int, int]] = {}
    for i, j in required_checks(len(samples)):
        first.setdefault((samples[i], samples[j]), (i, j))

    def call(texts: tuple[str, str]) -> EntailmentVerdict:
        return EntailmentVerdict(*first[texts], *_verdict_fields(judge(context, *texts)))

    def finish(results: dict, errors: dict) -> None:
        if errors:
            failed = [(i, j) for i, j in required_checks(len(samples))
                      if (samples[i], samples[j]) in errors]
            raise JudgingError(failed, errors[min(errors, key=first.get)])
        entails = {texts: verdict.entails for texts, verdict in results.items()}
        graph = _graph(len(samples), lambda i, j: entails[samples[i], samples[j]])
        done(assemble_clusters(graph, policy), [results[texts] for texts in first])

    return scheduler.Job(question_id, list(first), call, finish)


def cluster_answers(
    samples: list[str],
    judge: Judge,
    context: str,
    policy: str = POLICY_COMPONENTS,
) -> tuple[SemanticClustering, EntailmentMatrix]:
    """Judge all ordered pairs of answers and assemble semantic clusters.

    Runs ``judging_job`` on the CLI's scheduler at one worker: one call per
    distinct text pair, in ``required_checks`` order, so k distinct texts
    take exactly k*(k-1).  If any failed after the backend's retries,
    raises ``JudgingError`` listing the failed pairs; behind the
    record/replay cache, a rerun repeats only those calls.
    """
    if not samples:
        raise ValueError("need at least one sample")
    outcome = []
    job = judging_job("", samples, judge, context, policy, lambda *result: outcome.extend(result))
    failures = scheduler.run_jobs(1, [job])
    if failures:
        raise failures[0][1]
    return outcome[0], _matrix(samples, outcome[1])


def _matrix(samples: list[str], calls: list[EntailmentVerdict]) -> EntailmentMatrix:
    """The index matrix of text-pair verdicts: each pair (i, j) of
    ``required_checks`` gets the verdict whose two indices name its texts,
    so it holds every verdict the calls decide (all k*(k-1) for a full set)."""
    by_texts = {(samples[v.premise_index], samples[v.hypothesis_index]): v for v in calls}
    verdicts = {}
    for i, j in required_checks(len(samples)):
        verdict = by_texts.get((samples[i], samples[j]))
        if verdict is not None:
            verdicts[(i, j)] = EntailmentVerdict(i, j, *_verdict_fields(verdict))
    return EntailmentMatrix(k=len(samples), verdicts=verdicts)


# ---------------------------------------------------------------------------
# Audit records
# ---------------------------------------------------------------------------

def audit_record(
    question_id: str,
    samples: list[str],
    calls: list[EntailmentVerdict],
    clustering: SemanticClustering,
    dse: float,
) -> dict:
    """Serializable per-question audit record.

    Holds everything needed to re-derive (or dispute) the partition: the
    sample texts, the policy, the resulting clusters, the entropy, and
    ``calls``: one row for each verdict in ``calls``, the judge calls
    ``judging_job`` made, in the order it made them.  Each row is a
    positional array of ``CALL_FIELDS``: the indices of the first pair of
    ``required_checks`` with the call's (premise, hypothesis) texts, and the
    verdict's label, raw judge output, token counts, latency and
    estimated-tokens flag.
    """
    return {
        "question_id": question_id,
        "k": clustering.k,
        "policy": clustering.policy,
        "samples": list(samples),
        "calls": [[v.premise_index, v.hypothesis_index, *_verdict_fields(v)] for v in calls],
        "clusters": [list(c) for c in clustering.clusters],
        "cluster_sizes": list(clustering.sizes),
        "dse": dse,
    }


def load_audit_record(data: dict) -> tuple[str, list[str], EntailmentMatrix, SemanticClustering, float]:
    """Inverse of ``audit_record``, with the index matrix of its call rows:
    each pair (i, j) of ``required_checks`` gets the verdict of the row
    whose two indices name its texts."""
    samples = list(data["samples"])
    matrix = _matrix(samples, [EntailmentVerdict(*row) for row in data["calls"]])
    clustering = SemanticClustering(data["k"], tuple(map(tuple, data["clusters"])), data["policy"])
    return data["question_id"], samples, matrix, clustering, data["dse"]


def write_audit_record(path: str | Path, record: dict) -> None:
    """Write an audit record to ``path`` as one compact JSON object, only if
    its content changed, in place and not through ``write_text_atomic``: a
    torn record does not parse, so the CLI redoes it, and a temp file per
    record slowed a 706-question stage 30%."""
    data = (compact_json(record) + "\n").encode("utf-8")
    if not holds(path, data):
        write_bytes(path, data)


def read_audit_record(path: str | Path) -> dict:
    """A record as ``write_audit_record`` stores it, or in an older indented layout."""
    return json.loads(read_bytes(path))
