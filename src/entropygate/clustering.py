"""Semantic clustering of sampled answers via pairwise mutual entailment.

k sampled answers are partitioned into meaning-equivalent clusters by
judging every ordered pair (premise, hypothesis) with an entailment judge
and linking two answers only when each entails the other.  Entailment in a
single direction is not enough: "axial CT with contrast" entails "CT"
without the reverse holding, and such pairs stay separate.

Because judged verdicts need not be transitive, turning the mutual
entailment relation into a partition needs a policy:

* ``connected-components`` (default): clusters are the connected
  components of the undirected mutual-entailment graph built from the
  full k*(k-1) verdict matrix.
* ``greedy-representative``: scan answers in index order and join the
  first existing cluster whose representative (its lowest-index member)
  is mutually entailed with the answer, else open a new cluster.  This is
  the assignment scheme common in text-only semantic-uncertainty code; it
  always refines (or equals) the component partition on the same graph.

The chosen policy is recorded on the result so runs are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import scheduler
from .errors import IncompleteMatrixError, JudgingError, read_record, write_record

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
    live backends.
    """

    premise_index: int
    hypothesis_index: int
    label: str
    raw_judge_output: str
    tokens_in: int | None = None
    tokens_out: int | None = None
    latency_ms: float = 0.0

    def __post_init__(self):
        if self.premise_index == self.hypothesis_index:
            raise ValueError("a verdict must relate two distinct samples")
        if self.label not in (LABEL_ENTAILS, LABEL_NOT_ENTAILS):
            raise ValueError(f"unknown verdict label {self.label!r}")

    @property
    def entails(self) -> bool:
        return self.label == LABEL_ENTAILS


# An entailment judge: (question context, premise text, hypothesis text) ->
# EntailmentVerdict.  The indices on the returned verdict are overwritten
# with the actual pair indices by judging_job.
Judge = Callable[[str, str, str], EntailmentVerdict]


@dataclass
class EntailmentMatrix:
    """All directed verdicts for one question's k samples.

    Complete when every ordered pair (i, j), i != j, has a verdict:
    exactly k*(k-1) entries.
    """

    k: int
    verdicts: dict[tuple[int, int], EntailmentVerdict] = field(default_factory=dict)

    def missing_pairs(self) -> list[tuple[int, int]]:
        return [p for p in required_checks(self.k) if p not in self.verdicts]

    @property
    def complete(self) -> bool:
        return len(self.verdicts) == self.k * (self.k - 1) and not self.missing_pairs()


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
    edges = set()
    for i in range(matrix.k):
        for j in range(i + 1, matrix.k):
            if matrix.verdicts[(i, j)].entails and matrix.verdicts[(j, i)].entails:
                edges.add((i, j))
    return EntailmentGraph(k=matrix.k, edges=frozenset(edges))


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
    done: Callable[[SemanticClustering, EntailmentMatrix], None],
) -> scheduler.Job:
    """One question's k*(k-1) judge calls as a scheduler job.

    Each pair (i, j) of ``required_checks`` is keyed by its two texts, so
    pairs with identical texts share one judge call.  The verdicts, with
    the pair's indices, give the matrix and the partition under ``policy``
    for ``done(partition, matrix)``.  Raises ``JudgingError`` with the pairs
    whose call failed after the backend's retries, and their first error.
    """

    def call(texts: tuple[str, str]) -> EntailmentVerdict:
        return judge(context, *texts)

    def finish(results: dict, errors: dict) -> None:
        if errors:
            raise JudgingError(list(errors), next(iter(errors.values())))
        verdicts = {
            (i, j): EntailmentVerdict(
                i, j, v.label, v.raw_judge_output, v.tokens_in, v.tokens_out, v.latency_ms
            )
            for (i, j), v in results.items()
        }
        matrix = EntailmentMatrix(k=len(samples), verdicts=verdicts)
        done(assemble_clusters(mutual_entailment_graph(matrix), policy), matrix)

    slots = {(i, j): (samples[i], samples[j]) for i, j in required_checks(len(samples))}
    return scheduler.Job(question_id, slots, call, finish)


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
    _, failures = scheduler.run_jobs(1, [job])
    if failures:
        raise failures[0][1]
    return tuple(outcome)


# ---------------------------------------------------------------------------
# Audit records
# ---------------------------------------------------------------------------

def audit_record(
    question_id: str,
    samples: list[str],
    matrix: EntailmentMatrix,
    clustering: SemanticClustering,
    dse: float,
) -> dict:
    """Serializable per-question audit record.

    Holds everything needed to re-derive (or dispute) the partition: the
    sample texts, the full verdict list in ``required_checks`` order with
    raw judge outputs, the policy, the resulting clusters, and the entropy.
    """
    ordered = []
    for i, j in required_checks(matrix.k):
        v = matrix.verdicts[(i, j)]
        ordered.append(
            {
                "premise": i,
                "hypothesis": j,
                "label": v.label,
                "raw": v.raw_judge_output,
                "tokens_in": v.tokens_in,
                "tokens_out": v.tokens_out,
                "latency_ms": v.latency_ms,
            }
        )
    return {
        "question_id": question_id,
        "k": matrix.k,
        "policy": clustering.policy,
        "samples": list(samples),
        "verdicts": ordered,
        "clusters": [list(c) for c in clustering.clusters],
        "cluster_sizes": list(clustering.sizes),
        "dse": dse,
    }


def _verdict(row: dict) -> EntailmentVerdict:
    """The verdict one row of an audit record's ``verdicts`` stores."""
    return EntailmentVerdict(
        premise_index=row["premise"],
        hypothesis_index=row["hypothesis"],
        label=row["label"],
        raw_judge_output=row["raw"],
        tokens_in=row.get("tokens_in"),
        tokens_out=row.get("tokens_out"),
        latency_ms=row.get("latency_ms", 0.0),
    )


def load_audit_record(data: dict) -> tuple[str, list[str], EntailmentMatrix, SemanticClustering, float]:
    """Inverse of ``audit_record``."""
    k = data["k"]
    verdicts = {(row["premise"], row["hypothesis"]): _verdict(row) for row in data["verdicts"]}
    matrix = EntailmentMatrix(k=k, verdicts=verdicts)
    clustering = SemanticClustering(
        k=k,
        clusters=tuple(tuple(c) for c in data["clusters"]),
        policy=data["policy"],
    )
    return data["question_id"], list(data["samples"]), matrix, clustering, data["dse"]


def judge_calls(data: dict) -> list[EntailmentVerdict]:
    """One verdict per judge call behind an audit record.

    ``judging_job`` sends pairs with the same (premise, hypothesis) texts
    as one call, made for the first such pair in ``required_checks`` order,
    which is the order of the record's rows; that pair's verdict stands
    for the call.
    """
    samples = data["samples"]
    calls: dict[tuple[str, str], dict] = {}
    for row in data["verdicts"]:
        calls.setdefault((samples[row["premise"]], samples[row["hypothesis"]]), row)
    return [_verdict(row) for row in calls.values()]


def write_audit_record(path: str | Path, record: dict) -> None:
    """Write an audit record through ``errors.write_record``: one compact
    JSON object, in place, and only if its content changed."""
    write_record(path, record)


def read_audit_record(path: str | Path) -> dict:
    return read_record(path)
