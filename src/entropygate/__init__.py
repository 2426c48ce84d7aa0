"""Hallucination gating for black-box vision-language model APIs.

Sample a question several times at high temperature, cluster the answers
by mutual entailment, and measure the entropy of the cluster distribution.
Consistent models concentrate their samples in one cluster (entropy near
zero); an unstable answer spreads across many (entropy up to log10(k)).
Questions above an entropy threshold are abstained from, and the
evaluation tools quantify the accuracy/coverage trade-off with paired
bootstrap statistics.

Typical flow: build a corpus (``corpus``), draw samples and judge
entailment through a backend (``gateway``), assemble clusters
(``clustering``), score entropy and gate (``entropy``), evaluate
(``evaluation``).  The ``entropygate`` command line drives the same
pipeline with resumable on-disk stages.
"""

from .entropy import (
    ClusterDistribution,
    EntropyValue,
    GateDecision,
    cluster_distribution,
    discrete_semantic_entropy,
    gate,
    max_entropy,
)
from .clustering import (
    LABEL_ENTAILS,
    LABEL_NOT_ENTAILS,
    POLICY_COMPONENTS,
    POLICY_GREEDY,
    EntailmentGraph,
    EntailmentMatrix,
    EntailmentVerdict,
    SemanticClustering,
    assemble_clusters,
    cluster_answers,
    mutual_entailment_graph,
    required_checks,
)
from .gateway import (
    AnswerSample,
    Backend,
    BackendConfig,
    CachingBackend,
    CostEstimate,
    HttpBackend,
    MockBackend,
    ModelReply,
    ModelRequest,
    account_usage,
    cache_key,
    entailment_judge,
    equality_judge,
    judge_entailment,
    parse_entailment_reply,
    sample_answers,
)
from .corpus import (
    GradedAnswer,
    ImageQuestion,
    grade,
    import_grades,
    load_corpus,
    load_rad_dataset,
    load_vqa_med,
    normalize_text,
    write_corpus,
)
from .evaluation import (
    BootstrapResult,
    CurvePoint,
    FilterOutcome,
    FlowEdge,
    QuestionResult,
    bonferroni_significant,
    bootstrap_delta,
    coverage_curve,
    sankey_export,
    selective_accuracy,
    subgroup_report,
)
from .errors import (
    BackendError,
    CorpusFormatError,
    EmptyRetainedSetError,
    EntropyGateError,
    GradingError,
    IncompleteMatrixError,
    JudgingError,
    SamplingIncompleteError,
    UnknownQuestionIdsError,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterDistribution",
    "EntropyValue",
    "GateDecision",
    "cluster_distribution",
    "discrete_semantic_entropy",
    "gate",
    "max_entropy",
    "LABEL_ENTAILS",
    "LABEL_NOT_ENTAILS",
    "POLICY_COMPONENTS",
    "POLICY_GREEDY",
    "EntailmentGraph",
    "EntailmentMatrix",
    "EntailmentVerdict",
    "SemanticClustering",
    "assemble_clusters",
    "cluster_answers",
    "mutual_entailment_graph",
    "required_checks",
    "AnswerSample",
    "Backend",
    "BackendConfig",
    "CachingBackend",
    "CostEstimate",
    "HttpBackend",
    "MockBackend",
    "ModelReply",
    "ModelRequest",
    "account_usage",
    "cache_key",
    "entailment_judge",
    "equality_judge",
    "judge_entailment",
    "parse_entailment_reply",
    "sample_answers",
    "GradedAnswer",
    "ImageQuestion",
    "grade",
    "import_grades",
    "load_corpus",
    "load_rad_dataset",
    "load_vqa_med",
    "normalize_text",
    "write_corpus",
    "BootstrapResult",
    "CurvePoint",
    "FilterOutcome",
    "FlowEdge",
    "QuestionResult",
    "bonferroni_significant",
    "bootstrap_delta",
    "coverage_curve",
    "sankey_export",
    "selective_accuracy",
    "subgroup_report",
    "BackendError",
    "CorpusFormatError",
    "EmptyRetainedSetError",
    "EntropyGateError",
    "GradingError",
    "IncompleteMatrixError",
    "JudgingError",
    "SamplingIncompleteError",
    "UnknownQuestionIdsError",
    "__version__",
]
