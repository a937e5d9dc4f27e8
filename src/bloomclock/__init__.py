"""Bloom clocks: probabilistic causality testing with a vector-clock oracle.

The package pairs a counting-Bloom-filter timestamp (``BloomClock``) with
the exact ``VectorClock`` oracle, evaluates the positive / false-positive
probability estimators for event pairs, and reproduces slice metrics
(precision, accuracy, fpr, causality spread) from deterministic seeded
simulations of complete-graph, client-server and broadcast executions.
"""

from .clocks import BloomClock, HashFamily, VectorClock
from .errors import ConfigurationError, NumericError
from .experiments import (
    SweepSpec,
    average_over,
    ratio_to_width,
    run_experiment,
    run_sweep,
    write_artifacts_json,
    write_curve_csv,
    write_sweep_csv,
)
from .metrics import (
    ConfusionCounts,
    CurveRow,
    SliceSpec,
    causality_spread,
    classify_pair,
    compute_metrics,
    confusion_counts,
    probability_curve,
    sample_slice,
)
from .probability import (
    EXACT_CUTOFF,
    binom_pmf,
    classify_probabilities,
    count_threshold_cdf,
    poisson_cdf_via_gamma,
    pr_positive,
    regularized_gamma_q,
)
from .simulation import (
    EventRecord,
    ExecutionLog,
    ExperimentConfig,
    ReplayError,
    replay_timestamps,
    run,
)
from .trace import TraceParseError, load_trace, persist_trace

__version__ = "0.1.0"

__all__ = [
    "BloomClock",
    "ConfigurationError",
    "ConfusionCounts",
    "CurveRow",
    "EXACT_CUTOFF",
    "EventRecord",
    "ExecutionLog",
    "ExperimentConfig",
    "HashFamily",
    "NumericError",
    "ReplayError",
    "SliceSpec",
    "SweepSpec",
    "TraceParseError",
    "VectorClock",
    "average_over",
    "binom_pmf",
    "causality_spread",
    "classify_pair",
    "classify_probabilities",
    "compute_metrics",
    "confusion_counts",
    "count_threshold_cdf",
    "load_trace",
    "persist_trace",
    "poisson_cdf_via_gamma",
    "pr_positive",
    "probability_curve",
    "ratio_to_width",
    "regularized_gamma_q",
    "replay_timestamps",
    "run",
    "run_experiment",
    "run_sweep",
    "sample_slice",
    "write_artifacts_json",
    "write_curve_csv",
    "write_sweep_csv",
]
