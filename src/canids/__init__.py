"""CAN-bus intrusion detection toolkit.

Pipeline: parse challenge-CSV logs (canlog) or generate synthetic traffic
(synth), extract the 67-column feature matrix (features), fit supervised
or semi-supervised detectors (trees, neighbors, density, autoencoder via
detectors), and evaluate/compare them (metrics, harness) from the canids
CLI.
"""

from .canlog import (
    CanRecord,
    CleaningStats,
    Label,
    RecordBatch,
    clean,
    hex_to_decimal,
    load_log,
    parse_line,
    render_line,
)
from .features import (
    FeatureMatrix,
    Standardizer,
    compute_intervals,
    extract,
    fit_standardizer,
    select_subset,
)
from .metrics import ConfusionCounts, ScoredLabels, confusion, roc_auc
from .detectors import make_detector, ALL_MODELS
from .harness import (
    ExperimentConfig,
    EvalReport,
    emit_report,
    grid_search,
    run_ablation,
    run_comparison,
)
from .synth import AttackSpec, TrafficProfile, benchmark_batch, generate_normal, inject_attack

__version__ = "0.1.0"
