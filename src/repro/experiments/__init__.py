"""Experiment runners: one per paper table/figure plus ablations."""

from ..core.runtime import validate_workers
from .config import FAST, FULL, ExperimentConfig
from .harness import (
    FigureResult,
    Series,
    TableResult,
    figure_to_csv,
    render_figure,
    render_table,
    run_with_manifest,
    table_to_csv,
)
from .table1 import Table1Row, collect_slems, run_table1, table1_result
from .lower_bounds import lower_bound_figure, run_figure1, run_figure2
from .cdfs import cdf_figure, measure_physics, run_figure3, run_figure4
from .temporal import run_fig3_over_time, trend_measurements
from .bound_vs_sampling import bound_vs_sampling_figure, run_figure5
from .trimming import TrimLevel, run_figure6, trim_levels, trim_summary_table
from .scaling import run_figure7
from .admission import FIGURE8_DATASETS, admission_curve, run_figure8
from .adversarial import (
    ADVERSARIAL_DEFENSES,
    AdversarialKnobs,
    AdversarialSweepResult,
    adversarial_sweep,
    default_adversarial_knobs,
    run_adversarial_sweep,
    run_defense_admission,
)
from .whanau_tails import (
    run_whanau_tails,
    tail_arc_distribution,
    tail_arc_distributions,
)
from .whanau_lookup import run_whanau_lookup
from .sybilguard_admission import run_sybilguard_admission
from .sybilrank_iterations import run_sybilrank_iterations
from .replication import ReplicaStats, replication_table, run_replication
from .average_case import AverageCaseRow, average_case_table, run_average_case
from .trust_models import run_trust_models
from .directed_conversion import make_directed_standin, run_directed_conversion
from .ablations import (
    run_conductance_ablation,
    run_sampling_bias_ablation,
    run_sybil_bound_ablation,
)

__all__ = [
    "FAST",
    "FULL",
    "ExperimentConfig",
    "validate_workers",
    "FigureResult",
    "Series",
    "TableResult",
    "render_figure",
    "render_table",
    "run_with_manifest",
    "figure_to_csv",
    "table_to_csv",
    "Table1Row",
    "collect_slems",
    "run_table1",
    "table1_result",
    "lower_bound_figure",
    "run_figure1",
    "run_figure2",
    "cdf_figure",
    "measure_physics",
    "run_figure3",
    "run_figure4",
    "run_fig3_over_time",
    "trend_measurements",
    "bound_vs_sampling_figure",
    "run_figure5",
    "TrimLevel",
    "run_figure6",
    "trim_levels",
    "trim_summary_table",
    "run_figure7",
    "FIGURE8_DATASETS",
    "admission_curve",
    "run_figure8",
    "ADVERSARIAL_DEFENSES",
    "AdversarialKnobs",
    "AdversarialSweepResult",
    "adversarial_sweep",
    "default_adversarial_knobs",
    "run_adversarial_sweep",
    "run_defense_admission",
    "run_whanau_tails",
    "run_whanau_lookup",
    "run_sybilguard_admission",
    "run_sybilrank_iterations",
    "ReplicaStats",
    "replication_table",
    "run_replication",
    "tail_arc_distribution",
    "tail_arc_distributions",
    "AverageCaseRow",
    "average_case_table",
    "run_average_case",
    "run_trust_models",
    "make_directed_standin",
    "run_directed_conversion",
    "run_conductance_ablation",
    "run_sampling_bias_ablation",
    "run_sybil_bound_ablation",
]
