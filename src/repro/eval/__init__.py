"""Evaluation: metrics, cross-validation, and the experiment registry.

Implements the paper's protocol (Section IV-B): 4-fold cross-validation
with a shared seed across all methods, :math:`R^2`/RMSE for point
prediction, and average interval length / empirical coverage for region
prediction.  :mod:`repro.eval.experiments` encodes each table and figure
of the paper as a declarative experiment the benchmark harness runs, and
:mod:`repro.eval.stress` measures coverage/length degradation under the
fault campaigns of :mod:`repro.robust`.

The grid runners (:func:`run_point_grid`, :func:`run_region_grid`) are
resilient: they checkpoint completed cells to a
:class:`~repro.runtime.checkpoint.RunJournal`, retry transient worker
faults deterministically, bound each cell with a watchdog timeout, and
can capture failures as structured :class:`FailureRecord` entries
instead of aborting -- see ``docs/RUNTIME.md``.
:func:`run_execution_campaign` stress-tests exactly that machinery by
crashing and hanging workers mid-grid, and
:func:`run_serving_campaign` soaks the full :mod:`repro.serve` stack
(registry, hot-swap, admission control, recalibration) under injected
artifact corruption, SIGKILLed workers, and covariate drift.
:func:`run_shift_campaign` drives the shift defense layer
(:mod:`repro.shift` sentinels, weighted conformal repair, per-zone
monitors) through a multi-fab fleet: a new-fab process corner, a
calendar-time corner drift, and a sensor re-referencing -- see
``docs/SHIFT.md``.  All four campaigns return one
:class:`CampaignReport`: per-scenario or per-phase rows, scalar metrics,
and an ordered set of named checks whose conjunction is
``report.ok()`` (``report.failed()`` names the checks that broke).
"""

from repro.eval.diagnostics import (
    CoverageReport,
    calibration_curve,
    coverage_by_group,
    width_quantiles,
)
from repro.eval.crossval import (
    IntervalCVResult,
    KFold,
    PointCVResult,
    cross_validate_intervals,
    cross_validate_point,
)
from repro.eval.metrics import (
    coverage_width_criterion,
    empirical_coverage,
    mean_interval_width,
    pinball_score,
    r2_score,
    rmse,
)
from repro.eval.experiments import (
    POINT_MODEL_NAMES,
    REGION_METHOD_NAMES,
    ExperimentProfile,
    FailureRecord,
    FeatureSet,
    GridResult,
    run_point_experiment,
    run_point_grid,
    run_region_experiment,
    run_region_grid,
)
from repro.eval.reporting import format_series, format_table, write_report
from repro.eval.stress import (
    CampaignReport,
    run_execution_campaign,
    run_fault_campaign,
    run_serving_campaign,
    run_shift_campaign,
    worst_coverage,
)

__all__ = [
    "CampaignReport",
    "CoverageReport",
    "ExperimentProfile",
    "FailureRecord",
    "FeatureSet",
    "GridResult",
    "IntervalCVResult",
    "KFold",
    "POINT_MODEL_NAMES",
    "PointCVResult",
    "REGION_METHOD_NAMES",
    "coverage_width_criterion",
    "cross_validate_intervals",
    "cross_validate_point",
    "empirical_coverage",
    "calibration_curve",
    "coverage_by_group",
    "format_series",
    "format_table",
    "width_quantiles",
    "mean_interval_width",
    "pinball_score",
    "r2_score",
    "rmse",
    "run_execution_campaign",
    "run_fault_campaign",
    "run_point_experiment",
    "run_point_grid",
    "run_region_experiment",
    "run_region_grid",
    "run_serving_campaign",
    "run_shift_campaign",
    "worst_coverage",
    "write_report",
]
