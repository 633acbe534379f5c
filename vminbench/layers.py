"""Where the benchmark's spans are taken, and how they become metrics.

Every span is recorded by wrapping a public function or method of
``repro`` from here; ``src/`` is unchanged.  Class-level wrappers cover
training and set-up (they apply to every instance, including those in
grid worker threads).  Instance-level wrappers cover the *served*
model: the service loads its own copy from the registry, so they are
installed on ``service.served_model`` after every ``start()``.

Layers that no public boundary reaches are left to in-program tracing:
the per-round histogram build, the split search and the leaf-value
solve inside the boosters' ``fit``, and the admission/snapshot/retry
steps inside ``VminServingService.score`` (reported together as
``serve.score.self_ms``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.cqr import ConformalizedQuantileRegressor
from repro.eval import experiments
from repro.models import binning
from repro.models.binning import BinnedDataset
from repro.models.gbm import GradientBoostingRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.quantile import PackageDefaultQuantileBand, QuantileBandRegressor
from repro.robust.flow import RobustVminFlow
from repro.serve.registry import ModelRegistry
from repro.serve.service import VminServingService
from repro.shift.weighted import WeightedBandCalibrator
from repro.shift.weights import LogisticDensityRatio
from repro.silicon.dataset import SiliconDataset

from harness import median
from tracing import SpanRecord, Tracer, in_window, layer_table, root_balance, self_times

__all__ = [
    "BUILD_LAYERS",
    "REQUEST_LAYERS",
    "instrument_repair",
    "instrument_service",
    "install_class_patches",
    "layer_metrics",
]

CLASS_PATCHES: Tuple[Tuple[Any, str, str], ...] = (
    (SiliconDataset, "generate", "silicon.generate"),
    (RobustVminFlow, "fit", "robust.fit"),
    (ConformalizedQuantileRegressor, "fit", "core.cqr.fit"),
    (QuantileBandRegressor, "fit", "models.band.fit"),
    (PackageDefaultQuantileBand, "fit", "models.band.fit"),
    (ObliviousBoostingRegressor, "fit", "models.oblivious.fit"),
    (GradientBoostingRegressor, "fit", "models.gbm.fit"),
    (BinnedDataset, "from_matrix", "models.binning"),
    (binning, "dataset_digest", "models.binning"),
    (LogisticDensityRatio, "estimate", "shift.ratio.fit"),
    (WeightedBandCalibrator, "__init__", "shift.weighted.calibrate"),
    (ModelRegistry, "publish", "serve.publish"),
    (VminServingService, "start", "serve.start"),
    (experiments, "run_region_experiment", "eval.cell"),
)


def install_class_patches(tracer: Tracer) -> None:
    """Wrap the training and set-up boundaries for every instance."""
    for owner, attr, name in CLASS_PATCHES:
        tracer.patch(owner, attr, name)


def _patch_band(tracer: Tracer, flow: Any) -> None:
    """Wrap one served pipeline's CQR correction and its two band kernels."""
    cqr = flow.cqr_
    tracer.patch(cqr, "predict_interval", "core.cqr.correct")
    for member in (cqr.band_.lower_, cqr.band_.upper_):
        tracer.patch(member, "predict", "models.band.predict")
        traced = member.predict

        def counted(X: np.ndarray, _traced=traced) -> np.ndarray:
            tracer.count("models.band.rows", int(np.shape(X)[0]))
            return _traced(X)

        member.predict = counted


def instrument_service(tracer: Tracer, service: VminServingService) -> None:
    """Wrap a started service and the model instances it serves."""
    tracer.patch(service, "score", "serve.score")
    tracer.patch(service, "observe", "serve.observe")
    tracer.patch(service, "repair_shift", "serve.repair")
    model = service.served_model
    tracer.patch(model, "predict_interval", "robust.predict")
    tracer.patch(model, "observe", "robust.observe")
    tracer.patch(model.guard_, "assess", "robust.guard.assess")
    tracer.patch(model.imputer_, "transform", "robust.impute.transform")
    _patch_band(tracer, model.primary_)
    if model.fallback_ is not None:
        _patch_band(tracer, model.fallback_)
    tracer.patch(model.adaptive_, "update", "core.adaptive.update")
    tracer.patch(model.adaptive_, "predict_interval", "core.adaptive.correct")
    guard = service.shift_guard
    if guard is not None and guard.armed:
        tracer.patch(guard, "observe", "shift.guard.observe")
        tracer.patch(guard.martingale_, "observe", "shift.martingale.update")
        tracer.patch(guard.detector_, "observe", "shift.detector.update")


def instrument_repair(tracer: Tracer, service: VminServingService) -> None:
    """Wrap the weighted correction a successful repair installed."""
    weighted = service.served_model.weighted_
    if weighted is not None:
        tracer.patch(weighted, "predict_interval", "shift.weighted.correct")


# Request-path layers: median over calls of the per-call time (ms).
# Each entry: metric name -> (span name, "self" or "wall").
REQUEST_LAYERS: Dict[str, Tuple[str, str]] = {
    "serve.score.self_ms": ("serve.score", "self"),
    "serve.observe.self_ms": ("serve.observe", "self"),
    "serve.repair.self_ms": ("serve.repair", "self"),
    "robust.predict.self_ms": ("robust.predict", "self"),
    "robust.observe.self_ms": ("robust.observe", "self"),
    "robust.guard.assess_ms": ("robust.guard.assess", "self"),
    "robust.impute.transform_ms": ("robust.impute.transform", "self"),
    "core.cqr.correct.self_ms": ("core.cqr.correct", "self"),
    "core.adaptive.update_ms": ("core.adaptive.update", "self"),
    "core.adaptive.correct.self_ms": ("core.adaptive.correct", "self"),
    "models.band.predict_ms": ("models.band.predict", "self"),
    "shift.guard.observe.self_ms": ("shift.guard.observe", "self"),
    "shift.martingale.update_ms": ("shift.martingale.update", "self"),
    "shift.detector.update_ms": ("shift.detector.update", "self"),
    "shift.ratio.fit_ms": ("shift.ratio.fit", "self"),
    "shift.weighted.calibrate_ms": ("shift.weighted.calibrate", "self"),
    "shift.weighted.correct.self_ms": ("shift.weighted.correct", "self"),
    "eval.cell_ms": ("eval.cell", "wall"),
}

# Build layers: per set-up (serving) or per grid (train_table3), the
# summed time of the layer's spans, then the median over those units.
BUILD_LAYERS: Dict[str, Tuple[str, str]] = {
    "robust.fit_ms": ("robust.fit", "wall"),
    "core.cqr.calibrate_ms": ("core.cqr.fit", "self"),
    "models.oblivious.fit_ms": ("models.oblivious.fit", "self"),
    "models.gbm.fit_ms": ("models.gbm.fit", "self"),
    "models.binning.ms": ("models.binning", "self"),
}

# Set-up layers: per set-up on every workload, median over set-ups.
SETUP_LAYERS: Dict[str, Tuple[str, str]] = {
    "silicon.generate_ms": ("silicon.generate", "self"),
}

BUILD_CALLS: Dict[str, str] = {
    "models.oblivious.fit_calls": "models.oblivious.fit",
    "models.gbm.fit_calls": "models.gbm.fit",
}


def _unit_totals(
    spans: List[SpanRecord],
    selfs: Dict[int, float],
    windows: Sequence[Tuple[float, float]],
    span_name: str,
    kind: str,
) -> Tuple[List[float], List[int]]:
    """Per window: summed seconds of ``span_name`` spans, and their count."""
    totals, calls = [], []
    for window in windows:
        chosen = [s for s in in_window(spans, window) if s[1] == span_name]
        totals.append(
            sum(selfs[s[0]] if kind == "self" else s[3] - s[2] for s in chosen)
        )
        calls.append(len(chosen))
    return totals, calls


def layer_metrics(
    tracer: Tracer,
    request_window: Tuple[float, float],
    build_windows: Sequence[Tuple[float, float]],
    setup_windows: Sequence[Tuple[float, float]],
    n_jobs: int,
) -> Dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    ``request_window`` is the traced measuring phase; ``build_windows``
    are the traced set-ups (serving workloads) or grids (train_table3);
    ``setup_windows`` are the traced set-ups; ``n_jobs`` is the grid's
    worker count.  A layer the workload never reaches reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    requests = layer_table(in_window(spans, request_window), selfs)
    metrics: Dict[str, float] = {}
    for metric, (span_name, kind) in REQUEST_LAYERS.items():
        values = requests.get(span_name, {}).get(kind, [])
        metrics[metric] = 1000.0 * median(values) if values else 0.0
    for metric, (span_name, kind) in BUILD_LAYERS.items():
        totals, _ = _unit_totals(spans, selfs, build_windows, span_name, kind)
        metrics[metric] = 1000.0 * median(totals) if totals else 0.0
    for metric, (span_name, kind) in SETUP_LAYERS.items():
        totals, _ = _unit_totals(spans, selfs, setup_windows, span_name, kind)
        metrics[metric] = 1000.0 * median(totals) if totals else 0.0
    for metric, span_name in BUILD_CALLS.items():
        _, calls = _unit_totals(spans, selfs, build_windows, span_name, "wall")
        metrics[metric] = median(calls) if calls else 0.0
    cells, _ = _unit_totals(spans, selfs, build_windows, "eval.cell", "wall")
    busy = sum(end - start for start, end in build_windows) * n_jobs
    metrics["perf.parallel.busy_frac"] = sum(cells) / busy if any(cells) else 0.0
    rows = tracer.counts.get("models.band.rows")
    band_calls = len(requests.get("models.band.predict", {}).get("wall", []))
    metrics["models.band.rows"] = (rows / band_calls) if rows and band_calls else 0.0
    balance = root_balance(spans, selfs)
    metrics["trace.balance_err"] = balance if balance is not None else 0.0
    metrics["trace.spans"] = float(len(spans))
    return metrics
