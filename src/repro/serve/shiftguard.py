"""Shift sentinels wired into the serving loop.

:class:`~repro.robust.flow.RobustVminFlow` already watches *realized*
coverage -- but realized coverage is a lagging signal: it needs labels,
and by the time the rolling rate crosses the alarm threshold the service
has been quietly under-covering for a window's worth of chips.  The
:mod:`repro.shift` sentinels give the serving layer two leading signals:

* the :class:`~repro.shift.ConformalTestMartingale` tests the
  *exchangeability* of the streamed conformity scores against the frozen
  calibration set -- the exact assumption split CQR's guarantee rests on
  -- and rejects it anytime, at a controlled false-alarm rate, often
  long before the coverage monitor has enough labels to react;
* the :class:`~repro.shift.CovariateShiftDetector` watches the monitor
  *features* (no labels needed at all), so a fab excursion or a sensor
  re-referencing that does not yet show up in labels is still caught.

:class:`ShiftGuard` bundles both, plus per-wafer-zone (Mondrian)
:class:`~repro.robust.monitoring.CoverageMonitor` instances, behind one
``arm``/``observe`` interface that
:class:`~repro.serve.service.VminServingService` drives from its label
feedback loop.  Every :meth:`ShiftGuard.observe` returns a
:class:`ShiftVerdict`; the service maps new alarms onto audited
``EXCHANGEABILITY_ALARM`` / ``COVARIATE_SHIFT`` health transitions.

The sentinels' references come from the served flow itself (its frozen
calibration scores and features), so re-arming after a hot-swap
automatically re-baselines them on the new bundle.  After a successful
*weighted* repair (:meth:`~repro.serve.service.VminServingService.
repair_shift`) the guard is deliberately disarmed instead: the operating
distribution is then legitimately shifted and compensated, and sentinels
referenced against the stale calibration set would re-alarm on the very
shift that was just repaired.  They return at the next republication.
See ``docs/SHIFT.md`` for the full threat model.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.robust.flow import RobustVminFlow
from repro.robust.monitoring import CoverageMonitor
from repro.shift import ConformalTestMartingale, CovariateShiftDetector

__all__ = ["ShiftGuard", "ShiftVerdict"]


@dataclass(frozen=True)
class ShiftVerdict:
    """Snapshot of every sentinel's alarm state after one observation.

    Attributes
    ----------
    exchangeability_alarm:
        The conformal test martingale has rejected exchangeability of
        the score stream (latched until the guard is re-armed).
    covariate_alarm:
        The PSI detector found enough monitor features drifted past its
        threshold (latched until re-arm).
    zone_alarms:
        Wafer-zone names whose Mondrian coverage monitor is currently in
        alarm (hysteresis: cleared again once the zone recovers).
    n_observed:
        Labelled chips streamed through the guard since it was armed.
    """

    exchangeability_alarm: bool
    covariate_alarm: bool
    zone_alarms: Tuple[str, ...]
    n_observed: int

    def any_alarm(self) -> bool:
        """Whether any sentinel is currently alarmed."""
        return (
            self.exchangeability_alarm
            or self.covariate_alarm
            or bool(self.zone_alarms)
        )

    def describe(self) -> str:
        """Human-readable one-line audit entry."""
        parts = []
        if self.exchangeability_alarm:
            parts.append("exchangeability rejected")
        if self.covariate_alarm:
            parts.append("covariate shift")
        if self.zone_alarms:
            parts.append(f"zones {', '.join(self.zone_alarms)} under-covering")
        status = "; ".join(parts) if parts else "quiet"
        return f"shift sentinels after {self.n_observed} labels: {status}"


class ShiftGuard:
    """Exchangeability, covariate, and per-zone sentinels for one service.

    Parameters
    ----------
    martingale:
        Template :class:`~repro.shift.ConformalTestMartingale`; copied
        (never mutated) at every :meth:`arm`.  ``None`` uses the
        default configuration with a fixed tie-break seed.
    detector:
        Template :class:`~repro.shift.CovariateShiftDetector`; copied at
        every :meth:`arm`.  ``None`` uses a configuration tuned on the
        synthetic fleet (PSI threshold 1.0, 10% of features) where
        ordinary lot-to-lot wafer offsets stay quiet and a >=1-sigma
        process-corner move alarms decisively.
    feature_columns:
        Column indices (into the flow's feature matrix) the covariate
        detector watches.  ``None`` watches every monitor column of the
        served flow -- fine for narrow models, but subsampling (e.g.
        every 8th monitor) keeps per-batch PSI evaluation cheap.
    zone_window, zone_tolerance, zone_min_observations:
        Rolling-window parameters of the per-wafer-zone Mondrian
        :class:`~repro.robust.monitoring.CoverageMonitor` instances
        (target coverage comes from the armed flow's ``alpha``).
    """

    def __init__(
        self,
        martingale: Optional[ConformalTestMartingale] = None,
        detector: Optional[CovariateShiftDetector] = None,
        feature_columns: Optional[Sequence[int]] = None,
        zone_window: int = 40,
        zone_tolerance: float = 0.10,
        zone_min_observations: int = 20,
    ) -> None:
        if zone_window < 1:
            raise ValueError(f"zone_window must be >= 1, got {zone_window}")
        if not 0.0 <= zone_tolerance < 1.0:
            raise ValueError(
                f"zone_tolerance must be in [0, 1), got {zone_tolerance}"
            )
        if zone_min_observations < 1:
            raise ValueError(
                f"zone_min_observations must be >= 1, got {zone_min_observations}"
            )
        self.martingale = martingale
        self.detector = detector
        self.feature_columns = feature_columns
        self.zone_window = int(zone_window)
        self.zone_tolerance = float(zone_tolerance)
        self.zone_min_observations = int(zone_min_observations)
        self.martingale_: Optional[ConformalTestMartingale] = None
        self.detector_: Optional[CovariateShiftDetector] = None
        self.zone_monitors_: Dict[str, CoverageMonitor] = {}
        self.n_observed_ = 0
        self._columns: Optional[np.ndarray] = None
        self._target: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether the sentinels currently hold a reference."""
        return self.martingale_ is not None

    def arm(self, flow: RobustVminFlow) -> "ShiftGuard":
        """Baseline every sentinel on a fitted flow's calibration data.

        Raises ``RuntimeError`` when the flow is unfitted or was
        published before the shift layer existed (no frozen calibration
        features) -- the caller decides whether to serve unguarded.
        """
        if flow.primary_ is None:
            raise RuntimeError("cannot arm a shift guard on an unfitted flow")
        scores = flow.calibration_scores()
        features = flow.calibration_features()
        if self.feature_columns is not None:
            columns = np.asarray(self.feature_columns, dtype=np.int64)
            if columns.ndim != 1 or columns.shape[0] == 0:
                raise ValueError("feature_columns must be a non-empty 1-D sequence")
            if columns.min() < 0 or columns.max() >= features.shape[1]:
                raise ValueError(
                    f"feature_columns must index into {features.shape[1]} "
                    f"features, got range [{columns.min()}, {columns.max()}]"
                )
        else:
            columns = np.asarray(flow.monitor_columns_, dtype=np.int64)
        martingale = (
            copy.deepcopy(self.martingale)
            if self.martingale is not None
            else ConformalTestMartingale(random_state=0)
        )
        detector = (
            copy.deepcopy(self.detector)
            if self.detector is not None
            else CovariateShiftDetector(
                psi_threshold=1.0, alarm_fraction=0.10, min_observations=40
            )
        )
        self.martingale_ = martingale.arm(scores)
        self.detector_ = detector.arm(features[:, columns])
        self.zone_monitors_ = {}
        self.n_observed_ = 0
        self._columns = columns
        self._target = 1.0 - float(flow.alpha)
        return self

    def disarm(self) -> None:
        """Drop all sentinel state; :meth:`observe` becomes unavailable."""
        self.martingale_ = None
        self.detector_ = None
        self.zone_monitors_ = {}
        self.n_observed_ = 0
        self._columns = None
        self._target = None

    def observe(
        self,
        flow: RobustVminFlow,
        X: np.ndarray,
        y: np.ndarray,
        zones: Optional[Sequence] = None,
    ) -> ShiftVerdict:
        """Stream one labelled batch through every sentinel.

        Feeds the conformity scores of ``(X, y)`` to the martingale, the
        watched feature columns to the covariate detector (rows with
        damaged values in those columns are skipped -- data health is
        the flow guard's jurisdiction, not a distribution question), and
        -- when ``zones`` labels each chip with its wafer zone -- the
        served interval's hit/miss outcome to that zone's Mondrian
        coverage monitor.  Returns the post-batch :class:`ShiftVerdict`.

        Call it *before* ``flow.observe`` on the same batch: the zone
        monitors re-serve ``X``, and once the flow's adaptive
        recalibration is active its update would already have absorbed
        ``y`` into the interval they judge.
        """
        if not self.armed:
            raise RuntimeError("shift guard is not armed")
        scores = flow.conformity_scores(X, y)
        self.martingale_.observe(scores)
        rows = np.asarray(X, dtype=np.float64)[:, self._columns]
        finite = np.all(np.isfinite(rows), axis=1)
        if np.any(finite):
            self.detector_.observe(rows[finite])
        if zones is not None:
            labels = np.asarray(y, dtype=np.float64)
            zone_labels = np.asarray(zones)
            if zone_labels.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"zones has {zone_labels.shape[0]} entries for "
                    f"{labels.shape[0]} labels"
                )
            prediction = flow.predict_interval(X)
            contains = prediction.intervals.contains(labels)
            for zone in np.unique(zone_labels):
                monitor = self.zone_monitors_.get(str(zone))
                if monitor is None:
                    monitor = CoverageMonitor(
                        target_coverage=self._target,
                        window=self.zone_window,
                        tolerance=self.zone_tolerance,
                        min_observations=self.zone_min_observations,
                    )
                    self.zone_monitors_[str(zone)] = monitor
                monitor.update(contains[zone_labels == zone])
        self.n_observed_ += int(scores.shape[0])
        return self.verdict()

    def verdict(self) -> ShiftVerdict:
        """Current alarm snapshot without observing anything new."""
        if not self.armed:
            raise RuntimeError("shift guard is not armed")
        return ShiftVerdict(
            exchangeability_alarm=bool(self.martingale_.in_alarm_),
            covariate_alarm=bool(self.detector_.in_alarm_),
            zone_alarms=tuple(
                sorted(
                    name
                    for name, monitor in self.zone_monitors_.items()
                    if monitor.in_alarm_
                )
            ),
            n_observed=self.n_observed_,
        )

    def zone_coverage(self) -> Dict[str, float]:
        """Rolling coverage per wafer zone observed so far."""
        return {
            name: monitor.rolling_coverage()
            for name, monitor in self.zone_monitors_.items()
            if monitor.n_observed > 0
        }
