"""Tests for the hardened serving flow and the stress harness.

Covers the three ISSUE acceptance criteria directly:

* ``RobustVminFlow.predict_interval`` never raises on value-level damage
  from any :class:`FaultCampaign` configuration,
* the stress harness shows coverage within 5 points of nominal under the
  dead-sensor campaign at <= 20 % sensor loss,
* the coverage monitor alarms and triggers online recalibration under an
  injected distribution shift.
"""

import numpy as np
import pytest

from repro.eval.stress import CampaignReport, run_fault_campaign, worst_coverage
from repro.models import QuantileLinearRegression
from repro.models.base import NotFittedError
from repro.robust import (
    DegradationPolicy,
    DegradationStatus,
    DegradedPrediction,
    FaultCampaign,
    RobustVminFlow,
)

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
PARAMETRIC = list(range(N_PARAMETRIC))
MONITORS = list(range(N_PARAMETRIC, D))
N_TRAIN = 200


def _make_data(n=400, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


def _fit_flow(X, y, **kwargs):
    kwargs.setdefault("base_model", QuantileLinearRegression())
    kwargs.setdefault("alpha", 0.1)
    kwargs.setdefault("random_state", 0)
    return RobustVminFlow(**kwargs).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=PARAMETRIC,
        monitor_columns=MONITORS,
    )


@pytest.fixture(scope="module")
def serving_stack():
    """A fitted flow plus a clean held-out lot.

    Module-scoped: the serving tests below only call the read-only
    ``predict*`` paths, so sharing one fit is safe.  Tests that stream
    observations (which mutate monitor state) fit their own flow.
    """
    X, y = _make_data()
    flow = _fit_flow(X, y)
    return flow, X[N_TRAIN:], y[N_TRAIN:]


class TestServing:
    def test_clean_batch_is_nominal(self, serving_stack):
        flow, Xh, yh = serving_stack
        prediction = flow.predict_interval(Xh)
        assert isinstance(prediction, DegradedPrediction)
        assert prediction.status is DegradationStatus.OK
        assert prediction.nominal
        assert prediction.inflation == 1.0
        assert not prediction.used_fallback
        assert prediction.coverage(yh) >= 0.8

    def test_never_raises_under_any_campaign(self, serving_stack):
        """Acceptance: value-level damage from any campaign config is
        served as a structured answer, never an exception."""
        flow, Xh, _ = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1, 0.5, 1.0), seed=3)
        for scenario in campaign:
            prediction = flow.predict_interval(scenario.apply(Xh))
            assert isinstance(prediction, DegradedPrediction)
            assert len(prediction) == Xh.shape[0]
            assert np.isfinite(prediction.lower).all()
            assert np.isfinite(prediction.upper).all()
            assert np.all(prediction.upper >= prediction.lower)
            assert prediction.inflation >= 1.0

    def test_dead_monitor_block_uses_fallback(self, serving_stack):
        flow, Xh, yh = serving_stack
        damaged = Xh.copy()
        damaged[:, MONITORS] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.FALLBACK
        assert prediction.used_fallback
        assert np.isfinite(prediction.lower).all()
        assert prediction.coverage(yh) >= 0.7
        assert any("fallback model" in note for note in prediction.notes)

    def test_partial_damage_degrades_and_inflates(self, serving_stack):
        flow, Xh, _ = serving_stack
        clean_width = flow.predict_interval(Xh).mean_width
        damaged = Xh.copy()
        damaged[:, MONITORS[0]] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.DEGRADED
        assert not prediction.used_fallback
        assert prediction.inflation > 1.0
        assert prediction.mean_width > clean_width

    def test_row_dropout_charges_inflation(self, serving_stack):
        """Whole-row NaNs leave every column partly healthy; degradation
        must still be charged through the entry-level damage fraction."""
        flow, Xh, _ = serving_stack
        damaged = Xh.copy()
        damaged[: Xh.shape[0] // 2] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is not DegradationStatus.OK
        assert prediction.inflation > 1.0

    def test_no_fallback_model_caps_inflation(self):
        X, y = _make_data(seed=7)
        flow = RobustVminFlow(
            base_model=QuantileLinearRegression(), alpha=0.1, random_state=0
        ).fit(X[:N_TRAIN], y[:N_TRAIN])
        damaged = X[N_TRAIN:].copy()
        damaged[:, MONITORS] = np.nan
        prediction = flow.predict_interval(damaged)
        assert prediction.status is DegradationStatus.FALLBACK
        assert not prediction.used_fallback
        assert prediction.inflation == flow.policy.max_inflation
        assert any("no fallback" in note for note in prediction.notes)

    def test_predict_is_interval_midpoint(self, serving_stack):
        flow, Xh, _ = serving_stack
        prediction = flow.predict_interval(Xh)
        np.testing.assert_allclose(
            flow.predict(Xh), (prediction.lower + prediction.upper) / 2.0
        )

    def test_structural_errors_still_raise(self, serving_stack):
        flow, Xh, _ = serving_stack
        with pytest.raises(ValueError, match="features"):
            flow.predict_interval(Xh[:, :5])
        with pytest.raises(ValueError, match="2-D"):
            flow.predict_interval(Xh[0])

    def test_unfitted_raises(self, serving_stack):
        _, Xh, _ = serving_stack
        with pytest.raises(NotFittedError):
            RobustVminFlow().predict_interval(Xh)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RobustVminFlow(alpha=1.5)
        with pytest.raises(ValueError, match="gamma"):
            RobustVminFlow(gamma=-0.1)

    def test_fit_validates_column_groups(self):
        X, y = _make_data(n=N_TRAIN + 1, seed=1)
        with pytest.raises(ValueError, match="fallback_columns"):
            RobustVminFlow(base_model=QuantileLinearRegression()).fit(
                X, y, fallback_columns=[99]
            )
        with pytest.raises(ValueError, match="monitor_columns"):
            RobustVminFlow(base_model=QuantileLinearRegression()).fit(
                X, y, monitor_columns=[-1]
            )

    def test_guaranteed_coverage_passthrough(self, serving_stack):
        flow, _, _ = serving_stack
        assert flow.guaranteed_coverage_ >= 1.0 - flow.alpha


class TestServingEdgeCases:
    """Batch shapes a serving layer legitimately produces must be no-ops."""

    def test_empty_batch_serves_zero_intervals(self, serving_stack):
        flow, Xh, _ = serving_stack
        prediction = flow.predict_interval(np.empty((0, D)))
        assert isinstance(prediction, DegradedPrediction)
        assert len(prediction) == 0
        assert prediction.status is DegradationStatus.OK
        assert prediction.lower.shape == prediction.upper.shape == (0,)
        assert any("empty batch" in note for note in prediction.notes)

    def test_empty_batch_with_wrong_width_still_raises(self, serving_stack):
        # Zero rows do not excuse a structural error: the column count
        # is an integration contract, checked before the no-op path.
        flow, _, _ = serving_stack
        with pytest.raises(ValueError, match="features"):
            flow.predict_interval(np.empty((0, D - 1)))

    def test_fully_damaged_batch_still_answers(self, serving_stack):
        flow, Xh, _ = serving_stack
        damaged = np.full_like(Xh, np.nan)
        prediction = flow.predict_interval(damaged)
        assert len(prediction) == Xh.shape[0]
        assert np.isfinite(prediction.lower).all()
        assert np.isfinite(prediction.upper).all()
        assert prediction.status is not DegradationStatus.OK
        assert prediction.inflation > 1.0

    def test_observe_zero_labels_is_noop(self):
        X, y = _make_data(seed=5)
        flow = _fit_flow(X, y)
        before = flow.monitor_.n_observed
        assert flow.observe(np.empty((0, D)), np.empty(0)).alarm is None
        assert flow.monitor_.n_observed == before
        assert flow.recalibrations_ == 0
        assert not flow.adaptive_active


class TestObserveAndRecalibration:
    def test_healthy_stream_stays_quiet(self):
        X, y = _make_data(seed=11)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        for start in range(0, 100, 10):
            feedback = flow.observe(Xh[start : start + 10], yh[start : start + 10])
            assert feedback.alarm is None
        assert flow.alarms_ == []
        assert not flow.adaptive_active
        assert flow.rolling_coverage() >= 0.8

    def test_shift_triggers_alarm_and_recalibration(self):
        """Acceptance: injected distribution shift -> alarm -> online
        recalibration widens the served band and coverage recovers."""
        X, y = _make_data(seed=23)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:] + 2.0  # strong upward Vmin shift

        width_before = flow.predict_interval(Xh).mean_width
        alarms = []
        for start in range(0, 200, 10):
            alarm = flow.observe(Xh[start : start + 10], yh[start : start + 10]).alarm
            if alarm is not None:
                alarms.append(alarm)
        assert alarms, "coverage monitor never alarmed under a 2 V shift"
        assert flow.adaptive_active
        assert flow.recalibrations_ >= 1
        # Gibbs-Candes: sustained misses pushed alpha_t below nominal at
        # some point (it drifts back up once coverage recovers).
        assert min(flow.adaptive_.alpha_history_) < flow.alpha
        after = flow.predict_interval(Xh)
        assert after.mean_width > width_before
        assert any("recalibration" in note for note in after.notes)
        # Recalibration must actually win coverage back on the shifted stream.
        assert flow.rolling_coverage() >= 0.6

    def test_feedback_records_the_interval_served_before_the_labels(self):
        X, y = _make_data(seed=17)
        flow = _fit_flow(X, y, monitor_min_observations=10, monitor_window=20)
        Xh, yh = X[N_TRAIN : N_TRAIN + 40], y[N_TRAIN : N_TRAIN + 40] + 2.0
        Xh[0, MONITORS[0]] = np.nan
        served = flow.predict_interval(Xh)
        feedback = flow.observe(Xh, yh)
        assert feedback.alarm is not None and flow.adaptive_active
        np.testing.assert_array_equal(feedback.prediction.lower, served.lower)
        np.testing.assert_array_equal(feedback.prediction.upper, served.upper)
        np.testing.assert_array_equal(feedback.covered, served.intervals.contains(yh))
        assert np.isnan(feedback.X[0, MONITORS[0]])
        assert np.all(np.isfinite(feedback.X_clean))
        np.testing.assert_array_equal(feedback.y, yh)
        # The adaptive update moved serving on from the recorded interval.
        assert not np.array_equal(flow.predict_interval(Xh).upper, served.upper)

    @pytest.mark.parametrize("method", ["predict_interval", "observe"])
    def test_each_batch_is_validated_and_sanitized_once(self, method, count_calls):
        X, y = _make_data(seed=19)
        flow = _fit_flow(X, y)
        flow.observe(X[N_TRAIN : N_TRAIN + 100], y[N_TRAIN : N_TRAIN + 100] + 2.0)
        assert flow.adaptive_active
        count_calls(flow, "_validate_structure")
        calls = count_calls(flow, "_sanitize")
        Xh, yh = X[N_TRAIN + 100 :], y[N_TRAIN + 100 :]
        args = (Xh, yh) if method == "observe" else (Xh,)
        getattr(flow, method)(*args)
        assert calls == {"_validate_structure": 1, "_sanitize": 1}

    def test_observe_validates_labels(self):
        X, y = _make_data(seed=31)
        flow = _fit_flow(X, y)
        Xh, yh = X[N_TRAIN:], y[N_TRAIN:]
        with pytest.raises(ValueError, match="NaN or infinite"):
            flow.observe(Xh[:5], np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="inconsistent lengths"):
            flow.observe(Xh[:5], yh[:4])
        with pytest.raises(ValueError, match="1-D"):
            flow.observe(Xh[:5], yh[:5].reshape(-1, 1))


class TestStressHarness:
    def test_dead_sensor_campaign_within_five_points(self, serving_stack):
        """Acceptance: <= 20 % dead sensors costs <= 5 coverage points."""
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(
            severities=(0.05, 0.1, 0.2), columns=MONITORS, seed=1
        )
        dead_only = [s for s in campaign if s.name == "dead_sensors"]
        assert len(dead_only) == 3
        report = run_fault_campaign(flow, Xh, yh, dead_only)
        drop = report.metrics["nominal_coverage"] - worst_coverage(
            report, "dead_sensors"
        )
        assert drop <= 0.05

    def test_report_structure(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        report = run_fault_campaign(flow, Xh, yh, campaign)
        assert isinstance(report, CampaignReport)
        assert len(report.rows) == len(campaign)
        assert all(isinstance(row, dict) for row in report.rows.values())
        assert 0.0 <= report.metrics["nominal_coverage"] <= 1.0
        assert report.metrics["nominal_width_v"] > 0.0
        for row in report.rows.values():
            assert 0.0 <= row["coverage"] <= 1.0
            assert row["mean_width_v"] > 0.0
            assert row["inflation"] >= 1.0

    def test_report_table_lists_every_scenario(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        table = run_fault_campaign(flow, Xh, yh, campaign).to_table()
        assert "nominal_coverage" in table
        for scenario in campaign:
            assert scenario.name in table

    def test_worst_coverage_prefix_filter(self, serving_stack):
        flow, Xh, yh = serving_stack
        campaign = FaultCampaign.standard(severities=(0.1,), seed=2)
        report = run_fault_campaign(flow, Xh, yh, campaign)
        assert worst_coverage(report, "dead_sensors") >= worst_coverage(report)
        with pytest.raises(ValueError, match="no scenario matches"):
            worst_coverage(report, "nonexistent")

    def test_rejects_mismatched_inputs(self, serving_stack):
        flow, Xh, yh = serving_stack
        with pytest.raises(ValueError, match="matching"):
            run_fault_campaign(flow, Xh, yh[:-1], [])

    def test_rejects_duplicate_scenario_rows(self, serving_stack):
        # Rows are keyed "<name>@<severity>"; a repeat would overwrite one.
        flow, Xh, yh = serving_stack
        scenario = next(iter(FaultCampaign.standard(severities=(0.1,), seed=2)))
        with pytest.raises(ValueError, match="duplicate fault scenario"):
            run_fault_campaign(flow, Xh, yh, [scenario, scenario])
