"""Tests for the serving-side shift guard and its service integration."""

import time

import numpy as np
import pytest

from repro.models import QuantileLinearRegression
from repro.robust import RobustVminFlow
from repro.serve import (
    ModelRegistry,
    ReasonCode,
    RejectedRequest,
    ServiceState,
    ShiftGuard,
    VminServingService,
)
from repro.shift import DegenerateWeightsError, LogisticDensityRatio

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
PARAMETRIC = list(range(N_PARAMETRIC))
MONITORS = list(range(N_PARAMETRIC, D))
N_TRAIN = 400


def _make_data(n=700, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=n)
    return X, y


@pytest.fixture(scope="module")
def lot():
    """A fitted flow plus held-out exchangeable traffic, shared read-only."""
    X, y = _make_data()
    flow = RobustVminFlow(
        base_model=QuantileLinearRegression(), alpha=0.1, random_state=0
    ).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=PARAMETRIC,
        monitor_columns=MONITORS,
    )
    return flow, X[N_TRAIN:], y[N_TRAIN:]


def _service(tmp_path, flow, guard):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(flow)
    service = VminServingService(registry, shift_guard=guard)
    service.start()
    return registry, service


class TestShiftGuardUnit:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"zone_window": 0},
            {"zone_tolerance": 1.0},
            {"zone_tolerance": -0.1},
            {"zone_min_observations": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ShiftGuard(**kwargs)

    def test_arm_requires_fitted_flow(self):
        flow = RobustVminFlow(base_model=QuantileLinearRegression())
        with pytest.raises(RuntimeError, match="unfitted"):
            ShiftGuard().arm(flow)

    def test_observe_and_verdict_require_arm(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        with pytest.raises(RuntimeError, match="not armed"):
            guard.observe(flow, Xh[:10], yh[:10])
        with pytest.raises(RuntimeError, match="not armed"):
            guard.verdict()

    def test_feature_columns_bounds_checked(self, lot):
        flow, _, _ = lot
        with pytest.raises(ValueError, match="feature_columns"):
            ShiftGuard(feature_columns=[0, D]).arm(flow)
        with pytest.raises(ValueError, match="feature_columns"):
            ShiftGuard(feature_columns=[]).arm(flow)

    def test_quiet_on_exchangeable_traffic(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        verdict = guard.observe(flow, Xh[:150], yh[:150])
        assert not verdict.any_alarm()
        assert verdict.n_observed == 150
        assert "quiet" in verdict.describe()

    def test_martingale_fires_on_label_shift(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        verdict = guard.observe(flow, Xh[:200], yh[:200] + 5.0)
        assert verdict.exchangeability_alarm
        assert "exchangeability rejected" in verdict.describe()

    def test_detector_fires_on_covariate_shift(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        X_shift = Xh[:100].copy()
        X_shift[:, MONITORS] += 3.0
        y_shift = yh[:100]
        verdict = guard.observe(flow, X_shift, y_shift)
        assert verdict.covariate_alarm

    def test_zone_monitors_flag_the_undercovering_zone(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard(
            zone_window=40, zone_tolerance=0.10, zone_min_observations=20
        ).arm(flow)
        zones = np.where(np.arange(120) % 2 == 0, "inner", "outer")
        # Push only the "inner" chips out of their intervals.
        y_bad = yh[:120].copy()
        y_bad[zones == "inner"] += 5.0
        verdict = guard.observe(flow, Xh[:120], y_bad, zones=zones)
        assert verdict.zone_alarms == ("inner",)
        coverage = guard.zone_coverage()
        assert coverage["inner"] < coverage["outer"]

    def test_disarm_and_rearm_reset_state(self, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard().arm(flow)
        guard.observe(flow, Xh[:200], yh[:200] + 5.0)
        assert guard.verdict().any_alarm()
        guard.disarm()
        assert not guard.armed
        guard.arm(flow)
        assert not guard.verdict().any_alarm()
        assert guard.n_observed_ == 0


class TestServiceIntegration:
    def test_start_arms_the_guard(self, tmp_path, lot):
        flow, _, _ = lot
        guard = ShiftGuard()
        _service(tmp_path, flow, guard)
        assert guard.armed

    def test_exchangeability_alarm_degrades_with_reason(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        assert service.state is ServiceState.DEGRADED
        reasons = {reason for reason, _ in (
            (r.reason, r.detail) for r in service.health.downgrades()
        )}
        assert ReasonCode.EXCHANGEABILITY_ALARM in reasons
        assert service.last_shift_verdict_.exchangeability_alarm

    def test_covariate_alarm_degrades_with_reason(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:100].copy()
        X_shift[:, MONITORS] += 3.0
        # Labels consistent with the shifted features: only the
        # covariate detector has grounds to complain.
        w = np.concatenate(
            [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
        )
        y_shift = X_shift @ w + np.random.default_rng(7).normal(
            scale=0.5, size=100
        )
        service.observe(X_shift, y_shift)
        reasons = {r.reason for r in service.health.downgrades()}
        assert ReasonCode.COVARIATE_SHIFT in reasons

    def test_new_alarms_are_audited_once(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        service.observe(Xh[200:260], yh[200:260] + 5.0)
        entries = [
            r
            for r in service.health.transitions_
            if r.reason is ReasonCode.EXCHANGEABILITY_ALARM
        ]
        assert len(entries) == 1

    def test_zone_monitors_judge_the_served_interval(self, tmp_path):
        """With adaptive recalibration active, a zone monitor must score
        the interval that was served -- the one the flow's own coverage
        monitor scores -- not one already updated on the batch's labels."""
        X, y = _make_data()
        batch = 40
        flow = RobustVminFlow(
            base_model=QuantileLinearRegression(),
            alpha=0.1,
            random_state=0,
            monitor_window=batch,
            monitor_min_observations=20,
        ).fit(
            X[:N_TRAIN],
            y[:N_TRAIN],
            fallback_columns=PARAMETRIC,
            monitor_columns=MONITORS,
        )
        guard = ShiftGuard(zone_window=batch)
        _, service = _service(tmp_path, flow, guard)
        # Under-covering feedback alarms the flow's monitor, which
        # switches serving onto the adaptive margins.
        first = slice(N_TRAIN, N_TRAIN + batch)
        service.observe(X[first], y[first] + 1.5)
        served = service.served_model
        assert served.recalibrations_ == 1
        assert guard.armed
        probe = slice(N_TRAIN + batch, N_TRAIN + 2 * batch)
        service.observe(X[probe], y[probe] + 1.0, zones=np.full(batch, "probe"))
        # Both monitors hold exactly this batch's outcomes.
        assert guard.zone_coverage()["probe"] == served.rolling_coverage()

    def test_recovery_blocked_while_shift_alarmed(self, tmp_path, lot):
        """Rolling coverage returning to target must NOT re-promote the
        service while an exchangeability alarm is latched."""
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        service.observe(Xh[:200], yh[:200] + 5.0)
        assert service.state is ServiceState.DEGRADED
        # A long run of healthy labels clears the coverage monitor but
        # the martingale alarm is latched until re-arm.
        service.observe(Xh[200:299], yh[200:299])
        assert guard.verdict().exchangeability_alarm
        assert service.state is ServiceState.DEGRADED

    def test_repair_shift_requires_a_fitted_flow(self, tmp_path, lot):
        flow, Xh, _ = lot
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(flow)
        service = VminServingService(registry, shift_guard=ShiftGuard())
        with pytest.raises(RejectedRequest, match="nothing to repair"):
            service.repair_shift(Xh[:50])

    def test_repair_shift_success_restores_ready(self, tmp_path, lot):
        from repro.shift import CovariateShiftDetector

        flow, Xh, yh = lot
        # A detector template at the conventional PSI cut so the modest
        # (repairable) 0.4-sigma shift still pages.
        guard = ShiftGuard(
            detector=CovariateShiftDetector(
                psi_threshold=0.25, alarm_fraction=0.25, min_observations=40
            )
        )
        _, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:120].copy()
        X_shift[:, MONITORS] += 0.4
        # Labels stay consistent with the shifted features: the coverage
        # monitor must remain clean so the covariate alarm alone drives
        # the downgrade (and the repair alone can lift it).
        w = np.concatenate(
            [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
        )
        y_shift = X_shift @ w + np.random.default_rng(7).normal(
            scale=0.5, size=120
        )
        service.observe(X_shift[:100], y_shift[:100])
        assert service.state is ServiceState.DEGRADED
        assert service.last_shift_verdict_.covariate_alarm
        ess = service.repair_shift(
            X_shift,
            ratio_estimator=LogisticDensityRatio(ridge=4.0, random_state=0),
        )
        assert ess >= 10.0
        assert service.state is ServiceState.READY
        assert not guard.armed  # disarmed: the shift is now compensated
        assert service.last_shift_verdict_ is None
        notes = [
            r.detail
            for r in service.health.transitions_
            if r.reason is ReasonCode.RECALIBRATED
        ]
        assert any("weighted shift repair" in n for n in notes)

    def test_repair_shift_refusal_is_audited_and_raises(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        _, service = _service(tmp_path, flow, guard)
        X_far = Xh[:100].copy()
        X_far[:, MONITORS] += 1.5
        with pytest.raises(DegenerateWeightsError):
            service.repair_shift(X_far)
        details = [
            r.detail
            for r in service.health.transitions_
            if r.reason is ReasonCode.COVARIATE_SHIFT
        ]
        assert any("weighted repair refused" in d for d in details)
        assert not flow.weighted_active  # serving path untouched

    def test_hot_swap_rearms_after_repair(self, tmp_path, lot):
        flow, Xh, yh = lot
        guard = ShiftGuard()
        registry, service = _service(tmp_path, flow, guard)
        X_shift = Xh[:120].copy()
        X_shift[:, MONITORS] += 0.4
        service.repair_shift(
            X_shift,
            ratio_estimator=LogisticDensityRatio(ridge=4.0, random_state=0),
        )
        assert not guard.armed
        registry.publish(flow, reason="refit")
        service.hot_swap()
        assert guard.armed
        assert service.last_shift_verdict_ is None


@pytest.fixture(scope="module")
def shift_campaign(tmp_path_factory):
    """One default shift campaign plus its measured end-to-end wall time."""
    from repro.eval.stress import run_shift_campaign

    root = tmp_path_factory.mktemp("shift-campaign") / "registry"
    started = time.perf_counter()
    report = run_shift_campaign(root)
    return report, time.perf_counter() - started


class TestCampaign:
    def test_shift_campaign_passes_end_to_end(self, shift_campaign):
        """The committed operating point must detect every injected
        shift, repair (or refuse) correctly, and end READY."""
        report, _ = shift_campaign
        assert report.ok(), report.to_table()
        assert report.failed() == ()
        assert report.rows["control"]["detection_latency"] is None
        assert report.rows["new_fab"]["repair"] == "weighted"
        assert report.rows["corner_drift"]["repair"] == "adaptive"
        assert report.rows["sensor_recal"]["repair"] == "refused+refit"
        assert report.metrics["n_recalibrations"] >= 1
        # Every downgrade carries an audited reason and detail.
        assert all(reason and detail for reason, detail in report.downgrades)

    def test_phase_wall_times_are_measured(self, shift_campaign):
        report, total_s = shift_campaign
        assert list(report.wall_s) == list(report.rows)
        assert all(seconds > 0.0 for seconds in report.wall_s.values())
        assert sum(report.wall_s.values()) <= total_s
