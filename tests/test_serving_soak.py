"""End-to-end soak of the serving stack under injected deployment faults.

One compact :func:`~repro.eval.stress.run_serving_campaign` run covers
the ISSUE's acceptance invariants directly: no unverified artifact is
ever served, zero requests drop across a hot-swap, empirical coverage
stays within tolerance of the promised level, drift triggers at least
one recalibration republication, corruption triggers quarantine, and
every downgrade carries a recorded reason code.
"""

import numpy as np
import pytest

from repro.eval.stress import CampaignReport, run_serving_campaign
from repro.models import QuantileLinearRegression
from repro.robust import RobustVminFlow

N_PARAMETRIC = 4
N_MONITORS = 8
D = N_PARAMETRIC + N_MONITORS
N_TRAIN = 200


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One soak campaign shared by the assertion tests below."""
    rng = np.random.default_rng(23)
    X = rng.normal(size=(700, D))
    w = np.concatenate(
        [np.array([2.0, -1.0, 1.5, 1.0]), np.full(N_MONITORS, 0.3)]
    )
    y = X @ w + rng.normal(scale=0.5, size=700)
    flow = RobustVminFlow(
        base_model=QuantileLinearRegression(),
        alpha=0.1,
        random_state=0,
        monitor_min_observations=15,
        monitor_window=30,
    ).fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        fallback_columns=list(range(N_PARAMETRIC)),
        monitor_columns=list(range(N_PARAMETRIC, D)),
    )
    root = tmp_path_factory.mktemp("soak-registry")
    return run_serving_campaign(
        flow,
        X[N_TRAIN:],
        y[N_TRAIN:],
        root,
        batch_size=20,
        n_clean_batches=2,
        n_crash_batches=2,
        n_swap_batches=3,
        n_drift_batches=8,
        n_recovery_batches=5,
        min_recal_labels=30,
        seed=23,
    )


class TestSoakInvariants:
    def test_campaign_passes_outright(self, campaign):
        assert isinstance(campaign, CampaignReport)
        assert campaign.ok(), campaign.to_table()
        assert campaign.failed() == ()

    def test_never_serves_unverified_artifacts(self, campaign):
        assert campaign.metrics["unverified_serves"] == 0
        assert campaign.checks["never_served_unverified"]

    def test_hot_swap_drops_zero_requests(self, campaign):
        assert campaign.metrics["dropped_during_swap"] == 0
        assert campaign.checks["zero_dropped_during_swap"]

    def test_coverage_within_tolerance(self, campaign):
        metrics = campaign.metrics
        assert metrics["coverage"] >= (
            metrics["target_coverage"] - metrics["tolerance"]
        )
        assert metrics["target_coverage"] == pytest.approx(0.9)
        assert campaign.checks["coverage_within_tolerance"]

    def test_transient_crashes_were_retried_away(self, campaign):
        # Phase 2 injects a real SIGKILLed worker plus in-process
        # crashes; all of them must have been recovered, not dropped.
        metrics = campaign.metrics
        assert metrics["n_retried"] >= 1
        assert metrics["n_served"] == metrics["n_requests"] - metrics["n_overloaded"]

    def test_drift_triggered_recalibration(self, campaign):
        assert campaign.metrics["n_recalibrations"] >= 1
        assert campaign.checks["recalibrated_under_drift"]
        # Recalibration republishes, so the registry grew beyond the
        # seed version plus the phase-3 swap target.
        assert campaign.metrics["n_versions"] >= 3

    def test_corruption_was_quarantined(self, campaign):
        assert campaign.metrics["n_quarantined"] >= 1
        assert campaign.checks["corrupt_version_quarantined"]

    def test_every_downgrade_has_a_reason_code(self, campaign):
        assert campaign.downgrades, "soak recorded no downgrades at all"
        assert all(reason for reason, _ in campaign.downgrades)
        assert campaign.checks["all_downgrades_audited"]
        reasons = {reason for reason, _ in campaign.downgrades}
        assert "artifact_corrupt" in reasons
        assert "rolled_back" in reasons

    def test_service_ends_ready(self, campaign):
        assert campaign.metrics["final_state"] == "ready"
        assert campaign.checks["ends_ready"]

    def test_report_table_carries_the_audit(self, campaign):
        table = campaign.to_table()
        assert "Serving soak report" in table
        assert "Downgrade audit:" in table
        assert "artifact_corrupt" in table
