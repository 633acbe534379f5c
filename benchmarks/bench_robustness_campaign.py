"""Robustness extension -- coverage/length degradation under faults.

Serves a held-out lot through :class:`repro.robust.RobustVminFlow` (the
hardened CQR-CatBoost serving stack, with a parametric-only fallback
model) under the standard fault campaign over the on-chip monitor
block.  Expected shape: coverage stays within a few points of nominal
across all dead/stuck-sensor severities -- paid for with interval width
(policy inflation, fallback) rather than silent under-coverage -- and
the unhealthy-column accounting tracks the injected severity.
"""

from __future__ import annotations

from conftest import BENCH_SEED, bench_profile_name, publish

from repro.eval.stress import run_fault_campaign, worst_coverage
from repro.models import ObliviousBoostingRegressor
from repro.robust import FaultCampaign, RobustVminFlow

N_TRAIN = 110


def _render(dataset, profile) -> str:
    X, names = dataset.features(0)
    y = dataset.target(25.0, 0)
    parametric = [i for i, n in enumerate(names) if n.startswith("par_")]
    monitors = [i for i, n in enumerate(names) if not n.startswith("par_")]
    flow = RobustVminFlow(
        base_model=ObliviousBoostingRegressor(
            n_estimators=profile.catboost_estimators,
            quantile=0.5,
            random_state=BENCH_SEED,
        ),
        alpha=0.1,
        random_state=BENCH_SEED,
    )
    flow.fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        feature_names=names,
        fallback_columns=parametric,
        monitor_columns=monitors,
    )
    severities = (0.1,) if bench_profile_name() == "smoke" else (0.05, 0.1, 0.2, 0.4)
    campaign = FaultCampaign.standard(
        severities=severities, columns=monitors, seed=BENCH_SEED
    )
    report = run_fault_campaign(flow, X[N_TRAIN:], y[N_TRAIN:], campaign)
    nominal = report.metrics["nominal_coverage"]
    summary = (
        f"\nworst-case coverage drop vs nominal: "
        f"{(nominal - worst_coverage(report))*100:+.1f} points "
        f"(dead sensors only: "
        f"{(nominal - worst_coverage(report, 'dead_sensors'))*100:+.1f})"
    )
    return (
        report.to_table(title="Robustness | fault campaign on monitor block (25C, 0h)")
        + summary
    )


def test_robustness_campaign(benchmark, dataset, profile):
    text = benchmark.pedantic(_render, args=(dataset, profile), rounds=1, iterations=1)
    publish("robustness_campaign", text)
