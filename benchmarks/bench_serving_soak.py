"""Serving-layer soak benchmark with a machine-readable JSON report.

Runs :func:`repro.eval.stress.run_serving_campaign` -- the full
registry / hot-swap / admission-control / recalibration stack under
injected artifact corruption, a SIGKILLed scoring worker, and covariate
drift -- against the standard synthetic lot, and writes
``benchmarks/results/BENCH_serving.json`` (see :mod:`repro.perf.bench`
for the schema) with:

* the campaign wall time plus the report's metrics (throughput,
  p50/p99 per-request latency, coverage, registry counts) and downgrade
  reason codes as timing metadata,
* the report's named checks verbatim (see
  :func:`~repro.eval.stress.run_serving_campaign`): no unverified
  artifact ever served, zero requests dropped across hot-swaps,
  empirical coverage within the campaign tolerance of the promised
  ``1 - alpha``, the service ending the campaign ``READY``, at least one
  drift-triggered recalibration and one quarantined version, and every
  downgrade carrying a reason code.

A second, throughput section times the compiled decision-table kernel
(:mod:`repro.models.tables`) against a per-tree reference loop
(:func:`_predict_loop`, local to this bench) on the Table-III-sized
holdout batch: best-of-N wall times for both paths,
chips/s plus p50/p99 batch latency for the compiled path, and the
``compiled_batch_predict`` speedup ratio.  Two checks guard the
contract -- the compiled path must be bit-identical to the loop and at
least 5x faster -- and a third confirms the soak itself served through
a compiled kernel.

Wall times and latency figures vary run to run; the checks are the
contract and are asserted.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import BENCH_SEED, RESULTS_DIR, bench_profile_name, publish

from repro.eval.stress import run_serving_campaign
from repro.models import ObliviousBoostingRegressor
from repro.perf.bench import BenchRecorder
from repro.robust import RobustVminFlow

N_TRAIN = 110

# Paper-sized band ensembles for the throughput section (Table III
# setting); deliberately NOT scaled down by the smoke profile.
TABLE_III_ESTIMATORS = 100

REPORT_PATH = RESULTS_DIR / "BENCH_serving.json"


def _predict_loop(model, X: np.ndarray) -> np.ndarray:
    """Per-tree boosted sum: the loop the compiled kernel replaces."""
    prediction = np.full(X.shape[0], model.base_score_)
    for tree in model.trees_:
        prediction += model.learning_rate * tree.predict(X)
    return prediction


def _campaign_sizes() -> dict:
    """Phase lengths per profile: smoke is CI-sized, fast/full soak longer."""
    if bench_profile_name() == "smoke":
        return dict(
            n_clean_batches=3,
            n_crash_batches=3,
            n_swap_batches=4,
            n_drift_batches=10,
            n_recovery_batches=6,
        )
    return dict(
        n_clean_batches=6,
        n_crash_batches=6,
        n_swap_batches=8,
        n_drift_batches=16,
        n_recovery_batches=10,
    )


def test_serving_soak(dataset, profile, tmp_path):
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
        monitor_window=40,
        monitor_min_observations=20,
    )
    flow.fit(
        X[:N_TRAIN],
        y[:N_TRAIN],
        feature_names=names,
        fallback_columns=parametric,
        monitor_columns=monitors,
    )

    recorder = BenchRecorder(
        benchmark="serving", profile=bench_profile_name(), n_jobs=1
    )
    report = recorder.timed(
        "serving_campaign",
        lambda: run_serving_campaign(
            flow,
            X[N_TRAIN:],
            y[N_TRAIN:],
            tmp_path / "registry",
            batch_size=20,
            seed=BENCH_SEED,
            **_campaign_sizes(),
        ),
    )
    recorder.record(
        "serving_metrics",
        recorder.wall_s("serving_campaign"),
        **report.metrics,
        downgrade_reasons=[reason for reason, _ in report.downgrades],
    )
    for name, held in report.checks.items():
        recorder.check(name, held)

    # --- compiled-kernel throughput on the Table-III-sized holdout ----
    # The band models are the hot path of interval scoring; each scores
    # through its compiled_ decision-table kernel (predict) and keeps
    # its trees_, which _predict_loop sums one at a time, so the same
    # objects give an apples-to-apples single-thread comparison.  The pair is fitted at
    # the paper's ensemble size regardless of REPRO_BENCH so the
    # recorded speedup is profile-independent (the smoke soak shrinks
    # its models, which would dilute the ratio).
    lower = ObliviousBoostingRegressor(
        n_estimators=TABLE_III_ESTIMATORS, quantile=0.05, random_state=BENCH_SEED
    ).fit(X[:N_TRAIN], y[:N_TRAIN])
    upper = ObliviousBoostingRegressor(
        n_estimators=TABLE_III_ESTIMATORS, quantile=0.95, random_state=BENCH_SEED
    ).fit(X[:N_TRAIN], y[:N_TRAIN])
    X_holdout = np.ascontiguousarray(X[N_TRAIN:], dtype=np.float64)
    n_chips = int(X_holdout.shape[0])
    repeats = 30 if bench_profile_name() == "smoke" else 100

    loop_result = recorder.timed(
        "batch_predict_loop",
        lambda: (_predict_loop(lower, X_holdout), _predict_loop(upper, X_holdout)),
        repeats=repeats,
        n_chips=n_chips,
    )
    # Per-call samples (not just best-of-N) so the compiled path gets
    # honest p50/p99 batch-latency percentiles.
    latencies = []
    compiled_result = loop_result
    for _ in range(repeats):
        start = time.perf_counter()
        compiled_result = (lower.predict(X_holdout), upper.predict(X_holdout))
        latencies.append(time.perf_counter() - start)
    best_s = min(latencies)
    recorder.record(
        "batch_predict_compiled",
        best_s,
        repeats=repeats,
        n_chips=n_chips,
        chips_per_s=n_chips / best_s,
        p50_batch_latency_s=float(np.percentile(latencies, 50)),
        p99_batch_latency_s=float(np.percentile(latencies, 99)),
    )
    kernel_speedup = recorder.speedup(
        "compiled_batch_predict", "batch_predict_loop", "batch_predict_compiled"
    )
    parity = np.array_equal(compiled_result[0], loop_result[0]) and np.array_equal(
        compiled_result[1], loop_result[1]
    )
    recorder.check("compiled_parity_bit_identical", parity)
    recorder.check("compiled_speedup_at_least_5x", kernel_speedup >= 5.0)
    served_compiled = report.metrics["n_compiled_kernels"] >= 1
    recorder.check("served_through_compiled_kernel", served_compiled)

    path = recorder.write(REPORT_PATH)
    publish("serving_soak", report.to_table())
    print(f"wrote {path}")

    assert report.ok(), f"failed checks: {report.failed()}\n{report.to_table()}"
    assert parity, "compiled kernel diverged from the per-tree loop"
    assert kernel_speedup >= 5.0, f"compiled speedup only {kernel_speedup:.2f}x"
    assert served_compiled, "soak served without a compiled kernel"
