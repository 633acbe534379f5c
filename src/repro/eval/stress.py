"""Stress-test harness: degradation under data *and* execution faults.

The robustness claim of :mod:`repro.robust` is quantitative: under a
given fault campaign the served intervals should lose *bounded* coverage
relative to the clean baseline, paying for damage with width (inflation,
fallback) rather than with silent under-coverage.  This module measures
exactly that, in four campaigns that all return one report type,
:class:`CampaignReport`:

* :func:`run_fault_campaign` serves one held-out lot through a fitted
  :class:`~repro.robust.flow.RobustVminFlow` once clean and once per
  fault scenario, one row per scenario -- the robustness analogue of
  the paper's Table III;
* :func:`run_execution_campaign` runs a small experiment grid once
  clean, then once per :class:`~repro.robust.faults.ExecutionFault`
  scenario with workers crashing or hanging mid-grid, and checks that
  the runtime (:mod:`repro.runtime`: retries, watchdog timeouts,
  requeue) recovers every cell with results bit-identical to the clean
  run;
* :func:`run_serving_campaign` stands up a full
  :class:`~repro.serve.service.VminServingService` against a real
  on-disk registry and drives it through the faults a deployment
  actually meets -- a SIGKILLed scoring worker, transient crashes, a
  hot-swap under concurrent load, drift that must trigger online
  recalibration, and an artifact corrupted on disk that must be
  quarantined and rolled back;
* :func:`run_shift_campaign` drives a guarded serving stack through a
  new fab, a calendar-time corner drift and a sensor re-referencing.

Pass/fail is a set of **named checks**: each campaign evaluates its
invariants where it holds the data and stores them, in order, in
``report.checks``.  ``report.ok()`` is their conjunction and
``report.failed()`` names the ones that did not hold, so a failing
campaign says *which* invariant broke.  Benchmarks record
``report.checks`` and ``report.metrics`` verbatim instead of
re-deriving them.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eval.experiments import ExperimentProfile, run_point_grid
from repro.eval.reporting import format_table
from repro.robust.faults import (
    AgingDrift,
    ExecutionFault,
    TaskCrashFault,
    TaskHangFault,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.watchdog import run_in_subprocess

__all__ = [
    "CampaignReport",
    "run_execution_campaign",
    "run_fault_campaign",
    "run_serving_campaign",
    "run_shift_campaign",
    "worst_coverage",
]


def _cell(value: Any) -> Any:
    """One table cell: booleans as yes/no, missing values as ``-``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "-" if value is None else value


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one stress campaign: rows, metrics and named checks.

    Attributes
    ----------
    title:
        Heading of :meth:`to_table`.
    rows:
        One entry per scenario or phase, in campaign order: row name ->
        column name -> value.
    metrics:
        Campaign-level scalars (counts, coverage, latency, end state).
    checks:
        The campaign's invariants in evaluation order: check name ->
        whether it held.  A campaign with nothing to assert has none.
    downgrades:
        Every audited quality-loss event as ``(reason_code, detail)``
        pairs, in the order the service recorded them.
    wall_s:
        Measured wall time (s) per row, for campaigns that time their
        rows.  Excluded from equality: a seeded campaign reproduces its
        report bit for bit, but not its timings.
    """

    title: str
    rows: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    metrics: Mapping[str, Any] = field(default_factory=dict)
    checks: Mapping[str, bool] = field(default_factory=dict)
    downgrades: Tuple[Tuple[str, str], ...] = ()
    wall_s: Mapping[str, float] = field(default_factory=dict, compare=False)

    def ok(self) -> bool:
        """Whether every named check held."""
        return all(self.checks.values())

    def failed(self) -> Tuple[str, ...]:
        """Names of the checks that did not hold, in check order."""
        return tuple(name for name, held in self.checks.items() if not held)

    def to_table(self, title: Optional[str] = None) -> str:
        """Monospace rows, metrics and checks plus the downgrade audit."""
        sections = [title or self.title]
        if self.rows:
            columns = list(
                dict.fromkeys(c for values in self.rows.values() for c in values)
            )
            sections.append(
                format_table(
                    ["name", *columns],
                    [
                        [name, *(_cell(values.get(c)) for c in columns)]
                        for name, values in self.rows.items()
                    ],
                    float_format="{:.4g}",
                )
            )
        if self.metrics:
            sections.append(
                format_table(
                    ["metric", "value"],
                    [[name, _cell(value)] for name, value in self.metrics.items()],
                    float_format="{:.4g}",
                )
            )
        if self.checks:
            sections.append(
                format_table(
                    ["check", "result"],
                    [
                        [name, "pass" if held else "FAIL"]
                        for name, held in self.checks.items()
                    ],
                )
            )
        if self.downgrades:
            sections.append(
                "Downgrade audit:\n"
                + "\n".join(
                    f"  [{reason}] {detail}" for reason, detail in self.downgrades
                )
            )
        return "\n\n".join(sections)


def worst_coverage(report: CampaignReport, prefix: Optional[str] = None) -> float:
    """Lowest row ``coverage``, optionally over rows named ``prefix...``.

    Raises ``ValueError`` when no row matches ``prefix``.  The fault
    campaign's coverage drop versus nominal is
    ``report.metrics["nominal_coverage"] - worst_coverage(report, prefix)``.
    """
    selected = [
        values["coverage"]
        for name, values in report.rows.items()
        if prefix is None or name.startswith(prefix)
    ]
    if not selected:
        raise ValueError(f"no scenario matches prefix {prefix!r}")
    return float(min(selected))


def run_fault_campaign(flow, X: np.ndarray, y: np.ndarray, campaign) -> CampaignReport:
    """Serve a held-out lot through every scenario of a fault campaign.

    Parameters
    ----------
    flow:
        A *fitted* :class:`~repro.robust.flow.RobustVminFlow` (anything
        whose ``predict_interval`` returns a
        :class:`~repro.robust.fallback.DegradedPrediction` works).
    X, y:
        Clean held-out chips and their measured Vmin labels; every
        scenario corrupts a fresh copy of ``X``.
    campaign:
        An iterable of :class:`~repro.robust.faults.FaultScenario`
        (e.g. :meth:`~repro.robust.faults.FaultCampaign.standard`).

    Returns a :class:`CampaignReport` with one row per scenario, named
    ``"<scenario>@<severity>"``: served ``coverage``, ``mean_width_v``,
    ``status``, policy ``inflation``, ``used_fallback`` and the guard's
    ``unhealthy_fraction``.  ``metrics`` holds the clean baseline
    (``nominal_coverage``, ``nominal_width_v``).  The campaign asserts
    nothing itself, so it has no checks; read it with
    :func:`worst_coverage`.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y must be a matching 2-D/1-D pair, got {X.shape} and {y.shape}"
        )
    nominal = flow.predict_interval(X)
    rows: Dict[str, Dict[str, Any]] = {}
    for scenario in campaign:
        name = f"{scenario.name}@{float(scenario.severity):g}"
        if name in rows:
            raise ValueError(f"duplicate fault scenario {name!r}")
        prediction = flow.predict_interval(scenario.apply(X))
        rows[name] = {
            "severity": float(scenario.severity),
            "status": prediction.status.value,
            "coverage": prediction.coverage(y),
            "mean_width_v": prediction.mean_width,
            "inflation": float(prediction.inflation),
            "used_fallback": bool(prediction.used_fallback),
            "unhealthy_fraction": prediction.health.unhealthy_fraction,
        }
    return CampaignReport(
        title="Fault-campaign stress report",
        rows=rows,
        metrics={
            "nominal_coverage": nominal.coverage(y),
            "nominal_width_v": nominal.mean_width,
        },
    )


# ---------------------------------------------------------------------------
# execution-fault campaign (crashed / hung workers mid-grid)
# ---------------------------------------------------------------------------


def _default_execution_scenarios(
    seed: int,
) -> Tuple[Tuple[str, ExecutionFault], ...]:
    """The standard execution campaign: crashes, repeat crashes, hangs."""
    return (
        ("worker_crash", TaskCrashFault(fraction=1.0, n_failures=1, seed=seed)),
        ("worker_crash_repeat", TaskCrashFault(fraction=0.6, n_failures=2, seed=seed + 1)),
        ("worker_hang", TaskHangFault(fraction=0.6, n_hangs=1, seed=seed + 2)),
    )


def run_execution_campaign(
    dataset,
    model_names: Sequence[str] = ("LR",),
    temperatures: Sequence[float] = (25.0,),
    read_points: Sequence[int] = (0,),
    scenarios: Optional[Sequence[Tuple[str, ExecutionFault]]] = None,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = 2,
    timeout: float = 30.0,
    retry_policy: Optional[RetryPolicy] = None,
) -> CampaignReport:
    """Kill and hang grid workers mid-flight; check the grid recovers.

    Runs the point grid once clean, then once per execution-fault
    scenario with the scenario's :meth:`~repro.robust.faults.ExecutionFault.wrap`
    installed as the grid's ``task_wrapper``.  The faulted runs execute
    with a retry policy (default: 3 attempts, fast deterministic
    backoff) and a per-cell ``timeout`` so crashes are retried and
    hangs are cut short by the cooperative watchdog; ``identical``
    then records whether retried work reproduced the clean results bit
    for bit -- the determinism-under-faults contract of
    ``docs/RUNTIME.md``.

    Returns a :class:`CampaignReport` with one row per scenario
    (``recovered``, ``identical``, ``n_cells``, ``n_retried``,
    ``n_failures``) and two checks: ``all_recovered`` (every scenario
    completed every cell) and ``all_identical`` (every scenario
    reproduced the clean grid bit for bit).
    """
    profile = profile or ExperimentProfile.smoke()
    if scenarios is None:
        scenarios = _default_execution_scenarios(seed)
    if retry_policy is None:
        retry_policy = RetryPolicy(
            max_attempts=3,
            backoff_base=0.01,
            backoff_max=0.05,
            seed=seed,
        )
    clean = run_point_grid(
        dataset,
        model_names,
        temperatures,
        read_points,
        profile=profile,
        seed=seed,
        n_jobs=n_jobs,
    )
    rows: Dict[str, Dict[str, Any]] = {}
    for name, fault in scenarios:
        if name in rows:
            raise ValueError(f"duplicate execution scenario {name!r}")
        faulted = run_point_grid(
            dataset,
            model_names,
            temperatures,
            read_points,
            profile=profile,
            seed=seed,
            n_jobs=n_jobs,
            retry_policy=retry_policy,
            timeout=timeout,
            on_error="capture",
            task_wrapper=fault.wrap,
        )
        recovered = faulted.ok and set(faulted) == set(clean)
        rows[name] = {
            "recovered": recovered,
            "identical": recovered and dict(faulted) == dict(clean),
            "n_cells": len(clean),
            "n_retried": faulted.n_retried,
            "n_failures": len(faulted.failures),
        }
    return CampaignReport(
        title="Execution-fault campaign report",
        rows=rows,
        checks={
            "all_recovered": all(row["recovered"] for row in rows.values()),
            "all_identical": all(row["identical"] for row in rows.values()),
        },
    )


# ---------------------------------------------------------------------------
# serving soak campaign (registry corruption, SIGKILLed workers, drift)
# ---------------------------------------------------------------------------


def _sigkill_entry(sentinel: str) -> bool:
    """Subprocess body: die by SIGKILL once, succeed ever after.

    The sentinel file is the cross-process attempt counter: the first
    run creates it and SIGKILLs itself (a *real* kill, surfacing in the
    parent as :class:`~repro.runtime.watchdog.WorkerCrash`); reruns see
    the sentinel and return normally, so a retry policy recovers.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("struck\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return True


class _SigkillWorker:
    """Task wrapper whose first wrapped call loses a worker to SIGKILL.

    Wraps a per-request callable so that, exactly once per sentinel
    path, a helper subprocess is killed with ``SIGKILL`` before the
    request runs -- raising :class:`~repro.runtime.watchdog.WorkerCrash`
    (a transient fault) into the service's retry loop.  Subsequent
    attempts find the sentinel and pass straight through.
    """

    def __init__(self, sentinel: Path, timeout: float = 30.0) -> None:
        self.sentinel = Path(sentinel)
        self.timeout = float(timeout)

    def wrap(
        self, fn: Callable[[object], object]
    ) -> Callable[[object], object]:
        """Return ``fn`` preceded by the one-shot SIGKILL probe."""

        def struck(item: object) -> object:
            run_in_subprocess(
                _sigkill_entry, str(self.sentinel), timeout=self.timeout
            )
            return fn(item)

        return struck


def _request_batches(
    n_rows: int, batch_size: int, count: int, start: int
) -> List[np.ndarray]:
    """``count`` wrapped index windows over ``n_rows`` rows."""
    return [
        (start + batch * batch_size + np.arange(batch_size)) % n_rows
        for batch in range(count)
    ]


def run_serving_campaign(
    flow,
    X: np.ndarray,
    y: np.ndarray,
    registry_root: Union[str, Path],
    batch_size: int = 25,
    n_clean_batches: int = 4,
    n_crash_batches: int = 4,
    n_swap_batches: int = 6,
    n_drift_batches: int = 12,
    n_recovery_batches: int = 8,
    drift_shift: float = 2.0,
    min_recal_labels: int = 30,
    tolerance: float = 0.15,
    seed: int = 0,
) -> CampaignReport:
    """Soak a full serving stack through the faults of a deployment.

    Publishes ``flow`` to a fresh :class:`~repro.serve.registry.
    ModelRegistry` at ``registry_root``, starts a
    :class:`~repro.serve.service.VminServingService` on it, then drives
    six phases over the held-out stream ``(X, y)``:

    1. **clean** -- nominal scoring with label feedback;
    2. **worker crash** -- the first request loses a worker to a real
       ``SIGKILL`` (via a subprocess probe) and a seeded fraction of
       requests crash transiently in-process; the retry policy must
       recover all of them;
    3. **hot-swap under load** -- a new version is published and
       swapped in while concurrent threads keep scoring; no request may
       fail with anything but typed load shedding;
    4. **drift** -- labels shift by ``drift_shift`` volts while the
       monitors age (:class:`~repro.robust.faults.AgingDrift`); the
       coverage monitor must alarm, degrade the service, and the
       :class:`~repro.serve.recalibration.DriftRecalibrator` must
       republish a recalibrated version;
    5. **corruption** -- the latest bundle is corrupted on disk; the
       forced reload must quarantine it and roll back to the last known
       good version;
    6. **recovery** -- a good bundle is republished, the service swaps
       onto it and must end the campaign ``READY`` on a clean stream.

    Returns a :class:`CampaignReport` without rows.  ``metrics`` carries
    requests issued / served / shed (``n_overloaded``) / answered only
    after a retry, ``dropped_during_swap`` (hot-swap requests that failed
    with anything but typed load shedding), ``unverified_serves``
    (batches served by a version that never passed checksum
    verification), throughput and p50/p99 request latency, empirical
    ``coverage`` over every served-and-labelled chip against
    ``target_coverage`` and ``tolerance``, recalibration / registry /
    quarantine counts, the ``final_state``, and ``n_compiled_kernels``,
    the decision-table kernels recorded in the bootstrap version's
    manifest (one per boosting ensemble in the flow; the manifest's
    ``"compiled"`` entries describe them).  ``downgrades`` is the audit
    trail.  The checks,
    in order: ``never_served_unverified``, ``zero_dropped_during_swap``,
    ``coverage_within_tolerance``, ``ends_ready``,
    ``recalibrated_under_drift``, ``corrupt_version_quarantined`` and
    ``all_downgrades_audited`` (every downgrade carries a reason code);
    ``report.ok()`` is the single pass/fail the CI smoke job asserts.
    """
    # Deferred import: repro.serve depends on repro.robust, and keeping
    # eval's module import light lets `repro.eval` load without the
    # serving stack when only the data-fault campaigns are used.
    from repro.serve.recalibration import DriftRecalibrator
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import (
        Overloaded,
        ServingConfig,
        VminServingService,
    )

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y must be a matching 2-D/1-D pair, got {X.shape} and {y.shape}"
        )
    if X.shape[0] < batch_size:
        raise ValueError(
            f"need at least one batch of {batch_size} rows, got {X.shape[0]}"
        )
    root = Path(registry_root)
    registry = ModelRegistry(root)
    bootstrap = registry.publish(
        flow, reason="published", metadata={"phase": "bootstrap"}
    )
    config = ServingConfig(
        max_in_flight=2,
        max_waiting=4,
        queue_timeout_s=30.0,
        deadline_s=60.0,
        retry_policy=RetryPolicy(
            max_attempts=4, backoff_base=0.01, backoff_max=0.05, seed=seed
        ),
    )
    service = VminServingService(registry, config=config)
    service.start()

    latencies: List[float] = []
    chips_served = 0
    covered = 0
    labelled = 0
    n_requests = 0
    n_retried = 0
    unverified = 0
    results_lock = threading.Lock()

    def score_and_count(batch: np.ndarray, labels: Optional[np.ndarray]):
        """One audited request: score, tally metrics and coverage."""
        nonlocal chips_served, covered, labelled, n_requests, n_retried
        nonlocal unverified
        with results_lock:
            n_requests += 1
        result = service.score(batch)
        with results_lock:
            latencies.append(result.wall_s)
            chips_served += len(result.prediction)
            if result.attempts > 1:
                n_retried += 1
            if result.model_version not in service.verified_versions_:
                unverified += 1
            if labels is not None:
                covered += int(
                    np.sum(result.prediction.intervals.contains(labels))
                )
                labelled += int(labels.shape[0])
        return result

    cursor = 0

    # Phase 1: clean scoring with label feedback.
    for rows in _request_batches(X.shape[0], batch_size, n_clean_batches, cursor):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])
    cursor += n_clean_batches * batch_size

    # Phase 2: a real SIGKILLed worker plus transient in-process crashes.
    crash = TaskCrashFault(fraction=0.5, n_failures=1, seed=seed + 1)
    sigkill = _SigkillWorker(root / "sigkill.sentinel")
    service.task_wrapper = lambda fn: sigkill.wrap(crash.wrap(fn))
    for rows in _request_batches(X.shape[0], batch_size, n_crash_batches, cursor):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])
    service.task_wrapper = None
    cursor += n_crash_batches * batch_size

    # Phase 3: hot-swap while concurrent threads keep scoring.
    registry.publish(
        flow, reason="republished", metadata={"phase": "swap_under_load"}
    )
    swap_errors: List[BaseException] = []
    n_overload_sheds = 0

    def swap_load(thread_index: int) -> None:
        nonlocal n_overload_sheds
        offset = cursor + thread_index * n_swap_batches * batch_size
        for rows in _request_batches(
            X.shape[0], batch_size, n_swap_batches, offset
        ):
            try:
                score_and_count(X[rows], y[rows])
            except Overloaded:
                with results_lock:
                    n_overload_sheds += 1
            except BaseException as error:  # noqa: BLE001 - audited below
                with results_lock:
                    swap_errors.append(error)

    threads = [
        threading.Thread(target=swap_load, args=(index,)) for index in range(3)
    ]
    for thread in threads:
        thread.start()
    service.hot_swap()
    for thread in threads:
        thread.join()
    dropped_during_swap = len(swap_errors)
    cursor += 3 * n_swap_batches * batch_size

    # Phase 4: covariate + label drift; must alarm, recalibrate, republish.
    recalibrator = DriftRecalibrator(service, min_labels=min_recal_labels)
    drift_rng = np.random.default_rng(seed + 2)
    aging = AgingDrift(shift_scale=0.5)
    for rows in _request_batches(X.shape[0], batch_size, n_drift_batches, cursor):
        X_drift = aging.inject(X[rows], drift_rng)
        y_drift = y[rows] + drift_shift
        score_and_count(X_drift, y_drift)
        recalibrator.ingest(X_drift, y_drift)
    cursor += n_drift_batches * batch_size

    # Phase 5: corrupt the live bundle on disk; reload must quarantine
    # it and roll the service back to the last known good version.
    live = registry.latest()
    bundle = registry.versions_dir / live / "bundle.pkl"
    payload = bytearray(bundle.read_bytes())
    payload[: min(64, len(payload))] = b"\x00" * min(64, len(payload))
    bundle.write_bytes(bytes(payload))
    service.hot_swap()

    # Phase 6: republish a good bundle, swap onto it, finish clean.
    registry.publish(
        service.served_model,
        reason="republished",
        metadata={"phase": "recovery"},
    )
    service.hot_swap()
    for rows in _request_batches(
        X.shape[0], batch_size, n_recovery_batches, cursor
    ):
        score_and_count(X[rows], y[rows])
        service.observe(X[rows], y[rows])

    sorted_latencies = np.sort(np.asarray(latencies))
    total_wall = float(np.sum(sorted_latencies))
    coverage = (covered / labelled) if labelled else 0.0
    target_coverage = 1.0 - float(flow.alpha)
    n_recalibrations = len(recalibrator.events_)
    n_quarantined = len(registry.quarantined())
    downgrades = tuple(
        (record.reason.value, record.detail)
        for record in service.health.downgrades()
    )
    final_state = service.state.value
    return CampaignReport(
        title="Serving soak report",
        metrics={
            "n_requests": n_requests,
            "n_served": service.n_served_,
            "n_overloaded": n_overload_sheds,
            "n_retried": n_retried,
            "dropped_during_swap": dropped_during_swap,
            "unverified_serves": unverified,
            "chips_per_s": (chips_served / total_wall) if total_wall > 0 else 0.0,
            "p50_latency_s": float(np.percentile(sorted_latencies, 50)),
            "p99_latency_s": float(np.percentile(sorted_latencies, 99)),
            "coverage": coverage,
            "target_coverage": target_coverage,
            "tolerance": float(tolerance),
            "n_recalibrations": n_recalibrations,
            "n_versions": len(registry.versions()),
            "n_quarantined": n_quarantined,
            "final_state": final_state,
            "n_compiled_kernels": len(bootstrap.manifest.get("compiled", [])),
        },
        checks={
            "never_served_unverified": unverified == 0,
            "zero_dropped_during_swap": dropped_during_swap == 0,
            "coverage_within_tolerance": (
                coverage >= target_coverage - float(tolerance)
            ),
            "ends_ready": final_state == "ready",
            "recalibrated_under_drift": n_recalibrations >= 1,
            "corrupt_version_quarantined": n_quarantined >= 1,
            "all_downgrades_audited": all(reason for reason, _ in downgrades),
        },
        downgrades=downgrades,
    )


# ---------------------------------------------------------------------------
# distribution-shift campaign (new fab, corner drift, sensor recalibration)
# ---------------------------------------------------------------------------


def run_shift_campaign(
    registry_root: Union[str, Path],
    n_chips: int = 260,
    n_estimators: int = 60,
    corner_offset_v: float = 0.015,
    drift_v_per_khour: float = 0.003,
    drift_hours: Sequence[int] = (2000, 4000, 6000),
    recal_offset_sigma: float = 8.0,
    detector_stride: int = 8,
    ratio_stride: int = 16,
    ratio_ridge: float = 4.0,
    min_ess: float = 10.0,
    min_recal_labels: Optional[int] = None,
    batch_size: int = 65,
    alpha: float = 0.1,
    tolerance: float = 0.05,
    detection_budget: int = 150,
    worst_coverage_floor: float = 0.6,
    seed: int = 2024,
) -> CampaignReport:
    """Drive a guarded serving stack through three distribution shifts.

    Generates a multi-fab fleet with :class:`~repro.silicon.fleet.
    FleetGenerator` (one product, a reference fab, and a skewed fab at a
    ``corner_offset_v`` Vth process corner), trains a
    :class:`~repro.robust.flow.RobustVminFlow` on one reference lot,
    publishes it, and serves through a
    :class:`~repro.serve.service.VminServingService` carrying a
    :class:`~repro.serve.shiftguard.ShiftGuard`.  Four phases:

    1. **control** -- two fresh reference-fab lots (exchangeable with
       the training lot); every sentinel must stay quiet and coverage
       must hold at nominal -- the false-alarm baseline;
    2. **new_fab** -- a lot from the skewed fab: the exchangeability
       martingale and the covariate detector must both fire within the
       detection budget, the service must degrade under audited reason
       codes, and :meth:`~repro.serve.service.VminServingService.
       repair_shift` must restore coverage on a held-out skewed lot via
       weighted conformal recalibration;
    3. **corner_drift** -- the reference fab's corner drifts with
       calendar time (``drift_v_per_khour``); realized coverage decays
       across the drift lots, the coverage monitor alarms, and the
       :class:`~repro.serve.recalibration.DriftRecalibrator` must
       republish an adaptively recalibrated version that restores
       coverage at the drifted corner;
    4. **sensor_recal** -- a firmware re-referencing adds a constant
       ``recal_offset_sigma``-sigma offset to one ROD flavour: the
       covariate detector must fire while the martingale stays quiet
       (the labels still agree with the model -- only the features
       moved), the weighted repair must *refuse* on degenerate weights,
       and recovery comes from a full refit on the re-referenced lot.

    Label feedback streams in ``batch_size``-row batches (the ATE
    delivers sub-lot batches, and sentinel latency is only meaningful
    at that granularity).  ``min_recal_labels`` defaults to two and a
    half lots' worth of labels so the drift phase republishes exactly
    once, on the full drift evidence -- republishing eagerly mid-drift
    makes the online recalibration overshoot on its own wide margins.
    Everything is seeded; the same arguments reproduce the same report
    bit for bit (the per-phase ``report.wall_s`` timings excepted).

    Returns a :class:`CampaignReport` with one row per phase:
    ``n_lots`` served before any repair, the phase's worst per-lot
    ``coverage`` and ``mean_width_v`` before repair, whether each
    sentinel fired (``exchangeability_alarm`` / ``covariate_alarm``),
    the ``detection_latency`` in labels past the phase start (``None``
    when no sentinel fired, and always for the drift phase, whose
    mid-phase republication re-arms the sentinels), the ``repair`` path
    (``none`` / ``weighted`` / ``adaptive`` / ``refused+refit``), the
    accepted weights' ``ess``, the ``post_repair_coverage`` on a
    held-out lot of the shifted distribution, and the service ``state``
    at phase end.  The checks, in order: ``control_quiet``,
    ``control_coverage_nominal``, ``new_fab_detected_in_budget``,
    ``new_fab_weighted_repair``, ``drift_adaptive_repair``,
    ``recal_covariate_only_alarm``, ``recal_detected_in_budget``,
    ``recal_refused_then_refit``, ``recalibrated_under_drift``,
    ``worst_coverage_above_floor``, ``all_downgrades_audited`` and
    ``ends_ready``; "repaired" means post-repair coverage of at least
    ``1 - alpha - tolerance``.  ``report.ok()`` is the single pass/fail
    the CI smoke job asserts.
    """
    # Deferred imports, mirroring run_serving_campaign: keep the eval
    # package importable without the serving stack.
    from repro.models.oblivious import ObliviousBoostingRegressor
    from repro.robust.flow import RobustVminFlow
    from repro.serve.health import ReasonCode
    from repro.serve.recalibration import DriftRecalibrator
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import VminServingService
    from repro.serve.shiftguard import ShiftGuard
    from repro.shift import (
        CovariateShiftDetector,
        DegenerateWeightsError,
        LogisticDensityRatio,
    )
    from repro.silicon.fleet import (
        CornerDrift,
        FabProfile,
        FleetGenerator,
        ProcessCorner,
        ProductSpec,
    )

    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if min_recal_labels is None:
        # Two and a half lots of labels: the drift recalibrator then
        # republishes exactly once, at the end of the drift stream, with
        # the full excursion in its adaptive state.  Republishing after
        # every lot lets the next lot's feedback run against the freshly
        # widened intervals, and the Gibbs-Candes update then overshoots
        # (alpha_t climbs far above alpha on a pure over-coverage
        # stream, collapsing the following version's intervals).
        min_recal_labels = int(2.5 * n_chips)

    fleet = FleetGenerator(
        products=[ProductSpec("alpha", n_chips=n_chips)],
        fabs=[
            FabProfile(
                "ref",
                ProcessCorner("nominal"),
                drift=CornerDrift(vth_v_per_khour=drift_v_per_khour),
            ),
            FabProfile(
                "newfab", ProcessCorner("slow", vth_offset_v=corner_offset_v)
            ),
        ],
        seed=seed,
    )

    def lot_data(fab: str, hours: int = 0, lot_index: int = 0):
        """One generated lot as (lot, features, labels)."""
        lot = fleet.lot(
            "alpha",
            fab,
            calendar_hours=hours,
            lot_index=lot_index,
            read_points=(0,),
            temperatures=(25.0,),
        )
        features, _ = lot.dataset.features(0)
        return lot, features, lot.dataset.vmin[(25.0, 0)]

    train_lot, X_train, y_train = lot_data("ref", lot_index=0)
    feature_names = train_lot.dataset.features(0)[1]
    monitor_columns = np.asarray(
        [
            index
            for index, name in enumerate(feature_names)
            if not name.startswith("par_")
        ],
        dtype=np.int64,
    )
    f0_columns = np.asarray(
        [
            index
            for index, name in enumerate(feature_names)
            if name.startswith("rod_f0")
        ],
        dtype=np.int64,
    )
    ratio_columns = monitor_columns[::ratio_stride]

    def make_flow() -> RobustVminFlow:
        """The campaign's flow configuration (shared by train and refit)."""
        return RobustVminFlow(
            base_model=ObliviousBoostingRegressor(
                n_estimators=n_estimators,
                max_bins=16,
                quantile=0.5,
                random_state=0,
            ),
            alpha=alpha,
            random_state=0,
            monitor_window=40,
            monitor_min_observations=20,
        )

    flow = make_flow()
    flow.fit(
        X_train,
        y_train,
        feature_names=feature_names,
        monitor_columns=monitor_columns,
    )

    guard = ShiftGuard(
        detector=CovariateShiftDetector(
            psi_threshold=1.0, alarm_fraction=0.10, min_observations=40
        ),
        feature_columns=monitor_columns[::detector_stride],
    )
    registry = ModelRegistry(Path(registry_root))
    registry.publish(flow, reason="published", metadata={"phase": "bootstrap"})
    service = VminServingService(registry, shift_guard=guard)
    service.start()

    def ratio_estimator() -> LogisticDensityRatio:
        """A fresh, seeded density-ratio template per repair attempt."""
        return LogisticDensityRatio(ridge=ratio_ridge, random_state=seed)

    def stream_observe(X, y, zones=None) -> None:
        """Feed label feedback in ATE-sized batches.

        Real test floors deliver labels a handful of wafers at a time,
        and sentinel detection latency is only meaningful at that
        granularity: the PSI detector evaluates once per ``observe``
        batch, so feeding a whole lot at once would quantise its latency
        to the lot size.
        """
        for start in range(0, len(y), batch_size):
            stop = start + batch_size
            service.observe(
                X[start:stop],
                y[start:stop],
                zones=None if zones is None else zones[start:stop],
            )

    def sentinel_latency(baseline: int) -> Optional[int]:
        """Observations past ``baseline`` before the first sentinel fired."""
        fired = []
        if guard.martingale_ is not None and guard.martingale_.alarms_:
            fired.append(guard.martingale_.alarms_[0].n_observed - baseline)
        if guard.detector_ is not None and guard.detector_.alarms_:
            fired.append(guard.detector_.alarms_[0].n_observed - baseline)
        eligible = [latency for latency in fired if latency > 0]
        return min(eligible) if eligible else None

    def reset_to_golden(phase: str) -> None:
        """Republish the pristine bundle and swap onto it (fresh guard).

        The service only ever mutates the *unpickled* copies it loads
        from the registry, so the in-process ``flow`` still holds the
        freshly fitted state; republishing it starts the next phase
        from a clean bundle with every sentinel re-baselined.
        """
        registry.publish(flow, reason="republished", metadata={"phase": phase})
        service.hot_swap()

    floor = (1.0 - float(alpha)) - float(tolerance)
    budget = int(detection_budget)
    rows: Dict[str, Dict[str, Any]] = {}
    phase_wall: Dict[str, float] = {}
    checks: Dict[str, bool] = {}

    def end_phase(name: str, started: float, **values: Any) -> Dict[str, Any]:
        """Record one phase row, its end-of-phase state and wall time."""
        rows[name] = dict(values, state=service.state.value)
        phase_wall[name] = time.perf_counter() - started
        return rows[name]

    def in_budget(latency: Optional[int]) -> bool:
        """Whether a sentinel fired within the detection budget."""
        return latency is not None and latency <= budget

    # Phase 1: control -- fresh reference lots, everything must stay quiet.
    started = time.perf_counter()
    control_coverages = []
    control_widths = []
    for lot_index in (1, 2):
        lot, X, y = lot_data("ref", lot_index=lot_index)
        result = service.score(X)
        control_coverages.append(result.prediction.coverage(y))
        control_widths.append(result.prediction.mean_width)
        stream_observe(X, y, zones=lot.zones(3))
    verdict = guard.verdict()
    control = end_phase(
        "control",
        started,
        n_lots=2,
        coverage=float(min(control_coverages)),
        mean_width_v=float(np.mean(control_widths)),
        exchangeability_alarm=verdict.exchangeability_alarm,
        covariate_alarm=verdict.covariate_alarm,
        detection_latency=sentinel_latency(0),
        repair="none",
        ess=None,
        post_repair_coverage=None,
    )
    checks["control_quiet"] = not (
        verdict.exchangeability_alarm or verdict.covariate_alarm
    )
    checks["control_coverage_nominal"] = control["coverage"] >= floor

    # Phase 2: new fab -- both sentinels fire, weighted repair restores.
    started = time.perf_counter()
    phase_start = guard.n_observed_
    lot, X_shift, y_shift = lot_data("newfab", lot_index=0)
    result = service.score(X_shift)
    new_fab_coverage = result.prediction.coverage(y_shift)
    new_fab_width = result.prediction.mean_width
    stream_observe(X_shift, y_shift, zones=lot.zones(3))
    verdict = guard.verdict()
    new_fab_latency = sentinel_latency(phase_start)
    ess: Optional[float] = None
    try:
        ess = service.repair_shift(
            X_shift,
            ratio_columns=ratio_columns,
            min_ess=min_ess,
            ratio_estimator=ratio_estimator(),
        )
        new_fab_repair = "weighted"
    except DegenerateWeightsError:
        new_fab_repair = "refused"
    _, X_held, y_held = lot_data("newfab", lot_index=1)
    new_fab_post = float(service.score(X_held).prediction.coverage(y_held))
    end_phase(
        "new_fab",
        started,
        n_lots=1,
        coverage=float(new_fab_coverage),
        mean_width_v=float(new_fab_width),
        exchangeability_alarm=verdict.exchangeability_alarm,
        covariate_alarm=verdict.covariate_alarm,
        detection_latency=new_fab_latency,
        repair=new_fab_repair,
        ess=ess,
        post_repair_coverage=new_fab_post,
    )
    checks["new_fab_detected_in_budget"] = (
        verdict.exchangeability_alarm
        and verdict.covariate_alarm
        and in_budget(new_fab_latency)
    )
    checks["new_fab_weighted_repair"] = (
        new_fab_repair == "weighted" and ess is not None and new_fab_post >= floor
    )

    # Phase 3: corner drift -- realized coverage decays with calendar
    # time; the coverage monitor alarms and the DriftRecalibrator must
    # republish an adaptively recalibrated version.
    started = time.perf_counter()
    reset_to_golden("corner_drift")
    recalibrator = DriftRecalibrator(service, min_labels=min_recal_labels)
    audit_start = len(service.health.transitions_)
    drift_coverages = []
    drift_widths = []
    for hours in drift_hours:
        _, X_drift, y_drift = lot_data("ref", hours=hours, lot_index=2)
        result = service.score(X_drift)
        drift_coverages.append(result.prediction.coverage(y_drift))
        drift_widths.append(result.prediction.mean_width)
        recalibrator.ingest(X_drift, y_drift)
    # A mid-phase republication re-arms (and thereby resets) the
    # sentinels, so the phase's alarm evidence is read from the
    # persistent health audit trail rather than the live guard.
    drift_records = service.health.transitions_[audit_start:]
    # Post-repair check at the drifted corner: the republished adaptive
    # flow must hold coverage where the stale bundle was failing.
    _, X_post, y_post = lot_data(
        "ref", hours=int(drift_hours[-1]), lot_index=3
    )
    drift_post = float(service.score(X_post).prediction.coverage(y_post))
    # The excursion is then corrected at the fab: recovery traffic from
    # the nominal corner brings the rolling coverage back to target.
    for lot_index in (4, 5):
        _, X_rec, y_rec = lot_data("ref", hours=0, lot_index=lot_index)
        service.score(X_rec)
        stream_observe(X_rec, y_rec)
    drift_repair = "adaptive" if recalibrator.events_ else "none"
    end_phase(
        "corner_drift",
        started,
        n_lots=len(tuple(drift_hours)),
        coverage=float(min(drift_coverages)),
        mean_width_v=float(np.mean(drift_widths)),
        exchangeability_alarm=any(
            record.reason is ReasonCode.EXCHANGEABILITY_ALARM
            for record in drift_records
        ),
        covariate_alarm=any(
            record.reason is ReasonCode.COVARIATE_SHIFT for record in drift_records
        ),
        # Latency in observations is not well defined across the
        # mid-phase re-arm; the audit trail carries the ordering.
        detection_latency=None,
        repair=drift_repair,
        ess=None,
        post_repair_coverage=drift_post,
    )
    checks["drift_adaptive_repair"] = (
        drift_repair == "adaptive" and drift_post >= floor
    )

    # Phase 4: sensor recalibration -- a constant re-referencing offset
    # on one ROD flavour.  Features move, labels do not: the covariate
    # detector must fire while the martingale stays quiet, the weighted
    # repair must refuse (degenerate weights), and recovery is a refit.
    started = time.perf_counter()
    reset_to_golden("sensor_recal")
    recal_offset = recal_offset_sigma * X_train[:, f0_columns].std(axis=0)
    recal_start = guard.n_observed_

    def recalibrated_lot(lot_index: int):
        """A reference lot with the f0 ROD block re-referenced."""
        lot, X, y = lot_data("ref", lot_index=lot_index)
        X = np.array(X)
        X[:, f0_columns] += recal_offset
        return lot, X, y

    lot, X_recal, y_recal = recalibrated_lot(6)
    result = service.score(X_recal)
    recal_coverage = result.prediction.coverage(y_recal)
    recal_width = result.prediction.mean_width
    stream_observe(X_recal, y_recal, zones=lot.zones(3))
    verdict = guard.verdict()
    recal_latency = sentinel_latency(recal_start)
    recal_repair = "weighted"
    try:
        service.repair_shift(
            X_recal,
            ratio_columns=ratio_columns,
            min_ess=min_ess,
            ratio_estimator=ratio_estimator(),
        )
    except DegenerateWeightsError:
        # The honest path: refit on the re-referenced lot (labels are
        # in hand -- the same lot was just measured) and republish.
        refit = make_flow()
        refit.fit(
            X_recal,
            y_recal,
            feature_names=feature_names,
            monitor_columns=monitor_columns,
        )
        registry.publish(
            refit, reason="refit", metadata={"phase": "sensor_recal"}
        )
        service.hot_swap()
        recal_repair = "refused+refit"
    _, X_recal_held, y_recal_held = recalibrated_lot(7)
    recal_post = float(
        service.score(X_recal_held).prediction.coverage(y_recal_held)
    )
    stream_observe(X_recal_held, y_recal_held)
    end_phase(
        "sensor_recal",
        started,
        n_lots=1,
        coverage=float(recal_coverage),
        mean_width_v=float(recal_width),
        exchangeability_alarm=verdict.exchangeability_alarm,
        covariate_alarm=verdict.covariate_alarm,
        detection_latency=recal_latency,
        repair=recal_repair,
        ess=None,
        post_repair_coverage=recal_post,
    )
    checks["recal_covariate_only_alarm"] = (
        verdict.covariate_alarm and not verdict.exchangeability_alarm
    )
    checks["recal_detected_in_budget"] = in_budget(recal_latency)
    checks["recal_refused_then_refit"] = (
        recal_repair == "refused+refit" and recal_post >= floor
    )

    n_recalibrations = len(recalibrator.events_)
    downgrades = tuple(
        (record.reason.value, record.detail)
        for record in service.health.downgrades()
    )
    final_state = service.state.value
    checks["recalibrated_under_drift"] = n_recalibrations >= 1
    checks["worst_coverage_above_floor"] = min(
        row["coverage"] for row in rows.values()
    ) >= float(worst_coverage_floor)
    checks["all_downgrades_audited"] = all(reason for reason, _ in downgrades)
    checks["ends_ready"] = final_state == "ready"
    return CampaignReport(
        title="Distribution-shift campaign report",
        rows=rows,
        metrics={
            "target_coverage": 1.0 - float(alpha),
            "tolerance": float(tolerance),
            "detection_budget": budget,
            "worst_coverage_floor": float(worst_coverage_floor),
            "n_recalibrations": n_recalibrations,
            "n_versions": len(registry.versions()),
            "final_state": final_state,
        },
        checks=checks,
        downgrades=downgrades,
        wall_s=phase_wall,
    )
