"""Distribution-shift campaign benchmark with a machine-readable report.

Runs :func:`repro.eval.stress.run_shift_campaign` -- the guarded
serving stack driven through a multi-fab fleet's three injected
distribution shifts (new-fab process corner, in-field corner drift,
sensor recalibration) -- and writes
``benchmarks/results/BENCH_shift.json`` (see :mod:`repro.perf.bench`
for the schema) with:

* the campaign wall time, and per phase its own measured wall time plus
  the report row (coverage, alarms, detection latency, repair path,
  effective sample size) as timing metadata,
* the report's campaign metrics and downgrade reason codes,
* the report's named checks verbatim (see
  :func:`~repro.eval.stress.run_shift_campaign` for their meaning), plus
  ``campaign_ok`` -- their conjunction, ``report.ok()``.

The campaign protocol is fixed at its committed operating point for
every ``REPRO_BENCH`` profile -- the invariants are tuned detection /
repair thresholds, not throughput knobs, so scaling the models would
change what is being asserted.  Wall times vary run to run; the
checks are the contract and are asserted.
"""

from __future__ import annotations

from conftest import BENCH_SEED, RESULTS_DIR, bench_profile_name, publish

from repro.eval.stress import run_shift_campaign
from repro.perf.bench import BenchRecorder

REPORT_PATH = RESULTS_DIR / "BENCH_shift.json"


def test_shift_campaign(tmp_path):
    recorder = BenchRecorder(
        benchmark="shift", profile=bench_profile_name(), n_jobs=1
    )
    report = recorder.timed(
        "shift_campaign",
        lambda: run_shift_campaign(tmp_path / "registry", seed=BENCH_SEED),
    )
    for name, row in report.rows.items():
        recorder.record(f"phase_{name}", report.wall_s[name], **row)
    recorder.record(
        "shift_metrics",
        recorder.wall_s("shift_campaign"),
        **report.metrics,
        downgrade_reasons=[reason for reason, _ in report.downgrades],
    )
    for name, held in report.checks.items():
        recorder.check(name, held)
    recorder.check("campaign_ok", report.ok())

    path = recorder.write(REPORT_PATH)
    publish("shift_campaign", report.to_table())
    print(f"wrote {path}")

    assert report.ok(), f"failed checks: {report.failed()}\n{report.to_table()}"
