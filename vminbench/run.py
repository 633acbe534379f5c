#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 vminbench/run.py --workload ate_stream --seed 1 --seconds 30 --trace 0
    python3 vminbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures the same workload once untraced and once traced,
each for half of ``--seconds``, and reports the per-layer metrics and the tracing overhead.  The report
is printed line by line with units; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record
(provenance, digests, counts, failure table) is written to
``.bench_build/vminbench/``, and a traced run also writes its spans there.
See ``vminbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".bench_build" / "vminbench"
WORKLOAD_NAMES = ("ate_stream", "serve_lot", "train_table3")


# The issue's metrics as printed: (name, unit, key in the record's values).
REPORT_ROWS = (
    ("setup_s", "s", "setup_s"),
    ("score_chips_per_s", "chips/s", "chips_per_s"),
    ("score_p50_ms", "ms", "call_p50_ms"),
    ("score_tail_ms", "ms", "call_tail_ms"),
    ("observe_p50_ms", "ms", "observe_p50_ms"),
    ("repair_s", "s", "repair_s"),
    ("grid_s", "s", "grid_s"),
    ("interval_width_mv", "mV", "interval_width_mv"),
    ("coverage", "fraction", "coverage"),
    ("error_rate", "fraction", "error_rate"),
    ("peak_rss_mb", "MiB", "peak_rss_mb"),
)
REPORT_SCOPE = {
    "score_chips_per_s": ("ate_stream", "serve_lot"),
    "score_p50_ms": ("ate_stream", "serve_lot"),
    "score_tail_ms": ("ate_stream", "serve_lot"),
    "observe_p50_ms": ("ate_stream",),
    "repair_s": ("ate_stream",),
    "grid_s": ("train_table3",),
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the harness self-check",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, measure and verify one workload; return its record."""
    from harness import host_calibration_ms, median, nproc, peak_rss_mb, provenance
    from layers import install_class_patches, layer_metrics
    from repro.models.binning import bin_cache_stats
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS

    name, trace = args.workload, bool(args.trace)
    size = SIZES[args.size]
    OUTDIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUTDIR))
    record: Dict[str, Any] = {
        "provenance": provenance(ROOT, args.seed, name, trace),
        "size": args.size,
        "seconds": args.seconds,
        "host_calibration_ms": host_calibration_ms(),
    }
    try:
        workload = WORKLOADS[name](args.seed, size, workdir)
        record["why"] = workload.why
        tracer = Tracer() if trace else None
        setup_times, setup_windows, hit_rates = [], [], []
        if tracer is not None:
            install_class_patches(tracer)
        for _ in range(workload.setup_repeats):
            # The last set-up's garbage goes first, so each set-up starts alike.
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
            setup_times.append(end - start)
            setup_windows.append((start, end))
            stats = bin_cache_stats()
            lookups = stats["hits"] + stats["builds"]
            hit_rates.append(stats["hits"] / lookups if lookups else 0.0)
        if tracer is not None:
            tracer.restore()
        record["setup_times_s"] = setup_times

        gc.collect()
        reference = None
        seconds = args.seconds
        if tracer is not None:
            # The untraced reference and the traced phase share --seconds.
            seconds = args.seconds / 2
            reference = workload.measure(seconds, "reference", None)
            install_class_patches(tracer)
        start = time.perf_counter()
        measured = workload.measure(seconds, "measure", tracer)
        window = (start, time.perf_counter())
        if tracer is not None:
            tracer.restore()
        rss = peak_rss_mb()
        verdict = workload.verify(measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = workload.ledger
    attempted = ledger.total("attempted", phase="measure")
    failed = ledger.failed(phase="measure")
    values = {key: value for key, value in measured.items() if isinstance(value, (int, float))}
    values.update(
        setup_s=median(setup_times),
        success_rate=(attempted - failed) / attempted if attempted else 0.0,
        error_rate=failed / attempted if attempted else 1.0,
        peak_rss_mb=rss,
    )
    record.update(
        values=values,
        tail=measured["tail"],
        checks=verdict["checks"],
        findings=verdict.get("findings", {}),
        coverage_floor=verdict.get("coverage_floor"),
        digests=verdict["digests"],
        counts=verdict["counts"],
        work=verdict.get("work", {}),
        samples_ms={
            op: [round(sample, 4) for sample in samples]
            for op, samples in measured["samples_ms"].items()
        },
        failures=ledger.table(),
        errors=ledger.errors[:20],
    )
    if "episode_chips_per_s" in measured:
        record["episode_chips_per_s"] = measured["episode_chips_per_s"]
    if tracer is not None:
        # Build layers are per grid on train_table3 and per set-up elsewhere.
        layers = layer_metrics(
            tracer,
            window,
            measured.get("unit_windows", setup_windows),
            setup_windows,
            nproc(),
        )
        layers.update(
            {
                "models.binning.hit_rate": median(measured.get("unit_hit_rates", hit_rates)),
                "serve.requests": float(ledger.total("attempted", "measure", "score")),
                "serve.retries": float(ledger.total("retried", "measure")),
                "serve.rejected": float(ledger.total("rejected", "measure")),
                "serve.overloaded": float(ledger.total("overloaded", "measure")),
                "robust.degraded_frac": measured.get("degraded_frac", 0.0),
                "robust.fallback_frac": measured.get("fallback_frac", 0.0),
                "shift.control_alarms": 0.0,
                "shift.alarms": 0.0,
                "shift.detect_latency_rows": 0.0,
                "shift.ess": 0.0,
                "trace.overhead_ms": measured["call_p50_ms"] - reference["call_p50_ms"],
                "trace.overhead_frac": measured["call_p50_ms"] / reference["call_p50_ms"] - 1.0,
            }
        )
        layers.update(verdict.get("layer_facts", {}))
        record["layers"] = layers
        record["untraced_reference"] = {
            key: value for key, value in reference.items() if isinstance(value, (int, float))
        }
        tracer.write(str(OUTDIR / f"{name}-seed{args.seed}-spans.jsonl.gz"))
    record["correct"] = all(verdict["checks"].values()) and ledger.failed() == 0
    record["attempted"] = ledger.total("attempted")
    record["failed"] = ledger.failed()
    path = OUTDIR / f"{name}-seed{args.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def _format(value: float) -> str:
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return str(value)
    return f"{value:.6g}"


def print_report(name: str, record: Dict[str, Any]) -> None:
    """Human-readable lines: every issue-level metric with its unit."""
    prov = record["provenance"]
    print(
        f"== {name} seed={prov['seed']} trace={int(prov['trace'])} "
        f"git={prov['git_sha'] or '-'} dirty={prov['git_dirty']} nproc={prov['nproc']} "
        f"blas_threads={prov['blas_threads']} numpy={prov['numpy']} scipy={prov['scipy']} "
        f"calibration_loop={record['host_calibration_ms']:.2f} ms"
    )
    values = record["values"]
    for metric, unit, key in REPORT_ROWS:
        if name not in REPORT_SCOPE.get(metric, WORKLOAD_NAMES):
            continue
        note = ""
        if metric == "score_tail_ms":
            tail = record["tail"]
            note = (
                f"  (median over {tail['windows']} windows of {tail['samples']} calls; "
                f"p{tail['percentile']:g}, at least {tail['samples_beyond']} beyond per window)"
            )
        if metric == "coverage" and record.get("coverage_floor") is not None:
            note = f"  (floor {record['coverage_floor']:.4f})"
        print(f"  {metric:<22} {_format(values[key]):>14} {unit}{note}")
    for phase, ops in record["failures"].items():
        for op, counts in ops.items():
            tally = " ".join(f"{kind}={count}" for kind, count in counts.items())
            print(f"  calls {phase}/{op:<16} {tally}")
    for check, ok in record["checks"].items():
        print(f"  check {check:<40} {'ok' if ok else 'FAILED'}")
    for finding, held in record["findings"].items():
        print(f"  finding {finding:<38} {'yes' if held else 'no'}")
    for error in record["errors"]:
        print(f"  error {error}")
    if "layers" in record:
        for metric, value in sorted(record["layers"].items()):
            print(f"  layer {metric:<36} {_format(value):>14}")
    print(f"  record {record['path']}")


def result_line(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The final JSON object, with the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if trace:
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {
                "value": record["layers"][entry["name"]],
                "unit": entry["unit"],
            }
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": record["values"][entry["name"]],
                "unit": entry["unit"],
            }
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    # Serial inner loops, the library default, whatever the caller's shell says.
    os.environ["REPRO_N_JOBS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_report(args.workload, record)
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
