#!/usr/bin/env python3
"""Self-check of the benchmark harness at a tiny size.

Usage, from the root of a checkout::

    python3 vminbench/selfcheck.py [--seed 7]

For every workload it runs ``run.py --size tiny`` three times -- twice
untraced with one seed, once traced -- and checks that

* the two untraced runs give identical digests and deterministic counts;
* every metric ``BENCHMARK.json`` names is emitted, with its unit
  (end-to-end metrics untraced, per-layer metrics traced);
* in the traced run the per-layer self times add up to the root spans
  (``trace.balance_err`` below 1%), and the tracing overhead is stated;
* ``README.md`` says why each workload was chosen and maps every
  per-layer metric to the end-to-end metric it should move.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BALANCE_LIMIT = 0.01


def run(workload: str, seed: int, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One tiny run: (final JSON line, full record)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {completed.returncode}:\n{completed.stderr}")
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_build" / "vminbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(record_path.read_text())


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="benchmark harness self-check")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (HERE / "README.md").read_text()
    failures: List[str] = []

    def check(ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            failures.append(message)

    for entry in spec["workloads"]:
        name = entry["name"]
        first_line, first = run(name, args.seed, 0)
        second_line, second = run(name, args.seed, 0)
        traced_line, traced = run(name, args.seed, 1)
        check(first_line["correct"] and second_line["correct"] and traced_line["correct"],
              f"{name}: every run is correct")
        check(first["digests"] == second["digests"] and bool(first["digests"]),
              f"{name}: one seed, identical digests {first['digests']}")
        check(first["counts"] == second["counts"],
              f"{name}: one seed, identical counts {first['counts']}")
        for kind, line in (("end_to_end", first_line), ("per_layer", traced_line)):
            missing = [
                m["name"] for m in spec[kind]
                if line["metrics"].get(m["name"], {}).get("unit") != m["unit"]
            ]
            check(not missing, f"{name}: every {kind} metric emitted with its unit {missing or ''}")
        layers = traced["layers"]
        check(layers["trace.balance_err"] < BALANCE_LIMIT,
              f"{name}: self times sum to root spans (gap {layers['trace.balance_err']:.2e}); "
              f"tracing overhead {layers['trace.overhead_ms']:.4g} ms "
              f"({100 * layers['trace.overhead_frac']:.2f}%)")
        check(f"`{name}`" in readme, f"{name}: README says why it was chosen")
    unmapped = [m["name"] for m in spec["per_layer"] if f"`{m['name']}`" not in readme]
    check(not unmapped, f"README maps every per-layer metric {unmapped or ''}")
    print("self-check " + ("passed" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
