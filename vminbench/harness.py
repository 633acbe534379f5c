"""Statistics, failure accounting and provenance for the benchmark."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Ledger",
    "digest_arrays",
    "host_calibration_ms",
    "median",
    "nproc",
    "peak_rss_mb",
    "provenance",
    "tail",
    "windowed_tail",
]

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
"""Percentiles the tail is chosen from, highest first."""

TAIL_MIN_BEYOND = 10
"""A tail percentile needs at least this many samples above it."""

OUTCOMES = ("attempted", "served", "refused", "retried", "rejected", "overloaded", "raised")


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest usable percentile.

    The tail is the highest percentile of :data:`TAIL_LADDER` with at
    least :data:`TAIL_MIN_BEYOND` samples above it.  With too few samples
    for any of them the tail is the maximum (percentile 100, none beyond).
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    for percentile in TAIL_LADDER:
        value = float(np.percentile(data, percentile))
        beyond = int(np.count_nonzero(data > value))
        if beyond >= TAIL_MIN_BEYOND:
            return value, percentile, beyond
    return float(data[-1]), 100.0, 0


TAIL_WINDOWS = 5
"""The run's calls are split into this many consecutive windows."""


def windowed_tail(values: Sequence[float]) -> Tuple[float, Dict[str, Any]]:
    """Median over consecutive windows of each window's :func:`tail`.

    ``values`` are in completion order.  A burst of host noise then
    moves one window's tail, not the run's.  Returns the tail and a
    description: the lowest percentile any window used, the fewest
    samples beyond it, the window count and the sample count.
    """
    windows = np.array_split(
        np.asarray(values, dtype=np.float64), min(TAIL_WINDOWS, len(values))
    )
    tails = [tail(window) for window in windows]
    return median([value for value, _, _ in tails]), {
        "percentile": min(percentile for _, percentile, _ in tails),
        "samples_beyond": min(beyond for _, _, beyond in tails),
        "windows": len(windows),
        "samples": len(values),
    }


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak resident-set size of this process so far, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_arrays(arrays: Sequence[np.ndarray]) -> str:
    """SHA-256 over the float64 bytes and shapes of ``arrays``, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def host_calibration_ms(repeats: int = 7) -> float:
    """Median wall time of a fixed single-threaded numpy loop, in ms.

    Timed before every run and recorded beside its numbers, so that a
    slow or noisy host shows up as a slow calibration loop.  Like one
    ``score`` call it is many small numpy operations, which is the work
    most sensitive to a busy sibling hardware thread; it avoids BLAS,
    whose thread pool would time its own start-up instead.
    """
    x = np.linspace(0.0, 1.0, 64)
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        for _ in range(2000):
            np.sqrt(x * 1.0001 + 1.0).sum()
        times.append(time.perf_counter() - start)
    return 1000.0 * median(times[1:])


class Ledger:
    """Per (phase, operation) counts of attempts and their outcomes.

    One ledger per thread; :meth:`merge` combines them afterwards.
    ``run`` times one call and classifies its outcome: served; refused
    by design with one of the ``refusals`` (the typed answer the call
    documents, which is not a failure -- the error comes back as the
    result); rejected with ``RejectedRequest``; shed with
    ``Overloaded``; or raised anything else.  A call that needed more
    than one attempt is also counted as retried.
    """

    def __init__(
        self, rejected: type, overloaded: type, refusals: Tuple[type, ...] = ()
    ) -> None:
        self._rejected = rejected
        self._overloaded = overloaded
        self._refusals = refusals
        self.counts: Counter = Counter()
        self.errors: List[str] = []

    def run(
        self, phase: str, op: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Tuple[Any, float, bool]:
        """Call ``fn``; return (result, seconds, served).

        The result is ``None`` after a failure and the error after a
        refusal.
        """
        self.counts[(phase, op, "attempted")] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._refusals as error:
            outcome, result = "refused", error
        except self._rejected as error:
            outcome, result = "rejected", None
            self.errors.append(f"{phase}/{op}: {type(error).__name__}: {error}")
        except self._overloaded as error:
            outcome, result = "overloaded", None
            self.errors.append(f"{phase}/{op}: {type(error).__name__}: {error}")
        except Exception as error:  # counted and reported, never swallowed silently
            outcome, result = "raised", None
            self.errors.append(f"{phase}/{op}: {type(error).__name__}: {error}")
        else:
            outcome = "served"
            attempts = getattr(result, "attempts", 1)
            if isinstance(attempts, dict):  # a grid: attempts per cell
                attempts = max(attempts.values(), default=1)
            if attempts > 1:
                self.counts[(phase, op, "retried")] += 1
        elapsed = time.perf_counter() - start
        self.counts[(phase, op, outcome)] += 1
        return result, elapsed, outcome == "served"

    def merge(self, other: "Ledger") -> None:
        self.counts.update(other.counts)
        self.errors.extend(other.errors)

    def total(self, outcome: str, phase: Optional[str] = None, op: Optional[str] = None) -> int:
        return sum(
            count
            for (p, o, kind), count in self.counts.items()
            if kind == outcome
            and (phase is None or p == phase)
            and (op is None or o == op)
        )

    def failed(self, phase: Optional[str] = None, op: Optional[str] = None) -> int:
        return sum(
            self.total(kind, phase, op) for kind in ("rejected", "overloaded", "raised")
        )

    def table(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """``{phase: {op: {outcome: count}}}`` with every outcome present."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for (phase, op, _), _count in self.counts.items():
            table.setdefault(phase, {}).setdefault(op, {k: 0 for k in OUTCOMES})
        for (phase, op, kind), count in self.counts.items():
            table[phase][op][kind] = count
        return table


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=20.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout if completed.returncode == 0 else None


def _git_state(root: Path) -> Tuple[Optional[str], Optional[bool]]:
    """(HEAD sha, dirty) when ``root`` is the top of a git work tree."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != root.resolve():
        return None, None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return (
        sha.strip() if sha else None,
        None if status is None else bool(status.strip()),
    )


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content.

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the numpy build, when it can be asked."""
    import numpy

    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root: Path, seed: int, workload: str, trace: bool) -> Dict[str, Any]:
    """Everything needed to say which code ran where."""
    import scipy

    sha, dirty = _git_state(root)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
