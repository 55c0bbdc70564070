"""Measurement plumbing shared by the workloads.

Statistics, the environment fingerprint, the per-run result record, and
the analysis of a traced run: self time per layer, per-node-kind cost
and the check that node energies add up to the run's ``MacroStats``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "perfbench" / "results"
WORK_DIR = ROOT / "perfbench" / ".work"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100); 0 for no
    values, which only a run whose requests all failed produces."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def fingerprint() -> Dict[str, object]:
    """Where a result was measured.  BLAS threads are reported, never set."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


def _blas_threads() -> Optional[int]:
    """The thread count numpy's OpenBLAS actually runs with, or None."""
    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


#: Seconds :func:`host_probe` takes on an idle host: the fastest probes
#: seen on a 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS 0.3.31 Haswell kernels).
#: A fixed constant of the benchmark, so results of two commits compare.
PROBE_REF_S = 0.006

_PROBE_A = np.random.default_rng(0).integers(0, 2, size=(16, 64)).astype(np.float64)
_PROBE_B = np.random.default_rng(1).integers(0, 2, size=(64, 8)).astype(np.float64)


def host_probe() -> float:
    """Seconds a fixed piece of work takes now.

    The work is the mix the batch-1 path spends its time in: small numpy
    calls between lines of Python.  No code of the program runs in it,
    so its time moves only with the host's speed, which on a shared host
    swings by 1.5x within seconds.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1800):
        y = _PROBE_A @ _PROBE_B
        acc += float(np.maximum(y, 1.0).sum()) + (i * 7) % 5
    return time.perf_counter() - t0


def idle_scale(before: float, after: float) -> float:
    """The host's speed against idle over a stretch of work, from the
    probes just before and after it: a wall time times this reads as on
    an idle host."""
    return 2 * PROBE_REF_S / (before + after)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Everything one workload run measured.

    ``put`` records a metric by name (its unit comes from :mod:`spec`);
    ``samples`` keeps the distribution the value summarises.  ``attempt``
    and ``fail`` count the requests the run made and the ones that were
    refused, failed, or did not match the oracle.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, object] = {}

    def put(self, name: str, value: float, samples: Optional[Iterable[float]] = None):
        if name not in spec.UNITS:
            raise KeyError(f"metric {name!r} is not declared in spec.py")
        self.metrics[name] = float(value)
        if samples is not None:
            samples = list(samples)
            if samples:
                self.samples[name] = summary(samples)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.failures.append(why)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def reported(self) -> Dict[str, Dict[str, object]]:
        """The metrics of this run's mode, each with its unit.

        Per-layer metrics a workload does not exercise read 0."""
        names = (
            [name for name, *_ in spec.PER_LAYER]
            if self.trace
            else [name for name, *_ in spec.END_TO_END]
        )
        return {
            name: {"value": self.metrics.get(name, 0.0), "unit": spec.UNITS[name]}
            for name in names
        }

    def record(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.reported(),
            "all_metrics": self.metrics,
            "samples": self.samples,
            "notes": self.notes,
            "fingerprint": fingerprint(),
        }


class CpuClock:
    """Process CPU seconds over wall seconds between start and stop."""

    def __enter__(self):
        self.cpu0, self.wall0 = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = time.process_time() - self.cpu0
        self.wall = time.perf_counter() - self.wall0

    @property
    def util(self) -> float:
        return self.cpu / self.wall if self.wall > 0 else 0.0


# -- traced-run analysis -------------------------------------------------

def self_times(spans) -> Dict[str, float]:
    """Self seconds per span category.

    A span's children are the spans of the same thread that lie inside
    it; its self time is its duration minus theirs.  Retroactive
    ``queued:`` spans are waiting, not work, and are left out.
    """
    by_thread = defaultdict(list)
    for span in spans:
        if not span.name.startswith("queued:"):
            by_thread[span.thread_id].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.t0, -s.t1))
        child_time: Dict[int, float] = defaultdict(float)
        stack = []
        for span in thread_spans:
            while stack and not (stack[-1].t0 <= span.t0 and span.t1 <= stack[-1].t1):
                stack.pop()
            if stack:
                child_time[stack[-1].span_id] += span.wall_s
            stack.append(span)
        for span in thread_spans:
            totals[span.category] += span.wall_s - child_time[span.span_id]
    return dict(totals)


def put_self_times(run: Run, spans, samples: int) -> None:
    """Self milliseconds per sample of each execution layer."""
    selfs = self_times(spans)
    for category, layer in spec.SELF_TIME_LAYERS.items():
        run.put(f"{layer}.self_ms_per_sample", selfs.get(category, 0.0) * 1e3 / samples)


def put_node_metrics(run: Run, spans) -> None:
    """Run and per-node-kind cost from the ``run`` and plan-node spans,
    and the check that node energies add up to each run's total."""
    runs = [s for s in spans if s.category == "runtime" and s.name == "run"]
    if not runs:
        return
    ms = [s.wall_s * 1e3 for s in runs]
    run.put("runtime.run_ms.p50", nearest_rank(ms, 50), ms)
    samples = sum(int(s.attrs["batch"]) for s in runs)
    for kind in spec.NODE_KINDS:
        nodes = [s for s in spans if s.category == "plan" and s.attrs.get("kind") == kind]
        if nodes:
            run.put(f"runtime.node.{kind}.ms_per_sample",
                    sum(s.wall_s for s in nodes) * 1e3 / samples)
            run.put(f"runtime.node.{kind}.calls", len(nodes) / len(runs))
    check_node_energy(run, spans, runs)


def check_node_energy(run: Run, spans, runs) -> None:
    """Per-node energies of each traced run must add up to its total."""
    children = defaultdict(float)
    for span in spans:
        if span.category == "plan":
            children[span.parent_id] += float(span.attrs.get("energy_fj", 0.0))
    bad = 0
    for span in runs:
        total = float(span.attrs["energy_total_fj"])
        if abs(children[span.span_id] - total) > 1e-9 * max(abs(total), 1.0):
            bad += 1
    run.fail(bad, f"{bad} traced runs whose node energies do not sum to the run total")


def put_cache_metrics(run: Run, cache) -> None:
    stats = cache.stats
    run.put("runtime.cache.programmed", stats.programmed)
    run.put("runtime.cache.hits", stats.hits)
    run.put("runtime.cache.disk_hits", stats.disk_hits)


def put_cim_metrics(run: Run, stats, samples: int) -> None:
    run.put("cim.macs_per_sample", stats.macs / samples)
    run.put("cim.adc_conversions_per_sample", stats.adc_conversions / samples)
    run.put("cim.row_activations_per_sample", stats.row_activations / samples)
    run.put("cim.cycles_per_sample", stats.cycles / samples)


def median_of(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
