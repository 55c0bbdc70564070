"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches ``spec.py``; that every workload
reports every end-to-end metric, non-zero, with its unit; that the
traced runs together measure every per-layer metric, each on the
workloads the spec names; that a deliberately wrong output is counted
in ``failed`` instead of passing; and that the benchmark exits with an
error, printing no result, in a directory that holds only the
benchmark.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec
from harness import ROOT, WORK_DIR
from run import require_program, result_line, run_one

SEED = 3
SECONDS = 0.5

_SERVE = [
    "serve.admit_us.p50", "serve.queue_ms.p50", "serve.queue_ms.p99",
    "serve.execute_ms.p50", "serve.batch_samples.mean", "serve.worker_busy_frac",
    "serve.rejected", "serve.failed", "loadgen.late_ms.p99", "loadgen.open_latency_ms.p50",
    "loadgen.open_latency_ms.p99", "runtime.warmup_s",
]
_EVERY = [
    "runtime.compile_s", "runtime.first_run_s", "runtime.run_ms.p50",
    "runtime.cache.programmed", "runtime.cache.hits", "runtime.cache.disk_hits",
    "cim.macs_per_sample", "cim.adc_conversions_per_sample",
    "cim.row_activations_per_sample", "cim.cycles_per_sample",
    "host.cpu_util", "obs.trace_overhead_frac",
] + [f"{layer}.self_ms_per_sample" for layer in spec.SELF_TIME_LAYERS.values()]


def _nodes(*kinds):
    return [f"runtime.node.{k}.{m}" for k in kinds for m in ("ms_per_sample", "calls")]


#: Per-layer metrics each traced workload must measure.
MEASURED = {
    "serve-mlp": _SERVE + _EVERY + _nodes("linear", "func"),
    "stream-resnet8": _EVERY + _nodes("conv", "linear", "add", "func") + [
        "runtime.sharded.stage0.busy_s", "runtime.sharded.stage1.busy_s",
        "runtime.sharded.overlap", "runtime.sharded.sim_pipeline_speedup",
        "runtime.snapshot.save_s", "runtime.snapshot.load_s",
    ],
    "batch1-mobilenet": _EVERY + _nodes("conv", "grouped_conv", "linear", "func") + [
        "runtime.warmup_s",
    ],
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_line(workload: str, run, trace: bool) -> None:
    line = json.loads(result_line(run))
    check(list(line) == ["correct", "attempted", "failed", "metrics"],
          f"{workload}: result keys {list(line)}")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
          f"{workload} trace={trace}: {run.failures}")
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    check(list(line["metrics"]) == [name for name, *_ in declared],
          f"{workload} trace={trace}: metric names differ from the spec")
    for name, unit, *_ in declared:
        check(line["metrics"][name]["unit"] == unit, f"{workload}: unit of {name}")
    if trace:
        missing = [n for n in MEASURED[workload] if n not in run.metrics]
        check(not missing, f"{workload}: traced run did not measure {missing}")
    else:
        zero = [n for n, entry in line["metrics"].items() if not entry["value"] > 0]
        check(not zero, f"{workload}: end-to-end metrics not above 0: {zero}")


def check_bare_checkout(work: Path) -> None:
    """Without the program's sources the benchmark must fail, silently."""
    bare = work / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        spec.COMMAND + ["--workload", spec.WORKLOADS[0][0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0, "the benchmark succeeded without the program")
    check('"metrics"' not in proc.stdout, "the benchmark printed a result without the program")


def main() -> int:
    require_program()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(on_disk == spec.benchmark_json(),
          "BENCHMARK.json differs from spec.py; run python3 perfbench/run.py --write-spec")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        work = Path(tmp)
        for workload, _why in spec.WORKLOADS:
            for trace in (False, True):
                run = run_one(workload, SEED, SECONDS, trace, work, tiny=True)
                check_line(workload, run, trace)
                print(f"ok   {workload} trace={int(trace)}: {run.attempted} attempted")
            wrong = run_one(workload, SEED, SECONDS, False, work, tiny=True, corrupt=True)
            check(wrong.failed >= 1 and not wrong.correct
                  and wrong.metrics["ok_frac"] < 1.0,
                  f"{workload}: a deliberately wrong output was not counted as failed")
            print(f"ok   {workload}: a wrong output counts as failed ({wrong.failures})")
        measured = set().union(*MEASURED.values())
        unmeasured = [name for name, *_ in spec.PER_LAYER if name not in measured]
        check(not unmeasured, f"per-layer metrics no workload measures: {unmeasured}")
        check_bare_checkout(work)
        print("ok   without the program the benchmark exits non-zero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
