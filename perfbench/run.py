"""The repository's end-to-end benchmark.

One run of one workload, in this process (the last line of standard
output is the result object)::

    python3 perfbench/run.py --workload serve-mlp --seed 1 --seconds 15 --trace 0

Every workload for each seed, each run in its own process; prints every
metric by name and unit with its median and quartiles over the seeds::

    python3 perfbench/run.py --seeds 1,2,3 [--trace 0|1] [--out DIR]

Compare two result sets (directories of per-run results)::

    python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Regenerate ``BENCHMARK.json`` from ``perfbench/spec.py``::

    python3 perfbench/run.py --write-spec

Per-run results (every metric with the median, quartiles and count of
its samples, the failures, and the environment fingerprint) go to
``<out>/<workload>/seed<n>-trace<t>.json``; a traced run also writes a
Chrome trace (``seed<n>.trace.json``) loadable in Perfetto.  BLAS
threads are never pinned: the fingerprint records what the process saw.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec
from harness import RESULTS_DIR, ROOT, SRC, Run, log, summary

RUN_TIMEOUT_S = 600


def require_program() -> None:
    """Exit with an error unless the program's sources are in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program sources under {SRC}; nothing to measure")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def run_one(workload: str, seed: int, seconds: float, trace: bool, out: Path,
            tiny: bool = False, corrupt: bool = False) -> Run:
    """Run one workload in this process and write its result file."""
    import workloads
    from repro.obs import Tracer, export_chrome

    run = Run(workload, seed, seconds, trace)
    tracer = Tracer() if trace else None
    size = workloads.TINY if tiny else workloads.FULL
    workloads.WORKLOADS[workload](run, seed, seconds, size, corrupt, tracer)
    target = out / workload
    target.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        export_chrome(tracer, target / f"seed{seed}.trace.json")
        run.notes["spans"] = len(tracer)
    record = run.record()
    (target / f"seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return run


def result_line(run: Run) -> str:
    return json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.reported(),
    })


def run_all(seeds, seconds: float, trace: bool, out: Path) -> int:
    """Each workload x seed in its own process; print every metric."""
    status = 0
    summaries = {}
    for workload, _why in spec.WORKLOADS:
        runs = []
        for seed in seeds:
            log(f"perfbench: {workload} seed {seed} trace {int(trace)}")
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(proc.stderr[-4000:])
                log(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        correct = all(r["correct"] for r in runs)
        status |= 0 if correct else 1
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"attempted={attempted}, failed={failed}")
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            metrics[name] = dict(stats, unit=entry["unit"])
            print(f"  {name:44s} {stats['median']:14.6g} {entry['unit']:10s} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']}")
        summaries[workload] = {"correct": correct, "attempted": attempted,
                               "failed": failed, "metrics": metrics}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"summary-trace{int(trace)}.json").write_text(json.dumps(summaries, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="1", help="comma-separated, without --workload")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS_DIR)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.compare:
        import compare

        return compare.main(*args.compare)
    require_program()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        return run_all(seeds, args.seconds, bool(args.trace), args.out)
    run = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    for failure in run.failures:
        log(f"perfbench: FAILED {failure}")
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
