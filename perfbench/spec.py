"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and the self-test checks
that the two agree, so the definitions live in exactly one place.

Each per-layer metric names, in ``moves``, the end-to-end metric it
should move and the workload it is read on.  A layer a workload does not
exercise reports 0 for that workload's per-layer metrics.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = [
    (
        "serve-mlp",
        "MLP 1024-512-256-10, single-sample requests from two tenants: an "
        "open Poisson loop at 40 rps then a closed loop of 32, in rounds; admission, "
        "queueing, coalescing and workers do the work",
    ),
    (
        "stream-resnet8",
        "full-width resnet8 warm-started from an artifact as a 2-shard "
        "MAC-balanced model, streaming micro-batches of 8; conv count-GEMMs, "
        "the stream executor and snapshot load do the work",
    ),
    (
        "batch1-mobilenet",
        "mobilenet at width 0.5, one closed-loop caller at batch 1 after a "
        "cold compile; grouped-conv dispatch over many tiny engines does the "
        "work, the GEMMs are small",
    ),
]

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_sps", "samples/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.01),
    ("chip_ns_per_sample", "sim_ns", "lower", 0.01),
    ("chip_fj_per_sample", "fJ", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

NODE_KINDS = ("conv", "grouped_conv", "linear", "add", "func")

# Execution layers whose self time the traced run reports, keyed by the
# span category the program (or the benchmark, for "bench") records.
SELF_TIME_LAYERS = {
    "bench": "bench",
    "serve": "serve.server",
    "runtime": "runtime.compiled",
    "plan": "runtime.compiled.node",
    "shard": "runtime.sharded",
}

# name, unit, better, moves
PER_LAYER = [
    ("serve.admit_us.p50", "us", "lower", "latency_p99_ms on serve-mlp"),
    ("serve.queue_ms.p50", "ms", "lower", "latency on serve-mlp"),
    ("serve.queue_ms.p99", "ms", "lower", "latency on serve-mlp"),
    ("serve.execute_ms.p50", "ms", "lower", "latency on serve-mlp"),
    ("serve.batch_samples.mean", "samples", "higher", "throughput_sps on serve-mlp"),
    ("serve.worker_busy_frac", "frac", "lower", "throughput_sps on serve-mlp"),
    ("serve.rejected", "count", "lower", "ok_frac on serve-mlp"),
    ("serve.failed", "count", "lower", "ok_frac on serve-mlp"),
    ("loadgen.late_ms.p99", "ms", "lower", "validity of the open loop on serve-mlp"),
    ("loadgen.open_latency_ms.p50", "ms", "lower",
     "latency_p50_ms on serve-mlp; open loop, timed from when each request was due"),
    ("loadgen.open_latency_ms.p99", "ms", "lower",
     "latency_p99_ms on serve-mlp; open loop, timed from when each request was due"),
    ("runtime.compile_s", "s", "lower", "setup_s on serve-mlp, batch1-mobilenet"),
    ("runtime.first_run_s", "s", "lower", "setup_s on serve-mlp, batch1-mobilenet"),
    ("runtime.warmup_s", "s", "lower",
     "nothing end to end: first-call work paid before measuring (serve-mlp: every "
     "batch size; batch1-mobilenet: the first rounds of calls)"),
    ("runtime.run_ms.p50", "ms", "lower", "latency on batch1-mobilenet"),
]
for _kind in NODE_KINDS:
    PER_LAYER += [
        (f"runtime.node.{_kind}.ms_per_sample", "ms", "lower",
         "throughput_sps and latency on the workload that runs the kind"),
        (f"runtime.node.{_kind}.calls", "count", "lower",
         "node executions per model run; moves with plan fusion"),
    ]
PER_LAYER += [
    ("runtime.sharded.stage0.busy_s", "s", "lower", "throughput_sps on stream-resnet8"),
    ("runtime.sharded.stage1.busy_s", "s", "lower", "throughput_sps on stream-resnet8"),
    ("runtime.sharded.overlap", "ratio", "higher", "throughput_sps on stream-resnet8"),
    ("runtime.sharded.sim_pipeline_speedup", "ratio", "higher",
     "chip_ns_per_sample on stream-resnet8"),
    ("runtime.snapshot.save_s", "s", "lower", "setup_s on stream-resnet8"),
    ("runtime.snapshot.load_s", "s", "lower", "setup_s on stream-resnet8"),
    ("runtime.cache.programmed", "count", "lower", "setup_s on every workload"),
    ("runtime.cache.hits", "count", "higher", "setup_s on every workload"),
    ("runtime.cache.disk_hits", "count", "higher", "setup_s on every workload"),
    ("cim.macs_per_sample", "count", "lower", "chip metrics; fixed under simulator-only changes"),
    ("cim.adc_conversions_per_sample", "count", "lower",
     "chip metrics; fixed under simulator-only changes"),
    ("cim.row_activations_per_sample", "count", "lower",
     "chip metrics; fixed under simulator-only changes"),
    ("cim.cycles_per_sample", "count", "lower", "chip metrics; fixed under simulator-only changes"),
    ("host.cpu_util", "ratio", "higher", "throughput_sps on serve-mlp, stream-resnet8"),
    ("obs.trace_overhead_frac", "frac", "lower", "no end-to-end metric; should stay small"),
]
for _category, _layer in SELF_TIME_LAYERS.items():
    PER_LAYER.append(
        (f"{_layer}.self_ms_per_sample", "ms", "lower",
         "throughput_sps and latency: host self time of the layer")
    )

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}
BETTER = {name: better for name, _unit, better, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
