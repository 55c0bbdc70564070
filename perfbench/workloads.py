"""The benchmark's three workloads.

Each workload builds its model from a fixed weight seed and its inputs
from the run's ``--seed``, sets up several times (the median is
``setup_s``), measures for the run's seconds, then checks outputs
against ``runtime.reference_forward`` outside the timed phases.  A
traced run (``trace=True``) measures once untraced and once under
``repro.obs.trace``; the per-layer metrics come from the traced phase
and the difference between the two is the tracing overhead.

A shared host slows every line of Python by up to 1.5x, for seconds to
minutes at a time.  ``batch1-mobilenet`` spends its time in lines of
Python, so its end-to-end timings (set-up and calls) are scaled to the
host's idle speed by a fixed probe run just before and after each timed
stretch (``harness.host_probe``); their wall figures stay in the run's
notes.  The other workloads' timings, and every per-layer timing, are
wall time: where BLAS and threads do the work, the probe tracks the
host's speed too loosely to help.

The program is driven only through its public calls, with the default
``RuntimeConfig`` and ``BatchPolicy``; ``fold_bn=True`` is set where the
model carries BatchNorm, because ROM weights cannot hold live BN.
"""

from __future__ import annotations

import contextlib
import gc
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import models, nn, runtime
from repro.cim import MacroStats
from repro.obs import trace
from repro.runtime import ArtifactStore, EngineCache, RuntimeConfig, stream_rng
from repro.serve import (
    InferenceServer,
    LoadGenerator,
    LoadSpec,
    ModelRegistry,
)

import harness
from harness import CpuClock, Run, median_of, nearest_rank

#: Weights are part of the workload; only the inputs follow ``--seed``.
MODEL_SEED = 0
RESULT_TIMEOUT_S = 60.0
TENANTS = {"alice": 1.0, "bob": 1.0}


@dataclass(frozen=True)
class Size:
    """Model and phase sizes; the self-test runs ``TINY``."""

    mlp: Tuple[int, ...] = (1024, 512, 256, 10)
    pool: int = 256
    open_rps: float = 40.0  # about a fifth of the default server's capacity
    window: int = 32  # requests the closed loop keeps outstanding
    rounds: int = 4  # serve-mlp: of open then closed loop
    open_share: float = 0.4  # of each round; the rest saturates
    oracle_batches: int = 24  # seeded subset of executed batches replayed
    resnet_width: float = 1.0
    hw: int = 8
    micro_batch: int = 8
    stream_len: int = 4  # micro-batches per run_stream call
    stream_distinct: int = 4  # distinct micro-batches, cycled
    mobilenet_width: float = 0.5
    mobilenet_distinct: int = 8  # distinct batch-1 inputs, cycled
    setup_repeats: int = 11
    warm_repeats: int = 5
    warm_rounds: int = 2  # batch1-mobilenet: untimed rounds before measuring


FULL = Size()
TINY = Size(
    mlp=(32, 16, 10),
    pool=16,
    window=4,
    rounds=2,
    oracle_batches=4,
    resnet_width=0.25,
    stream_len=2,
    stream_distinct=2,
    mobilenet_width=0.125,
    mobilenet_distinct=2,
    setup_repeats=2,
    warm_repeats=2,
    warm_rounds=1,
)


def bench_span(name: str, **attrs):
    """A benchmark-side span around a call into a layer (no-op untraced)."""
    return trace.maybe_span(name, "bench", **attrs)


def wait_span(name: str):
    """A benchmark-side span around a call that blocks on other threads;
    its own category keeps the wait out of the benchmark's self time."""
    return trace.maybe_span(name, "wait")


def fresh_heap() -> None:
    """Free the previous set-up repetition before the next one, so that
    repeating set-up to take its median does not add to peak memory."""
    gc.collect()


def tamper(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` with one value changed (self-test only)."""
    bad = np.array(array, copy=True)
    bad.flat[0] += 1.0
    return bad


def oracle(model, x, config: RuntimeConfig, rng=None) -> np.ndarray:
    out, _ = runtime.reference_forward(
        model,
        x,
        rom_config=config.resolved_rom(),
        sram_config=config.resolved_sram(),
        activation_bits=config.activation_bits,
        rng=rng,
        encoding=config.encoding,
    )
    return out


def spans_since(tracer, t0: float):
    return [s for s in tracer.spans() if s.t0 >= t0]


# -- serve-mlp -----------------------------------------------------------

def build_mlp(widths: Sequence[int]) -> nn.Module:
    rng = np.random.default_rng(MODEL_SEED)
    layers: List[nn.Module] = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        if layers:
            layers.append(nn.ReLU())
        layers.append(nn.Linear(fan_in, fan_out, rng=rng))
    return nn.Sequential(*layers)


def open_loop(server, plan) -> List[Tuple[float, object]]:
    """Submit each request when due; ``(late_s, result)`` per request.

    A request's latency is ``late_s + result.latency_s``: timed from when
    it was due, so a stall in submitting shows in every later request.
    """
    sent = []
    start = time.perf_counter() + 0.005
    for offset, tenant, model, x in plan:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late = time.perf_counter() - due
        with bench_span("bench.submit"):
            handle = server.submit(model, x, tenant=tenant)
        sent.append((late, handle))
    with wait_span("bench.wait"):
        return [(late, h.result(timeout=RESULT_TIMEOUT_S)) for late, h in sent]


def closed_loop(server, plan, window: int, seconds: float):
    """Keep ``window`` requests outstanding until ``seconds`` pass."""
    pending: deque = deque()
    results = []
    requests = iter(plan)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        while len(pending) < window:
            entry = next(requests, None)
            if entry is None:
                break
            _, tenant, model, x = entry
            with bench_span("bench.submit"):
                pending.append(server.submit(model, x, tenant=tenant))
        if not pending:
            break
        with wait_span("bench.wait"):
            results.append(pending.popleft().result(timeout=RESULT_TIMEOUT_S))
    with wait_span("bench.wait"):
        results.extend(h.result(timeout=RESULT_TIMEOUT_S) for h in pending)
    return results, time.perf_counter() - start


@dataclass
class ServeRound:
    open: List[Tuple[float, object]]  # (late_s, result) per open-loop request
    saturate: List[object]
    saturate_wall_s: float

    @property
    def saturate_sps(self) -> float:
        return sum(1 for r in self.saturate if r.ok) / self.saturate_wall_s


@dataclass
class ServePhase:
    rounds: List[ServeRound]
    batches: list  # the server's ExecutedBatch records of this phase
    wall_s: float
    cpu_util: float

    @property
    def results(self):
        return [r for rnd in self.rounds for _, r in rnd.open] + [
            r for rnd in self.rounds for r in rnd.saturate
        ]

    @property
    def saturate_sps(self) -> float:
        return median_of([rnd.saturate_sps for rnd in self.rounds])

    @property
    def open_latencies_ms(self) -> List[float]:
        """Open-loop latencies, timed from when each request was due."""
        return [(late + r.latency_s) * 1e3
                for rnd in self.rounds for late, r in rnd.open if r.ok]

    @property
    def saturate_latencies_ms(self) -> List[float]:
        return [r.latency_s * 1e3 for rnd in self.rounds for r in rnd.saturate if r.ok]


def serve_phase(server, pool, seed: int, seconds: float, size: Size) -> ServePhase:
    """Rounds of an open loop then a closed loop.  Throughput is the
    median over the rounds, so one slow stretch of host time moves it
    less than it would over one long loop."""
    round_s = seconds / size.rounds
    open_s = round_s * size.open_share
    inputs = {"mlp": pool}
    first_batch = len(server.executed_batches)
    rounds = []
    with CpuClock() as cpu:
        for index in range(size.rounds):
            plan = LoadGenerator(
                server,
                LoadSpec(n_requests=max(1, round(size.open_rps * open_s)),
                         rate_rps=size.open_rps, tenant_weights=TENANTS,
                         seed=seed * 1000 + index),
                inputs,
            ).schedule()
            burst = LoadGenerator(
                server,
                LoadSpec(n_requests=int(2000 * (round_s - open_s)) + size.window,
                         tenant_weights=TENANTS, seed=seed * 1000 + 500 + index),
                inputs,
            ).schedule()
            opened = open_loop(server, plan)
            saturated, sat_wall = closed_loop(server, burst, size.window, round_s - open_s)
            rounds.append(ServeRound(opened, saturated, sat_wall))
    return ServePhase(rounds, server.executed_batches[first_batch:], cpu.wall, cpu.util)


def warm_up(compiled, pool, policy) -> float:
    """Run every batch size the policy can coalesce once, untimed by the
    phases: the runtime does lazy first-call work per batch shape, which
    a long-running server pays once.  Returns the seconds it took."""
    t0 = time.perf_counter()
    with bench_span("bench.warm_up"):
        for n in range(1, policy.max_batch_size + 1):
            compiled.run(pool[:n])
    return time.perf_counter() - t0


def serve_mlp(run: Run, seed: int, seconds: float, size: Size, corrupt: bool, tracer):
    pool = np.random.default_rng(seed).normal(size=(size.pool, size.mlp[0]))
    setups, compiles, firsts, probes = [], [], [], []
    server = None
    try:
        with trace.tracing(tracer) if tracer else contextlib.nullcontext():
            for _ in range(size.setup_repeats):
                if server is not None:
                    server.stop()
                server = registry = None
                fresh_heap()
                t0 = time.perf_counter()
                with bench_span("bench.setup"):
                    model = build_mlp(size.mlp)
                    registry = ModelRegistry(cache=EngineCache())
                    with bench_span("bench.register"):
                        registry.register("mlp", model)
                    t1 = time.perf_counter()
                    server = InferenceServer(registry, n_workers=2, record_batches=True)
                    server.start()
                    with bench_span("bench.first_call"):
                        first = server.submit("mlp", pool[:1], tenant="alice").result(
                            timeout=RESULT_TIMEOUT_S
                        )
                t2 = time.perf_counter()
                setups.append(t2 - t0)
                compiles.append(t1 - t0)
                firsts.append(t2 - t1)
                probes.append((model, first))
        run.put("setup_s", median_of(setups), setups)
        run.put("runtime.compile_s", median_of(compiles), compiles)
        run.put("runtime.first_run_s", median_of(firsts), firsts)
        run.put("runtime.warmup_s", warm_up(registry.get("mlp"), pool, server.policy))

        untraced = serve_phase(server, pool, seed, seconds, size)
        phases = [untraced]
        traced = None
        if tracer is not None:
            with trace.tracing(tracer):
                phase_t0 = time.perf_counter()
                traced = serve_phase(server, pool, seed, seconds, size)
            phases.append(traced)
        run.put("peak_rss_mb", harness.peak_rss_mb())
    finally:
        if server is not None:
            server.stop()

    # The open loop's latencies swing several-fold between runs on a
    # small shared host, so the end-to-end latencies are the closed
    # loop's and the open loop's are reported per layer.
    closed = untraced.saturate_latencies_ms
    run.put("latency_p50_ms", nearest_rank(closed, 50), closed)
    run.put("latency_p99_ms", nearest_rank(closed, 99), closed)
    opened = untraced.open_latencies_ms
    run.put("loadgen.open_latency_ms.p50", nearest_rank(opened, 50), opened)
    run.put("loadgen.open_latency_ms.p99", nearest_rank(opened, 99), opened)
    rates = [rnd.saturate_sps for rnd in untraced.rounds]
    run.put("throughput_sps", untraced.saturate_sps, rates)
    run.put("host.cpu_util", untraced.cpu_util)
    # Per sample over executed batches: a request's share of its batch's
    # chip time would depend on how it was coalesced.
    executed = sum((b.stats for b in untraced.batches), MacroStats())
    n_executed = sum(b.inputs.shape[0] for b in untraced.batches)
    run.put("chip_ns_per_sample", executed.latency_ns / n_executed)
    run.put("chip_fj_per_sample", executed.total_energy_fj / n_executed)
    completed = [r for r in untraced.results if r.ok]

    model, _ = probes[-1]
    results = [r for phase in phases for r in phase.results]
    if corrupt and completed:
        completed[0].output = tamper(completed[0].output)
    run.attempt(len(results))
    refused = sum(1 for r in results if not r.ok)
    run.fail(refused, f"{refused} requests refused, failed or cancelled")
    check_first_outputs(run, probes, pool[:1])
    check_served(run, server, results, model, seed, size)
    run.put("ok_frac", (run.attempted - run.failed) / run.attempted)
    harness.put_cache_metrics(run, registry.cache)

    if traced is not None:
        spans = spans_since(tracer, phase_t0)
        traced_results = traced.results
        samples = sum(1 for r in traced_results if r.ok)
        harness.put_self_times(run, spans, samples)
        harness.put_node_metrics(run, spans)
        admit = [s.wall_s * 1e6 for s in spans if s.name == "admit"]
        if admit:
            run.put("serve.admit_us.p50", nearest_rank(admit, 50), admit)
        queued = [r.queued_s * 1e3 for r in traced_results if r.ok]
        if queued:
            run.put("serve.queue_ms.p50", nearest_rank(queued, 50), queued)
            run.put("serve.queue_ms.p99", nearest_rank(queued, 99), queued)
        executes = [s for s in spans if s.category == "serve" and s.name == "execute"]
        if executes:
            ms = [s.wall_s * 1e3 for s in executes]
            run.put("serve.execute_ms.p50", nearest_rank(ms, 50), ms)
            run.put("serve.batch_samples.mean",
                    sum(s.attrs["samples"] for s in executes) / len(executes))
            run.put("serve.worker_busy_frac",
                    sum(s.wall_s for s in executes) / (2 * traced.wall_s))
        run.put("serve.rejected",
                sum(1 for r in traced_results if r.status.rejected))
        run.put("serve.failed",
                sum(1 for r in traced_results if not r.ok and not r.status.rejected))
        late = [late * 1e3 for rnd in traced.rounds for late, _ in rnd.open]
        run.put("loadgen.late_ms.p99", nearest_rank(late, 99), late)
        run.put("obs.trace_overhead_frac",
                untraced.saturate_sps / traced.saturate_sps - 1)
        traced_stats = sum((b.stats for b in traced.batches), MacroStats())
        harness.put_cim_metrics(
            run, traced_stats, sum(b.inputs.shape[0] for b in traced.batches)
        )


def check_first_outputs(run: Run, probes, x) -> None:
    """Each set-up's first output must equal the oracle."""
    bad = 0
    for model, result in probes:
        run.attempt()
        if not result.ok or not np.array_equal(
            result.output, oracle(model, x, RuntimeConfig())
        ):
            bad += 1
    run.fail(bad, f"{bad} set-up first outputs differ from the oracle")


def check_served(run: Run, server, results, model, seed: int, size: Size) -> None:
    """Served outputs against the recorded batches and, for a seeded
    subset of batches, the recorded batches against the oracle."""
    batches = {b.batch_seq: b for b in server.executed_batches}
    completed = [r for r in results if r.ok]
    seqs = sorted({r.batch_seq for r in completed})
    chosen = np.random.default_rng(seed).choice(
        seqs, size=min(len(seqs), size.oracle_batches), replace=False
    ) if seqs else []
    wrong = set()
    for seq in chosen:
        batch = batches[int(seq)]
        with bench_span("bench.oracle"):
            expected = oracle(model, batch.inputs, RuntimeConfig())
        if not np.array_equal(expected, batch.outputs):
            wrong.add(int(seq))
    bad = 0
    for result in completed:
        batch = batches[result.batch_seq]
        row = batch.request_ids.index(result.request_id)
        if result.batch_seq in wrong or not np.array_equal(
            result.output, batch.outputs[row : row + 1]
        ):
            bad += 1
    run.notes["oracle_batches"] = f"{len(chosen)} of {len(seqs)}"
    run.fail(bad, f"{bad} served outputs differ from their batch or the oracle")


# -- stream-resnet8 ------------------------------------------------------

def build_bn_model(name: str, width: float) -> nn.Module:
    model = models.build_model(name, width_mult=width, rng=np.random.default_rng(MODEL_SEED))
    model.eval()
    return model


def stream_phase(sharded, stream, rngs: Callable[[], list], seconds: float):
    """Whole ``run_stream`` calls until ``seconds`` pass (at least one)."""
    walls, results = [], []
    deadline = time.perf_counter() + seconds
    with CpuClock() as cpu:
        while not results or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            with wait_span("bench.run_stream"):
                results.append(sharded.run_stream(stream, rngs=rngs()))
            walls.append(time.perf_counter() - t0)
    return results, walls, cpu


def stream_resnet8(run: Run, seed: int, seconds: float, size: Size, corrupt: bool, tracer):
    rng = np.random.default_rng(seed)
    shape = (size.micro_batch, 3, size.hw, size.hw)
    distinct = [rng.normal(size=shape) for _ in range(size.stream_distinct)]
    k_of = [i % size.stream_distinct for i in range(size.stream_len)]
    stream = [distinct[k] for k in k_of]
    config = RuntimeConfig(fold_bn=True)

    def rngs():
        return [stream_rng(seed, k) for k in k_of]

    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    setups, loads, first_s, firsts = [], [], [], []
    with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
        with trace.tracing(tracer) if tracer else contextlib.nullcontext():
            store = ArtifactStore(tmp)
            model = build_bn_model("resnet8", size.resnet_width)
            t0 = time.perf_counter()
            with bench_span("bench.compile"):
                compiled = runtime.compile(
                    model, config, cache=EngineCache(), shards=2, shard_input_shape=shape
                )
            t1 = time.perf_counter()
            with bench_span("bench.save"):
                key = runtime.save(compiled, store)
            t2 = time.perf_counter()
            for _ in range(size.warm_repeats):
                sharded = cache = None
                fresh_heap()
                t3 = time.perf_counter()
                with bench_span("bench.setup"):
                    cache = EngineCache()
                    with bench_span("bench.load"):
                        sharded = runtime.load(store, key, cache=cache)
                    t4 = time.perf_counter()
                    with bench_span("bench.first_call"):
                        first = sharded.run_stream([distinct[0]], rngs=[stream_rng(seed, 0)])
                t5 = time.perf_counter()
                setups.append(t5 - t3)
                loads.append(t4 - t3)
                first_s.append(t5 - t4)
                firsts.append(first.outputs[0])
    run.put("setup_s", median_of(setups), setups)
    run.put("runtime.compile_s", t1 - t0)
    run.put("runtime.snapshot.save_s", t2 - t1)
    run.put("runtime.snapshot.load_s", median_of(loads), loads)
    run.put("runtime.first_run_s", median_of(first_s), first_s)
    run.notes["shard_plan"] = sharded.plan.describe()

    results, walls, cpu = stream_phase(sharded, stream, rngs, seconds)
    samples = size.micro_batch * size.stream_len
    run.put("throughput_sps", samples * len(walls) / sum(walls))
    ms = [w * 1e3 for w in walls]
    run.put("latency_p50_ms", nearest_rank(ms, 50), ms)
    run.put("latency_p99_ms", nearest_rank(ms, 99), ms)
    run.put("host.cpu_util", cpu.util)
    head = results[0]
    run.put("chip_ns_per_sample", head.pipelined_makespan_ns / samples)
    run.put("chip_fj_per_sample", head.stats.total_energy_fj / samples)
    run.put("runtime.sharded.sim_pipeline_speedup", head.pipeline_speedup)
    harness.put_cim_metrics(run, head.stats, samples)

    traced = []
    if tracer is not None:
        with trace.tracing(tracer):
            phase_t0 = time.perf_counter()
            traced, traced_walls, _ = stream_phase(sharded, stream, rngs, seconds)
            stream_spans = spans_since(tracer, phase_t0)
            node_t0 = time.perf_counter()
            node_outputs = []
            for k, x in enumerate(distinct):
                with bench_span("bench.run"):
                    node_outputs.append(
                        sharded.compiled.run(x, rng=stream_rng(seed, k))[0]
                    )
            node_spans = spans_since(tracer, node_t0)
        run.put("obs.trace_overhead_frac", sum(traced_walls) / len(traced_walls)
                / (sum(walls) / len(walls)) - 1)
        harness.put_self_times(run, stream_spans, samples * len(traced))
        harness.put_node_metrics(run, node_spans)
        for s in range(2):
            busy = sum(sp.wall_s for sp in stream_spans
                       if sp.category == "shard" and sp.attrs.get("shard") == s)
            run.put(f"runtime.sharded.stage{s}.busy_s", busy / len(traced))
        busy = sum(sp.wall_s for sp in stream_spans if sp.category == "shard")
        run.put("runtime.sharded.overlap", busy / sum(traced_walls))
    run.put("peak_rss_mb", harness.peak_rss_mb())
    harness.put_cache_metrics(run, cache)

    if corrupt:
        results[0].outputs[0] = tamper(results[0].outputs[0])
    expected = [oracle(model, x, config, stream_rng(seed, k)) for k, x in enumerate(distinct)]
    bad = sum(1 for out in firsts if not np.array_equal(out, expected[0]))
    run.attempt(len(firsts))
    for result in results + traced:
        run.attempt(len(result.outputs))
        bad += sum(
            1 for k, out in zip(k_of, result.outputs) if not np.array_equal(out, expected[k])
        )
    run.fail(bad, f"{bad} streamed micro-batches differ from the oracle")
    if tracer is not None:
        run.attempt(len(node_outputs))
        bad = sum(1 for k, out in enumerate(node_outputs) if not np.array_equal(out, expected[k]))
        run.fail(bad, f"{bad} traced plan runs differ from the oracle")
    check_repeatable(run, [(r.pipelined_makespan_ns, r.stats) for r in results + traced])
    run.put("ok_frac", (run.attempted - run.failed) / run.attempted)


def check_repeatable(run: Run, stats: Sequence) -> None:
    """Simulated statistics of identical work must be identical."""
    bad = sum(1 for s in stats if s != stats[0])
    run.fail(bad, f"{bad} repeats whose simulated statistics differ")


# -- batch1-mobilenet ----------------------------------------------------

def call_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


@dataclass
class Batch1Phase:
    calls: list  # (k, wall_s, output, stats) per call
    ms: List[float]  # per call, scaled to the host's idle speed
    speeds: List[float]  # per call: the host's speed against idle
    cpu: CpuClock

    @property
    def throughput_sps(self) -> float:
        return len(self.ms) * 1e3 / sum(self.ms)


def batch1_phase(compiled, inputs, seed: int, seconds: float) -> Batch1Phase:
    """Closed loop of batch-1 calls, cycling the distinct inputs, with
    the host probe between calls.

    Each call's time is scaled by how fast the host ran around it
    (``harness.idle_scale`` of the probes before and after), so the
    figures read as on an idle host: a slow stretch of a shared host,
    which makes every line of Python slower for seconds to minutes,
    moves them far less than it moves wall time.  Wall times stay in
    ``calls``.
    """
    calls, ms, speeds = [], [], []
    deadline = time.perf_counter() + seconds
    with CpuClock() as cpu:
        before = harness.host_probe()
        while not calls or time.perf_counter() < deadline:
            for k, x in enumerate(inputs):
                t0 = time.perf_counter()
                with bench_span("bench.run"):
                    out, stats = compiled.run(x, rng=call_rng(seed, k))
                wall = time.perf_counter() - t0
                after = harness.host_probe()
                speeds.append(harness.idle_scale(before, after))
                ms.append(wall * speeds[-1] * 1e3)
                calls.append((k, wall, out, stats))
                before = after
    return Batch1Phase(calls, ms, speeds, cpu)


def batch1_warm_up(compiled, inputs, seed: int, rounds: int) -> float:
    """Rounds of calls and probes before measuring: the first calls run
    up to twice as slow.  Returns the seconds it took."""
    t0 = time.perf_counter()
    with bench_span("bench.warm_up"):
        for _ in range(rounds):
            for k, x in enumerate(inputs):
                compiled.run(x, rng=call_rng(seed, k))
                harness.host_probe()
    return time.perf_counter() - t0


def batch1_mobilenet(run: Run, seed: int, seconds: float, size: Size, corrupt: bool, tracer):
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=(1, 3, size.hw, size.hw)) for _ in range(size.mobilenet_distinct)]
    config = RuntimeConfig(fold_bn=True)
    setups, compiles, firsts, probes, scales = [], [], [], [], []
    with trace.tracing(tracer) if tracer else contextlib.nullcontext():
        for _ in range(size.setup_repeats):
            compiled = cache = None
            fresh_heap()
            before = harness.host_probe()
            t0 = time.perf_counter()
            with bench_span("bench.setup"):
                model = build_bn_model("mobilenet", size.mobilenet_width)
                cache = EngineCache()
                with bench_span("bench.compile"):
                    compiled = runtime.compile(model, config, cache=cache)
                t1 = time.perf_counter()
                with bench_span("bench.first_call"):
                    out, _ = compiled.run(inputs[0], rng=call_rng(seed, 0))
            t2 = time.perf_counter()
            scales.append(harness.idle_scale(before, harness.host_probe()))
            setups.append(t2 - t0)
            compiles.append(t1 - t0)
            firsts.append(t2 - t1)
            probes.append(out)
    # Set-up is scaled to the host's idle speed as the calls are (see
    # batch1_phase); the per-layer parts stay wall time.
    scaled = [setup * scale for setup, scale in zip(setups, scales)]
    run.put("setup_s", median_of(scaled), scaled)
    run.notes["wall_setup_s"] = median_of(setups)
    run.put("runtime.compile_s", median_of(compiles), compiles)
    run.put("runtime.first_run_s", median_of(firsts), firsts)

    run.put("runtime.warmup_s", batch1_warm_up(compiled, inputs, seed, size.warm_rounds))
    phase = batch1_phase(compiled, inputs, seed, seconds)
    calls, ms = phase.calls, phase.ms
    run.put("latency_p50_ms", nearest_rank(ms, 50), ms)
    run.put("latency_p99_ms", nearest_rank(ms, 99), ms)
    run.put("throughput_sps", phase.throughput_sps)
    run.put("host.cpu_util", phase.cpu.util)
    walls_ms = [wall * 1e3 for _, wall, _, _ in calls]
    run.notes["host_speed"] = harness.summary(phase.speeds)
    run.notes["wall_latency_p50_ms"] = nearest_rank(walls_ms, 50)
    run.notes["wall_throughput_sps"] = len(calls) * 1e3 / sum(walls_ms)
    per_input = {}
    for k, _, _, stats in calls:
        per_input.setdefault(k, stats)
    distinct_stats = [per_input[k] for k in sorted(per_input)]
    total = sum(distinct_stats, MacroStats())
    run.put("chip_ns_per_sample", total.latency_ns / len(distinct_stats))
    run.put("chip_fj_per_sample", total.total_energy_fj / len(distinct_stats))
    harness.put_cim_metrics(run, total, len(distinct_stats))

    traced = []
    if tracer is not None:
        with trace.tracing(tracer):
            phase_t0 = time.perf_counter()
            traced_phase = batch1_phase(compiled, inputs, seed, seconds)
            spans = spans_since(tracer, phase_t0)
        traced = traced_phase.calls
        run.put("obs.trace_overhead_frac",
                phase.throughput_sps / traced_phase.throughput_sps - 1)
        harness.put_self_times(run, spans, len(traced))
        harness.put_node_metrics(run, spans)
    run.put("peak_rss_mb", harness.peak_rss_mb())
    harness.put_cache_metrics(run, cache)

    if corrupt:
        k, dt, out, stats = calls[0]
        calls[0] = (k, dt, tamper(out), stats)
    expected = [oracle(model, x, config, call_rng(seed, k)) for k, x in enumerate(inputs)]
    bad = sum(1 for out in probes if not np.array_equal(out, expected[0]))
    run.attempt(len(probes))
    everything = calls + traced
    run.attempt(len(everything))
    bad += sum(1 for k, _, out, _ in everything if not np.array_equal(out, expected[k]))
    run.fail(bad, f"{bad} batch-1 outputs differ from the oracle")
    bad = sum(1 for k, _, _, stats in everything if stats != per_input[k])
    run.fail(bad, f"{bad} repeats whose simulated statistics differ")
    run.put("ok_frac", (run.attempted - run.failed) / run.attempted)


WORKLOADS: Dict[str, Callable] = {
    "serve-mlp": serve_mlp,
    "stream-resnet8": stream_resnet8,
    "batch1-mobilenet": batch1_mobilenet,
}
