"""tbswap benchmark: one closed-loop client, three workloads, correctness checked.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload presets|oracle-xcheck|cli-queries
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no hooks installed. --trace 1
installs the span hooks of tracing.py, runs the first half of the time
traced and the second half untraced (for trace.overhead_frac), and reports
the per-layer metrics. Metric names, units and directions come from
BENCHMARK.json at the checkout root. The last stdout line is the JSON
result; the exit code is 0 only when every correctness check passed.

tbswap is imported from src/ of the same checkout, never from an installed
copy. TBSWAP_THREADS is removed from the environment so the sweep pool runs
at its default size; BLAS runs on one thread (see bootstrap). Every run is a
fresh interpreter, so caches start cold the same way on every commit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from stats import OpCount, highest_supported_percentile, median, percentile, quartiles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up probes per run, half before the timed core and half after it, so
# their median spans the run rather than one moment of the host's load.
SETUP_PROBES = 12
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Core:
    """What one timed stretch of closed-loop requests delivered.

    Every timing is a median over chunks, so a neighbour that stalls one
    chunk moves it little: ops_per_s is the median chunk rate, and a latency
    percentile is the median over chunks of that chunk's percentile of
    request latencies.
    """

    samples: list[list[float]] = field(default_factory=list)  # per chunk: request seconds
    chunks: list[tuple[float, int]] = field(default_factory=list)  # (busy s, good ops)
    ops: OpCount = field(default_factory=OpCount)
    rss_mb: float = 0.0

    def rates(self) -> list[float]:
        return [good / busy for busy, good in self.chunks if busy > 0]

    def ops_per_s(self) -> float:
        return median(self.rates())

    def latency(self, pct: float) -> float:
        return median([percentile(chunk, pct) for chunk in self.samples])


def run_core(workload, seconds: float) -> Core:
    core = Core()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(core.chunks) < workload.min_chunks:
        busy, good = 0.0, 0
        samples = []
        for latency, ops, failed in workload.chunk():
            samples.append(latency)
            core.ops.record(True, ops - failed)
            core.ops.record(False, failed)
            busy += latency
            good += ops - failed
        core.samples.append(samples)
        core.chunks.append((busy, good))
        if len(core.chunks) == workload.rss_chunks:
            core.rss_mb = peak_rss_mb()
    if len(core.chunks) < workload.rss_chunks:
        core.rss_mb = peak_rss_mb()
    return core


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def bootstrap() -> None:
    """Import tbswap from this checkout's src/ or stop."""
    if not (SRC / "tbswap" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tbswap sources at {SRC}; run from a full checkout")
    os.environ.pop("TBSWAP_THREADS", None)
    # OpenBLAS's own threads on top of the sweep pool's two oversubscribe a
    # 2-core machine: one 121x121 dilation expm then takes 2 ms to 290 ms
    # from call to call. One BLAS thread keeps runs comparable. Set before
    # numpy loads; children inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tbswap

    if Path(tbswap.__file__).resolve().parent != SRC / "tbswap":
        raise SystemExit(f"benchmark: imported tbswap from {tbswap.__file__}, not {SRC}")


def probe(args) -> int:
    """Child side of a set-up measurement: import, build inputs, first op."""
    bootstrap()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.scratch))
    workload.first_op()
    print("ready", flush=True)
    return 0


def measure_setup(args, scratch: Path, probes: range) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first successful op."""
    times = []
    for i in probes:
        child_dir = scratch / f"probe{i}"
        child_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--scratch", str(child_dir)]
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"benchmark: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# metrics


def end_to_end(core: Core, setup: list[float], max_delta: float) -> dict:
    return {
        "setup_s": median(setup),
        "ops_per_s": core.ops_per_s(),
        "op_p50_ms": 1e3 * core.latency(50.0),
        "op_p99_ms": 1e3 * core.latency(99.0),
        "peak_rss_mb": core.rss_mb,
        "max_abs_delta": max_delta,
    }


def per_layer(tracer, window: tuple[float, float], core: Core, plain: Core,
              snapshots: dict, failed_frac: float) -> dict:
    """Per-layer metrics over the traced window, per op of that window."""
    import numpy as np
    from tracing import self_times

    spans = tracer.spans()
    w0, w1 = window
    in_window = (spans["t0"] >= w0) & (spans["t1"] <= w1)
    ops = core.ops.attempted
    dur = spans["t1"] - spans["t0"]

    def mask(layer: str, whole_run: bool = False):
        if layer not in tracer.layers:
            return np.zeros(len(dur), dtype=bool)
        m = spans["layer"] == tracer.layers.index(layer)
        return m if whole_run else m & in_window

    def calls(layer):
        return mask(layer).sum() / ops

    def busy_ms(layer):
        return 1e3 * dur[mask(layer)].sum() / ops

    def self_ms(layer):
        return 1e3 * self_times(spans, mask(layer)).sum() / ops

    before, after = snapshots["before"], snapshots["after"]
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    out = {}
    for layer in sorted(tracer.present):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.busy_ms"] = busy_ms(layer)
    for layer in ("cli.run_sections", "cli.write_sweep", "channel.apply_channel_oracle",
                  "swap.heralded_state"):
        if layer in tracer.present:
            out[f"{layer}.self_ms"] = self_ms(layer)
    if "cli.point" in tracer.present and "cli.run_sections" in tracer.present:
        wall = dur[mask("cli.run_sections")].sum()
        out["cli.pool.overlap"] = dur[mask("cli.point")].sum() / wall if wall else 0.0
    if "cli.write_sweep" in tracer.present:
        out["cli.csv_bytes"] = counts.get("csv_bytes", 0) / ops
    if "channel.apply_channel_oracle" in tracer.present:
        out["channel.apply_channel_oracle.flops_computed"] = counts.get("oracle_flops", 0) / ops
        out["channel.apply_channel_oracle.bytes_computed"] = counts.get("oracle_bytes", 0) / ops
    bs = "fock.beam_splitter_unitary"
    if after[bs] is not None:
        # Built lazily on first use, so counted from import on, set-up included.
        out[f"{bs}.misses"] = after[bs].misses
        out[f"{bs}.busy_ms"] = 1e3 * dur[mask(bs, whole_run=True)].sum()
    layer = "channel.mixing_unitary"
    info, start = after[layer], before[layer]
    if info is not None:
        misses, hits = info.misses - start.misses, info.hits - start.hits
        out[f"{layer}.misses"] = misses / ops
        out[f"{layer}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{layer}.cache_entries"] = info.currsize
        out[f"{layer}.cache_bytes_computed"] = sum(16 * d**4 for _, d in tracer.keys())
    if "states.channel_output" in tracer.present and "swap.heralded_state" in tracer.present:
        heralds = mask("swap.heralded_state")
        herald_ids = spans["sid"][heralds]
        under = mask("states.channel_output") & np.isin(spans["parent"], herald_ids)
        out["states.channel_output.per_herald"] = under.sum() / heralds.sum() if heralds.sum() else 0.0
    out["failed_frac"] = failed_frac
    out["trace.ops"] = ops
    out["trace.overhead_frac"] = 1.0 - core.ops_per_s() / plain.ops_per_s()
    return out


# ---------------------------------------------------------------------------


def report(metrics: dict, declared: list[dict], absent_ok: bool) -> dict:
    """Match computed metrics to the declared list; print each with its unit."""
    out = {}
    missing = []
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            missing.append(name)
            continue
        value = float(metrics[name])
        out[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name} = {value:.6g} {entry['unit']} ({entry['better']} is better)")
    if missing:
        print(f"absent (hook target not found): {', '.join(missing)}")
        if not absent_ok:
            raise SystemExit(f"benchmark: metrics not computed: {missing}")
    return out


def run(args, scratch: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = args.trace == 1
    half = SETUP_PROBES // 2
    setup = [] if trace else measure_setup(args, scratch, range(half))

    started = perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    from workloads import WORKLOADS

    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, scratch)
    workload.first_op()
    first_op_s = perf_counter() - started
    workload.warm_up()

    if trace:
        def snapshot():
            caches = ("channel.mixing_unitary", "fock.beam_splitter_unitary")
            return {"counts": tracer.counts(), **{c: tracer.cache_info(c) for c in caches}}

        before = snapshot()
        w0 = perf_counter()
        core = run_core(workload, args.seconds / 2)
        window = (w0, perf_counter())
        snapshots = {"before": before, "after": snapshot()}
        tracer.uninstall()
        plain = run_core(workload, args.seconds / 2)
        timed_ops = OpCount(core.ops.attempted + plain.ops.attempted,
                            core.ops.failed + plain.ops.failed)
    else:
        core = run_core(workload, args.seconds)
        timed_ops = core.ops
        setup += measure_setup(args, scratch, range(half, SETUP_PROBES))

    workload.checks()
    edge = OpCount()
    workload.edge(edge)
    all_ops = OpCount(timed_ops.attempted + edge.attempted, timed_ops.failed + edge.failed)

    for line in workload.info:
        print(line)
    for line in workload.errors[:20]:
        print(f"CHECK FAILED: {line}")
    pooled = [s for chunk in core.samples for s in chunk]
    tail = highest_supported_percentile(len(pooled))
    q1, q2, q3 = quartiles(core.rates()) if len(core.chunks) > 1 else (core.ops_per_s(),) * 3
    print(f"{args.workload}: {core.ops.attempted} ops in {len(pooled)} requests, "
          f"{len(core.chunks)} chunks; chunk ops/s quartiles {q1:.4g} {q2:.4g} {q3:.4g}; "
          f"pooled request latency p50 {1e3 * percentile(pooled, 50.0):.4g} ms, "
          f"p{tail} {1e3 * percentile(pooled, tail or 50.0):.4g} ms (highest percentile with "
          f">= 10 requests beyond it); first op after {first_op_s:.3f} s in this process")
    if setup:
        print("set-up probes: " + " ".join(f"{t:.3f}" for t in setup) + " s")
    if edge.attempted:
        print(f"edge slice: {edge.failed} of {edge.attempted} ops failed (not timed)")

    if trace:
        metrics = per_layer(tracer, window, core, plain, snapshots, all_ops.failed_frac)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(core, setup, workload.max_delta)
        declared = spec["end_to_end"]
    printed = report(metrics, declared, absent_ok=trace)

    correct = not workload.errors and timed_ops.failed == 0
    result = {"correct": correct, "attempted": timed_ops.attempted, "failed": timed_ops.failed,
              "metrics": printed}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("presets", "oracle-xcheck", "cli-queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scratch", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return probe(args)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"benchmark: no BENCHMARK.json at {ROOT}")
    bootstrap()
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
