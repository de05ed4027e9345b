"""One seeded run of one workload: set up, load, check, report.

``run_workload`` is the whole run; ``main`` is its command line (see
``run.py``). A run

1. sets the workload's system up ``SETUP_REPEATS`` times, closing all but
   the last, and reports the median as ``setup_s``;
2. after one untimed warm-up round, measures ``ROUNDS`` rounds of an
   open-loop phase then a closed-loop phase, splitting ``--seconds``
   evenly between rounds and by the workload's ``open_share`` within one.
   With ``--trace 1`` each round is
   followed by a traced round of the same length; the traced rounds give
   the per-layer metrics, and their throughput against the untraced
   rounds' gives the tracing overhead;
3. checks every response's shape and a panel of served rows for parity
   against a fresh reference (see ``workloads.py``);
4. prints each metric with its unit, then one JSON line: ``correct``,
   ``attempted``, ``failed`` and the end-to-end (``--trace 0``) or
   per-layer (``--trace 1``) metrics named in ``BENCHMARK.json``.

The seed drives the dataset, the request stream, the arrival schedule and
the update batches; the stack only ever sees the generated inputs.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from benchmarks.e2e.layers import counters, instrument, layer_metrics
from benchmarks.e2e.loadgen import Sample, arrival_offsets, closed_loop, open_loop
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS, settle
from repro.service.server import percentile

ROOT = Path(__file__).resolve().parents[2]
SETUP_REPEATS = 3
#: Rounds per run. A shared 2-core host's speed drifts by up to a sixth
#: over a few seconds; short alternating rounds spread every metric's
#: samples (and the traced/untraced comparison) over the whole run.
ROUNDS = 8


def load_spec(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def stream_copy_gbps(n_bytes: int = 32 << 20, repeats: int = 7) -> float:
    """Median numpy copy bandwidth (bytes read + written per second)."""
    source = np.ones(n_bytes // 8)
    target = np.empty_like(source)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - began)
    return 2 * source.nbytes / statistics.median(times) / 1e9


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def envelope(seed: int) -> dict:
    """Provenance of a run: host, versions, commit, seed, spec digest."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    spec = ROOT / "BENCHMARK.json"
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
            "ram_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "benchmark_json_sha256": hashlib.sha256(spec.read_bytes()).hexdigest(),
        "stream_copy_gbps": stream_copy_gbps(),
    }


def _reset_peak_rss() -> None:
    """Restart ``VmHWM`` so ``peak_rss_mb`` covers set-up and load only
    (not the stream-copy probe). Linux-only; elsewhere the peak is
    lifetime."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


@dataclass
class Phase:
    """Open-loop and closed-loop samples pooled over a run's rounds."""

    open_samples: list[Sample] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    closed_samples: list[Sample] = field(default_factory=list)
    closed_s: float = 0.0
    #: Per-round throughput, p50 and p90: how the host drifted in a run.
    rounds: list[dict] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Median over rounds: a burst of host contention that slows one
        or two rounds does not move it."""
        return statistics.median(r["throughput_rps"] for r in self.rounds)


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    envelope: dict
    end_to_end: dict
    per_layer: dict | None
    diagnostics: dict
    attempted: int
    failed: int
    errors: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, spec: dict) -> dict:
        """The JSON record ``compare`` reads (metrics with their units)."""
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        return {
            "kind": "e2e-run",
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "envelope": self.envelope,
            "end_to_end": {name: {"value": value, "unit": units[name]}
                           for name, value in self.end_to_end.items()},
            "per_layer": (None if self.per_layer is None else
                          {name: {"value": value, "unit": units[name]}
                           for name, value in self.per_layer.items()}),
            "diagnostics": self.diagnostics,
        }


async def _round(system, workload, seconds: float, rng: np.random.Generator,
                 phase: Phase, first_rows: dict) -> None:
    """One open-loop then one closed-loop phase, splitting ``seconds`` by
    the workload's ``open_share``.

    ``first_rows`` collects each open-loop user's first valid rows, the
    source of the parity panel.
    """
    open_s = seconds * workload.open_share
    closed_budget = seconds - open_s
    offsets = arrival_offsets(rng, workload.open_rate, open_s,
                              workload.arrivals)
    users = [next(system.open_users) for _ in offsets]
    open_samples, lateness = await system.run_phase(
        open_loop(system.send, users, offsets), open_s)
    count = max(round(workload.closed_rate * closed_budget), 1)
    closed_samples, closed_s = await system.run_phase(
        closed_loop(system.send, system.closed_users.__next__,
                    workload.concurrency,
                    count=count if workload.closed_rate else None,
                    seconds=None if workload.closed_rate else closed_budget),
        closed_budget)
    settle(open_samples, first_rows)
    settle(closed_samples)
    phase.open_samples += open_samples
    phase.lateness += lateness
    phase.closed_samples += closed_samples
    phase.closed_s += closed_s
    done = sum(sample.error is None for sample in closed_samples)
    latency_ms = [1000.0 * s.latency_s for s in open_samples
                  if s.error is None]
    phase.rounds.append({
        "throughput_rps": done / closed_s if closed_s else 0.0,
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_p90_ms": percentile(latency_ms, 90)})


def _tail_share(panel_rows, tail_mask: np.ndarray) -> float:
    slots = [item for rows in panel_rows for item, _, _ in rows]
    in_tail = sum(item < tail_mask.size and bool(tail_mask[item])
                  for item in slots)
    return in_tail / len(slots) if slots else 0.0


async def _set_up(workload, seed: int, scale: float, work: str,
                  repeats: int) -> tuple[object, list[float]]:
    """Build the system ``repeats`` times; keep the last, time them all."""
    times = []
    for repeat in range(repeats):
        workdir = os.path.join(work, f"setup-{repeat}")
        os.makedirs(workdir)
        began = time.perf_counter()
        system = await workload.build(workload, seed, scale, workdir)
        times.append(time.perf_counter() - began)
        if repeat < repeats - 1:
            await system.close()
            del system
            gc.collect()
    return system, times


async def _run(name: str, seed: int, seconds: float, trace: bool,
               scale: float, setup_repeats: int, tracer: Tracer) -> RunResult:
    workload = WORKLOADS[name]
    provenance = envelope(seed)
    _reset_peak_rss()
    # Inside the checkout, not the system temp directory: a run writes
    # nowhere else, and the fleet's WAL fsyncs hit the checkout's disk
    # rather than a possible tmpfs.
    with tempfile.TemporaryDirectory(prefix=".e2e-work-", dir=ROOT) as work:
        system, setup_times = await _set_up(workload, seed, scale, work,
                                            setup_repeats)
        try:
            arrivals = np.random.default_rng([seed, 2])
            warmup, base, traced = Phase(), Phase(), Phase()
            phases = [base, traced] if trace else [base]
            round_s = seconds / ROUNDS / len(phases)
            traced_counts: dict[str, float] = {}
            first_rows: dict[int, list] = {}
            # An untimed first round brings the caches to their state under
            # this load (on the fleet: rows that updates keep evicting).
            await _round(system, workload, round_s, arrivals, warmup,
                         first_rows)
            for phase in phases * ROUNDS:
                if phase is base:
                    await _round(system, workload, round_s, arrivals, base,
                                 first_rows)
                    continue
                before = counters(system)
                instrument(tracer, system)
                try:
                    await _round(system, workload, round_s, arrivals, traced,
                                 first_rows)
                finally:
                    tracer.restore()
                for key, value in counters(system).items():
                    traced_counts[key] = (traced_counts.get(key, 0)
                                          + value - before[key])
            per_layer = None
            if trace:
                per_layer = layer_metrics(
                    tracer, system, traced_counts,
                    client_samples=traced.open_samples + traced.closed_samples,
                    traced_rps=traced.throughput_rps,
                    untraced_rps=base.throughput_rps,
                    stream_copy_gbps=provenance["stream_copy_gbps"])

            # Read before the check: the reference solve is not the system.
            peak_rss_mb = system.peak_rss_mb()
            check = await system.check(first_rows)
            update_s = list(getattr(system, "update_seconds", []))
            update_errors = list(getattr(system, "update_errors", []))
        finally:
            await system.close()

    samples = [s for p in [warmup, *phases]
               for s in p.open_samples + p.closed_samples]
    errors: dict[str, int] = {}
    for kind in ([type(s.error).__name__ for s in samples if s.error]
                 + [f"update:{type(exc).__name__}" for exc in update_errors]):
        errors[kind] = errors.get(kind, 0) + 1
    if check["parity_mismatches"]:
        errors["parity"] = check["parity_mismatches"]
    attempted = len(samples) + len(update_s) + len(update_errors) + check["panel"]
    failed = sum(errors.values())

    latency_ms = [1000.0 * s.latency_s for s in base.open_samples
                  if s.error is None]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": base.throughput_rps,
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_p90_ms": percentile(latency_ms, 90),
        "peak_rss_mb": peak_rss_mb,
        "tail_share_at10": _tail_share(check["panel_rows"],
                                       system.tail_mask),
    }
    diagnostics = {
        "latency_p99_ms": percentile(latency_ms, 99),
        "n_samples": len(latency_ms),
        "open_rate_rps": workload.open_rate,
        "arrivals": workload.arrivals,
        "lateness_p99_ms": 1000.0 * percentile(base.lateness, 99),
        "lateness_max_ms": 1000.0 * max(base.lateness, default=0.0),
        "closed_requests": len(base.closed_samples),
        "closed_s": base.closed_s,
        "rounds": base.rounds,
        "error_rate": failed / attempted if attempted else 0.0,
        "parity_panel": check["panel"],
        "parity_mismatches": check["parity_mismatches"],
        "setup_times_s": setup_times,
    }
    if update_s:
        diagnostics.update(
            update_batches=len(update_s),
            update_p50_ms=percentile([1000.0 * s for s in update_s], 50),
            update_p90_ms=percentile([1000.0 * s for s in update_s], 90))
    return RunResult(name, seed, seconds, trace, provenance, end_to_end,
                     per_layer, diagnostics, attempted, failed, errors)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: float = 1.0, setup_repeats: int = SETUP_REPEATS,
                 tracer: Tracer | None = None) -> RunResult:
    """Run one workload once (blocking; owns its own event loop)."""
    return asyncio.run(_run(name, seed, seconds, trace, scale, setup_repeats,
                            tracer if tracer is not None else Tracer()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="One seeded run of one end-to-end serving workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run (set-up excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the JSON record and the trace")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    spec = load_spec()
    tracer = Tracer()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), tracer=tracer)
    record = result.record(spec)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
        with open(os.path.join(args.out, stem + ".json"), "w",
                  encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        if args.trace:
            tracer.write_jsonl(os.path.join(
                args.out, f"trace-{args.workload}.jsonl"))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: section[m["name"]] for m in declared}
    for metric_name, metric in metrics.items():
        print(f"{args.workload:>14} {metric_name:<28} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"diagnostics": record["diagnostics"],
                      "errors": record["errors"],
                      "envelope": record["envelope"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if record["correct"] else 1
