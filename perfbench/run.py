"""cmsim benchmark: one command, three seeded workloads, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``cmsim`` is imported from its ``src/``.
Every measurement runs in a fresh interpreter (``worker.py``), one at a
time, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0   the end-to-end metrics. The seed stands for four input sets;
            whole runs go round-robin over them, each at least once and
            the first at least twice, until S seconds have passed, with
            set-up measured in fresh interpreters in between. Host
            metrics are medians over the runs, sim metrics means over the
            input sets. Every run's outputs are checked (see checks.py)
            and runs of one input set must give the same trace and
            sim-metric digests.
--trace 1   the per-layer metrics: one untraced run, one run with span
            tracing (spans.py), and the core scaling probes (probes.py).

Workload parameters live in inputs.py; metric definitions in README.md.
Exit status: 0 with a result, 1 when a measurement could not be made,
2 when this directory holds no ``src/cmsim`` to measure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
from inputs import WORKLOADS, input_seeds  # noqa: E402

SETUPS_PER_RUN = 2        # set-up-only interpreters before each timed run
WORKER_TIMEOUT = 150.0    # seconds; a worker past this is killed
RUN_BUDGET = 165.0        # start no new run after this many seconds
# Seconds the worker's yardstick job takes at the reference machine speed
# (see README.md); host throughput is reported at that speed.
YARDSTICK_REF_S = 0.0025

# name -> unit; reported with --trace 0
END_TO_END: Dict[str, str] = {
    "pkts_per_ref_s": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_mbps": "Mbit/s",
}

# name -> unit; reported with --trace 1
PER_LAYER: Dict[str, str] = {
    "sim.self_frac": "share",
    "sim.events_per_pkt": "count",
    "sim.cancelled_frac": "ratio",
    "sim.schedule_us": "us",
    "sim.link_send_us": "us",
    "core.self_frac": "share",
    "core.request_us": "us",
    "core.notify_us": "us",
    "core.tick_us": "us",
    "core.open_us": "us",
    "core.close_us": "us",
    "core.update_us": "us",
    "core.rate_cbs_per_update": "ratio",
    "core.grant_useful_frac": "ratio",
    "core.crossings_per_pkt": "count",
    "transport.self_frac": "share",
    "transport.tcp_on_ack_us": "us",
    "transport.tcp_rx_us": "us",
    "transport.app_ack_us": "us",
    "transport.ack_rx_us": "us",
    "transport.retx_frac": "ratio",
    "apps.self_frac": "share",
    "apps.rate_cb_us": "us",
    "apps.grant_cb_us": "us",
    "trace.self_frac": "share",
    "trace.emit_us": "us",
    "trace.records_per_pkt": "count",
    "trace.write_csv_s": "s",
    "harness.summarize_s": "s",
    "harness.self_frac": "share",
    "bench.self_frac": "share",
    "uncovered_frac": "share",
    "trace_overhead_frac": "ratio",
    **{f"core.grant_cycle_us.m{m}": "us" for m in (1, 100, 1000, 10000)},
    **{f"core.update_us.n{n}": "us" for n in (1, 100, 1000, 10000)},
}


class BenchError(Exception):
    """A measurement could not be made; no result is printed."""


def call_worker(mode: str, workload: str, seed: int, workdir: str) -> Dict[str, Any]:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, workload, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past {WORKER_TIMEOUT:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if "error" in out and mode in ("setup", "probes"):
        raise BenchError(f"{mode} worker: program raised\n{out['error']}")
    return out


class Outcome:
    """Ops and correctness accumulated over the runs of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, rep: Dict[str, Any], label: str) -> bool:
        """Count one run's ops; False when the program raised."""
        if "error" in rep:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: program raised\n{rep['error']}")
            return False
        self.attempted += rep["ops"]
        if rep["check_failures"]:
            self.failed += rep["ops"]
            self.problems += [f"{label}: {f}" for f in rep["check_failures"]]
        else:
            self.failed += rep["ops_failed"]
        return True

    def same_digests(self, reps: List[Dict[str, Any]], label: str) -> None:
        for key in ("trace_sha256", "sim_sha256"):
            seen = sorted({r[key] for r in reps})
            if len(seen) > 1:
                self.problems.append(f"{label}: runs disagree on {key}: {seen}")


def _digest(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()


def measure_timed(workload: str, seed: int, seconds: float, workdir: str,
                  t_begin: float) -> Tuple[Dict[str, float], Outcome, List[str]]:
    outcome = Outcome()
    seeds = input_seeds(seed)
    setups: List[float] = []
    by_seed: Dict[int, List[Dict[str, Any]]] = {s: [] for s in seeds}
    reps: List[Dict[str, Any]] = []
    t0 = perf_counter()
    # every input set at least once and the first one twice, so that at
    # least one pair of digests is compared; then round-robin until time
    # is up
    while len(reps) <= len(seeds) or perf_counter() - t0 < seconds:
        if perf_counter() - t_begin > RUN_BUDGET:
            raise BenchError(f"only {len(reps)} runs fit in {RUN_BUDGET:.0f}s")
        s = seeds[len(reps) % len(seeds)]
        # set-up samples spread over the whole measurement, so that their
        # median sees the same host speed as the runs do
        setups += [call_worker("setup", workload, s, workdir)["setup_s"]
                   for _ in range(SETUPS_PER_RUN)]
        rep = call_worker("timed", workload, s, workdir)
        if not outcome.add(rep, f"input set {s}"):
            raise BenchError("\n".join(outcome.problems))
        by_seed[s].append(rep)
        reps.append(rep)
    firsts = [by_seed[s][0] for s in seeds]
    for s in seeds:
        outcome.same_digests(by_seed[s], f"input set {s}")
    sims = [r["sim"] for r in firsts]
    metrics = {
        "pkts_per_ref_s": statistics.median(
            r["pkts_per_s"] * r["yardstick_s"] / YARDSTICK_REF_S for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "goodput_mbps": statistics.fmean(sim["goodput_mbps"] for sim in sims),
    }

    def per_set(key: str, fmt: str) -> str:
        return ", ".join(format(sim[key], fmt) for sim in sims)

    notes = [
        f"input sets: {', '.join(map(str, seeds))}",
        f"runs: {len(reps)} in {perf_counter() - t0:.1f}s; set-up samples: "
        f"{len(setups) + len(reps)}",
        "pkts_per_s per run (wall clock): "
        + ", ".join(f"{r['pkts_per_s']:.0f}" for r in reps),
        "yardstick ms per job per run: "
        + ", ".join(f"{r['yardstick_s'] * 1e3:.3f}" for r in reps),
        f"delivered data packets per input set: {per_set('delivered_pkts', 'd')}",
        f"trace rows per input set: {per_set('trace_rows', 'd')}",
        f"goodput_mbps per input set: {per_set('goodput_mbps', '.4f')}",
        f"fct: {sims[0]['fct_kind']} completion times, samples per input set: "
        f"{per_set('fct_samples', 'd')}",
        f"fct_p50_ms per input set: {per_set('fct_p50_ms', '.2f')} "
        f"(mean {statistics.fmean(s['fct_p50_ms'] for s in sims):.2f} ms)",
        f"fct_p99_ms per input set: {per_set('fct_p99_ms', '.2f')} "
        f"(mean {statistics.fmean(s['fct_p99_ms'] for s in sims):.2f} ms)",
        f"ops attempted {outcome.attempted}, failed {outcome.failed}; per input "
        "set (ops/failed): " + ", ".join(f"{r['ops']}/{r['ops_failed']}"
                                          for r in firsts),
        "trace sha256: " + _digest([r["trace_sha256"] for r in firsts]),
        "sim sha256:   " + _digest([r["sim_sha256"] for r in firsts]),
    ]
    return metrics, outcome, notes


def measure_traced(workload: str, seed: int, workdir: str
                   ) -> Tuple[Dict[str, float], Outcome, List[str]]:
    outcome = Outcome()
    s = input_seeds(seed)[0]
    plain = call_worker("timed", workload, s, workdir)
    traced = call_worker("traced", workload, s, workdir)
    if not (outcome.add(plain, "untraced run") & outcome.add(traced, "traced run")):
        raise BenchError("\n".join(outcome.problems))
    outcome.same_digests([plain, traced], f"input set {s}")
    probes = call_worker("probes", workload, s, workdir)
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = traced["host_s"] / plain["host_s"] - 1.0
    metrics.update(probes["probes"])
    layers = ("sim", "core", "transport", "apps", "trace", "harness", "bench")
    notes = [
        f"input set {s}: traced run {traced['host_s']:.2f}s with "
        f"{traced['spans']} spans; untraced run {plain['host_s']:.2f}s",
        "share of the traced run by layer: " + ", ".join(
            f"{layer} {metrics[layer + '.self_frac']:.3f}" for layer in layers)
        + f", uncovered {metrics['uncovered_frac']:.4f}",
        "largest self times:",
        *(f"  {name}: {calls} calls, {self_s:.3f}s"
          for name, calls, self_s in traced["top"]),
        f"trace sha256 (input set {s}): {traced['trace_sha256']}",
    ]
    return metrics, outcome, notes


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    t_begin = perf_counter()
    # on SIGTERM unwind normally: subprocess.run kills and reaps the
    # running worker, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "cmsim", "__init__.py")):
        print(f"no src/cmsim under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            metrics, outcome, notes = measure_traced(args.workload, args.seed,
                                                     workdir)
            units = PER_LAYER
        else:
            metrics, outcome, notes = measure_timed(
                args.workload, args.seed, args.seconds, workdir, t_begin)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
