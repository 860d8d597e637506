"""Benchmark entry point for spectrunc.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-line --seed 0 --seconds 24 --trace 0

It starts one fresh worker process per workload iteration (see worker.py)
for about ``--seconds``, each with inputs derived from the seed and the
iteration number, and prints one JSON object as the last line of stdout:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, or its
per-layer metrics with ``--trace 1``, which adds two traced iterations after
the untraced ones.  The line before it is an informational record: the
environment, per-iteration samples, invariant-check counts and output
digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-line", "sweep-heis", "distance-mix", "kernel-heis")
# BLAS threads for every worker.  The OpenBLAS build allows 64 and would pick
# its own count; one thread is both steadier and faster on the small pencils
# here than two.
BLAS_THREADS = 1
MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5
# Every run ends within this many seconds, whatever the workers do.
DEADLINE_S = 170.0


def derived_seed(seed: int, iteration: int) -> int:
    """Seed of one iteration: distinct per (seed, iteration), fits in 32 bits."""
    return (seed * 7919 + iteration * 104729 + 12345) % 2**32


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )

    def spawn(self, mode: str, seed: int, traced: int = 0) -> dict | None:
        """Run one worker to completion; None if it failed or ran out of time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        argv = [sys.executable, str(HERE / "worker.py"), mode, str(seed), str(traced)]
        try:
            proc = subprocess.run(argv + [repr(time.time())], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {mode} seed {seed} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker {mode} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"worker {mode} seed {seed} printed no result", file=sys.stderr)
            return None


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spectrunc" / "__init__.py").is_file():
        print("bench: run from the root of a spectrunc checkout (src/spectrunc is missing)",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    runner = Runner(root, time.monotonic() + DEADLINE_S)

    # Discarded set-up: compiles the package's bytecode and reports the environment.
    warm = runner.spawn("setup", 0)
    if warm is None:
        return 1

    # Start another iteration while it is expected to end inside --seconds,
    # and at least MIN_ITERATIONS, so a run lasts about --seconds whatever
    # the iteration length.
    samples, lost = [], 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        started = len(samples) + lost
        if started >= MIN_ITERATIONS and elapsed * (started + 1) / started > args.seconds:
            break
        res = runner.spawn(args.workload, derived_seed(args.seed, started))
        if res is None:
            lost += 1
            if time.monotonic() >= runner.deadline or lost > 2:
                break
        else:
            samples.append(res)
    if not samples:
        return 1

    setup = [s["setup_s"] for s in samples]
    while len(setup) < MIN_SETUP_SAMPLES:
        res = runner.spawn("setup", 0)
        if res is None:
            return 1
        setup.append(res["setup_s"])

    traced = []
    if args.trace:
        # One pass for spans and counts, one for peak allocations, both on
        # the inputs of the first untraced iteration.
        traced = [runner.spawn(args.workload, derived_seed(args.seed, 0), mode) for mode in (1, 2)]
        if None in traced:
            return 1

    done = samples + traced
    attempted = sum(s["attempted"] for s in done) + lost
    failed = sum(s["failed"] for s in done) + lost
    wall = statistics.median(s["wall_s"] for s in samples)
    distances = [d for s in done for d in s["distances"]]

    if args.trace:
        spans, allocs = traced
        metrics = dict(spans["layers"])
        metrics.update((k, v) for k, v in allocs["layers"].items() if k.endswith(".peak_alloc_mb"))
        metrics["trace.overhead_s"] = spans["wall_s"] - wall
        metrics["failed_share"] = failed / attempted
        metrics["distance_mean"] = statistics.fmean(distances) if distances else 0.0
        metrics["solver_cap_share"] = (
            sum(s["capped"] for s in done) / len(distances) if distances else 0.0
        )
        units = spec["per_layer"]
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        units = spec["end_to_end"]
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "env": warm["env"],
        "iterations": len(samples),
        "lost_iterations": lost,
        "wall_s_samples": [s["wall_s"] for s in samples],
        "setup_s_samples": setup,
        "probe_s_samples": [s["probe_s"] for s in samples],
        "checks_run": sum(s["checks"] for s in done),
        "violations": [v for s in done for v in s["violations"]],
        "errors": [e for s in done for e in s["errors"]],
        "digests": [s["digest"] for s in samples],
    }
    print(json.dumps(info))
    result = {
        "correct": not info["violations"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
