"""One benchmark process: set up spectrunc, run one workload iteration, report.

Usage (started by run.py, one fresh process per iteration so that every
in-process cache starts cold, as it does for a command-line user):

    python3 bench/worker.py <workload|setup> <seed> <trace 0|1|2> <spawn time>

Trace 1 records spans and counts; trace 2 records peak allocations only.

``spawn time`` is the parent's ``time.time()`` just before it started this
process; ``setup_s`` runs from there until ``import spectrunc`` and a CLI
argument parse have finished.  The single output line is a JSON object.
"""

import sys
import time

# A runaway dense allocation fails as MemoryError inside an op instead of
# drawing the kernel's OOM killer.  The heaviest workload peaks near 0.4 GB
# resident and 0.65 GB of address space.
MEMORY_CEILING = 2 * 2**30


def environment() -> dict:
    import os

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop, a record of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def main() -> None:
    mode, seed, traced, spawned = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
    from spectrunc import cli

    cli.build_parser().parse_args(["converge", "--group", "z:1", "--lambdas", "2,4,8,16"])
    out = {"setup_s": time.time() - spawned}

    import hashlib
    import json
    import resource

    if mode == "setup":
        out["env"] = environment()
        print(json.dumps(out))
        return

    import workloads
    from tracing import Tracer

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    run = workloads.WORKLOADS[mode]
    tracer = Tracer(peaks=traced == 2) if traced else None
    probe = host_probe()
    t0 = time.perf_counter()
    if tracer is None:
        ops = run(seed)
    else:
        with tracer:
            ops = run(seed)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["probe_s"] = (probe + host_probe()) / 2

    tally = workloads.evaluate(ops)
    solves = [op.value.result for op in ops if isinstance(op.value, workloads.Solve)]
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        checks=tally.checks,
        violations=tally.violations,
        errors=tally.errors,
        digest=hashlib.sha256("\n".join(tally.lines).encode()).hexdigest()[:16],
        distances=[r.value for r in solves],
        capped=sum(r.status == "iteration-cap" for r in solves),
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
