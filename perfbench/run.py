#!/usr/bin/env python3
"""Benchmark of the svdlora package: one workload per run.

    python3 perfbench/run.py --workload bench-mini --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. The run sets up the workload's inputs from the seed (several
times, timing each), then runs whole rounds of operations until ``--seconds``
of rounds have passed, checks every round's outputs and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the same rounds run once untraced and once traced, the spans are written to
``perfbench/out/<workload>/spans.jsonl`` and the metrics are the per-layer
ones, including the tracing overhead. The line before the result lists the
run's settings and the workload's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3  # repeats of the import and the set-up; setup_s adds their medians
# One BLAS thread, on a 2-core machine shared with other work, gives the
# steadiest figures. numpy's transparent-huge-page advice is off: with it on,
# the page faults of each large temporary may wait on the kernel compacting
# memory that other tenants share, which swung the diagnose rounds by +-10%;
# with it off, the same faults cost the same every time.
BLAS_THREADS = "1"
SETTINGS = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS, "NUMPY_MADVISE_HUGEPAGE": "0"}
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import svdlora from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import svdlora
    if Path(svdlora.__file__).resolve().parent != SRC / "svdlora":
        raise ImportError(f"svdlora imported from {svdlora.__file__}, not {SRC}")
    return svdlora


def import_seconds() -> float:
    """Median wall time of ``python3 -c "import svdlora"``: a fresh
    interpreter pays it once, so one run can only time it in a child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import svdlora"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_rounds(round_fn, inputs, seconds: float = 0.0, rounds: int = 1):
    """At least ``rounds`` whole rounds, and more until their total time
    reaches ``seconds``; returns the operation log, each round's outputs and
    each round's wall time."""
    from workloads import Ops
    ops, outputs, walls = Ops(), [], []
    while len(walls) < rounds or sum(walls) < seconds:
        start = time.perf_counter()
        out = round_fn(inputs, ops)
        walls.append(time.perf_counter() - start)
        if out is not None:
            outputs.append(out)
    return ops, outputs, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(SETTINGS)  # before numpy loads
    try:
        import_package()
        import numpy
        import tracing
        import workloads
        from reference import CheckFailed
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    setup_fn, round_fn, check_fn, figures_fn = workloads.WORKLOADS[args.workload]

    import_s = import_seconds()
    workdir = HERE / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        inputs = setup_fn(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    ops, outputs, walls = run_rounds(round_fn, inputs, seconds=args.seconds)
    # Read before the traced rounds and the checks, which hold their own arrays.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.start()
        try:
            traced = run_rounds(round_fn, inputs, rounds=len(walls))
        finally:
            tracer.stop()
        tracer.write(workdir / "spans.jsonl")

    correct = True
    try:
        for out in outputs + (traced[1] if traced else []):
            check_fn(inputs, out)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    if not outputs:
        print("error: every operation failed; nothing to measure", file=sys.stderr)
        return 1

    figures = figures_fn(inputs, ops, outputs)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(walls),
        "blas_threads": int(BLAS_THREADS), "numpy_hugepage": 0,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__, "figures": figures,
    }))
    if args.trace:
        t_ops, t_outputs, t_walls = traced
        metrics = tracer.summary(len(t_walls))
        metrics.update({name: 0.0 for name in workloads.FIGURES})
        metrics.update(figures)
        untraced_s, traced_s = sum(walls) / len(walls), sum(t_walls) / len(t_walls)
        metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s})
        units = tracing.metric_units() | {k: u for k, (u, _) in workloads.FIGURES.items()}
        attempted, failed = ops.attempted + t_ops.attempted, ops.failed + t_ops.failed
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pipeline_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        attempted, failed = ops.attempted, ops.failed
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
