#!/usr/bin/env python3
"""Benchmark of pstchain: one workload, one closed-loop run.

    python3 bench/run.py --workload chain-scale --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the same ops with every layer function wrapped and reports per-layer
metrics, the tracing overhead and the ROADMAP baseline figures. The last
line of stdout is the result as JSON; the line before it is the full record
of the run (machine, BLAS, versions, commit, seed, every metric). All files
are written to a temporary directory under ``.bench_work/`` and removed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1


def _prepare_environment() -> None:
    """One BLAS thread and the import path; must precede the first numpy import.

    With two OpenBLAS threads the idle worker spins after each large call and
    the millisecond ops that follow take up to 2.5 times longer; one thread
    keeps op times steady, at some 15% more for the largest eigensolves.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


_prepare_environment()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from harness import (END_TO_END, Loop, end_to_end_metrics, layer_metrics,  # noqa: E402
                     run_cycle, run_loop)
from workloads import WORKLOADS, CliPipeline  # noqa: E402

SETUP_REPEATS = 6
IMPORT_REPEATS = 3


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process from spawn until its set-up is done."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--workload", workload,
                             "--seed", str(seed), "--setup-only"],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def import_seconds() -> float:
    """Median wall time of a bare ``python -c "import pstchain"``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pstchain"], cwd=ROOT, check=True,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_run(workload, args) -> tuple[Loop, dict, dict]:
    # Half the set-up probes run before the loop and half after it, so that
    # their median spans the run rather than one moment of the machine.
    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS // 2)]
    loop = run_loop(workload, args.seconds)
    peak = peak_rss_mb(children=isinstance(workload, CliPipeline))
    setups += [setup_seconds(args.workload, args.seed)
               for _ in range(SETUP_REPEATS - len(setups))]
    setup = statistics.median(setups)
    detail = {"ops": loop.attempted, "cycles": loop.cycles, "wall_s": loop.wall,
              "tail_percentile": workload.tail_q,
              "beyond_tail": stats.beyond(loop.times, workload.tail_q),
              "skipped_spectra": getattr(workload, "skipped_spectra", None)}
    return loop, end_to_end_metrics(loop, workload.tail_q, setup, peak), detail


def traced_run(workload, args) -> tuple[Loop, dict, dict]:
    import pstchain  # noqa: F401  -- every module must be loaded before wrapping
    import pstchain.cli  # noqa: F401

    # Traced and untraced passes alternate cycle by cycle over the same ops, so
    # that drift in the machine's speed falls on both alike.
    tracer = tracing.Tracer()
    traced, plain = Loop(), Loop()
    while traced.wall + plain.wall < args.seconds:
        with tracer:
            run_cycle(workload, traced, tracer, in_process=True)
        run_cycle(workload, plain, in_process=True)
    walls = workload.process_walls() if isinstance(workload, CliPipeline) else {}
    metrics = layer_metrics(tracer, traced, plain, import_seconds(), walls)
    op_times = {label: [s] for label, s in walls.items()} or plain.times_by_label()
    baselines = workload.baselines(op_times)
    for b in baselines:
        print(f"baseline {b.label}: ROADMAP {b.roadmap_s:g} s, measured {b.measured_s:.4f} s")
    print(f"tracing overhead: traced {traced.wall:.3f} s, untraced {plain.wall:.3f} s "
          f"over {traced.cycles} cycle(s)")
    if tracer.absent:
        print(f"absent layer functions: {', '.join(tracer.absent)}")
    merged = Loop(times=traced.times + plain.times, labels=traced.labels + plain.labels,
                  failed=traced.failed + plain.failed, wrong=traced.wrong + plain.wrong,
                  problems=traced.problems + plain.problems)
    detail = {"cycles": traced.cycles, "traced_wall_s": traced.wall,
              "untraced_wall_s": plain.wall, "absent": tracer.absent,
              "baselines": [vars(b) for b in baselines]}
    return merged, metrics, detail


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pstchain" / "__init__.py").is_file():
        print(f"error: no pstchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        loop, metrics, detail = (traced_run if args.trace else timed_run)(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "run": detail,
              "attempted": loop.attempted, "failed": loop.failed, "wrong": loop.wrong,
              "problems": loop.problems[:10],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    reported = END_TO_END if not args.trace else metrics
    result = {"correct": loop.wrong == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {k: record["metrics"][k] for k in reported}}
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
