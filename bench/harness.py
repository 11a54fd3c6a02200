"""The closed loop and the metrics it reports."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import stats
from workloads import CliPipeline

# The end-to-end metrics BENCHMARK.json bounds. A timed run's record also holds
# op_s_p50, fail_ratio and wrong_ratio. The median is left unbounded: on a
# shared two-core host, the median of millisecond ops and of process start-up
# moved by 20-28% of itself from run to run, more than any bound may allow.
# The two ratios are 0 on correct code, so they reach the caller as the
# result's "failed" and "correct" fields.
END_TO_END = ("ops_per_s", "op_s_tail", "setup_s", "peak_rss_mb")
UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "wrong_ratio": "ratio"}


@dataclass
class Loop:
    """What one closed-loop pass over whole cycles did."""

    times: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    wall: float = 0.0
    cycles: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def times_by_label(self) -> dict:
        out: dict = {}
        for label, t in zip(self.labels, self.times):
            out.setdefault(label, []).append(t)
        return out


def run_cycle(workload, loop: Loop, tracer=None, in_process=False) -> None:
    """Run the next whole cycle of ``workload`` into ``loop``, one op at a time.

    Only ``op.run`` is timed; the correctness check runs after the clock stops.
    The cycle's inputs are made before its wall clock starts.
    """
    ops = workload.cycle(loop.cycles, in_process=in_process)
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is counted, and the loop goes on
            failure = f"{type(exc).__name__}: {exc}"
        else:
            failure = None
        loop.times.append(time.perf_counter() - t)
        loop.labels.append(op.label)
        if failure is not None:
            loop.failed += 1
            problems = [failure]
        else:
            problems = op.check(result)
            loop.wrong += bool(problems)
        if problems:
            loop.problems.append(f"{op.label}: {'; '.join(problems)}")
    loop.cycles += 1
    loop.wall += time.perf_counter() - start


def run_loop(workload, seconds: float) -> Loop:
    """Whole cycles until ``seconds`` have passed and the tail rule holds."""
    loop = Loop()
    while loop.wall < seconds or not stats.enough_for_tail(loop.attempted, workload.tail_q):
        run_cycle(workload, loop)
    return loop


def end_to_end_metrics(loop: Loop, tail_q: float, setup_s: float,
                       peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    values = {
        "ops_per_s": loop.attempted / loop.wall,
        "op_s_p50": stats.percentile(loop.times, 50),
        "op_s_tail": stats.tail_percentile(loop.times, tail_q),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": loop.failed / loop.attempted,
        "wrong_ratio": loop.wrong / loop.attempted,
    }
    return {k: (v, UNITS[k]) for k, v in values.items()}


def layer_metrics(tracer, traced: Loop, plain: Loop, import_s: float,
                  walls: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; ``walls`` maps cli op labels to process seconds."""
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced.wall / plain.wall, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    for label in CliPipeline.LABELS:
        metrics[f"cli.{label}.wall_s"] = (walls.get(label, 0.0), "s")
    return metrics
