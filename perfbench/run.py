"""trustnet benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
  pipeline-10k   generate -> analyze --out -> report --charts at n = 10,000
  sim-lossy-800  simulate (800 agents, 5% loss) -> analyze --audit
  registry-udp   serve-registry under open- and closed-loop loopback traffic

With --trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of the traced suite
(traced.py). Lines before it name every figure with its unit. The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

import common
import offline
import registry_load
import traced
from common import OUT, BenchError, median

WORKLOADS = ("pipeline-10k", "sim-lossy-800", "registry-udp")
SETUP_REPEATS = 3


def offline_setup_s(work) -> float:
    """Median wall time of a fresh interpreter importing trustnet.cli."""
    return median(common.import_time_s(work) for _ in range(SETUP_REPEATS))


def end_to_end(workload: str, seed: int, seconds: float, work) -> tuple[dict, dict, object]:
    """Run one workload untraced in `work`: (gated metrics, all figures, tally)."""
    tally = common.Tally()
    if workload == "pipeline-10k":
        setup = offline_setup_s(work)
        figures = offline.run_pipeline(work, seed, seconds, tally)
        job, readout = figures["pipeline_rel"], figures["analyze_rel"]
    elif workload == "sim-lossy-800":
        setup = offline_setup_s(work)
        figures = offline.run_sim(work, seed, seconds, tally)
        job, readout = figures["sim_audit_rel"], figures["audit_rel"]
    else:
        figures = registry_load.run(work, seed, seconds, tally)
        setup = figures["setup_s"]
        job, readout = figures["rtt_p50_rel.r5k"], figures["stats_idle_rel"]
    figures["setup_s"] = setup
    gated = {"setup_s": setup, "peak_rss_mb": figures["peak_rss_mb"], "job_rel": job,
             "readout_rel": readout}
    return gated, figures, tally


# First matching fragment names the unit; order matters ("busy_share" is a ratio).
UNIT_RULES = (
    ("capacity_ops_per_s", "ops/s"), ("_us", "us"), ("_ms", "ms"), ("_mb", "MiB"),
    ("bytes", "B"), ("mix.", "ratio"), ("yield", "ratio"), ("share", "ratio"),
    ("_rel", "ratio"), ("_s", "s"),
)


def unit_of(name: str) -> str:
    for fragment, unit in UNIT_RULES:
        if fragment in name:
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    # SIGTERM unwinds like an exception, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_source()
        OUT.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        work = OUT / (f"traced-{opts.seed}" if opts.trace else f"{opts.workload}-{opts.seed}")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if opts.trace:
            metrics, figures, tally = traced.run(opts.seed, work)
        else:
            metrics, figures, tally = end_to_end(opts.workload, opts.seed, opts.seconds, work)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    env = common.environment()
    failed = len(tally.failures) + figures.get("failed_requests", 0)
    attempted = tally.attempted + figures.get("requests", 0)
    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace} "
          f"({time.perf_counter() - started:.1f} s wall)")
    for name, value in sorted(figures.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if opts.trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {unit_of(name)}")
        for name, reason in traced.UNMEASURED.items():
            print(f"  not measured from outside: {name}: {reason}")
    for failure in tally.failures:
        print(f"  FAILED CHECK: {failure}")
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "environment": env, "figures": figures,
        "metrics": metrics, "failures": tally.failures,
        "attempted": attempted, "failed": failed,
    }
    results = OUT / f"results-{opts.workload}-{opts.seed}-trace{opts.trace}.json"
    results.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    correct = not tally.failures
    if correct:
        # The digests and figures are in the results record; the outputs
        # themselves stay only when a check failed, for inspection.
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
