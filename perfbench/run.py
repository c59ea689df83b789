"""The repository benchmark: one seeded workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload warehouse --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in a fresh process

A run's work is fixed, so every run and seed measures the same work;
``--seconds`` is how long a run is expected to take, and a run that takes
longer says so on standard error.

``--trace 0`` prints the six end-to-end metrics; ``--trace 1`` runs the
tracer self-test, then a traced run, and prints every per-layer metric and
writes the span dump to ``perfbench/.work/spans-<workload>-<seed>.jsonl``.
Progress and metadata go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 when every output matched its reference, 1 when one did not,
and 2 when the program could not be run at all (no ``src/repro``).
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CALIBRATION_LOOPS = 3_500_000  # about 0.5 s of pure Python on a 2-core VM

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_stmt_per_s": "stmt/s",
    "warm_stmt_per_s": "stmt/s",
    "fresh_mean_ms": "ms",
    "impact_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def host_context():
    """Run metadata that tells VM drift apart from a real change."""
    started = time.perf_counter()
    value = 0
    for i in range(CALIBRATION_LOOPS):
        value = (value + i * i) % 1000003
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "calibration_loop_s": round(time.perf_counter() - started, 4),
    }


def layer_unit(name):
    if name.endswith("lines_per_s"):
        return "lines/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "trace_overhead")):
        return "ratio"
    return "count"


def end_to_end(run):
    """The end-to-end metrics of an untraced run.

    Throughputs divide all of a phase's work in the run by all of its
    time.  A delta's latency is bimodal (some deltas pay for a full
    collection, some do not), and a median jumps between the modes as
    their shares cross one half, so deltas report their mean; reads
    report their median.
    """
    def seconds(phase):
        return sum(unit.elapsed for unit in run.phase_units(phase))

    def latencies_ms(phase):
        return [unit.elapsed * 1000 for unit in run.phase_units(phase)]

    views = run.spec.views
    return {
        "setup_s": sum(statistics.median(samples) for samples in run.setup.values()),
        "cold_stmt_per_s": views * len(run.phase_units("cold")) / seconds("cold"),
        "warm_stmt_per_s": views * len(run.phase_units("warm")) / seconds("warm"),
        "fresh_mean_ms": statistics.fmean(latencies_ms("fresh")),
        "impact_p50_ms": statistics.median(latencies_ms("impact")),
        "peak_rss_mb": run.peak_rss,
    }


def run_workload(args):
    import harness
    import layers
    import workloads
    from tracer import Tracer

    host = host_context()
    print("perfbench host " + json.dumps(host), flush=True)
    spec = workloads.WORKLOADS[args.workload]
    tracer = None
    targets = ()
    if args.trace:
        import selftest

        print("perfbench tracer self-test " + json.dumps(selftest.check()), flush=True)
        tracer = Tracer()
        targets = layers.targets(tracer)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    started = time.perf_counter()
    run = harness.WorkloadRun(spec, args.seed, workdir, SRC, tracer, targets)
    try:
        run.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.timeline["total"] = time.perf_counter() - started
    if run.timeline["total"] > args.seconds:
        print(f"perfbench: the run took {run.timeline['total']:.1f} s, "
              f"more than --seconds {args.seconds:g}", file=sys.stderr)

    if tracer is not None:
        metrics = layers.layer_metrics(run, tracer)
        units = {name: layer_unit(name) for name in metrics}
        dump = os.path.join(WORK, f"spans-{spec.name}-{args.seed}.jsonl")
        tracer.dump(dump, {"workload": spec.name, "seed": args.seed, "host": host})
        print(f"perfbench spans {len(tracer.spans)} -> {os.path.relpath(dump, ROOT)}")
    else:
        metrics = end_to_end(run)
        units = END_TO_END_UNITS
    print("perfbench timeline " + json.dumps({k: round(v, 3) for k, v in run.timeline.items()}))
    print("perfbench samples " + json.dumps({
        "cold_s": [round(unit.elapsed, 3) for unit in run.phase_units("cold")],
        "warm_s": [round(unit.elapsed, 3) for unit in run.phase_units("warm")],
        "fresh_ms": [round(unit.elapsed * 1000, 1) for unit in run.phase_units("fresh")],
        "stream_drain_s": [round(seconds, 3) for seconds in run.stream_drains],
        "setup_s": {step: [round(x, 3) for x in xs] for step, xs in run.setup.items()},
    }))
    print("perfbench inputs " + json.dumps(run.digests, sort_keys=True))
    print("perfbench phases " + json.dumps(
        {phase: {"attempted": run.attempted[phase], "failed": run.failed[phase]}
         for phase in harness.PHASES}
    ))
    for problem in run.problems:
        print(f"perfbench FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {spec.name:<10} {name:<36} {value:>14.4f} {units[name]}")
    failed = sum(run.failed.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run.attempted.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, each in a fresh process; one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
