"""Plan / train / verify benchmark of this repository's Slapo runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan --seed 0 --seconds 15 --trace 0

Workloads (see ``perfbench/METRICS.md``): ``plan`` (``PlanService``
queries), ``train_tp2`` (GPT trained at TP=2 on ``LocalCluster``) and
``verify`` (``replay`` of seeded schedule specs).

With ``--trace 0`` the run starts one process that sets up the workload,
runs its first op and the timed loop, and checks every output, with
:data:`PROBES` probe processes around it that only set up and run the
first op.  ``setup_s`` and ``first_op_cpu_s`` are medians over all of
them; the other metrics come from the timed loop.  With ``--trace 1`` one process runs the loop with the
layer wrappers of ``tracing.py`` and reports the per-layer metrics; its
spans are written to ``perfbench/traces/``.

Every line but the last is for people; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
ROOT = HERE.parent
WORKLOAD_NAMES = ("plan", "train_tp2", "verify")
#: processes per untraced run that only set up and run op 0
PROBES = 6
#: a run's wall-time budget; a worker still running past it is killed
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def read_steal_ticks() -> int | None:
    """Clock ticks the hypervisor stole from this machine's CPUs so far."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def run_worker(args, mode: str, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON report."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # every process compiles the same sources: no bytecode cache state
    # carries over from one run to the next
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        done = subprocess.run(command + ["--started", repr(started)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} worker exceeded the time budget") \
            from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args, deadline: float) -> tuple[dict, dict, dict]:
    """The timed process with probe processes around it.  Returns the
    gated metrics, their wall-clock counterparts, and the run's counts."""
    # half the probes run before the timed process and half after, so
    # that the medians span the whole run and not one stretch of it
    probes = [run_worker(args, "probe", deadline)
              for _ in range(PROBES // 2)]
    main = run_worker(args, "run", deadline)
    probes += [run_worker(args, "probe", deadline)
               for _ in range(PROBES - PROBES // 2)]
    samples = probes + [main]
    if not main["ops_ms"]:
        raise BenchError("no op of the timed loop completed")
    wall_ms = [wall for wall, _ in main["ops_ms"]]
    cpu_ms = [cpu for _, cpu in main["ops_ms"]]

    def median_of(key):
        return statistics.median(sample[key] for sample in samples)

    metrics = {
        "ops_per_cpu_s": (main["loop_ok"] / main["loop_cpu_s"], "1/s"),
        "cpu_ms.p50": (percentile(cpu_ms, 50), "ms"),
        "cpu_ms.p90": (percentile(cpu_ms, 90), "ms"),
        "first_op_cpu_s": (median_of("first_cpu_s"), "s"),
        "setup_s": (median_of("setup_cpu_s"), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    wall = {
        "ops_per_s": (main["loop_ok"] / main["loop_wall_s"], "1/s"),
        "latency_ms.p50": (percentile(wall_ms, 50), "ms"),
        "latency_ms.p90": (percentile(wall_ms, 90), "ms"),
        "first_op_s": (median_of("first_wall_s"), "s"),
        "setup_wall_s": (median_of("setup_wall_s"), "s"),
    }
    # op 0 is the same computation in every process: its answers agree
    probe_failed = sum(1 for p in probes if p["first"] != main["first"])
    outcome = {
        "attempted": main["attempted"] + len(probes),
        "failed": main["failed"] + probe_failed,
        "samples": len(cpu_ms),
        "samples_above_p90": sum(1 for v in cpu_ms
                                 if v > metrics["cpu_ms.p90"][0]),
        "blas_threads": main["blas_threads"],
        "setup_cpu_s": [sample["setup_cpu_s"] for sample in samples],
        "first_op_cpu_s": [sample["first_cpu_s"] for sample in samples],
    }
    return metrics, wall, outcome


def traced(args, deadline: float) -> tuple[dict, dict, dict]:
    """One traced run: the per-layer metrics and the run's counts."""
    from tracing import UNITS

    main = run_worker(args, "trace", deadline)
    metrics = {name: (value, UNITS[name])
               for name, value in main["per_layer"].items()}
    outcome = {
        "attempted": main["attempted"],
        "failed": main["failed"],
        "samples": len(main["ops_ms"]),
        "first_op_s": main["first_wall_s"],
        "absent": main["absent"],
        "blas_threads": main["blas_threads"],
        "self_s": main["self_s"],
    }
    return metrics, {}, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    deadline = time.monotonic() + BUDGET_S
    steal_before = read_steal_ticks()
    try:
        metrics, wall, outcome = (traced if args.trace else untraced)(
            args, deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    steal_after = read_steal_ticks()

    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": outcome.pop("blas_threads"),
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        **outcome,
    }
    print(json.dumps({"run": env}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.4f} {unit}")
    for name, (value, unit) in wall.items():
        print(f"{args.workload:10s} {name:34s} {value:14.4f} {unit}"
              "  (wall clock; not gated)")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
