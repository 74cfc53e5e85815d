"""One benchmark process: set up a workload, run it, report as JSON.

``run.py`` starts this file with the thread pinning below already in the
environment; it is repeated here so that the pinning holds before numpy
is first imported even when the file is started by hand.  Modes:

``probe``
    set up and run op 0 only (``setup_s`` and ``first_op_s`` samples);
``run``
    set up, op 0, then the timed loop, untraced, and the output checks;
``trace``
    the same with the layer wrappers of ``tracing.py`` installed, ops run
    in pairs (one traced, one not, alternating which goes first) so that
    the tracing overhead is measured on identical work.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

#: thread pinning: BLAS/OpenMP pools of one thread each, so that at most
#: two rank threads (or one query thread) keep the cores busy
PINNED_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the timed loop runs at least this many ops, so that p90 has at least
#: ten samples above it, and stops at twice ``--seconds`` regardless
MIN_LOOP_OPS = 110


def blas_threads() -> int | None:
    """The thread count of the BLAS library numpy loaded (None if the
    library exposes no query)."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if ".so" in line and "blas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _attempt(fn, *args) -> tuple:
    """Run one op; returns its result (None if it raised) and its wall
    and CPU seconds.  An exception counts the op as failed."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = fn(*args)
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - wall, time.process_time() - cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"),
                        required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    args = parser.parse_args(argv)

    recorder = tracing.Recorder() if args.mode == "trace" else None
    if recorder is not None:
        recorder.install()
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    report = {
        "setup_wall_s": time.monotonic() - args.started,
        # process CPU time counts from the process's start
        "setup_cpu_s": time.process_time(),
    }
    if recorder is not None:
        recorder.op = 0
        with recorder.span("op"):
            first, first_wall, first_cpu = _attempt(workload.first_op)
        recorder.remove()
    else:
        first, first_wall, first_cpu = _attempt(workload.first_op)
    report.update({
        "first_wall_s": first_wall,
        "first_cpu_s": first_cpu,
        "first": None if first is None else workload.summary(first),
        "blas_threads": blas_threads(),
    })
    if args.mode == "probe":
        workload.close()
        print(json.dumps(report))
        return 0

    workload.prepare_loop()
    results = [(0, 0, first)]
    if args.mode == "run":
        loop = _loop(workload, args.seconds, results)
        report["peak_rss_mb"] = peak_rss_mb()
    else:
        loop, pairs = _traced_loop(workload, args.seconds, results,
                                   recorder)
        traced_ops = [op for op, _ in pairs]
        report["per_layer"] = tracing.layer_metrics(
            recorder.spans, 0, traced_ops, recorder.missing)
        report["per_layer"]["trace.overhead_pct"] = _overhead(pairs)
        report["absent"] = sorted(recorder.missing)
        report["self_s"] = tracing.self_times(recorder.spans)
        recorder.dump(
            HERE / "traces" / f"{args.workload}-seed{args.seed}.json")
    report.update(loop)

    completed = [(position, index, result)
                 for position, index, result in results if result is not None]
    wrong = set(workload.check(completed))
    workload.close()
    report.update({
        "attempted": len(results),
        "failed": len(results) - len(completed) + len(wrong),
        "loop_ok": sum(1 for position, _, result in results
                       if position > 0 and result is not None
                       and position not in wrong),
    })
    print(json.dumps(report))
    return 0


class _Timer:
    """Wall and CPU time of the loop, and of each op that completed."""

    def __init__(self):
        self.ops_ms: list[tuple[float, float]] = []
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def add(self, result, wall: float, cpu: float) -> None:
        if result is not None:
            self.ops_ms.append((wall * 1e3, cpu * 1e3))

    def report(self) -> dict:
        return {"ops_ms": self.ops_ms,
                "loop_wall_s": time.perf_counter() - self.wall,
                "loop_cpu_s": time.process_time() - self.cpu}


def _loop(workload, seconds: float, results: list) -> dict:
    """The timed closed loop: ops 1, 2, … until ``seconds`` have passed
    and at least :data:`MIN_LOOP_OPS` ops ran, or ``2 * seconds``."""
    timer = _Timer()
    deadline, hard_stop = timer.wall + seconds, timer.wall + 2 * seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline and i >= MIN_LOOP_OPS):
            break
        i += 1
        result, wall, cpu = _attempt(workload.op, i)
        results.append((i, i, result))
        timer.add(result, wall, cpu)
    return timer.report()


def _traced_loop(workload, seconds: float, results: list, recorder
                 ) -> tuple[dict, list]:
    """Ops in pairs on the same input: one untraced, one traced, the
    order alternating.  Times the traced ops; also returns per pair the
    traced op's position and its (traced, untraced) CPU seconds."""
    timer = _Timer()
    pairs = []
    deadline = timer.wall + seconds
    position = index = 0
    while time.perf_counter() < deadline:
        index += 1
        cpu_of = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            position += 1
            if traced:
                recorder.install()
                recorder.op = position
                with recorder.span("op"):
                    result, wall, cpu = _attempt(workload.op, index)
                recorder.remove()
                traced_position = position
                timer.add(result, wall, cpu)
            else:
                result, wall, cpu = _attempt(workload.op, index)
            results.append((position, index, result))
            cpu_of[traced] = cpu
        pairs.append((traced_position, (cpu_of[True], cpu_of[False])))
    return timer.report(), pairs


def _overhead(pairs: list) -> float:
    """Median over pairs of the traced op's extra CPU time, in percent."""
    ratios = [100.0 * (traced / untraced - 1.0)
              for _, (traced, untraced) in pairs if untraced > 0]
    return float(statistics.median(ratios)) if ratios else 0.0


if __name__ == "__main__":
    sys.exit(main())
