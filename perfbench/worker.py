"""One workload in one process: set up, measure, check, and optionally trace.

Started by ``run.py``; prints one JSON object as its last line of output.  The
clock for ``setup_s`` starts before numpy and dynwardrop are imported.  Set-up
and call times are also reported rescaled to a host of reference speed (see
``reference_loop``).
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


#: Time of ``reference_loop`` on a host of reference speed.  ``wall_norm_s``
#: rescales every measured call to that speed.
REFERENCE_S = 0.1


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that does not touch dynwardrop.

    It mixes the engine's kinds of work: small numpy calls and float
    arithmetic inside a Python loop.  Timed between the measured calls, it
    follows the speed of a shared host (on a shared 2-core Xeon, speed drifted
    by up to 2x in phases of 10-60 s); the program's own changes cannot move it.
    """
    import numpy as np

    xs = np.linspace(0.0, 4.0, 64)
    ys = np.cumsum(np.linspace(0.1, 1.0, 64))
    acc, buckets = 0.0, {}
    start = time.perf_counter()
    for i in range(20000):
        h = (i % 97) * 0.04
        acc += float(np.interp(h, xs, ys)) + int(np.searchsorted(xs, h, side="right"))
        acc += float(np.maximum(ys[: 8 + i % 32], acc % 3.0).sum()) * 1e-6
        buckets[i % 53] = buckets.get(i % 53, 0.0) + h
    return time.perf_counter() - start


def measure(workload, seconds: float, report: dict) -> tuple[list[float], list[float], object]:
    """Repeat the measured call until another one would pass ``seconds``.

    Every result is checked outside the timed region.  Returns the wall time
    of each call, the time of the reference loop before the first call and
    after each call, and the last result.
    """
    walls: list[float] = []
    refs = [reference_loop()]
    began = time.perf_counter()
    while True:
        result = None  # so that one result at a time is alive, whatever the repeats
        start = time.perf_counter()
        try:
            result = workload.run(len(walls))
        except Exception:
            traceback.print_exc()
            report["attempted"] += 1
            report["failed"] += 1
            report["failures"].append("measured call raised")
            return walls, refs, None
        walls.append(time.perf_counter() - start)
        refs.append(reference_loop())
        check(workload, workload.check, result, report)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(walls) + refs[-1] > seconds:
            return walls, refs, result


def check(workload, check_fn, result, report: dict, count: bool = True) -> None:
    """Run one correctness check on a result."""
    try:
        fails = check_fn(result)
    except Exception:
        traceback.print_exc()
        fails = ["correctness check raised"]
    if count:
        report["attempted"] += 1
    if fails:
        report["failed"] += 1
        report["failures"].extend(fails)


def traced_call(workload, report: dict) -> dict:
    """One untraced and one traced call; returns the per-layer metrics with units."""
    from tracer import LAYER_METRICS, Tracer

    untraced_walls, _, result = measure(workload, 0.0, report)
    if result is None:
        return {}
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = workload.run(0)  # the call that was timed untraced
        traced_wall = time.perf_counter() - start
    finally:
        tracer.restore()
    check(workload, workload.check, result, report)
    layers = tracer.metrics(traced_wall, untraced_walls[0])

    fails = tracer.binding_failures() + tracer.restore_failures()
    if abs(tracer.spanned_s - sum(tracer.self_s.values())) > 1e-9 * max(1.0, traced_wall):
        fails.append("layer self times do not add up to the spanned time")
    if layers["trace.unattributed_s"] < 0.0:
        fails.append("spans outlast the traced call")
    loads = layers["network.load.calls"]
    if workload.name == "corridor_wardrop":
        iterations = workload.outcome(result)["iterations"]
        if not loads == iterations == layers["equilibrium.induced_flows.calls"]:
            fails.append(f"load calls {loads}, iterations {iterations}, induced_flows calls "
                         f"{layers['equilibrium.induced_flows.calls']} differ")
    if workload.name == "commute_dtc_cli":
        iterations = workload.outcome(result)["iterations"]
        if loads != iterations + 1:
            fails.append(f"load calls {loads} != iterations {iterations} + 1")
    report["failures"].extend(fails)
    return {
        name: {"value": value, "unit": LAYER_METRICS[name]} for name, value in layers.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import workloads

    root = Path(__file__).resolve().parent.parent
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        workload.warm_up()
        setup_raw = time.perf_counter() - SETUP_START
        # rescaled to the reference host speed by one reference loop right after
        report = {"setup_s": REFERENCE_S * setup_raw / reference_loop(), "setup_raw_s": setup_raw}
        if args.setup_only:
            print(json.dumps(report))
            return 0
        report.update(attempted=0, failed=0, failures=[], why=workload.why, env={
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        })
        if args.trace:
            report["layers"] = traced_call(workload, report)
            print(json.dumps(report))
            return 0
        walls, refs, result = measure(workload, args.seconds, report)
        # each call is rescaled by the mean of the reference loops on either side of it
        ref_per_call = [(before + after) / 2.0 for before, after in zip(refs, refs[1:])]
        report.update(walls=walls, refs=refs, wall_norm_s=(
            REFERENCE_S * sum(walls) / sum(ref_per_call) if walls else None
        ))
        # ru_maxrss is in KiB on Linux; read before the oracle check allocates
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if result is not None:
            check(workload, workload.final_check, result, report, count=False)
            report["outcome"] = workload.outcome(result)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
