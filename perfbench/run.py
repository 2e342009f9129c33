"""Benchmark of dynwardrop: time to a solution, curve sizes and per-layer traces.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in its own
single-threaded process (``worker.py``), between ``SETUP_SAMPLES - 1`` processes
that only set up, so ``setup_s`` is a median over fresh interpreters.
``wall_s`` is the mean time of the calls made in ``--seconds``, and
``wall_norm_s`` the same rescaled to a host of reference speed, by timing a
fixed reference loop between the calls (see ``worker.reference_loop``).
``setup_s`` is rescaled the same way; ``setup_raw_s`` is not.  With
``--trace 0`` the last line of output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced call.
The exit code is 0 only when every output passed its correctness check.
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
WORKLOADS = ("corridor_wardrop", "commute_dtc_cli", "ladder_load")
SETUP_SAMPLES = 9
#: Each workload must end within this many seconds, its set-up processes included.
DEADLINE_S = 170.0

#: End-to-end metrics with their units.
END_TO_END = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "wall_s": "s",
    "wall_norm_s": "s",
    "host_ref_s": "s",
    "iterations": "count",
    "gap": "ratio",
    "last_gap": "ratio",
    "result_breakpoints": "count",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}
#: The ones in the JSON line.  ``iterations``, ``gap`` and ``last_gap`` do not
#: apply to ladder_load, and ``failed_frac`` reads 0 on a correct run (the
#: line's ``attempted`` and ``failed`` carry it).
JSON_END_TO_END = ("setup_s", "wall_norm_s", "result_breakpoints", "peak_rss_mb")


class RunFailed(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run ``worker.py`` in a fresh single-threaded interpreter; return its report."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: worker ran past the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Metrics of one workload (``{name: {value, unit}}``) and its check tallies."""
    def setup_only() -> dict:
        return worker(name, seed, seconds, 0, deadline, setup_only=True)

    # half the set-ups before the measuring process and half after, so that
    # their median spans the run instead of one moment of the host
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    report = worker(name, seed, seconds, trace, deadline)
    setups.append(report)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    if trace:
        report["metrics"] = report.get("layers", {})
        return report
    walls = report["walls"]
    outcome = report.get("outcome", {})
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "wall_s": statistics.fmean(walls) if walls else None,
        "wall_norm_s": report["wall_norm_s"],
        "host_ref_s": statistics.median(report["refs"]),
        "iterations": outcome.get("iterations"),
        "gap": outcome.get("gap"),
        "last_gap": outcome.get("last_gap"),
        "result_breakpoints": outcome.get("result_breakpoints"),
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_frac": report["failed"] / report["attempted"],
    }
    report["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    report["samples"] = (f"setup_s is the median of {len(setups)} set-ups, "
                         f"wall_s the mean of {len(walls)} timed calls")
    return report


def describe(name: str, seed: int, report: dict) -> None:
    print(f"{name} (seed {seed}): {report['why']}")
    for metric, m in report["metrics"].items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {metric:<38} {shown:>14} {m['unit']}")
    if "samples" in report:
        print(f"  {report['samples']}")
    env = report["env"]
    print(f"  nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, 1 thread")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "dynwardrop" / "__init__.py").is_file():
        print(f"no dynwardrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            reports[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            describe(name, args.seed, reports[name])
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, m in report["metrics"].items():
            if args.trace or metric in JSON_END_TO_END:
                metrics[prefix + metric] = m
    correct = all(not r["failures"] for r in reports.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
