"""Fast checks of the benchmark's own rules, on shortened instances.

    python3 perfbench/selftest.py

* seed 0 reproduces the acceptance corridor and ``demos/scenarios/commute.scn``
  byte for byte, and a seed always generates the same inputs;
* a seed orders all 24 ladders, always the same way;
* the tracer wraps every binding it must, the call counts obey the identities
  of a solve, and every patched attribute is the original object afterwards.

Traced runs of ``run.py`` apply the same tracer checks at full size.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.restore()
    missing = tracer.binding_failures()
    expect(not missing, "every required binding wrapped" + (f": {missing}" if missing else ""))
    expect(not tracer.restore_failures(), "every patched attribute restored")
    return tracer, result


def main() -> int:
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        commute = workloads.CommuteDtcCli(0, work)
        demo = (ROOT / "demos" / "scenarios" / "commute.scn").read_text()
        expect(commute.text == demo, "seed 0 writes demos/scenarios/commute.scn byte for byte")
        expect(workloads.CommuteDtcCli(7, work).text == workloads.CommuteDtcCli(7, work).text,
               "a seed always generates the same scenario")

        corridor = workloads.CorridorWardrop(0, work)
        arcs = corridor.network.arcs
        q = corridor.demand.rates[("A", "B")]
        expect(
            arcs["fast"].model.free_flow_time == 1.0
            and (arcs["jam"].model.free_flow_time, arcs["jam"].model.capacity) == (0.5, 1.0)
            and q.times.tolist() == [0.0, 1.0] and q.slopes.tolist() == [2.0, 0.0]
            and corridor.demand.horizon.end == 4.0
            and (corridor.config.bin_width * 128, corridor.config.max_iters,
                 corridor.config.tolerance) == (4.0, 400, 1e-4),
            "seed 0 is the acceptance corridor",
        )
        other = workloads.CorridorWardrop(3, work).network.arcs["jam"].model.capacity
        expect(other != 1.0 and abs(other - 1.0) <= workloads.JITTER,
               "other seeds perturb within the stated range")

        corridor.config = replace(corridor.config, max_iters=3)
        tracer, state = traced(lambda: corridor.run(0))
        expect(tracer.calls["network.load"] == state.iterations == tracer.calls["equilibrium.induced_flows"],
               "corridor: load calls == iterations == induced_flows calls")

        tracer, (code, out, state) = traced(lambda: commute._solve_dtc("--max-iters", "3") + (None,))
        expect(code == 0 and tracer.calls["network.load"] == 3 + 1,
               "commute: load calls == iterations + 1")
        expect(tracer.counts["scenario.bytes_written"] > 0, "commute: written bytes counted")

        ladder = workloads.LadderLoad(0, work)
        expect(sorted(ladder.assignments) == sorted(workloads.LadderLoad(4, work).assignments)
               and len(set(ladder.assignments)) == 24
               and ladder.assignments != workloads.LadderLoad(4, work).assignments
               and workloads.LadderLoad(4, work).assignments == workloads.LadderLoad(4, work).assignments,
               "a seed orders all 24 ladders, always the same way")
        tracer, _ = traced(ladder.warm_up)
        expect(tracer.calls["network.flowing"] > 0 and tracer.calls["curves.compose_after"] > 0,
               "ladder: flowing and compose_after traced")
    finally:
        shutil.rmtree(work)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
