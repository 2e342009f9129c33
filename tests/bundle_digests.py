"""One SHA-256 digest per network load, over every bundle array and route
arrival curve.

Run it on two checkouts and diff the output to see which loads a change
moves, bit for bit:

    PYTHONPATH=src python3 tests/bundle_digests.py > digests.txt

The loads are the benchmark's 24 ladders at 5 and at 8 stages (the
``ladder_load`` instances of ``perfbench/workloads.py``), the acceptance
fixtures without a frontier step, at t_min* and at t_min*/2, the rotary, the
spur, ladder fixtures 2, 3 and 5, and the 40 jittered ladders (seeds 0-9,
m 0-3).  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

from dynwardrop.flows import Horizon  # noqa: E402
from dynwardrop.network import load, route_times  # noqa: E402
from fixtures import (  # noqa: E402
    acceptance_fixtures,
    jittered_ladder_fixture,
    ladder_fixture,
    rotary_fixture,
    spur_fixture,
)
from perfbench.workloads import LADDER_PULSES, ladder_instance  # noqa: E402


def bundle_digest(network, bundle, times) -> str:
    """SHA-256 over the bundle's inflows, totals and exit profiles, and the
    route arrival curves, in a fixed order."""
    h = hashlib.sha256()

    def add(*arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            h.update(str(a.size).encode())
            h.update(a.tobytes())

    def add_flow(f) -> None:
        add(f.times, f.cums, f.atoms, f.slopes)

    def add_map(c) -> None:
        add(c.xs, c.ys, [c.lo_slope, c.hi_slope])

    for aid in network.arcs:
        for rid in sorted(bundle.inflows[aid]):
            add_flow(bundle.inflows[aid][rid])
        add_flow(bundle.totals[aid])
        add_map(bundle.profiles[aid].curve)
        add_flow(bundle.profiles[aid].outflow)
    for rid in network.routes:
        add_map(times.arrivals[rid])
    return h.hexdigest()


def loads():
    """(name, network, route flows, horizon, frontier step) of every load."""
    for stages in (5, 8):
        for a in itertools.permutations(range(len(LADDER_PULSES))):
            net, x = ladder_instance(a, stages)
            yield f"bench_ladder_{stages}_{''.join(map(str, a))}", net, x, 4.0, None
    for fx in acceptance_fixtures():
        tstar = fx.network.t_min_star
        for tag, step in (("exact", None), ("tstar", tstar), ("half", tstar / 2)):
            yield f"fixture_{fx.name}_{tag}", fx.network, fx.flows, fx.horizon.end, step
    rotary = rotary_fixture()
    for tag, step in (("exact", None), ("half", rotary.network.t_min_star / 2)):
        yield f"rotary_{tag}", rotary.network, rotary.flows, rotary.horizon.end, step
    for fx in [spur_fixture()] + [ladder_fixture(s) for s in (2, 3, 5)]:
        yield fx.name, fx.network, fx.flows, fx.horizon.end, None
    for seed in range(10):
        for m in range(4):
            fx = jittered_ladder_fixture(seed, m)
            yield fx.name, fx.network, fx.flows, fx.horizon.end, None


def main() -> int:
    for name, net, x, end, step in loads():
        bundle = load(net, x, frontier_step=step)
        print(name, bundle_digest(net, bundle, route_times(net, bundle, Horizon(end))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
