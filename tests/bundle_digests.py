"""One SHA-256 digest per network load, over every bundle array and route
arrival curve, and one per solver state.

Run it on two checkouts and diff the output to see which loads and solves a
change moves, bit for bit:

    PYTHONPATH=src python3 tests/bundle_digests.py > digests.txt

The loads are the benchmark's 24 ladders at 5 and at 8 stages (the
``ladder_load`` instances of ``perfbench/workloads.py``), the acceptance
fixtures without a frontier step, at t_min* and at t_min*/2, the rotary, the
spur, ladder fixtures 2, 3 and 5, the 40 jittered ladders (seeds 0-9,
m 0-3), and the four one-arc loads that pin the volume-delay FIFO contract
(``fifo_contract_fixtures``; a load that raises ``FifoViolation`` prints
the digest of its message).  The solves are the departure- and route-choice instances of the
loop-reference bit tests in ``tests/test_equilibrium.py`` and the seed-0
``corridor_wardrop`` and ``commute_dtc_cli`` benchmark solves.  pytest does
not collect this file.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

from dynwardrop.equilibrium import solve_departure_choice, solve_wardrop  # noqa: E402
from dynwardrop.errors import FifoViolation  # noqa: E402
from dynwardrop.flows import Horizon  # noqa: E402
from dynwardrop.network import load, route_times  # noqa: E402
from fixtures import (  # noqa: E402
    acceptance_fixtures,
    fifo_contract_fixtures,
    jittered_ladder_fixture,
    ladder_fixture,
    rotary_fixture,
    spur_fixture,
)
from perfbench.workloads import (  # noqa: E402
    LADDER_PULSES,
    CommuteDtcCli,
    CorridorWardrop,
    ladder_instance,
)
from test_equilibrium import DEPARTURE_INSTANCES, ROUTE_INSTANCES  # noqa: E402


class _Digest:
    """SHA-256 over arrays fed in a fixed order, each prefixed by its size."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            self.sha.update(str(a.size).encode())
            self.sha.update(a.tobytes())

    def add_flow(self, f) -> None:
        self.add(f.times, f.cums, f.atoms, f.slopes)

    def add_map(self, c) -> None:
        self.add(c.xs, c.ys, [c.lo_slope, c.hi_slope])


def bundle_digest(network, bundle, times) -> str:
    """SHA-256 over the bundle's inflows, totals and exit profiles, and the
    route arrival curves, in a fixed order."""
    d = _Digest()
    for aid in network.arcs:
        for rid in sorted(bundle.inflows[aid]):
            d.add_flow(bundle.inflows[aid][rid])
        d.add_flow(bundle.totals[aid])
        d.add_map(bundle.profiles[aid].curve)
        d.add_flow(bundle.profiles[aid].outflow)
    for rid in network.routes:
        d.add_map(times.arrivals[rid])
    return d.sha.hexdigest()


def state_digest(state) -> str:
    """SHA-256 over a solver state: gap trace, gap, convergence, margin
    error, splits with their keys, route flows and route arrival curves."""
    d = _Digest()
    d.add(state.gap_trace, [state.gap, state.converged, state.max_margin_error])
    for key, split in state.splits.items():
        d.sha.update(repr(key).encode())
        d.add(split)
    for flow in state.flows.values():
        d.add_flow(flow)
    for arrival in state.times.arrivals.values():
        d.add_map(arrival)
    return d.sha.hexdigest()


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
    for fx in fifo_contract_fixtures():
        yield fx.name, fx.network, fx.flows, fx.horizon.end, None


def _named(instances):
    """(name, factory) of each test parameter: a factory or a ``pytest.param``."""
    for p in instances:
        yield (p.id, p.values[0]) if hasattr(p, "values") else (p.__name__, p)


def solves():
    """(name, solver state) of every solve."""
    for name, build in _named(DEPARTURE_INSTANCES):
        yield f"solve_departure_{name.lstrip('_')}", solve_departure_choice(*build())
    for name, build in _named(ROUTE_INSTANCES):
        yield f"solve_route_{name.lstrip('_')}", solve_wardrop(*build())
    with tempfile.TemporaryDirectory() as work:
        yield "solve_corridor_wardrop", CorridorWardrop(0, Path(work)).run(0)
        code, _, state = CommuteDtcCli(0, Path(work)).run(0)
        assert code == 0, f"solve-dtc on commute exited {code}"
        yield "solve_commute_dtc_cli", state


def main() -> int:
    for name, net, x, end, step in loads():
        try:
            bundle = load(net, x, frontier_step=step)
        except FifoViolation as exc:
            print(name, hashlib.sha256(str(exc).encode()).hexdigest(), flush=True)
            continue
        print(name, bundle_digest(net, bundle, route_times(net, bundle, Horizon(end))), flush=True)
    for name, state in solves():
        print(name, state_digest(state), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
