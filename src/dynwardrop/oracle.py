"""Brute-force validators on uniform time grids.

These deliberately use a different algorithm family from the exact loaders:
everything is sampled on a uniform grid and propagated by forward stepping,
so agreement with the event-driven solvers is evidence rather than tautology.
They are meant for small instances and for generating reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .arcs import ArcPerformanceModel, BottleneckModel, ConstantModel
from .errors import InstanceTooLarge
from .flows import CumulativeFlow
from .network import ArcFlowBundle, Network, RouteFlowPattern, load, route_times

if TYPE_CHECKING:
    from .equilibrium import DemandTable


@dataclass(frozen=True)
class GridConfig:
    """Uniform grid used by the brute-force loaders."""

    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("grid step must be positive")

    def validate_for(self, network: Network) -> None:
        limit = network.t_min_star / 8.0
        if self.step > limit + 1e-15:
            raise ValueError(
                f"grid step {self.step} too coarse; needs <= {limit} for this network"
            )


@dataclass(frozen=True)
class GridBundle:
    """Grid-sampled counterpart of an arc flow bundle."""

    grid: np.ndarray
    inflows: dict[str, dict[str, np.ndarray]]
    totals: dict[str, np.ndarray]
    outflows: dict[str, dict[str, np.ndarray]]


def _arc_exit_samples(model, grid: np.ndarray, a_cum: np.ndarray) -> np.ndarray:
    """Exit times per grid point under forward stepping; nondecreasing."""
    n = grid.size
    step = grid[1] - grid[0]
    if isinstance(model, ConstantModel):
        return grid + model.free_flow_time
    if isinstance(model, BottleneckModel):
        c, cap = model.free_flow_time, model.capacity
        arr = np.interp(grid - c, grid, a_cum, left=0.0)  # arrivals at server
        served = np.zeros(n)
        for j in range(1, n):
            served[j] = min(arr[j], served[j - 1] + cap * step)
        # exit time of the entrant at grid[i]: first instant served >= a_cum[i]
        exits = grid[np.minimum(np.searchsorted(served, a_cum, side="left"), n - 1)]
        return np.maximum.accumulate(np.maximum(exits, grid + c))
    if isinstance(model, ArcPerformanceModel):
        dmap = model._delay_map()
        exits = np.empty(n)
        j = 0
        for i in range(n):
            # served mass: entrants whose exit time lies at or before grid[i]
            while j < i and exits[j] <= grid[i]:
                j += 1
            served = a_cum[j - 1] if j > 0 else 0.0
            vol = max(0.0, a_cum[i] - served)
            exits[i] = grid[i] + dmap.value(vol)
        return np.maximum.accumulate(exits)
    raise TypeError(f"unsupported model {type(model).__name__}")


def _propagate(grid: np.ndarray, cum_in: np.ndarray, exits: np.ndarray) -> np.ndarray:
    """Cumulative outflow samples: mass whose exit time has passed."""
    idx = np.searchsorted(exits, grid, side="right") - 1
    out = np.where(idx >= 0, cum_in[np.maximum(idx, 0)], 0.0)
    return np.maximum.accumulate(out)


def oracle_load(network: Network, route_flows: RouteFlowPattern, grid: GridConfig) -> GridBundle:
    """Forward-stepped network loading on a uniform grid."""
    grid.validate_for(network)
    x = {r: route_flows.get(r, CumulativeFlow.zero()) for r in network.routes}
    total_mass = sum(f.total for f in x.values())
    h_end = max((f.times[-1] for f in x.values() if not f.is_zero), default=0.0)
    t_end = h_end + network.passage_bound(total_mass) + 1.0
    ts = np.arange(0.0, t_end + grid.step, grid.step)

    order = network.loading_order
    if order is None:
        raise InstanceTooLarge(
            "grid loader needs acyclically shared arcs; the routes' arc precedence has a cycle"
        )
    inflows: dict[str, dict[str, np.ndarray]] = {aid: {} for aid in network.arcs}
    outflows: dict[str, dict[str, np.ndarray]] = {aid: {} for aid in network.arcs}
    for rid, arc_ids in network.routes.items():
        inflows[arc_ids[0]][rid] = x[rid].values(ts)
    totals: dict[str, np.ndarray] = {}
    # upstream contributions are complete before an arc is served
    for aid in order:
        crossing = network.crossings[aid]
        if not crossing:
            totals[aid] = np.zeros_like(ts)
            continue
        a_cum = np.sum([inflows[aid][r] for r in crossing], axis=0)
        totals[aid] = a_cum
        exits = _arc_exit_samples(network.arcs[aid].model, ts, a_cum)
        for r, nxt in crossing.items():
            out = _propagate(ts, inflows[aid][r], exits)
            outflows[aid][r] = out
            if nxt is not None:
                inflows[nxt][r] = out
    return GridBundle(ts, inflows, totals, outflows)


def compare_to_exact(network: Network, bundle: ArcFlowBundle, gridded: GridBundle) -> float:
    """Largest gap between grid-sampled and exact arc cumulative curves.

    Covers both the inflow and the outflow side of every arc.
    """
    worst = 0.0
    for aid in network.arcs:
        pairs = [(bundle.total(aid), gridded.totals[aid])]
        grid_out = gridded.outflows[aid]
        if grid_out:
            pairs.append(
                (bundle.outflow_total(aid), np.sum(list(grid_out.values()), axis=0))
            )
        for exact, approx in pairs:
            worst = max(worst, float(np.max(np.abs(exact.values(gridded.grid) - approx))))
    return worst


def oracle_equilibrium(
    network: Network,
    demand: "DemandTable",
    grid: GridConfig,
    iterations: int,
    bins: int = 64,
) -> tuple[RouteFlowPattern, float]:
    """Damped best response on uniform departure bins, timed by the grid loader,
    with the vanishing step 1/(iteration+1).

    Returns the flow pattern and its equilibrium gap as measured by the exact
    machinery (the pattern itself is derived with grid arithmetic only).

    Raises:
        InstanceTooLarge: more than 4 routes or 6 arcs.
    """
    from .equilibrium import wardrop_gap  # local import: equilibrium is a heavier module

    if len(network.routes) > 4 or len(network.arcs) > 6:
        raise InstanceTooLarge("reference solver accepts <= 4 routes and <= 6 arcs")
    grid.validate_for(network)
    horizon = demand.horizon
    edges = np.linspace(0.0, horizon.end, bins + 1)
    ods = list(demand.rates)
    route_sets = {od: network.routes_between(*od) for od in ods}
    bin_mass = {
        od: np.array([demand.rates[od].mass_between(a, b) for a, b in zip(edges[:-1], edges[1:])])
        for od in ods
    }
    # share[od][route index, bin]
    share = {
        od: np.full((len(route_sets[od]), bins), 1.0 / max(len(route_sets[od]), 1))
        for od in ods
    }

    def flows_from_shares() -> RouteFlowPattern:
        pattern: RouteFlowPattern = {r: CumulativeFlow.zero() for r in network.routes}
        for od in ods:
            for rid, row in zip(route_sets[od], share[od]):
                pattern[rid] = CumulativeFlow.from_bins(edges, row * bin_mass[od])
        return pattern

    for it in range(iterations):
        pattern = flows_from_shares()
        gridded = oracle_load(network, pattern, grid)
        for od in ods:
            rset = route_sets[od]
            if len(rset) <= 1:
                continue
            # grid travel times per route at bin midpoints
            times = np.empty((len(rset), bins))
            for k, rid in enumerate(rset):
                arr = gridded.grid.astype(float).copy()
                for aid in network.routes[rid]:
                    exits = _arc_exit_samples(
                        network.arcs[aid].model, gridded.grid, gridded.totals[aid]
                    )
                    arr = np.interp(arr, gridded.grid, exits)
                tt = arr - gridded.grid
                mids = (edges[:-1] + edges[1:]) / 2
                times[k] = np.interp(mids, gridded.grid, tt)
            tied = times <= times.min(axis=0) + 1e-12 * (1.0 + np.abs(times.min(axis=0)))
            target = tied / tied.sum(axis=0)
            step = 1.0 / (it + 2)
            share[od] = (1 - step) * share[od] + step * target
    pattern = flows_from_shares()
    bundle = load(network, pattern)
    tp = route_times(network, bundle, horizon)
    gap = wardrop_gap(network, pattern, tp)
    return pattern, gap
