"""Network loading: propagate route inflows into per-arc flows and times.

The loader runs the construction of the existence proof: a frontier advances
in steps of the network's smallest arc travel-time floor, and since no arc can
be traversed faster than that floor, every outflow is settled behind it.  When
the routes order the arcs acyclically (an arc precedes the arc a route enters
next), one pass in that order with an infinite frontier settles them all.  The
result is the fixed point, the same bits at any step on acyclic networks: a
bundle that satisfies the per-arc exit-flow equations at the solvers' exact
piecewise-linear resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .arcs import ArcModel, ExitProfile
from .curves import ExitTimeCurve, PiecewiseLinearMap, sorted_set
from .errors import FifoViolation, NonTermination, ValidationError
from .flows import CumulativeFlow, Horizon, sum_flows

#: route id -> route inflow measure
RouteFlowPattern = dict[str, CumulativeFlow]


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    model: ArcModel


@dataclass(frozen=True)
class Network:
    """Directed graph with arc models and a fixed set of simple-path routes."""

    arcs: Mapping[str, Arc]
    routes: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "arcs", dict(self.arcs))
        object.__setattr__(self, "routes", {r: tuple(a) for r, a in self.routes.items()})
        for rid, arc_ids in self.routes.items():
            if not arc_ids:
                raise ValidationError(f"route {rid!r} is empty")
            if len(set(arc_ids)) != len(arc_ids):
                raise ValidationError(f"route {rid!r} repeats an arc")
            for aid in arc_ids:
                if aid not in self.arcs:
                    raise ValidationError(f"route {rid!r} references unknown arc {aid!r}")
            for prev, nxt in zip(arc_ids[:-1], arc_ids[1:]):
                if self.arcs[prev].head != self.arcs[nxt].tail:
                    raise ValidationError(
                        f"route {rid!r} is not connected at {prev!r} -> {nxt!r}"
                    )

    def od_of_route(self, route_id: str) -> tuple[str, str]:
        arc_ids = self.routes[route_id]
        return self.arcs[arc_ids[0]].tail, self.arcs[arc_ids[-1]].head

    def routes_between(self, origin: str, destination: str) -> list[str]:
        return sorted(
            r for r in self.routes if self.od_of_route(r) == (origin, destination)
        )

    @cached_property
    def crossings(self) -> dict[str, dict[str, str | None]]:
        """Per arc, the routes crossing it in route order, each mapped to the
        arc it enters next (None where the route ends)."""
        out: dict[str, dict[str, str | None]] = {aid: {} for aid in self.arcs}
        for rid, arc_ids in self.routes.items():
            for aid, nxt in zip(arc_ids, arc_ids[1:] + (None,)):
                out[aid][rid] = nxt
        return out

    @cached_property
    def loading_order(self) -> tuple[str, ...] | None:
        """Every arc after the arcs that precede it on some route, or None when
        the routes' arc precedence has a cycle."""
        successors: dict[str, dict[str, None]] = {aid: {} for aid in self.arcs}
        for arc_ids in self.routes.values():
            for prev, nxt in zip(arc_ids[:-1], arc_ids[1:]):
                successors[prev][nxt] = None
        indegree = dict.fromkeys(self.arcs, 0)
        for nexts in successors.values():
            for nxt in nexts:
                indegree[nxt] += 1
        order = [aid for aid, n in indegree.items() if n == 0]
        for aid in order:  # grows while it is read: Kahn's algorithm
            for nxt in successors[aid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    order.append(nxt)
        return tuple(order) if len(order) == len(self.arcs) else None

    @property
    def t_min_star(self) -> float:
        """Smallest travel-time floor over all arcs."""
        return min(arc.model.t_min for arc in self.arcs.values())

    def passage_bound(self, total_mass: float) -> float:
        """Upper bound on the time any user can still be travelling."""
        tau = max(arc.model.t_max(total_mass) for arc in self.arcs.values())
        longest = max(len(a) for a in self.routes.values()) if self.routes else 0
        return longest * tau


@dataclass(frozen=True)
class ArcFlowBundle:
    """Per-arc, per-route inflow measures plus cached totals and exit data."""

    inflows: dict[str, dict[str, CumulativeFlow]]
    totals: dict[str, CumulativeFlow]
    profiles: dict[str, ExitProfile]

    def inflow(self, arc_id: str, route_id: str) -> CumulativeFlow:
        return self.inflows[arc_id].get(route_id, CumulativeFlow.zero())

    def total(self, arc_id: str) -> CumulativeFlow:
        return self.totals[arc_id]

    def outflow_total(self, arc_id: str) -> CumulativeFlow:
        return self.profiles[arc_id].outflow


def _route_share(route_flow: CumulativeFlow, total_flow: CumulativeFlow) -> tuple[np.ndarray, np.ndarray]:
    """The route's cumulative mass as a function of the total cumulative mass.

    Returns piecewise-linear vertices (total mass m, route mass c); inside a
    shared point mass the split is proportional.
    """
    ts = sorted_set(np.concatenate([route_flow.times, total_flow.times]))
    # left limit, then value, at every instant
    m_all = np.column_stack(total_flow.limits(ts)).ravel()
    c_all = np.column_stack(route_flow.limits(ts)).ravel()
    # a vertex opens where the total passes 0 and every earlier total; its
    # route mass is the largest read before the next vertex opens
    opens = np.flatnonzero(m_all > np.maximum.accumulate(np.append(0.0, m_all[:-1])))
    cs = np.maximum.reduceat(np.append(0.0, c_all), np.append(0, opens + 1))
    return np.append(0.0, m_all[opens]), cs


def flowing(
    model: ArcModel, inflows_by_route: Mapping[str, CumulativeFlow]
) -> tuple[dict[str, CumulativeFlow], ExitProfile, CumulativeFlow]:
    """Per-route outflows of one arc, given its per-route inflows, the arc's
    exit profile under their total, and that total.

    The total outflow is the image of the total inflow under the arc's exit
    behaviour; each route receives the share it holds among the entrants, in
    first-in-first-out mass order (proportional inside shared point masses).
    Mass is conserved per route.
    """
    live = {r: f for r, f in inflows_by_route.items() if not f.is_zero}
    total = sum_flows(list(live.values()))
    profile = model.exit_profile(total)
    exit_total = profile.outflow
    out: dict[str, CumulativeFlow] = {}
    if len(live) <= 1:
        for r in inflows_by_route:
            out[r] = exit_total if r in live else CumulativeFlow.zero()
        return out, profile, total
    for r, f in inflows_by_route.items():
        if f.is_zero:
            out[r] = CumulativeFlow.zero()
            continue
        ms, cs = _route_share(f, total)
        # compose the share with the exit totals: vertices wherever the exit
        # curve has one, plus preimages of the share's vertices
        taus = np.concatenate([exit_total.times, _mass_preimages(exit_total, ms)])
        taus_a = sorted_set(taus[np.isfinite(taus)])
        # route mass as a function of total mass, flat beyond both ends
        share = PiecewiseLinearMap(ms, cs, 0.0, 0.0)
        out[r] = CumulativeFlow.from_vertices(taus_a, *share.values(exit_total.limits(taus_a)))
    return out, profile, total


def _mass_preimages(flow: CumulativeFlow, m: np.ndarray) -> np.ndarray:
    """Earliest time the cumulative curve reaches each mass level of m."""
    if flow.is_zero:
        return np.full(m.shape, np.nan)
    times, cums = flow.times, flow.cums
    j = np.searchsorted(cums, m, side="left")
    i = np.minimum(np.maximum(j, 1), times.size - 1)
    slope = flow.slopes[i - 1]
    with np.errstate(all="ignore"):
        rising = times[i - 1] + (m - cums[i - 1]) / slope
    # m is reached at times[i] when an atom there lifts the curve past it
    at_vertex = (cums[i] - flow.atoms[i] <= m) | (slope == 0.0)
    inside = np.where(at_vertex, times[i], rising)
    # a level at or below the first vertex's mass (0 included) is reached there
    return np.where(m >= flow.total, times[-1], np.where(j == 0, times[0], inside))


def load(
    network: Network,
    route_flows: Mapping[str, CumulativeFlow],
    frontier_step: float | None = None,
) -> ArcFlowBundle:
    """Propagate route inflows through the network until all mass has exited.

    Each pass serves every arc once, in ``Network.loading_order`` when it
    exists and in declaration order otherwise: one ``flowing`` call where some
    route goes on, the total's exit profile alone where every route ends.  It
    hands each route's outflow to the route's next arc, truncated at a
    frontier that advances by ``frontier_step`` (default: the network's
    smallest travel-time floor) per pass.  A pass reads the inflows handed on
    earlier in the same pass, not the previous pass's: those are settled up
    to the frontier all the same, so the loop stays causal and reaches the
    same fixed point.  It stops once a pass changes no handed-on inflow and
    every route's mass has reached its last arc.

    Without a frontier step on acyclic precedence, the frontier is infinite:
    each arc's inflow is final when it is served, and one pass loads it all.

    Raises:
        ValueError: ``frontier_step`` is not positive.
        NonTermination: the frontier exceeded the passage-time budget, which
            indicates an arc model without a finite passage envelope.
        FifoViolation, NonTermination: from serving an arc; the message
            starts with ``arc <id>: ``.
    """
    x = {r: route_flows.get(r, CumulativeFlow.zero()) for r in network.routes}
    order = network.loading_order
    if frontier_step is None and order is not None:
        step = budget = math.inf
    else:
        step = network.t_min_star if frontier_step is None else float(frontier_step)
        if step <= 0:
            raise ValueError("frontier step must be positive")
        total_mass = sum(f.total for f in x.values())
        horizon_end = max((f.times[-1] for f in x.values() if not f.is_zero), default=0.0)
        budget = horizon_end + network.passage_bound(total_mass) + 1.0 + step
        tiny = 1e-12 * (1.0 + total_mass)
    crossings = network.crossings
    inflows = {
        aid: dict.fromkeys(routes, CumulativeFlow.zero()) for aid, routes in crossings.items()
    }
    totals = dict.fromkeys(network.arcs)
    profiles = dict.fromkeys(network.arcs)

    def hand_on(flow: CumulativeFlow, aid: str, rid: str) -> None:
        """Make the flow, truncated at the frontier, the route's inflow to the arc."""
        nonlocal settled
        if frontier < math.inf:  # the restriction at infinity is the flow itself
            flow = flow.restrict(frontier)
        settled = settled and flow == inflows[aid][rid]
        inflows[aid][rid] = flow

    frontier = 0.0
    while frontier <= budget:
        frontier += step
        settled = True  # no inflow handed on in this pass has changed
        for rid, arc_ids in network.routes.items():
            hand_on(x[rid], arc_ids[0], rid)
        for aid in order or network.arcs:
            model = network.arcs[aid].model
            try:
                if all(nxt is None for nxt in crossings[aid].values()):
                    # nothing reads the outflow here, so it is not built
                    # unless someone asks the bundle for it
                    totals[aid] = sum_flows(list(inflows[aid].values()))
                    profiles[aid] = model.exit_profile(totals[aid])
                    continue
                outflows, profiles[aid], totals[aid] = flowing(model, inflows[aid])
            except (FifoViolation, NonTermination) as exc:
                raise type(exc)(f"arc {aid}: {exc}") from exc
            for rid, nxt in crossings[aid].items():
                if nxt is not None:
                    hand_on(outflows[rid], nxt, rid)
        # a settled pass ends the loop only once all mass has arrived: curves
        # can stall for a while between separated inflow pulses
        if frontier == math.inf or settled and all(
            inflows[arc_ids[-1]][rid].total >= x[rid].total - tiny
            for rid, arc_ids in network.routes.items()
        ):
            return ArcFlowBundle(inflows, totals, profiles)
    raise NonTermination(
        f"loading frontier passed its budget of {budget:.3g}; "
        "an arc is holding mass beyond its finiteness envelope"
    )


@dataclass(frozen=True)
class TravelTimePattern:
    """Per-route arrival curves over the study period; travel time is arrival - departure."""

    arrivals: dict[str, ExitTimeCurve]
    horizon: Horizon

    def travel_time(self, route_id: str, h: float) -> float:
        return self.arrivals[route_id].travel_time(h)

    def mean_travel_time(self, route_id: str, lo: float, hi: float) -> float:
        """Exact time-average of the route's travel time over [lo, hi]."""
        if hi <= lo:
            return self.travel_time(route_id, lo)
        area = self.arrivals[route_id].integrate(lo, hi)
        return (area - 0.5 * (hi * hi - lo * lo)) / (hi - lo)


def route_times(network: Network, bundle: ArcFlowBundle, horizon: Horizon) -> TravelTimePattern:
    """Compose each route's arc exit curves into an arrival curve on the horizon."""
    arrivals: dict[str, ExitTimeCurve] = {}
    for rid, arc_ids in network.routes.items():
        comp = bundle.profiles[arc_ids[0]].curve
        for aid in arc_ids[1:]:
            comp = bundle.profiles[aid].curve.compose_after(comp)
        arrivals[rid] = comp
    return TravelTimePattern(arrivals, horizon)


def route_time_by_recursion(
    network: Network, bundle: ArcFlowBundle, route_id: str, h: float
) -> float:
    """Route travel time evaluated arc by arc: each arc is entered when the
    previous one is exited."""
    t = float(h)
    for aid in network.routes[route_id]:
        t = bundle.profiles[aid].curve.value(t)
    return t - h
