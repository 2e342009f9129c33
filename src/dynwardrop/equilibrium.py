"""Route and departure-time equilibrium search with a quantitative gap.

The route-choice solver looks for patterns where, at almost every departure
instant, no used route of an origin-destination pair is slower than an unused
alternative.  Departure choice generalizes this to scheduling utilities with
earliness/lateness penalties around a preferred arrival time.

Both solvers discretize departures into uniform bins, score every (route,
bin) option by its bin-averaged utility, and average a response into the
current choice with a shrinking step.  Route choice is the special case whose
users weigh travel time alone: its bin cost is minus the utility of a class
with alpha = 1 and beta = gamma = 0, and it averages the all-or-nothing best
response with step 1/(n+1).  Departure choice averages a logit response of
annealed temperature (all-or-nothing for classes with a fixed departure
profile) with an annealed step.  No convergence guarantee is claimed; the
certificate is the reported gap: the mass-weighted excess travel time (or
utility regret) relative to the best available alternative, normalized to
[0, 1].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .arcs import _positive_part
from .errors import DegenerateDemand, NoRoute, ValidationError
from .flows import CumulativeFlow, Horizon, sum_flows
from .network import Network, RouteFlowPattern, TravelTimePattern, load, route_times

logger = logging.getLogger(__name__)

OD = tuple[str, str]

#: Options whose cost (or utility) is within this of the best tie; the best
#: response takes the lowest route id among them.
TIE_TOLERANCE = 1e-12
#: Logit temperature of the departure-choice response at the first iteration,
#: and the floor it anneals toward.
LOGIT_START = 0.5
LOGIT_FLOOR = 0.025


@dataclass(frozen=True)
class DemandTable:
    """Departure-rate measures per origin-destination pair, atom-free."""

    rates: Mapping[OD, CumulativeFlow]
    horizon: Horizon

    def __post_init__(self):
        object.__setattr__(self, "rates", dict(self.rates))
        for od, q in self.rates.items():
            if np.any(q.atoms > 0):
                raise ValidationError(f"demand for {od} carries point masses")
            if not q.is_zero and (q.times[0] < 0 or q.times[-1] > self.horizon.end):
                raise ValidationError(f"demand for {od} leaves the horizon")

    @property
    def total(self) -> float:
        return sum(q.total for q in self.rates.values())


@dataclass(frozen=True)
class UserClass:
    """A group of identical users choosing a route and a departure bin.

    Utility of departing at h on route r with arrival a(h) = h + travel time:
    ``-alpha * travel - beta * max(0, h_star - a) - gamma * max(0, a - h_star)``.
    A class with ``departure_rate`` set keeps its given departure profile and
    only chooses routes.
    """

    origin: str
    destination: str
    mass: float
    h_star: float = 0.0
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    departure_rate: CumulativeFlow | None = None

    def __post_init__(self):
        if not self.mass > 0:
            raise ValidationError("user class mass must be positive")
        if self.alpha <= 0 or self.beta < 0 or self.gamma < 0:
            raise ValidationError("utility weights out of range")

    @property
    def od(self) -> OD:
        return (self.origin, self.destination)

    @property
    def chooses_departure(self) -> bool:
        return self.departure_rate is None


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the averaged best-response iteration.

    Route choice reassigns each (od, bin) all-or-nothing and averages with the
    vanishing step 1/(n+1).  Departure choice smooths the reassignment through
    a logit response whose temperature anneals toward ``LOGIT_FLOOR`` (the
    zero-temperature limit is the all-or-nothing response): whole-mass dumps
    into single departure bins otherwise leave queue holes that keep the
    regret certificate stuck well above its target at practical iteration
    counts.  Everything is deterministic.
    """

    bin_width: float
    max_iters: int = 200
    tolerance: float = 1e-3

    def __post_init__(self):
        if self.bin_width <= 0 or self.tolerance <= 0:
            raise ValidationError("bin width and tolerance must be positive")

    def bins_for(self, horizon: Horizon) -> int:
        n = horizon.end / self.bin_width
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValidationError("bin width must divide the horizon")
        return int(round(n))


@dataclass
class EquilibriumState:
    """Solver output: per-class splits, flows, times, and the gap trace."""

    flows: RouteFlowPattern
    times: TravelTimePattern
    gap: float
    gap_trace: list[tuple[int, float]]
    converged: bool
    splits: dict = field(default_factory=dict)
    max_margin_error: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.gap_trace)


# -- flows from splits ---------------------------------------------------------


def induced_flows(
    network: Network,
    demand: DemandTable,
    shares: Mapping[OD, np.ndarray],
    edges: np.ndarray,
) -> RouteFlowPattern:
    """Assemble route inflows from per-(od, bin) route shares.

    ``shares[od]`` has shape (routes of od, bins); each column sums to one.
    Within a bin, demand keeps its own departure profile: on every piece
    between the demand's breakpoints and the edges, a route's density is its
    share of the demand density, so the od margins reproduce the demand bin
    by bin.  Demand outside ``[edges[0], edges[-1]]`` is dropped.
    """
    flows: RouteFlowPattern = {r: CumulativeFlow.zero() for r in network.routes}
    for od, share in shares.items():
        q = demand.rates[od]
        if q.is_zero:
            continue
        pts = np.union1d(q.times, edges)
        pts = pts[(pts >= edges[0]) & (pts <= edges[-1])]
        # the demand is atom-free: each piece's mass is its density times its
        # width, never a difference of cumulative values that rounds below 0
        i = np.searchsorted(q.times, pts[:-1], side="right") - 1
        density = np.where(i < 0, 0.0, q.slopes[np.maximum(i, 0)])
        bin_of = np.searchsorted(edges, pts[:-1], side="right") - 1
        for k, rid in enumerate(network.routes_between(*od)):
            masses = share[k, bin_of] * density * (pts[1:] - pts[:-1])
            flows[rid] = CumulativeFlow.from_bins(pts, masses)
    return flows


def _bin_masses(flow: CumulativeFlow, edges: np.ndarray) -> np.ndarray:
    """``flow.mass_between`` over each bin ``]edges[b], edges[b + 1]]``, bit for bit."""
    return np.maximum(np.diff(flow.values(edges)), 0.0)


def margin_error(
    network: Network,
    demand: DemandTable,
    flows: RouteFlowPattern,
    edges: np.ndarray,
) -> float:
    """Worst relative mismatch between route-flow margins and demand, per bin."""
    worst = 0.0
    for od, q in demand.rates.items():
        want = _bin_masses(q, edges)
        got = sum(_bin_masses(flows[r], edges) for r in network.routes_between(*od))
        worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + want))))
    return worst


def _best_options(u: np.ndarray) -> np.ndarray:
    """All-or-nothing response to the (option, bin) utilities ``u``: in each
    bin, weight one on the lowest-index option within ``TIE_TOLERANCE`` of
    the best."""
    k = np.argmax(u >= u.max(axis=0) - TIE_TOLERANCE, axis=0)
    target = np.zeros_like(u)
    target[k, np.arange(u.shape[1])] = 1.0
    return target


# -- gap ------------------------------------------------------------------------


def _integrate_against(flow: CumulativeFlow, pts: np.ndarray, fn: np.ndarray) -> float:
    """Exact integral against the flow measure of the function whose values
    at ``pts`` are ``fn``.

    ``pts`` holds the flow's breakpoints and every kink of the function
    inside its support, so the function is linear between neighbours.
    """
    at = np.searchsorted(pts, flow.times)
    # midpoints lie at or after the flow's first breakpoint: no index is -1
    rate = flow.slopes[np.searchsorted(flow.times, (pts[:-1] + pts[1:]) / 2, side="right") - 1]
    trapezoids = rate * 0.5 * (fn[:-1] + fn[1:]) * (pts[1:] - pts[:-1])
    terms = [[0.0], (flow.atoms * fn[at])[flow.atoms > 0], trapezoids[rate > 0]]
    # cumsum adds left to right from 0.0, so the total rounds as a running sum
    return float(np.cumsum(np.concatenate(terms))[-1])


def wardrop_gap(
    network: Network, flows: RouteFlowPattern, times: TravelTimePattern
) -> float:
    """Normalized mass-weighted excess travel time over the per-od minimum.

    Zero exactly when, at the quadrature resolution (all curve breakpoints
    plus pairwise crossing points), no used departure instant rides a route
    slower than an alternative of the same od pair.

    Raises:
        DegenerateDemand: the flow pattern carries no mass.
    """
    num = 0.0
    den = 0.0
    by_od: dict[OD, list[str]] = {}
    for rid in network.routes:
        by_od.setdefault(network.od_of_route(rid), []).append(rid)
    for od, rset in sorted(by_od.items()):
        live = [r for r in rset if not flows[r].is_zero]
        if not live:
            continue
        curves = [times.arrivals[r] for r in rset]
        # pairwise crossings refine the quadrature so the minimum is exact piecewise
        cross = [_crossings(c1, c2) for i, c1 in enumerate(curves) for c2 in curves[i + 1:]]
        refine = np.unique(np.concatenate([*(c.xs for c in curves), *cross]))
        for r in live:
            flow = flows[r]
            lo, hi = flow.support()
            pts = np.unique(np.concatenate([flow.times, refine[(refine > lo) & (refine < hi)]]))
            travel = times.arrivals[r].values(pts) - pts
            fastest = np.minimum.reduce([c.values(pts) - pts for c in curves])
            num += _integrate_against(flow, pts, travel - fastest)
            den += _integrate_against(flow, pts, travel)
    if den <= 0.0:
        raise DegenerateDemand("gap undefined for a massless pattern")
    return max(0.0, num / den)


def _crossings(c1, c2) -> np.ndarray:
    """Abscissae where two piecewise-linear maps cross."""
    xs = np.unique(np.concatenate([c1.xs, c2.xs]))
    span = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    # the value at each span's start, the left limit at its end
    ends, left = np.array([span[:-1], span[1:]]), [[False], [True]]
    f_a, f_b = c1.sided_values(ends, left) - c2.sided_values(ends, left)
    hit = f_a * f_b < 0
    (a, b), f_a, f_b = ends[:, hit], f_a[hit], f_b[hit]
    return a + (b - a) * f_a / (f_a - f_b)


# -- route-choice equilibrium ----------------------------------------------------


def solve_wardrop(
    network: Network, demand: DemandTable, config: SolverConfig
) -> EquilibriumState:
    """Averaged all-or-nothing iteration toward a route-choice equilibrium.

    Starts from uniform splits.  Every iteration loads the induced flows,
    measures the gap, and reassigns each (od, bin) to its fastest route by
    bin-averaged travel time (ties to the lowest route id).  That cost is
    minus the bin utility of a ``UserClass`` with alpha = 1 and
    beta = gamma = 0, computed by the departure-choice kernel.  Returns the
    best-gap state visited.

    Raises:
        NoRoute: some od pair has positive demand but no route.
    """
    horizon = demand.horizon
    bins = config.bins_for(horizon)
    edges = np.linspace(0.0, horizon.end, bins + 1)
    ods = [od for od, q in sorted(demand.rates.items()) if q.total > 0]
    for od in ods:
        if not network.routes_between(*od):
            raise NoRoute(f"demand between {od} has no route")
    shares = {
        od: np.full((len(network.routes_between(*od)), bins), 1.0 / len(network.routes_between(*od)))
        for od in ods
    }

    best: EquilibriumState | None = None
    trace: list[tuple[int, float]] = []
    worst_margin = 0.0
    for it in range(1, config.max_iters + 1):
        flows = induced_flows(network, demand, shares, edges)
        worst_margin = max(worst_margin, margin_error(network, demand, flows, edges))
        bundle = load(network, flows)
        times = route_times(network, bundle, horizon)
        gap = wardrop_gap(network, flows, times)
        trace.append((it, gap))
        if best is None or gap < best.gap:
            best = EquilibriumState(
                flows=flows,
                times=times,
                gap=gap,
                gap_trace=[],
                converged=gap <= config.tolerance,
                splits={od: s.copy() for od, s in shares.items()},
                max_margin_error=worst_margin,
            )
        if gap <= config.tolerance:
            break
        step = 1.0 / (it + 1)
        for od in ods:
            rset = network.routes_between(*od)
            if len(rset) <= 1:
                continue
            u = _class_utilities(UserClass(*od, mass=1.0), rset, times, edges)
            shares[od] = (1.0 - step) * shares[od] + step * _best_options(u)
    assert best is not None
    best.gap_trace = trace
    best.max_margin_error = worst_margin
    return best


# -- departure-time choice ---------------------------------------------------------


def _class_utilities(
    cls: UserClass,
    rset: Sequence[str],
    times: TravelTimePattern,
    edges: np.ndarray,
) -> np.ndarray:
    """Bin-averaged utility of each (route, bin) option for one class.

    The utility is linear between the bin edges, the arrival curve's kinks
    and the instants whose arrival crosses ``h_star``, so the trapezoid rule
    on those points is exact.
    """
    bins = edges.size - 1
    lo, hi = edges[0], edges[-1]
    widths = edges[1:] - edges[:-1]
    out = np.empty((len(rset), bins))
    for k, rid in enumerate(rset):
        arr = times.arrivals[rid]
        cross = np.array([arr.preimage_sup(cls.h_star), arr.preimage_inf(cls.h_star)])
        inner = np.concatenate([arr.xs, cross])
        pts = np.unique(np.concatenate([edges, inner[(inner > lo) & (inner < hi)]]))
        # the value at each piece's start, the left limit at its end
        ends = np.array([pts[:-1], pts[1:]])
        u_a, u_b = _utilities(cls, arr.sided_values(ends, [[False], [True]]), ends)
        pieces = 0.5 * (u_a + u_b) * (pts[1:] - pts[:-1])
        # bincount adds each bin's pieces one at a time, left to right, from
        # 0.0, so a bin's sum rounds exactly as a running total would
        bin_of = np.searchsorted(edges, pts[:-1], side="right") - 1
        out[k] = np.bincount(bin_of, pieces, bins) / widths
    return out


def _utilities(cls: UserClass, arrivals: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Utility of departing at each of hs, given the arrival instants."""
    early = _positive_part(cls.h_star - arrivals)
    late = _positive_part(arrivals - cls.h_star)
    return -cls.alpha * (arrivals - hs) - cls.beta * early - cls.gamma * late


def solve_departure_choice(
    network: Network, classes: Sequence[UserClass], config: SolverConfig, horizon: Horizon
) -> EquilibriumState:
    """Averaged best response over joint (route, departure-bin) choices.

    The certificate is utility regret: the mass-weighted average shortfall
    against each class's best available option, normalized by the weighted
    magnitude of the best utilities plus one.

    Raises:
        NoRoute: a class's od pair has no connecting route.
        ValidationError: no class is given, or a fixed departure profile
            carries mass at 0 or beyond the horizon, outside every bin.
    """
    if not classes:
        raise ValidationError("need at least one user class")
    bins = config.bins_for(horizon)
    edges = np.linspace(0.0, horizon.end, bins + 1)
    rsets = []
    for cls in classes:
        rset = network.routes_between(*cls.od)
        if not rset:
            raise NoRoute(f"class between {cls.od} has no route")
        rsets.append(rset)
        reach = min(network.arcs[a].model.t_min for r in rset for a in network.routes[r])
        if cls.chooses_departure and cls.h_star > horizon.end + reach:
            logger.warning(
                "preferred arrival %s may be unreachable inside the horizon", cls.h_star
            )

    # splits[c]: probability over (route, bin); fixed-departure classes hold
    # per-bin route splits weighted by their own departure profile
    splits: list[np.ndarray] = []
    fixed_bin_mass: list[np.ndarray | None] = []
    for cls, rset in zip(classes, rsets):
        if cls.chooses_departure:
            splits.append(np.full((len(rset), bins), 1.0 / (len(rset) * bins)))
            fixed_bin_mass.append(None)
        else:
            q = cls.departure_rate
            if abs(q.mass_between(0.0, horizon.end) - q.total) > 1e-12 * (1.0 + q.total):
                raise ValidationError(
                    f"departure profile of class between {cls.od} carries mass outside "
                    f"the departure bins ]0, {horizon.end}]"
                )
            bm = _bin_masses(q, edges)
            bm = bm * (cls.mass / bm.sum()) if bm.sum() > 0 else bm
            splits.append(np.full((len(rset), bins), 1.0 / len(rset)))
            fixed_bin_mass.append(bm)

    best: EquilibriumState | None = None
    trace: list[tuple[int, float]] = []
    worst_margin = 0.0
    for it in range(1, config.max_iters + 1):
        flows: RouteFlowPattern = {r: CumulativeFlow.zero() for r in network.routes}
        for cls, rset, split, bm in zip(classes, rsets, splits, fixed_bin_mass):
            masses = cls.mass * split if bm is None else bm * split
            for rid, row in zip(rset, masses):
                flows[rid] = sum_flows([flows[rid], CumulativeFlow.from_bins(edges, row)])
        total_mass = sum(f.total for f in flows.values())
        worst_margin = max(
            worst_margin,
            abs(total_mass - sum(c.mass for c in classes)) / (1 + total_mass),
        )
        bundle = load(network, flows)
        times = route_times(network, bundle, horizon)

        temperature = max(LOGIT_FLOOR, LOGIT_START * 0.985**it)
        regret_mass = 0.0
        norm = 0.0
        targets = []
        for cls, rset, split, bm in zip(classes, rsets, splits, fixed_bin_mass):
            u = _class_utilities(cls, rset, times, edges)
            if cls.chooses_departure:
                best_u = float(u.max())
                achieved = float((split * u).sum())
                regret_mass += cls.mass * (best_u - achieved)
                norm += cls.mass * abs(best_u)
                z = np.minimum(np.maximum((u - best_u) / temperature, -700.0), 0.0)
                target = np.exp(z)
                target /= target.sum()
                targets.append(target)
            else:
                target = _best_options(u)
                best_u = (target * u).sum(axis=0)
                w = bm / cls.mass
                best_w = 0.0
                ach_w = 0.0
                for b in range(bins):
                    best_w += w[b] * best_u[b]
                    ach_w += w[b] * float(np.dot(split[:, b], u[:, b]))
                regret_mass += cls.mass * (best_w - ach_w)
                norm += cls.mass * abs(best_w)
                targets.append(target)
        gap = float(max(0.0, regret_mass) / (norm + 1.0))
        trace.append((it, gap))
        if best is None or gap < best.gap:
            best = EquilibriumState(
                flows=flows,
                times=times,
                gap=gap,
                gap_trace=[],
                converged=gap <= config.tolerance,
                splits={i: s.copy() for i, s in enumerate(splits)},
                max_margin_error=worst_margin,
            )
        if gap <= config.tolerance:
            break
        # annealed averaging: vanishing 1/n steps freeze transients in
        # before the joint simplex has taken the equilibrium shape
        step = max(0.03, 0.3 * 0.99**it)
        for i in range(len(splits)):
            splits[i] = (1.0 - step) * splits[i] + step * targets[i]
    assert best is not None
    best.gap_trace = trace
    best.max_margin_error = worst_margin
    return best
