"""Point-by-point loop versions of code paths that now evaluate in batches.

Each function is the implementation the batched code replaced, kept as it
was: one scalar ``value``/``left_value`` call per point and Python-level
accumulation.  The tests assert that the batched paths return the same bits.
A loop copy carries the name of the code it replaced, so ``flowing`` here
runs on the loop copies of ``sum_flows``, ``_route_share`` and
``_mass_preimage``, and every copy that builds a flow runs on the copy of
``_build``; ``compose_after`` takes the map as its first argument, as the
method does.

``induced_flows``, ``route_utilities``, ``best_options`` and ``margin_error``
are the route-choice solver's parts before it shared the departure-choice
bin kernels: the demand clipped to each bin, scaled and summed, one
``mean_travel_time`` and one tie-break per bin, one ``mass_between`` per bin.
``wardrop_gap``, ``_integrate_against`` and ``_crossings`` are the gap before
it read the curves in arrays: a callable integrand at every point, a ``min``
over the routes' travel times there, and one ``slope_at`` per piece.

``pushforward`` is the sample filter that kept FIFO before the output check
replaced it; see its docstring.  ``volume_delay_exit_profile`` is the block
fixed point that the volume-delay sweep replaced, on the loop copy of its
exit map and on that ``pushforward``.
``bottleneck_exit_profile`` is the point queue that Newell's closed form
replaced: ``_point_queue_exits`` steps through every arrival segment,
keeping the served mass and the queue as running sums, and the exit curve
is read back from those departures.  Both are independent references: the
tests compare the arc models with them within a tolerance, not bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from dynwardrop.arcs import ArcModel, ExitProfile
from dynwardrop.curves import ExitTimeCurve, PiecewiseLinearMap
from dynwardrop.equilibrium import TIE_TOLERANCE, DemandTable, UserClass
from dynwardrop.errors import DegenerateDemand, FifoViolation, NonTermination
from dynwardrop.flows import MERGE_TOL, CumulativeFlow
from dynwardrop.network import Network, RouteFlowPattern, TravelTimePattern


def _build(times, cums, atoms, slopes) -> CumulativeFlow:
    """``flows._build`` with ``np.diff`` checks and a concatenated keep mask."""
    times = np.asarray(times, dtype=float)
    cums = np.asarray(cums, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    n = times.size
    if n == 0:
        return CumulativeFlow.zero()
    if np.any(np.diff(times) <= 0):
        raise ValueError("breakpoint times must be strictly increasing")
    if np.any(np.diff(cums) < 0) or np.any(atoms < 0) or np.any(slopes < 0):
        raise ValueError("cumulative curve must be nondecreasing")
    drift = cums[0] - atoms[0]
    if abs(drift) > 1e-12 * (1.0 + abs(cums[-1])):
        raise ValueError("curve must start from zero mass")
    if drift != 0.0:
        # a rounding residue below the first vertex; fold it into the atom
        atoms = atoms.copy()
        atoms[0] = cums[0]
    if slopes[-1] != 0.0:
        raise ValueError("curve must be constant after its last breakpoint")
    prev_slopes = np.concatenate([[0.0], slopes[:-1]])
    keep = (atoms > 0) | (slopes != prev_slopes)
    if not np.any(keep) or cums[-1] == 0.0:
        return CumulativeFlow.zero()
    # A vertex is redundant when it carries no atom and no slope change; its
    # removal leaves every evaluation untouched.
    times, cums, atoms, slopes = (a[keep] for a in (times, cums, atoms, slopes))
    return CumulativeFlow(times, cums, atoms, slopes)


def from_bins(edges: np.ndarray, masses: np.ndarray) -> CumulativeFlow:
    """``CumulativeFlow.from_bins`` as one (start, end, rate) segment per bin
    with positive mass, through ``piecewise_rate``: the departure solver's
    ``flows_from_splits`` and the oracle's ``flows_from_shares`` for one
    route.  A negative mass is skipped like a zero one."""
    widths = np.diff(edges)
    segs = []
    for b in range(masses.size):
        m = masses[b]
        if m > 0:
            segs.append((float(edges[b]), float(edges[b + 1]), m / widths[b]))
    return piecewise_rate(segs) if segs else CumulativeFlow.zero()


def piecewise_rate(segments: Iterable[tuple[float, float, float]]) -> CumulativeFlow:
    """``CumulativeFlow.piecewise_rate`` with a masked add per segment."""
    segs = [(float(a), float(b), float(r)) for a, b, r in segments]
    for a, b, r in segs:
        if b <= a:
            raise ValueError(f"segment end must exceed start: ({a}, {b})")
        if r < 0:
            raise ValueError(f"negative rate {r}")
    segs = [s for s in segs if s[2] > 0]
    if not segs:
        return CumulativeFlow.zero()
    bounds = np.unique(np.concatenate([[a, b] for a, b, _ in segs]))
    mids = (bounds[:-1] + bounds[1:]) / 2
    rates = np.zeros(len(mids))
    for a, b, r in segs:
        rates[(mids > a) & (mids < b)] += r
    times = bounds
    slopes = np.append(rates, 0.0)
    cums = np.concatenate([[0.0], np.cumsum(rates * np.diff(bounds))])
    atoms = np.zeros_like(times)
    return _build(times, cums, atoms, slopes)


def bottleneck_exit_profile(model, inflow: CumulativeFlow) -> ExitProfile:
    """``BottleneckModel.exit_profile`` as the point-queue loop, with one
    vertex per loop step."""
    c, cap = model.free_flow_time, model.capacity
    if inflow.is_zero:
        return ExitProfile(ExitTimeCurve.shift(c), CumulativeFlow.zero())
    arrivals = inflow.shifted(c)
    exits = _point_queue_exits(arrivals, cap)
    hs = np.union1d(inflow.times, exits.times - c)
    xs: list[float] = []
    ys: list[float] = []
    for h in hs:
        served = exits.value(h + c)
        q_left = max(0.0, inflow.left_value(h) - served)
        q_right = max(0.0, inflow.value(h) - served)
        y_left = h + c + q_left / cap
        y_right = h + c + q_right / cap
        xs.append(float(h))
        ys.append(float(y_left))
        if y_right != y_left:
            xs.append(float(h))
            ys.append(float(y_right))
    curve = ExitTimeCurve(np.array(xs), np.array(ys), 1.0, 1.0)
    return ExitProfile(curve, exits)


def _point_queue_exits(arrivals: CumulativeFlow, capacity: float) -> CumulativeFlow:
    """Cumulative departures of a point queue served at a fixed capacity, one
    arrival segment at a time on numpy scalars, with an ``emit`` closure."""
    ts, atoms, slopes = arrivals.times, arrivals.atoms, arrivals.slopes
    n = ts.size
    tiny = 1e-12 * (1.0 + arrivals.total)
    verts_t = [float(ts[0])]
    verts_m = [0.0]
    served = 0.0
    queue = float(atoms[0])

    def emit(t: float, m: float):
        if t > verts_t[-1]:
            verts_t.append(t)
            verts_m.append(m)
        else:
            verts_m[-1] = max(verts_m[-1], m)

    for i in range(n):
        lam = float(slopes[i])
        if i + 1 == n:
            break
        seg_end = float(ts[i + 1])
        tau = float(ts[i])
        while tau < seg_end:
            if queue <= tiny and lam <= capacity:
                served += lam * (seg_end - tau)
                queue = 0.0
                tau = seg_end
                emit(tau, served)
            elif queue > tiny and lam < capacity:
                t_clear = tau + queue / (capacity - lam)
                if t_clear < seg_end:
                    served += capacity * (t_clear - tau)
                    queue = 0.0
                    tau = t_clear
                    emit(tau, served)
                else:
                    served += capacity * (seg_end - tau)
                    queue += (lam - capacity) * (seg_end - tau)
                    tau = seg_end
                    emit(tau, served)
            else:
                served += capacity * (seg_end - tau)
                queue += (lam - capacity) * (seg_end - tau)
                tau = seg_end
                emit(tau, served)
        queue = max(0.0, queue) + float(atoms[i + 1])
    if queue > tiny:
        t_end = float(ts[-1]) + queue / capacity
        served += queue
        emit(t_end, served)
    # the flow through the vertices, as ``CumulativeFlow.from_cumulative_points``
    # built it before the closed form replaced this loop
    v = np.array(verts_m)
    if v[-1] == 0:
        return CumulativeFlow.zero()
    v = v - v[0]
    return CumulativeFlow.from_vertices(np.array(verts_t), v, v)


def class_utilities(
    cls: UserClass,
    rset: Sequence[str],
    times: TravelTimePattern,
    edges: np.ndarray,
) -> np.ndarray:
    """``equilibrium._class_utilities`` bin by bin, point by point."""
    out = np.empty((len(rset), edges.size - 1))
    for k, rid in enumerate(rset):
        arr = times.arrivals[rid]
        for b in range(edges.size - 1):
            lo, hi = float(edges[b]), float(edges[b + 1])
            pts = [lo, hi]
            for x in arr.xs:
                if lo < x < hi:
                    pts.append(float(x))
            # break where the arrival crosses the preferred instant
            c = arr.preimage_sup(cls.h_star)
            if lo < c < hi:
                pts.append(float(c))
            c = arr.preimage_inf(cls.h_star)
            if lo < c < hi:
                pts.append(float(c))
            pts_a = np.unique(np.array(pts))
            total = 0.0
            for a, b2 in zip(pts_a[:-1], pts_a[1:]):
                u_a = _utility_at(cls, arr, a)
                u_b = _utility_at(cls, arr, b2, left=True)
                total += 0.5 * (u_a + u_b) * (b2 - a)
            out[k, b] = total / (hi - lo)
    return out


def _utility_at(cls: UserClass, arrival_curve, h: float, left: bool = False) -> float:
    a = arrival_curve.left_value(h) if left else arrival_curve.value(h)
    travel = a - h
    early = max(0.0, cls.h_star - a)
    late = max(0.0, a - cls.h_star)
    return -cls.alpha * travel - cls.beta * early - cls.gamma * late


def induced_flows(
    network: Network,
    demand: DemandTable,
    shares: Mapping[tuple[str, str], np.ndarray],
    edges: np.ndarray,
) -> RouteFlowPattern:
    """``equilibrium.induced_flows`` as the demand cut to each bin's window,
    scaled by the route's share and summed."""
    flows: RouteFlowPattern = {r: CumulativeFlow.zero() for r in network.routes}
    for od, share in shares.items():
        rset = network.routes_between(*od)
        q = demand.rates[od]
        slices = [_window(q, float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
        for k, rid in enumerate(rset):
            parts = [
                s.scaled(float(share[k, b]))
                for b, s in enumerate(slices)
                if share[k, b] > 0 and not s.is_zero
            ]
            if parts:
                flows[rid] = sum_flows([flows[rid], *parts])
    return flows


def _window(f: CumulativeFlow, lo: float, hi: float) -> CumulativeFlow:
    """The mass of ``f`` on ]lo, hi]: ``f`` restricted to hi, less its curve
    up to lo."""
    f = f.restrict(hi)
    if f.is_zero or lo < f.times[0]:
        return f
    if lo >= f.times[-1]:
        return CumulativeFlow.zero()
    base = f.value(lo)
    j = int(np.searchsorted(f.times, lo, side="right"))
    times, cums, atoms, slopes = f.times[j:], f.cums[j:] - base, f.atoms[j:], f.slopes[j:]
    s = f.slope_at(lo)
    if s > 0.0:
        times = np.append(lo, times)
        cums = np.append(0.0, cums)
        atoms = np.append(0.0, atoms)
        slopes = np.append(s, slopes)
    return _build(times, cums, atoms, slopes)


def route_utilities(
    cls: UserClass,
    rset: Sequence[str],
    times: TravelTimePattern,
    edges: np.ndarray,
) -> np.ndarray:
    """Minus ``mean_travel_time`` per (route, bin): the route solver's bin
    costs as utilities.  ``cls`` is its travel-time-only class, not read."""
    return np.array([
        [-times.mean_travel_time(rid, float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
        for rid in rset
    ])


def best_options(u: np.ndarray) -> np.ndarray:
    """``equilibrium._best_options`` bin by bin."""
    target = np.zeros_like(u)
    for b in range(u.shape[1]):
        k = int(np.flatnonzero(u[:, b] >= u[:, b].max() - TIE_TOLERANCE)[0])
        target[k, b] = 1.0
    return target


def margin_error(
    network: Network,
    demand: DemandTable,
    flows: RouteFlowPattern,
    edges: np.ndarray,
) -> float:
    """``equilibrium.margin_error`` with one ``mass_between`` per bin."""
    worst = 0.0
    for od, q in demand.rates.items():
        rset = network.routes_between(*od)
        for a, b in zip(edges[:-1], edges[1:]):
            want = q.mass_between(float(a), float(b))
            # left to right from 0.0; the builtin sum compensates from Python 3.12
            got = 0.0
            for r in rset:
                got += flows[r].mass_between(float(a), float(b))
            worst = max(worst, abs(got - want) / (1.0 + want))
    return worst


def _integrate_against(flow: CumulativeFlow, fn, kinks: np.ndarray) -> float:
    """``equilibrium._integrate_against`` with a callable integrand, one
    ``slope_at`` per piece and a running total."""
    if flow.is_zero:
        return 0.0
    lo, hi = flow.support()
    pts = np.unique(np.concatenate([flow.times, kinks[(kinks > lo) & (kinks < hi)]]))
    total = 0.0
    for t, atom in zip(flow.times, flow.atoms):
        if atom > 0:
            total += atom * fn(float(t))
    for a, b in zip(pts[:-1], pts[1:]):
        rate = flow.slope_at(float((a + b) / 2))
        if rate > 0:
            total += rate * 0.5 * (fn(float(a)) + fn(float(b))) * (b - a)
    return total


def wardrop_gap(
    network: Network, flows: RouteFlowPattern, times: TravelTimePattern
) -> float:
    """``equilibrium.wardrop_gap`` with the per-od minimum taken by ``min``
    at every point, through the loop copies of ``_integrate_against`` and
    ``_crossings``."""
    num = 0.0
    den = 0.0
    by_od: dict[tuple[str, str], list[str]] = {}
    for rid in network.routes:
        by_od.setdefault(network.od_of_route(rid), []).append(rid)
    for od, rset in sorted(by_od.items()):
        live = [r for r in rset if not flows[r].is_zero]
        if not live:
            continue
        curves = {r: times.arrivals[r] for r in rset}
        kinks = [c.xs for c in curves.values()]
        cross: list[float] = []
        for i, r1 in enumerate(rset):
            for r2 in rset[i + 1:]:
                cross.extend(_crossings(curves[r1], curves[r2]))
        refine = np.unique(np.concatenate([*kinks, np.array(cross)])) if cross else np.unique(np.concatenate(kinks))

        def tmin(h: float) -> float:
            return min(c.travel_time(h) for c in curves.values())

        for r in live:
            tr = curves[r]
            num += _integrate_against(
                flows[r], lambda h: tr.travel_time(h) - tmin(h), refine
            )
            den += _integrate_against(flows[r], lambda h: tr.travel_time(h), refine)
    if den <= 0.0:
        raise DegenerateDemand("gap undefined for a massless pattern")
    return max(0.0, num / den)


def _crossings(c1, c2) -> list[float]:
    """``equilibrium._crossings`` span by span."""
    xs = np.unique(np.concatenate([c1.xs, c2.xs]))
    if xs.size == 0:
        return []
    out: list[float] = []
    span = np.concatenate([[xs[0] - 1.0], xs, [xs[-1] + 1.0]])
    for a, b in zip(span[:-1], span[1:]):
        f_a = c1.value(float(a)) - c2.value(float(a))
        f_b = c1.left_value(float(b)) - c2.left_value(float(b))
        if f_a * f_b < 0:
            out.append(float(a + (b - a) * f_a / (f_a - f_b)))
    return out


def flowing(
    model: ArcModel, inflows_by_route: Mapping[str, CumulativeFlow]
) -> tuple[dict[str, CumulativeFlow], ExitProfile, CumulativeFlow]:
    """``network.flowing`` splitting the outflow one exit instant at a time."""
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
        taus = set(float(t) for t in exit_total.times)
        for m in ms:
            # invert the exit cumulative at mass level m
            taus.add(_mass_preimage(exit_total, float(m)))
        taus_a = np.array(sorted(t for t in taus if np.isfinite(t)))
        times: list[float] = []
        lo_v: list[float] = []
        hi_v: list[float] = []
        for tau in taus_a:
            vl = _share_at(ms, cs, exit_total.left_value(tau))
            vr = _share_at(ms, cs, exit_total.value(tau))
            if not times or tau > times[-1]:
                times.append(float(tau))
                lo_v.append(vl)
                hi_v.append(vr)
            else:
                hi_v[-1] = max(hi_v[-1], vr)
        out[r] = _from_vertices(times, lo_v, hi_v)
    return out, profile, total


def _share_at(ms: np.ndarray, cs: np.ndarray, m: float) -> float:
    i = int(np.searchsorted(ms, m, side="right")) - 1
    if i < 0:
        return 0.0
    if i >= ms.size - 1:
        return float(cs[-1])
    dm = ms[i + 1] - ms[i]
    if dm == 0.0:
        return float(cs[i])
    return float(cs[i] + (m - ms[i]) * (cs[i + 1] - cs[i]) / dm)


def _from_vertices(times: list[float], lo_v: list[float], hi_v: list[float]) -> CumulativeFlow:
    t = np.array(times)
    cums = np.array(hi_v)
    atoms = cums - np.array(lo_v)
    slopes = np.zeros_like(t)
    if t.size > 1:
        dt = np.diff(t)
        dm = np.maximum(np.array(lo_v[1:]) - np.array(hi_v[:-1]), 0.0)
        slopes[:-1] = dm / dt
    return _build(t, np.maximum.accumulate(cums), np.maximum(atoms, 0.0), slopes)


# loop copy of ``PiecewiseLinearMap.compose_after``
def compose_after(self, inner: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
    """The map x -> self(inner(x))."""
    cands = set(float(x) for x in inner.xs)
    for y in self.xs:
        a = inner.preimage_inf(float(y))
        b = inner.preimage_sup(float(y))
        for c in (a, b):
            if np.isfinite(c):
                cands.add(float(c))
    # crossings of outer kink levels inside every inner segment, so the
    # result is exact even where inner is not monotone
    ixs, iys = inner.xs, inner.ys
    for i in range(ixs.size - 1):
        dx = ixs[i + 1] - ixs[i]
        dy = iys[i + 1] - iys[i]
        if dx == 0.0 or dy == 0.0:
            continue
        lo, hi = min(iys[i], iys[i + 1]), max(iys[i], iys[i + 1])
        for level in self.xs:
            if lo < level < hi:
                cands.add(float(ixs[i] + (level - iys[i]) * dx / dy))
    order = np.array(sorted(cands))
    xs_out: list[float] = []
    ys_out: list[float] = []
    prev_x: float | None = None
    for x in order:
        inner_l = inner.left_value(x)
        inner_r = inner.value(x)
        if prev_x is None or x == prev_x:
            rising = True
        else:
            rising = inner_l > inner.value(prev_x) + 0.0
        left = self.left_value(inner_l) if rising else self.value(inner_l)
        right = self.value(inner_r)
        if not xs_out or left != ys_out[-1] or x != xs_out[-1]:
            xs_out.append(float(x))
            ys_out.append(float(left))
        if right != ys_out[-1]:
            xs_out.append(float(x))
            ys_out.append(float(right))
        prev_x = float(x)
    lo = self.lo_slope * inner.lo_slope
    hi = self.hi_slope * inner.hi_slope
    return PiecewiseLinearMap(np.array(xs_out), np.array(ys_out), lo, hi)


# loop copy of ``flows.sum_flows``
def sum_flows(flows: Iterable[CumulativeFlow]) -> CumulativeFlow:
    """Pointwise sum of cumulative curves.

    The result's breakpoints are the union of the inputs' breakpoints; an
    instant within ``MERGE_TOL * (1 + |t|)`` of the one before it joins that
    one's cluster, which collapses onto its earliest instant.
    """
    parts = [f for f in flows if not f.is_zero]
    if not parts:
        return CumulativeFlow.zero()
    if len(parts) == 1:
        return parts[0]
    all_times = np.unique(np.concatenate([f.times for f in parts]))
    reps: list[float] = []
    ends: list[float] = []
    for t in all_times:
        if reps and t - ends[-1] <= MERGE_TOL * (1.0 + abs(t)):
            ends[-1] = t
        else:
            reps.append(float(t))
            ends.append(float(t))
    reps_a = np.array(reps)
    ends_a = np.array(ends)
    cums = np.zeros(reps_a.size)
    atoms = np.zeros(reps_a.size)
    slopes = np.zeros(reps_a.size)
    for f in parts:
        for i, (lo, hi) in enumerate(zip(reps_a, ends_a)):
            j0 = int(np.searchsorted(f.times, lo, side="left"))
            j1 = int(np.searchsorted(f.times, hi, side="right"))
            atoms[i] += float(np.sum(f.atoms[j0:j1]))
        cums += np.array([f.value(t) for t in ends_a])
    for i in range(reps_a.size - 1):
        mid = (ends_a[i] + reps_a[i + 1]) / 2
        # left to right from 0.0; the builtin sum compensates from Python 3.12
        for f in parts:
            slopes[i] += f.slope_at(mid)
    # the first vertex holds all the mass up to its cluster's end
    atoms[0] = cums[0]
    # a sum that dips by rounding below an earlier vertex is lifted
    return _build(reps_a, np.maximum.accumulate(cums), atoms, slopes)


# the sample filter ``flows.pushforward`` kept FIFO with before it checked
# its output once, kept as the reference that check must never fall short of
def pushforward(flow: CumulativeFlow, curve) -> CumulativeFlow:
    """Image measure of ``flow`` under a monotone time map.

    ``curve`` is a piecewise-linear map (see ``curves.PiecewiseLinearMap``)
    from entry times to exit times.  The result assigns to every interval J
    the mass of its preimage, so total mass is conserved exactly.

    This is no loop copy: it keeps FIFO sample by sample, as ``flows`` did
    before ``flows._check_exits`` read the output once, at the end, and it
    groups the exits as ``flows._ExitFront`` does.  The tests require the
    same bits where both load, and a ``FifoViolation`` on both sides where
    either raises one; the two word it by different rules.

    Raises:
        FifoViolation: the map sends more than 1e-12 (1 + total) of mass
            before the exit of earlier mass, or holds it constant over an
            interval carrying positive mass.
    """
    if flow.is_zero:
        return flow
    t0, t1 = flow.support()
    kinks = curve.kinks()
    inner = kinks[(kinks > t0) & (kinks < t1)]
    us = np.union1d(flow.times, inner)

    # Sample (exit time, cumulative mass, entry time) vertices where mass
    # enters.  Each entry instant u contributes its left limit where mass
    # enters just before u; where an atom sits at u or mass enters just
    # after it, the right limit before the atom, then a vertical rise for
    # the atom.
    taus: list[float] = []
    masses: list[float] = []
    sources: list[float] = []
    before = False
    for u in us:
        tl, tr = curve.left_value(u), curve.value(u)
        ml, mr = flow.left_value(u), flow.value(u)
        after = flow.slope_at(u) > 0.0
        if before:
            taus.append(tl)
            masses.append(ml)
            sources.append(u)
        if after or mr > ml:
            taus.append(tr)
            masses.append(ml)
            sources.append(u)
            if mr > ml:
                taus.append(tr)
                masses.append(mr)
                sources.append(u)
        before = after

    total = flow.total
    tiny = 1e-12 * (1.0 + total)
    out_t: list[float] = [taus[0]]
    out_m: list[float] = [masses[0]]
    out_u: list[float] = [sources[0]]
    for k in range(1, len(taus)):
        tau, m, u = taus[k], masses[k], sources[k]
        dm = m - out_m[-1]
        if tau > out_t[-1]:
            # the exits since the sample before, if it lay behind the front,
            # cross the front's level
            pt, pm = taus[k - 1], masses[k - 1]
            if pt < out_t[-1] - MERGE_TOL * (1.0 + abs(out_t[-1])):
                over = pm + (m - pm) * ((out_t[-1] - pt) / (tau - pt)) - out_m[-1]
                if over > tiny:
                    raise FifoViolation(
                        f"map sends mass {over:.3g} backwards near entry time {u:.6g}"
                    )
            out_t.append(tau)
            out_m.append(m)
            out_u.append(u)
            continue
        if dm <= tiny:
            # monotone wobble: keep the level
            if m > out_m[-1]:
                out_m[-1] = m
                out_u[-1] = u
            continue
        # positive mass maps backwards or onto a single instant
        if tau < out_t[-1] - MERGE_TOL * (1.0 + abs(out_t[-1])):
            raise FifoViolation(
                f"map sends mass {dm:.3g} backwards near entry time {u:.6g}"
            )
        if u > out_u[-1]:
            raise FifoViolation(
                f"map is constant over a positive-mass interval ending at {u:.6g}"
            )
        # atom of the flow: vertical rise at one exit instant
        out_t.append(out_t[-1])
        out_m.append(m)
        out_u.append(u)

    # Group vertices sharing an exit instant (within MERGE_TOL of the group's
    # first); each group's vertical extent becomes an atom of the image measure.
    g_time: list[float] = []
    g_lo: list[float] = []
    g_hi: list[float] = []
    for tau, m in zip(out_t, out_m):
        if not g_time or tau > g_time[-1] + MERGE_TOL * (1.0 + abs(g_time[-1])):
            g_time.append(tau)
            g_lo.append(m)
            g_hi.append(m)
        else:
            g_hi[-1] = m
    # the first vertex starts from the mass before any exit, which no wobble
    # lifts, as in ``flows._ExitFront``
    g_lo[0] = masses[0]
    return CumulativeFlow.from_vertices(g_time, g_lo, g_hi)


def volume_delay_exit_profile(model, inflow: CumulativeFlow) -> ExitProfile:
    """``ArcPerformanceModel.exit_profile`` as a block fixed point.

    Blocks have the length of the empty-arc delay: inside a block every exit
    stems from an entry in an earlier block, so each block rebuilds the exit
    map from the inflow's start with the exits known so far, and pushes the
    whole inflow up to the block's end forward again.
    """
    d_min = model.t_min
    dmap = model._delay_map()
    if inflow.is_zero:
        return ExitProfile(ExitTimeCurve.shift(d_min), CumulativeFlow.zero())
    h0 = float(inflow.times[0])
    h_last = float(inflow.times[-1])
    total = inflow.total
    tiny = 1e-12 * (1.0 + total)
    budget = math.ceil((h_last - h0 + 2.0 * model.t_max(total) + 5.0 * d_min) / d_min) + 3

    exits = CumulativeFlow.zero()
    frontier = h0 + d_min
    for _ in range(budget):
        curve = _volume_exit_map(inflow, exits, dmap, h0, frontier)
        if frontier >= h_last and exits.value(frontier) >= total - tiny:
            return ExitProfile(curve, pushforward(inflow, curve))
        exits = pushforward(inflow.restrict(frontier), curve)
        frontier += d_min
    raise NonTermination(
        "volume-delay propagation did not drain; check the delay function"
    )


# loop copy of the block loop's exit map
def _volume_exit_map(
    inflow: CumulativeFlow,
    exits: CumulativeFlow,
    dmap: PiecewiseLinearMap,
    h0: float,
    frontier: float,
) -> ExitTimeCurve:
    """Exit map h -> h + delay(volume on arc at h), exact on [h0, frontier]."""
    cand = {h0, frontier}
    for t in inflow.times:
        if h0 < t < frontier:
            cand.add(float(t))
    if not exits.is_zero:
        for t in exits.times:
            if h0 < t < frontier:
                cand.add(float(t))
    base = np.array(sorted(cand))

    def vol_right(x: float) -> float:
        return max(0.0, inflow.value(x) - exits.value(x))

    def vol_left(x: float) -> float:
        return max(0.0, inflow.left_value(x) - exits.left_value(x))

    # refine with crossings of the delay function's volume breakpoints
    refined = set(float(x) for x in base)
    vols = dmap.xs
    for a, b in zip(base[:-1], base[1:]):
        va, vb = vol_right(a), vol_left(b)
        lo, hi = min(va, vb), max(va, vb)
        if hi <= lo:
            continue
        for vb_level in vols:
            if lo < vb_level < hi:
                x = a + (vb_level - va) * (b - a) / (vb - va)
                if a < x < b:
                    refined.add(float(x))
    xs_in = np.array(sorted(refined))

    xs: list[float] = []
    ys: list[float] = []
    for x in xs_in:
        yl = x + dmap.value(vol_left(x))
        yr = x + dmap.value(vol_right(x))
        xs.append(float(x))
        ys.append(float(yl))
        if yr != yl:
            xs.append(float(x))
            ys.append(float(yr))
    return ExitTimeCurve(np.array(xs), np.array(ys), 1.0, 1.0)


# loop copy of ``network._route_share``
def _route_share(route_flow: CumulativeFlow, total_flow: CumulativeFlow) -> tuple[np.ndarray, np.ndarray]:
    """The route's cumulative mass as a function of the total cumulative mass.

    Returns piecewise-linear vertices (total mass m, route mass c); inside a
    shared point mass the split is proportional.
    """
    ts = np.union1d(route_flow.times, total_flow.times)
    ms: list[float] = [0.0]
    cs: list[float] = [0.0]
    for t in ts:
        for m, c in (
            (total_flow.left_value(t), route_flow.left_value(t)),
            (total_flow.value(t), route_flow.value(t)),
        ):
            if m > ms[-1]:
                ms.append(m)
                cs.append(c)
            elif c > cs[-1]:
                cs[-1] = c
    return np.array(ms), np.array(cs)


# loop copy of ``network._mass_preimages, one level at a time``
def _mass_preimage(flow: CumulativeFlow, m: float) -> float:
    """Earliest time the cumulative curve reaches mass level m."""
    if flow.is_zero:
        return float("nan")
    if m <= 0.0:
        return float(flow.times[0])
    if m >= flow.total:
        return float(flow.times[-1])
    i = int(np.searchsorted(flow.cums, m, side="left"))
    t_hi, c_hi = float(flow.times[i]), float(flow.cums[i])
    if i == 0:
        return t_hi
    c_lo = float(flow.cums[i - 1])
    t_lo = float(flow.times[i - 1])
    if c_hi - flow.atoms[i] <= m or flow.slopes[i - 1] == 0.0:
        return t_hi
    return t_lo + (m - c_lo) / flow.slopes[i - 1]
