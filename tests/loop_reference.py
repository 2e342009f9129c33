"""Point-by-point loop versions of code paths that now evaluate in batches.

Each function is the implementation the batched code replaced, kept as it
was: one scalar ``value``/``left_value`` call per point and Python-level
accumulation.  The tests assert that the batched paths return the same bits.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from dynwardrop.arcs import ArcModel, ExitProfile, _point_queue_exits
from dynwardrop.curves import ExitTimeCurve
from dynwardrop.equilibrium import UserClass
from dynwardrop.flows import CumulativeFlow, _build, sum_flows
from dynwardrop.network import TravelTimePattern, _mass_preimage, _route_share


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
    """``BottleneckModel.exit_profile`` with one vertex per loop step."""
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


def flowing(
    model: ArcModel, inflows_by_route: Mapping[str, CumulativeFlow]
) -> tuple[dict[str, CumulativeFlow], ExitProfile]:
    """``network.flowing`` splitting the outflow one exit instant at a time."""
    live = {r: f for r, f in inflows_by_route.items() if not f.is_zero}
    total = sum_flows(list(live.values()))
    profile = model.exit_profile(total)
    exit_total = profile.outflow
    out: dict[str, CumulativeFlow] = {}
    if len(live) <= 1:
        for r in inflows_by_route:
            out[r] = exit_total if r in live else CumulativeFlow.zero()
        return out, profile
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
    return out, profile


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
