"""Scenario files and result tables.

A scenario is a single human-writable text file with a format tag, a horizon,
and bracketed sections::

    format dnl-scenario 1
    horizon 4

    [arcs]
    # id  tail head  kind  key=value ...
    main  A B  bottleneck  free_flow=0.5 capacity=1
    alt   A B  constant    time=1
    ramp  B C  arc_performance  delay=0:0.6,2:1.4

    [routes]
    # id  arc ids in order
    r1  main ramp

    [route_flows]          # optional: direct route inflows for plain loading
    r1  0:1:2.0

    [demand]               # od departure rates: origin dest  start:end:rate ...
    A C  0:1:2.0  1:2:0.5

    [classes]              # departure-time choice population
    commuters  A C  mass=1 hstar=2 alpha=1 beta=0.5 gamma=2
    fixedfolk  A C  mass=2 rate=0:1:2

Rates are users/second over half-open windows; numbers serialize with 12
significant digits, which is below every tolerance used by the solvers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arcs import ArcModel, ArcPerformanceModel, BottleneckModel, ConstantModel
from .curves import ExitTimeCurve
from .equilibrium import DemandTable, UserClass
from .errors import ModelParameterError, ParseError, ValidationError
from .flows import CumulativeFlow, Horizon
from .network import Arc, Network, RouteFlowPattern, TravelTimePattern

FORMAT_TAG = "dnl-scenario"
FORMAT_VERSION = 1

_SECTIONS = ("arcs", "routes", "route_flows", "demand", "classes")


@dataclass
class Scenario:
    network: Network
    horizon: Horizon
    demand: DemandTable
    classes: list[UserClass] = field(default_factory=list)
    route_flows: RouteFlowPattern | None = None
    name: str = "scenario"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what}: not a number: {token!r}", line_no) from None


def _parse_segments(tokens: list[str], line_no: int) -> CumulativeFlow:
    segs = []
    for tok in tokens:
        parts = tok.split(":")
        if len(parts) != 3:
            raise ParseError(f"rate segment must be start:end:rate, got {tok!r}", line_no)
        a, b, r = (_parse_float(p, line_no, "rate segment") for p in parts)
        if r < 0:
            raise ValidationError(f"negative rate {r} (line {line_no})")
        if b <= a:
            raise ValidationError(f"segment window empty: {tok!r} (line {line_no})")
        if r > 0:
            segs.append((a, b, r))
    return CumulativeFlow.piecewise_rate(segs) if segs else CumulativeFlow.zero()


def _parse_kv(tokens: list[str], line_no: int) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}", line_no)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _build_model(kind: str, kv: dict[str, str], line_no: int) -> ArcModel:
    def need(key: str) -> float:
        if key not in kv:
            raise ParseError(f"{kind} arc needs {key}=", line_no)
        return _parse_float(kv[key], line_no, key)

    try:
        if kind == "constant":
            return ConstantModel(need("time"))
        if kind == "bottleneck":
            return BottleneckModel(need("free_flow"), need("capacity"))
        if kind == "arc_performance":
            if "delay" not in kv:
                raise ParseError("arc_performance arc needs delay=v:t,v:t,...", line_no)
            pts = []
            for pair in kv["delay"].split(","):
                v, t = pair.split(":")
                pts.append((
                    _parse_float(v, line_no, "delay volume"),
                    _parse_float(t, line_no, "delay time"),
                ))
            return ArcPerformanceModel(
                tuple(p[0] for p in pts), tuple(p[1] for p in pts)
            )
    except ModelParameterError as exc:
        raise ValidationError(f"{exc} (line {line_no})") from None
    raise ParseError(f"unknown arc kind {kind!r}", line_no)


def parse_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file.

    Raises:
        ParseError: malformed syntax, with line context.
        ValidationError: structurally invalid contents (unknown arcs,
            negative rates, demand without routes, ...).
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    horizon: Horizon | None = None
    tag_seen = False
    section = None
    arcs: dict[str, Arc] = {}
    routes: dict[str, tuple[str, ...]] = {}
    route_flow_rows: list[tuple[int, str, CumulativeFlow]] = []
    demand_rows: list[tuple[int, str, str, CumulativeFlow]] = []
    classes: list[UserClass] = []

    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{section}]", no)
            continue
        tokens = line.split()
        if not tag_seen:
            if tokens[0] != "format" or len(tokens) != 3 or tokens[1] != FORMAT_TAG:
                raise ParseError(f"first directive must be 'format {FORMAT_TAG} <version>'", no)
            if int(_parse_float(tokens[2], no, "format version")) != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {tokens[2]}", no)
            tag_seen = True
            continue
        if tokens[0] == "horizon" and section is None:
            horizon = Horizon(_parse_float(tokens[1], no, "horizon"))
            continue
        if section == "arcs":
            if len(tokens) < 4:
                raise ParseError("arc row needs: id tail head kind params...", no)
            aid, tail, head, kind = tokens[:4]
            if aid in arcs:
                raise ValidationError(f"duplicate arc id {aid!r} (line {no})")
            model = _build_model(kind, _parse_kv(tokens[4:], no), no)
            arcs[aid] = Arc(tail, head, model)
        elif section == "routes":
            rid, arc_ids = tokens[0], tuple(tokens[1:])
            if rid in routes:
                raise ValidationError(f"duplicate route id {rid!r} (line {no})")
            if not arc_ids:
                raise ParseError("route row needs at least one arc", no)
            for aid in arc_ids:
                if aid not in arcs:
                    raise ValidationError(f"unknown arc {aid!r} in route {rid!r} (line {no})")
            routes[rid] = arc_ids
        elif section == "route_flows":
            route_flow_rows.append((no, tokens[0], _parse_segments(tokens[1:], no)))
        elif section == "demand":
            if len(tokens) < 3:
                raise ParseError("demand row needs: origin dest segments...", no)
            demand_rows.append((no, tokens[0], tokens[1], _parse_segments(tokens[2:], no)))
        elif section == "classes":
            if len(tokens) < 4:
                raise ParseError("class row needs: id origin dest key=value...", no)
            cid, origin, dest = tokens[:3]
            kv = _parse_kv(tokens[3:], no)
            rate = None
            if "rate" in kv:
                rate = _parse_segments(kv.pop("rate").split(";"), no)
            try:
                classes.append(UserClass(
                    origin,
                    dest,
                    mass=_parse_float(kv.get("mass", "1"), no, "mass"),
                    h_star=_parse_float(kv.get("hstar", "0"), no, "hstar"),
                    alpha=_parse_float(kv.get("alpha", "1"), no, "alpha"),
                    beta=_parse_float(kv.get("beta", "0"), no, "beta"),
                    gamma=_parse_float(kv.get("gamma", "0"), no, "gamma"),
                    departure_rate=rate,
                ))
            except ValidationError as exc:
                raise ValidationError(f"{exc} (line {no})") from None
        else:
            raise ParseError(f"content outside any section: {line!r}", no)

    if horizon is None:
        raise ParseError("missing 'horizon' directive", len(lines))
    network = Network(arcs=arcs, routes=routes)

    rates: dict[tuple[str, str], CumulativeFlow] = {}
    for no, o, d, q in demand_rows:
        od = (o, d)
        if od in rates:
            raise ValidationError(f"duplicate demand row for {od} (line {no})")
        if q.total > 0 and not network.routes_between(o, d):
            raise ValidationError(f"demand between {od} has no route (line {no})")
        rates[od] = q
    demand = DemandTable(rates, horizon)

    route_flows: RouteFlowPattern | None = None
    if route_flow_rows:
        route_flows = {}
        for no, rid, q in route_flow_rows:
            if rid not in routes:
                raise ValidationError(f"unknown route {rid!r} in route_flows (line {no})")
            route_flows[rid] = q

    for cls in classes:
        if not network.routes_between(*cls.od):
            raise ValidationError(f"class between {cls.od} has no route")
    return Scenario(network, horizon, demand, classes, route_flows, name=path.stem)


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    """Serialize a scenario so that parsing it back reproduces the input."""
    net = scenario.network
    out = [f"format {FORMAT_TAG} {FORMAT_VERSION}", f"horizon {_fmt(scenario.horizon.end)}", ""]
    out.append("[arcs]")
    for aid, arc in net.arcs.items():
        m = arc.model
        if isinstance(m, ConstantModel):
            params = f"constant time={_fmt(m.free_flow_time)}"
        elif isinstance(m, BottleneckModel):
            params = f"bottleneck free_flow={_fmt(m.free_flow_time)} capacity={_fmt(m.capacity)}"
        elif isinstance(m, ArcPerformanceModel):
            pts = ",".join(f"{_fmt(v)}:{_fmt(t)}" for v, t in zip(m.volumes, m.delays))
            params = f"arc_performance delay={pts}"
        else:
            raise ValidationError(f"cannot serialize model {type(m).__name__}")
        out.append(f"{aid} {arc.tail} {arc.head} {params}")
    out.append("")
    out.append("[routes]")
    for rid, arc_ids in net.routes.items():
        out.append(f"{rid} {' '.join(arc_ids)}")
    if scenario.route_flows:
        out.append("")
        out.append("[route_flows]")
        for rid, q in scenario.route_flows.items():
            segs = _flow_segments(q)
            if segs:
                out.append(f"{rid} {' '.join(segs)}")
    if scenario.demand.rates:
        out.append("")
        out.append("[demand]")
        for (o, d), q in scenario.demand.rates.items():
            segs = _flow_segments(q)
            out.append(f"{o} {d} {' '.join(segs) if segs else '0:1:0'}")
    if scenario.classes:
        out.append("")
        out.append("[classes]")
        for i, cls in enumerate(scenario.classes):
            bits = [
                f"c{i}",
                cls.origin,
                cls.destination,
                f"mass={_fmt(cls.mass)}",
                f"hstar={_fmt(cls.h_star)}",
                f"alpha={_fmt(cls.alpha)}",
                f"beta={_fmt(cls.beta)}",
                f"gamma={_fmt(cls.gamma)}",
            ]
            if cls.departure_rate is not None:
                bits.append("rate=" + ";".join(_flow_segments(cls.departure_rate)))
            out.append(" ".join(bits))
    Path(path).write_text("\n".join(out) + "\n")


def _flow_segments(q: CumulativeFlow) -> list[str]:
    """Piecewise-constant-rate segments of an atom-free flow."""
    if q.is_zero:
        return []
    if np.any(q.atoms > 0):
        raise ValidationError("scenario files carry rate segments; point masses cannot be serialized")
    segs = []
    for t0, t1, s in zip(q.times[:-1], q.times[1:], q.slopes[:-1]):
        if s > 0:
            segs.append(f"{_fmt(float(t0))}:{_fmt(float(t1))}:{_fmt(float(s))}")
    return segs


# -- result tables ----------------------------------------------------------------


def write_route_times_csv(path: Path, times: TravelTimePattern, horizon: Horizon) -> None:
    """Travel time per route at every curve vertex plus a uniform grid."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["route", "h", "travel_time"])
        for rid in sorted(times.arrivals):
            arr = times.arrivals[rid]
            grid = np.linspace(0.0, horizon.end, 65)
            hs = [float(x) for x in arr.xs if 0.0 <= x <= horizon.end]
            rows = sorted(set(hs) | set(float(g) for g in grid))
            for h in rows:
                w.writerow([rid, _fmt(h), _fmt(arr.travel_time(h))])


def write_route_flows_csv(path: Path, flows: RouteFlowPattern) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["route", "h", "cumulative"])
        for rid in sorted(flows):
            f = flows[rid]
            if f.is_zero:
                w.writerow([rid, _fmt(0.0), _fmt(0.0)])
                continue
            for t, lo, hi in zip(f.times, f.cums - f.atoms, f.cums):
                if lo != hi:
                    w.writerow([rid, _fmt(float(t)), _fmt(float(lo))])
                w.writerow([rid, _fmt(float(t)), _fmt(float(hi))])


def write_arc_flows_csv(path: Path, network: Network, bundle) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arc", "h", "cumulative_in", "cumulative_out"])
        for aid in sorted(network.arcs):
            fin = bundle.total(aid)
            fout = bundle.outflow_total(aid)
            ts = sorted(
                set((float(t) for t in fin.times)) | set((float(t) for t in fout.times))
            ) or [0.0]
            for t in ts:
                w.writerow([aid, _fmt(t), _fmt(fin.value(t)), _fmt(fout.value(t))])


def write_gap_trace_csv(path: Path, trace: list[tuple[int, float]]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "gap"])
        for it, gap in trace:
            w.writerow([it, _fmt(gap)])


def write_conformance_csv(path: Path, reports: dict[str, "ConformanceReport"]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arc", "model", "check", "passed", "worst", "detail"])
        for aid in sorted(reports):
            rep = reports[aid]
            for name, chk in rep.checks.items():
                w.writerow([aid, rep.model, name, int(chk.passed), _fmt(chk.worst), chk.detail])


def write_summary(path: Path, entries: dict[str, object]) -> None:
    with path.open("w") as fh:
        for k, v in entries.items():
            if isinstance(v, float):
                v = _fmt(v)
            fh.write(f"{k} {v}\n")


def read_route_times_csv(path: Path) -> dict[str, ExitTimeCurve]:
    """Rebuild arrival curves from an emitted travel-time table."""
    rows: dict[str, list[tuple[float, float]]] = {}
    with path.open() as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["route"], []).append(
                (float(row["h"]), float(row["h"]) + float(row["travel_time"]))
            )
    out = {}
    for rid, pts in rows.items():
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        out[rid] = ExitTimeCurve(xs, ys, 1.0, 1.0)
    return out


def read_route_flows_csv(path: Path) -> RouteFlowPattern:
    """Rebuild route flow measures from an emitted cumulative table.

    Raises:
        ValidationError: a route's cumulative column decreases.
    """
    rows: dict[str, list[tuple[float, float]]] = {}
    with path.open() as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["route"], []).append(
                (float(row["h"]), float(row["cumulative"]))
            )
    out: RouteFlowPattern = {}
    for rid, pts in rows.items():
        if any(b[1] < a[1] for a, b in zip(pts, pts[1:])):
            raise ValidationError(f"cumulative column of route {rid!r} decreases")
        if len(pts) < 2 or pts[-1][1] == 0.0:
            out[rid] = CumulativeFlow.zero()
            continue
        times = []
        lo = []
        hi = []
        for t, v in pts:
            if times and t == times[-1]:
                hi[-1] = v
            else:
                times.append(t)
                lo.append(v)
                hi.append(v)
        out[rid] = CumulativeFlow.from_vertices(times, lo, hi)
    return out
