"""Arc travel-time models: entry time -> exit time, given the arc's inflow.

Three concrete models are provided.

* ``ConstantModel``: a fixed traversal time, independent of the inflow.
* ``ArcPerformanceModel``: traversal time is a strictly increasing function of
  the volume currently on the arc.  Exit times are obtained by propagating the
  inflow forward in blocks whose length equals the empty-arc delay: inside a
  block, every exit stems from entries in earlier blocks, so the on-arc volume
  is already determined.  All curves stay piecewise linear, so the construction
  is exact (no time grid).
* ``BottleneckModel``: a free-flow time followed by a server of finite
  capacity; a point queue forms whenever arrivals outrun the capacity.  The
  exit curve is built from the exact cumulative arrival/departure balance.

Every model declares a positive lower bound ``t_min`` on its travel time and a
finite envelope ``t_max(mass)`` valid for any inflow of that total mass, and a
``check_assumptions`` routine probes a model numerically for the behavioural
contract the loading algorithms rely on (continuity, bounded speeds,
finiteness, strict FIFO over mass-carrying intervals, causality).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .curves import ExitTimeCurve, PiecewiseLinearMap, sorted_set
from .errors import ModelParameterError, NonTermination
from .flows import CumulativeFlow, Horizon, pushforward, sum_flows


@dataclass(frozen=True)
class ExitProfile:
    """Exit behaviour of an arc under a given total inflow."""

    curve: ExitTimeCurve
    outflow: CumulativeFlow


class ArcModel(ABC):
    """Maps an arc inflow measure to the arc's exit-time curve."""

    kind: str

    @property
    @abstractmethod
    def t_min(self) -> float:
        """Uniform positive lower bound on the travel time."""

    @abstractmethod
    def t_max(self, mass: float) -> float:
        """Upper bound on the travel time for any inflow of the given mass."""

    @abstractmethod
    def exit_profile(self, inflow: CumulativeFlow) -> ExitProfile:
        """Exit-time curve plus the total outflow measure for this inflow."""

    def exit_curve(self, inflow: CumulativeFlow) -> ExitTimeCurve:
        return self.exit_profile(inflow).curve

    def travel_time(self, inflow: CumulativeFlow, h: float) -> float:
        """Time needed to traverse the arc when entering at h."""
        return self.exit_curve(inflow).travel_time(h)

    def continuity_modulus(self, mass: float, delta: float) -> float:
        """How much the exit curve may move when the inflow gains delta mass."""
        return self.t_max(mass + delta) - self.t_max(mass)


@dataclass(frozen=True)
class ConstantModel(ArcModel):
    """Fixed traversal time regardless of congestion."""

    free_flow_time: float
    kind = "constant"

    def __post_init__(self):
        if not self.free_flow_time > 0:
            raise ModelParameterError("constant travel time must be positive")

    @property
    def t_min(self) -> float:
        return self.free_flow_time

    def t_max(self, mass: float) -> float:
        return self.free_flow_time

    def exit_profile(self, inflow: CumulativeFlow) -> ExitProfile:
        curve = ExitTimeCurve.shift(self.free_flow_time)
        return ExitProfile(curve, inflow.shifted(self.free_flow_time))


@dataclass(frozen=True)
class BottleneckModel(ArcModel):
    """Free-flow time plus a point queue at an exit of finite capacity.

    The free-flow time must be strictly positive so the travel time has a
    positive floor.  Point masses reaching the server are released over a
    span ``mass / capacity``: the outflow never exceeds the capacity.
    """

    free_flow_time: float
    capacity: float
    kind = "bottleneck"

    def __post_init__(self):
        if not self.free_flow_time > 0:
            raise ModelParameterError("bottleneck free-flow time must be positive")
        if not self.capacity > 0:
            raise ModelParameterError("bottleneck capacity must be positive")

    @property
    def t_min(self) -> float:
        return self.free_flow_time

    def t_max(self, mass: float) -> float:
        return self.free_flow_time + mass / self.capacity

    def continuity_modulus(self, mass: float, delta: float) -> float:
        return delta / self.capacity

    def exit_profile(self, inflow: CumulativeFlow) -> ExitProfile:
        c, cap = self.free_flow_time, self.capacity
        if inflow.is_zero:
            return ExitProfile(ExitTimeCurve.shift(c), CumulativeFlow.zero())
        arrivals = inflow.shifted(c)
        exits = _point_queue_exits(arrivals, cap)
        hs = np.union1d(inflow.times, exits.times - c)
        served = exits.values(hs + c)
        y_left = hs + c + _positive_part(inflow.left_values(hs) - served) / cap
        y_right = hs + c + _positive_part(inflow.values(hs) - served) / cap
        # (h, y_left) at every entry instant, then (h, y_right) where they
        # differ: an atom entering at h makes the curve jump there
        keep = np.ones(2 * hs.size, dtype=bool)
        keep[1::2] = y_right != y_left
        xs = np.repeat(hs, 2)[keep]
        ys = np.column_stack([y_left, y_right]).ravel()[keep]
        curve = ExitTimeCurve(xs, ys, 1.0, 1.0)
        return ExitProfile(curve, exits)


def _positive_part(v: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` elementwise, the same bits as the scalar builtin."""
    return np.where(v > 0.0, v, 0.0)


def _point_queue_exits(arrivals: CumulativeFlow, capacity: float) -> CumulativeFlow:
    """Cumulative departures of a point queue served at a fixed capacity."""
    # Python floats throughout: on curves of tens of vertices the per-call
    # cost of numpy scalars outweighs the arithmetic
    ts, atoms, slopes = arrivals.times.tolist(), arrivals.atoms.tolist(), arrivals.slopes.tolist()
    tiny = 1e-12 * (1.0 + arrivals.total)
    verts_t = [ts[0]]
    verts_m = [0.0]
    served = 0.0
    queue = atoms[0]
    for i in range(len(ts) - 1):
        lam = slopes[i]
        seg_end = ts[i + 1]
        tau = ts[i]
        while tau < seg_end:
            if queue <= tiny and lam <= capacity:
                served += lam * (seg_end - tau)
                queue = 0.0
                tau = seg_end
            elif queue > tiny and lam < capacity:
                t_clear = tau + queue / (capacity - lam)
                if t_clear < seg_end:
                    served += capacity * (t_clear - tau)
                    queue = 0.0
                    tau = t_clear
                else:
                    served += capacity * (seg_end - tau)
                    queue += (lam - capacity) * (seg_end - tau)
                    tau = seg_end
            else:
                served += capacity * (seg_end - tau)
                queue += (lam - capacity) * (seg_end - tau)
                tau = seg_end
            # a vertex at (tau, served), merged into the last one at equal time
            if tau > verts_t[-1]:
                verts_t.append(tau)
                verts_m.append(served)
            elif served > verts_m[-1]:
                verts_m[-1] = served
        queue = max(0.0, queue) + atoms[i + 1]
    if queue > tiny:
        t_end = ts[-1] + queue / capacity
        served += queue
        if t_end > verts_t[-1]:
            verts_t.append(t_end)
            verts_m.append(served)
        elif served > verts_m[-1]:
            verts_m[-1] = served
    return CumulativeFlow.from_cumulative_points(np.array(verts_t), np.array(verts_m))


@dataclass(frozen=True)
class ArcPerformanceModel(ArcModel):
    """Travel time driven by the volume of users currently on the arc.

    The delay function is piecewise linear, strictly increasing, defined from
    volume 0 and extended beyond its last breakpoint with its final slope.
    """

    volumes: tuple[float, ...]
    delays: tuple[float, ...]
    kind = "arc_performance"

    def __post_init__(self):
        vols = tuple(float(v) for v in self.volumes)
        dels = tuple(float(d) for d in self.delays)
        object.__setattr__(self, "volumes", vols)
        object.__setattr__(self, "delays", dels)
        if len(vols) != len(dels) or len(vols) < 2:
            raise ModelParameterError("delay function needs >= 2 (volume, time) points")
        if vols[0] != 0.0:
            raise ModelParameterError("delay function must start at volume 0")
        if dels[0] <= 0.0:
            raise ModelParameterError("empty-arc delay must be positive")
        if np.any(np.diff(vols) <= 0) or np.any(np.diff(dels) <= 0):
            raise ModelParameterError("delay function must be strictly increasing")

    @staticmethod
    def affine(base: float, slope: float, up_to_volume: float = 64.0) -> "ArcPerformanceModel":
        """Delay ``base + slope * volume`` (as two breakpoints plus extension)."""
        if slope <= 0:
            raise ModelParameterError("affine delay needs a positive slope")
        return ArcPerformanceModel(
            (0.0, up_to_volume), (base, base + slope * up_to_volume)
        )

    def _delay_map(self) -> PiecewiseLinearMap:
        xs = np.array(self.volumes)
        ys = np.array(self.delays)
        lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
        hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return PiecewiseLinearMap(xs, ys, lo, hi)

    @property
    def t_min(self) -> float:
        return self.delays[0]

    def t_max(self, mass: float) -> float:
        return self._delay_map().value(max(0.0, mass))

    def continuity_modulus(self, mass: float, delta: float) -> float:
        dmap = self._delay_map()
        slopes = [dmap.hi_slope]
        for a, b, da, db in zip(
            self.volumes[:-1], self.volumes[1:], self.delays[:-1], self.delays[1:]
        ):
            if a < mass + delta:
                slopes.append((db - da) / (b - a))
        return 2.0 * delta * max(slopes)

    def exit_profile(self, inflow: CumulativeFlow) -> ExitProfile:
        d_min = self.t_min
        dmap = self._delay_map()
        if inflow.is_zero:
            return ExitProfile(ExitTimeCurve.shift(d_min), CumulativeFlow.zero())
        h0 = float(inflow.times[0])
        h_last = float(inflow.times[-1])
        total = inflow.total
        tiny = 1e-12 * (1.0 + total)
        budget = math.ceil((h_last - h0 + 2.0 * self.t_max(total) + 5.0 * d_min) / d_min) + 3

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


def _volume_exit_map(
    inflow: CumulativeFlow,
    exits: CumulativeFlow,
    dmap: PiecewiseLinearMap,
    h0: float,
    frontier: float,
) -> ExitTimeCurve:
    """Exit map h -> h + delay(volume on arc at h), exact on [h0, frontier]."""
    ts = np.concatenate([[h0, frontier], inflow.times, exits.times])
    base = sorted_set(ts[(ts >= h0) & (ts <= frontier)])

    def vol_right(x: np.ndarray) -> np.ndarray:
        return _positive_part(inflow.values(x) - exits.values(x))

    def vol_left(x: np.ndarray) -> np.ndarray:
        return _positive_part(inflow.left_values(x) - exits.left_values(x))

    # refine with crossings of the delay function's volume breakpoints: the
    # volume is linear from a to b, and the delay has only a few breakpoints
    a, b = base[:-1, None], base[1:, None]
    va, vb = vol_right(base[:-1])[:, None], vol_left(base[1:])[:, None]
    lo, hi = np.minimum(va, vb), np.maximum(va, vb)
    levels = dmap.xs[None, :]
    with np.errstate(all="ignore"):
        x = a + (levels - va) * (b - a) / (vb - va)
    crossing = (hi > lo) & (lo < levels) & (levels < hi) & (a < x) & (x < b)
    xs_in = sorted_set(np.concatenate([base, x[crossing]]))

    yl = xs_in + dmap.values(vol_left(xs_in))
    yr = xs_in + dmap.values(vol_right(xs_in))
    # (x, yl) at every instant, then (x, yr) where the curve jumps
    keep = np.ones(2 * xs_in.size, dtype=bool)
    keep[1::2] = yr != yl
    xs = np.repeat(xs_in, 2)[keep]
    ys = np.column_stack([yl, yr]).ravel()[keep]
    return ExitTimeCurve(xs, ys, 1.0, 1.0)


# -- conformance --------------------------------------------------------------


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class ConformanceReport:
    model: str
    probes: int
    checks: dict[str, AssumptionCheck] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]


def _random_probe_inflow(rng: np.random.Generator, horizon: Horizon, atoms: bool) -> CumulativeFlow:
    parts = []
    h = horizon.end
    for _ in range(int(rng.integers(1, 4))):
        a = float(rng.uniform(0.0, 0.8 * h))
        b = a + float(rng.uniform(0.05 * h, 0.5 * h))
        parts.append(CumulativeFlow.constant_rate(a, min(b, h), float(rng.uniform(0.1, 3.0))))
    if atoms and rng.random() < 0.4:
        parts.append(CumulativeFlow.atom_at(float(rng.uniform(0.0, h)), float(rng.uniform(0.1, 2.0))))
    return sum_flows(parts)


def check_assumptions(
    model: ArcModel,
    probes: int,
    seed: int,
    horizon: Horizon,
    allow_atom_probes: bool = True,
) -> ConformanceReport:
    """Numerically probe a model for its behavioural contract.

    Violations become failed report entries, never exceptions.  Continuity is
    only ever checked statistically: a small extra inflow must move the exit
    curve by no more than a model-declared modulus (with generous slack).
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    report = ConformanceReport(model=getattr(model, "kind", type(model).__name__), probes=probes)

    worst = {
        "continuity": 0.0,
        "no_infinite_speed": 0.0,
        "finiteness": 0.0,
        "strict_fifo": 0.0,
        "causality": 0.0,
    }
    ok = {k: True for k in worst}
    notes = {k: "" for k in worst}

    for _ in range(probes):
        inflow = _random_probe_inflow(rng, horizon, allow_atom_probes)
        total = inflow.total
        try:
            curve = model.exit_curve(inflow)
        except Exception as exc:  # a model that cannot load its probe fails FIFO-style checks
            for k in ("strict_fifo", "continuity"):
                ok[k] = False
                notes[k] = f"exit curve construction failed: {exc}"
            continue
        t0, t1 = inflow.support()
        grid = np.unique(np.concatenate([
            curve.xs,
            np.linspace(t0 - 1.0, t1 + 1.0, 41),
        ]))

        # no infinite speed / finiteness
        tt = np.array([curve.travel_time(float(x)) for x in grid])
        viol = model.t_min - tt.min()
        worst["no_infinite_speed"] = max(worst["no_infinite_speed"], viol)
        if viol > 1e-12 * (1 + model.t_min):
            ok["no_infinite_speed"] = False
        cap = model.t_max(total)
        viol = tt.max() - cap
        worst["finiteness"] = max(worst["finiteness"], viol)
        if viol > 1e-9 * (1 + cap):
            ok["finiteness"] = False

        # strict FIFO across mass-carrying pairs
        for _ in range(8):
            h1, h2 = sorted(rng.uniform(t0, t1, size=2))
            if h2 <= h1 or inflow.mass_between(h1 - 1e-15, h2) <= 1e-9 * (1 + total):
                continue
            gap = curve.value(h2) - curve.value(h1)
            worst["strict_fifo"] = max(worst["strict_fifo"], -gap)
            if gap <= 0.0:
                ok["strict_fifo"] = False
                notes["strict_fifo"] = f"exit order reversed on [{h1:.4g}, {h2:.4g}]"

        # causality: cutting future inflow must not change earlier travel times
        h_cut = float(rng.uniform(t0, t1))
        try:
            cut_curve = model.exit_curve(inflow.restrict(h_cut))
        except Exception as exc:
            ok["causality"] = False
            notes["causality"] = f"restricted load failed: {exc}"
            cut_curve = None
        if cut_curve is not None:
            for h_q in np.linspace(t0 - 0.5, h_cut, 7):
                diff = abs(cut_curve.value(float(h_q)) - curve.value(float(h_q)))
                worst["causality"] = max(worst["causality"], diff)
                if diff > 1e-9:
                    ok["causality"] = False

        # continuity: a small extra trickle moves the curve by a bounded amount
        delta = 1e-3 * (1.0 + total)
        bump_a = float(rng.uniform(t0, t1))
        bump_b = bump_a + 0.1 * (t1 - t0 + 1.0)
        bumped = sum_flows([
            inflow,
            CumulativeFlow.constant_rate(bump_a, bump_b, delta / (bump_b - bump_a)),
        ])
        try:
            curve2 = model.exit_curve(bumped)
        except Exception as exc:
            ok["continuity"] = False
            notes["continuity"] = f"perturbed load failed: {exc}"
            continue
        bound = 4.0 * model.continuity_modulus(total, delta) + 1e-9
        sup = max(abs(curve2.value(float(x)) - curve.value(float(x))) for x in grid)
        worst["continuity"] = max(worst["continuity"], sup - bound)
        if sup > bound:
            ok["continuity"] = False
            notes["continuity"] = f"curve moved {sup:.3g} > bound {bound:.3g}"

    for k in worst:
        report.checks[k] = AssumptionCheck(k, ok[k], worst[k], notes[k])
    return report
