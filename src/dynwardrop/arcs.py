"""Arc travel-time models: entry time -> exit time, given the arc's inflow.

Three concrete models are provided.

* ``ConstantModel``: a fixed traversal time, independent of the inflow.
* ``ArcPerformanceModel``: traversal time is a strictly increasing function of
  the volume currently on the arc.  Exit times come from one sweep over entry
  time: every exit at time h stems from an entry before h minus the empty-arc
  delay, so the on-arc volume at h is known when the sweep reaches h.  The
  sweep steps from event to event (inflow vertices, kinks and atoms of the
  cumulative exits, crossings of the delay function's breakpoints), and
  between events all curves are linear, so the construction is exact (no
  time grid).  Its exit samples where mass enters pass through the grouping
  of ``pushforward`` (``flows._ExitFront``), and the exits they build are
  the arc's outflow: no second pass pushes inflow forward.  FIFO is over
  users, the entry instants that carry mass; it holds where D'(v) (e - a)
  <= 1, with D the delay function and a, e the entry and exit rates.  The
  sweep then checks FIFO as ``pushforward`` does: where later mass overtakes
  earlier mass, as when a departing atom drops the volume, it raises
  ``FifoViolation``.
* ``BottleneckModel``: a free-flow time followed by a server of finite
  capacity; a point queue forms whenever arrivals outrun the capacity.  The
  cumulative departures are Newell's closed form, read at the arrivals'
  vertices in one array pass; an entrant leaves after the queue ahead of it.

Every model declares a positive lower bound ``t_min`` on its travel time and a
finite envelope ``t_max(mass)`` valid for any inflow of that total mass, and a
``check_assumptions`` routine probes a model numerically for the behavioural
contract the loading algorithms rely on (continuity, bounded speeds,
finiteness, strict FIFO over mass-carrying intervals, causality).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .curves import ExitTimeCurve, PiecewiseLinearMap, sorted_set
from .errors import ModelParameterError, NonTermination
# pushforward is bound here for the benchmark's tracer only (ROADMAP item 5)
from .flows import CumulativeFlow, Horizon, _build, _check_exits, _ExitFront, pushforward, sum_flows


class ExitProfile:
    """Exit behaviour of an arc under a given total inflow: the exit-time
    curve, and the total outflow measure.

    The outflow is passed in, or a zero-argument builder that makes it on
    first read; that result is kept.  A load reads the outflow only where a
    route goes on, so an arc where every route ends builds it only when
    asked.
    """

    __slots__ = ("curve", "_outflow")

    def __init__(self, curve: ExitTimeCurve,
                 outflow: CumulativeFlow | Callable[[], CumulativeFlow]):
        self.curve = curve
        self._outflow = outflow

    @property
    def outflow(self) -> CumulativeFlow:
        if not isinstance(self._outflow, CumulativeFlow):
            self._outflow = self._outflow()
        return self._outflow


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
        """Exit-time curve plus the total outflow measure for this inflow.

        Whatever can fail is computed and checked at once; the outflow may be
        left to a builder that only assembles what is already checked.
        """

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
        """Newell's closed form D(t) = min over u <= t of A(u-) + mu (t - u),
        in one array pass over the vertices of the arrivals A, the inflow
        shifted by the free-flow time; A is linear between them.

        A queue stands at a vertex when it exceeds 1e-12 (1 + total) and
        takes a representable time to serve.  There the departures run at
        capacity until it clears; elsewhere they follow A, atoms included.
        The curve is built here, the departures on the outflow's first read.
        """
        c, mu = self.free_flow_time, self.capacity
        if inflow.is_zero:
            return ExitProfile(ExitTimeCurve.shift(c), CumulativeFlow.zero())
        h, cums, atoms, lam = inflow.times, inflow.cums, inflow.atoms, inflow.slopes
        s, lefts = h + c, cums - atoms
        ms = mu * s
        line = ms + np.minimum.accumulate(lefts - ms)
        queue = cums - line
        busy = (queue > 1e-12 * (1.0 + inflow.total)) & (s + queue / mu > s)
        depart = np.where(busy, line, cums)
        # a queue that arrivals below capacity let clear, before the next
        # arrival instant; after the last one, whatever stands drains
        clears = busy & (lam < mu)
        wait = np.zeros(s.size)
        np.divide(queue, mu - lam, out=wait, where=clears)
        t_clear = s + wait
        clears[:-1] &= t_clear[:-1] < s[1:]

        # exit curve: (h, y_left) at each entry instant, (h, y_right) where an
        # atom makes it jump, then (t_clear - c, t_clear) where rounding keeps
        # that entry instant strictly inside its segment
        y_left = s + _positive_part(lefts - depart) / mu
        y_right = s + _positive_part(cums - depart) / mu
        h_clear = t_clear - c
        inside = clears & (h_clear > h)
        inside[:-1] &= h_clear[:-1] < h[1:]
        xs, ys = _interleave(
            (True, y_right != y_left, inside), (h, h, h_clear), (y_left, y_right, t_clear)
        )
        return ExitProfile(ExitTimeCurve(xs, ys, 1.0, 1.0), partial(
            _queue_outflow, mu, s, cums, lefts, atoms, lam, busy, depart, clears, t_clear
        ))


def _queue_outflow(mu, s, cums, lefts, atoms, lam, busy, depart, clears, t_clear) -> CumulativeFlow:
    """The bottleneck's departures from its arrival instants s and its queue
    pass: vertices at those instants and where a queue clears, with exact
    slopes (mu while a queue stands, lambda otherwise), and values capped from
    the right, so that none exceeds a later one."""
    passed = np.where(busy, 0.0, atoms)
    last = np.ones(s.size, dtype=bool)
    last[:-1] = s[1:] > s[:-1]
    if not last.all():
        # entry instants closer than the shift's rounding arrive at once
        passed[last] = np.where(busy[last], 0.0, cums[last] - lefts[np.roll(last, 1)])
    times, values, out_atoms, rates = _interleave(
        (last, clears), (s, t_clear), (depart, cums + lam * (t_clear - s)),
        (passed, 0.0), (np.where(busy | (lam > mu), mu, lam), lam),
    )
    return _build(times, np.minimum.accumulate(values[::-1])[::-1], out_atoms, rates)


def _interleave(keep, *rows) -> np.ndarray:
    """Row r interleaves the columns of ``rows[r]`` entry by entry, keeping
    ``rows[r][j][k]`` where ``keep[j][k]`` holds; scalars broadcast."""
    n = rows[0][0].size
    mask = np.empty((n, len(keep)), dtype=bool)
    out = np.empty((len(rows), n, len(keep)))
    for j, k in enumerate(keep):
        mask[:, j] = k
        for r, row in enumerate(rows):
            out[r, :, j] = row[j]
    return out.reshape(len(rows), -1)[:, mask.ravel()]


def _positive_part(v: np.ndarray) -> np.ndarray:
    """``max(0.0, v)`` elementwise, the same bits as the scalar builtin."""
    return np.where(v > 0.0, v, 0.0)


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
    def affine(base: float, slope: float) -> "ArcPerformanceModel":
        """Delay ``base + slope * volume``: breakpoints at volumes 0 and 64,
        extended with the same slope."""
        if slope <= 0:
            raise ModelParameterError("affine delay needs a positive slope")
        return ArcPerformanceModel((0.0, 64.0), (base, base + slope * 64.0))

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
        if inflow.is_zero:
            return ExitProfile(ExitTimeCurve.shift(d_min), CumulativeFlow.zero())
        # every user has left by h_last + t_max(total); the sweep gives up
        # another t_max(total) + 8 t_min later
        h_limit = float(inflow.times[-1]) + 2.0 * self.t_max(inflow.total) + 8.0 * d_min
        curve, et, e_lo, e_hi = _volume_exit_sweep(inflow, self._delay_map(), h_limit)
        # the sweep has checked the exits; they become a flow on first read
        return ExitProfile(curve, partial(CumulativeFlow.from_vertices, et, e_lo, e_hi))


def _volume_exit_sweep(
    inflow: CumulativeFlow, dmap: PiecewiseLinearMap, h_limit: float
) -> tuple[ExitTimeCurve, list[float], list[float], list[float]]:
    """The exit map h -> h + delay(volume on the arc at h), and the grouped
    vertices ``(et, e_lo, e_hi)`` of the exits E.

    One sweep over entry time h.  The volume is A - E, inflow minus exits.
    Every exit at time h stems from an entry before h - t_min, so the exits
    up to h are known when the sweep reaches h.  Between events A and E are
    linear, and so is the map.  The events are the inflow's vertices, the
    kinks and atoms of E found so far, and the instants where the volume
    crosses a breakpoint of the delay function.  Each event h adds
    (h, y_left) to the map and, where it jumps, (h, y_right), and passes the
    exit samples of the mass entering there through ``flows._ExitFront``,
    the grouping ``pushforward`` uses, which builds E; an empty instant adds
    no vertex to E.  A vertex of E that holds no atom and leaves E flat on
    both sides, where entering mass rounds away, is no kink, and the sweep
    steps over it.  The sweep ends once every inflow vertex is done and E
    holds the total; beyond, the map extends with slope 1.  E is the arc's
    outflow; ``pushforward`` of the inflow under the map reads it again, up
    to rounding in its exit times.

    Raises:
        FifoViolation: once the sweep ends, ``flows._check_exits`` reads
            the map and E, and finds FIFO broken.
        NonTermination: the next event lies beyond ``h_limit``.
    """
    # Python floats throughout: the vertices number a few hundred, and the
    # per-call cost of numpy would outweigh the arithmetic
    ts, cums = inflow.times.tolist(), inflow.cums.tolist()
    atoms, slopes = inflow.atoms.tolist(), inflow.slopes.tolist()
    n, total = len(ts), cums[-1]
    # the delay on [levels[k], levels[k + 1]) is delays[k] + (v - levels[k]) * rise[k] / run[k],
    # as dmap.value reads it; the last piece extends with dmap's final slope
    levels, delays = dmap.xs.tolist(), dmap.ys.tolist()
    rise = [b - a for a, b in zip(delays, delays[1:])] + [float(dmap.hi_slope)]
    run = [b - a for a, b in zip(levels, levels[1:])] + [1.0]

    def delay(v: float) -> float:
        """``dmap.value(v)`` for a volume v >= 0."""
        k = bisect_right(levels, v) - 1
        return delays[k] + (v - levels[k]) * rise[k] / run[k]

    def exits_at(t: float) -> float:
        """E(t-), for t after the first q vertices of E, up to the next one."""
        if q == len(et):
            return e_hi[-1]
        if et[q] == t:
            return e_lo[q]
        if q == 0:
            return 0.0
        d = e_lo[q] - e_hi[q - 1]
        return e_hi[q - 1] + d / (et[q] - et[q - 1]) * (t - et[q - 1]) if d > 0.0 else e_hi[q - 1]

    # E starts at the first exit, that of the first instant's right limit
    h = ts[0]
    tiny = 1e-12 * (1.0 + total)
    front = _ExitFront(h + delay(cums[0]), 0.0, tiny)
    et, e_lo, e_hi = front.et, front.e_lo, front.e_hi
    sample, add = front.sample, front.add
    xs: list[float] = []
    ys: list[float] = []
    i, q = 1, 0  # vertices of A and of E at or before h
    a_left, a_right, e_left, e_right = 0.0, cums[0], 0.0, 0.0
    rate = 0.0
    while True:
        # the inflow's density before h and after it
        before, rate = rate > 0.0, slopes[i - 1]
        v_left = a_left - e_left if a_left > e_left else 0.0
        y_left = h + delay(v_left)
        v_right = a_right - e_right if a_right > e_right else 0.0
        if v_right != v_left:
            y_right = h + delay(v_right)
            xs += (h, h)
            ys += (y_left, y_right)
        else:
            y_right = y_left
            xs.append(h)
            ys.append(y_left)
        sample(y_left, y_right, a_left, a_right, before, rate > 0.0)
        if i == n and e_right >= total - tiny:
            x, y = np.array(xs), np.array(ys)
            # every inflow vertex is an event: the knots are the map's vertices
            # up to the last, a jump read from its first value and its last
            new, upto = x[1:] != x[:-1], x <= ts[-1]
            first, last = np.append(True, new) & upto, np.append(new, True) & upto
            _check_exits(inflow, x[first], y[first], y[last], front)
            return ExitTimeCurve(x, y, 1.0, 1.0), et, e_lo, e_hi

        # the next vertex of A or E, and the left limits there.  A vertex of E
        # with no atom and E flat on both sides (0 before the first) is no
        # kink: once the vertex after it is known, the sweep steps over it
        t_a = ts[i] if i < n else math.inf
        n_e = len(et)
        t_e = et[q] if q < n_e else math.inf
        while (
            t_e < t_a and (e_hi[q - 1] if q else 0.0) >= e_lo[q]
            and q + 1 < n_e and e_lo[q + 1] <= e_hi[q] <= e_lo[q]
        ):
            q += 1
            t_e = et[q]
        nxt = t_a if t_a < t_e else t_e
        if nxt > h_limit:
            raise NonTermination("volume-delay propagation did not drain; check the delay function")
        a_b = cums[i] - atoms[i] if t_a == nxt else cums[i - 1] + rate * (nxt - ts[i - 1])
        e_b = exits_at(nxt)
        vb = a_b - e_b if a_b > e_b else 0.0

        # up to nxt the volume is linear: its crossings of the delay's
        # breakpoints, in order, are events too.  The delay there is read from
        # the volume at x, not taken as the level's: an inflow whose stored
        # values and slopes disagree by rounding reaches the level a little
        # off x
        k, kb = bisect_right(levels, v_right) - 1, bisect_right(levels, vb) - 1
        if kb != k:
            start = h
            for j in range(k + 1, kb + 1) if vb > v_right else range(k, kb, -1):
                x = start + (levels[j] - v_right) * (nxt - start) / (vb - v_right)
                if h < x < nxt:
                    h, a = x, cums[i - 1] + rate * (x - ts[i - 1])
                    y = x + delay(max(0.0, a - exits_at(x)))
                    xs.append(x)
                    ys.append(y)
                    if rate > 0.0:
                        add(y, a)

        # step to nxt
        h = nxt
        a_left = a_right = a_b
        if t_a == nxt:
            a_right = cums[i]
            i += 1
        e_left = e_right = e_b
        if t_e == nxt:
            e_right = e_hi[q]
            q += 1


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
        grid = sorted_set(np.concatenate([
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
