"""Arc travel-time models: entry time -> exit time, given the arc's inflow.

Three concrete models are provided.

* ``ConstantModel``: a fixed traversal time, independent of the inflow.
* ``ArcPerformanceModel``: traversal time is a strictly increasing function of
  the volume currently on the arc.  Exit times come from one sweep over entry
  time: every exit at time h stems from an entry before h minus the empty-arc
  delay, so the on-arc volume at h is known when the sweep reaches h.  The
  sweep steps from event to event (inflow vertices, kinks of the cumulative
  exits, crossings of the delay function's breakpoints), and between events
  all curves are linear, so the construction is exact (no time grid).  The
  exits it builds are the arc's outflow: no second pass pushes inflow forward.
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

import numpy as np

from .curves import ExitTimeCurve, PiecewiseLinearMap
from .errors import FifoViolation, ModelParameterError, NonTermination
# pushforward is bound here for the benchmark's tracer only (ROADMAP item 6)
from .flows import MERGE_TOL, CumulativeFlow, Horizon, _build, pushforward, sum_flows


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
        """Newell's closed form D(t) = min over u <= t of A(u-) + mu (t - u),
        in one array pass over the vertices of the arrivals A, the inflow
        shifted by the free-flow time; A is linear between them.

        A queue stands at a vertex when it exceeds 1e-12 (1 + total) and
        takes a representable time to serve.  There the departures run at
        capacity until it clears; elsewhere they follow A, atoms included.
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

        # outflow: vertices at the arrival instants and where a queue clears,
        # with exact slopes (mu while a queue stands, lambda otherwise), and
        # values capped from the right, so that none exceeds a later one
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
        outflow = _build(times, np.minimum.accumulate(values[::-1])[::-1], out_atoms, rates)

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
        return ExitProfile(ExitTimeCurve(xs, ys, 1.0, 1.0), outflow)


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
        if inflow.is_zero:
            return ExitProfile(ExitTimeCurve.shift(d_min), CumulativeFlow.zero())
        # every user has left by h_last + t_max(total); the sweep gives up
        # another t_max(total) + 8 t_min later
        h_limit = float(inflow.times[-1]) + 2.0 * self.t_max(inflow.total) + 8.0 * d_min
        xs, ys, et, e_lo, e_hi = _volume_exit_sweep(inflow, self._delay_map(), h_limit)
        curve = ExitTimeCurve(np.array(xs), np.array(ys), 1.0, 1.0)
        return ExitProfile(curve, CumulativeFlow.from_vertices(et, e_lo, e_hi))


def _volume_exit_sweep(
    inflow: CumulativeFlow, dmap: PiecewiseLinearMap, h_limit: float
) -> tuple[list[float], list[float], list[float], list[float], list[float]]:
    """Vertices ``(xs, ys)`` of the exit map h -> h + delay(volume on the arc
    at h), and the grouped vertices ``(et, e_lo, e_hi)`` of the exits E.

    One sweep over entry time h.  The volume is A - E, inflow minus exits.
    Every exit at time h stems from an entry before h - t_min, so the exits
    up to h are known when the sweep reaches h.  Between events A and E are
    linear, and so is the map.  The events are the inflow's vertices, the
    vertices of E found so far, and the instants where the volume crosses a
    breakpoint of the delay function.  Each event h adds (h, y_left) to the
    map and, where it jumps, (h, y_right); its entries' exits extend E by
    ``pushforward``'s rule, except that a vertex of E that changes no mass
    on either side moves on instead of staying as an event.  The sweep ends
    once every inflow vertex is done and E holds the total; beyond, the map
    extends with slope 1.  E is the arc's outflow; ``pushforward`` of the
    inflow under the map reads it again, up to rounding in its exit times.

    FIFO is checked as ``pushforward`` checks it, against the exit front at
    samples: the events, and the instants h0 + k * t_min before the inflow
    ends, where the map is checked without adding a vertex.  The fixed point
    over blocks of length t_min in ``tests/loop_reference.py`` checks the
    same samples, each against the mass that entered by the end of its
    block, so the two raise alike.  Those block-end samples and tolerances
    (``block_tolerance``, ``check_until``) belong to the old algorithm, not
    to the model: they go once the FIFO contract is settled (ROADMAP, "Do
    first").

    Raises:
        FifoViolation: positive mass is sent backwards or onto one instant.
        NonTermination: the next event lies beyond ``h_limit``.
    """
    # Python floats throughout: the vertices number a few hundred, and the
    # per-call cost of numpy would outweigh the arithmetic
    ts, cums = inflow.times.tolist(), inflow.cums.tolist()
    atoms, slopes = inflow.atoms.tolist(), inflow.slopes.tolist()
    n, total, h_last = len(ts), cums[-1], ts[-1]
    # the delay on [levels[k], levels[k + 1]) is delays[k] + (v - levels[k]) * rise[k] / run[k],
    # as dmap.value reads it; the last piece extends with dmap's final slope
    levels, delays = dmap.xs.tolist(), dmap.ys.tolist()
    rise = [b - a for a, b in zip(delays, delays[1:])] + [dmap.hi_slope]
    run = [b - a for a, b in zip(levels, levels[1:])] + [1.0]
    d_min = delays[0]

    def delay(v: float) -> float:
        """``dmap.value(v)`` for a volume v >= 0."""
        k = bisect_right(levels, v) - 1
        return delays[k] + (v - levels[k]) * rise[k] / run[k]

    # E's vertices, grouped as pushforward groups them: at et[k] E rises from
    # e_lo[k] to e_hi[k], and it is linear in between.  (lt, lm, lu) is
    # pushforward's exit front: the latest exit sampled, its mass and its
    # entry time.
    h = ts[0]
    lt, lm, lu = h + d_min, 0.0, h
    et, e_lo, e_hi = [lt], [0.0], [0.0]
    one_sample = True  # the last vertex of E holds a single sample

    def refuse(tau: float, dm: float, u: float) -> None:
        """Raise as pushforward does for mass dm > tiny exiting at tau <= lt."""
        if tau < lt - MERGE_TOL:
            raise FifoViolation(f"map sends mass {dm:.3g} backwards near entry time {u:.6g}")
        if u > lu:
            raise FifoViolation(f"map is constant over a positive-mass interval ending at {u:.6g}")

    def emit(tau: float, m: float, u: float) -> None:
        """Pass the exit sample (tau, m), from entry time u, through
        pushforward's FIFO filter and grouping."""
        nonlocal lt, lm, lu, one_sample
        if tau > lt:
            if tau > et[-1] + MERGE_TOL:
                if one_sample and m <= lm and (len(et) == 1 or e_hi[-2] >= lm) and et[-1] > h:
                    # the last vertex changes no mass on either side, so it is
                    # no kink of E; a rounding dip counts as no change, as
                    # from_vertices lifts it, and E is 0 before its first
                    # vertex.  The sweep has not passed it, so it moves
                    et[-1] = tau
                else:
                    et.append(tau)
                    e_lo.append(m)
                    e_hi.append(m)
                    one_sample = True
            else:
                e_hi[-1] = m
                one_sample = False
            lt, lm, lu = tau, m, u
            return
        dm = m - lm
        if dm <= tiny:
            # monotone wobble or flat stretch over zero mass: keep the level
            if m > lm:
                lm, lu = m, u
                e_hi[-1] = m
                if one_sample:
                    e_lo[-1] = m
            return
        refuse(tau, dm, u)
        # atom of the inflow: vertical rise at one exit instant
        lm, lu = m, u
        e_hi[-1] = m
        one_sample = False

    def sample(y_left: float, y_right: float, a_left: float, a_right: float) -> None:
        """The exit samples of entry instant h: left limit, flat stretch, atom."""
        if h <= h_last:
            emit(y_left, a_left, h)
            if y_right > y_left:
                emit(y_right, a_left, h)
            if a_right > a_left:
                emit(y_right, a_right, h)

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

    def block_tolerance(end: float) -> float:
        """pushforward's tolerance for the inflow up to the block end: the
        mass that entered by then, or all of it."""
        if end >= h_last:
            return 1e-12 * (1.0 + total)
        j = bisect_right(ts, end) - 1
        return 1e-12 * (1.0 + cums[j] + slopes[j] * (end - ts[j]))

    def check_until(x: float) -> None:
        """Check FIFO at the instants h0 + k * t_min before the event x, as
        samples of the map's stretch from h that add no vertex."""
        nonlocal check_at, tiny
        while check_at < x and check_at < h_last:
            if check_at > h:
                a = cums[i - 1] + rate * (check_at - ts[i - 1])
                tau = check_at + delay(max(0.0, a - exits_at(check_at)))
                if tau <= lt and a - lm > tiny:
                    refuse(tau, a - lm, check_at)
            check_at += d_min
            tiny = block_tolerance(check_at)

    xs: list[float] = []
    ys: list[float] = []
    i, q = 1, 0  # vertices of A and of E at or before h
    a_left, a_right, e_left, e_right = 0.0, cums[0], 0.0, 0.0
    # the first instant h0 + k * t_min at or after h, and the tolerance of
    # the samples up to it
    check_at = h + d_min
    tiny = block_tolerance(check_at)
    while True:
        rate = slopes[i - 1]
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
        sample(y_left, y_right, a_left, a_right)
        if i == n and e_right >= total - 1e-12 * (1.0 + total):
            return xs, ys, et, e_lo, e_hi

        # the next vertex of A or E, and the left limits there
        t_a = ts[i] if i < n else math.inf
        t_e = et[q] if q < len(et) else math.inf
        nxt = t_a if t_a < t_e else t_e
        if nxt > h_limit:
            raise NonTermination("volume-delay propagation did not drain; check the delay function")
        a_b = cums[i] - atoms[i] if t_a == nxt else cums[i - 1] + rate * (nxt - ts[i - 1])
        e_b = exits_at(nxt)
        vb = a_b - e_b if a_b > e_b else 0.0

        # up to nxt the volume is linear: its crossings of the delay's
        # breakpoints, in order, are events too.  The delay there is read from
        # the volume at x, not taken as the level's: an inflow whose stored
        # values and slopes disagree by rounding (up to rate * MERGE_TOL after
        # a merged cluster) reaches the level a little off x
        k, kb = bisect_right(levels, v_right) - 1, bisect_right(levels, vb) - 1
        if kb != k:
            start = h
            for j in range(k + 1, kb + 1) if vb > v_right else range(k, kb, -1):
                x = start + (levels[j] - v_right) * (nxt - start) / (vb - v_right)
                if h < x < nxt:
                    check_until(x)
                    h, a = x, cums[i - 1] + rate * (x - ts[i - 1])
                    y = x + delay(max(0.0, a - exits_at(x)))
                    xs.append(x)
                    ys.append(y)
                    sample(y, y, a, a)
        if check_at < nxt:
            check_until(nxt)

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
