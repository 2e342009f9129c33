"""Flows over the time axis stored as piecewise-linear cumulative curves.

A flow is a finite nonnegative measure on the real line.  It is stored through
its cumulative curve ``F(h) = mass of ]-inf, h]``, which is nondecreasing,
right-continuous, piecewise linear between breakpoints and constant after the
last one.  A point mass (atom) shows up as an upward jump of the curve.

The stored data is redundant on purpose: each breakpoint carries its time, the
cumulative value reached there, the atom mass concentrated at it, and the
constant density on the interval to the next breakpoint.  Keeping the segment
densities as primary data (instead of re-deriving them from endpoint values)
makes restriction exactly idempotent: cutting a curve twice produces the same
bits as cutting it once, because evaluation inside a segment only ever uses
the segment's left endpoint and its stored density.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .curves import sorted_set
from .errors import FifoViolation

#: Two instants are the same where they lie within ``MERGE_TOL * (1 + |t|)``
#: of each other, t either one: rounding twins, never distinct vertices.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Horizon:
    """The study period [0, end], in seconds."""

    end: float

    def __post_init__(self):
        if not self.end > 0:
            raise ValueError(f"horizon end must be positive, got {self.end}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CumulativeFlow:
    """A finite measure on the time axis, held as a cumulative curve.

    Attributes:
        times: breakpoint instants, strictly increasing.
        cums: cumulative mass at each breakpoint (right-continuous, so the
            value includes the atom sitting there).
        atoms: point mass concentrated at each breakpoint, >= 0.
        slopes: constant density on ``[times[i], times[i+1])``; the last entry
            is 0 (the curve is constant after its final breakpoint).
    """

    times: np.ndarray
    cums: np.ndarray
    atoms: np.ndarray
    slopes: np.ndarray

    # -- construction -----------------------------------------------------

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times))
        object.__setattr__(self, "cums", _freeze(self.cums))
        object.__setattr__(self, "atoms", _freeze(self.atoms))
        object.__setattr__(self, "slopes", _freeze(self.slopes))

    @staticmethod
    def zero() -> "CumulativeFlow":
        """The zero measure: one shared instance, its arrays read-only."""
        return _ZERO

    @staticmethod
    def atom_at(time: float, mass: float) -> "CumulativeFlow":
        """A single point mass."""
        if mass < 0:
            raise ValueError("atom mass must be nonnegative")
        if mass == 0:
            return CumulativeFlow.zero()
        return CumulativeFlow(
            np.array([float(time)]), np.array([float(mass)]),
            np.array([float(mass)]), np.array([0.0]),
        )

    @staticmethod
    def constant_rate(start: float, end: float, rate: float) -> "CumulativeFlow":
        """Mass flowing at a constant rate over [start, end)."""
        return CumulativeFlow.piecewise_rate([(start, end, rate)])

    @staticmethod
    def piecewise_rate(segments: Iterable[tuple[float, float, float]]) -> "CumulativeFlow":
        """Absolutely continuous flow from (start, end, rate) segments.

        Segments may overlap; rates add where they do.
        """
        segs = [(float(a), float(b), float(r)) for a, b, r in segments]
        for a, b, r in segs:
            if b <= a:
                raise ValueError(f"segment end must exceed start: ({a}, {b})")
            if r < 0:
                raise ValueError(f"negative rate {r}")
        segs = [s for s in segs if s[2] > 0]
        if not segs:
            return CumulativeFlow.zero()
        starts, ends, seg_rates = np.array(segs).T
        bounds = sorted_set(np.concatenate([starts, ends]))
        mids = (bounds[:-1] + bounds[1:]) / 2
        # (segment, piece) pairs in row-major order, so each piece adds the
        # rates of its covering segments in input order
        seg, piece = np.nonzero((mids > starts[:, None]) & (mids < ends[:, None]))
        rates = np.zeros(len(mids))
        np.add.at(rates, piece, seg_rates[seg])
        times = bounds
        slopes = np.append(rates, 0.0)
        cums = np.concatenate([[0.0], np.cumsum(rates * np.diff(bounds))])
        atoms = np.zeros_like(times)
        return _build(times, cums, atoms, slopes)

    @staticmethod
    def from_bins(edges: np.ndarray, masses: np.ndarray) -> "CumulativeFlow":
        """Absolutely continuous flow spreading each ``masses[b]`` evenly over
        ``[edges[b], edges[b + 1])``.

        A bin without mass adds 0.0 to the cumulative curve, and its
        vertices, which change no slope, are dropped.

        Raises:
            ValueError: a mass is negative, or the edges do not increase.
        """
        edges = np.asarray(edges, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if (masses < 0).any():
            raise ValueError("bin masses must be nonnegative")
        widths = edges[1:] - edges[:-1]
        if (widths <= 0).any():
            raise ValueError("bin edges must be strictly increasing")
        return _from_rates(edges, masses / widths)

    @staticmethod
    def from_vertices(
        times: Sequence[float], lefts: Sequence[float], values: Sequence[float]
    ) -> "CumulativeFlow":
        """The flow whose curve passes through computed vertices.

        Vertex i sits at ``times[i]``, which must increase strictly; the curve
        comes in at ``lefts[i]`` and leaves at ``values[i]``.  The rule:

        - the atom at a vertex is its value minus its left limit;
        - the density up to the next vertex is the rise from this value to
          that vertex's left limit, divided by the gap in time, and a
          negative rise counts as 0;
        - values are lifted to their running maximum, and a negative atom
          counts as 0.

        The lifting absorbs rounding dips in computed vertices, so it would
        also hide a real decrease: callers reading outside data reject
        decreasing values first.
        """
        t = np.asarray(times, dtype=float)
        lo = np.asarray(lefts, dtype=float)
        hi = np.asarray(values, dtype=float)
        dt = t[1:] - t[:-1]
        if (dt <= 0).any():
            raise ValueError("breakpoint times must be strictly increasing")
        slopes = np.zeros_like(t)
        slopes[:-1] = np.maximum(lo[1:] - hi[:-1], 0.0) / dt
        return _build(t, np.maximum.accumulate(hi), np.maximum(hi - lo, 0.0), slopes)

    # -- basic queries -----------------------------------------------------

    @property
    def total(self) -> float:
        """Total mass of the measure."""
        return float(self.cums[-1]) if self.times.size else 0.0

    @property
    def is_zero(self) -> bool:
        return self.times.size == 0

    def support(self) -> tuple[float, float] | None:
        """Smallest closed interval carrying all mass, or None for the zero flow."""
        if self.is_zero:
            return None
        return float(self.times[0]), float(self.times[-1])

    def value(self, h: float) -> float:
        """Cumulative mass of ]-inf, h] (right-continuous)."""
        if self.is_zero:
            return 0.0
        i = int(np.searchsorted(self.times, h, side="right")) - 1
        if i < 0:
            return 0.0
        return float(self.cums[i] + self.slopes[i] * (h - self.times[i]))

    def left_value(self, h: float) -> float:
        """Cumulative mass of ]-inf, h[ (left limit of the curve)."""
        if self.is_zero:
            return 0.0
        j = int(np.searchsorted(self.times, h, side="left"))
        if j < self.times.size and self.times[j] == h:
            return float(self.cums[j] - self.atoms[j])
        i = j - 1
        if i < 0:
            return 0.0
        return float(self.cums[i] + self.slopes[i] * (h - self.times[i]))

    def values(self, hs) -> np.ndarray:
        """``value`` at every point of ``hs``, bit for bit, in one pass."""
        hs = np.asarray(hs, dtype=float)
        if self.is_zero:
            return np.zeros(hs.shape)
        i = np.searchsorted(self.times, hs, side="right") - 1
        k = np.maximum(i, 0)
        inside = self.cums[k] + self.slopes[k] * (hs - self.times[k])
        return np.where(i < 0, 0.0, inside)

    def left_values(self, hs) -> np.ndarray:
        """``left_value`` at every point of ``hs``, bit for bit, in one pass."""
        return self.limits(hs)[0]

    def limits(self, hs) -> tuple[np.ndarray, np.ndarray]:
        """``(left_values(hs), values(hs))``, bit for bit, with one search."""
        hs = np.asarray(hs, dtype=float)
        if self.is_zero:
            return np.zeros(hs.shape), np.zeros(hs.shape)
        i = np.searchsorted(self.times, hs, side="right") - 1
        k = np.maximum(i, 0)
        right = np.where(i < 0, 0.0, self.cums[k] + self.slopes[k] * (hs - self.times[k]))
        # off a vertex both sides are the same interpolation; on one, the
        # left limit leaves out the atom sitting there
        on_vertex = (i >= 0) & (self.times[k] == hs)
        return np.where(on_vertex, self.cums[k] - self.atoms[k], right), right

    def atom_mass(self, h: float) -> float:
        """Point mass sitting exactly at h."""
        if self.is_zero:
            return 0.0
        j = int(np.searchsorted(self.times, h, side="left"))
        if j < self.times.size and self.times[j] == h:
            return float(self.atoms[j])
        return 0.0

    def slope_at(self, h: float) -> float:
        """Density on the segment containing h (right-sided)."""
        if self.is_zero:
            return 0.0
        i = int(np.searchsorted(self.times, h, side="right")) - 1
        if i < 0:
            return 0.0
        return float(self.slopes[i])

    def mass_between(self, lo: float, hi: float) -> float:
        """Mass of the half-open interval ]lo, hi].

        Out-of-support endpoints clamp to 0 / total mass.
        """
        if lo > hi:
            raise ValueError(f"interval bounds out of order: ({lo}, {hi})")
        return max(0.0, self.value(hi) - self.value(lo))

    # -- algebra -----------------------------------------------------------

    def restrict(self, h: float) -> "CumulativeFlow":
        """The measure of ``J -> mass(J inter ]-inf, h])``.

        The cumulative curve equals this one up to h and is constant after.
        """
        if self.is_zero:
            return self
        if h >= self.times[-1]:
            return self
        if h < self.times[0]:
            return CumulativeFlow.zero()
        k = int(np.searchsorted(self.times, h, side="right")) - 1
        # k >= 0 here since h >= times[0]
        if self.times[k] == h or self.slopes[k] == 0.0:
            times = self.times[: k + 1]
            cums = self.cums[: k + 1]
            atoms = self.atoms[: k + 1]
            slopes = np.append(self.slopes[:k], 0.0)
            return CumulativeFlow(times, cums, atoms, slopes)
        v = self.cums[k] + self.slopes[k] * (h - self.times[k])
        times = np.append(self.times[: k + 1], h)
        cums = np.append(self.cums[: k + 1], v)
        atoms = np.append(self.atoms[: k + 1], 0.0)
        slopes = np.concatenate([self.slopes[: k + 1], [0.0]])
        return CumulativeFlow(times, cums, atoms, slopes)

    def scaled(self, factor: float) -> "CumulativeFlow":
        """The measure multiplied by a nonnegative factor."""
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if factor == 0 or self.is_zero:
            return CumulativeFlow.zero()
        return CumulativeFlow(
            self.times, self.cums * factor, self.atoms * factor, self.slopes * factor
        )

    def shifted(self, delta: float) -> "CumulativeFlow":
        """The measure translated by delta along the time axis."""
        if self.is_zero or delta == 0.0:
            return self
        return CumulativeFlow(self.times + delta, self.cums, self.atoms, self.slopes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CumulativeFlow):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.cums, other.cums)
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.slopes, other.slopes)
        )


_ZERO = CumulativeFlow(np.empty(0), np.empty(0), np.empty(0), np.empty(0))


def _build(times, cums, atoms, slopes) -> CumulativeFlow:
    """Validate and canonicalize breakpoint arrays (drop redundant vertices)."""
    times = np.asarray(times, dtype=float)
    cums = np.asarray(cums, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    if times.size == 0:
        return CumulativeFlow.zero()
    # differences, as np.diff takes them: a repeated infinity gives nan and
    # is not rejected
    if (times[1:] - times[:-1] <= 0).any():
        raise ValueError("breakpoint times must be strictly increasing")
    if (cums[1:] - cums[:-1] < 0).any() or (atoms < 0).any() or (slopes < 0).any():
        raise ValueError("cumulative curve must be nondecreasing")
    drift = cums[0] - atoms[0]
    if abs(drift) > 1e-12 * (1.0 + abs(cums[-1])):
        raise ValueError("curve must start from zero mass")
    if drift != 0.0:
        # a rounding residue below the first vertex, such as a wobble of the
        # exit front lifting the first exit's left level: fold it into the atom
        atoms = atoms.copy()
        atoms[0] = cums[0]
    if slopes[-1] != 0.0:
        raise ValueError("curve must be constant after its last breakpoint")
    # A vertex is redundant when it carries no atom and no slope change; its
    # removal leaves every evaluation untouched.
    keep = atoms > 0
    keep[0] |= slopes[0] != 0.0
    keep[1:] |= slopes[1:] != slopes[:-1]
    if cums[-1] == 0.0 or not keep.any():
        return CumulativeFlow.zero()
    # the fancy index also copies: the flow freezes its arrays in place
    times, cums, atoms, slopes = times[keep], cums[keep], atoms[keep], slopes[keep]
    return CumulativeFlow(times, cums, atoms, slopes)


def _from_rates(edges: np.ndarray, rates: np.ndarray) -> CumulativeFlow:
    """Absolutely continuous flow with density ``rates[b]`` on
    ``[edges[b], edges[b + 1])``; the edges increase and the rates are
    nonnegative."""
    cums = np.zeros(edges.size)
    np.cumsum(rates * (edges[1:] - edges[:-1]), out=cums[1:])
    return _build(edges, cums, np.zeros(edges.size), np.append(rates, 0.0))


def sum_flows(flows: Iterable[CumulativeFlow]) -> CumulativeFlow:
    """Pointwise sum of cumulative curves.

    The result's breakpoints are the union of the inputs' breakpoints, with
    rounding twins merged: an instant that is the same as the one before it,
    by ``MERGE_TOL``'s rule, joins that one's cluster, which sits at its
    first instant and reads the parts at its last.  The first vertex holds all the mass up to the
    end of its cluster as an atom.
    """
    parts = [f for f in flows if not f.is_zero]
    if not parts:
        return CumulativeFlow.zero()
    if len(parts) == 1:
        return parts[0]
    ts = sorted_set(np.concatenate([f.times for f in parts]))
    # a cluster starts where the gap to the instant before exceeds the scale
    first = np.append(True, ts[1:] - ts[:-1] > MERGE_TOL * (1.0 + np.abs(ts[1:])))
    reps, ends = ts[first], ts[np.append(first[1:], True)]
    mids = (ends[:-1] + reps[1:]) / 2
    n = reps.size
    cums, atoms, slopes = np.zeros((3, n))
    for f in parts:
        cluster = np.searchsorted(reps, f.times, side="right") - 1
        atoms += np.bincount(cluster, weights=f.atoms, minlength=n)
        cums += f.values(ends)
        i = np.searchsorted(f.times, mids, side="right") - 1
        slopes[:-1] += np.where(i < 0, 0.0, f.slopes[np.maximum(i, 0)])
    atoms[0] = cums[0]
    # a part may store a vertex value a rounding below where its previous
    # piece's density leads, so the sum may dip there: lift it, as
    # from_vertices does
    return _build(reps, np.maximum.accumulate(cums), atoms, slopes)


def pushforward(flow: CumulativeFlow, curve) -> CumulativeFlow:
    """Image measure of ``flow`` under a monotone time map.

    ``curve`` is a piecewise-linear map (see ``curves.PiecewiseLinearMap``)
    from entry times to exit times.  The result assigns to every interval J
    the mass of its preimage, so total mass is conserved exactly.  The map
    and the flow are read on both sides of the flow's vertices and of the
    map's kinks between them; the samples where mass enters pass through
    ``_ExitFront``, and the image's curve runs through its vertices.

    Raises:
        FifoViolation: the map sends more than 1e-12 (1 + total) of mass
            before the exit of earlier mass, sends mass ahead of more than
            that of earlier mass, or holds it constant over an interval
            carrying positive mass.
    """
    if flow.is_zero:
        return flow
    t0, t1 = flow.support()
    kinks = curve.kinks()
    us = sorted_set(np.concatenate([flow.times, kinks[(kinks > t0) & (kinks < t1)]]))
    tl, tr = curve.sided_values([us, us], [[True], [False]])
    ml, mr = flow.limits(us)
    # density on the piece after each instant; none enters before the first
    after = (flow.slopes[np.searchsorted(flow.times, us, side="right") - 1] > 0.0).tolist()
    before = [False] + after[:-1]
    front = _ExitFront(float(tr[0]), float(ml[0]), float(us[0]), flow)
    for args in zip(us.tolist(), tl.tolist(), tr.tolist(), ml.tolist(), mr.tolist(), before, after):
        front.sample(*args)
    return CumulativeFlow.from_vertices(front.et, front.e_lo, front.e_hi)


class _ExitFront:
    """The exits E of a flow through a monotone map, built from samples
    (exit time, cumulative mass) taken entry instant by entry instant where
    mass enters: an empty instant neither moves the front nor adds a vertex
    of E.  Exit times within ``MERGE_TOL`` of one another are the same
    instant.

    The front ``(lt, lm, lu)`` is the latest exit accepted, the mass that has
    left by then and its entry instant; ``lo`` is the earliest exit time
    still the same instant as lt.  A later exit moves the front on; where
    the sample before it lay before lo, the straight line between the two,
    which is the exits between their entries, may carry at most ``tiny``
    more mass than the front's across its level.  An exit at or before the
    front is accepted only with at most ``tiny`` more mass (a wobble: the
    front takes the higher level), or as an atom: more mass from the front's
    own entry instant, at the same exit instant, rises vertically there.
    Either way, the exits of a piece of entry instants that carries mass may
    lie before lo only where at most ``tiny`` of the earlier mass leaves
    after them.  Accepted exits that are the same instant as the first of
    their group make one vertex of E: at ``et[k]`` it rises from ``e_lo[k]``
    to ``e_hi[k]``, and it is linear in between, as ``from_vertices`` reads
    it.
    """

    __slots__ = ("tiny", "value", "lt", "lm", "lu", "lo", "pt", "pm", "pu", "single",
                 "et", "e_lo", "e_hi", "e_end")

    def __init__(self, tau: float, m: float, u: float, flow: CumulativeFlow):
        """The front at the first sample ``(tau, m)`` of ``flow``, from entry
        instant u."""
        self.tiny = 1e-12 * (1.0 + flow.total)
        self.value = flow.value
        gap = MERGE_TOL * (1.0 + abs(tau))
        self.lt, self.lm, self.lu, self.lo = tau, m, u, tau - gap
        self.pt, self.pm, self.pu = tau, m, u  # the sample before
        self.single = True  # the last vertex of E holds one sample
        self.et, self.e_lo, self.e_hi = [tau], [m], [m]
        self.e_end = tau + gap  # the latest exit time the same as et[-1]

    def sample(self, u: float, y_left: float, y_right: float, a_left: float, a_right: float,
               before: bool, after: bool) -> None:
        """The samples of entry instant u, with exit times ``y_left`` and
        ``y_right`` and cumulative mass ``a_left`` before it and ``a_right``
        with it: the left limit where mass enters just before u; where an
        atom sits at u or mass enters just after it, the right limit before
        the atom, then the atom."""
        if before:
            self.add(y_left, a_left, u)
        if after or a_right > a_left:
            self.add(y_right, a_left, u)
            if a_right > a_left:
                self.add(y_right, a_right, u)

    def add(self, tau: float, m: float, u: float) -> None:
        """Pass one sample through the FIFO filter and the grouping; raise
        ``FifoViolation`` where it refuses the sample."""
        pt, pm, pu = self.pt, self.pm, self.pu
        self.pt, self.pm, self.pu = tau, m, u
        if tau > self.lt:
            if pt < self.lo:
                # the exits between the two samples cross the front's level
                dm = pm + (m - pm) * ((self.lt - pt) / (tau - pt)) - self.lm
                if dm > self.tiny:
                    raise FifoViolation(f"map sends mass {dm:.3g} backwards near entry time {u:.6g}")
                self._keep_order(pt, pu, pm, m, u)
            # the scale is taken only where the front moves
            gap = MERGE_TOL * (1.0 + (tau if tau > 0.0 else -tau))
            if tau > self.e_end:
                self.et.append(tau)
                self.e_lo.append(m)
                self.e_hi.append(m)
                self.e_end = tau + gap
                self.single = True
            else:
                self.e_hi[-1] = m
                self.single = False
            self.lt, self.lm, self.lu, self.lo = tau, m, u, tau - gap
            return
        dm = m - self.lm
        if tau < self.lo:
            if dm > self.tiny:
                raise FifoViolation(f"map sends mass {dm:.3g} backwards near entry time {u:.6g}")
            self._keep_order(min(pt, tau), pu, pm, m, u)
        if dm > self.tiny:
            if u > self.lu:
                raise FifoViolation(f"map is constant over a positive-mass interval ending at {u:.6g}")
            self.single = False
        elif not m > self.lm:
            return
        elif self.single:
            self.e_lo[-1] = m
        self.lm, self.lu = m, u
        self.e_hi[-1] = m

    def _keep_order(self, x: float, pu: float, pm: float, m: float, u: float) -> None:
        """Raise ``FifoViolation`` where the entry instants from the sample
        before, at pu with mass pm, to u with mass m carry mass, their exits
        reach back to x behind the front, and more than ``tiny`` of the
        earlier mass leaves after x: they carry at most ``tiny`` backwards,
        yet overtake more.  Between two instants, the mass counts where the
        flow's value at their midpoint exceeds its value at the first."""
        carries = m > pm if u == pu else self.value((pu + u) / 2) > self.value(pu)
        if carries:
            ahead = self.lm - self._exits_at(x)
            if ahead > self.tiny:
                raise FifoViolation(f"map sends entry time {u:.6g} ahead of mass {ahead:.3g}")

    def _exits_at(self, tau: float) -> float:
        """E(tau), as built so far, from the right."""
        et = self.et
        k = bisect_right(et, tau) - 1
        if k < 0:
            return 0.0
        if k + 1 == len(et) or et[k] == tau:
            return self.e_hi[k]
        lo, hi = self.e_hi[k], self.e_lo[k + 1]
        return lo + (hi - lo) * ((tau - et[k]) / (et[k + 1] - et[k]))
