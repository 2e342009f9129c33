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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FifoViolation

#: Breakpoints closer than this (seconds) are merged when curves are combined.
MERGE_TOL = 1e-9


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
        bounds = np.unique(np.concatenate([starts, ends]))
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
        rates = masses / widths
        cums = np.zeros(edges.size)
        np.cumsum(rates * widths, out=cums[1:])
        return _build(edges, cums, np.zeros(edges.size), np.append(rates, 0.0))

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

    def breakpoints(self) -> list[tuple[float, float]]:
        """(time, cumulative mass) pairs of the curve."""
        return list(zip(self.times.tolist(), self.cums.tolist()))

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
    if abs(drift) > MERGE_TOL * (1.0 + abs(cums[-1])):
        raise ValueError("curve must start from zero mass")
    if drift != 0.0:
        # sub-tolerance residue from merged evaluations; fold it into the vertex
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


def sum_flows(flows: Iterable[CumulativeFlow]) -> CumulativeFlow:
    """Pointwise sum of cumulative curves.

    The result's breakpoints are the union of the inputs' breakpoints; times
    closer than ``MERGE_TOL`` collapse onto the earliest of their cluster.
    """
    parts = [f for f in flows if not f.is_zero]
    if not parts:
        return CumulativeFlow.zero()
    if len(parts) == 1:
        return parts[0]
    reps: list[float] = []
    ends: list[float] = []
    for t in np.unique(np.concatenate([f.times for f in parts])).tolist():
        if reps and t - reps[-1] <= MERGE_TOL:
            ends[-1] = t
        else:
            reps.append(t)
            ends.append(t)
    reps_a = np.array(reps)
    ends_a = np.array(ends)
    mids = (ends_a[:-1] + reps_a[1:]) / 2
    cums = np.zeros(reps_a.size)
    atoms = np.zeros(reps_a.size)
    slopes = np.zeros(reps_a.size)
    for f in parts:
        # the part's vertices inside each cluster are f.times[j0:j1]
        j0 = np.searchsorted(f.times, reps_a, side="left")
        j1 = np.searchsorted(f.times, ends_a, side="right")
        held = np.where(j1 > j0, f.atoms[np.minimum(j0, f.times.size - 1)], 0.0)
        for i in np.nonzero(j1 - j0 > 1)[0]:
            held[i] = np.sum(f.atoms[j0[i]:j1[i]])
        atoms += held
        cums += f.values(ends_a)
        i = np.searchsorted(f.times, mids, side="right") - 1
        slopes[:-1] += np.where(i < 0, 0.0, f.slopes[np.maximum(i, 0)])
    # the curve starts from zero mass: its first vertex holds all the mass up
    # to the end of its cluster as an atom, also where that cluster spans
    # distinct instants and the parts carry mass inside it
    atoms[0] = cums[0]
    return _build(reps_a, cums, atoms, slopes)


def pushforward(flow: CumulativeFlow, curve) -> CumulativeFlow:
    """Image measure of ``flow`` under a monotone time map.

    ``curve`` is a piecewise-linear map (see ``curves.PiecewiseLinearMap``)
    from entry times to exit times.  The result assigns to every interval J
    the mass of its preimage, so total mass is conserved exactly.

    Raises:
        FifoViolation: the map decreases, or is constant, across an interval
            carrying positive mass.
    """
    if flow.is_zero:
        return flow
    t0, t1 = flow.support()
    kinks = curve.kinks()
    inner = kinks[(kinks > t0) & (kinks < t1)]
    us = np.union1d(flow.times, inner)

    # Sample (exit time, cumulative mass, entry time) vertices.  Each entry
    # instant u contributes its left limit, a flat stretch across any jump of
    # the map, and a vertical rise for an atom of the flow.
    tl, tr = curve.sided_values([us, us], [[True], [False]])
    ml, mr = flow.limits(us)
    keep = np.column_stack([np.ones(us.size, dtype=bool), tr > tl, mr > ml]).ravel()
    taus = np.column_stack([tl, tr, tr]).ravel()[keep].tolist()
    masses = np.column_stack([ml, ml, mr]).ravel()[keep].tolist()
    sources = np.repeat(us, 3)[keep].tolist()

    total = flow.total
    tiny = 1e-12 * (1.0 + total)
    out_t: list[float] = [taus[0]]
    out_m: list[float] = [masses[0]]
    out_u: list[float] = [sources[0]]
    for tau, m, u in zip(taus[1:], masses[1:], sources[1:]):
        dm = m - out_m[-1]
        if tau > out_t[-1]:
            out_t.append(tau)
            out_m.append(m)
            out_u.append(u)
            continue
        if dm <= tiny:
            # monotone wobble or flat stretch over zero mass: keep the level
            if m > out_m[-1]:
                out_m[-1] = m
                out_u[-1] = u
            continue
        # positive mass maps backwards or onto a single instant
        if tau < out_t[-1] - MERGE_TOL:
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

    # Group vertices sharing an exit instant (within the merge tolerance);
    # each group's vertical extent becomes an atom of the image measure.
    g_time: list[float] = []
    g_lo: list[float] = []
    g_hi: list[float] = []
    for tau, m in zip(out_t, out_m):
        if not g_time or tau > g_time[-1] + MERGE_TOL:
            g_time.append(tau)
            g_lo.append(m)
            g_hi.append(m)
        else:
            g_hi[-1] = m
    return CumulativeFlow.from_vertices(g_time, g_lo, g_hi)
