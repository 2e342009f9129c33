"""Piecewise-linear time maps: exit-time curves and their calculus.

A map is stored as vertex arrays ``xs`` (nondecreasing; a repeated x encodes a
jump) and ``ys``.  Evaluation is right-continuous at jumps and extends beyond
the stored span with configurable boundary slopes.  Exit-time curves extend
with slope one on both sides: outside the loaded window the arc behaves like
an undisturbed shift of the entry time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap:
    """A piecewise-linear map of the real line, right-continuous at jumps."""

    xs: np.ndarray
    ys: np.ndarray
    lo_slope: float = 1.0
    hi_slope: float = 1.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.size == 0 or xs.size != ys.size:
            raise ValueError("map needs matching, nonempty vertex arrays")
        if (xs[1:] - xs[:-1] < 0).any():
            raise ValueError("vertex abscissae must be nondecreasing")
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))

    @classmethod
    def shift(cls, delta: float, anchor: float = 0.0) -> "PiecewiseLinearMap":
        """The translation x -> x + delta."""
        return cls(np.array([anchor]), np.array([anchor + delta]))

    def kinks(self) -> np.ndarray:
        """Abscissae where the map may change slope or jump."""
        return self.xs

    def value(self, x: float) -> float:
        """Map value at x (right-continuous)."""
        xs, ys = self.xs, self.ys
        i = int(np.searchsorted(xs, x, side="right")) - 1
        if i < 0:
            return float(ys[0] + self.lo_slope * (x - xs[0]))
        if i == xs.size - 1:
            return float(ys[-1] + self.hi_slope * (x - xs[-1]))
        dx = xs[i + 1] - xs[i]
        if dx == 0.0:
            return float(ys[i])
        return float(ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / dx)

    def left_value(self, x: float) -> float:
        """Left limit of the map at x."""
        xs, ys = self.xs, self.ys
        j = int(np.searchsorted(xs, x, side="left"))
        if j == 0:
            return float(ys[0] + self.lo_slope * (x - xs[0]))
        if j == xs.size:
            return float(ys[-1] + self.hi_slope * (x - xs[-1]))
        i = j - 1
        dx = xs[j] - xs[i]
        if dx == 0.0:
            return float(ys[i])
        return float(ys[i] + (x - xs[i]) * (ys[j] - ys[i]) / dx)

    def values(self, x) -> np.ndarray:
        """``value`` at every point of ``x``, bit for bit, in one pass."""
        x = np.asarray(x, dtype=float)
        return self._between(x, np.searchsorted(self.xs, x, side="right") - 1)

    def left_values(self, x) -> np.ndarray:
        """``left_value`` at every point of ``x``, bit for bit, in one pass."""
        x = np.asarray(x, dtype=float)
        return self._between(x, np.searchsorted(self.xs, x, side="left") - 1)

    def sided_values(self, x, left) -> np.ndarray:
        """``left_values`` where ``left`` holds and ``values`` elsewhere, bit
        for bit, in one pass; ``left`` broadcasts against ``x``."""
        x = np.asarray(x, dtype=float)
        xs = self.xs
        i = np.where(left, np.searchsorted(xs, x, side="left"), np.searchsorted(xs, x, side="right"))
        return self._between(x, i - 1)

    def _between(self, x: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Map at x read off the piece from vertex i to vertex i + 1.

        i = -1 and i = last select the boundary extensions, and a piece of
        zero width (a jump) reads its left vertex, as in ``value``.
        """
        xs, ys = self.xs, self.ys
        last = xs.size - 1
        k = np.minimum(np.maximum(i, 0), last)
        k1 = np.minimum(k + 1, last)
        dx = xs[k1] - xs[k]
        # every branch is computed everywhere; the discarded ones may divide
        # by a zero or tiny width, or meet infinite x
        with np.errstate(all="ignore"):
            inside = ys[k] + (x - xs[k]) * (ys[k1] - ys[k]) / dx
            below = ys[0] + self.lo_slope * (x - xs[0])
            above = ys[-1] + self.hi_slope * (x - xs[-1])
        inside = np.where(dx == 0.0, ys[k], inside)
        return np.where(i < 0, below, np.where(i >= last, above, inside))

    # -- inversion ---------------------------------------------------------

    def preimage_sup(self, y: float) -> float:
        """sup{x : f(x) <= y}; +/-inf when the level set is unbounded or empty."""
        xs, ys = self.xs, self.ys
        if y >= ys[-1]:
            if self.hi_slope <= 0:
                return np.inf
            return float(xs[-1] + (y - ys[-1]) / self.hi_slope)
        below = np.nonzero(ys <= y)[0]
        if below.size == 0:
            if self.lo_slope <= 0:
                return -np.inf
            return float(xs[0] + (y - ys[0]) / self.lo_slope)
        k = int(below[-1])
        # rises from ys[k] <= y to ys[k+1] > y on [xs[k], xs[k+1]]
        dy = ys[k + 1] - ys[k]
        if dy <= 0 or xs[k + 1] == xs[k]:
            return float(xs[k])
        return float(xs[k] + (y - ys[k]) * (xs[k + 1] - xs[k]) / dy)

    def preimage_inf(self, y: float) -> float:
        """inf{x : f(x) >= y}; the map must eventually fall below y backwards."""
        xs, ys = self.xs, self.ys
        if y <= ys[0]:
            if self.lo_slope <= 0:
                return -np.inf
            return float(xs[0] + (y - ys[0]) / self.lo_slope)
        above = np.nonzero(ys >= y)[0]
        if above.size == 0:
            if self.hi_slope <= 0:
                return np.inf
            return float(xs[-1] + (y - ys[-1]) / self.hi_slope)
        k = int(above[0])
        dy = ys[k] - ys[k - 1]
        if dy <= 0 or xs[k] == xs[k - 1]:
            return float(xs[k])
        return float(xs[k - 1] + (y - ys[k - 1]) * (xs[k] - xs[k - 1]) / dy)

    def preimages(self, y) -> tuple[np.ndarray, np.ndarray]:
        """``(preimage_inf, preimage_sup)`` at every level of ``y``, bit for
        bit, in one pass."""
        y = np.asarray(y, dtype=float)
        xs, ys = self.xs, self.ys
        last = xs.size - 1
        # the first vertex at or above y is the first whose prefix maximum is,
        # the last at or below y the last whose suffix minimum is
        first_up = np.searchsorted(np.maximum.accumulate(ys), y, side="left")
        last_down = np.searchsorted(np.minimum.accumulate(ys[::-1])[::-1], y, side="right") - 1
        # the pieces rising through y: inf's levels, then sup's
        k0 = np.concatenate([np.minimum(np.maximum(first_up, 1), last) - 1,
                             np.minimum(np.maximum(last_down, 0), last)])
        k1 = np.minimum(k0 + 1, last)
        x0, x1, y0 = xs[k0], xs[k1], ys[k0]
        dy = ys[k1] - y0
        with np.errstate(all="ignore"):
            inside = x0 + (np.concatenate([y, y]) - y0) * (x1 - x0) / dy
            below = xs[0] + (y - ys[0]) / self.lo_slope
            above = xs[-1] + (y - ys[-1]) / self.hi_slope
        # where no piece rises through y, inf takes its right end, sup its left
        flat = (dy <= 0) | (x1 == x0)
        n = y.size
        inside = np.where(flat, np.concatenate([x1[:n], x0[n:]]), inside)
        below = below if self.lo_slope > 0 else np.full(y.shape, -np.inf)
        above = above if self.hi_slope > 0 else np.full(y.shape, np.inf)
        inf = np.where(y <= ys[0], below, np.where(first_up == xs.size, above, inside[:n]))
        sup = np.where(y >= ys[-1], above, np.where(last_down < 0, below, inside[n:]))
        return inf, sup

    # -- calculus ----------------------------------------------------------

    def integrate(self, lo: float, hi: float) -> float:
        """Exact integral of the map over [lo, hi]."""
        if hi <= lo:
            return 0.0
        pts = [lo]
        for x in self.xs:
            if lo < x < hi:
                pts.append(float(x))
        pts.append(hi)
        pts_a = np.unique(np.array(pts))
        total = 0.0
        for a, b in zip(pts_a[:-1], pts_a[1:]):
            # right value at a, left limit at b: linear in between
            total += 0.5 * (self.value(a) + self.left_value(b)) * (b - a)
        return float(total)

    def compose_after(self, inner: "PiecewiseLinearMap") -> "PiecewiseLinearMap":
        """The map x -> self(inner(x))."""
        levels = self.xs
        pre = np.column_stack(inner.preimages(levels)).ravel()
        # crossings of outer kink levels inside every inner segment, so the
        # result is exact even where inner is not monotone; the levels inside
        # a segment are a run of the sorted outer kinks
        ixs, iys = inner.xs, inner.ys
        dx, dy = np.diff(ixs), np.diff(iys)
        first = np.searchsorted(levels, np.minimum(iys[:-1], iys[1:]), side="right")
        count = np.searchsorted(levels, np.maximum(iys[:-1], iys[1:]), side="left") - first
        count = np.where((dx == 0.0) | (dy == 0.0), 0, np.maximum(count, 0))
        seg = np.repeat(np.arange(dx.size), count)
        run_start = np.cumsum(count) - count
        level = levels[np.repeat(first - run_start, count) + np.arange(seg.size)]
        cross = ixs[seg] + (level - iys[seg]) * dx[seg] / dy[seg]
        x = sorted_set(np.concatenate([ixs, pre[np.isfinite(pre)], cross]))
        inner_l, inner_r = inner.sided_values([x, x], [[True], [False]])
        # where inner rises into x, self is entered from the left
        rising = np.ones(x.size, dtype=bool)
        rising[1:] = inner_l[1:] > inner_r[:-1]
        left, right = self.sided_values([inner_l, inner_r], [rising, np.zeros_like(rising)])
        # (x, left) at every candidate, then (x, right) where the composite jumps
        keep = np.ones(2 * x.size, dtype=bool)
        keep[1::2] = right != left
        xs_out = np.repeat(x, 2)[keep]
        ys_out = np.column_stack([left, right]).ravel()[keep]
        lo = self.lo_slope * inner.lo_slope
        hi = self.hi_slope * inner.hi_slope
        return PiecewiseLinearMap(xs_out, ys_out, lo, hi)


def sorted_set(values) -> np.ndarray:
    """``sorted(set(values))`` as an array: of equal values (0.0 and -0.0) the
    first one in ``values`` is kept."""
    a = np.asarray(values, dtype=float)
    a = a[np.argsort(a, kind="stable")]
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class ExitTimeCurve(PiecewiseLinearMap):
    """Entry time -> exit time on an arc; travel time is the excess over entry."""

    def travel_time(self, h: float) -> float:
        return self.value(h) - h

    def compose_after(self, inner: "PiecewiseLinearMap") -> "ExitTimeCurve":
        base = super().compose_after(inner)
        return ExitTimeCurve(base.xs, base.ys, base.lo_slope, base.hi_slope)
