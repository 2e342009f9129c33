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
        if np.any(np.diff(xs) < 0):
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

    def _between(self, x: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Map at x read off the piece from vertex i to vertex i + 1.

        i = -1 and i = last select the boundary extensions, and a piece of
        zero width (a jump) reads its left vertex, as in ``value``.
        """
        xs, ys = self.xs, self.ys
        last = xs.size - 1
        k = np.clip(i, 0, last)
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


class ExitTimeCurve(PiecewiseLinearMap):
    """Entry time -> exit time on an arc; travel time is the excess over entry."""

    def travel_time(self, h: float) -> float:
        return self.value(h) - h

    def compose_after(self, inner: "PiecewiseLinearMap") -> "ExitTimeCurve":
        base = super().compose_after(inner)
        return ExitTimeCurve(base.xs, base.ys, base.lo_slope, base.hi_slope)
