"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import numpy as np

from dynwardrop import arcs
from dynwardrop.errors import DynWardropError
from dynwardrop.flows import MERGE_TOL, CumulativeFlow


def curve_linf(f: CumulativeFlow, g: CumulativeFlow, extra: np.ndarray | None = None) -> float:
    """L-infinity distance between two cumulative curves."""
    pts = [np.array([0.0])]
    for c in (f, g):
        if not c.is_zero:
            pts.append(c.times)
    grid = np.unique(np.concatenate(pts))
    if extra is not None:
        grid = np.unique(np.concatenate([grid, extra]))
    if grid.size > 1:
        mids = (grid[:-1] + grid[1:]) / 2
        grid = np.unique(np.concatenate([grid, mids]))
    return max(abs(f.value(t) - g.value(t)) for t in grid)


def knot_linf(f, g, knots) -> float:
    """L-infinity distance between two right-continuous piecewise-linear
    functions, exit maps or cumulative curves, read at their knots.

    Knots closer than ``MERGE_TOL`` form one cluster, read from outside: the
    left limit at its first knot and the value at its last.  So a jump that
    two computations place a rounding error apart counts once.  The midpoints
    between clusters cover the pieces, and so does one point beyond each
    end.
    """
    k = np.unique(np.asarray(knots, dtype=float))
    cut = np.flatnonzero(k[1:] - k[:-1] > MERGE_TOL)
    starts = np.concatenate([k[:1], k[cut + 1]])
    ends = np.concatenate([k[cut], k[-1:]])
    pts = np.concatenate([ends, (ends[:-1] + starts[1:]) / 2, [starts[0] - 1.0, ends[-1] + 1.0]])
    return max(
        float(np.max(np.abs(f.left_values(starts) - g.left_values(starts)))),
        float(np.max(np.abs(f.values(pts) - g.values(pts)))),
    )


def slope_mismatch(f: CumulativeFlow) -> float:
    """The largest gap between a flow's stored left limit at a vertex and the
    value its slope reaches there from the vertex before."""
    if f.times.size < 2:
        return 0.0
    reached = f.cums[:-1] + f.slopes[:-1] * (f.times[1:] - f.times[:-1])
    return float(np.max(np.abs(reached - (f.cums[1:] - f.atoms[1:]))))


def flows_identical(f: CumulativeFlow, g: CumulativeFlow) -> bool:
    """Breakpoint-for-breakpoint equality."""
    return f == g


def same_bits(a, b) -> bool:
    """Equal shapes and identical float64 bit patterns (so 0.0 differs from -0.0)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_flow_bits(f: CumulativeFlow, g: CumulativeFlow) -> bool:
    """Every stored array of the two flows has the same bits."""
    return all(
        same_bits(getattr(f, name), getattr(g, name))
        for name in ("times", "cums", "atoms", "slopes")
    )


def outcome(fn, *args):
    """``("ok", result)``, or ``("raises", type, message)`` when ``fn`` raises
    one of the package's documented errors, so that two implementations can
    be compared on inputs outside a model's admissible family too."""
    try:
        return "ok", fn(*args)
    except (DynWardropError, ValueError) as exc:
        return "raises", type(exc), str(exc)


def same_outcome(got, want, same) -> bool:
    """Two ``outcome`` results: the same error, or results ``same`` finds equal."""
    if got[0] != want[0]:
        return False
    return same(got[1], want[1]) if want[0] == "ok" else got[1:] == want[1:]


def counting_outflow_builds(monkeypatch) -> list:
    """Record the exit curve of every arc outflow that a builder makes while
    the patch holds; an outflow passed in as a flow is not built."""
    built = []

    class Counted(arcs.ExitProfile):
        __slots__ = ()

        def __init__(self, curve, outflow):
            if callable(outflow):
                def build(make=outflow):
                    built.append(curve)
                    return make()

                outflow = build
            super().__init__(curve, outflow)

    monkeypatch.setattr(arcs, "ExitProfile", Counted)
    return built
