"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import numpy as np

from dynwardrop.errors import DynWardropError
from dynwardrop.flows import CumulativeFlow


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
