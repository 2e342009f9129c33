"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dynwardrop.arcs import BottleneckModel
from dynwardrop.curves import PiecewiseLinearMap
from dynwardrop.flows import CumulativeFlow, sum_flows

times_st = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
mass_st = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
rate_st = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
#: probe instants: inside, at the edge of and beyond the strategies' supports
probe_st = st.lists(st.floats(min_value=-3.0, max_value=16.0, allow_nan=False), max_size=8)
bottlenecks_st = st.builds(
    BottleneckModel,
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.1, max_value=3.0),
)


@st.composite
def flows_st(draw, max_atoms=3):
    parts = []
    n_seg = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_seg):
        a = draw(times_st)
        width = draw(st.floats(min_value=0.01, max_value=5.0))
        r = draw(rate_st)
        if r > 0:
            parts.append(CumulativeFlow.constant_rate(a, a + width, r))
    n_atoms = draw(st.integers(min_value=0, max_value=max_atoms))
    for _ in range(n_atoms):
        parts.append(CumulativeFlow.atom_at(draw(times_st), draw(mass_st)))
    return sum_flows(parts)


@st.composite
def arrivals_st(draw):
    """Arrival curves whose rates often equal the capacities 0.5, 1 and 2 that
    the bottleneck tests draw, with atoms, and with vertices at least 1e-3
    apart, so that building them merges nothing."""
    n = draw(st.integers(min_value=1, max_value=7))
    gaps = st.sampled_from([0.5, 1.0]) | st.floats(min_value=1e-3, max_value=5.0)
    t = np.cumsum([draw(st.sampled_from([0.0, 0.5]) | times_st),
                   *draw(st.lists(gaps, min_size=n - 1, max_size=n - 1))])
    rates = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | rate_st, min_size=n - 1, max_size=n - 1))
    atoms = draw(st.lists(st.just(0.0) | mass_st, min_size=n, max_size=n))
    lefts, values = [0.0], [atoms[0]]
    for i in range(1, n):
        lefts.append(values[-1] + rates[i - 1] * (t[i] - t[i - 1]))
        values.append(lefts[-1] + atoms[i])
    return CumulativeFlow.from_vertices(t, lefts, values)


#: map ordinates; the sampled values repeat, so maps get flat pieces
y_st = st.sampled_from([0.0, 0.5, 1.25, 2.0, 3.0]) | st.floats(min_value=-5.0, max_value=10.0)


@st.composite
def maps_st(draw, slope_st=st.floats(min_value=0.0, max_value=3.0), monotone=False):
    """Maps with repeated abscissae (jumps), boundary slopes drawn from slope_st;
    nondecreasing ones when ``monotone``."""
    n = draw(st.integers(min_value=1, max_value=6))
    x_st = st.sampled_from([0.0, 0.5, 1.25, 2.0, 3.0]) | times_st
    xs = sorted(draw(st.lists(x_st, min_size=n, max_size=n)))
    if monotone:
        ys = sorted(draw(st.lists(y_st, min_size=n, max_size=n)))
    else:
        ys = draw(st.lists(st.floats(min_value=-5.0, max_value=10.0), min_size=n, max_size=n))
    return PiecewiseLinearMap(np.array(xs), np.array(ys), draw(slope_st), draw(slope_st))


#: offsets below, at and above ``flows.MERGE_TOL``
jitter_st = st.sampled_from([0.0, 2e-10, 5e-10, 1e-9, 1.5e-9, 3e-9])


@st.composite
def clustered_parts_st(draw):
    """2-4 flows whose breakpoints sit within ``MERGE_TOL`` of one another: rate
    segments, single atoms, and pairs of atoms closer than the tolerance."""
    base_st = st.sampled_from([0.0, 0.25, 1.0, 2.0])
    parts = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        kind = draw(st.sampled_from(["rate", "atom", "atom_pair"]))
        t = draw(base_st) + draw(jitter_st)
        if kind == "rate":
            end = draw(base_st) + draw(jitter_st) + draw(st.sampled_from([1e-9, 0.25, 1.0]))
            parts.append(CumulativeFlow.constant_rate(t, max(end, t + 5e-10), draw(mass_st)))
        elif kind == "atom":
            parts.append(CumulativeFlow.atom_at(t, draw(mass_st)))
        else:
            m1, m2 = draw(mass_st), draw(mass_st)
            parts.append(CumulativeFlow.from_vertices([t, t + 5e-10], [0.0, m1], [m1, m1 + m2]))
    return parts


def probe_points(knots: np.ndarray, extra) -> np.ndarray:
    """The knots, the midpoints between them, one point beyond each end, and extra."""
    pts = [np.asarray(extra, dtype=float), np.array([0.0])]
    if knots.size:
        pts += [knots, (knots[:-1] + knots[1:]) / 2, [knots[0] - 1.0, knots[-1] + 1.0]]
    return np.concatenate(pts)
