"""Flow-measure algebra: evaluation, restriction, summation, pushforward."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynwardrop.arcs import ArcPerformanceModel, BottleneckModel, _volume_exit_sweep
from dynwardrop.curves import ExitTimeCurve, PiecewiseLinearMap
from dynwardrop.errors import FifoViolation
from dynwardrop.flows import MERGE_TOL, CumulativeFlow, _build, sum_flows, pushforward
from dynwardrop.network import load

import loop_reference
from fixtures import acceptance_fixtures, ladder_fixture
from helpers import (
    curve_linf, knot_linf, outcome, same_bits, same_flow_bits, same_outcome, slope_mismatch,
)
from strategies import (
    arrivals_st, bottlenecks_st, clustered_parts_st, flows_st, maps_st, probe_points, probe_st,
    rate_st, times_st, y_st,
)


# -- evaluation -------------------------------------------------------------

def test_linear_curve_interval_mass():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.0)
    assert f.mass_between(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_empty_interval_has_no_mass():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.3)
    assert f.mass_between(0.7, 0.7) == 0.0


def test_atom_included_by_right_continuity():
    f = CumulativeFlow.atom_at(5.0, 3.0)
    assert f.mass_between(4.0, 5.0) == 3.0
    assert f.mass_between(5.0, 6.0) == 0.0


def test_out_of_support_queries_clamp():
    f = CumulativeFlow.constant_rate(1.0, 2.0, 1.0)
    assert f.value(-10.0) == 0.0
    assert f.value(100.0) == f.total


def test_zero_is_one_shared_read_only_flow():
    # loading shares one zero among routes and arcs, so no caller may write it
    z = CumulativeFlow.zero()
    assert z is CumulativeFlow.zero() is CumulativeFlow.atom_at(1.0, 0.0)
    assert z.is_zero and z.total == 0.0 and z.value(1.0) == 0.0
    for name in ("times", "cums", "atoms", "slopes"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(z, name)[...] = 1.0


@given(flows_st(), times_st, times_st, times_st)
@settings(max_examples=200, deadline=None)
def test_measure_is_finitely_additive(f, a, b, c):
    a, b, c = sorted((a, b, c))
    lhs = f.mass_between(a, c)
    rhs = f.mass_between(a, b) + f.mass_between(b, c)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + f.total))


# -- construction from vertices ---------------------------------------------

def test_from_vertices_reads_atoms_and_densities():
    f = CumulativeFlow.from_vertices([0.0, 1.0, 3.0], [0.0, 1.5, 2.0], [0.5, 1.5, 4.0])
    assert same_bits(f.times, [0.0, 1.0, 3.0])
    assert same_bits(f.atoms, [0.5, 0.0, 2.0])
    assert same_bits(f.slopes, [1.0, 0.25, 0.0])
    assert same_bits(f.cums, [0.5, 1.5, 4.0])


def test_from_vertices_lifts_a_one_ulp_dip():
    dip = np.nextafter(1.0, 0.0)
    f = CumulativeFlow.from_vertices([0.0, 1.0, 2.0], [0.0, 1.0, dip], [0.0, 1.0, dip])
    # the dip is no negative density, and the flat vertex after it is dropped
    assert same_flow_bits(f, CumulativeFlow.constant_rate(0.0, 1.0, 1.0))
    # a value that dips below the one before keeps the earlier level
    g = CumulativeFlow.from_vertices([0.0, 1.0], [0.0, dip], [1.0, dip])
    assert same_flow_bits(g, CumulativeFlow.atom_at(0.0, 1.0))


@pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
def test_from_vertices_rejects_times_that_do_not_increase(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        CumulativeFlow.from_vertices(times, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


# -- batched evaluation ------------------------------------------------------

def _assert_batched_flow_bits(f, hs):
    assert same_bits(f.values(hs), [f.value(h) for h in hs])
    assert same_bits(f.left_values(hs), [f.left_value(h) for h in hs])


def _assert_batched_map_bits(m, xs):
    assert same_bits(m.values(xs), [m.value(x) for x in xs])
    assert same_bits(m.left_values(xs), [m.left_value(x) for x in xs])


@given(flows_st(), probe_st)
@example(CumulativeFlow.zero(), [-1.0, 2.5])
@settings(max_examples=300, deadline=None)
def test_batched_flow_evaluation_matches_scalar_bits(f, extra):
    # breakpoints (atoms included), segment midpoints, beyond the support
    _assert_batched_flow_bits(f, probe_points(f.times, extra))


@given(maps_st(), probe_st)
@settings(max_examples=300, deadline=None)
def test_batched_map_evaluation_matches_scalar_bits(m, extra):
    # repeated abscissae, boundary slopes, points on both extensions
    _assert_batched_map_bits(m, probe_points(m.xs, extra))


@given(maps_st())
@example(  # the interpolation from the vertex before reads 6.838390885399393
    PiecewiseLinearMap(
        np.array([3.1191954426996964, 6.238390885399393]),
        np.array([3.7191954426996965, 6.838390885399392]),
    )
)
@settings(max_examples=200, deadline=None)
def test_map_left_limit_at_a_vertex_is_its_first_value(m):
    # at a stored abscissa the left limit is the first ordinate stored there,
    # not the piece before it interpolated to its end, which can round off
    first = m.ys[np.searchsorted(m.xs, m.xs, side="left")]
    assert np.array_equal([m.left_value(x) for x in m.xs], first)
    assert np.array_equal(m.left_values(m.xs), first)


@given(flows_st(), probe_st)
@example(CumulativeFlow.zero(), [-1.0, 2.5])
@example(CumulativeFlow.atom_at(1.0, 2.0), [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
@settings(max_examples=300, deadline=None)
def test_flow_limits_match_one_sided_bits(f, extra):
    # atoms; points on, between and outside the vertices; the zero flow; no points
    for hs in (probe_points(f.times, extra), np.empty(0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            left, right = f.limits(hs)
        assert same_bits(right, f.values(hs))
        assert same_bits(left, [f.left_value(h) for h in hs])
        assert same_bits(right, [f.value(h) for h in hs])


@given(maps_st() | maps_st(monotone=True), probe_st, st.lists(st.booleans(), min_size=1))
@example(  # jumps, a flat piece and flat extensions
    PiecewiseLinearMap(np.array([0.0, 1.0, 1.0, 2.0]), np.array([1.0, 3.0, 0.0, 0.0]), 0.0, 0.0),
    [1.0, 2.0], [False, True],
)
@example(PiecewiseLinearMap(np.array([1.0]), np.array([2.0]), 0.0, 0.0), [1.0, 0.5, 3.0], [True, False])
@settings(max_examples=300, deadline=None)
def test_sided_map_values_match_scalar_bits(m, extra, sides):
    # repeated abscissae, flat pieces, zero boundary slopes, a single vertex;
    # a left limit or a value at each point, and both at every point
    xs = probe_points(m.xs, extra)
    left = np.resize(np.array(sides), xs.size)
    want = [m.left_value(x) if lft else m.value(x) for x, lft in zip(xs, left)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = m.sided_values(xs, left)
        both = m.sided_values([xs, xs], [[True], [False]])
    assert same_bits(got, want)
    assert same_bits(both, [[m.left_value(x) for x in xs], [m.value(x) for x in xs]])


@given(maps_st(), st.floats(min_value=1e-9, max_value=10.0))
@example(PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0, 0.0), 1.0)
@settings(max_examples=100, deadline=None)
def test_preimage_inf_above_flat_right_extension_is_inf(m, rise):
    # a level the map never reaches: no division by the zero slope
    flat = PiecewiseLinearMap(m.xs, m.ys, m.lo_slope, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert flat.preimage_inf(float(flat.ys.max()) + rise) == np.inf


@given(flows_st(), bottlenecks_st, probe_st)
@settings(max_examples=200, deadline=None)
def test_batched_exit_curve_evaluation_matches_scalar_bits(f, model, extra):
    # the atoms of f become jumps of the bottleneck's exit curve
    profile = model.exit_profile(f)
    _assert_batched_map_bits(profile.curve, probe_points(profile.curve.xs, extra))
    _assert_batched_flow_bits(profile.outflow, probe_points(profile.outflow.times, extra))


# -- restriction ------------------------------------------------------------

def test_restrict_truncates_linear_curve():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.0)
    g = f.restrict(1.0)
    assert g.total == pytest.approx(1.0, abs=1e-15)
    assert g.value(1.5) == g.total


def test_restrict_beyond_support_is_identity():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.0)
    assert f.restrict(5.0) is f


def test_restrict_keeps_atom_at_cut():
    f = CumulativeFlow.atom_at(1.0, 2.0)
    g = f.restrict(1.0)
    assert g.total == 2.0
    assert g.atom_mass(1.0) == 2.0


@given(flows_st(), times_st, times_st)
@settings(max_examples=300, deadline=None)
def test_restrict_twice_equals_restrict_once(f, h1, h2):
    h1, h2 = min(h1, h2), max(h1, h2)
    assert f.restrict(h2).restrict(h1) == f.restrict(h1)


@given(flows_st(), times_st)
@settings(max_examples=100, deadline=None)
def test_restrict_matches_curve_below_cut(f, h):
    g = f.restrict(h)
    for t in np.linspace(-1.0, h, 13):
        assert g.value(t) == pytest.approx(f.value(t), abs=1e-12)
    assert g.value(h + 5.0) == pytest.approx(f.value(h), abs=1e-12)


# -- summation --------------------------------------------------------------

def test_sum_of_nothing_is_zero():
    assert sum_flows([]).is_zero


def test_sum_with_zero_is_identity():
    f = CumulativeFlow.constant_rate(0.0, 1.0, 2.0)
    assert sum_flows([f, CumulativeFlow.zero()]) == f


def test_coincident_atoms_add():
    f = sum_flows([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.atom_at(0.0, 1.0)])
    assert f.atom_mass(0.0) == 2.0
    assert f.total == 2.0


@given(st.lists(flows_st(), min_size=2, max_size=4), times_st)
@settings(max_examples=100, deadline=None)
def test_sum_is_commutative_in_value(fs, t):
    a = sum_flows(fs)
    b = sum_flows(list(reversed(fs)))
    scale = 1 + sum(f.total for f in fs)
    assert a.value(t) == pytest.approx(b.value(t), abs=1e-12 * scale)


@given(st.lists(flows_st(), min_size=3, max_size=3), times_st)
# h stores its value at 4 without the 1e-15 density of the piece before, so
# g + h falls by a rounding from 3 to 4; the sum lifts it, as from_vertices does
@example([
    CumulativeFlow([0.0, 3.0], [0.0, 3.0], [0.0, 0.0], [1.0, 0.0]),
    CumulativeFlow([0.0, 1.0, 2.0, 4.0], [4.74655106, 6.74655106, 8.74655106, 8.74655106],
                   [4.74655106, 0.0, 0.0, 0.0], [2.0, 2.0, 1e-15, 0.0]),
    CumulativeFlow.atom_at(1.0, 0.5),
], 3.0)
@settings(max_examples=100, deadline=None)
def test_sum_is_associative_in_value(fs, t):
    a = sum_flows([sum_flows(fs[:2]), fs[2]])
    b = sum_flows([fs[0], sum_flows(fs[1:])])
    scale = 1 + sum(f.total for f in fs)
    assert a.value(t) == pytest.approx(b.value(t), abs=1e-11 * scale)


# -- pushforward ------------------------------------------------------------

def test_shift_map_moves_atom():
    f = CumulativeFlow.atom_at(0.0, 2.0)
    g = pushforward(f, ExitTimeCurve.shift(1.0))
    assert g.atom_mass(1.0) == 2.0
    assert g.total == 2.0


def test_time_dilation_halves_rate():
    f = CumulativeFlow.constant_rate(0.0, 1.0, 1.0)
    curve = ExitTimeCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]), 1.0, 1.0)
    g = pushforward(f, curve)
    # expected image computed on a fine grid: mass(]-inf, tau]) = f(tau / 2)
    grid = np.linspace(-0.5, 2.5, 401)
    worst = max(abs(g.value(t) - f.value(t / 2)) for t in grid)
    assert worst < 1e-12
    assert g.total == pytest.approx(1.0, rel=1e-12)


def test_pushforward_of_zero_is_zero():
    assert pushforward(CumulativeFlow.zero(), ExitTimeCurve.shift(3.0)).is_zero


def test_decreasing_map_over_mass_raises():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.0)
    bad = ExitTimeCurve(np.array([0.0, 2.0]), np.array([10.0, 8.0]), 1.0, 1.0)
    with pytest.raises(FifoViolation):
        pushforward(f, bad)


def test_constant_map_over_mass_raises():
    f = CumulativeFlow.constant_rate(0.0, 2.0, 1.0)
    flat = ExitTimeCurve(np.array([-1.0, 3.0]), np.array([5.0, 5.0]), 1.0, 1.0)
    with pytest.raises(FifoViolation):
        pushforward(f, flat)


def test_constant_map_over_gap_is_fine():
    f = sum_flows([
        CumulativeFlow.atom_at(0.0, 1.0),
        CumulativeFlow.atom_at(3.0, 1.0),
    ])
    curve = ExitTimeCurve(np.array([1.0, 2.0]), np.array([2.0, 2.0]), 1.0, 1.0)
    g = pushforward(f, curve)
    assert g.total == pytest.approx(2.0)
    assert g.atom_mass(1.0) == pytest.approx(1.0)
    assert g.atom_mass(3.0) == pytest.approx(1.0)


@given(flows_st(), st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_pushforward_conserves_mass(f, delta):
    curve = ExitTimeCurve(
        np.array([0.0, 5.0]), np.array([delta, 5.0 + 2 * delta]), 1.0, 1.0
    )
    g = pushforward(f, curve)
    assert g.total == pytest.approx(f.total, rel=1e-12, abs=1e-12)


# -- batched paths against their loop versions ----------------------------------

segments_st = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 1.0, 2.0]) | times_st,
        st.sampled_from([0.25, 0.5, 1.0]) | st.floats(min_value=1e-3, max_value=5.0),
        st.sampled_from([0.0, 1.0]) | rate_st,
    ).map(lambda t: (t[0], t[0] + t[1], t[2])),
    max_size=8,
)


@given(segments_st)
@settings(max_examples=300, deadline=None)
def test_piecewise_rate_matches_loop_reference_bits(segs):
    # overlapping and abutting segments; rates add in segment order
    assert same_flow_bits(
        CumulativeFlow.piecewise_rate(segs), loop_reference.piecewise_rate(segs)
    )


#: bin masses; the repeated values give runs of equal rates and of empty bins,
#: and the tiny ones rates that round to 0 or to a subnormal
bin_mass_st = st.sampled_from([0.0, 0.0, 0.25, 1.0, 5e-324, 1e-300]) | st.floats(
    min_value=0.0, max_value=3.0
)


@st.composite
def bin_inputs_st(draw):
    """Bin edges, uniform as the solvers use or irregular, and one mass per bin."""
    bins = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        edges = np.linspace(0.0, draw(st.sampled_from([1.0, 4.0, 12.5])), bins + 1)
    else:
        widths = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=bins, max_size=bins))
        edges = np.cumsum([draw(st.floats(min_value=0.0, max_value=3.0)), *widths])
    masses = np.array(draw(st.lists(bin_mass_st, min_size=bins, max_size=bins)))
    return edges, masses


@given(bin_inputs_st())
@example((np.linspace(0.0, 4.0, 6), np.array([0.0, 0.0, 1.0, 2.0, 0.5])))
@example((np.linspace(0.0, 4.0, 6), np.array([1.0, 0.0, 0.0, 2.0, 2.0])))
@example((np.linspace(0.0, 4.0, 6), np.array([1.0, 0.25, 2.0, 0.0, 0.0])))
@example((np.linspace(0.0, 4.0, 6), np.zeros(5)))
@settings(max_examples=300, deadline=None)
def test_from_bins_matches_loop_reference_bits(inputs):
    # empty bins at the start, in the middle and at the end, and no mass at all
    edges, masses = inputs
    before = edges.copy()
    assert same_flow_bits(
        CumulativeFlow.from_bins(edges, masses), loop_reference.from_bins(edges, masses)
    )
    assert edges.flags.writeable and same_bits(edges, before)


def test_from_bins_rejects_negative_mass_and_repeated_edges():
    with pytest.raises(ValueError, match="masses must be nonnegative"):
        CumulativeFlow.from_bins(np.linspace(0.0, 4.0, 5), np.array([1.0, -1e-3, 0.0, 1.0]))
    with pytest.raises(ValueError, match="edges must be strictly increasing"):
        CumulativeFlow.from_bins(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(3))


def _bottleneck_tolerance(model, f: CumulativeFlow) -> float:
    """How far the closed-form bottleneck may lie from the point-queue loop
    on inflow f: 1e-12 * (1 + total), plus f's own mismatch between its
    stored values and its slopes, divided by min(1, capacity).  The closed
    form reads the stored values at f's vertices, while the loop integrates
    the slopes; a merged cluster of rounding twins in ``sum_flows`` leaves
    the two up to rate * MERGE_TOL * (1 + |t|) apart, and the exit times
    carry that mass over the capacity."""
    return 1e-12 * (1.0 + f.total) + slope_mismatch(f) / min(1.0, model.capacity)


@given(flows_st(), bottlenecks_st)
@settings(max_examples=200, deadline=None)
def test_bottleneck_exit_profile_matches_loop_reference(f, model):
    # Newell's closed form against the point-queue loop, an independent
    # construction: the exit maps and the outflows agree at every knot and
    # midpoint, and the outflow carries the inflow's total exactly
    got = model.exit_profile(f)
    want = loop_reference.bottleneck_exit_profile(model, f)
    tol = _bottleneck_tolerance(model, f)
    assert knot_linf(got.curve, want.curve, np.concatenate([got.curve.xs, want.curve.xs])) <= tol
    knots = np.concatenate([got.outflow.times, want.outflow.times, [0.0]])
    assert knot_linf(got.outflow, want.outflow, knots) <= tol
    assert got.outflow.total == f.total


#: vertex values that repeat, so slopes stay equal and curves flat; the
#: negative and tiny ones make rejected inputs and sub-tolerance residues
vertex_value_st = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, -1.0, 1e-12, 5e-9]) | st.floats(
    min_value=-1.0, max_value=5.0
)


@st.composite
def build_inputs_st(draw):
    """Vertex arrays for ``_build``: curves it accepts, with vertices that
    change no slope, zero atoms and a drift at vertex 0 below or above the
    tolerance, and arrays it rejects, where one of the four is arbitrary."""
    n = draw(st.integers(min_value=0, max_value=6))

    def row():
        return np.array(draw(st.lists(vertex_value_st, min_size=n, max_size=n)), dtype=float)

    times = np.cumsum(np.abs(row()) + draw(st.sampled_from([0.0, 0.25])))
    atoms = np.abs(row()) * draw(st.sampled_from([0.0, 1.0]))
    slopes = np.abs(row())
    if n and draw(st.booleans()):
        slopes[-1] = 0.0
    cums = np.cumsum(atoms + np.append(0.0, slopes[:-1] * np.diff(times))[:n])
    if n:
        cums[0] += draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6]))
    arrays = [times, cums, atoms, slopes]
    if draw(st.booleans()):
        arrays[draw(st.integers(min_value=0, max_value=3))] = row()
    return arrays


@given(build_inputs_st())
@example([np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3), np.zeros(3)])
@example([np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]), np.zeros(3), np.array([1.0, 1.0, 0.0])])
@example([np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.zeros(3), np.array([1.0, 1.0, 0.0])])
@example([np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.array([1.0, 0.0]), np.zeros(2)])
@example([np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 1.0])])
@example([np.array([0.0, 1.0]), np.array([1e-6, 1.0]), np.zeros(2), np.array([1.0, 0.0])])
@settings(max_examples=400, deadline=None)
def test_build_matches_loop_reference_bits(arrays):
    # both versions keep the same vertices or raise the same error
    got = outcome(_build, *arrays)
    assert same_outcome(got, outcome(loop_reference._build, *[a.copy() for a in arrays]), same_flow_bits)
    # the caller's arrays are neither frozen nor shared by the built flow
    assert all(a.flags.writeable for a in arrays)
    if got[0] == "ok":
        f = got[1]
        assert not any(
            np.shares_memory(getattr(f, name), a)
            for name in ("times", "cums", "atoms", "slopes") for a in arrays
        )


@given(
    arrivals_st(),
    st.sampled_from([0.5, 1.0]) | st.floats(min_value=0.05, max_value=2.0),
    st.sampled_from([0.5, 1.0, 2.0]) | st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=400, deadline=None)
def test_bottleneck_outflow_matches_point_queue_loop(inflow, free_flow, capacity):
    # rates equal to the capacity, queues that clear inside a segment or
    # carry over, and atoms joining a queue; the loop serves the inflow
    # shifted by the free-flow time
    assume(not inflow.is_zero)
    model = BottleneckModel(free_flow, capacity)
    got = model.exit_profile(inflow).outflow
    want = loop_reference._point_queue_exits(inflow.shifted(free_flow), capacity)
    knots = np.concatenate([got.times, want.times, [0.0]])
    assert knot_linf(got, want, knots) <= _bottleneck_tolerance(model, inflow)
    assert got.total == inflow.total


# -- batched loading kernels against their loop versions --------------------------

def _same_map_bits(got, want) -> bool:
    return (
        type(got) is type(want)
        and same_bits(got.xs, want.xs) and same_bits(got.ys, want.ys)
        and same_bits([got.lo_slope, got.hi_slope], [want.lo_slope, want.hi_slope])
    )


@given(maps_st(), st.lists(y_st, max_size=6))
@example(PiecewiseLinearMap(np.array([0.0, 1.0, 1.0, 2.0]), np.array([1.0, 3.0, 0.0, 0.0]), 0.0, 0.0), [0.0, 1.0, 3.0])
# a jump from -0.0 to 0.0: inf lands on the jump's right end, sup on its left
@example(PiecewiseLinearMap(np.array([-0.0, 0.0]), np.array([0.0, 1.0]), 1.0, 1.0), [])
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_preimages_match_scalar_bits(m, extra):
    # levels at the vertices, between them, beyond both ends; flat and zero slopes
    levels = probe_points(np.sort(m.ys), extra)
    with warnings.catch_warnings():  # the batch divides by zero only in discarded branches
        warnings.simplefilter("error", RuntimeWarning)
        infs, sups = m.preimages(levels)
    assert same_bits(sups, [m.preimage_sup(float(y)) for y in levels])
    assert same_bits(infs, [m.preimage_inf(float(y)) for y in levels])


@given(maps_st(), maps_st())
@example(  # a jump, a flat piece and a fall in the inner map; flat outer extensions
    PiecewiseLinearMap(np.array([0.5, 2.0, 3.0]), np.array([0.0, 2.0, 2.0]), 0.0, 0.0),
    PiecewiseLinearMap(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.5, 2.5, 0.5]), 1.0, 0.0),
)
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compose_after_matches_loop_reference_bits(outer, inner):
    # inner maps that jump, stay flat and fall; boundary slopes that are 0
    assert _same_map_bits(outer.compose_after(inner), loop_reference.compose_after(outer, inner))


@given(flows_st(), bottlenecks_st, bottlenecks_st)
@settings(max_examples=100, deadline=None)
def test_composed_exit_curves_match_loop_reference_bits(f, first, second):
    # a route through two bottlenecks: the second one fed by the first
    inner = first.exit_profile(f)
    outer = second.exit_profile(inner.outflow).curve
    assert _same_map_bits(
        PiecewiseLinearMap.compose_after(outer, inner.curve),
        loop_reference.compose_after(outer, inner.curve),
    )


@given(flows_st(), maps_st(slope_st=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0), monotone=True))
@example(
    CumulativeFlow.atom_at(1.0, 1.0),
    PiecewiseLinearMap(np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5, 3.0]), 1.0, 1.0),
)
@settings(max_examples=400, deadline=None)
def test_pushforward_matches_loop_reference_bits(f, curve):
    # atoms of the flow, jumps and flat pieces of the map; a map that is
    # constant over mass raises, and both versions must raise alike
    assert same_outcome(
        outcome(pushforward, f, curve), outcome(loop_reference.pushforward, f, curve),
        same_flow_bits,
    )


@given(clustered_parts_st())
@example([CumulativeFlow.constant_rate(0.0, 0.25, 2.0), CumulativeFlow.atom_at(1e-9, 1.0)])
@example([CumulativeFlow.constant_rate(0.0, 0.25, 2.0), CumulativeFlow.constant_rate(1e-9, 1.0, 0.25)])
# rounding twins: the 4.4e-16 of density between them stays an atom
@example([CumulativeFlow.constant_rate(0.0, 1.0, 1.0), CumulativeFlow.constant_rate(4.440892098500626e-16, 1.0, 1.0)])
# a chain of twins 8e-13 apart spans 1.6e-12, more than the scale 1e-12 at 0:
# each instant joins the one before it, so all three make one cluster
@example([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.atom_at(8e-13, 1.0),
          CumulativeFlow.atom_at(1.6e-12, 1.0)])
@settings(max_examples=400, deadline=None)
def test_sum_flows_matches_loop_reference_bits(parts):
    # an instant within MERGE_TOL * (1 + |t|) of the one before it joins its
    # cluster; where the cluster rule cannot build a curve, both versions
    # raise alike
    assert same_outcome(
        outcome(sum_flows, parts), outcome(loop_reference.sum_flows, parts), same_flow_bits
    )


def test_sum_flows_keeps_instants_1e9_apart_as_two_vertices():
    # 1e-9 lies far beyond the rounding scale 1e-12 at 0, so 0.0 and 1e-9 are
    # two vertices: the density between them is a piece of its own, no atom
    # sits at 0, and the sum reads the parts' values exactly at its vertices
    parts = [CumulativeFlow.constant_rate(0.0, 0.25, 2.0), CumulativeFlow.constant_rate(1e-9, 1.0, 0.25)]
    f = sum_flows(parts)
    assert f.times.tolist() == [0.0, 1e-9, 0.25, 1.0]
    assert f.atoms.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert f.slopes.tolist() == [2.0, 2.25, 0.25, 0.0]
    for h in f.times:
        assert f.value(h) == parts[0].value(h) + parts[1].value(h)
    for h in (5e-10, 0.1, 0.5):
        assert f.value(h) == pytest.approx(parts[0].value(h) + parts[1].value(h), rel=1e-15)


delay_models_st = st.sampled_from([
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
    ArcPerformanceModel.affine(0.5, 0.5),
    ArcPerformanceModel((0.0, 2.0, 8.0), (0.8, 1.2, 2.4)),
])


@given(flows_st() | flows_st(max_atoms=0), delay_models_st)
@example(  # the stored values exceed the slopes' by rounding: the exits read
    # 0.7500000000000003 + 1 ulp at the map's last kink, as pushforward's do
    CumulativeFlow(
        np.array([0.0, 0.75, 1.625]),
        np.array([0.0, 0.7500000000000002, 0.7500000000000003]),
        np.zeros(3),
        np.array([1.0000000000000002, 2.220446049250313e-16, 0.0]),
    ),
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
)
@settings(max_examples=300, deadline=None)
def test_volume_delay_outflow_is_the_pushforward_under_its_map(f, model):
    # the sweep's cumulative exits are the outflow.  Pushing the inflow
    # forward under the returned map finds no FIFO breach the sweep let
    # through, and the same outflow up to rounding: the sweep reads a
    # vertex's exit time from its own ordinates, pushforward by interpolation
    got = outcome(model.exit_profile, f)
    assume(got[0] == "ok")
    profile = got[1]
    image = pushforward(f, profile.curve)
    loop_reference.pushforward(f, profile.curve)
    tol = 1e-14 * (1.0 + f.total)
    assert abs(profile.outflow.total - f.total) <= tol
    assert knot_linf(profile.outflow, image, np.concatenate([profile.outflow.times, image.times, [0.0]])) <= tol


@pytest.mark.parametrize(
    "fx", acceptance_fixtures() + [ladder_fixture(2), ladder_fixture(3), ladder_fixture(5)],
    ids=lambda fx: fx.name,
)
def test_volume_delay_outflow_is_the_pushforward_bits_on_fixtures(fx):
    bundle = load(fx.network, fx.flows)
    for aid, arc in fx.network.arcs.items():
        if isinstance(arc.model, ArcPerformanceModel):
            profile = bundle.profiles[aid]
            assert same_flow_bits(profile.outflow, pushforward(bundle.total(aid), profile.curve))


def _close_profiles(f: CumulativeFlow):
    """Two exit profiles of inflow f agree: their maps and their outflows lie
    within 1e-12 * (1 + total) at every vertex and midpoint (``knot_linf``),
    and the first outflow carries f's total."""
    tol = 1e-12 * (1.0 + f.total)

    def close(got, want) -> bool:
        return (
            knot_linf(got.curve, want.curve, np.concatenate([got.curve.xs, want.curve.xs])) <= tol
            and knot_linf(got.outflow, want.outflow, np.concatenate([got.outflow.times, want.outflow.times, [0.0]])) <= tol
            and abs(got.outflow.total - f.total) <= 1e-12 * f.total
        )

    return close


def _inflow_knots(f: CumulativeFlow, curve) -> np.ndarray:
    """The instants, from f's first vertex to its last, where f or the map
    has a vertex: both are linear between two of them."""
    if f.is_zero:
        return np.empty(0)
    us = np.unique(np.concatenate([f.times, curve.xs]))
    return us[(us >= f.times[0]) & (us <= f.times[-1])]


def _mass_behind_front(f: CumulativeFlow, curve) -> float:
    """The largest mass of f that ``curve`` sends, as an atom or on one of
    f's mass-carrying pieces, before the front by more than
    ``MERGE_TOL * (1 + |front|)``: the front is the latest exit of earlier
    mass, read between the vertices too."""
    us = _inflow_knots(f, curve)
    front, worst = -np.inf, 0.0
    for k, a in enumerate(us):
        ya, rate = curve.value(a), f.slope_at(a)
        limit = front - MERGE_TOL * (1.0 + abs(front))
        if ya < limit:
            worst = max(worst, f.atom_mass(a))
        if f.atom_mass(a) > 0 or rate > 0:
            front = max(front, ya)
        if rate == 0:
            continue
        b = us[k + 1]
        yb = curve.left_value(b)
        limit = front - MERGE_TOL * (1.0 + abs(front))
        if min(ya, yb) < limit:
            # the linear piece lies below the limit on [lo, hi]
            cut = a + (limit - ya) * (b - a) / (yb - ya) if max(ya, yb) > limit else None
            lo, hi = (a, b) if cut is None else (cut, b) if ya > limit else (a, cut)
            worst = max(worst, rate * (hi - lo))
        front = max(front, yb)
    return worst


def _exit_miss(f: CumulativeFlow, profile) -> float:
    """The largest gap between E(X(u)) and A(u), for the outflow E, the map
    X and the inflow A, read at f's atoms, at the start and the midpoint of
    each of its mass-carrying pieces, all from the right."""
    us = _inflow_knots(f, profile.curve)
    mids = (us[:-1] + us[1:]) / 2
    carrying = f.values(mids) > f.values(us[:-1])
    pts = np.concatenate([us[:-1][carrying], mids[carrying], f.times[f.atoms > 0]])
    miss = profile.outflow.values(profile.curve.values(pts)) - f.values(pts)
    return float(np.max(np.abs(miss), initial=0.0))


def _meets_model(f: CumulativeFlow, profile) -> bool:
    """The profile of inflow f carries its mass, sends at most
    1e-12 (1 + total) of it behind the front of earlier mass, and lets every
    entrant leave when the exits reach the mass that entered by then, within
    1e-9 (1 + total)."""
    return (
        abs(profile.outflow.total - f.total) <= 1e-12 * f.total
        and _mass_behind_front(f, profile.curve) <= 1e-12 * (1.0 + f.total)
        and _exit_miss(f, profile) <= 1e-9 * (1.0 + f.total)
    )


def _check_sweep_against_blocks(model, f: CumulativeFlow) -> None:
    """Where the block loop returns a profile that meets the model, the sweep
    returns a close one.  Elsewhere the sweep meets the model itself: it
    raises FifoViolation, or returns a profile that meets it.

    The block loop checks FIFO at its samples only, so its map can send mass
    behind the exit front between two samples unseen, and its exits then
    depend on where it sampled; the sweep checks the straight lines between
    its samples too.
    """
    got = outcome(model.exit_profile, f)[:2]
    want = outcome(loop_reference.volume_delay_exit_profile, model, f)[:2]
    if want[0] == "ok" and _meets_model(f, want[1]):
        assert same_outcome(got, want, _close_profiles(f))
    elif got[0] == "raises":
        assert got[1] is FifoViolation, got
    else:
        assert _meets_model(f, got[1])


@given(flows_st(max_atoms=0), delay_models_st)
@example(  # the empty instants between the pulses exit after the second
    # pulse's first entrants; they move no front, and both load
    CumulativeFlow.piecewise_rate([(0.0, 1.0, 12.0), (6.5, 8.5, 0.5)]),
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
)
@example(  # the values at 0 and 1 lie off the slope by 1.5e-9, as a merge of 0
    # and 1e-9 once left them, so the volume at the crossing of 1.0 reads
    # 1 + 6.7e-10
    CumulativeFlow(
        np.array([0.0, 1.0, 1.000000001]),
        np.array([1e-09, 1.4999999995, 1.5]),
        np.array([1e-09, 0.0, 0.0]),
        np.array([1.5, 0.5, 0.0]),
    ),
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
)
@settings(max_examples=300, deadline=None)
def test_volume_delay_sweep_matches_block_reference(f, model):
    # flows_st merges rounding twins, which can leave an atom of at most
    # rate * MERGE_TOL * (1 + |t|)
    _check_sweep_against_blocks(model, f)


affine_models_st = st.sampled_from([
    ArcPerformanceModel.affine(0.5, 0.5),
    ArcPerformanceModel.affine(1.0, 0.5),
    ArcPerformanceModel.affine(0.6, 0.8),
])


@given(flows_st(), affine_models_st)
@example(  # an atom leaves before the inflow resumes, and the resumed entries
    # exit before an empty instant does, which moves no front: both load
    CumulativeFlow.from_vertices(
        [6.303177554434782, 8.49044521859272, 11.522804130384685],
        [0.0, 1.8198573167186636, 11.596615560488324],
        [1.8198573167186636, 1.8198573167186636, 11.596615560488324],
    ),
    ArcPerformanceModel.affine(0.6, 0.8),
)
@example(  # the block loop raises on 1.17e-11 sent backwards, above the
    # tolerance of the mass entered by the end of its block; the sweep, with
    # the whole inflow's, raises where 1.15 overtakes the departing atom of 4
    CumulativeFlow(
        np.array([0.0, 1.0, 2.01171875, 3.0, 4.0]),
        np.array([3.0, 8.000000001, 8.000000002011719, 8.000000002011719, 11.000000002011719]),
        np.array([3.0, 4.0, 0.0, 0.0, 0.0]),
        np.array([1.000000001, 1e-09, 0.0, 3.0, 0.0]),
    ),
    ArcPerformanceModel.affine(0.5, 0.5),
)
@example(  # a departing atom drops the volume, and 0.627 overtakes: both raise
    CumulativeFlow(
        np.array([0.09757317788683162, 2.7253067733362006, 3.5236156624432002, 3.616758500674251,
                  4.350223188805252, 4.439820691550813, 8.446976668066739]),
        np.array([0.0, 9.506196075847917, 10.558087066080612, 14.649350669144352,
                  14.649350669144352, 16.755452022587637, 28.579259298946287]),
        np.array([0.0, 0.0, 1.0518909902326945, 4.091263603063742, 0.0, 1.841728413853439, 0.0]),
        np.array([3.6176407274734643, 0.0, 0.0, 0.0, 2.9506730822689398, 2.9506730822689398, 0.0]),
    ),
    ArcPerformanceModel.affine(0.5, 0.5),
)
@example(  # an atom at the first instant; a departing atom drops the volume,
    # and 3.17 overtakes: both raise
    CumulativeFlow(
        np.array([0.9120171424611312, 3.385390044624248, 3.711748729801373, 3.9326213782161448,
                  5.858397316803732, 7.077721258411771, 8.130867999521268]),
        np.array([4.236800034329092, 8.72257395049941, 8.72257395049941, 9.53724556874917,
                  20.922751932399404, 25.31371264465605, 27.655640634120427]),
        np.array([4.236800034329092, 4.4857739161703165, 0.0, 0.0, 0.0, 1.6794972897258635, 0.0]),
        np.array([0.0, 0.0, 3.688422374145251, 5.912165655159578, 2.2237432810143276,
                  2.2237432810143276, 0.0]),
    ),
    ArcPerformanceModel.affine(1.0, 0.5),
)
@example(  # a departing atom drops the volume, and 0.158 overtakes: both raise
    CumulativeFlow(
        np.array([0.0, 1.25, 3.875, 9.125, 10.625]),
        np.array([0.25, 4.21875, 7.171875, 7.171875, 7.546875]),
        np.array([0.25, 2.5625, 0.0, 0.0, 0.0]),
        np.array([1.125, 1.125, 0.0, 0.25, 0.0]),
    ),
    ArcPerformanceModel.affine(0.6, 0.8),
)
@example(  # the atom at 0 drops the volume as it leaves, and 0.0308 of the
    # entrants after it overtake: both raise
    sum_flows([CumulativeFlow.atom_at(0.0, 0.25), CumulativeFlow.constant_rate(0.0, 2.75, 0.25)]),
    ArcPerformanceModel.affine(1.0, 0.5),
)
@example(  # the atom at 0 drops the volume as it leaves, and the 5e-13 entering
    # after it overtakes the atom at 1, within the mass FIFO lets go back but
    # ahead of mass 1: the block loop misses its exits, the sweep raises
    sum_flows([CumulativeFlow.atom_at(0.0, 2.0), CumulativeFlow.atom_at(1.0, 1.0),
               CumulativeFlow.constant_rate(0.0, 2.0, 1e-12)]),
    ArcPerformanceModel.affine(0.5, 0.5),
)
@example(  # the density 2.2e-306 after 4 overtakes the atom at 3, but adds
    # nothing to the inflow's values, and the stored left limit at 5 sits an
    # ulp above them: no mass overtakes, and both load
    CumulativeFlow(
        np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        np.array([0.0, 5.0, 8.0, 9.774396421296373, 9.774396421296373, 10.774396421296375]),
        np.array([0.0, 2.0, 0.0, 1.7743964212963743, 0.0, 1.0]),
        np.array([3.0, 3.0, 0.0, 0.0, 2.2103680313315934e-306, 0.0]),
    ),
    ArcPerformanceModel.affine(0.5, 0.5),
)
@example(  # vertices at 1 and 1 + 1e-12, within the merge scale 2e-12 there:
    # the sweep and the block loop place E's vertices up to 1.5e-12 apart in
    # time, which knot_linf reads as one cluster, as sum_flows would merge them
    CumulativeFlow(
        np.array([0.0, 1.0, 1.000000000001, 2.0]),
        np.array([3e-12, 3.999999999999, 4.0, 5.0]),
        np.array([3e-12, 0.0, 0.0, 1.0]),
        np.array([4.0, 1.0, 0.0, 0.0]),
    ),
    ArcPerformanceModel((0.0, 64.0), (0.5, 32.5)),
)
@settings(max_examples=300, deadline=None)
def test_volume_delay_sweep_matches_block_reference_with_atoms(f, model):
    # a departing atom drops the volume at once, so later entrants may
    # overtake
    _check_sweep_against_blocks(model, f)


def test_volume_delay_sweep_adds_no_event_at_a_flat_first_exit():
    # the arc is empty up to the atom's exit at 1.0, so h0 + t_min = 0.5 is
    # no kink of the exits and no vertex of the map; the block loop's map has
    # none there either.  Nobody enters after 0.75, so nobody overtakes when
    # the atom leaves; the same inflow up to 3 lets 3/7 overtake, and
    # test_volume_delay_rejects_entrants_overtaking_a_departing_atom rejects it
    model = ArcPerformanceModel.affine(0.5, 0.5)
    f = sum_flows([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.constant_rate(0.0, 0.75, 1.0)])
    got = model.exit_profile(f).curve
    want = loop_reference.volume_delay_exit_profile(model, f).curve
    assert 0.5 not in got.xs and 0.5 not in want.xs
    assert knot_linf(got, want, np.concatenate([got.xs, want.xs])) <= 1e-12 * (1.0 + f.total)


@given(flows_st() | flows_st(max_atoms=0), delay_models_st | affine_models_st)
@example(  # two pulses with an empty stretch between them, whose instants
    # add no vertex to E
    CumulativeFlow.piecewise_rate([(0.0, 0.5, 1.0), (2.0, 3.0, 1.0)]),
    ArcPerformanceModel.affine(1.0, 0.5),
)
@example(  # a slow pulse enters while a fast one leaves; the empty instants
    # between them exit after its first entrants and add no vertex to E
    CumulativeFlow.piecewise_rate([(0.0, 1.0, 12.0), (6.5, 8.5, 0.5)]),
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
)
@example(  # nothing enters on ]0, 7[: the emptied arc's exit times at 6.24,
    # 6.84, ... are no vertices of E and no events
    sum_flows([
        CumulativeFlow.atom_at(0.0, 3.14899430337462),
        CumulativeFlow.constant_rate(7.0, 8.0, 1.0),
    ]),
    ArcPerformanceModel((0.0, 64.0), (0.6, 51.800000000000004)),
)
@settings(max_examples=300, deadline=None)
def test_volume_delay_sweep_steps_over_flat_exit_vertices(f, model):
    # where the exit map has a vertex at a vertex t of the exits E, other
    # than at an inflow vertex, E holds an atom at t or rises on one side of
    # it, or E's next vertex was not known before the sweep reached t: it
    # stems from entries at t or later, and exits no earlier than the map at
    # t.  A vertex that leaves E flat on both sides is no kink, and once its
    # successor is known the sweep steps over it instead of making it an event
    assume(not f.is_zero)
    h_limit = float(f.times[-1]) + 2.0 * model.t_max(f.total) + 8.0 * model.t_min
    got = outcome(_volume_exit_sweep, f, model._delay_map(), h_limit)
    if got[0] == "raises":
        assert got[1] is FifoViolation, got
        return
    xs, ys, et, e_lo, e_hi = got[1]
    curve = ExitTimeCurve(np.array(xs), np.array(ys), 1.0, 1.0)
    out = CumulativeFlow.from_vertices(et, e_lo, e_hi)
    events = set(xs) - set(f.times.tolist())
    for k, t in enumerate(et):
        if t not in events:
            continue
        j = int(np.searchsorted(out.times, t))
        if out.atom_mass(t) > 0 or (j > 0 and out.slopes[j - 1] > 0) or out.slope_at(t) > 0:
            continue
        assert k + 1 == len(et) or et[k + 1] >= curve.left_value(t), (t, et[k + 1])


def test_outflow_meets_inflow_through_the_exit_map_after_an_empty_stretch():
    # the atom of 2 leaves at 2; nobody enters on ]0, 2[, whose exit times run
    # up to 4, and the entrants from 2 on exit from 3 on: they are behind no
    # earlier mass, and the empty instants move no exit front
    model = ArcPerformanceModel.affine(1.0, 0.5)
    f = sum_flows([CumulativeFlow.atom_at(0.0, 2.0), CumulativeFlow.constant_rate(2.0, 5.0, 1.0)])
    profile = model.exit_profile(f)
    us = np.linspace(2.0, 5.0, 13)
    for out in (profile.outflow, pushforward(f, profile.curve)):
        # every entrant leaves when the exits reach the mass that entered by then
        miss = np.max(np.abs(out.values(profile.curve.values(us)) - f.values(us)))
        assert miss <= 1e-12 * (1.0 + f.total)


def test_volume_delay_map_has_no_vertex_where_nothing_enters_or_leaves():
    # the atom at 0 leaves at 1.0, the one at 3 at 4.0; nothing enters or
    # leaves in between, so no exit vertex and no event lies there, and the
    # map is h + 0.6 without a vertex
    model = ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
    f = sum_flows([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.atom_at(3.0, 1.0)])
    profile = model.exit_profile(f)
    assert profile.curve.xs.tolist() == [0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 4.0, 4.0]
    assert profile.outflow.times.tolist() == [1.0, 4.0]
    assert profile.outflow.atoms.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("model", [
    ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0)),
    ArcPerformanceModel.affine(0.5, 0.5),
])
@pytest.mark.parametrize("end", [2.0, 3.0])
def test_volume_delay_rejects_entrants_overtaking_a_departing_atom(model, end):
    # an atom of 1 at 0 and rate 1 from 0 on: the atom leaves at 1.0, and the
    # volume drops from 2 to 1.  The map falls from 2.5 to 2.0 at entry 1, and
    # the entrants on ]1, 10/7[, 3/7 units, exit before those just before 1,
    # wherever the samples fall, whether the rate ends at 2 or at 3
    f = sum_flows([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.constant_rate(0.0, end, 1.0)])
    with pytest.raises(FifoViolation, match="map sends mass 0.429 backwards"):
        model.exit_profile(f)


def test_volume_delay_loads_rates_starting_1e9_apart():
    # the rates from 0 and from 1e-9 start two vertices, and the 2.14e-9
    # entering between them is a piece of its own: no atom leaves, so no
    # departure drops the volume and lets the entrants after it overtake
    model = ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
    f = sum_flows([
        CumulativeFlow.constant_rate(0.0, 1.5973960847481963, 2.141607538391901),
        CumulativeFlow.constant_rate(1e-9, 1.1932528536038254, 3.018463087553071),
    ])
    assert f.atom_mass(0.0) == 0.0
    assert _meets_model(f, model.exit_profile(f))
