"""Equilibrium search: induced flows, gap functional, solver behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynwardrop import equilibrium
from dynwardrop.arcs import ArcPerformanceModel, BottleneckModel, ConstantModel
from dynwardrop.curves import ExitTimeCurve
from dynwardrop.equilibrium import (
    DemandTable,
    SolverConfig,
    UserClass,
    induced_flows,
    margin_error,
    solve_departure_choice,
    solve_wardrop,
    wardrop_gap,
)
from dynwardrop.errors import DegenerateDemand, NoRoute, ValidationError
from dynwardrop.flows import CumulativeFlow, Horizon
from dynwardrop.network import Arc, Network, TravelTimePattern, load, route_times

import loop_reference
from helpers import curve_linf, outcome, same_bits, same_flow_bits, same_outcome
from strategies import bottlenecks_st, flows_st, maps_st


def parallel(models: dict[str, object]) -> Network:
    return Network(
        arcs={k: Arc("A", "B", m) for k, m in models.items()},
        routes={k: (k,) for k in models},
    )


H4 = Horizon(4.0)


def demand_one(rate: float, lo=0.0, hi=1.0) -> DemandTable:
    return DemandTable({("A", "B"): CumulativeFlow.constant_rate(lo, hi, rate)}, H4)


# -- induced flows ---------------------------------------------------------------

def test_single_route_takes_all_demand():
    net = parallel({"r1": ConstantModel(1.0)})
    dem = demand_one(2.0)
    edges = np.linspace(0, 4.0, 5)
    flows = induced_flows(net, dem, {("A", "B"): np.ones((1, 4))}, edges)
    assert flows["r1"].total == pytest.approx(2.0, rel=1e-13)
    assert margin_error(net, dem, flows, edges) < 1e-13


def test_degenerate_split_sends_everything_one_way():
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(2.0)})
    dem = demand_one(2.0)
    edges = np.linspace(0, 4.0, 5)
    share = np.zeros((2, 4))
    share[0] = 1.0
    flows = induced_flows(net, dem, {("A", "B"): share}, edges)
    assert flows["r1"].total == pytest.approx(2.0)
    assert flows["r2"].is_zero


def test_uniform_split_halves_rate():
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(1.0)})
    dem = demand_one(2.0)
    edges = np.linspace(0, 4.0, 5)
    flows = induced_flows(net, dem, {("A", "B"): np.full((2, 4), 0.5)}, edges)
    for r in ("r1", "r2"):
        assert flows[r].mass_between(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert flows[r].slope_at(0.5) == pytest.approx(1.0, rel=1e-12)


def test_margins_match_bin_by_bin():
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(1.0)})
    dem = DemandTable(
        {("A", "B"): CumulativeFlow.piecewise_rate([(0.0, 1.0, 2.0), (2.0, 3.5, 0.8)])},
        H4,
    )
    edges = np.linspace(0, 4.0, 17)
    rng = np.random.default_rng(0)
    share = rng.dirichlet(np.ones(2), size=16).T
    flows = induced_flows(net, dem, {("A", "B"): share}, edges)
    assert margin_error(net, dem, flows, edges) < 1e-12


@st.composite
def induced_case_st(draw):
    """Piecewise demand on [0, 8], edges that may leave some of it outside,
    and per-bin shares of 1-3 routes, some of them zero and none so small
    that a piece's mass underflows."""
    segs = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=6.0),
            st.floats(min_value=0.01, max_value=2.0),
            st.floats(min_value=0.01, max_value=4.0),
        ),
        min_size=1, max_size=4,
    ))
    q = CumulativeFlow.piecewise_rate([(a, a + w, r) for a, w, r in segs])
    widths = draw(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=16))
    edges = draw(st.floats(min_value=-1.0, max_value=4.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    routes = draw(st.integers(min_value=1, max_value=3))
    raw = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(min_value=1e-9, max_value=1.0),
        min_size=routes * (edges.size - 1), max_size=routes * (edges.size - 1),
    ))).reshape(routes, edges.size - 1)
    raw[0, raw.sum(axis=0) == 0] = 1.0
    return q, edges, raw / raw.sum(axis=0)


@given(induced_case_st())
@settings(max_examples=200, deadline=None)
def test_induced_flows_split_the_demand_density(case):
    q, edges, share = case
    net = parallel({f"r{k}": ConstantModel(1.0) for k in range(share.shape[0])})
    dem = DemandTable({("A", "B"): q}, Horizon(8.0))
    shares = {("A", "B"): share}
    flows = induced_flows(net, dem, shares, edges)
    want = loop_reference.induced_flows(net, dem, shares, edges)
    pts = np.union1d(q.times, edges)
    pts = pts[(pts >= edges[0]) & (pts <= edges[-1])]
    mids = (pts[:-1] + pts[1:]) / 2
    bin_of = np.searchsorted(edges, mids) - 1
    density = np.array([q.slope_at(float(h)) for h in mids])
    scale = 1.0 + q.total
    for k, rid in enumerate(net.routes):
        f = flows[rid]
        for h, b, d in zip(mids, bin_of, density):
            assert f.slope_at(float(h)) == pytest.approx(share[k, b] * d, rel=1e-13, abs=0.0)
        # demand outside the edges is dropped, as the loop reference drops it
        assert f.value(float(edges[0])) == 0.0
        assert f.value(float(edges[-1])) == f.total
        assert curve_linf(f, want[rid]) <= 1e-12 * scale
    assert margin_error(net, dem, flows, edges) < 1e-12


def test_induced_flows_keep_demand_instants_closer_than_merge_tol():
    # demand vertices at 0 and 1e-9, and at 1 and its rounding twin: the one
    # pass reads the demand's densities and returns the demand itself, where
    # summing its windows with sum_flows would merge 0 and 1e-9 and read 2e-9
    # away from it
    q = CumulativeFlow.piecewise_rate([(0.0, 1.0, 1.0), (1e-9, np.nextafter(1.0, 2.0), 1.0)])
    net = parallel({"r0": ConstantModel(1.0)})
    dem = DemandTable({("A", "B"): q}, Horizon(8.0))
    edges = np.array([0.0, 1.0, 2.0])
    flows = induced_flows(net, dem, {("A", "B"): np.ones((1, 2))}, edges)
    assert same_flow_bits(flows["r0"], q)
    assert margin_error(net, dem, flows, edges) == 0.0


# -- gap --------------------------------------------------------------------------

def _pattern_and_times(net, flows):
    bundle = load(net, flows)
    return route_times(net, bundle, H4)


def test_gap_zero_on_unique_route():
    net = parallel({"r1": ConstantModel(1.0)})
    flows = {"r1": CumulativeFlow.constant_rate(0.0, 1.0, 2.0)}
    times = _pattern_and_times(net, flows)
    assert wardrop_gap(net, flows, times) == 0.0


def test_gap_half_when_all_flow_rides_double_cost():
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(2.0)})
    flows = {
        "r1": CumulativeFlow.zero(),
        "r2": CumulativeFlow.constant_rate(0.0, 1.0, 1.5),
    }
    times = _pattern_and_times(net, flows)
    assert wardrop_gap(net, flows, times) == pytest.approx(0.5, abs=1e-12)


def test_gap_zero_at_symmetric_split():
    net = parallel({
        "r1": ArcPerformanceModel.affine(1.0, 0.5),
        "r2": ArcPerformanceModel.affine(1.0, 0.5),
    })
    flows = {
        "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
        "r2": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
    }
    times = _pattern_and_times(net, flows)
    assert wardrop_gap(net, flows, times) < 1e-9


def test_gap_needs_mass():
    net = parallel({"r1": ConstantModel(1.0)})
    flows = {"r1": CumulativeFlow.zero()}
    times = _pattern_and_times(net, flows)
    with pytest.raises(DegenerateDemand):
        wardrop_gap(net, flows, times)


# -- route-choice solver ------------------------------------------------------------

def test_single_route_converges_immediately():
    net = parallel({"r1": ConstantModel(1.0)})
    state = solve_wardrop(net, demand_one(2.0), SolverConfig(bin_width=0.5))
    assert state.converged
    assert state.gap == 0.0
    assert state.iterations == 1


def test_missing_route_raises():
    net = parallel({"r1": ConstantModel(1.0)})
    dem = DemandTable({("X", "Y"): CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}, H4)
    with pytest.raises(NoRoute):
        solve_wardrop(net, dem, SolverConfig(bin_width=0.5))


def test_symmetric_pair_reaches_equal_split():
    net = parallel({
        "r1": ArcPerformanceModel.affine(1.0, 0.5),
        "r2": ArcPerformanceModel.affine(1.0, 0.5),
    })
    state = solve_wardrop(
        net, demand_one(2.0), SolverConfig(bin_width=0.125, max_iters=200, tolerance=1e-3)
    )
    assert state.gap < 1e-3
    edges = np.arange(0.0, 4.01, 0.125)
    for a, b in zip(edges[:-1], edges[1:]):
        m1 = state.flows["r1"].mass_between(float(a), float(b))
        m2 = state.flows["r2"].mass_between(float(a), float(b))
        assert abs(m1 - m2) < 1e-3
    assert state.max_margin_error < 1e-12


def test_gap_trace_running_minimum_is_nonincreasing():
    net = parallel({
        "r1": ConstantModel(1.0),
        "r2": BottleneckModel(0.5, 1.0),
    })
    state = solve_wardrop(
        net, demand_one(2.0), SolverConfig(bin_width=0.25, max_iters=40, tolerance=1e-9)
    )
    running = np.minimum.accumulate([g for _, g in state.gap_trace])
    assert all(b <= a + 1e-15 for a, b in zip(running[:-1], running[1:]))
    assert state.gap == running[-1]


def test_deterministic_given_identical_inputs():
    net = parallel({
        "r1": ConstantModel(1.0),
        "r2": BottleneckModel(0.5, 1.0),
    })
    cfg = SolverConfig(bin_width=0.25, max_iters=15, tolerance=1e-9)
    s1 = solve_wardrop(net, demand_one(2.0), cfg)
    s2 = solve_wardrop(net, demand_one(2.0), cfg)
    assert s1.gap_trace == s2.gap_trace


# -- departure choice ------------------------------------------------------------------

def test_flat_utility_has_zero_regret():
    net = parallel({"r1": ConstantModel(1.0)})
    cls = UserClass("A", "B", mass=1.0, alpha=1.0, beta=0.0, gamma=0.0)
    state = solve_departure_choice(net, [cls], SolverConfig(bin_width=0.25, max_iters=50), H4)
    assert state.gap < 1e-12
    assert state.converged


def test_uncongested_bottleneck_zero_regret():
    net = parallel({"r1": BottleneckModel(1.0, 1.0)})
    cls = UserClass("A", "B", mass=1.0, alpha=1.0, beta=0.0, gamma=0.0)
    state = solve_departure_choice(net, [cls], SolverConfig(bin_width=0.25, max_iters=50), H4)
    # initial uniform spread stays below capacity: no queue, flat utility
    assert state.gap < 1e-12


def test_fixed_departure_class_only_picks_routes():
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(2.0)})
    cls = UserClass(
        "A",
        "B",
        mass=2.0,
        departure_rate=CumulativeFlow.constant_rate(0.0, 1.0, 2.0),
    )
    state = solve_departure_choice(
        net,
        [cls],
        SolverConfig(bin_width=0.25, max_iters=80, tolerance=1e-6),
        H4,
    )
    assert state.flows["r1"].total == pytest.approx(2.0, rel=1e-4)
    assert state.flows["r2"].total < 1e-4


@pytest.mark.parametrize("departures", [
    CumulativeFlow.constant_rate(5.0, 6.0, 2.0),  # after the horizon
    CumulativeFlow.atom_at(0.0, 2.0),  # at 0, outside ]0, 0.25]
    CumulativeFlow.constant_rate(3.0, 6.0, 2.0 / 3.0),  # partly after it
], ids=["after_horizon", "atom_at_zero", "straddles_horizon"])
def test_fixed_departures_outside_the_bins_are_rejected(departures):
    # the bins ]b, b + 0.25] cover ]0, 4]; mass elsewhere would be dropped
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(2.0)})
    cls = UserClass("A", "B", mass=2.0, departure_rate=departures)
    with pytest.raises(ValidationError, match="outside the departure bins"):
        solve_departure_choice(net, [cls], SolverConfig(bin_width=0.25, max_iters=5), H4)


def test_class_validation():
    with pytest.raises(ValidationError):
        UserClass("A", "B", mass=0.0)
    with pytest.raises(ValidationError):
        UserClass("A", "B", mass=1.0, alpha=0.0)


def test_unreachable_preferred_arrival_is_logged(caplog):
    net = parallel({"srv": BottleneckModel(0.1, 1.0)})
    # h_star beyond the horizon end plus the route's free-flow time
    cls = UserClass("A", "B", mass=1.0, h_star=4.5, alpha=1.0, beta=0.5, gamma=2.0)
    config = SolverConfig(bin_width=0.25, max_iters=2)
    with caplog.at_level("WARNING", logger="dynwardrop.equilibrium"):
        solve_departure_choice(net, [cls], config, H4)
    [record] = caplog.records
    assert record.name == "dynwardrop.equilibrium" and record.levelname == "WARNING"
    assert "preferred arrival 4.5 may be unreachable" in record.getMessage()
    caplog.clear()
    reachable = UserClass("A", "B", mass=1.0, h_star=4.05, alpha=1.0, beta=0.5, gamma=2.0)
    with caplog.at_level("WARNING", logger="dynwardrop.equilibrium"):
        solve_departure_choice(net, [reachable], config, H4)
    assert not caplog.records


# -- batched departure-choice path against its loop version ----------------------

@st.composite
def arrival_curve_st(draw):
    """A bottleneck exit curve (jumps where the inflow has atoms), or a map
    that extends with slope one like every route's arrival curve."""
    if draw(st.booleans()):
        return draw(maps_st(slope_st=st.just(1.0)))
    return draw(bottlenecks_st).exit_profile(draw(flows_st())).curve


@given(
    st.lists(arrival_curve_st(), min_size=1, max_size=3),
    st.floats(min_value=-1.0, max_value=12.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([4.0, 10.0, 12.5]),
)
@settings(max_examples=200, deadline=None)
def test_class_utilities_match_loop_reference_bits(curves, h_star, alpha, beta, gamma, bins, end):
    cls = UserClass("A", "B", mass=1.0, h_star=h_star, alpha=alpha, beta=beta, gamma=gamma)
    rset = [f"r{k}" for k in range(len(curves))]
    times = TravelTimePattern(dict(zip(rset, curves)), Horizon(end))
    edges = np.linspace(0.0, end, bins + 1)
    assert same_bits(
        equilibrium._class_utilities(cls, rset, times, edges),
        loop_reference.class_utilities(cls, rset, times, edges),
    )


def _scheduling_instance():
    # the acceptance suite's departure-time choice instance, cut to 120 iterations
    net = parallel({"srv": BottleneckModel(0.1, 1.0)})
    cls = UserClass("A", "B", mass=1.0, h_star=2.0, alpha=1.0, beta=0.5, gamma=2.0)
    return net, [cls], SolverConfig(bin_width=1.0 / 64.0, max_iters=120, tolerance=1e-2), H4


def _fixed_departure_instance():
    # test_fixed_departure_class_only_picks_routes
    net = parallel({"r1": ConstantModel(1.0), "r2": ConstantModel(2.0)})
    cls = UserClass("A", "B", mass=2.0, departure_rate=CumulativeFlow.constant_rate(0.0, 1.0, 2.0))
    config = SolverConfig(bin_width=0.25, max_iters=80, tolerance=1e-6)
    return net, [cls], config, H4


def _mixed_bottleneck_instance():
    # two queued routes shared by a fixed-departure class and a choosing one
    net = parallel({"r1": BottleneckModel(0.2, 1.0), "r2": BottleneckModel(0.4, 1.5)})
    commuters = UserClass(
        "A", "B", mass=1.5, departure_rate=CumulativeFlow.constant_rate(0.5, 2.0, 1.0)
    )
    choosers = UserClass("A", "B", mass=1.0, h_star=2.0, alpha=1.0, beta=0.5, gamma=2.0)
    return net, [commuters, choosers], SolverConfig(bin_width=0.125, max_iters=60), H4


@pytest.mark.parametrize(
    "instance", [_scheduling_instance, _fixed_departure_instance, _mixed_bottleneck_instance]
)
def test_departure_solver_matches_loop_reference_bits(instance, monkeypatch):
    got = solve_departure_choice(*instance())
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "_class_utilities", loop_reference.class_utilities)
        m.setattr(CumulativeFlow, "from_bins", staticmethod(loop_reference.from_bins))
        want = solve_departure_choice(*instance())
    assert same_bits([g for _, g in got.gap_trace], [g for _, g in want.gap_trace])
    assert type(got.gap) is float and all(type(g) is float for _, g in got.gap_trace)
    assert got.flows.keys() == want.flows.keys()
    for rid in want.flows:
        assert same_flow_bits(got.flows[rid], want.flows[rid])
        assert same_bits(got.times.arrivals[rid].xs, want.times.arrivals[rid].xs)
        assert same_bits(got.times.arrivals[rid].ys, want.times.arrivals[rid].ys)
    for i in want.splits:
        assert same_bits(got.splits[i], want.splits[i])


# -- route choice on the departure-choice bin kernels ----------------------------------

def _three_arc_instance():
    # the third instance of the acceptance suite's margin test
    net = Network(
        {
            "f1": Arc("A", "M", ConstantModel(0.5)),
            "f2": Arc("A", "M", ConstantModel(0.75)),
            "srv": Arc("M", "B", BottleneckModel(0.5, 1.5)),
        },
        {"r1": ("f1", "srv"), "r2": ("f2", "srv")},
    )
    dem = DemandTable(
        {("A", "B"): CumulativeFlow.piecewise_rate([(0.0, 1.0, 1.5), (1.5, 2.0, 1.0)])}, H4
    )
    return net, dem, SolverConfig(bin_width=0.25, max_iters=40, tolerance=1e-9)


def _corridor_instance(bin_width=4.0 / 128, max_iters=60, tolerance=1e-4):
    # the acceptance corridor, by default cut to 60 iterations
    net = parallel({"fast": ConstantModel(1.0), "jam": BottleneckModel(0.5, 1.0)})
    return net, demand_one(2.0), SolverConfig(bin_width=bin_width, max_iters=max_iters, tolerance=tolerance)


def _affine_pair_instance(bin_width: float, max_iters: int, tolerance: float):
    # acceptance tests 8 and 11: two identical volume-delay routes
    net = parallel({"p1": ArcPerformanceModel.affine(1.0, 0.5), "p2": ArcPerformanceModel.affine(1.0, 0.5)})
    return net, demand_one(2.0), SolverConfig(bin_width=bin_width, max_iters=max_iters, tolerance=tolerance)


@pytest.mark.parametrize("instance", [
    _three_arc_instance,
    _corridor_instance,
    pytest.param(lambda: _corridor_instance(0.25, 40, 1e-9), id="acceptance_11_corridor"),
    pytest.param(lambda: _affine_pair_instance(0.125, 200, 1e-3), id="acceptance_8"),
    pytest.param(lambda: _affine_pair_instance(0.25, 40, 1e-9), id="acceptance_11_pair"),
])
def test_route_solver_matches_loop_reference_bits(instance, monkeypatch):
    # the reference run also scores every state it visits with the loop gap
    got = solve_wardrop(*instance())
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "induced_flows", loop_reference.induced_flows)
        m.setattr(equilibrium, "margin_error", loop_reference.margin_error)
        m.setattr(equilibrium, "_class_utilities", loop_reference.route_utilities)
        m.setattr(equilibrium, "_best_options", loop_reference.best_options)
        m.setattr(equilibrium, "wardrop_gap", loop_reference.wardrop_gap)
        want = solve_wardrop(*instance())
    assert same_bits([g for _, g in got.gap_trace], [g for _, g in want.gap_trace])
    assert type(got.gap) is float and all(type(g) is float for _, g in got.gap_trace)
    assert same_bits(got.max_margin_error, want.max_margin_error)
    assert got.splits.keys() == want.splits.keys()
    for od in want.splits:
        assert same_bits(got.splits[od], want.splits[od])
    for rid in want.flows:
        assert same_flow_bits(got.flows[rid], want.flows[rid])


@st.composite
def gap_case_st(draw):
    """Flows with atoms on 1-4 routes from A to B, whose arrival curves come
    from a pool of at most three (so routes can tie exactly), and on the one
    route from A to C."""
    pool = draw(st.lists(arrival_curve_st(), min_size=1, max_size=3))
    n = draw(st.integers(min_value=1, max_value=4))
    curves = [draw(st.sampled_from(pool)) for _ in range(n)] + [draw(arrival_curve_st())]
    rids = [f"b{k}" for k in range(n)] + ["c0"]
    arcs = {r: Arc("A", "B" if r[0] == "b" else "C", ConstantModel(1.0)) for r in rids}
    net = Network(arcs, {r: (r,) for r in rids})
    arrivals = {r: ExitTimeCurve(c.xs, c.ys, c.lo_slope, c.hi_slope) for r, c in zip(rids, curves)}
    flows = {r: draw(flows_st()) for r in rids}
    return net, flows, TravelTimePattern(arrivals, Horizon(16.0))


@given(gap_case_st())
@settings(max_examples=300, deadline=None)
def test_wardrop_gap_matches_loop_reference_bits(case):
    got = outcome(wardrop_gap, *case)
    assert same_outcome(got, outcome(loop_reference.wardrop_gap, *case), same_bits)
    assert got[0] == "raises" or type(got[1]) is float


def test_best_options_breaks_ties_toward_the_lowest_index():
    u = np.array([
        [1.0, 0.0, 5.0, 2.0],
        [1.0 + 5e-13, 2.0, 5.0 - 2e-12, 2.0],
        [0.5, 2.0, 4.0, 2.0 + 2e-12],
    ])
    # within TIE_TOLERANCE of the best, an exact tie, a clear best, beyond it
    want = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    assert same_bits(equilibrium._best_options(u), want)
    assert same_bits(loop_reference.best_options(u), want)


@given(
    st.lists(arrival_curve_st(), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([4.0, 10.0, 12.5]),
)
@settings(max_examples=200, deadline=None)
def test_travel_time_utilities_match_mean_travel_time(curves, bins, end):
    # route choice's bin costs come from the kernel; mean_travel_time is the
    # exact average it replaced
    rset = [f"r{k}" for k in range(len(curves))]
    times = TravelTimePattern(dict(zip(rset, curves)), Horizon(end))
    edges = np.linspace(0.0, end, bins + 1)
    travel_only = UserClass("A", "B", mass=1.0)
    costs = -equilibrium._class_utilities(travel_only, rset, times, edges)
    means = -loop_reference.route_utilities(travel_only, rset, times, edges)
    assert np.max(np.abs(costs - means)) <= 1e-12
