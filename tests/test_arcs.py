"""Arc model behaviour: exit curves, travel times, conformance probes."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from dynwardrop.arcs import (
    ArcModel,
    ArcPerformanceModel,
    BottleneckModel,
    ConstantModel,
    check_assumptions,
)
from dynwardrop.curves import ExitTimeCurve
from dynwardrop.errors import ModelParameterError
from dynwardrop.flows import CumulativeFlow, Horizon, sum_flows

from helpers import slope_mismatch
from strategies import arrivals_st, bottlenecks_st, flows_st


# -- parameter validation -----------------------------------------------------

def test_nonpositive_parameters_rejected():
    with pytest.raises(ModelParameterError):
        ConstantModel(0.0)
    with pytest.raises(ModelParameterError):
        BottleneckModel(free_flow_time=0.0, capacity=1.0)
    with pytest.raises(ModelParameterError):
        BottleneckModel(free_flow_time=1.0, capacity=0.0)
    with pytest.raises(ModelParameterError):
        ArcPerformanceModel((0.0, 1.0), (0.0, 1.0))  # zero empty-arc delay
    with pytest.raises(ModelParameterError):
        ArcPerformanceModel((1.0, 2.0), (1.0, 2.0))  # not defined from volume 0


# -- constant -----------------------------------------------------------------

def test_constant_model_shifts_everything():
    model = ConstantModel(1.0)
    inflow = CumulativeFlow.constant_rate(0.0, 5.0, 2.0)
    curve = model.exit_curve(inflow)
    for h in (-3.0, 0.0, 2.5, 100.0):
        assert curve.value(h) == pytest.approx(h + 1.0, abs=1e-15)
        assert model.travel_time(inflow, h) == pytest.approx(1.0, abs=1e-15)


# -- volume-delay (arc performance) --------------------------------------------

def test_volume_delay_atom_sees_its_own_volume():
    model = ArcPerformanceModel.affine(1.0, 1.0)  # delay(v) = 1 + v
    inflow = CumulativeFlow.atom_at(0.0, 1.0)
    curve = model.exit_curve(inflow)
    assert curve.value(0.0) == pytest.approx(2.0, abs=1e-12)
    assert curve.left_value(0.0) == pytest.approx(1.0, abs=1e-12)
    out = model.exit_profile(inflow).outflow
    assert out.atom_mass(2.0) == pytest.approx(1.0, abs=1e-12)
    assert out.total == pytest.approx(1.0, rel=1e-12)


def test_volume_delay_zero_inflow_is_free_flow():
    model = ArcPerformanceModel.affine(1.0, 1.0)
    for h in (-2.0, 0.0, 7.0):
        assert model.travel_time(CumulativeFlow.zero(), h) == pytest.approx(1.0)


def test_volume_delay_keeps_fifo_on_absolutely_continuous_inflow():
    # 12 units at rate 12, then a slow pulse that enters while the first
    # leaves.  The empty instants near 4.7 exit at 7.600, after the pulse's
    # first entrants (7.590), but carry no mass: nobody overtakes
    model = ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
    inflow = CumulativeFlow.piecewise_rate([(0.0, 1.0, 12.0), (6.5, 8.5, 0.5)])
    out = model.exit_profile(inflow).outflow
    assert out.total == pytest.approx(inflow.total, rel=1e-12)


def test_volume_delay_matches_fine_grid_solver():
    # independent check: brute-force fixed point of the volume balance on a
    # fine uniform grid
    model = ArcPerformanceModel.affine(0.5, 0.8)
    inflow = sum_flows([
        CumulativeFlow.constant_rate(0.0, 1.0, 2.0),
        CumulativeFlow.constant_rate(0.5, 2.0, 0.7),
    ])
    curve = model.exit_profile(inflow).curve

    step = 1e-4
    grid = np.arange(-0.5, 12.0, step)
    a_vals = np.array([inflow.value(t) for t in grid])
    exit_times = np.empty_like(grid)
    # march: served mass at t = inflow mass whose exit time <= t; FIFO holds
    # here, so generated exit times are already sorted
    j = 0
    for i, t in enumerate(grid):
        while j < i and exit_times[j] <= t:
            j += 1
        served = a_vals[j - 1] if j > 0 else 0.0
        vol = max(0.0, a_vals[i] - served)
        exit_times[i] = t + 0.5 + 0.8 * vol
    for t_probe in np.linspace(0.0, 2.0, 9):
        i = int((t_probe - grid[0]) / step)
        assert curve.value(float(grid[i])) == pytest.approx(exit_times[i], abs=5e-3)


def test_volume_delay_exit_times_stable_under_extra_breakpoints():
    # reported exit times must not depend on harmless input re-segmentation
    model = ArcPerformanceModel.affine(1.0, 0.5)
    a = CumulativeFlow.piecewise_rate([(0.0, 2.0, 1.5)])
    b = CumulativeFlow.piecewise_rate([(0.0, 1.0, 1.5), (1.0, 2.0, 1.5)])
    ca = model.exit_curve(a)
    cb = model.exit_curve(b)
    for h in np.linspace(-0.5, 6.0, 40):
        ea, eb = ca.value(float(h)), cb.value(float(h))
        assert abs(ea - eb) < 1e-6 * (1 + abs(ea))


# -- bottleneck -----------------------------------------------------------------

def test_bottleneck_overloaded_interval_closed_form():
    # entering at rate 2 for one time unit into capacity 1 behind one unit of
    # free flow: exits are h -> 1 + 2h, the queue drains until 3
    model = BottleneckModel(free_flow_time=1.0, capacity=1.0)
    inflow = CumulativeFlow.constant_rate(0.0, 1.0, 2.0)
    profile = model.exit_profile(inflow)
    for h in np.linspace(0.0, 1.0, 21):
        assert profile.curve.value(float(h)) == pytest.approx(1.0 + 2.0 * h, abs=1e-9)
    # outflow runs exactly at capacity on [1, 3]
    for a, b in [(1.0, 1.5), (1.5, 2.25), (2.25, 3.0)]:
        assert profile.outflow.mass_between(a, b) == pytest.approx(b - a, abs=1e-9)
    assert profile.outflow.total == pytest.approx(2.0, rel=1e-12)
    assert model.travel_time(inflow, 1.0) == pytest.approx(2.0, abs=1e-9)


def test_bottleneck_underloaded_is_free_flow():
    model = BottleneckModel(free_flow_time=1.0, capacity=2.0)
    inflow = CumulativeFlow.constant_rate(0.0, 4.0, 1.0)
    curve = model.exit_curve(inflow)
    for h in np.linspace(0.0, 4.0, 9):
        assert curve.travel_time(float(h)) == pytest.approx(1.0, abs=1e-12)


def test_bottleneck_atom_spreads_at_capacity():
    model = BottleneckModel(free_flow_time=1.0, capacity=1.0)
    inflow = CumulativeFlow.atom_at(0.0, 2.0)
    profile = model.exit_profile(inflow)
    out = profile.outflow
    # released at exactly capacity over [1, 3]
    assert out.value(1.0) == pytest.approx(0.0, abs=1e-12)
    assert out.value(2.0) == pytest.approx(1.0, abs=1e-12)
    assert out.value(3.0) == pytest.approx(2.0, abs=1e-12)
    for a, b in [(1.0, 2.0), (2.0, 3.0)]:
        assert out.mass_between(a, b) <= 1.0 * (b - a) + 1e-9
    # the curve reports the last-released instant for the atom's entry time
    assert profile.curve.value(0.0) == pytest.approx(3.0, abs=1e-12)


def test_bottleneck_outflow_never_exceeds_capacity():
    model = BottleneckModel(free_flow_time=0.5, capacity=1.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        parts = [
            CumulativeFlow.constant_rate(a, a + w, r)
            for a, w, r in zip(
                rng.uniform(0, 3, 3), rng.uniform(0.1, 2, 3), rng.uniform(0.2, 4, 3)
            )
        ]
        parts.append(CumulativeFlow.atom_at(float(rng.uniform(0, 3)), float(rng.uniform(0.1, 2))))
        inflow = sum_flows(parts)
        out = model.exit_profile(inflow).outflow
        ts = out.times
        for a, b in zip(ts[:-1], ts[1:]):
            assert out.mass_between(float(a), float(b)) <= 1.5 * (b - a) + 1e-9
        assert out.total == pytest.approx(inflow.total, rel=1e-12)


@given(flows_st() | arrivals_st(), bottlenecks_st)
@example(  # rate equal to the capacity behind a standing queue: no queue
    # clears, and nothing divides by mu - lambda = 0
    sum_flows([CumulativeFlow.atom_at(0.0, 1.0), CumulativeFlow.constant_rate(0.0, 2.0, 1.0)]),
    BottleneckModel(0.5, 1.0),
)
@example(  # a queue above 1e-12 (1 + total) that the capacity serves in less
    # than half a unit in the last place of 1e4: it passes as an atom
    CumulativeFlow.atom_at(1e4, 2.5e-12),
    BottleneckModel(0.5, 3.0),
)
@example(  # an atom joins the queue that a rate above the capacity built
    sum_flows([CumulativeFlow.constant_rate(0.0, 1.0, 2.0), CumulativeFlow.atom_at(0.5, 0.5)]),
    BottleneckModel(0.5, 1.0),
)
@example(  # an atom too small to queue passes through free flow
    sum_flows([CumulativeFlow.constant_rate(0.0, 2.0, 0.5), CumulativeFlow.atom_at(1.0, 1e-13)]),
    BottleneckModel(0.5, 1.0),
)
@example(  # two such atoms, at entry instants one unit in the last place
    # apart, which the shift by 3 rounds onto one arrival instant
    CumulativeFlow.from_vertices(
        [0.0, 1.0, 1.0 + 2**-52, 2.0],
        [0.0, 0.5, 0.5 + 1e-13, 1.0 + 2e-13],
        [0.0, 0.5 + 1e-13, 0.5 + 2e-13, 1.0 + 2e-13],
    ),
    BottleneckModel(3.0, 1.0),
)
@example(  # the queue clears one unit in the last place after 1 + 2u, and the
    # entry instant of that clearing rounds back onto the atom's, 1
    CumulativeFlow.atom_at(1.0, 2e-12),
    BottleneckModel(5 * 2**-53, 1e4),
)
@settings(max_examples=300, deadline=None)
def test_bottleneck_closed_form_properties(f, model):
    c, mu = model.free_flow_time, model.capacity
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        profile = model.exit_profile(f)
    out, curve = profile.outflow, profile.curve
    # mass leaves exactly, never faster than the capacity
    assert out.total == f.total
    assert (out.slopes <= mu).all()
    # an atom leaves only where it joined no queue: below the tolerance, or
    # served within one rounding of its arrival instant
    tiny = 1e-12 * (1.0 + f.total)
    at = out.atoms > 0.0
    assert np.isin(out.times[at], f.times + c).all()
    assert all(m <= tiny or t + m / mu == t for t, m in zip(out.times[at], out.atoms[at]))
    # the stored values follow the slopes and the atoms, up to rounding at
    # the scale of mu * s and the inflow's own value/slope mismatch: the
    # curve never jumps without an atom
    if not out.is_zero:
        scale = 1.0 + f.total + mu * float(np.max(np.abs(f.times + c)))
        assert slope_mismatch(out) <= 4 * np.finfo(float).eps * scale + slope_mismatch(f)
    # nobody leaves before arriving
    if not out.is_zero:
        assert (out.cums <= f.shifted(c).values(out.times)).all()
    # the exit curve runs forward and jumps only at an atom: no abscissa
    # holds more than two vertices
    assert (np.diff(curve.xs) >= 0.0).all()
    assert np.unique(curve.xs, return_counts=True)[1].max() <= 2


# -- shared invariants ----------------------------------------------------------

@pytest.mark.parametrize(
    "model",
    [
        ConstantModel(1.0),
        BottleneckModel(1.0, 1.0),
        BottleneckModel(0.5, 2.0),
        ArcPerformanceModel.affine(1.0, 1.0),
        ArcPerformanceModel((0.0, 1.0, 3.0), (0.5, 1.5, 2.0)),
    ],
)
def test_exit_curves_respect_bounds(model: ArcModel):
    rng = np.random.default_rng(3)
    for _ in range(10):
        inflow = sum_flows([
            CumulativeFlow.constant_rate(a, a + w, r)
            for a, w, r in zip(
                rng.uniform(0, 2, 2), rng.uniform(0.2, 2, 2), rng.uniform(0.2, 2, 2)
            )
        ])
        curve = model.exit_curve(inflow)
        lo, hi = inflow.support()
        for h in np.linspace(lo - 1, hi + 2, 31):
            tt = curve.travel_time(float(h))
            assert tt >= model.t_min - 1e-12
            assert tt <= model.t_max(inflow.total) + 1e-9
        vals = [curve.value(float(h)) for h in np.linspace(lo, hi, 64)]
        assert all(b - a >= -1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_causality_restriction_leaves_past_unchanged():
    models = [
        ConstantModel(1.0),
        BottleneckModel(0.5, 1.0),
        ArcPerformanceModel.affine(0.8, 0.6),
    ]
    inflow = sum_flows([
        CumulativeFlow.constant_rate(0.0, 2.0, 1.8),
        CumulativeFlow.constant_rate(1.0, 3.0, 0.7),
    ])
    for model in models:
        full = model.exit_curve(inflow)
        for h_cut in (0.7, 1.5, 2.4):
            cut = model.exit_curve(inflow.restrict(h_cut))
            for h in np.linspace(-0.5, h_cut, 17):
                assert abs(cut.value(float(h)) - full.value(float(h))) <= 1e-9


# -- conformance reports ---------------------------------------------------------

def test_constant_model_passes_all_checks():
    report = check_assumptions(ConstantModel(1.0), probes=20, seed=0, horizon=Horizon(4.0))
    assert report.all_passed, report.failed()


def test_increasing_delay_passes_strict_fifo():
    # volume-delay arcs admit absolutely continuous inflows only: a point mass
    # leaving the arc drops the volume discontinuously and lets later entrants
    # overtake, so probes stay atom-free for this family
    report = check_assumptions(
        ArcPerformanceModel.affine(1.0, 0.5),
        probes=20,
        seed=1,
        horizon=Horizon(4.0),
        allow_atom_probes=False,
    )
    assert report.checks["strict_fifo"].passed
    assert report.all_passed, report.failed()


class _OvertakingModel(ArcModel):
    """Deliberately broken: later entrants exit earlier."""

    kind = "adversarial"

    @property
    def t_min(self) -> float:
        return 0.5

    def t_max(self, mass: float) -> float:
        return 1000.0

    def exit_profile(self, inflow):
        curve = ExitTimeCurve(np.array([0.0, 9.0]), np.array([10.0, 1.0]), 1.0, 1.0)
        return type("P", (), {"curve": curve, "outflow": CumulativeFlow.zero()})()


def test_overtaking_model_fails_strict_fifo():
    report = check_assumptions(_OvertakingModel(), probes=20, seed=2, horizon=Horizon(4.0))
    assert not report.checks["strict_fifo"].passed
