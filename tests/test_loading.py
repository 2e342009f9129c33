"""Network loading: propagation, conservation, causality, composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynwardrop import arcs as arcs_module
from dynwardrop import flows as flows_module
from dynwardrop import network as network_module
from dynwardrop.arcs import (
    ArcModel, ArcPerformanceModel, BottleneckModel, ConstantModel, ExitProfile,
)
from dynwardrop.curves import ExitTimeCurve, PiecewiseLinearMap
from dynwardrop.errors import InstanceTooLarge, NonTermination, ValidationError
from dynwardrop.flows import CumulativeFlow, Horizon
from dynwardrop.network import (
    Arc,
    Network,
    flowing,
    load,
    route_time_by_recursion,
    route_times,
)
from dynwardrop.oracle import GridConfig, oracle_load

import loop_reference
from fixtures import (
    acceptance_fixtures, jittered_ladder_fixture, ladder_fixture, rotary_fixture, spur_fixture,
)
from helpers import counting_outflow_builds, curve_linf, knot_linf, same_bits, same_flow_bits
from strategies import bottlenecks_st, clustered_parts_st, flows_st, probe_points


def two_constant_chain() -> Network:
    return Network(
        arcs={
            "a1": Arc("A", "B", ConstantModel(1.0)),
            "a2": Arc("B", "C", ConstantModel(1.0)),
        },
        routes={"r": ("a1", "a2")},
    )


def shared_bottleneck() -> Network:
    return Network(
        arcs={
            "in1": Arc("A", "M", ConstantModel(0.5)),
            "in2": Arc("B", "M", ConstantModel(0.5)),
            "out": Arc("M", "C", BottleneckModel(1.0, 1.0)),
        },
        routes={"r1": ("in1", "out"), "r2": ("in2", "out")},
    )


# -- structural validation -----------------------------------------------------

def test_disconnected_route_rejected():
    with pytest.raises(ValidationError):
        Network(
            arcs={
                "a1": Arc("A", "B", ConstantModel(1.0)),
                "a2": Arc("C", "D", ConstantModel(1.0)),
            },
            routes={"r": ("a1", "a2")},
        )


def test_route_repeating_arc_rejected():
    with pytest.raises(ValidationError):
        Network(
            arcs={"a1": Arc("A", "A", ConstantModel(1.0))},
            routes={"r": ("a1", "a1")},
        )


# -- flowing --------------------------------------------------------------------

def test_flowing_single_route_constant_shifts_atom():
    out, _, _ = flowing(ConstantModel(1.0), {"r": CumulativeFlow.atom_at(0.0, 1.0)})
    assert out["r"].atom_mass(1.0) == 1.0


def test_flowing_zero_in_zero_out():
    out, _, _ = flowing(ConstantModel(1.0), {"r": CumulativeFlow.zero()})
    assert out["r"].is_zero


def test_flowing_two_atoms_share_bottleneck_release():
    model = BottleneckModel(1.0, 1.0)
    out, _, _ = flowing(
        model,
        {
            "r1": CumulativeFlow.atom_at(0.0, 1.0),
            "r2": CumulativeFlow.atom_at(0.0, 1.0),
        },
    )
    # combined release spans [1, 3]; both routes share identical timing
    for r in ("r1", "r2"):
        assert out[r].total == pytest.approx(1.0, rel=1e-12)
        assert out[r].value(1.0) == pytest.approx(0.0, abs=1e-12)
        assert out[r].value(2.0) == pytest.approx(0.5, abs=1e-12)
        assert out[r].value(3.0) == pytest.approx(1.0, abs=1e-12)


def test_flowing_conserves_mass_per_route():
    model = ArcPerformanceModel.affine(0.5, 0.5)
    inflows = {
        "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
        "r2": CumulativeFlow.constant_rate(0.5, 2.0, 0.6),
    }
    out, _, _ = flowing(model, inflows)
    for r, f in inflows.items():
        assert out[r].total == pytest.approx(f.total, rel=1e-12)


# -- load -----------------------------------------------------------------------

_VOLUME_DELAY = ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
#: the steepest slope of its delay function
_VOLUME_DELAY_SLOPE = float(np.max(np.diff(_VOLUME_DELAY.delays) / np.diff(_VOLUME_DELAY.volumes)))


@st.composite
def split_inputs_st(draw):
    """An arc model and 2-4 route inflows, some of them zero.

    On the volume-delay arc the inflows carry no atoms, and they are scaled
    so that the delay's steepest slope D' times the peak density a of their
    sum is at most 3/4.  Then nobody overtakes anybody (Carey's condition
    holds with room): an entrant at s leaves at density a(s) / X'(s), for the
    exit map X, so by induction along the exits D' times the outflow density
    stays at most D' a, and X grows at rate at least 1 - D' a >= 1/4."""
    kind = draw(st.sampled_from(["bottleneck", "constant", "volume_delay"]))
    if kind == "volume_delay":
        model, max_atoms = _VOLUME_DELAY, 0
    elif kind == "constant":
        model, max_atoms = ConstantModel(draw(st.floats(0.1, 2.0))), 3
    else:
        model, max_atoms = draw(bottlenecks_st), 3
    inflows = draw(st.lists(flows_st(max_atoms=max_atoms), min_size=2, max_size=4))
    if kind == "volume_delay":
        peak = _VOLUME_DELAY_SLOPE * flows_module.sum_flows(inflows).slopes.max(initial=0.0)
        if peak > 0.75:
            inflows = [f.scaled(0.75 / peak) for f in inflows]
    return model, {f"r{k}": f for k, f in enumerate(inflows)}


@given(split_inputs_st())
@settings(max_examples=150, deadline=None)
def test_flowing_split_matches_loop_reference_bits(inputs):
    model, inflows = inputs
    got, got_profile, got_total = flowing(model, inflows)
    want, want_profile, want_total = loop_reference.flowing(model, inflows)
    assert list(got) == list(want)
    for r in want:
        assert same_flow_bits(got[r], want[r])
    assert same_flow_bits(got_profile.outflow, want_profile.outflow)
    assert same_flow_bits(got_total, want_total)


@given(st.lists(flows_st(), min_size=1, max_size=4) | clustered_parts_st(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_route_share_matches_loop_reference_bits(parts, k):
    # the route is one of the summed parts; summing merges breakpoints closer
    # than MERGE_TOL, so the route can have vertices the total lacks
    route, total = parts[k % len(parts)], flows_module.sum_flows(parts)
    got = network_module._route_share(route, total)
    want = loop_reference._route_share(route, total)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@given(flows_st(), st.lists(st.floats(min_value=-1.0, max_value=30.0), max_size=6))
@settings(max_examples=300, deadline=None)
def test_mass_preimages_match_loop_reference_bits(f, extra):
    # levels at 0, at every cumulative value and left limit, between them, beyond the total
    levels = probe_points(np.unique(np.concatenate([f.cums, f.cums - f.atoms])), extra)
    got = network_module._mass_preimages(f, levels)
    want = [loop_reference._mass_preimage(f, float(m)) for m in levels]
    assert same_bits(got, want)


def test_jittered_ladder_loads_conserving_mass():
    # pushing this ladder's flow through a volume-delay arc computes an
    # outflow vertex 4.4e-16 below the one before it; that is rounding noise
    fx = jittered_ladder_fixture(seed=9, m=3)
    bundle = load(fx.network, fx.flows)
    for aid in fx.network.arcs:
        sent = bundle.total(aid).total
        assert abs(bundle.outflow_total(aid).total - sent) <= 1e-12 * sent
    for rid, arc_ids in fx.network.routes.items():
        mass = fx.flows[rid].total
        for aid in arc_ids:
            assert abs(bundle.inflow(aid, rid).total - mass) <= 1e-12 * mass


def test_chained_constants_shift_atom_twice():
    net = two_constant_chain()
    bundle = load(net, {"r": CumulativeFlow.atom_at(0.0, 1.0)})
    assert bundle.inflow("a2", "r").atom_mass(1.0) == pytest.approx(1.0)
    assert bundle.outflow_total("a2").atom_mass(2.0) == pytest.approx(1.0)


def test_zero_pattern_loads_to_zero():
    net = two_constant_chain()
    bundle = load(net, {"r": CumulativeFlow.zero()})
    for aid in net.arcs:
        assert bundle.total(aid).is_zero


def test_shared_bottleneck_splits_proportionally():
    net = shared_bottleneck()
    x = {
        "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
        "r2": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
    }
    bundle = load(net, x)
    shared_in = bundle.total("out")
    # arrives shifted by the 0.5 feeder, combined rate 2 on [0.5, 1.5]
    assert shared_in.mass_between(0.5, 1.5) == pytest.approx(2.0, rel=1e-12)
    out_r1 = flowing(net.arcs["out"].model, bundle.inflows["out"])[0]["r1"]
    # release at capacity 1 over [1.5, 3.5], half per route
    assert out_r1.mass_between(1.5, 3.5) == pytest.approx(1.0, rel=1e-9)
    assert out_r1.mass_between(1.5, 2.5) == pytest.approx(0.5, abs=1e-9)


def test_global_conservation_on_mixed_network():
    net = Network(
        arcs={
            "a": Arc("A", "B", ConstantModel(0.7)),
            "b": Arc("B", "C", BottleneckModel(0.5, 0.8)),
            "c": Arc("B", "C", ArcPerformanceModel.affine(0.6, 0.4)),
            "d": Arc("C", "D", ConstantModel(0.3)),
        },
        routes={"r1": ("a", "b", "d"), "r2": ("a", "c", "d")},
    )
    x = {
        "r1": CumulativeFlow.constant_rate(0.0, 2.0, 1.2),
        "r2": CumulativeFlow.piecewise_rate([(0.0, 1.0, 0.5), (1.0, 3.0, 1.5)]),
    }
    bundle = load(net, x)
    out, _, _ = flowing(net.arcs["d"].model, bundle.inflows["d"])
    for rid, f in x.items():
        assert out[rid].total == pytest.approx(f.total, rel=1e-9)
        # mass conserved along every arc of the route
        for aid in net.routes[rid]:
            assert bundle.inflow(aid, rid).total == pytest.approx(f.total, rel=1e-9)


def test_frontier_step_refinement_does_not_change_curves():
    net = shared_bottleneck()
    x = {
        "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.4),
        "r2": CumulativeFlow.constant_rate(0.2, 1.2, 0.9),
    }
    coarse = load(net, x)
    fine = load(net, x, frontier_step=net.t_min_star / 2)
    for aid in net.arcs:
        for rid in coarse.inflows[aid]:
            d = curve_linf(coarse.inflow(aid, rid), fine.inflow(aid, rid))
            assert d < 1e-9


def test_prefix_causality_of_loading():
    # truncating the route inflows at h leaves every arc's outflow (hence
    # every downstream arc's inflow) unchanged up to h plus the network-wide
    # travel-time floor
    net = shared_bottleneck()
    x = {
        "r1": CumulativeFlow.constant_rate(0.0, 2.0, 1.0),
        "r2": CumulativeFlow.constant_rate(0.0, 2.0, 1.0),
    }
    full = load(net, x)
    tstar = net.t_min_star
    for h in (0.4, 1.1, 1.7):
        cut = load(net, {r: f.restrict(h) for r, f in x.items()})
        for rid, arc_ids in net.routes.items():
            for aid in arc_ids[1:]:
                a, b = full.inflow(aid, rid), cut.inflow(aid, rid)
                grid = np.linspace(0.0, h + tstar, 23)
                worst = max(abs(a.value(float(t)) - b.value(float(t))) for t in grid)
                assert worst <= 1e-9
        for aid in net.arcs:
            a, b = full.outflow_total(aid), cut.outflow_total(aid)
            grid = np.linspace(0.0, h + tstar, 23)
            worst = max(abs(a.value(float(t)) - b.value(float(t))) for t in grid)
            assert worst <= 1e-9


def _counting_flowing(monkeypatch) -> list:
    """Count the ``flowing`` calls that ``load`` makes."""
    calls = []

    def counted(model, inflows_by_route):
        calls.append(model)
        return flowing(model, inflows_by_route)

    monkeypatch.setattr(network_module, "flowing", counted)
    return calls


def _counting_exit_profiles(monkeypatch) -> list:
    """Count the arc exit profiles built, by ``load`` itself or by ``flowing``."""
    calls = []
    for model_class in (ConstantModel, BottleneckModel, ArcPerformanceModel):
        def counted(model, inflow, _exit_profile=model_class.exit_profile):
            calls.append(model)
            return _exit_profile(model, inflow)

        monkeypatch.setattr(model_class, "exit_profile", counted)
    return calls


@pytest.mark.parametrize(
    "fx",
    acceptance_fixtures() + [ladder_fixture(2), ladder_fixture(3), spur_fixture()],
    ids=lambda fx: fx.name,
)
def test_topological_and_frontier_loaders_agree_bit_for_bit(fx, monkeypatch):
    net = fx.network
    assert net.loading_order is not None
    calls = _counting_flowing(monkeypatch)
    profiles = _counting_exit_profiles(monkeypatch)
    ordered = load(net, fx.flows)
    # one pass: each arc that some route goes on from is served once by
    # flowing; where every route ends, only the total's exit profile is built
    goes_on = [
        net.arcs[aid].model
        for aid in net.loading_order
        if any(nxt is not None for nxt in net.crossings[aid].values())
    ]
    assert len(calls) == len(goes_on) < len(net.arcs)
    assert calls == goes_on
    assert len(profiles) == len(net.arcs)

    # an explicit step runs the frontier loop: every pass builds every arc's
    # exit profile once, and the loop ends on a pass that changed nothing
    profiles.clear()
    stepped = load(net, fx.flows, frontier_step=net.t_min_star)
    assert len(profiles) >= 2 * len(net.arcs)
    for aid in net.arcs:
        assert list(ordered.inflows[aid]) == list(stepped.inflows[aid])
        for rid in ordered.inflows[aid]:
            assert same_flow_bits(ordered.inflow(aid, rid), stepped.inflow(aid, rid))
        assert same_flow_bits(ordered.total(aid), stepped.total(aid))
        assert same_flow_bits(ordered.outflow_total(aid), stepped.outflow_total(aid))
        a, b = ordered.profiles[aid].curve, stepped.profiles[aid].curve
        assert same_bits(a.xs, b.xs) and same_bits(a.ys, b.ys)


@pytest.mark.parametrize(
    "fx", acceptance_fixtures() + [ladder_fixture(2), ladder_fixture(3)], ids=lambda fx: fx.name,
)
def test_outflow_is_built_on_first_read(fx, monkeypatch):
    net = fx.network
    built = counting_outflow_builds(monkeypatch)
    bundle = load(net, fx.flows)
    # the load builds the outflows that it hands on, save those that need no
    # building: a constant arc's shifted inflow, a zero inflow's zero
    handed_on = [
        bundle.profiles[aid].curve for aid, arc in net.arcs.items()
        if any(nxt is not None for nxt in net.crossings[aid].values())
        and not isinstance(arc.model, ConstantModel) and not bundle.total(aid).is_zero
    ]
    assert sorted(map(id, built)) == sorted(map(id, handed_on))
    for aid, arc in net.arcs.items():
        out = bundle.outflow_total(aid)
        # the same bits as an outflow read at once, before any other arc's work
        assert same_flow_bits(out, arc.model.exit_profile(bundle.total(aid)).outflow)
        assert bundle.outflow_total(aid) is out


def test_cyclic_precedence_loads_by_frontier(monkeypatch):
    fx = rotary_fixture()
    net = fx.network
    assert net.loading_order is None
    calls = _counting_flowing(monkeypatch)
    bundle = load(net, fx.flows)
    assert len(calls) > len(net.arcs)  # the frontier loop's repeated passes
    for rid, arc_ids in net.routes.items():
        mass = fx.flows[rid].total
        for aid in arc_ids:
            assert abs(bundle.inflow(aid, rid).total - mass) <= 1e-12 * mass
    fine = load(net, fx.flows, frontier_step=net.t_min_star / 2)
    for aid in net.arcs:
        for rid in bundle.inflows[aid]:
            assert curve_linf(bundle.inflow(aid, rid), fine.inflow(aid, rid)) < 1e-9
    with pytest.raises(InstanceTooLarge):
        oracle_load(net, fx.flows, GridConfig(net.t_min_star / 8))


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_nonpositive_frontier_step_rejected(step):
    net = shared_bottleneck()
    x = {"r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}
    with pytest.raises(ValueError):
        load(net, x, frontier_step=step)


class _HoldingModel(ArcModel):
    """Declares a finite passage envelope but never lets any mass out."""

    kind = "holding"
    t_min = 0.5

    def t_max(self, mass: float) -> float:
        return 1.0

    def exit_profile(self, inflow: CumulativeFlow) -> ExitProfile:
        return ExitProfile(ExitTimeCurve.shift(1.0), CumulativeFlow.zero())


def test_mass_held_past_the_passage_budget_stops_the_frontier():
    net = Network(
        arcs={"hold": Arc("A", "B", _HoldingModel()), "c": Arc("B", "C", ConstantModel(1.0))},
        routes={"r": ("hold", "c")},
    )
    x = {"r": CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}
    with pytest.raises(NonTermination):
        load(net, x, frontier_step=net.t_min_star)


def _loaded_arrays(fx) -> list[np.ndarray]:
    """Every stored array of a load, its route times and a few mean travel
    times, in a fixed order."""
    bundle = load(fx.network, fx.flows)
    out = []
    for aid in fx.network.arcs:
        flows_ = [*bundle.inflows[aid].values(), bundle.total(aid), bundle.outflow_total(aid)]
        out += [getattr(f, n) for f in flows_ for n in ("times", "cums", "atoms", "slopes")]
        out += [bundle.profiles[aid].curve.xs, bundle.profiles[aid].curve.ys]
    times = route_times(fx.network, bundle, fx.horizon)
    for rid, curve in times.arrivals.items():
        out += [curve.xs, curve.ys]
        out.append([times.mean_travel_time(rid, lo, hi) for lo, hi in ((0.0, 1.0), (0.5, 3.25))])
    return out


@pytest.mark.parametrize(
    "fx",
    acceptance_fixtures()
    + [ladder_fixture(2), ladder_fixture(3), rotary_fixture(), jittered_ladder_fixture(9, 3),
       spur_fixture()],
    ids=lambda fx: fx.name,
)
def test_loading_matches_loop_reference_bits(fx, monkeypatch):
    # the rotary takes the frontier path, the others the one-pass path
    got = _loaded_arrays(fx)
    with monkeypatch.context() as m:
        m.setattr(PiecewiseLinearMap, "compose_after", loop_reference.compose_after)
        for module in (flows_module, arcs_module, network_module):
            m.setattr(module, "sum_flows", loop_reference.sum_flows)
        m.setattr(network_module, "flowing", loop_reference.flowing)
        want = _loaded_arrays(fx)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same_bits(a, b)


def test_six_stage_ladder_matches_block_reference():
    # the exit profiles of volume-delay arcs feed five more stages; the sweep
    # and the block loop must agree on every arc and route downstream
    fx = ladder_fixture(6)
    got = load(fx.network, fx.flows)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ArcPerformanceModel, "exit_profile", loop_reference.volume_delay_exit_profile)
        want = load(fx.network, fx.flows)
    for aid in fx.network.arcs:
        tol = 1e-12 * (1.0 + want.total(aid).total)
        for g, w in ((got.total(aid), want.total(aid)), (got.outflow_total(aid), want.outflow_total(aid))):
            assert knot_linf(g, w, np.concatenate([g.times, w.times])) <= tol
        a, b = got.profiles[aid].curve, want.profiles[aid].curve
        assert knot_linf(a, b, np.concatenate([a.xs, b.xs])) <= tol
    got_times = route_times(fx.network, got, fx.horizon)
    want_times = route_times(fx.network, want, fx.horizon)
    for rid, b in want_times.arrivals.items():
        a = got_times.arrivals[rid]
        assert knot_linf(a, b, np.concatenate([a.xs, b.xs])) <= 1e-12 * (1.0 + fx.flows[rid].total)


# -- route times ------------------------------------------------------------------

def test_two_constant_arcs_give_constant_route_time():
    net = two_constant_chain()
    x = {"r": CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}
    bundle = load(net, x)
    pattern = route_times(net, bundle, Horizon(4.0))
    for h in np.linspace(0.0, 4.0, 9):
        assert pattern.travel_time("r", float(h)) == pytest.approx(2.0, abs=1e-12)


def test_bottleneck_route_time_grows_linearly_while_queue_builds():
    net = Network(
        arcs={"b": Arc("A", "B", BottleneckModel(1.0, 1.0))},
        routes={"r": ("b",)},
    )
    x = {"r": CumulativeFlow.constant_rate(0.0, 1.0, 2.0)}
    pattern = route_times(net, load(net, x), Horizon(4.0))
    for h in np.linspace(0.0, 1.0, 11):
        assert pattern.travel_time("r", float(h)) == pytest.approx(1.0 + h, abs=1e-9)


def test_recursion_equals_composition():
    net = Network(
        arcs={
            "a": Arc("A", "B", ConstantModel(0.7)),
            "b": Arc("B", "C", BottleneckModel(0.5, 0.9)),
            "c": Arc("C", "D", ArcPerformanceModel.affine(0.6, 0.5)),
        },
        routes={"r": ("a", "b", "c")},
    )
    x = {"r": CumulativeFlow.piecewise_rate([(0.0, 1.0, 2.0), (1.5, 2.5, 1.0)])}
    bundle = load(net, x)
    pattern = route_times(net, bundle, Horizon(4.0))
    for h in np.linspace(0.0, 4.0, 100):
        via_composition = pattern.travel_time("r", float(h))
        via_recursion = route_time_by_recursion(net, bundle, "r", float(h))
        assert abs(via_composition - via_recursion) < 1e-12


def test_arrival_sequence_strictly_increases_along_route():
    net = Network(
        arcs={
            "a": Arc("A", "B", ConstantModel(0.4)),
            "b": Arc("B", "C", BottleneckModel(0.3, 1.2)),
        },
        routes={"r": ("a", "b")},
    )
    x = {"r": CumulativeFlow.constant_rate(0.0, 2.0, 2.0)}
    bundle = load(net, x)
    for h in np.linspace(0.0, 2.0, 15):
        t = float(h)
        seq = [t]
        for aid in net.routes["r"]:
            t = bundle.profiles[aid].curve.value(t)
            seq.append(t)
        assert all(b > a for a, b in zip(seq[:-1], seq[1:]))
