"""Grid-based brute-force loader vs the exact one."""

import numpy as np
import pytest

from dynwardrop.arcs import ArcPerformanceModel, BottleneckModel, ConstantModel
from dynwardrop.errors import InstanceTooLarge
from dynwardrop.flows import CumulativeFlow, Horizon
from dynwardrop.network import Arc, Network, load
from dynwardrop.oracle import GridConfig, compare_to_exact, oracle_load

from fixtures import fifo_contract_fixtures


def chain_net():
    return Network(
        arcs={
            "a": Arc("A", "B", ConstantModel(1.0)),
            "b": Arc("B", "C", ConstantModel(1.0)),
        },
        routes={"r": ("a", "b")},
    )


def test_step_validation():
    net = chain_net()
    with pytest.raises(ValueError):
        oracle_load(net, {"r": CumulativeFlow.zero()}, GridConfig(1.0))


def test_constant_chain_matches_exactly_at_grid_points():
    net = chain_net()
    x = {"r": CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}
    grid = GridConfig(1.0 / 8.0)
    gb = oracle_load(net, x, grid)
    exact = load(net, x)
    assert compare_to_exact(net, exact, gb) < 1e-12


def test_zero_flow_is_zero():
    net = chain_net()
    gb = oracle_load(net, {"r": CumulativeFlow.zero()}, GridConfig(1.0 / 8.0))
    assert float(np.max(gb.totals["a"])) == 0.0


def test_bottleneck_converges_linearly_to_exact():
    net = Network(
        arcs={"b": Arc("A", "B", BottleneckModel(1.0, 1.0))},
        routes={"r": ("b",)},
    )
    x = {"r": CumulativeFlow.constant_rate(0.0, 1.0, 2.0)}
    exact = load(net, x)
    errs = []
    for k in (1, 2, 4):
        gb = oracle_load(net, x, GridConfig(1.0 / (8.0 * k)))
        errs.append(compare_to_exact(net, exact, gb))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1


def test_volume_delay_converges_to_exact():
    net = Network(
        arcs={"p": Arc("A", "B", ArcPerformanceModel.affine(0.5, 0.8))},
        routes={"r": ("p",)},
    )
    x = {"r": CumulativeFlow.constant_rate(0.0, 2.0, 1.5)}
    exact = load(net, x)
    errs = []
    for k in (1, 2, 4):
        gb = oracle_load(net, x, GridConfig(0.5 / (8.0 * k)))
        errs.append(compare_to_exact(net, exact, gb))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("fx", fifo_contract_fixtures()[:2], ids=lambda fx: fx.name)
def test_volume_delay_grid_loader_converges_where_empty_instants_exit_late(fx):
    # empty instants exit after the next pulse's first entrants; on the grid,
    # as in the exact loader, they neither hold back nor delay anyone
    exact = load(fx.network, fx.flows)
    step = fx.network.t_min_star
    errs = [
        compare_to_exact(fx.network, exact, oracle_load(fx.network, fx.flows, GridConfig(step / k)))
        for k in (8, 16, 32, 64)
    ]
    assert all(b <= 0.6 * a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 0.25


def test_instance_size_guard():
    from dynwardrop.equilibrium import DemandTable
    from dynwardrop.oracle import oracle_equilibrium

    arcs = {f"a{i}": Arc(f"N{i}", f"N{i+1}", ConstantModel(1.0)) for i in range(7)}
    routes = {f"r{i}": (f"a{i}",) for i in range(5)}
    net = Network(arcs=arcs, routes=routes)
    demand = DemandTable(
        {("N0", "N1"): CumulativeFlow.constant_rate(0.0, 1.0, 1.0)}, Horizon(2.0)
    )
    with pytest.raises(InstanceTooLarge):
        oracle_equilibrium(net, demand, GridConfig(1.0 / 8.0), iterations=1)


def test_reference_solver_single_route_returns_demand():
    from dynwardrop.equilibrium import DemandTable
    from dynwardrop.oracle import oracle_equilibrium

    net = Network(
        arcs={"a": Arc("A", "B", ConstantModel(1.0))}, routes={"r": ("a",)}
    )
    q = CumulativeFlow.constant_rate(0.0, 1.0, 2.0)
    demand = DemandTable({("A", "B"): q}, Horizon(4.0))
    flows, gap = oracle_equilibrium(net, demand, GridConfig(1.0 / 8.0), iterations=3, bins=8)
    assert gap == 0.0
    assert flows["r"].total == pytest.approx(2.0, rel=1e-12)
    for h in np.linspace(0, 4, 17):
        assert flows["r"].value(float(h)) == pytest.approx(q.value(float(h)), abs=1e-12)


def test_reference_solver_symmetric_pair_splits_evenly():
    from dynwardrop.arcs import ArcPerformanceModel
    from dynwardrop.equilibrium import DemandTable
    from dynwardrop.oracle import oracle_equilibrium

    net = Network(
        arcs={
            "p1": Arc("A", "B", ArcPerformanceModel.affine(1.0, 0.5)),
            "p2": Arc("A", "B", ArcPerformanceModel.affine(1.0, 0.5)),
        },
        routes={"r1": ("p1",), "r2": ("p2",)},
    )
    demand = DemandTable(
        {("A", "B"): CumulativeFlow.constant_rate(0.0, 1.0, 2.0)}, Horizon(4.0)
    )
    flows, gap = oracle_equilibrium(net, demand, GridConfig(1.0 / 8.0), iterations=60, bins=32)
    assert gap < 1e-3
    edges = np.linspace(0, 4, 33)
    for a, b in zip(edges[:-1], edges[1:]):
        m1 = flows["r1"].mass_between(float(a), float(b))
        m2 = flows["r2"].mass_between(float(a), float(b))
        assert abs(m1 - m2) < 1e-3


def test_reference_solver_matches_loop_reference_bits(monkeypatch):
    from dynwardrop.equilibrium import DemandTable
    from dynwardrop.oracle import oracle_equilibrium

    import loop_reference
    from helpers import same_flow_bits

    net = Network(
        arcs={
            "p1": Arc("A", "B", ArcPerformanceModel.affine(1.0, 0.5)),
            "p2": Arc("A", "B", BottleneckModel(0.5, 1.0)),
        },
        routes={"r1": ("p1",), "r2": ("p2",)},
    )
    # demand leaves bins empty before, between and after its two pulses
    demand = DemandTable(
        {("A", "B"): CumulativeFlow.piecewise_rate([(0.5, 1.0, 2.0), (1.5, 2.0, 1.0)])},
        Horizon(4.0),
    )
    grid = GridConfig(1.0 / 16.0)
    got, got_gap = oracle_equilibrium(net, demand, grid, iterations=4, bins=16)
    monkeypatch.setattr(CumulativeFlow, "from_bins", staticmethod(loop_reference.from_bins))
    want, want_gap = oracle_equilibrium(net, demand, grid, iterations=4, bins=16)
    assert got_gap == want_gap
    assert got.keys() == want.keys()
    assert all(same_flow_bits(got[r], want[r]) for r in want)
