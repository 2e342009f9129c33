"""Scenario parsing, validation, round trips, and result tables."""

import pytest

from dynwardrop.arcs import BottleneckModel, ConstantModel
from dynwardrop.equilibrium import DemandTable, UserClass
from dynwardrop.errors import ParseError, ValidationError
from dynwardrop.flows import CumulativeFlow, Horizon
from dynwardrop.network import Arc, Network
from dynwardrop.scenario import (
    Scenario,
    parse_scenario,
    read_route_flows_csv,
    write_route_flows_csv,
    write_scenario,
)

from helpers import curve_linf

MINIMAL = """\
format dnl-scenario 1
horizon 4

[arcs]
a1 A B constant time=1

[routes]
r1 a1

[demand]
A B 0:1:2.0
"""


def test_minimal_scenario_parses(tmp_path):
    p = tmp_path / "min.scn"
    p.write_text(MINIMAL)
    scn = parse_scenario(p)
    assert len(scn.network.arcs) == 1
    assert len(scn.network.routes) == 1
    assert scn.demand.rates[("A", "B")].total == pytest.approx(2.0)
    assert scn.horizon.end == 4.0


def test_unknown_arc_in_route_is_validation_error(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(MINIMAL.replace("r1 a1", "r1 missing"))
    with pytest.raises(ValidationError, match="unknown arc"):
        parse_scenario(p)


def test_negative_rate_is_validation_error(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(MINIMAL.replace("A B 0:1:2.0", "A B 0:1:-2.0"))
    with pytest.raises(ValidationError, match="negative rate"):
        parse_scenario(p)


def test_malformed_segment_reports_line(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(MINIMAL.replace("A B 0:1:2.0", "A B 0:1"))
    with pytest.raises(ParseError, match=r"line 11: rate segment"):
        parse_scenario(p)


def test_missing_format_tag_rejected(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(MINIMAL.replace("format dnl-scenario 1\n", ""))
    with pytest.raises(ParseError, match="format"):
        parse_scenario(p)


def test_demand_without_route_rejected(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(MINIMAL + "B A 0:1:1.0\n")
    with pytest.raises(ValidationError, match="no route"):
        parse_scenario(p)


def test_round_trip_reproduces_scenario(tmp_path):
    net = Network(
        arcs={
            "m": Arc("A", "B", BottleneckModel(0.5, 1.25)),
            "k": Arc("B", "C", ConstantModel(1.0)),
        },
        routes={"r1": ("m", "k")},
    )
    demand = DemandTable(
        {("A", "C"): CumulativeFlow.piecewise_rate([(0.0, 1.0, 2.0), (1.5, 2.0, 0.5)])},
        Horizon(4.0),
    )
    classes = [UserClass("A", "C", mass=1.5, h_star=2.0, alpha=1.0, beta=0.5, gamma=2.0)]
    scn = Scenario(net, Horizon(4.0), demand, classes)
    p = tmp_path / "round.scn"
    write_scenario(scn, p)
    back = write_and_read = parse_scenario(p)
    assert set(back.network.arcs) == set(net.arcs)
    assert back.network.routes == net.routes
    assert back.network.arcs["m"].model == net.arcs["m"].model
    q0 = demand.rates[("A", "C")]
    q1 = back.demand.rates[("A", "C")]
    assert curve_linf(q0, q1) < 1e-12
    c0, c1 = classes[0], back.classes[0]
    assert (c1.mass, c1.h_star, c1.alpha, c1.beta, c1.gamma) == (
        c0.mass, c0.h_star, c0.alpha, c0.beta, c0.gamma,
    )
    # a second round trip is bit-identical
    p2 = tmp_path / "round2.scn"
    write_scenario(back, p2)
    assert p.read_text().replace("round", "X") == p2.read_text().replace("round2", "X")


def test_route_flow_csv_round_trip(tmp_path):
    flows = {
        "r1": CumulativeFlow.piecewise_rate([(0.0, 1.0, 2.0), (2.0, 3.0, 1.0)]),
        "r2": CumulativeFlow.zero(),
    }
    p = tmp_path / "route_flows.csv"
    write_route_flows_csv(p, flows)
    back = read_route_flows_csv(p)
    assert back["r2"].is_zero
    assert curve_linf(flows["r1"], back["r1"]) < 1e-9


def test_route_flow_csv_with_decreasing_cumulative_rejected(tmp_path):
    p = tmp_path / "route_flows.csv"
    p.write_text("route,h,cumulative\nr1,0,0\nr1,1,2\nr1,2,1.5\n")
    with pytest.raises(ValidationError, match="r1"):
        read_route_flows_csv(p)
