"""Shared fixture networks and inflow patterns for verification suites.

Ten small instances (at most 6 arcs, 4 routes) covering every arc model,
shared arcs, chains, and point masses.  Point masses never reach a
volume-delay arc directly there: a departing atom drops the volume and can
let later mass overtake.  Four one-arc loads pin that FIFO contract.

Two more families stress the loader's two paths: short ladders, where four
routes share parallel bottleneck and volume-delay arcs stage after stage
(acyclic precedence), and a rotary, whose routes order its three arcs in a
cycle.  On a spur, one route ends on an arc that another one goes on from.  Jittered ladders perturb every parameter in the last digits, where
computed curve vertices meet rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynwardrop.arcs import ArcPerformanceModel, BottleneckModel, ConstantModel
from dynwardrop.flows import CumulativeFlow, Horizon, sum_flows
from dynwardrop.network import Arc, Network, RouteFlowPattern


@dataclass(frozen=True)
class Fixture:
    name: str
    network: Network
    flows: RouteFlowPattern
    horizon: Horizon


def acceptance_fixtures() -> list[Fixture]:
    H = Horizon(4.0)
    out: list[Fixture] = []

    out.append(Fixture(
        "single_constant",
        Network({"a": Arc("A", "B", ConstantModel(1.0))}, {"r": ("a",)}),
        {"r": CumulativeFlow.constant_rate(0.0, 2.0, 1.5)},
        H,
    ))

    out.append(Fixture(
        "constant_chain_with_atom",
        Network(
            {
                "a": Arc("A", "B", ConstantModel(0.5)),
                "b": Arc("B", "C", ConstantModel(1.0)),
            },
            {"r": ("a", "b")},
        ),
        {
            "r": sum_flows([
                CumulativeFlow.constant_rate(0.0, 1.5, 1.0),
                CumulativeFlow.atom_at(0.75, 0.8),
            ])
        },
        H,
    ))

    out.append(Fixture(
        "overloaded_bottleneck",
        Network({"b": Arc("A", "B", BottleneckModel(1.0, 1.0))}, {"r": ("b",)}),
        {"r": CumulativeFlow.constant_rate(0.0, 1.0, 2.0)},
        H,
    ))

    out.append(Fixture(
        "shared_bottleneck",
        Network(
            {
                "f1": Arc("A", "M", ConstantModel(0.5)),
                "f2": Arc("B", "M", ConstantModel(0.25)),
                "out": Arc("M", "C", BottleneckModel(0.5, 1.0)),
            },
            {"r1": ("f1", "out"), "r2": ("f2", "out")},
        ),
        {
            "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
            "r2": CumulativeFlow.constant_rate(0.25, 1.25, 0.9),
        },
        H,
    ))

    out.append(Fixture(
        "single_volume_delay",
        Network(
            {"p": Arc("A", "B", ArcPerformanceModel.affine(0.5, 0.8))},
            {"r": ("p",)},
        ),
        {"r": CumulativeFlow.piecewise_rate([(0.0, 1.0, 2.0), (1.0, 2.5, 0.6)])},
        H,
    ))

    out.append(Fixture(
        "chain_through_volume_delay",
        Network(
            {
                "a": Arc("A", "B", ConstantModel(0.5)),
                "p": Arc("B", "C", ArcPerformanceModel((0.0, 1.0, 4.0), (0.6, 1.0, 2.2))),
                "z": Arc("C", "D", ConstantModel(0.25)),
            },
            {"r": ("a", "p", "z")},
        ),
        {"r": CumulativeFlow.piecewise_rate([(0.0, 1.0, 1.8), (1.5, 2.0, 1.0)])},
        H,
    ))

    out.append(Fixture(
        "constant_vs_bottleneck",
        Network(
            {
                "fast": Arc("A", "B", ConstantModel(1.0)),
                "jam": Arc("A", "B", BottleneckModel(0.5, 1.0)),
            },
            {"r1": ("fast",), "r2": ("jam",)},
        ),
        {
            "r1": CumulativeFlow.constant_rate(0.0, 1.0, 0.8),
            "r2": CumulativeFlow.constant_rate(0.0, 1.0, 1.2),
        },
        H,
    ))

    out.append(Fixture(
        "symmetric_pair",
        Network(
            {
                "p1": Arc("A", "B", ArcPerformanceModel.affine(1.0, 0.5)),
                "p2": Arc("A", "B", ArcPerformanceModel.affine(1.0, 0.5)),
            },
            {"r1": ("p1",), "r2": ("p2",)},
        ),
        {
            "r1": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
            "r2": CumulativeFlow.constant_rate(0.0, 1.0, 1.0),
        },
        H,
    ))

    out.append(Fixture(
        "diamond",
        Network(
            {
                "in": Arc("A", "B", ConstantModel(0.5)),
                "up": Arc("B", "C", BottleneckModel(0.5, 1.2)),
                "dn": Arc("B", "C", ArcPerformanceModel.affine(0.7, 0.5)),
                "out": Arc("C", "D", ConstantModel(0.25)),
            },
            {"r1": ("in", "up", "out"), "r2": ("in", "dn", "out")},
        ),
        {
            "r1": CumulativeFlow.constant_rate(0.0, 1.5, 1.1),
            "r2": CumulativeFlow.piecewise_rate([(0.5, 2.0, 0.7)]),
        },
        H,
    ))

    out.append(Fixture(
        "three_feeders_and_direct",
        Network(
            {
                "f1": Arc("A", "M", ConstantModel(0.5)),
                "f2": Arc("B", "M", ConstantModel(0.75)),
                "f3": Arc("C", "M", ConstantModel(1.0)),
                "srv": Arc("M", "Z", BottleneckModel(0.5, 1.5)),
                "direct": Arc("D", "Z", ConstantModel(2.0)),
            },
            {
                "r1": ("f1", "srv"),
                "r2": ("f2", "srv"),
                "r3": ("f3", "srv"),
                "r4": ("direct",),
            },
        ),
        {
            "r1": CumulativeFlow.constant_rate(0.0, 1.0, 0.9),
            "r2": CumulativeFlow.constant_rate(0.5, 1.5, 0.8),
            "r3": CumulativeFlow.constant_rate(0.0, 2.0, 0.5),
            "r4": sum_flows([
                CumulativeFlow.constant_rate(0.0, 1.0, 0.4),
                CumulativeFlow.atom_at(0.5, 0.6),
            ]),
        },
        H,
    ))

    return out


# (start, end, rate) pulses; ladder route k carries pattern k
_LADDER_PULSES = (
    ((0.0, 0.6, 1.4), (1.0, 1.5, 0.8)),
    ((0.2, 0.8, 1.0), (1.2, 1.8, 0.6)),
    ((0.1, 0.5, 0.9), (0.9, 1.4, 1.3)),
    ((0.3, 0.7, 0.8), (1.1, 1.6, 1.1)),
)


def ladder_fixture(stages: int) -> Fixture:
    """Per stage a bottleneck arc and a volume-delay arc in parallel.

    Four routes cross every stage: all-bottleneck, all-volume-delay and the
    two alternating patterns, so each arc is shared by two routes.
    """
    arc_map = {}
    for k in range(stages):
        arc_map[f"b{k}"] = Arc(f"N{k}", f"N{k + 1}", BottleneckModel(0.5, 1.0))
        arc_map[f"v{k}"] = Arc(
            f"N{k}", f"N{k + 1}", ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
        )
    patterns = {
        "rB": "b" * stages,
        "rV": "v" * stages,
        "rBV": ("bv" * stages)[:stages],
        "rVB": ("vb" * stages)[:stages],
    }
    routes = {r: tuple(f"{c}{k}" for k, c in enumerate(p)) for r, p in patterns.items()}
    flows = {
        r: CumulativeFlow.piecewise_rate(pulses)
        for r, pulses in zip(routes, _LADDER_PULSES)
    }
    return Fixture(f"ladder_{stages}", Network(arc_map, routes), flows, Horizon(4.0))


# three (start, end, rate) pulses per pattern, as the benchmark's ladders carry
_JITTER_PULSES = (
    ((0.0, 0.6, 1.4), (1.0, 1.5, 0.8), (2.0, 2.4, 1.2)),
    ((0.2, 0.7, 1.0), (1.1, 1.8, 0.6), (2.2, 2.6, 1.1)),
    ((0.1, 0.5, 0.9), (0.9, 1.3, 1.3), (1.9, 2.5, 0.7)),
    ((0.3, 0.8, 0.8), (1.2, 1.6, 1.0), (2.1, 2.8, 0.9)),
)


def jittered_ladder_fixture(seed: int, m: int, stages: int = 5) -> Fixture:
    """A ladder with irregular parameters, each times its own factor
    1 + U(-1e-6, 1e-6) drawn from ``default_rng([seed, m])`` in build order.

    Route k carries pulse pattern (m + k) mod 4.  Seed 9, m = 3 leaves a
    computed exit-curve vertex one rounding error below its predecessor.
    """
    rng = np.random.default_rng([seed, m])

    def f(x: float) -> float:
        return x * (1.0 + rng.uniform(-1e-6, 1e-6))

    arc_map = {}
    for k in range(stages):
        arc_map[f"b{k}"] = Arc(f"N{k}", f"N{k + 1}", BottleneckModel(f(0.53), f(1.07)))
        arc_map[f"v{k}"] = Arc(
            f"N{k}", f"N{k + 1}",
            ArcPerformanceModel((0.0, 1.0, 3.0), (f(0.61), f(1.03), f(2.07))),
        )
    patterns = {
        "rB": "b" * stages,
        "rV": "v" * stages,
        "rBV": ("bv" * stages)[:stages],
        "rVB": ("vb" * stages)[:stages],
    }
    routes = {r: tuple(f"{c}{k}" for k, c in enumerate(p)) for r, p in patterns.items()}
    flows = {
        r: CumulativeFlow.piecewise_rate(
            [(f(a), f(b), f(q)) for a, b, q in _JITTER_PULSES[(m + k) % 4]]
        )
        for k, r in enumerate(routes)
    }
    return Fixture(
        f"jittered_ladder_{seed}_{m}", Network(arc_map, routes), flows, Horizon(4.0)
    )


def rotary_fixture() -> Fixture:
    """Three arcs X -> Y -> Z -> X; each route crosses two consecutive arcs, so
    the routes' arc precedence a -> b -> c -> a is a cycle."""
    network = Network(
        {
            "a": Arc("X", "Y", BottleneckModel(0.5, 1.0)),
            "b": Arc("Y", "Z", ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))),
            "c": Arc("Z", "X", BottleneckModel(0.4, 0.8)),
        },
        {"rab": ("a", "b"), "rbc": ("b", "c"), "rca": ("c", "a")},
    )
    flows = {
        "rab": CumulativeFlow.constant_rate(0.0, 1.0, 1.5),
        "rbc": CumulativeFlow.piecewise_rate([(0.2, 0.8, 1.0), (1.2, 1.6, 0.7)]),
        "rca": CumulativeFlow.constant_rate(0.5, 1.5, 1.2),
    }
    return Fixture("rotary", network, flows, Horizon(4.0))


def spur_fixture() -> Fixture:
    """Arc a X -> Y, then b Y -> Z; route "short" ends on a, route "long" goes
    on to b, so a's outflow is split per route and b's is not."""
    network = Network(
        {
            "a": Arc("X", "Y", BottleneckModel(0.5, 1.0)),
            "b": Arc("Y", "Z", ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))),
        },
        {"short": ("a",), "long": ("a", "b")},
    )
    flows = {
        "short": sum_flows([CumulativeFlow.constant_rate(0.0, 1.0, 1.5), CumulativeFlow.atom_at(0.5, 0.4)]),
        "long": CumulativeFlow.piecewise_rate([(0.25, 1.5, 1.0), (2.0, 2.5, 0.6)]),
    }
    return Fixture("spur", network, flows, Horizon(4.0))


def fifo_contract_fixtures() -> list[Fixture]:
    """One-arc loads that pin the volume-delay arc's FIFO contract: the exit
    front moves only with entering mass.

    - ``fifo_empty_stretch``: an atom of 2, then a pulse after an empty
      stretch whose instants would exit after the pulse's first entrants.
    - ``fifo_overlapping_pulses``: a slow pulse enters while a fast one
      leaves; the empty instants between them exit after its first entrants.
    - ``fifo_two_atoms``: atoms of 1 at 0 and at 3; nothing enters between.
    - ``fifo_overtaking_atom``: the atom of 1 at 0 leaves at 1.0 and drops
      the volume, so the entrants on ]1, 10/7[ (3/7 units) exit before those
      just before 1: the load raises ``FifoViolation``.
    """
    piecewise = ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
    atom = CumulativeFlow.atom_at
    cases = [
        ("fifo_empty_stretch", ArcPerformanceModel.affine(1.0, 0.5),
         sum_flows([atom(0.0, 2.0), CumulativeFlow.constant_rate(2.0, 5.0, 1.0)])),
        ("fifo_overlapping_pulses", piecewise,
         CumulativeFlow.piecewise_rate([(0.0, 1.0, 12.0), (6.5, 8.5, 0.5)])),
        ("fifo_two_atoms", piecewise, sum_flows([atom(0.0, 1.0), atom(3.0, 1.0)])),
        ("fifo_overtaking_atom", piecewise,
         sum_flows([atom(0.0, 1.0), CumulativeFlow.constant_rate(0.0, 2.0, 1.0)])),
    ]
    return [
        Fixture(name, Network({"p": Arc("A", "B", model)}, {"r": ("p",)}), {"r": flow}, Horizon(10.0))
        for name, model, flow in cases
    ]
