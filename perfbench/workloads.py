"""The benchmark's workloads: inputs generated from a seed, the measured call and its checks.

Seed 0 gives the nominal solver instances: the acceptance corridor, and the
committed ``demos/scenarios/commute.scn`` byte for byte.  Any other seed
multiplies each of their numeric parameters by its own factor drawn uniformly
from ``[1 - JITTER, 1 + JITTER]``.  The range is this narrow on purpose: time
to a solution is chaotic in these parameters (perturbing the corridor by
+/-0.5 % moved one solve between 17 s and 24 s), and a wider range would make a
run's figures describe the drawn instance instead of the engine.

A ladder call loads one ladder, about 2 s.  The ladders use round parameters,
as scenario files do; there are 24 ways to hand the four pulse patterns to the
four routes, and all 24 pass the workload's checks.  A seed orders the 24, and
the calls go through them in that order, so a run of a minute times nearly
all of them and its mean call time stays steady across seeds.

The program only ever receives the generated inputs; every call into
``dynwardrop`` goes through a module attribute, so that the tracer's wrappers
see it.
"""

from __future__ import annotations

import csv
import itertools
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from dynwardrop import arcs, cli, equilibrium, flows, network, oracle

#: Relative half-width of the per-parameter perturbation of seeds other than 0.
JITTER = 1e-6

#: Stages of each ladder, and the leading ladders of a seed's order whose
#: vertices make ``result_breakpoints`` and whose loading the grid oracle checks.
LADDER_STAGES = 5
LADDER_MEMBERS = 8

COMMUTE_TEMPLATE = """\
# Morning commute: one bottleneck, users choose when to leave.
format dnl-scenario 1
horizon 4

[arcs]
gate A B bottleneck free_flow={free_flow} capacity={capacity}

[routes]
r gate

[classes]
commuters A B mass={mass} hstar={hstar} alpha={alpha} beta={beta} gamma={gamma}
"""

# Three (start, end, rate) pulses per pattern; each ladder hands one pattern
# to each route.
LADDER_PULSES = (
    ((0.0, 0.6, 1.4), (1.0, 1.5, 0.8), (2.0, 2.4, 1.2)),
    ((0.2, 0.7, 1.0), (1.1, 1.8, 0.6), (2.2, 2.6, 1.1)),
    ((0.1, 0.5, 0.9), (0.9, 1.3, 1.3), (1.9, 2.5, 0.7)),
    ((0.3, 0.8, 0.8), (1.2, 1.6, 1.0), (2.1, 2.8, 0.9)),
)


def perturbation(seed: int):
    """Parameter map of a seed: identity for seed 0, else a fresh factor per call."""
    # every seed builds the generator, so that all seeds load the same modules
    rng = np.random.default_rng(seed)
    if seed == 0:
        return lambda x: x
    return lambda x: x * (1.0 + rng.uniform(-JITTER, JITTER))


def _num(x: float) -> str:
    """Scenario-file number: 12 significant digits, as the format serializes."""
    return f"{x:.12g}"


def state_breakpoints(state) -> int:
    """Vertices of a solver result: route flows plus route arrival curves."""
    return sum(f.times.size for f in state.flows.values()) + sum(
        c.xs.size for c in state.times.arrivals.values()
    )


def solver_outcome(state) -> dict:
    return {
        "iterations": state.iterations,
        "gap": float(state.gap),
        "last_gap": float(state.gap_trace[-1][1]),
        "result_breakpoints": state_breakpoints(state),
    }


class Workload:
    """A measured call on generated inputs; ``run`` returns what the checks read."""

    name: str
    why: str

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, k: int):
        """The ``k``-th measured call of a run, counting from 0."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Cheap checks, run on every result; returns the failures."""
        raise NotImplementedError

    def final_check(self, result) -> list[str]:
        """Costly checks, run once per run on the last result."""
        return []

    def outcome(self, result) -> dict:
        raise NotImplementedError


class CorridorWardrop(Workload):
    name = "corridor_wardrop"
    why = (
        "route-choice solve of the acceptance corridor; time goes to sum_flows via "
        "induced_flows and to integrate via mean_travel_time; bypasses the frontier loader"
    )

    def __init__(self, seed: int, work_dir: Path):
        p = perturbation(seed)
        self.network = network.Network(
            {
                "fast": network.Arc("A", "B", arcs.ConstantModel(p(1.0))),
                "jam": network.Arc("A", "B", arcs.BottleneckModel(p(0.5), p(1.0))),
            },
            {"r1": ("fast",), "r2": ("jam",)},
        )
        horizon = flows.Horizon(4.0)
        self.demand = equilibrium.DemandTable(
            {("A", "B"): flows.CumulativeFlow.constant_rate(0.0, p(1.0), p(2.0))}, horizon
        )
        self.config = equilibrium.SolverConfig(
            bin_width=horizon.end / 128, max_iters=400, tolerance=1e-4
        )

    def warm_up(self) -> None:
        equilibrium.solve_wardrop(self.network, self.demand, replace(self.config, max_iters=1))

    def run(self, k: int):
        return equilibrium.solve_wardrop(self.network, self.demand, self.config)

    def check(self, state) -> list[str]:
        fails = []
        best = min(g for _, g in state.gap_trace)
        if state.gap != best:
            fails.append(f"returned gap {state.gap!r} is not the trace minimum {best!r}")
        if not state.max_margin_error < 1e-12:
            fails.append(f"margin error {state.max_margin_error:.3g} >= 1e-12")
        return fails

    def outcome(self, state) -> dict:
        return solver_outcome(state)


class CommuteDtcCli(Workload):
    name = "commute_dtc_cli"
    why = (
        "the user-facing batch path `dynwardrop solve-dtc` on the commute scenario; time goes "
        "to utility evaluation and the bottleneck exit profile; ends unconverged"
    )

    def __init__(self, seed: int, work_dir: Path):
        p = perturbation(seed)
        params = {
            "free_flow": p(0.1), "capacity": p(1.0), "mass": p(1.0),
            "hstar": p(2.0), "alpha": p(1.0), "beta": p(0.5), "gamma": p(2.0),
        }
        self.text = COMMUTE_TEMPLATE.format(**{k: _num(v) for k, v in params.items()})
        self.mass = float(_num(params["mass"]))
        self.work_dir = work_dir
        self.path = work_dir / "commute.scn"
        self.path.write_text(self.text)
        self._captured = None

    def _solve_dtc(self, *extra: str) -> tuple[int, Path]:
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        return cli.main(["solve-dtc", str(self.path), "--out", str(out), *extra]), out

    def warm_up(self) -> None:
        _, out = self._solve_dtc("--max-iters", "1")
        shutil.rmtree(out)

    def run(self, k: int):
        # Keep the state the CLI computes, to check its files against it.  The
        # probe is one extra Python call per run.
        solve = cli.solve_departure_choice

        def capture(*args, **kwargs):
            self._captured = solve(*args, **kwargs)
            return self._captured

        cli.solve_departure_choice = capture
        try:
            code, out = self._solve_dtc()
        finally:
            cli.solve_departure_choice = solve
        state, self._captured = self._captured, None
        return code, out, state

    def check(self, result) -> list[str]:
        code, out, state = result
        try:
            if code != 0:
                return [f"cli exit code {code}"]
            if state is None:
                return ["cli never called solve_departure_choice"]
            fails = []
            summary = dict(
                line.split(" ", 1) for line in (out / "summary.txt").read_text().splitlines()
            )
            if float(summary["regret"]) != float(_num(state.gap)):
                fails.append(f"summary regret {summary['regret']} != state gap {state.gap!r}")
            if int(summary["iterations"]) != state.iterations:
                fails.append(f"summary iterations {summary['iterations']} != {state.iterations}")
            final: dict[str, float] = {}
            with (out / "route_flows.csv").open() as fh:
                for row in csv.DictReader(fh):
                    final[row["route"]] = max(final.get(row["route"], 0.0), float(row["cumulative"]))
            carried = sum(final.values())
            if abs(carried - self.mass) > 1e-12 * max(1.0, self.mass):
                fails.append(f"route flows carry {carried!r}, class mass is {self.mass!r}")
            return fails
        finally:
            shutil.rmtree(out)

    def outcome(self, result) -> dict:
        return solver_outcome(result[2])


def ladder_instance(assignment: tuple[int, ...], stages: int = LADDER_STAGES):
    """One ladder: per stage a bottleneck arc and a volume-delay arc in parallel.

    Four routes share the arcs: all-bottleneck, all-volume-delay, and the two
    alternating patterns.  Route k carries the three pulses of pattern
    ``assignment[k]``, without atoms.
    """
    arc_map = {}
    for k in range(stages):
        arc_map[f"b{k}"] = network.Arc(f"N{k}", f"N{k + 1}", arcs.BottleneckModel(0.5, 1.0))
        arc_map[f"v{k}"] = network.Arc(
            f"N{k}", f"N{k + 1}", arcs.ArcPerformanceModel((0.0, 1.0, 3.0), (0.6, 1.0, 2.0))
        )
    patterns = {
        "rB": "b" * stages,
        "rV": "v" * stages,
        "rBV": ("bv" * stages)[:stages],
        "rVB": ("vb" * stages)[:stages],
    }
    routes = {r: tuple(f"{c}{k}" for k, c in enumerate(s)) for r, s in patterns.items()}
    route_flows = {
        r: flows.CumulativeFlow.piecewise_rate(LADDER_PULSES[assignment[k]])
        for k, r in enumerate(routes)
    }
    return network.Network(arc_map, routes), route_flows


class LadderLoad(Workload):
    name = "ladder_load"
    why = (
        "load then route_times on one 5-stage ladder per call, 24 ladders in seeded order; the only "
        "workload through the frontier loader, multi-route flowing, volume-delay blocks and "
        "compose_after; no equilibrium"
    )

    def __init__(self, seed: int, work_dir: Path):
        self.horizon = flows.Horizon(4.0)
        assignments = list(itertools.permutations(range(len(LADDER_PULSES))))
        order = np.random.default_rng(seed).permutation(len(assignments))
        self.assignments = [assignments[i] for i in order]
        self.members = [ladder_instance(a) for a in self.assignments]
        self.warm = ladder_instance(self.assignments[0], stages=2)
        #: Latest loading of each of the first ``LADDER_MEMBERS`` ladders.
        self.kept: dict[int, tuple] = {}

    def _load(self, m: int):
        net, route_flows = self.members[m]
        bundle = network.load(net, route_flows)
        return bundle, network.route_times(net, bundle, self.horizon)

    def warm_up(self) -> None:
        bundle = network.load(*self.warm)
        network.route_times(self.warm[0], bundle, self.horizon)

    def run(self, k: int):
        m = k % len(self.members)
        loaded = self._load(m)
        if m < LADDER_MEMBERS:
            self.kept[m] = loaded
        return m, loaded

    def check(self, result) -> list[str]:
        m, (bundle, times) = result
        a, (net, x) = self.assignments[m], self.members[m]
        fails = []
        for rid, arc_ids in net.routes.items():
            mass = x[rid].total
            for aid in arc_ids:
                got = bundle.inflow(aid, rid).total
                if abs(got - mass) > 1e-12 * mass:
                    fails.append(f"ladder {a}: route {rid} carries {got!r} into {aid}, sent {mass!r}")
            for h in np.linspace(0.0, self.horizon.end, 33):
                composed = times.travel_time(rid, float(h))
                recursed = network.route_time_by_recursion(net, bundle, rid, float(h))
                if abs(composed - recursed) > 1e-12:
                    fails.append(f"ladder {a}: route {rid} at {h:.4g}: recursion {recursed!r} "
                                 f"!= composition {composed!r}")
        for aid in net.arcs:
            sent, left = bundle.total(aid).total, bundle.outflow_total(aid).total
            if abs(sent - left) > 1e-12 * max(sent, 1.0):
                fails.append(f"ladder {a}: arc {aid} takes in {sent!r}, lets out {left!r}")
        return fails

    def _load_leading(self) -> list[str]:
        """Load and check the first ``LADDER_MEMBERS`` ladders that no call loaded."""
        fails = []
        for m in range(LADDER_MEMBERS):
            if m not in self.kept:
                self.kept[m] = self._load(m)
                fails += self.check((m, self.kept[m]))
        return fails

    def final_check(self, result) -> list[str]:
        """Grid-oracle error must shrink over steps s, s/2 and s/4 on each leading ladder."""
        fails = self._load_leading()
        for m in range(LADDER_MEMBERS):
            net, x = self.members[m]
            step = net.t_min_star / 8.0
            errs = [
                oracle.compare_to_exact(net, self.kept[m][0], oracle.oracle_load(net, x, oracle.GridConfig(step / k)))
                for k in (1, 2, 4)
            ]
            if not errs[0] > errs[1] > errs[2]:
                fails.append(f"ladder {self.assignments[m]}: grid-oracle error does not shrink: {errs}")
        return fails

    def outcome(self, result) -> dict:
        self._load_leading()
        verts = 0
        for m in range(LADDER_MEMBERS):
            net, (bundle, times) = self.members[m][0], self.kept[m]
            for aid in net.arcs:
                verts += bundle.total(aid).times.size + bundle.outflow_total(aid).times.size
            verts += sum(c.xs.size for c in times.arrivals.values())
        return {"iterations": None, "gap": None, "last_gap": None, "result_breakpoints": verts}


WORKLOADS = {w.name: w for w in (CorridorWardrop, CommuteDtcCli, LadderLoad)}
