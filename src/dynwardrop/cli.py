"""Batch command line: load, solve, check, and cross-validate scenarios.

Exit codes: 0 on success, 2 on scenario parse/validation errors, 3 when
``--strict`` is set and a solver returns without meeting its tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arcs import ArcPerformanceModel, check_assumptions
from .equilibrium import SolverConfig, solve_departure_choice, solve_wardrop, wardrop_gap
from .errors import DynWardropError, ParseError, ValidationError
from .flows import CumulativeFlow
from .network import RouteFlowPattern, TravelTimePattern, load, route_times
from .oracle import GridConfig, compare_to_exact, oracle_load
from .scenario import (
    Scenario,
    parse_scenario,
    read_route_flows_csv,
    read_route_times_csv,
    write_arc_flows_csv,
    write_conformance_csv,
    write_gap_trace_csv,
    write_route_flows_csv,
    write_route_times_csv,
    write_summary,
)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plain_route_flows(scenario: Scenario) -> RouteFlowPattern:
    """Route inflows for plain loading: explicit section, else uniform od split."""
    if scenario.route_flows is not None:
        flows = {r: CumulativeFlow.zero() for r in scenario.network.routes}
        flows.update(scenario.route_flows)
        return flows
    flows = {r: CumulativeFlow.zero() for r in scenario.network.routes}
    for od, q in scenario.demand.rates.items():
        rset = scenario.network.routes_between(*od)
        if not rset or q.is_zero:
            continue
        for rid in rset:
            flows[rid] = q.scaled(1.0 / len(rset))
    return flows


def _emit_state(args, scenario: Scenario, flows, times: TravelTimePattern, bundle) -> None:
    out = _outdir(args)
    write_route_flows_csv(out / "route_flows.csv", flows)
    write_arc_flows_csv(out / "arc_flows.csv", scenario.network, bundle)
    write_route_times_csv(out / "route_times.csv", times, scenario.horizon)


def cmd_load(args) -> int:
    scenario = parse_scenario(args.scenario)
    flows = _plain_route_flows(scenario)
    bundle = load(scenario.network, flows)
    times = route_times(scenario.network, bundle, scenario.horizon)
    _emit_state(args, scenario, flows, times, bundle)
    total = sum(f.total for f in flows.values())
    write_summary(_outdir(args) / "summary.txt", {
        "scenario": scenario.name,
        "command": "load",
        "total_mass": total,
        "arcs": len(scenario.network.arcs),
        "routes": len(scenario.network.routes),
    })
    return 0


def cmd_solve(args) -> int:
    scenario = parse_scenario(args.scenario)
    h = scenario.horizon
    config = SolverConfig(
        bin_width=h.end / args.bins,
        max_iters=args.max_iters,
        tolerance=args.tol,
    )
    state = solve_wardrop(scenario.network, scenario.demand, config)
    bundle = load(scenario.network, state.flows)
    _emit_state(args, scenario, state.flows, state.times, bundle)
    out = _outdir(args)
    write_gap_trace_csv(out / "gap_trace.csv", state.gap_trace)
    write_summary(out / "summary.txt", {
        "scenario": scenario.name,
        "command": "solve",
        "gap": state.gap,
        "iterations": state.iterations,
        "converged": str(state.converged).lower(),
        "max_margin_error": state.max_margin_error,
    })
    if args.strict and not state.converged:
        print(f"gap {state.gap:.3g} did not reach {args.tol:.3g}", file=sys.stderr)
        return 3
    return 0


def cmd_solve_dtc(args) -> int:
    scenario = parse_scenario(args.scenario)
    if not scenario.classes:
        raise ValidationError("scenario has no [classes] section to solve")
    h = scenario.horizon
    config = SolverConfig(
        bin_width=h.end / args.bins,
        max_iters=args.max_iters,
        tolerance=args.tol,
    )
    state = solve_departure_choice(scenario.network, scenario.classes, config, h)
    bundle = load(scenario.network, state.flows)
    _emit_state(args, scenario, state.flows, state.times, bundle)
    out = _outdir(args)
    write_gap_trace_csv(out / "gap_trace.csv", state.gap_trace)
    write_summary(out / "summary.txt", {
        "scenario": scenario.name,
        "command": "solve-dtc",
        "regret": state.gap,
        "iterations": state.iterations,
        "converged": str(state.converged).lower(),
    })
    if args.strict and not state.converged:
        print(f"regret {state.gap:.3g} did not reach {args.tol:.3g}", file=sys.stderr)
        return 3
    return 0


def cmd_check(args) -> int:
    scenario = parse_scenario(args.scenario)
    reports = {}
    for aid, arc in scenario.network.arcs.items():
        atom_ok = not isinstance(arc.model, ArcPerformanceModel)
        reports[aid] = check_assumptions(
            arc.model,
            probes=args.probes,
            seed=args.seed,
            horizon=scenario.horizon,
            allow_atom_probes=atom_ok,
        )
    out = _outdir(args)
    write_conformance_csv(out / "conformance.csv", reports)
    failed = {aid: rep.failed() for aid, rep in reports.items() if not rep.all_passed}
    write_summary(out / "summary.txt", {
        "scenario": scenario.name,
        "command": "check",
        "probes": args.probes,
        "all_passed": str(not failed).lower(),
        "failures": ";".join(f"{aid}:{'+'.join(f)}" for aid, f in failed.items()) or "none",
    })
    for aid, names in failed.items():
        print(f"arc {aid} failed: {', '.join(names)}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    scenario = parse_scenario(args.scenario)
    flows = _plain_route_flows(scenario)
    bundle = load(scenario.network, flows)
    step = args.dt if args.dt else scenario.network.t_min_star / 8.0
    diffs = {}
    for k, label in ((1, "dt"), (2, "dt/2"), (4, "dt/4")):
        gridded = oracle_load(scenario.network, flows, GridConfig(step / k))
        diffs[label] = compare_to_exact(scenario.network, bundle, gridded)
    out = _outdir(args)
    entries = {
        "scenario": scenario.name,
        "command": "oracle",
        "dt": step,
        "linf_dt": diffs["dt"],
        "linf_dt_half": diffs["dt/2"],
        "linf_dt_quarter": diffs["dt/4"],
        "shrinking": str(diffs["dt"] >= diffs["dt/2"] >= diffs["dt/4"]).lower(),
    }
    # when a previous run left tables here, re-ingest them and reproduce the gap
    rt_path, rf_path = out / "route_times.csv", out / "route_flows.csv"
    if rt_path.exists() and rf_path.exists():
        curves = read_route_times_csv(rt_path)
        flows_in = read_route_flows_csv(rf_path)
        total = sum(f.total for f in flows_in.values())
        if total > 0:
            times = TravelTimePattern(curves, scenario.horizon)
            entries["reingested_gap"] = wardrop_gap(scenario.network, flows_in, times)
    write_summary(out / "oracle_summary.txt", entries)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynwardrop",
        description="Dynamic network loading and equilibrium assignment on cumulative flow curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("scenario", help="scenario file")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")

    sp = sub.add_parser("load", help="network loading only")
    common(sp)
    sp.set_defaults(fn=cmd_load)

    sp = sub.add_parser("solve", help="route-choice equilibrium")
    common(sp)
    sp.add_argument("--bins", type=int, default=32, help="departure bins over the horizon")
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--strict", action="store_true", help="exit 3 when tolerance unmet")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("solve-dtc", help="departure-time choice equilibrium")
    common(sp)
    sp.add_argument("--bins", type=int, default=64)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(fn=cmd_solve_dtc)

    sp = sub.add_parser("check", help="probe arc models for behavioural conformance")
    common(sp)
    sp.add_argument("--probes", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0, help="seed of the random probe inflows")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("oracle", help="grid loader cross-check against the exact loader")
    common(sp)
    sp.add_argument("--dt", type=float, default=None, help="grid step (default: floor/8)")
    sp.set_defaults(fn=cmd_oracle)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except DynWardropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
