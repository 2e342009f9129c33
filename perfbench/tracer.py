"""Per-layer tracing of dynwardrop from the outside.

``Tracer.install`` replaces public functions and methods of the ``dynwardrop``
modules with wrappers that record spans and counters; ``Tracer.restore`` puts
every original object back.  No file of the package is changed.

Modules bind their dependencies with ``from .flows import sum_flows``, so a
module-level function is patched in every ``dynwardrop`` namespace that holds
it, not only in the defining module.  Methods are patched on the class that
defines them; ``ExitTimeCurve.compose_after`` delegates to
``PiecewiseLinearMap.compose_after``, so only the latter is wrapped.

A span records calls and self time: its duration minus the time covered by the
spans it encloses.  Every span name has a ``<name>.self_s`` metric, so the
self times of all layers plus ``trace.unattributed_s`` (time inside the traced
call but outside every span) add up to the traced wall time.  Point
evaluations are counted without a span: they are too fine-grained to time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from dynwardrop import arcs, cli, curves, equilibrium, errors, flows, network, scenario

#: Spans, in report order.  Each yields ``<name>.calls`` and ``<name>.self_s``.
SPANS = (
    "flows.sum_flows", "flows.pushforward", "flows.restrict",
    "curves.compose_after", "curves.integrate",
    "arcs.bottleneck.exit_profile", "arcs.volume_delay.exit_profile",
    "network.load", "network.flowing", "network.route_times", "network.mean_travel_time",
    "equilibrium.solve", "equilibrium.induced_flows", "equilibrium.wardrop_gap",
    "equilibrium.margin_error",
    "scenario.parse_scenario", "scenario.write", "cli.main",
)

#: Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "flows.sum_flows.calls": "count",
    "flows.sum_flows.self_s": "s",
    "flows.pushforward.calls": "count",
    "flows.pushforward.self_s": "s",
    "flows.restrict.calls": "count",
    "flows.restrict.self_s": "s",
    "flows.point_evals": "count",
    "flows.vertices_out": "count",
    "curves.compose_after.calls": "count",
    "curves.compose_after.self_s": "s",
    "curves.integrate.calls": "count",
    "curves.integrate.self_s": "s",
    "curves.point_evals": "count",
    "curves.vertices_out": "count",
    "arcs.bottleneck.exit_profile.calls": "count",
    "arcs.bottleneck.exit_profile.self_s": "s",
    "arcs.volume_delay.exit_profile.calls": "count",
    "arcs.volume_delay.exit_profile.self_s": "s",
    "arcs.constant.exit_profile.calls": "count",
    "arcs.errors": "count",
    "network.load.calls": "count",
    "network.load.self_s": "s",
    "network.flowing.calls": "count",
    "network.flowing.self_s": "s",
    "network.flowing.useful_frac": "ratio",
    "network.route_times.calls": "count",
    "network.route_times.self_s": "s",
    "network.mean_travel_time.calls": "count",
    "network.mean_travel_time.self_s": "s",
    "network.max_arc_vertices": "count",
    "equilibrium.solve.self_s": "s",
    "equilibrium.induced_flows.calls": "count",
    "equilibrium.induced_flows.self_s": "s",
    "equilibrium.wardrop_gap.calls": "count",
    "equilibrium.wardrop_gap.self_s": "s",
    "equilibrium.margin_error.self_s": "s",
    "equilibrium.best_iter_frac": "ratio",
    "scenario.parse_scenario.self_s": "s",
    "scenario.write.self_s": "s",
    "scenario.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: Namespaces that must hold the wrapper of a function while tracing: the
#: importing modules, besides the defining one.
REQUIRED_BINDINGS = {
    "sum_flows": ("dynwardrop.arcs", "dynwardrop.network", "dynwardrop.equilibrium"),
    "pushforward": ("dynwardrop.arcs",),
    "load": ("dynwardrop.equilibrium", "dynwardrop.cli", "dynwardrop.oracle"),
    "route_times": ("dynwardrop.equilibrium", "dynwardrop.cli", "dynwardrop.oracle"),
}


class Tracer:
    """Spans and counters of one traced run; install, run the call, restore."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spanned_s = 0.0  # total duration of outermost spans
        self.max_arc_vertices = 0
        self.best_iter_frac = 0.0
        self._stack: list[list[float]] = []
        self._load_arcs: list[set] = []
        self._loose_arcs: set = set()
        self._distinct_arcs = 0
        self._patches: list[tuple[object, str, object]] = []
        self.patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None, errors_of=()):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors_of:
                self.counts["arcs.errors"] += 1
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                else:
                    self.spanned_s += took
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _in_load(self, fn):
        """Collect the distinct upstream arcs that ``flowing`` sees in one load."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._load_arcs.append(set())
            try:
                return fn(*args, **kwargs)
            finally:
                self._distinct_arcs += len(self._load_arcs.pop())

        return wrapper

    def _note_arc(self, fn):
        @functools.wraps(fn)
        def wrapper(model, inflows_by_route):
            # an arc is identified by its model object and the routes crossing it
            key = (id(model), frozenset(inflows_by_route))
            (self._load_arcs[-1] if self._load_arcs else self._loose_arcs).add(key)
            return fn(model, inflows_by_route)

        return wrapper

    # -- result hooks ----------------------------------------------------------

    def _flow_out(self, flow, args):
        self.counts["flows.vertices_out"] += flow.times.size

    def _curve_out(self, curve, args):
        self.counts["curves.vertices_out"] += curve.xs.size

    def _bundle_out(self, bundle, args):
        for aid, total in bundle.totals.items():
            size = max(total.times.size, bundle.outflow_total(aid).times.size)
            self.max_arc_vertices = max(self.max_arc_vertices, size)

    def _state_out(self, state, args):
        gaps = [g for _, g in state.gap_trace]
        self.best_iter_frac = (int(np.argmin(gaps)) + 1) / len(gaps)

    def _bytes_out(self, _, args):
        self.counts["scenario.bytes_written"] += Path(args[0]).stat().st_size

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr, wrapper, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _function(self, module, name, make):
        """Wrap a module function in every dynwardrop namespace bound to it."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dynwardrop" and not mod_name.startswith("dynwardrop."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper, original)

    def _method(self, cls, name, make):
        original = cls.__dict__[name]
        self._patch(cls, name, make(original), original)

    def install(self) -> None:
        span, count = self._span, self._count
        arc_errors = (errors.FifoViolation, errors.NonTermination)

        self._function(flows, "sum_flows", lambda f: span("flows.sum_flows", f, self._flow_out))
        self._function(flows, "pushforward", lambda f: span("flows.pushforward", f, self._flow_out))
        flow_cls = flows.CumulativeFlow
        self._method(flow_cls, "restrict", lambda f: span("flows.restrict", f, self._flow_out))
        for name in ("value", "left_value"):
            self._method(flow_cls, name, lambda f: count("flows.point_evals", f))

        map_cls = curves.PiecewiseLinearMap
        self._method(map_cls, "compose_after", lambda f: span("curves.compose_after", f, self._curve_out))
        self._method(map_cls, "integrate", lambda f: span("curves.integrate", f))
        for name in ("value", "left_value", "preimage_sup", "preimage_inf"):
            self._method(map_cls, name, lambda f: count("curves.point_evals", f))

        self._method(arcs.BottleneckModel, "exit_profile",
                     lambda f: span("arcs.bottleneck.exit_profile", f, errors_of=arc_errors))
        self._method(arcs.ArcPerformanceModel, "exit_profile",
                     lambda f: span("arcs.volume_delay.exit_profile", f, errors_of=arc_errors))
        self._method(arcs.ConstantModel, "exit_profile",
                     lambda f: count("arcs.constant.exit_profile.calls", f))

        self._function(network, "load", lambda f: span("network.load", self._in_load(f), self._bundle_out))
        self._function(network, "flowing", lambda f: span("network.flowing", self._note_arc(f)))
        self._function(network, "route_times", lambda f: span("network.route_times", f))
        self._method(network.TravelTimePattern, "mean_travel_time",
                     lambda f: span("network.mean_travel_time", f))

        for name in ("solve_wardrop", "solve_departure_choice"):
            self._function(equilibrium, name, lambda f: span("equilibrium.solve", f, self._state_out))
        for name in ("induced_flows", "wardrop_gap", "margin_error"):
            self._function(equilibrium, name, lambda f, n=name: span(f"equilibrium.{n}", f))

        self._function(scenario, "parse_scenario", lambda f: span("scenario.parse_scenario", f))
        for name in sorted(vars(scenario)):
            if name.startswith("write_"):
                self._function(scenario, name, lambda f: span("scenario.write", f, self._bytes_out))
        self._function(cli, "main", lambda f: span("cli.main", f))
        self.patched = list(self._patches)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- self-tests ------------------------------------------------------------------

    def binding_failures(self) -> list[str]:
        """Required namespaces that the installed tracer did not patch."""
        patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in self.patched}
        return [
            f"{mod}.{name} was not wrapped"
            for name, mods in REQUIRED_BINDINGS.items()
            for mod in mods
            if (mod, name) not in patched
        ]

    def restore_failures(self) -> list[str]:
        """Patched attributes that are not the original object again."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr} still wrapped"
            for owner, attr, original in self.patched
            if (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is not original
        ]

    # -- report ------------------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric; layers a workload does not reach read 0."""
        values: dict[str, float] = {}
        for name in SPANS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        for name in ("flows.point_evals", "flows.vertices_out", "curves.point_evals",
                     "curves.vertices_out", "arcs.constant.exit_profile.calls",
                     "arcs.errors", "scenario.bytes_written"):
            values[name] = self.counts[name]
        flowing_calls = self.calls["network.flowing"]
        distinct = self._distinct_arcs + len(self._loose_arcs)
        values["network.flowing.useful_frac"] = distinct / flowing_calls if flowing_calls else 0.0
        values["network.max_arc_vertices"] = self.max_arc_vertices
        values["equilibrium.best_iter_frac"] = self.best_iter_frac
        values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        values["trace.unattributed_s"] = traced_wall - sum(self.self_s[n] for n in SPANS)
        return {name: values[name] for name in LAYER_METRICS}
