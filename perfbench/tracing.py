"""Spans and counters recorded around qcl's cross-module calls.

A :class:`Tracer` replaces, for the duration of a traced run, the names
one qcl module looks up in another at call time (for example
``qcl.functionals.adaptive_2d`` or ``qcl.kernels._light_cone_times``)
with wrappers that pass every call straight through.  Each wrapper
records a span (id, parent id, operation id, name, tag, start, end) and,
while ``counting`` is on, a few work counts taken from the arguments.
Spans stay in memory until the run ends.  No wrapper changes an
argument or a result, so a traced run computes the same bits as an
untraced one.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter

import numpy as np

# A 2D panel is measured with a 4x4 and an 8x8 rule (see qcl.quadrature).
POINTS_PER_PANEL_2D = 16 + 64

# Per-layer metrics: name -> unit.  Counts are per operation of the
# first round (deterministic for a seed); times are per operation over
# the whole run.
LAYER_METRICS = {
    "quadrature.points_2d": "count",
    "quadrature.points_1d": "count",
    "quadrature.rounds_2d": "count",
    "quadrature.rounds_1d": "count",
    "quadrature.panel_yield_2d": "ratio",
    "quadrature.self_s": "s",
    "kernels.hadamard_points": "count",
    "kernels.hadamard_s": "s",
    "kernels.retarded_points": "count",
    "kernels.retarded_s": "s",
    "kernels.lw_events": "count",
    "kernels.lw_s": "s",
    "kernels.lightcone_events": "count",
    "kernels.lightcone_s": "s",
    "kernels.lightcone_position_evals_per_event": "count",
    "functionals.gamma_calls": "count",
    "functionals.gamma_s": "s",
    "functionals.phi_self_s": "s",
    "functionals.pairing_calls": "count",
    "functionals.pairing_s": "s",
    "functionals.gamma_momentum_s": "s",
    "functionals.commutator_s": "s",
    "geometry.causal_margin_calls": "count",
    "geometry.causal_margin_s": "s",
    "quantum.s": "s",
    "inequalities.implication_audit_s": "s",
    "inequalities.f_grid_s": "s",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "modes.fock_s": "s",
    "modes.fock_rhs_evals": "count",
    "modes.beta_theta_s": "s",
    "modes.beta_theta_rhs_evals": "count",
    "trace.round_s": "s",
}

# Integrand names handed to adaptive_1d/2d, grouped by functional.
_PHI_SELF_TAGS = ("phi_self", "phi_background")
_PAIRING_TAGS = ("pairing", "phi_pairing")


class Tracer:
    """Wrap qcl's cross-module calls; record spans and first-round counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.counting = True
        self.op_id = 0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._active[name] += 1
        return sid, parent, time.perf_counter()

    def _close(self, handle: tuple, name: str, tag: str = "") -> None:
        end = time.perf_counter()
        sid, parent, start = handle
        self._stack.pop()
        self._active[name] -= 1
        self.spans.append((sid, parent, self.op_id, name, tag, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        handle = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(handle, name)

    # -- installing wrappers ---------------------------------------------

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return  # a later layout of the program: report what is reachable
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def _span_wrapper(self, name: str, count=None):
        def make(original):
            def wrapper(*args, **kwargs):
                handle = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(handle, name)
                if count is not None and self.counting:
                    count(args, kwargs)
                return result
            return wrapper
        return make

    def _adaptive_wrapper(self, dim: int):
        name = f"quadrature.adaptive_{dim}d"

        def make(original):
            def wrapper(f, *args, **kwargs):
                tag = str(kwargs.get("name", "integral")).split("[")[0]
                sizes = []

                def integrand(*xs):
                    handle = self._open("quadrature.integrand")
                    try:
                        return f(*xs)
                    finally:
                        self._close(handle, "quadrature.integrand", tag)
                        sizes.append(int(np.size(xs[0])))

                handle = self._open(name)
                try:
                    return original(integrand, *args, **kwargs)
                finally:
                    self._close(handle, name, tag)
                    if self.counting:
                        self._count_adaptive(dim, tag, sizes)
            return wrapper
        return make

    def _count_adaptive(self, dim: int, tag: str, sizes: list[int]) -> None:
        c = self.counts
        c[f"adaptive_{dim}d.calls"] += 1
        c[f"adaptive_{dim}d.rounds"] += len(sizes)
        c[f"adaptive_{dim}d.points"] += sum(sizes)
        c[f"functionals.{tag}.calls"] += 1
        if dim == 2 and sizes:
            # A 2D refinement round splits each chosen panel into four, so
            # it evaluates 4 panels for every net gain of 3.
            evaluated = [s / POINTS_PER_PANEL_2D for s in sizes]
            c["adaptive_2d.panels_evaluated"] += sum(evaluated)
            c["adaptive_2d.panels_final"] += evaluated[0] + 0.75 * sum(evaluated[1:])

    def _count_inside(self, keys: dict, size_of):
        """Wrap a method to count its calls made inside the named spans."""
        def make(original):
            def wrapper(obj, *args, **kwargs):
                if self.counting:
                    for inside, key in keys.items():
                        if self._active[inside]:
                            self.counts[key] += size_of(args)
                            break
                return original(obj, *args, **kwargs)
            return wrapper
        return make

    def install(self, qcl) -> None:
        """Wrap every cross-module name the benchmark measures."""
        fn, kern, geo = qcl.functionals, qcl.kernels, qcl.geometry
        quantum, ineq, cli, modes = qcl.quantum, qcl.inequalities, qcl.cli, qcl.modes
        c = self.counts

        def points(key):
            def count(args, kwargs):
                c[key] += int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
            return count

        def events(key):
            def count(args, kwargs):
                c[key] += len(args[0])
            return count

        def written(args, kwargs):
            c["cli.bytes_written"] += os.path.getsize(args[0])

        def calls(key):
            def count(args, kwargs):
                c[key] += 1
            return count

        self._replace(fn, "adaptive_2d", self._adaptive_wrapper(2))
        self._replace(fn, "adaptive_1d", self._adaptive_wrapper(1))
        self._replace(fn, "hadamard_dt_r", self._span_wrapper(
            "kernels.hadamard", points("kernels.hadamard_points")))
        self._replace(fn, "retarded_kernel", self._span_wrapper(
            "kernels.retarded", points("kernels.retarded_points")))
        self._replace(fn, "_lw_batch", self._span_wrapper(
            "kernels.lw", events("kernels.lw_events")))
        self._replace(kern, "_light_cone_times", self._span_wrapper(
            "kernels.lightcone", events("kernels.lightcone_events")))
        self._replace(geo.Worldline, "position", self._count_inside(
            {"kernels.lightcone": "kernels.lightcone_position_points"},
            lambda args: int(np.size(args[0]))))
        for owner in (geo, fn):
            self._replace(owner, "causal_margin", self._span_wrapper(
                "geometry.causal_margin", calls("geometry.causal_margin_calls")))
        for owner in (fn, cli):
            self._replace(owner, "build_report", self._span_wrapper("functionals.build_report"))
        for name in ("gamma", "phi_pairing"):
            self._replace(fn, name, self._span_wrapper(f"functionals.{name}"))
        self._replace(fn, "gamma_momentum", self._span_wrapper("functionals.gamma_momentum"))
        self._replace(fn, "commutator_functional", self._span_wrapper("functionals.commutator"))
        # quantum.rho_B_conditional is only called inside distinguishability.
        for owner, name in [(quantum, "rho_A"), (quantum, "visibility"),
                            (quantum, "distinguishability"), (cli, "rho_A"),
                            (cli, "visibility"), (cli, "distinguishability"),
                            (cli, "rho_B_conditional")]:
            self._replace(owner, name, self._span_wrapper("quantum"))
        for owner in (ineq, cli):
            self._replace(owner, "audit_report", self._span_wrapper("inequalities.audit_report"))
        self._replace(cli, "implication_audit", self._span_wrapper("inequalities.implication_audit"))
        self._replace(cli, "f_grid", self._span_wrapper("inequalities.f_grid"))
        for name in ("_load_json", "_parse_vary", "_apply_vary", "parse_config"):
            self._replace(cli, name, self._span_wrapper("cli.parse"))
        for name in ("_write", "_write_audit_csv", "_write_grid_csv"):
            self._replace(cli, name, self._span_wrapper("cli.write", written))
        self._replace(modes, "_evolve_fock", self._span_wrapper("modes.fock"))
        self._replace(modes, "_beta_theta", self._span_wrapper("modes.beta_theta"))
        self._replace(modes.ModeSet, "joint_coupling", self._count_inside(
            {"modes.fock": "modes.fock_rhs_evals",
             "modes.beta_theta": "modes.beta_theta_rhs_evals"}, lambda args: 1))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, ops_first_round: int, ops_total: int, round_s: float) -> dict:
        """Per-operation layer metrics; absent layers read 0."""
        busy: Counter = Counter()
        for _, _, _, name, tag, start, end in self.spans:
            busy[name] += end - start
            if tag:
                busy[f"{name}:{tag}"] += end - start
        c = self.counts
        n0 = max(ops_first_round, 1)
        n = max(ops_total, 1)
        adaptive = busy["quadrature.adaptive_1d"] + busy["quadrature.adaptive_2d"]

        def tagged(tags):
            return sum(busy[f"quadrature.adaptive_{d}d:{t}"] for d in (1, 2) for t in tags)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "quadrature.points_2d": c["adaptive_2d.points"] / n0,
            "quadrature.points_1d": c["adaptive_1d.points"] / n0,
            "quadrature.rounds_2d": ratio(c["adaptive_2d.rounds"], c["adaptive_2d.calls"]),
            "quadrature.rounds_1d": ratio(c["adaptive_1d.rounds"], c["adaptive_1d.calls"]),
            "quadrature.panel_yield_2d": ratio(c["adaptive_2d.panels_final"],
                                               c["adaptive_2d.panels_evaluated"]),
            "quadrature.self_s": (adaptive - busy["quadrature.integrand"]) / n,
            "kernels.hadamard_points": c["kernels.hadamard_points"] / n0,
            "kernels.hadamard_s": busy["kernels.hadamard"] / n,
            "kernels.retarded_points": c["kernels.retarded_points"] / n0,
            "kernels.retarded_s": busy["kernels.retarded"] / n,
            "kernels.lw_events": c["kernels.lw_events"] / n0,
            "kernels.lw_s": busy["kernels.lw"] / n,
            "kernels.lightcone_events": c["kernels.lightcone_events"] / n0,
            "kernels.lightcone_s": busy["kernels.lightcone"] / n,
            "kernels.lightcone_position_evals_per_event": ratio(
                c["kernels.lightcone_position_points"], c["kernels.lightcone_events"]),
            "functionals.gamma_calls": c["functionals.gamma.calls"] / n0,
            "functionals.gamma_s": tagged(("gamma",)) / n,
            "functionals.phi_self_s": tagged(_PHI_SELF_TAGS) / n,
            "functionals.pairing_calls": sum(c[f"functionals.{t}.calls"] for t in _PAIRING_TAGS) / n0,
            "functionals.pairing_s": tagged(_PAIRING_TAGS) / n,
            "functionals.gamma_momentum_s": busy["functionals.gamma_momentum"] / n,
            "functionals.commutator_s": busy["functionals.commutator"] / n,
            "geometry.causal_margin_calls": c["geometry.causal_margin_calls"] / n0,
            "geometry.causal_margin_s": busy["geometry.causal_margin"] / n,
            "quantum.s": busy["quantum"] / n,
            "inequalities.implication_audit_s": busy["inequalities.implication_audit"] / n,
            "inequalities.f_grid_s": busy["inequalities.f_grid"] / n,
            "cli.parse_s": busy["cli.parse"] / n,
            "cli.write_s": busy["cli.write"] / n,
            "cli.bytes_written": c["cli.bytes_written"] / n0,
            "modes.fock_s": busy["modes.fock"] / n,
            "modes.fock_rhs_evals": c["modes.fock_rhs_evals"] / n0,
            "modes.beta_theta_s": busy["modes.beta_theta"] / n,
            "modes.beta_theta_rhs_evals": c["modes.beta_theta_rhs_evals"] / n0,
            "trace.round_s": round_s,
        }
        return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}

    def dump_spans(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "tag", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
