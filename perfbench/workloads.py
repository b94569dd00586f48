"""The four benchmark workloads.

A workload runs in rounds.  Round ``k`` makes its inputs from
``inputs.round_rng(seed, k)`` (untimed), runs the same list of
operations on them, timing each call into qcl on its own, and then
checks the outputs (untimed).  Every call goes through a qcl module
attribute (``qcl.functionals.build_report``, ``qcl.cli.main``, ...), so
a traced run sees it through the tracer's wrappers.

Operation kinds, per round:

* report-mixed: report_spacelike_s, report_one_way_s, report_mutual_s
  (one scenario each; what `qcl run` computes, without file output);
* sweep-D: sweep_s (one `qcl sweep --vary geometry.D=...`);
* audit: audit_s (one default `qcl audit`);
* crosscheck: gamma_momentum_s, fock_overlap_s, displacement_s,
  joint_bound_s, projection_s, commutator_s.  The reference values these
  routes are compared with are computed in "reference" operations, which
  count as attempted but are not timed as a kind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
from pathlib import Path

import checks
import inputs


class Smoke:
    """Reduced sizes, so all four workloads and their checks run in seconds."""

    sweep_grid = (0.5, 4.7, 3)     # one point per family
    sweep_quad_tol = 1e-4
    audit_samples = 2000
    audit_grid_n = 40
    report_quad_tol = 1e-4
    momentum_sigma = 0.2
    mode_sets = 1
    projection_sigma = 0.2
    commutator_quad_tol = 1e-6


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, qcl, seed: int, scratch: Path, smoke: bool):
        self.qcl = qcl
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke

    def inputs(self, k: int):
        raise NotImplementedError

    def run_round(self, k: int, data, rec) -> None:
        raise NotImplementedError


def run_cli(qcl, args: list[str]) -> int:
    """Invoke the `qcl` entry point in-process; return its exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            qcl.cli.main.main(args=args, prog_name="qcl", standalone_mode=False)
        except SystemExit as exc:
            return int(exc.code or 0)
    return 0


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class ReportMixed(Workload):
    name = "report-mixed"
    kinds = ("report_spacelike_s", "report_one_way_s", "report_mutual_s")

    def inputs(self, k):
        rng = inputs.round_rng(self.seed, k)
        tol = Smoke.report_quad_tol if self.smoke else None
        cases = [inputs.CASE_MAKERS[f](rng) for f in inputs.FAMILIES]
        return [(case, inputs.build_scenario(self.qcl, case, tol)) for case in cases]

    def evaluate(self, scenario):
        q = self.qcl
        report = q.functionals.build_report(scenario)
        V = q.quantum.visibility(q.quantum.rho_A(report))
        D_B = q.quantum.distinguishability(report)
        audit = q.inequalities.audit_report(report, V, D_B)
        return report, V, D_B, audit

    def run_round(self, k, data, rec):
        for (case, scenario), kind in zip(data, self.kinds):
            result = rec.op(kind, self.evaluate, scenario)
            if not rec.ok(result):
                continue
            report, V, D_B, audit = result
            out = dict(report.to_dict(), V=V, D_B=D_B)
            rec.output(kind, out["gamma_A"], out["gamma_B"], out["phi_AB"],
                       out["phi_BA"], V, D_B, out["quad_error"])
            problems = checks.check_report(case, out)
            if not (audit.complementarity_ok and audit.robertson_ok):
                problems.append(f"qcl's own audit failed: {audit}")
            rec.check(f"round {k} {case.family}", problems)


class SweepD(Workload):
    name = "sweep-D"
    kinds = ("sweep_s",)

    def inputs(self, k):
        rng = inputs.round_rng(self.seed, k)
        if self.smoke:
            config = inputs.sweep_config(rng, quad_tol=Smoke.sweep_quad_tol)
            grid = Smoke.sweep_grid
        else:
            config = inputs.sweep_config(rng)
            grid = inputs.SWEEP_GRID
        work = self.scratch / f"sweep-{k}"
        work.mkdir(parents=True, exist_ok=True)
        path = work / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return config, grid, path, work

    def run_round(self, k, data, rec):
        config, grid, path, work = data
        start, stop, steps = grid
        args = ["sweep", str(path), "--vary", f"geometry.D={start}:{stop}:{steps}",
                "--out-dir", str(work)]
        code = rec.op("sweep_s", run_cli, self.qcl, args)
        if not rec.ok(code):
            return
        csv_path = work / "sweep.csv"
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        rec.output("sweep_s", code, text)
        problems = [] if code == 0 else [f"qcl sweep exit code {code}"]
        if text:
            problems += checks.check_sweep(text, config, inputs.sweep_grid(grid))
        else:
            problems.append("sweep.csv missing")
        rec.check(f"round {k} sweep", problems)
        shutil.rmtree(work, ignore_errors=True)


class Audit(Workload):
    name = "audit"
    kinds = ("audit_s",)

    def inputs(self, k):
        rng = inputs.round_rng(self.seed, k)
        audit_seed = int(rng.integers(0, 2 ** 31))
        work = self.scratch / f"audit-{k}"
        return audit_seed, work, rng

    def run_round(self, k, data, rec):
        audit_seed, work, rng = data
        samples, grid_n = (Smoke.audit_samples, Smoke.audit_grid_n) if self.smoke else \
            (inputs.AUDIT_SAMPLES, inputs.AUDIT_GRID_N)
        args = ["audit", "--seed", str(audit_seed), "--out-dir", str(work)]
        if self.smoke:
            args += ["--samples", str(samples), "--grid-n", str(grid_n)]
        code = rec.op("audit_s", run_cli, self.qcl, args)
        if not rec.ok(code):
            return
        if rec.first_round:
            rec.output("audit_s", code, *(file_digest(work / f) for f in ("audit.csv", "f_grid.csv")))
        rec.check(f"round {k} audit", checks.check_audit(code, work, samples, grid_n, rng))
        shutil.rmtree(work, ignore_errors=True)


class Crosscheck(Workload):
    name = "crosscheck"
    kinds = ("gamma_momentum_s", "fock_overlap_s", "displacement_s", "joint_bound_s",
             "projection_s", "commutator_s")

    def inputs(self, k):
        q = self.qcl
        rng = inputs.round_rng(self.seed, k)
        momentum = inputs.momentum_split(rng)
        projection = inputs.projection_split(rng)
        if self.smoke:
            momentum["sigma"] = Smoke.momentum_sigma
            projection["sigma"] = Smoke.projection_sigma
        n_sets = Smoke.mode_sets if self.smoke else inputs.MODE_SETS_PER_ROUND
        fock_sets = [q.modes.random_mode_set(rng) for _ in range(n_sets)]
        joint_sets = [q.modes.random_mode_set(rng) for _ in range(n_sets)]
        tol = Smoke.commutator_quad_tol if self.smoke else inputs.COMMUTATOR_QUAD_TOL
        commutator_cases = []
        for family in ("one-way", "mutual"):
            case = inputs.commutator_case(rng, family)
            commutator_cases.append((case, inputs.build_scenario(q, case, tol)))
        return {
            "momentum": inputs.make_pair(q, momentum),
            "projection": inputs.make_pair(q, projection),
            "fock_sets": fock_sets,
            "joint_sets": joint_sets,
            "commutator": commutator_cases,
        }

    def project(self, pair, spec):
        m = self.qcl.modes
        n_k, n_mu = inputs.PROJECTION_MODES
        modes = m.pair_mode_set(pair, spec, n_k=n_k, n_mu=n_mu)
        return modes.n_modes, m.discrete_gamma_phi(modes, "RR", "LR")[0]

    def run_round(self, k, data, rec):
        fn, m = self.qcl.functionals, self.qcl.modes

        pair, spec = data["momentum"]
        g_pos = rec.op(rec.REFERENCE, fn.gamma, pair, spec)
        g_mom = rec.op("gamma_momentum_s", fn.gamma_momentum, pair, spec)
        if rec.ok(g_pos, g_mom):
            rec.output("gamma_momentum_s", g_pos, g_mom)
            rec.check(f"round {k} momentum", checks.check_momentum(g_pos, g_mom))

        for i, modes in enumerate(data["fock_sets"]):
            overlap = rec.op("fock_overlap_s", m.branch_overlap_exact, modes, "RL", "LR")
            gamma_phi = rec.op("displacement_s", m.discrete_gamma_phi, modes, "RL", "LR")
            if rec.ok(overlap, gamma_phi):
                rec.output("fock_overlap_s", overlap, *gamma_phi)
                rec.check(f"round {k} fock {i}", checks.check_fock(overlap, gamma_phi))

        for i, modes in enumerate(data["joint_sets"]):
            bound = rec.op("joint_bound_s", m.joint_overlap_and_bound, modes)
            if rec.ok(bound):
                rec.output("joint_bound_s", bound.alpha, bound.distinguishability, bound.residual)
                rec.check(f"round {k} joint {i}", checks.check_joint(bound.alpha, bound.residual))

        pair, spec = data["projection"]
        continuum = rec.op(rec.REFERENCE, fn.gamma, pair, spec)
        projected = rec.op("projection_s", self.project, pair, spec)
        if rec.ok(continuum, projected):
            n_modes, discrete = projected
            rec.output("projection_s", continuum, discrete)
            problems = checks.check_projection(discrete, continuum)
            if n_modes != inputs.PROJECTION_MODES[0] * inputs.PROJECTION_MODES[1]:
                problems.append(f"projection has {n_modes} modes")
            rec.check(f"round {k} projection", problems)

        for case, scenario in data["commutator"]:
            a, b, spec = scenario.pair_A, scenario.pair_B, scenario.kernel
            ref = dataclasses.replace(spec, quad_tol=spec.quad_tol * inputs.REFERENCE_TOL_RATIO)
            phi_ab = rec.op(rec.REFERENCE, fn.phi_pairing, a, b, ref)
            phi_ba = rec.op(rec.REFERENCE, fn.phi_pairing, b, a, ref)
            comm = rec.op("commutator_s", fn.commutator_functional, a, b, spec)
            if rec.ok(phi_ab, phi_ba, comm):
                rec.output("commutator_s", phi_ab, phi_ba, comm)
                rec.check(f"round {k} commutator {case.family}", checks.check_commutator(
                    case.family, phi_ab, phi_ba, comm, spec.quad_tol))


WORKLOADS = {w.name: w for w in (ReportMixed, SweepD, Audit, Crosscheck)}
