"""The public surface: every exported and traced name resolves, and removed keywords stay removed."""

import importlib
import os
import pkgutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import qcl

MODULES = ["qcl", *(f"qcl.{m.name}" for m in pkgutil.iter_modules(qcl.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_import_leaves_scipy_integrate_unloaded():
    # Only the two DOP853 routes in qcl.modes need scipy.integrate, so they
    # import it.  Nothing needs scipy.optimize: the pairings' panel edges
    # come from the light-cone Newton solve, not from a root finder.
    src = os.path.dirname(os.path.dirname(qcl.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import qcl, qcl.cli; "
            "print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


def test_audit_leaves_scipy_special_unloaded(tmp_path):
    # Only the kernels need scipy.special, and they import it at their
    # first call; qcl audit calls none, so it never pays for the import.
    src = os.path.dirname(os.path.dirname(qcl.__file__))
    args = ["audit", "--samples", "50", "--grid-n", "8", "--out-dir", str(tmp_path)]
    code = (f"import sys; sys.path.insert(0, {src!r}); import qcl, qcl.cli; "
            "print('scipy.special' in sys.modules); "
            f"qcl.cli.main({args!r}, standalone_mode=False); "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, summary, after = out.stdout.splitlines()
    assert summary.startswith("audit: 50 triples, 0 violations")
    assert (before, after) == ("False", "False")


# Every (module, attribute) the benchmark's tracer wraps by name.  The tracer
# skips a name it cannot find, so a rename would silently zero its layer.
TRACED = {
    "qcl.functionals": ["adaptive_1d", "adaptive_2d", "hadamard_dt_r", "_lw_batch",
                        "causal_margin", "build_report", "gamma", "phi_pairing",
                        "gamma_momentum", "commutator_functional"],
    "qcl.kernels": ["_light_cone_times"],
    "qcl.geometry": ["causal_margin", "Worldline.position"],
    "qcl.quantum": ["rho_A", "visibility", "distinguishability"],
    "qcl.inequalities": ["audit_report"],
    "qcl.cli": ["build_report", "rho_A", "visibility", "distinguishability",
                "rho_B_conditional", "audit_report", "implication_audit", "f_grid",
                "_load_json", "_parse_vary", "_apply_vary", "parse_config",
                "_write", "_write_audit_csv", "_write_grid_csv"],
    "qcl.modes": ["_evolve_fock", "_beta_theta", "ModeSet.joint_coupling"],
}


def test_traced_names_resolve():
    missing = []
    for module, names in TRACED.items():
        mod = importlib.import_module(module)
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []


# Keywords that only ever took their default are now constants.
REMOVED_KEYWORDS = {
    "random_mode_set-n_modes": lambda: qcl.random_mode_set(np.random.default_rng(0), n_modes=3),
    "random_mode_set-n_max": lambda: qcl.random_mode_set(np.random.default_rng(0), n_max=30),
    "random_mode_set-amplitude": lambda: qcl.random_mode_set(np.random.default_rng(0),
                                                              amplitude=0.22),
    "pair_mode_set-n_max": lambda: qcl.pair_mode_set(
        qcl.make_branch_pair("A", 0.2, 0.1, 0.25, 0.2), qcl.KernelSpec(sigma=0.07), n_max=6),
    "branch_overlap_exact-rtol": lambda: qcl.branch_overlap_exact(
        qcl.random_mode_set(np.random.default_rng(0)), "RR", "RR", rtol=1e-10),
    "joint_overlap_and_bound-rtol": lambda: qcl.joint_overlap_and_bound(
        qcl.random_mode_set(np.random.default_rng(0)), rtol=1e-10),
    "audit_report-tol": lambda: qcl.audit_report(
        SimpleNamespace(gamma_A=0.5, gamma_B=0.5, phi_BA=0.3, quad_error=0.0), 0.5, 0.5, tol=1e-9),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS.keys())
def test_removed_keyword_raises_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()
