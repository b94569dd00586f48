"""Every exported and every traced name resolves, so a deleted definition cannot go unnoticed."""

import importlib
import pkgutil

import pytest

import qcl

MODULES = ["qcl", *(f"qcl.{m.name}" for m in pkgutil.iter_modules(qcl.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


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
