"""qcl: worldline-superposition electrodynamics lab.

Tools for a two-particle thought experiment in which each charged
particle traverses a superposition of worldline branches while coupled
to the photon field.  The package computes the dephasing exponents and
phases the field imprints on the branches and assembles the reduced
density matrices built from them.  On top of those it audits the
inequalities that tie the numbers together: no signalling outside the
light cone, the wave-particle trade-off, and the uncertainty bound on
the phase operators.
"""

from .geometry import (
    BranchPair,
    Scenario,
    Worldline,
    causal_margin,
    make_branch_pair,
)
from .kernels import (
    KernelSpec,
    SingularityError,
    coulomb_background,
    hadamard_dt_r,
)
from .quadrature import NumericFailure, adaptive_1d, adaptive_2d
from .functionals import (
    DecoherenceReport,
    build_report,
    commutator_functional,
    gamma,
    gamma_momentum,
    phi_pairing,
    phi_self,
)
from .quantum import (
    DensityMatrix2,
    distinguishability,
    rho_A,
    rho_B_conditional,
    trace_distance,
    visibility,
)
from .inequalities import (
    AuditResult,
    audit_report,
    complementarity_residual,
    f_grid,
    f_xy,
    implication_audit,
    robertson_residual,
)
from .modes import (
    LeakageError,
    ModeSet,
    branch_overlap_exact,
    discrete_gamma_phi,
    joint_overlap_and_bound,
    pair_mode_set,
    random_mode_set,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPair",
    "Scenario",
    "Worldline",
    "causal_margin",
    "make_branch_pair",
    "KernelSpec",
    "SingularityError",
    "coulomb_background",
    "hadamard_dt_r",
    "NumericFailure",
    "adaptive_1d",
    "adaptive_2d",
    "DecoherenceReport",
    "build_report",
    "commutator_functional",
    "gamma",
    "gamma_momentum",
    "phi_pairing",
    "phi_self",
    "DensityMatrix2",
    "distinguishability",
    "rho_A",
    "rho_B_conditional",
    "trace_distance",
    "visibility",
    "AuditResult",
    "audit_report",
    "complementarity_residual",
    "f_grid",
    "f_xy",
    "implication_audit",
    "robertson_residual",
    "LeakageError",
    "ModeSet",
    "branch_overlap_exact",
    "discrete_gamma_phi",
    "joint_overlap_and_bound",
    "pair_mode_set",
    "random_mode_set",
    "__version__",
]
