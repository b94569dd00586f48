"""Finite-mode field model: an independently checkable route to Gamma and Phi.

A charged worldline branch couples linearly to each field mode, so the
joint evolution for a fixed pair of branch labels (one per particle) is
a product of driven harmonic oscillators.  Two routes to the same
physics live here:

* an exact route that integrates the Schroedinger equation in a
  truncated Fock basis, making no use of coherent-state algebra;
* a closed-form route through the displacement picture: the evolution
  for joint label PQ is a phase times a product of displacements
  D(beta_i), with

      beta_i  = -i int g_i(t) dt,
      theta   = - int int_{t > t'} Im( conj(g_i(t)) g_i(t') ) dt dt',

  giving overlap(PQ vs P'Q') = exp(-Gamma + i Phi) with
  Gamma = (1/2) sum_i |beta_i - beta'_i|^2 and
  Phi = sum_i Im( conj(beta'_i) beta_i ) + theta - theta'.

Because the coupling of a joint label is the sum of one coupling per
particle branch, Gamma between labels differing only in one particle's
branch is independent of the other particle's label; that is the
mode-space image of the dephasing exponents' particle locality.

A mode family built from an actual split worldline (``pair_mode_set``)
carries quadrature weights such that the closed-form Gamma is a
Gauss-Legendre discretization of the continuum dephasing integral; as
the mode grid refines it converges to :func:`qcl.functionals.gamma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import BranchPair
from .kernels import KernelSpec
from .quadrature import panel_gauss_nodes

__all__ = [
    "LeakageError",
    "ModeSet",
    "branch_overlap_exact",
    "discrete_gamma_phi",
    "joint_overlap_and_bound",
    "JointBound",
    "random_mode_set",
    "pair_mode_set",
]

JOINT_LABELS = ("RR", "RL", "LR", "LL")


class LeakageError(RuntimeError):
    """Truncated Fock evolution pushed population into the top level."""


@dataclass(frozen=True)
class ModeSet:
    """A finite family of field modes with per-particle branch couplings.

    ``couplings`` maps "AR", "AL", "BR", "BL" (a particle and its branch)
    to a function g(ts) returning complex amplitudes of shape
    (n_modes, len(ts)); absent keys couple to nothing.  The coupling of a
    joint branch label "PQ" is g_AP + g_BQ.  ``n_max`` is the Fock
    truncation used by the exact route.  A mode's frequency enters only
    through its couplings, so the set keeps just the number of modes.
    """

    n_modes: int
    window: tuple[float, float]
    n_max: int
    couplings: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be at least 1, got {self.n_modes}")
        bad = set(self.couplings) - {"AR", "AL", "BR", "BL"}
        if bad:
            raise ValueError(f"unknown coupling keys: {sorted(bad)}")

    def joint_coupling(self, label: str, ts: np.ndarray) -> np.ndarray:
        """Coupling g(t) of joint branch label 'PQ', shape (n_modes, len(ts))."""
        if label not in JOINT_LABELS:
            raise ValueError(f"label must be one of {JOINT_LABELS}")
        ts = np.asarray(ts, dtype=float)
        total = np.zeros((self.n_modes, ts.size), dtype=complex)
        for key in ("A" + label[0], "B" + label[1]):
            g = self.couplings.get(key)
            if g is not None:
                total += g(ts)
        return total


def branch_overlap_exact(modes: ModeSet, label: str, label_ref: str) -> complex:
    """Overlap of the field states driven by two joint labels, no mode algebra.

    Starting the field in vacuum, each mode evolves under
    H_i(t) = g_i(t) a_i^dag + conj(g_i(t)) a_i in a Fock basis truncated
    at ``modes.n_max``; the return value is the product over modes of
    <psi_i(label_ref) | psi_i(label)>.  Identical labels short-circuit to
    exactly 1 (the two evolutions are the same unitary).  Raises
    LeakageError when any top Fock level accumulates more than 1e-8
    population, which would invalidate the truncation.
    """
    if label == label_ref:
        return 1.0 + 0.0j
    psi_a = _evolve_fock(modes, label)
    psi_b = _evolve_fock(modes, label_ref)
    return complex(_product_overlap(psi_b, psi_a))


def _product_overlap(bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra|ket> of two product states, one Fock vector per mode, multiplied mode by mode."""
    out = 1.0 + 0.0j
    for b, k in zip(bra, ket):
        out *= np.vdot(b, k)
    return out


def _evolve_fock(modes: ModeSet, label: str) -> np.ndarray:
    dim = modes.n_max + 1
    n = modes.n_modes
    sq = np.sqrt(np.arange(1, dim))
    t0, t1 = modes.window

    def rhs(t, y):
        psi = y.reshape(n, dim)
        g = modes.joint_coupling(label, np.array([t]))[:, 0]
        out = np.zeros_like(psi)
        # a^dag psi: level k receives sqrt(k) * psi[k-1].
        out[:, 1:] += g[:, None] * sq[None, :] * psi[:, :-1]
        # a psi: level k receives sqrt(k+1) * psi[k+1].
        out[:, :-1] += np.conj(g)[:, None] * sq[None, :] * psi[:, 1:]
        return (-1j * out).ravel()

    y0 = np.zeros(n * dim, dtype=complex)
    y0[::dim] = 1.0
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-10, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"Fock evolution failed: {sol.message}")
    psi = sol.y[:, -1].reshape(n, dim)
    top = float(np.max(np.abs(psi[:, -1]) ** 2))
    if top > 1e-8:
        raise LeakageError(
            f"top Fock level population {top:.3e} exceeds 1e-8; raise n_max"
        )
    return psi


def _beta_theta(modes: ModeSet, label: str) -> tuple[np.ndarray, float]:
    """Displacements beta_i and the time-ordering phase theta for one label.

    Integrates dG_i/dt = g_i(t) and dtheta/dt = -Im(conj(g_i) G_i) jointly
    with a high-order adaptive step, so both the first-order (beta = -i G)
    and second-order (theta) Magnus data come from one pass.
    """
    n = modes.n_modes
    t0, t1 = modes.window

    def rhs(t, y):
        G = y[:n]
        g = modes.joint_coupling(label, np.array([t]))[:, 0]
        dtheta = -np.sum(np.imag(np.conj(g) * G))
        return np.concatenate([g, [dtheta + 0.0j]])

    y0 = np.zeros(n + 1, dtype=complex)
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"displacement integration failed: {sol.message}")
    G = sol.y[:n, -1]
    theta = float(sol.y[n, -1].real)
    return -1j * G, theta


def discrete_gamma_phi(modes: ModeSet, label: str, label_ref: str) -> tuple[float, float]:
    """Closed-form dephasing exponent and phase between two joint labels.

    Returns (Gamma, Phi) such that the exact overlap
    :func:`branch_overlap_exact` equals exp(-Gamma + i Phi) up to Fock
    truncation and integration error.

    Swapping the two labels conjugates the overlap, and the arithmetic
    honours that exactly: Gamma is bitwise symmetric and Phi changes
    sign bitwise.  Im(conj(beta_ref) beta) is spelled as a difference of
    real products, because a complex multiply is not exactly
    antisymmetric in its arguments, and the time-ordering phases are
    differenced before they are added, so both orders round alike.
    """
    beta, theta = _beta_theta(modes, label)
    beta_ref, theta_ref = _beta_theta(modes, label_ref)
    gamma = 0.5 * float(np.sum(np.abs(beta - beta_ref) ** 2))
    cross = beta_ref.real * beta.imag - beta_ref.imag * beta.real
    phi = float(np.sum(cross)) + (theta - theta_ref)
    return gamma, phi


@dataclass(frozen=True)
class JointBound:
    """Joint-state overlap versus conditional distinguishability.

    For the post-recombination joint state of particle B and the field,
    written with A's branch as the outer label, the trace distance of
    B-plus-field conditional states is exactly sqrt(1 - alpha^2) with
    alpha the joint overlap magnitude; tracing the field out can only
    decrease distinguishability, so residual = sqrt(1 - alpha^2) - D
    must be non-negative.
    """

    alpha: float
    distinguishability: float
    residual: float


def joint_overlap_and_bound(modes: ModeSet) -> JointBound:
    """Evaluate the joint overlap bound on one mode set, all via the exact route.

    Each joint label is evolved once in the truncated Fock basis; every
    overlap is then an inner product of stored states, so the bound is
    checked on a single consistent set of wavefunctions.
    """
    psi = {label: _evolve_fock(modes, label) for label in JOINT_LABELS}

    def inner(ket: str, bra: str) -> complex:
        return _product_overlap(psi[bra], psi[ket])

    # <Omega_L | Omega_R> = (1/2) sum_Q <chi_LQ | chi_RQ>.
    alpha = abs(0.5 * (inner("RR", "LR") + inner("RL", "LL")))

    def rho_b(p: str) -> np.ndarray:
        m = np.empty((2, 2), dtype=complex)
        for iq, q in enumerate(("R", "L")):
            for iq2, q2 in enumerate(("R", "L")):
                m[iq, iq2] = 0.5 * inner(p + q, p + q2)
        return m

    diff = rho_b("R") - rho_b("L")
    d_cond = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    residual = math.sqrt(max(1.0 - alpha * alpha, 0.0)) - d_cond
    return JointBound(alpha=alpha, distinguishability=d_cond, residual=residual)


def random_mode_set(rng: np.random.Generator) -> ModeSet:
    """A small random family of 3 modes for exercising both overlap routes.

    Couplings are low-order complex trigonometric polynomials of scale 0.22
    under a sin^2 envelope that switches on and off smoothly at the window
    edges.  A joint label sums two such couplings, and slow modes integrate
    nearly coherently over the window, so per-mode displacements reach
    |beta|^2 of about 4 in the tail; n_max = 30 keeps the top Fock level
    orders of magnitude below the 1e-8 leakage gate there.
    """
    omegas = rng.uniform(0.5, 3.0, size=3)
    t1 = float(rng.uniform(2.0, 4.0))
    coeffs = {
        key: (rng.normal(size=(omegas.size, 3)) + 1j * rng.normal(size=(omegas.size, 3))) * 0.22
        for key in ("AR", "AL", "BR", "BL")
    }

    def make_g(c: np.ndarray, omegas=omegas, t1=t1):
        def g(ts: np.ndarray) -> np.ndarray:
            ts = np.asarray(ts, dtype=float)
            env = np.sin(math.pi * np.clip(ts / t1, 0.0, 1.0)) ** 2
            phase = np.exp(1j * omegas[:, None] * ts[None, :])
            poly = sum(
                c[:, j][:, None] * np.cos(j * math.pi * ts / t1)[None, :]
                for j in range(c.shape[1])
            )
            return env[None, :] * phase * poly

        return g

    return ModeSet(
        n_modes=omegas.size,
        window=(0.0, t1),
        n_max=30,
        couplings={key: make_g(c) for key, c in coeffs.items()},
    )


def pair_mode_set(pair: BranchPair, spec: KernelSpec, n_k: int = 128, n_mu: int = 8) -> ModeSet:
    """Project a split worldline pair onto a (k, mu) grid of photon modes.

    Mode (k_j, mu_m) couples to branch P of the pair through

        g(t) = c * q * a'_P(t) * exp(i (k t - k mu a_P(t))),
        c    = sqrt( (1 - mu^2) k e^{-k^2 sigma^2} W_k W_mu / (8 pi^2) ),

    where a_P is the branch displacement along the split axis and W are
    the Gauss-Legendre weights of the grid: n_k / 8 panels of 8 nodes in
    k up to ``spec.k_up``, so n_k must be a positive multiple of 8.  With
    these weights the closed-form dephasing exponent between labels
    differing in this particle's branch is precisely the quadrature
    approximation of the continuum dephasing integral.  The exact route
    truncates each mode at n_max = 6.
    """
    if n_k < 8 or n_k % 8:
        raise ValueError(f"n_k must be a positive multiple of 8, got {n_k}")
    sigma = spec.sigma
    kn, kw = panel_gauss_nodes(0.0, spec.k_up, n_k // 8, 8)
    mun, muw = np.polynomial.legendre.leggauss(n_mu)

    kk = np.repeat(kn, n_mu)
    ww_k = np.repeat(kw, n_mu)
    mm = np.tile(mun, n_k)
    ww_m = np.tile(muw, n_k)
    c = np.sqrt((1.0 - mm * mm) * kk * np.exp(-((kk * sigma) ** 2)) * ww_k * ww_m
                / (8.0 * math.pi ** 2))
    q = pair.charge

    def make_g(branch):
        def g(ts: np.ndarray) -> np.ndarray:
            ts = np.asarray(ts, dtype=float)
            a = branch.displacement(ts)
            da = branch.displacement_rate(ts)
            phase = np.exp(1j * (kk[:, None] * ts[None, :] - (kk * mm)[:, None] * a[None, :]))
            return (c * q)[:, None] * da[None, :] * phase

        return g

    a0, b0 = pair.split_window
    return ModeSet(
        n_modes=kk.size,
        window=(a0, b0),
        n_max=6,
        couplings={"AR": make_g(pair.right), "AL": make_g(pair.left)},
    )
