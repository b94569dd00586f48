"""Dephasing exponents and signalling phases of branched worldline currents.

For a particle split into right/left branches, the branch-difference
current Delta J = J_R - J_L couples to the photon field and produces

* a dephasing exponent Gamma (suppressing interference by exp(-Gamma)),
  the symmetric two-point kernel contracted twice with Delta J;
* a self phase Phi from the particle's own retarded field, exactly zero
  because a BranchPair's left branch mirrors its right one, plus the
  phase from any background field;
* pairing phases between two particles, where one particle's branch
  difference probes the retarded field sourced by the other.

All four-dimensional integrals reduce to one- or two-dimensional
lab-time integrals over the split windows, because branch differences
vanish identically outside them.

Gamma depends only on a pair's split and charge and on the kernel, not on
where the pair rests, along which axis it splits or in which window.
Inside a ``with reusing_gamma():`` block (``qcl sweep`` wraps its grid in
one) each distinct Gamma is computed once and reused, a NumericFailure
included; outside such a block every call computes afresh.

Two deliberately different regularizations appear.  Gamma, quadratic in
a single particle's current, probes the light-cone coincidence limit and
uses the sigma-smeared Hadamard kernel.  Pairing
quantities between distinct particles are evaluated with the bare
(sharp-cone) Lienard-Wiechert potential: their integrands stay finite at
particle separations, and the sharp cone preserves the exact support
statement that a branch distinction outside the past light cone
contributes nothing, not merely something exponentially small.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .geometry import BranchPair, Scenario, Worldline, _mirrored, _mutually_spacelike, causal_margin
from .kernels import KernelSpec, _cone_edges, _lw_batch, hadamard_dt_r
from .quadrature import NumericFailure, adaptive_1d, adaptive_2d, panel_gauss_nodes

__all__ = [
    "DecoherenceReport",
    "gamma",
    "gamma_momentum",
    "phi_self",
    "phi_pairing",
    "commutator_functional",
    "build_report",
    "reusing_gamma",
]


# ---------------------------------------------------------------------------
# Dephasing exponent, position-space route.


def _gamma_integrand(pair: BranchPair, spec: KernelSpec):
    """Gamma's (t, u) integrand before the factor q^2/4 (see :func:`gamma`)."""
    p = pair.right

    def integrand(ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        d_t, d_u = p.displacement(ts), p.displacement(us)
        rr = p.displacement_rate(ts) * p.displacement_rate(us)
        lag = ts - us
        return 2.0 * ((rr - 1.0) * hadamard_dt_r(lag, np.abs(d_t - d_u), spec)
                      + (rr + 1.0) * hadamard_dt_r(lag, np.abs(d_t + d_u), spec))

    return integrand


# Gamma results of the innermost active reusing_gamma() block, or None.
_GAMMA_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qcl_gamma_memo", default=None,
)


@contextlib.contextmanager
def reusing_gamma():
    """Compute each distinct Gamma once inside the block, and forget them at its end.

    Results are keyed by the pair's label and charge, its right branch's
    amplitude, t0, ramp and hold, and the KernelSpec, every float by its
    exact bits.  The key leaves out the rest point, the axis and the
    window: Gamma's integrand sees only the displacement and its rate
    over the split window, so it is bitwise the same under all three.  A
    Gamma that raised NumericFailure raises it again for the same key.
    """
    token = _GAMMA_MEMO.set({})
    try:
        yield
    finally:
        _GAMMA_MEMO.reset(token)


def _gamma_with_error(pair: BranchPair, spec: KernelSpec) -> tuple[float, float]:
    memo = _GAMMA_MEMO.get()
    if memo is None:
        return _compute_gamma(pair, spec)
    p = pair.right
    floats = (pair.charge, p.amplitude, p.t0, p.ramp, p.hold, *astuple(spec))
    key = (pair.label, *(float(x).hex() for x in floats))
    if key not in memo:
        try:
            memo[key] = _compute_gamma(pair, spec)
        except NumericFailure as exc:
            memo[key] = exc
    found = memo[key]
    if isinstance(found, NumericFailure):
        raise found.with_traceback(None)
    return found


def _compute_gamma(pair: BranchPair, spec: KernelSpec) -> tuple[float, float]:
    a, b = pair.split_window
    knots = pair.right.knots()
    val, err = adaptive_2d(
        _gamma_integrand(pair, spec), (a, b), (a, b),
        tol=spec.quad_tol, knots_x=knots, knots_y=knots,
        name=f"gamma[{pair.label}]", symmetric=True,
    )
    q = pair.charge
    val *= 0.25 * q * q
    err *= 0.25 * q * q
    if val < -(err + 1e-15):
        raise NumericFailure(
            f"gamma[{pair.label}] negative beyond tolerance", val, err, err,
        )
    return val, err


def gamma(pair: BranchPair, spec: KernelSpec) -> float:
    """Dephasing exponent of one branch pair.

    Gamma = (q^2/4) sum_{P,P'} s_P s_P' int dt dt'
            (v_P(t).v_P'(t') - 1) K(t - t', |X_P(t) - X_P'(t')|)

    with K the smeared symmetric kernel and s_R = +1, s_L = -1.  The
    result is non-negative for any conserved branch-difference current;
    a value below minus the quadrature error raises NumericFailure.

    A BranchPair's left branch mirrors its right one, so RR = LL and
    RL = LR, and with d, rho the right branch's displacement and rate the
    integrand is 2 [(rho_t rho_u - 1) K(t - u, |d_t - d_u|)
    + (rho_t rho_u + 1) K(t - u, |d_t + d_u|)]: two scalar kernel calls
    per point, free of the axis and the rest point.
    """
    return _gamma_with_error(pair, spec)[0]


# ---------------------------------------------------------------------------
# Dephasing exponent, momentum-space route (independent cross-check).


def _gamma_momentum_pass(pair: BranchPair, spec: KernelSpec, bump: int) -> float:
    p = pair.right
    a, b = pair.split_window
    sigma = spec.sigma
    k_up = spec.k_up

    # Node counts scale with the largest phase k_up * t across the window
    # (time direction) and k_up * displacement (angle direction); ``bump``
    # raises every count so two passes give an independent error check.
    panels = int(k_up * (b - a) / 6.0) + 8 + bump
    tn, tw = panel_gauss_nodes(a, b, panels, 12)
    kn, kw = panel_gauss_nodes(0.0, k_up, panels, 12)
    mu_n = 48 + 3 * bump
    mun, muw = np.polynomial.legendre.leggauss(mu_n)

    d = p.displacement(tn)
    weight = 2.0 * tw * p.displacement_rate(tn)

    total = 0.0
    # 2.5e5 elements per k-chunk keep each (k, mu, t) temporary near 2 MB.
    chunk = max(1, int(2.5e5 / (mu_n * tn.size)))
    for i0 in range(0, kn.size, chunk):
        ks = kn[i0:i0 + chunk]
        kws = kw[i0:i0 + chunk]
        phase_t = ks[:, None] * tn[None, :]
        # J(k, mu) = sum_t weight e^{ikt} cos(k mu d), with Re and Im on the last axis.
        wave = weight[:, None] * np.stack([np.cos(phase_t), np.sin(phase_t)], axis=-1)
        j_par = np.cos((ks[:, None] * mun)[:, :, None] * d) @ wave
        mod2 = np.sum(j_par ** 2, axis=-1) @ (muw * (1.0 - mun ** 2))
        total += float(np.sum(kws * ks * np.exp(-(ks * sigma) ** 2) * mod2))
    q = pair.charge
    return q * q * total / (16.0 * math.pi ** 2)


def gamma_momentum(pair: BranchPair, spec: KernelSpec) -> float:
    """Dephasing exponent via the mode-space quadrature.

    Writes Gamma as (1/16 pi^2) int_0^kmax dk k e^{-k^2 sigma^2}
    int_-1^1 dmu (1 - mu^2) |J(k, mu)|^2 where J is the branch-difference
    current projected on the displacement axis.  The left branch mirrors
    the right one, d_L = -d_R, so with d, rho the right branch's
    displacement and rate J = 2 int dt rho(t) e^{ikt} cos(k mu d(t)): one
    real cosine array over (k, mu, t).  The integrand is
    manifestly non-negative, which makes this an independent positivity
    check on :func:`gamma`.  Runs a coarse and a refined pass and raises
    NumericFailure if they disagree beyond the requested tolerance.
    """
    coarse = _gamma_momentum_pass(pair, spec, bump=0)
    fine = _gamma_momentum_pass(pair, spec, bump=8)
    err = abs(fine - coarse)
    tol = max(spec.quad_tol * abs(fine), 1e-14)
    if err > 50.0 * tol:
        raise NumericFailure("mode-space gamma did not converge", fine, err, tol)
    return fine


# ---------------------------------------------------------------------------
# Self phase.


def _phi_self_with_error(
    pair: BranchPair, spec: KernelSpec, background=None
) -> tuple[float, float]:
    if background is None:
        return -0.0, 0.0  # the own-field phase, -(q^2/2) * (+0.0)
    return _probe_phase(pair, background, spec, f"phi_background[{pair.label}]")


def phi_self(pair: BranchPair, spec: KernelSpec, background=None) -> float:
    """Relative phase a branch pair acquires from its own field and a background.

    The own-field part contracts the branch difference with the smeared
    retarded potential of the particle's full two-branch current,

        -(q^2/2) sum_P s_P sum_P' int dt dt'
            (1 - v_P(t).v_P'(t')) G_ret(t - t', |X_P(t) - X_P'(t')|).

    A BranchPair's branches are mirror images, so the RR and LL terms are
    equal, as are RL and LR, and the sum is exactly zero: that part is
    returned as -0.0, the sign of -(q^2/2) * (+0.0), with no quadrature.
    The background part is q int dt of the branch difference of
    A^0 - v . A_vec along the two paths; for a pure-gauge background that
    integrand is a total time derivative and the phase is zero up to
    quadrature tolerance.
    """
    return _phi_self_with_error(pair, spec, background)[0]


# ---------------------------------------------------------------------------
# Pairing phases between two particles (bare retarded potentials).


def _probe_phase(probe: BranchPair, potential, spec: KernelSpec, name: str,
                 edges=()) -> tuple[float, float]:
    """Phase of the probe's branch difference in a four-potential, with its error.

    q_probe int dt sum_P s_P [A^0(t, X_P(t)) - v_P(t) . A_vec(t, X_P(t))]
    over the probe's split window, where ``potential`` maps events of
    shape (N, 4) to A^mu of shape (N, 4), acting on each event alone.
    There is one potential call per integrand evaluation, on both
    branches' events stacked, with the right branch's term summed first:
    the value is bitwise that of one call per branch.  The error estimate
    scales with |q_probe|, so it stays non-negative for either sign of
    charge.

    Panel edges sit at the probe's own knots and at ``edges``.  A
    worldline field gets its edges from :func:`_field_phase`; a
    background field has none.
    """
    a, b = probe.split_window
    branches = probe.branches()

    def integrand(ts: np.ndarray) -> np.ndarray:
        ev = np.concatenate([np.concatenate([ts[:, None], wp.position(ts)], axis=1)
                             for wp, _ in branches])
        A = potential(ev).reshape(2, ts.size, 4)
        total = np.zeros_like(ts)
        for (wp, sp), Ap in zip(branches, A):
            total += sp * (Ap[:, 0] - np.sum(wp.velocity(ts) * Ap[:, 1:], axis=-1))
        return total

    val, err = adaptive_1d(integrand, a, b, tol=spec.quad_tol,
                           knots=[*probe.right.knots(), *edges], name=name)
    q = probe.charge
    return q * val, abs(q) * err


def _field_phase(probe: BranchPair, terms, spec: KernelSpec, name: str) -> tuple[float, float]:
    """:func:`_probe_phase` in the bare field sum_i s_i A_i of source worldlines, with its error.

    ``terms`` is ((worldline, s_i, advanced), ...) with s_i = +-1.0: the
    Lienard-Wiechert potential of each worldline, retarded or advanced,
    added in order, so ``a - b`` and ``((a - b) - c) + d`` keep their
    rounding.  The panel edges come from :func:`_cone_edges`, one call per
    field direction present: the probe times whose light-cone crossing
    lands on a source knot, where the integrand kinks and a panel
    straddling the kink could make |I_16 - I_8| smaller than its true
    error.
    """

    def potential(ev: np.ndarray) -> np.ndarray:
        (w, sign, advanced), *rest = terms
        total = sign * _lw_batch(ev, w, advanced=advanced)
        for w, sign, advanced in rest:
            total = total + sign * _lw_batch(ev, w, advanced=advanced)
        return total

    edges = []
    for advanced in sorted({adv for _, _, adv in terms}):
        edges += _cone_edges(probe, tuple(w for w, _, adv in terms if adv == advanced), advanced)
    return _probe_phase(probe, potential, spec, name, edges)


def _branch_pairing_with_error(
    probe: BranchPair, source: Worldline, spec: KernelSpec
) -> tuple[float, float]:
    """Phase of the probe's branch difference in one source branch's bare retarded field."""
    return _field_phase(probe, ((source, 1.0, False),), spec, f"pairing[{probe.label}]")


def _pairings_with_error(
    probe: BranchPair, source: BranchPair, spec: KernelSpec
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The probe's pairings with the source's right and left branches, each with its error.

    In a mirror layout (:func:`geometry._mirrored`) the left-branch
    integral is 0.0 minus the right-branch one, bitwise, and where the
    causal margin is also positive both integrals are exactly +0.0: the
    source rests at its base at every crossing, bitwise equidistant from
    the two probe branches.  Any other layout integrates both branches.
    So does a mirror layout whose right-branch phase q * v is a zero: the
    sign of q * (0.0 - v) then depends on v, which q * v no longer shows.
    """
    q = probe.charge
    mirrored = _mirrored(probe, source)
    if mirrored and causal_margin(probe, source) > 0.0:
        return (q * 0.0, 0.0), (q * 0.0, 0.0)
    right, err = _branch_pairing_with_error(probe, source.right, spec)
    if mirrored and right:
        # q * (0.0 - v) is -(q * v) for any nonzero v.
        return (right, err), (-right, err)
    return (right, err), _branch_pairing_with_error(probe, source.left, spec)


def _phi_pairing_with_error(
    probe: BranchPair, source: BranchPair, spec: KernelSpec
) -> tuple[float, float]:
    if causal_margin(probe, source) > 0.0:
        return 0.0, 0.0
    terms = ((source.right, 1.0, False), (source.left, -1.0, False))
    return _field_phase(probe, terms, spec, f"phi_pairing[{probe.label},{source.label}]")


def phi_pairing(probe: BranchPair, source: BranchPair, spec: KernelSpec) -> float:
    """Pairing phase: probe branch difference against source branch difference.

    Equal to the pairing of the probe with source.right minus that with
    source.left, evaluated as a single integral of the retarded-field
    difference.  When every source split-window event is outside the past
    light cone of every probe split-window event (positive causal
    margin), returns exactly 0.0 without quadrature: the bare cone gives
    the difference field no support there.
    """
    return _phi_pairing_with_error(probe, source, spec)[0]


def _one_sided_commutator(
    probe: BranchPair, source: BranchPair, spec: KernelSpec
) -> tuple[float, float]:
    """The probe-window integral of the source's advanced-minus-retarded field, with its error."""
    right, left = source.right, source.left
    terms = ((right, 1.0, True), (left, -1.0, True), (right, -1.0, False), (left, 1.0, False))
    return _field_phase(probe, terms, spec, "commutator")


def _commutator_with_error(
    pair_A: BranchPair, pair_B: BranchPair, spec: KernelSpec
) -> tuple[float, float]:
    if _mutually_spacelike(pair_A, pair_B):
        return 0.0, 0.0
    forward, err_f = _one_sided_commutator(pair_A, pair_B, spec)
    reverse, err_r = _one_sided_commutator(pair_B, pair_A, spec)
    return 0.5 * (forward - reverse), 0.5 * (err_f + err_r)


def commutator_functional(pair_A: BranchPair, pair_B: BranchPair, spec: KernelSpec) -> float:
    """Antisymmetric part of the two-particle pairing: phi_BA - phi_AB.

    Each side is a single integral over one pair's split window against
    the advanced-minus-retarded field difference of the other pair;
    reciprocity of the sharp-cone Green function makes the advanced term
    equal the reverse pairing without ever integrating a double window.
    The two one-sided routes are mathematically opposite, so their
    half-difference keeps the value while making swap antisymmetry
    commutator(B, A) = -commutator(A, B) hold bit for bit; its error is
    the mean of theirs.  Returns exactly 0.0 when the split windows are
    mutually spacelike (both causal margins positive).
    """
    return _commutator_with_error(pair_A, pair_B, spec)[0]


# ---------------------------------------------------------------------------
# Full report.


@dataclass(frozen=True)
class DecoherenceReport:
    """Every functional of one two-particle scenario, with error accounting.

    phi_AB is the phase A's branch difference picks up from B's branch
    distinction (and vice versa for phi_BA); the per-branch pairings it
    is built from are kept because the reduced states need them
    individually.  quad_error is the summed error estimate of every
    quadrature that contributed.
    """

    gamma_A: float
    gamma_B: float
    phi_A: float
    phi_B: float
    phi_A_BR: float
    phi_A_BL: float
    phi_B_AR: float
    phi_B_AL: float
    phi_AB: float
    phi_BA: float
    sigma: float
    quad_error: float
    spacelike: bool

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(scenario: Scenario) -> DecoherenceReport:
    """Evaluate all functionals of a scenario.

    The directional phases are assembled from the per-branch pairings,
    phi_AB = phi_A_BR - phi_A_BL, so the report is internally consistent
    by construction.  Where the source's split window cannot reach the
    probe's, every crossing finds the source at rest with the closed-form
    time both branches share (the rest-point certificate), so the probe's
    difference integrand cancels node by node in any layout and phi_AB is
    exactly zero.

    The per-branch pairings take fewer integrals in a mirror layout: both
    pairs split along the same axis, bitwise, and both bases are exactly
    0.0 in every coordinate where that axis is nonzero (the layout ``qcl
    run`` and ``qcl sweep`` build).  There the left-branch pairing is 0.0
    minus the right-branch one, so each direction takes one integral, and
    a direction with a positive causal margin takes none: both of its
    pairings are exactly q * 0.0.  Every field is bitwise what the four
    integrals give.  Any other layout, tilted axes or a shared offset
    included, runs all four.
    """
    spec: KernelSpec = scenario.kernel
    ga, ega = _gamma_with_error(scenario.pair_A, spec)
    gb, egb = _gamma_with_error(scenario.pair_B, spec)
    pa, epa = _phi_self_with_error(scenario.pair_A, spec, scenario.background)
    pb, epb = _phi_self_with_error(scenario.pair_B, spec, scenario.background)
    (p_abr, e1), (p_abl, e2) = _pairings_with_error(scenario.pair_A, scenario.pair_B, spec)
    (p_bar, e3), (p_bal, e4) = _pairings_with_error(scenario.pair_B, scenario.pair_A, spec)
    return DecoherenceReport(
        gamma_A=ga,
        gamma_B=gb,
        phi_A=pa,
        phi_B=pb,
        phi_A_BR=p_abr,
        phi_A_BL=p_abl,
        phi_B_AR=p_bar,
        phi_B_AL=p_bal,
        phi_AB=p_abr - p_abl,
        phi_BA=p_bar - p_bal,
        sigma=spec.sigma,
        quad_error=ega + egb + epa + epb + e1 + e2 + e3 + e4,
        spacelike=scenario.spacelike,
    )
