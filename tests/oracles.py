"""Independent reference computations used by the tests.

Everything here deliberately avoids the code paths it checks: kernels
are integrated in their momentum representation with scipy's generic
quadrature, gradients come from central differences, background
phase terms from direct 1D quadrature of the potential along the
branches, Gamma's integrand from all four branch combinations on
3-vector positions and velocities, with no use of the mirror symmetry,
the momentum route's pass from both branches' complex exponentials,
also without it, and the causal margin from a scan of all four on a
time grid.  The probe phase is kept as the loop with one potential call
per branch that the stacked call replaced.  The smeared retarded
kernel's closed form lives here too, because only the own-field
reference uses it; it is tested against its momentum integral.  The
implication function's analytic gradient and the pure-gauge background
live here as well, because only tests use them.  The audit's two CSV
writers are kept in their one-value-at-a-time form, as the byte
reference for the streamed writers in ``qcl.cli``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from qcl.kernels import hadamard_dt_r
from qcl.quadrature import adaptive_1d, panel_gauss_nodes


def hadamard_momentum(dt: float, r: float, sigma: float) -> float:
    """Frequency-damped symmetric kernel via its radial momentum integral."""
    k_up = 40.0 / sigma  # the damping factor underflows well before this
    if r < 1e-12:
        val, _ = quad(
            lambda k: k * math.exp(-((sigma * k) ** 2)) * math.cos(k * dt),
            0.0, k_up, limit=2000, epsabs=1e-13, epsrel=1e-12,
        )
        return val / (2.0 * math.pi ** 2)
    val, _ = quad(
        lambda k: math.exp(-((sigma * k) ** 2)) * math.sin(k * r) * math.cos(k * dt),
        0.0, k_up, limit=2000, epsabs=1e-13, epsrel=1e-12,
    )
    return val / (2.0 * math.pi ** 2 * r)


def retarded_momentum(dt: float, r: float, sigma: float) -> float:
    """Frequency-damped retarded kernel: odd momentum integral gated by dt > 0."""
    if dt <= 0.0:
        return 0.0
    k_up = 40.0 / sigma
    val, _ = quad(
        lambda k: math.exp(-((sigma * k) ** 2)) * math.sin(k * r) * math.sin(k * dt),
        0.0, k_up, limit=2000, epsabs=1e-13, epsrel=1e-12,
    )
    return val / (2.0 * math.pi ** 2 * r)


def retarded_kernel(dt, r, spec):
    """Smeared retarded scalar: support on dt > 0, peaked where dt = r.

    Built from the same damped modes as ``hadamard_dt_r``, with the sharp
    time-ordering step kept:

        theta(dt) * (sqrt(pi) / (8 pi^2 sigma r)) *
            [exp(-(dt - r)^2 / 4 sigma^2) - exp(-(dt + r)^2 / 4 sigma^2)]

    As sigma -> 0 this converges (as a distribution in dt - r) to the
    bare delta(dt - r) / (4 pi r); on the spatial diagonal r -> 0 it is
    finite, sqrt(pi) dt exp(-dt^2 / 4 sigma^2) / (8 pi^2 sigma^3).
    """
    s = spec.sigma
    dt = np.asarray(dt, dtype=float)
    r = np.asarray(r, dtype=float)
    dt, r = np.broadcast_arrays(dt, r)
    small = r < 1e-7 * s
    r_safe = np.where(small, 1.0, r)
    amp = math.sqrt(math.pi) / (8.0 * math.pi ** 2 * s)
    diff = np.exp(-((dt - r) ** 2) / (4.0 * s * s)) - np.exp(-((dt + r) ** 2) / (4.0 * s * s))
    direct = amp * diff / r_safe
    limit = amp * (dt / (s * s)) * np.exp(-(dt * dt) / (4.0 * s * s))
    out = np.where(small, limit, direct) * (dt > 0.0)
    return out if out.ndim else float(out)


def gamma_four_term_integrand(pair, spec):
    """Gamma's (t, u) integrand before q^2/4, summed over all four branch pairs.

    sum_{P,P'} s_P s_P' (v_P(t).v_P'(u) - 1) K(t - u, |X_P(t) - X_P'(u)|),
    with separations taken from the branch offsets.
    """

    def integrand(ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        total = np.zeros_like(ts)
        for wp, sp in pair.branches():
            xp, vp = wp.offset(ts), wp.velocity(ts)
            for wq, sq in pair.branches():
                xq, vq = wq.offset(us), wq.velocity(us)
                r = np.linalg.norm(xp - xq, axis=-1)
                vv = np.sum(vp * vq, axis=-1)
                total += sp * sq * (vv - 1.0) * hadamard_dt_r(ts - us, r, spec)
        return total

    return integrand


def gamma_momentum_pass_two_branch(pair, spec, bump: int) -> float:
    """One pass of ``functionals._gamma_momentum_pass`` from both branches.

    The same nodes and chunks, but J(k, mu) is the weighted sum of
    rho_R e^{i(k t - k mu d_R)} - rho_L e^{i(k t - k mu d_L)} over the time
    nodes, with the left branch evaluated in its own right: no use of
    d_L = -d_R, so the pass must agree with the cosine form to rounding.
    """
    pr, pl = pair.right, pair.left
    a, b = pair.split_window
    k_up = spec.k_up
    t_panels = int(k_up * (b - a) / 6.0) + 8 + bump
    tn, tw = panel_gauss_nodes(a, b, t_panels, 12)
    k_panels = int(k_up * (b - a) / 6.0) + 8 + bump
    kn, kw = panel_gauss_nodes(0.0, k_up, k_panels, 12)
    mu_n = 48 + 3 * bump
    mun, muw = np.polynomial.legendre.leggauss(mu_n)

    dr, rr = pr.displacement(tn), pr.displacement_rate(tn)
    dl, rl = pl.displacement(tn), pl.displacement_rate(tn)

    total = 0.0
    chunk = max(1, int(2.5e5 / (mu_n * tn.size)))
    for i0 in range(0, kn.size, chunk):
        ks = kn[i0:i0 + chunk]
        kws = kw[i0:i0 + chunk]
        phase_t = ks[:, None, None] * tn[None, None, :]
        kmu = ks[:, None] * mun[None, :]
        amp_r = rr[None, None, :] * np.exp(1j * (phase_t - kmu[:, :, None] * dr[None, None, :]))
        amp_l = rl[None, None, :] * np.exp(1j * (phase_t - kmu[:, :, None] * dl[None, None, :]))
        j_par = np.tensordot(amp_r - amp_l, tw, axes=(2, 0))
        mod2 = (j_par.real ** 2 + j_par.imag ** 2) @ (muw * (1.0 - mun ** 2))
        total += float(np.sum(kws * ks * np.exp(-(ks * spec.sigma) ** 2) * mod2))
    q = pair.charge
    return q * q * total / (16.0 * math.pi ** 2)


def own_field_terms(pair, spec):
    """The own-field self-phase integrand of each branch combination, by name.

    For P, P' in {R, L} the (t, lag) term is
    (1 - v_P(t).v_P'(u)) G_ret(lag, |X_P(t) - X_P'(u)|) with u = t - lag;
    phi_self's own-field part is -(q^2/2) int of (RR - LL) + (RL - LR).
    """

    def terms(ts: np.ndarray, lags: np.ndarray) -> dict[str, np.ndarray]:
        us = ts - lags
        out = {}
        for p, wp in (("R", pair.right), ("L", pair.left)):
            xp, vp = wp.offset(ts), wp.velocity(ts)
            for q, wq in (("R", pair.right), ("L", pair.left)):
                xq, vq = wq.offset(us), wq.velocity(us)
                r = np.linalg.norm(xp - xq, axis=-1)
                vv = np.sum(vp * vq, axis=-1)
                out[p + q] = (1.0 - vv) * retarded_kernel(lags, r, spec)
        return out

    return terms


def central_gradient(f, x: float, y: float, h: float = 1e-6):
    """Two-sided finite-difference gradient of a scalar function of two variables."""
    dfdx = (f(x + h, y) - f(x - h, y)) / (2.0 * h)
    dfdy = (f(x, y + h) - f(x, y - h)) / (2.0 * h)
    return dfdx, dfdy


def background_phase_term(pair, field, rtol: float = 1e-10) -> float:
    """Direct quadrature of q * sum_P s_P (A^0 - v_P . A) over the split window.

    ``field`` maps an (N, 4) array of events to (N, 4) potentials, the
    same convention as the package's background callables.
    """
    a, b = pair.split_window

    def integrand(t: float) -> float:
        total = 0.0
        for w, s in pair.branches():
            ts = np.array([t])
            x = w.position(ts)[0]
            v = w.velocity(ts)[0]
            A = field(np.array([[t, *x]]))[0]
            total += s * (A[0] - float(v @ A[1:]))
        return pair.charge * total

    val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=rtol, limit=200)
    return val


def light_cone_bisection(events, w, *, advanced: bool) -> np.ndarray:
    """Light-cone crossing times of events (N, 4) on worldline w by plain bisection.

    Solves t - tau = |x - X(tau)| (retarded) or tau - t = |x - X(tau)|
    (advanced) with 80 halvings of a bracket built from a 256-point
    bounding ball of the path: no closed form, no derivative, only the
    sign of the crossing function.
    """
    events = np.asarray(events, dtype=float)
    t = events[:, 0]
    x = events[:, 1:]
    t0, t1 = w.t0, w.t_end
    # The path rests at its base outside [t0, t1] and stays within h/2 of
    # its nearest sample (speed < 1), so the sampled ball padded by half
    # the spacing encloses it at all times.
    pts = w.position(np.linspace(t0, t1, 256))
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    radius = float(np.linalg.norm(pts - center, axis=-1).max()) + 0.5 * (t1 - t0) / 255.0 + 1e-9
    d_max = np.linalg.norm(x - center, axis=-1) + radius
    if advanced:
        lo, hi = t.copy(), t + d_max + 1.0
    else:
        lo, hi = t - d_max - 1.0, t.copy()
    sgn = 1.0 if advanced else -1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        r = np.linalg.norm(x - w.position(mid), axis=-1)
        after = (mid - t) - sgn * r >= 0.0  # mid at or past the crossing
        hi = np.where(after, mid, hi)
        lo = np.where(after, lo, mid)
    return 0.5 * (lo + hi)


def causal_margin_scan(probe, source, n: int) -> float:
    """Least |x_probe - x_source| - (t_probe - t_source) on an n x n grid of the split windows.

    Scans all four branch combinations; the grid includes both windows' ends.
    """
    tp = np.linspace(*probe.split_window, n)
    ts = np.linspace(*source.split_window, n)
    margin = math.inf
    for wp, _ in probe.branches():
        xp = wp.position(tp)
        for ws, _ in source.branches():
            xs = ws.position(ts)
            dist = np.linalg.norm(xp[:, None, :] - xs[None, :, :], axis=-1)
            margin = min(margin, float((dist - (tp[:, None] - ts[None, :])).min()))
    return margin


def causal_margin_grid_bound(probe, source, n: int = 192) -> float:
    """Lower bound on the causal margin: a grid scan less a Lipschitz term.

    The scanned function changes by at most 2 per unit time in either
    argument (speeds stay below 1), so the least grid value less twice the
    larger grid step bounds the least value over the windows from below.
    """
    (pa, pb), (sa, sb) = probe.split_window, source.split_window
    h = max((pb - pa) / (n - 1), (sb - sa) / (n - 1))
    return causal_margin_scan(probe, source, n) - 2.0 * h


def probe_phase_per_branch(probe, potential, spec) -> tuple[float, float]:
    """``functionals._probe_phase`` with one potential call per probe branch, right first.

    The same adaptive_1d tolerance and knots, so the stacked call must
    match it bitwise, value and error.
    """
    a, b = probe.split_window

    def integrand(ts: np.ndarray) -> np.ndarray:
        total = np.zeros_like(ts)
        for wp, sp in probe.branches():
            A = potential(np.concatenate([ts[:, None], wp.position(ts)], axis=1))
            total += sp * (A[:, 0] - np.sum(wp.velocity(ts) * A[:, 1:], axis=-1))
        return total

    val, err = adaptive_1d(integrand, a, b, tol=spec.quad_tol, knots=probe.right.knots())
    q = probe.charge
    return q * val, abs(q) * err


def f_gradient(X, Y):
    """Partial derivatives (df/dX, df/dY) of ``inequalities.f_xy`` in the interior (0, 1) x (0, 1).

    With s = sqrt(ln X ln Y):

        df/dX = -1 - Y ln Y sin(s) cos(s) / (X s)
        df/dY = -sin(s) [sin(s) + (ln X / s) cos(s)]

    The boundary X = 1 or Y = 1 (where s = 0 and the direction of
    approach matters) is rejected.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if np.any((X <= 0.0) | (X >= 1.0)) or np.any((Y <= 0.0) | (Y >= 1.0)):
        raise ValueError("gradient is defined on the open square (0, 1) x (0, 1)")
    X, Y = np.broadcast_arrays(X, Y)
    lx = np.log(X)
    ly = np.log(Y)
    s = np.sqrt(np.maximum(lx * ly, 1e-300))
    sin_s = np.sin(s)
    cos_s = np.cos(s)
    dfdx = -1.0 - Y * ly * sin_s * cos_s / (X * s)
    dfdy = -sin_s * (sin_s + (lx / s) * cos_s)
    if dfdx.ndim:
        return dfdx, dfdy
    return float(dfdx), float(dfdy)


def pure_gauge_background(chi_t, chi_grad):
    """Background A^mu = (d chi / dt, -grad chi) for a scalar function chi.

    Such a field is a gauge transform of zero: any phase built by
    contracting it with a branch-difference current integrates to the
    difference of chi along two paths with identical endpoints, hence to
    zero.  ``chi_t`` and ``chi_grad`` take events of shape (..., 4) and
    return the time derivative (...,) and spatial gradient (..., 3).
    """

    def field(events) -> np.ndarray:
        ev = np.asarray(events, dtype=float)
        out = np.empty(ev.shape)
        out[..., 0] = chi_t(ev)
        out[..., 1:] = -np.asarray(chi_grad(ev))
        return out

    return field


def _write_audit_csv(path: Path, rows: np.ndarray) -> None:
    header = "gamma_A,gamma_B,phi_BA,robertson_residual,bound_residual,pass"
    cols = [rows["gamma_A"], rows["gamma_B"], rows["phi_BA"],
            rows["robertson_residual"], rows["bound_residual"]]
    body = np.column_stack(cols)
    lines = [header]
    ok = rows["ok"]
    for i in range(body.shape[0]):
        nums = ",".join("%.17g" % v for v in body[i])
        lines.append(f"{nums},{'true' if ok[i] else 'false'}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_grid_csv(path: Path, xs: np.ndarray, ys: np.ndarray, F: np.ndarray) -> None:
    # The default grid is a million rows; format each axis once and
    # stream row blocks instead of formatting three floats per line.
    xs_s = ["%.17g" % v for v in xs]
    ys_s = ["%.17g" % v for v in ys]
    blocks = ["X,Y,f"]
    for i, xi in enumerate(xs_s):
        row = F[i]
        blocks.append(
            "\n".join(f"{xi},{ys_s[j]},{'%.17g' % row[j]}" for j in range(len(ys_s)))
        )
    path.write_text("\n".join(blocks) + "\n", encoding="utf-8", newline="\n")
