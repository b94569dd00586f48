"""Photon two-point kernels, retarded potentials, and background fields.

All correlators here are built from plane-wave modes with the Gaussian
frequency weight exp(-k^2 sigma^2), which regulates the light-cone
singularities at a length scale sigma while leaving long-distance
physics untouched.  Closed forms follow from the one-dimensional radial
integral

    int_0^inf dk exp(-sigma^2 k^2) sin(a k) = F(a / (2 sigma)) / sigma,

where F is Dawson's integral (scipy.special.dawsn).  scipy.special loads
at the first kernel call, not on import: ``qcl audit`` never needs it.

Sign and index conventions.  With signature (+, -, -, -), the symmetric
(Hadamard) two-point tensor of the gauge field in Feynman gauge is

    <{A_mu(x), A_nu(y)}> = - eta_mu_nu * hadamard_dt_r(dt, r),

with dt = x^0 - y^0, r the spatial distance between x and y, and
``hadamard_dt_r`` the positive scalar returned here.  Contracted
into two currents this gives the pairing weight

    J1 . J2 -> (v1 . v2 - 1) * hadamard_dt_r

which makes branch-difference double integrals non-negative for
conserved currents (the timelike polarization cancels against the
longitudinal one, leaving a manifestly positive transverse sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BranchPair, Worldline

__all__ = [
    "KernelSpec",
    "SingularityError",
    "hadamard_dt_r",
    "smeared_coulomb",
    "coulomb_background",
]

_TWO_PI_SQ = 2.0 * math.pi ** 2


class SingularityError(ArithmeticError):
    """An evaluation point sits on (or numerically on) a source worldline."""


@dataclass(frozen=True)
class KernelSpec:
    """Regularization and quadrature parameters shared across the functionals.

    sigma is the Gaussian frequency-damping scale (the smearing width of
    the light cone) and quad_tol the relative tolerance handed to the
    adaptive quadratures.  Mode-space routines cut the momentum integral
    at ``k_up`` = 4.5/sigma, where the weight e^{-k^2 sigma^2} is e^{-20.25}.
    """

    sigma: float
    quad_tol: float = 1e-6

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.quad_tol > 0.0:
            raise ValueError("quad_tol must be positive")

    @property
    def k_up(self) -> float:
        """Momentum cutoff 4.5/sigma of the mode-space routines."""
        return 4.5 / self.sigma


def hadamard_dt_r(dt, r, spec: KernelSpec):
    """Symmetric two-point scalar at time lag dt and spatial distance r.

    Closed form of (1 / 2 pi^2) int_0^inf dk k exp(-k^2 sigma^2)
    cos(k dt) sin(k r) / (k r):

        (1 / (4 pi^2 sigma r)) * [F((r + dt) / 2 sigma) + F((r - dt) / 2 sigma)]

    Its terms cancel as r -> 0 (a loss of about eps * sigma / r), so below
    r = 0.01 sigma it is the series in h = r / 2 sigma about u = dt / 2 sigma

        [F' + h^2 F''' / 6 + h^4 F^(5) / 120 + h^6 F^(7) / 5040](u) / (4 pi^2 sigma^2)

    with F' = 1 - 2 u F, F^(k+1) = -2 u F^(k) - 2 k F^(k-1); at r = 0 it is the
    limit (1 - 2 u F) / (4 pi^2 sigma^2).  Coincidence value 1 / (4 pi^2 sigma^2).
    Even in dt (bitwise), positive at the origin, and falling like
    1 / (r^2 - dt^2) far from the light cone.
    """
    # scipy.special loads here, not on import: qcl audit never calls a kernel.
    from scipy.special import dawsn

    s = spec.sigma
    dt, r = np.broadcast_arrays(np.asarray(dt, dtype=float), np.asarray(r, dtype=float))
    near = r < 1e-2 * s
    far = ~near
    out = np.empty(dt.shape)
    a, b = dt[far], r[far]  # each form is evaluated only where it is used
    out[far] = (dawsn((b + a) / (2.0 * s)) + dawsn((b - a) / (2.0 * s))) / (
        2.0 * _TWO_PI_SQ * s * b)
    if near.any():
        u = dt[near] / (2.0 * s)
        h2 = (r[near] / (2.0 * s)) ** 2
        m = -2.0 * u
        f0 = dawsn(u)
        d = [f0, 1.0 + m * f0]
        for k in range(1, 7):
            d.append(m * d[k] - (2.0 * k) * d[k - 1])
        series = d[1] + h2 * (d[3] / 6.0 + h2 * (d[5] / 120.0 + h2 * (d[7] / 5040.0)))
        out[near] = series / (2.0 * _TWO_PI_SQ * s * s)
    return out if out.ndim else float(out)


def smeared_coulomb(r, charge: float, spec: KernelSpec):
    """Static potential of a point charge under the mode damping.

    (q / 4 pi r) erf(r / 2 sigma): finite at the origin (q / (4 pi^(3/2) sigma)),
    indistinguishable from the bare Coulomb potential for r >> sigma.
    """
    from scipy.special import erf

    s = spec.sigma
    r = np.asarray(r, dtype=float)
    small = r < 1e-7 * s
    r_safe = np.where(small, 1.0, r)
    direct = charge * erf(r_safe / (2.0 * s)) / (4.0 * math.pi * r_safe)
    limit = np.full_like(r, charge / (4.0 * math.pi ** 1.5 * s))
    out = np.where(small, limit, direct)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Light-cone crossings and Lienard-Wiechert potentials on the bare (unsmeared) cone.


def _light_cone_times(events: np.ndarray, w: Worldline, *, advanced: bool) -> np.ndarray:
    """Vectorized light-cone crossing times for events of shape (N, 4).

    Solves f(tau) = tau - t +- |x - X(tau)| = 0 (upper sign retarded).  First,
    tau0 = t -+ d, d = |x - base|, is the root wherever X(tau0) is the base
    bitwise: by this rest-point certificate a pair's branches get equal times
    wherever the crossing is outside the split window.  Other events run Newton
    on f' = 1 -+ R_hat.v, in (0, 2) for speeds below 1, bracketed by the closed
    forms f(min(t, t0) - d) <= 0 (retarded) and f(max(t, t_end) + d) >= 0
    (advanced): the source rests at its base outside [t0, t_end].  Raises
    ArithmeticError on no convergence.
    """
    events = np.asarray(events, dtype=float)
    t, x = events[:, 0], events[:, 1:]
    sgn = 1.0 if advanced else -1.0
    d = np.linalg.norm(x - w.base, axis=-1)
    out = t + sgn * d
    pos = w.position(out)
    todo = np.flatnonzero(np.any(pos != w.base, axis=-1))
    t, x, tau, pos = t[todo], x[todo], out[todo], pos[todo]
    far = (np.maximum(t, w.t_end) if advanced else np.minimum(t, w.t0)) + sgn * d[todo]
    lo, hi = (t, far) if advanced else (far, t)  # f(lo) <= 0 <= f(hi)
    for _ in range(100):
        if not todo.size:
            return out
        rvec = x - pos
        r = np.linalg.norm(rvec, axis=-1)
        f = tau - t - sgn * r
        lo, hi = np.where(f <= 0.0, tau, lo), np.where(f >= 0.0, tau, hi)
        slope = 1.0 + sgn * np.sum(rvec * w.velocity(tau), axis=-1) / np.where(r > 0.0, r, 1.0)
        # Converged steps stand; others land strictly inside the bracket or bisect it.
        tol = 4.0 * np.spacing(np.abs(t) + r + np.abs(x).max(axis=-1))
        step = tau - f / slope
        ok = (np.abs(step - tau) <= tol) | ((lo < step) & (step < hi))
        step = np.where(ok, step, 0.5 * (lo + hi))
        done = np.abs(step - tau) <= tol
        out[todo[done]] = step[done]
        todo, t, x, tau, lo, hi = (a[~done] for a in (todo, t, x, step, lo, hi))
        pos = w.position(tau)
    raise ArithmeticError(f"light-cone solve did not converge for {todo.size} events")


def _cone_edges(probe: BranchPair, sources: tuple[Worldline, ...], advanced: bool) -> list[float]:
    """Probe times at which a branch's light cone meets a knot of a source branch.

    The field of ``sources`` (retarded, or advanced if ``advanced``) at a probe
    branch kinks where its crossing time is a source knot, since a source's
    jerk jumps there.  Those probe times are the branch's advanced (for a
    retarded field) or retarded crossings of the knot events (t_k, X_S(t_k)):
    one light-cone solve per probe branch.
    """
    events = np.array([[t, *w.position(t)] for w in sources for t in w.knots()])
    return [t for wp, _ in probe.branches()
            for t in _light_cone_times(events, wp, advanced=not advanced).tolist()]


def _lw_batch(events: np.ndarray, w: Worldline, *, advanced: bool = False) -> np.ndarray:
    """Lienard-Wiechert four-potential A^mu at events of shape (N, 4).

    A^mu = q (1, v) / (4 pi (R -+ R_vec . v)) evaluated at the retarded
    (advanced) crossing time; for a static charge, A = (q / 4 pi r, 0, 0, 0).
    Before and after its excursion the source rests at its base and keeps
    sourcing a Coulomb field.  Raises SingularityError when an event sits
    so close to the source that the denominator underflows the scale of
    the geometry.
    """
    events = np.asarray(events, dtype=float)
    taus = _light_cone_times(events, w, advanced=advanced)
    src = w.position(taus)
    vel = w.velocity(taus)
    rvec = events[:, 1:] - src
    rdist = np.linalg.norm(rvec, axis=-1)
    rv = np.sum(rvec * vel, axis=-1)
    denom = rdist + rv if advanced else rdist - rv
    if np.any(denom <= 1e-13 * (1.0 + rdist)):
        raise SingularityError("event on or numerically on the source worldline")
    pref = w.charge / (4.0 * math.pi * denom)
    out = np.empty(events.shape[:-1] + (4,))
    out[:, 0] = pref
    out[:, 1:] = pref[:, None] * vel
    return out


# ---------------------------------------------------------------------------
# Background fields: callables mapping events (..., 4) -> A^mu (..., 4).


def coulomb_background(charge: float, position, spec: KernelSpec):
    """Smeared Coulomb background (see :func:`smeared_coulomb`) centered at a fixed point."""
    p = np.asarray(position, dtype=float).reshape(3)

    def field(events) -> np.ndarray:
        ev = np.asarray(events, dtype=float)
        r = np.linalg.norm(ev[..., 1:] - p, axis=-1)
        out = np.zeros(ev.shape)
        out[..., 0] = smeared_coulomb(r, charge, spec)
        return out

    return field
