"""Photon two-point kernels, retarded potentials, and background fields.

All correlators here are built from plane-wave modes with the Gaussian
frequency weight exp(-k^2 sigma^2), which regulates the light-cone
singularities at a length scale sigma while leaving long-distance
physics untouched.  Closed forms follow from the one-dimensional radial
integral

    int_0^inf dk exp(-sigma^2 k^2) sin(a k) = F(a / (2 sigma)) / sigma,

where F is Dawson's integral (scipy.special.dawsn).

Sign and index conventions.  With signature (+, -, -, -), the symmetric
(Hadamard) two-point tensor of the gauge field in Feynman gauge is

    <{A_mu(x), A_nu(y)}> = - eta_mu_nu * hadamard_scalar(x - y),

with ``hadamard_scalar`` the positive scalar returned here.  Contracted
into two currents this gives the pairing weight

    J1 . J2 -> (v1 . v2 - 1) * hadamard_scalar

which makes branch-difference double integrals non-negative for
conserved currents (the timelike polarization cancels against the
longitudinal one, leaving a manifestly positive transverse sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, erf

from .geometry import Worldline, _event_array

__all__ = [
    "KernelSpec",
    "SingularityError",
    "hadamard_scalar",
    "smeared_coulomb",
    "retarded_time",
    "lienard_wiechert",
    "coulomb_background",
    "pure_gauge_background",
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
    at 4.5/sigma, where the weight e^{-k^2 sigma^2} is e^{-20.25}.
    """

    sigma: float
    quad_tol: float = 1e-6

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.quad_tol > 0.0:
            raise ValueError("quad_tol must be positive")


def hadamard_scalar(dx, spec: KernelSpec):
    """Symmetric two-point scalar at four-separation dx, shape (..., 4).

    Closed form of (1 / 2 pi^2) int_0^inf dk k exp(-k^2 sigma^2)
    cos(k dt) sin(k r) / (k r):

        (1 / (4 pi^2 sigma r)) * [F((r + dt) / 2 sigma) + F((r - dt) / 2 sigma)]

    with the r -> 0 limit (1 - 2 u F(u)) / (4 pi^2 sigma^2), u = dt / 2 sigma.
    Coincidence value 1 / (4 pi^2 sigma^2).  Even in dt, positive at the
    origin, and falling like 1 / (r^2 - dt^2) far from the light cone.
    """
    dx = np.asarray(dx, dtype=float)
    dt = dx[..., 0]
    r = np.sqrt(np.sum(dx[..., 1:] ** 2, axis=-1))
    return hadamard_dt_r(dt, r, spec)


def hadamard_dt_r(dt, r, spec: KernelSpec):
    """Hadamard scalar as a function of time lag and spatial distance."""
    s = spec.sigma
    dt = np.asarray(dt, dtype=float)
    r = np.asarray(r, dtype=float)
    dt, r = np.broadcast_arrays(dt, r)
    small = r < 1e-7 * s
    out = np.asarray((dawsn((r + dt) / (2.0 * s)) + dawsn((r - dt) / (2.0 * s))) / (
        2.0 * _TWO_PI_SQ * s * np.where(small, 1.0, r)
    ))
    if small.any():  # the r -> 0 limit, evaluated only where it is used
        u = dt[small] / (2.0 * s)
        out[small] = (1.0 - 2.0 * u * dawsn(u)) / (2.0 * _TWO_PI_SQ * s * s)
    return out if out.ndim else float(out)


def smeared_coulomb(r, charge: float, spec: KernelSpec):
    """Static potential of a point charge under the mode damping.

    (q / 4 pi r) erf(r / 2 sigma): finite at the origin (q / (4 pi^(3/2) sigma)),
    indistinguishable from the bare Coulomb potential for r >> sigma.
    """
    s = spec.sigma
    r = np.asarray(r, dtype=float)
    small = r < 1e-7 * s
    r_safe = np.where(small, 1.0, r)
    direct = charge * erf(r_safe / (2.0 * s)) / (4.0 * math.pi * r_safe)
    limit = np.full_like(r, charge / (4.0 * math.pi ** 1.5 * s))
    out = np.where(small, limit, direct)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Retarded/advanced light-cone crossings and Lienard-Wiechert potentials on
# the bare (unsmeared) cone.  A branch difference vanishes identically where
# both branches' crossings land outside the split window: a split source rests
# there, and the rest-point certificate gives both the same closed-form time.


def _light_cone_times(events: np.ndarray, w: Worldline, *, advanced: bool) -> np.ndarray:
    """Vectorized light-cone crossing times for events of shape (N, 4).

    Solves f(tau) = tau - t +- |x - X(tau)| = 0 (upper sign retarded).  First,
    tau0 = t -+ |x - X_rest|, X_rest = X(window start), is the root wherever
    X(tau0) equals X_rest bitwise: by this rest-point certificate a pair's
    branches get equal times wherever the crossing is outside the split window.
    Other events run Newton on f' = 1 -+ R_hat.v, in (0, 2) for speeds below 1,
    bracketed by the light-cone time of the rest point at the window edge.
    Raises ArithmeticError on no convergence.
    """
    events = np.asarray(events, dtype=float)
    t, x = events[:, 0], events[:, 1:]
    sgn = 1.0 if advanced else -1.0
    rest = w.position(w.window[0])
    out = t + sgn * np.linalg.norm(x - rest, axis=-1)
    pos = w.position(out)
    todo = np.flatnonzero(np.any(pos != rest, axis=-1))
    t, x, tau, pos = t[todo], x[todo], out[todo], pos[todo]
    edge = w.window[1] if advanced else w.window[0]
    far = (np.maximum if advanced else np.minimum)(t, edge)
    far = far + sgn * np.linalg.norm(x - w.position(edge), axis=-1)
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


def retarded_time(x, w: Worldline, *, advanced: bool = False) -> float:
    """Emission time on w whose forward light cone passes through event x.

    With ``advanced=True``, the absorption time whose backward light cone
    does: t -+ |x - X_rest| where the source rests (the rest-point certificate
    of :func:`_light_cone_times`), bracketed Newton elsewhere.  Raises
    ArithmeticError if ||t - tau| - |x - X(tau)|| exceeds 1e-10.
    """
    e = _event_array(x)
    tau = float(_light_cone_times(e[None, :], w, advanced=advanced)[0])
    r = float(np.linalg.norm(e[1:] - w.position(np.asarray(tau))))
    lag = tau - e[0] if advanced else e[0] - tau
    residual = abs(lag - r)
    if residual > 1e-10:
        raise ArithmeticError(f"light-cone solve residual {residual:.3e} too large")
    return tau


def _lw_batch(events: np.ndarray, w: Worldline, *, advanced: bool = False) -> np.ndarray:
    """Lienard-Wiechert four-potential A^mu at events of shape (N, 4).

    A^mu = q (1, v) / (4 pi (R -+ R_vec . v)) evaluated at the retarded
    (advanced) crossing time.  Raises SingularityError when an event sits
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


def lienard_wiechert(x, w: Worldline, *, advanced: bool = False) -> np.ndarray:
    """Four-potential of a single worldline at event x (contravariant components).

    For a static charge this reduces to A = (q / 4 pi r, 0, 0, 0).  Before
    and after its excursion the source rests at its base and keeps sourcing
    a Coulomb field.
    """
    e = _event_array(x)
    return _lw_batch(e[None, :], w, advanced=advanced)[0]


# ---------------------------------------------------------------------------
# Background fields: callables mapping events (..., 4) -> A^mu (..., 4).


def coulomb_background(charge: float, position, spec: KernelSpec | None = None):
    """Static Coulomb background centered at a fixed spatial point.

    When a kernel spec is supplied the potential is the smeared form
    (finite at the center); otherwise the bare q / 4 pi r.
    """
    p = np.asarray(position, dtype=float).reshape(3)

    def field(events) -> np.ndarray:
        ev = np.asarray(events, dtype=float)
        r = np.linalg.norm(ev[..., 1:] - p, axis=-1)
        out = np.zeros(ev.shape)
        if spec is None:
            out[..., 0] = charge / (4.0 * math.pi * np.maximum(r, 1e-300))
        else:
            out[..., 0] = smeared_coulomb(r, charge, spec)
        return out

    return field


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
