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
longitudinal one, leaving a manifestly positive transverse sum).  The
retarded Green function in the same gauge is eta_mu_nu times the scalar
``retarded_kernel`` below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, erf

from .geometry import Worldline, _event_array

__all__ = [
    "KernelSpec",
    "SingularityError",
    "hadamard_scalar",
    "hadamard_coincidence",
    "retarded_kernel",
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
    the light cone), k_max the momentum cutoff used by mode-space
    routines (defaults to 8/sigma), and quad_tol the relative tolerance
    handed to the adaptive quadratures.
    """

    sigma: float
    k_max: float | None = None
    quad_tol: float = 1e-6

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.k_max is None:
            object.__setattr__(self, "k_max", 8.0 / self.sigma)
        if self.k_max * self.sigma < 5.0:
            warnings.warn(
                f"k_max * sigma = {self.k_max * self.sigma:.3g} < 5: "
                "mode-space truncation error may exceed quad_tol",
                stacklevel=2,
            )
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
    r_safe = np.where(small, 1.0, r)
    direct = (dawsn((r + dt) / (2.0 * s)) + dawsn((r - dt) / (2.0 * s))) / (
        2.0 * _TWO_PI_SQ * s * r_safe
    )
    u = dt / (2.0 * s)
    limit = (1.0 - 2.0 * u * dawsn(u)) / (2.0 * _TWO_PI_SQ * s * s)
    out = np.where(small, limit, direct)
    return out if out.ndim else float(out)


def hadamard_coincidence(spec: KernelSpec) -> float:
    """Kernel value at zero separation, 1 / (4 pi^2 sigma^2)."""
    return 1.0 / (2.0 * _TWO_PI_SQ * spec.sigma ** 2)


def retarded_kernel(dt, r, spec: KernelSpec):
    """Smeared retarded scalar: support on dt > 0, peaked where dt = r.

    Built from the same damped modes as :func:`hadamard_dt_r`, with the
    sharp time-ordering step kept:

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
# Retarded/advanced light-cone crossings and Lienard-Wiechert potentials.
# These use the bare (unsmeared) cone: sources are worldlines with sharp
# support, so a branch difference vanishes identically wherever both
# branches' crossing times land outside the split window.


def _light_cone_times(events: np.ndarray, w: Worldline, *, advanced: bool) -> np.ndarray:
    """Vectorized light-cone crossing times for events of shape (N, 4).

    Solves t - tau = |x - X(tau)| (retarded) or tau - t = |x - X(tau)|
    (advanced) by bisection on the strictly monotone crossing function.
    Bisection is branch-free and deterministic: identical inputs give
    bitwise identical outputs, which downstream exact-cancellation
    arguments rely on.  The worldline is evaluated with its static
    extension, so a crossing always exists and is unique (speeds < 1).
    """
    events = np.asarray(events, dtype=float)
    t = events[:, 0]
    x = events[:, 1:]

    t0, t1 = w.window
    # Bound the source's distance from each event over all time.  The
    # path stays within h/2 of its nearest window sample (speed < 1), so
    # the sampled bounding ball padded by half the sample spacing
    # encloses it rigorously; frozen endpoints add nothing beyond that.
    ts_probe = np.linspace(t0, t1, 256)
    pts = w.position(ts_probe)
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    radius = float(np.linalg.norm(pts - center, axis=-1).max())
    radius += 0.5 * (t1 - t0) / 255.0 + 1e-9
    d_center = np.linalg.norm(x - center, axis=-1)
    d_max = d_center + radius

    if advanced:
        lo = t.copy()
        hi = t + d_max + 1.0
    else:
        lo = t - d_max - 1.0
        hi = t.copy()

    def g(tau: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(x - w.position(tau), axis=-1)
        return (tau - t) - r if advanced else (t - tau) - r

    # g is increasing in tau for the advanced case, decreasing for the
    # retarded case; normalize so the root is a sign change from - to +.
    sgn = 1.0 if advanced else -1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        pos = sgn * g(mid) >= 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    return 0.5 * (lo + hi)


def retarded_time(
    x, w: Worldline, *, advanced: bool = False, residual_tol: float = 1e-10
) -> float | None:
    """Emission time on w whose forward light cone passes through event x.

    With ``advanced=True``, the absorption time whose backward light cone
    does.  Returns None when the worldline has extend="none" and the
    crossing would fall outside its window (no source exists there).  The
    root is verified to satisfy ||t - tau| - |x - X(tau)|| <= residual_tol.
    """
    e = _event_array(x)
    tau = float(_light_cone_times(e[None, :], w, advanced=advanced)[0])
    if w.extend == "none" and not (w.window[0] <= tau <= w.window[1]):
        return None
    r = float(np.linalg.norm(e[1:] - w.position(np.asarray(tau))))
    lag = tau - e[0] if advanced else e[0] - tau
    residual = abs(lag - r)
    if residual > residual_tol:
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
    if w.extend == "none":
        inside = (taus >= w.window[0]) & (taus <= w.window[1])
        out *= inside[:, None]
    return out


def lienard_wiechert(x, w: Worldline, *, advanced: bool = False) -> np.ndarray:
    """Four-potential of a single worldline at event x (contravariant components).

    For a static charge this reduces to A = (q / 4 pi r, 0, 0, 0).  With
    extend="none" the potential is zero when the light-cone crossing
    leaves the window; with the default static extension the frozen
    endpoint keeps sourcing a Coulomb field.
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
