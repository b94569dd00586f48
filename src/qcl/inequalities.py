"""Complementarity, uncertainty-bound, and implication-function audits.

Three layers of consistency checks tie the functionals together:

* complementarity: V^2 + D^2 <= 1 for the visibility/distinguishability
  pair of any physical scenario;
* a Robertson-type bound between the two dephasing exponents and the
  one-way pairing phase: Gamma_A Gamma_B >= phi_BA^2 / 16.  Robertson's
  theorem for the smeared field operators of the two currents gives
  Gamma_A Gamma_B >= (phi_BA - phi_AB)^2 / 16, with their commutator
  phi_BA - phi_AB.  The phi_BA form audited here is the one the
  implication below needs; it is the theorem only where phi_AB = 0.0,
  as in spacelike and one-way layouts.  ``robertson_residual``
  evaluates either form, given phi_BA or phi_BA - phi_AB;
* the scalar implication function

      f(X, Y) = 1 - X - Y sin^2(sqrt(ln X ln Y)),   X, Y in (0, 1],

  whose non-negativity on the whole square encodes that the Robertson
  bound forces complementarity: with X = e^{-2 Gamma_A} and
  Y = e^{-phi_BA^2 / (8 Gamma_A)} one has V^2 + D^2 <= X + Y sin^2(...)
  <= 1 whenever f >= 0.

Everything here is pure parameter algebra (no quadrature), vectorized so
audits can sweep millions of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "complementarity_residual",
    "robertson_residual",
    "f_xy",
    "f_grid",
    "implication_audit",
    "AuditResult",
    "audit_report",
]


def complementarity_residual(V, D):
    """1 - V^2 - D^2, non-negative for physical visibility/distinguishability."""
    V = np.asarray(V, dtype=float)
    D = np.asarray(D, dtype=float)
    if np.any((V < 0.0) | (V > 1.0)) or np.any((D < 0.0) | (D > 1.0)):
        raise ValueError("V and D must lie in [0, 1]")
    out = 1.0 - V * V - D * D
    return out if out.ndim else float(out)


def robertson_residual(gamma_A, gamma_B, phi_BA):
    """Gamma_A Gamma_B - phi_BA^2 / 16, non-negative when the bound holds.

    With the one-way pairing phase phi_BA this is the form the
    implication audit uses.  With the commutator phi_BA - phi_AB in its
    place it is Robertson's inequality for the two smeared field
    operators; the two forms agree where phi_AB = 0.0 (spacelike and
    one-way layouts) and are different tests in mutual ones.  Example
    with the bound saturated: gamma_A = gamma_B = 1, phi_BA = 4 gives
    residual 0.
    """
    ga = np.asarray(gamma_A, dtype=float)
    gb = np.asarray(gamma_B, dtype=float)
    if np.any(ga < 0.0) or np.any(gb < 0.0):
        raise ValueError("dephasing exponents must be non-negative")
    p = np.asarray(phi_BA, dtype=float)
    out = ga * gb - p * p / 16.0
    return out if out.ndim else float(out)


def f_xy(X, Y):
    """Implication function f(X, Y) = 1 - X - Y sin^2(sqrt(ln X ln Y)) on (0, 1]^2.

    ln 1 is exactly 0.0, so on both edges sin^2 of the root is exactly
    0.0 and the value is exactly 1 - X: 0 for every Y at X = 1.  The
    argument of the square root is clamped at zero against rounding
    (ln X ln Y >= 0 throughout the domain).
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if np.any((X <= 0.0) | (X > 1.0)) or np.any((Y <= 0.0) | (Y > 1.0)):
        raise ValueError("f is defined on (0, 1] x (0, 1]")
    s = np.sqrt(np.maximum(np.log(X) * np.log(Y), 0.0))
    out = 1.0 - X - Y * np.sin(s) ** 2
    return out if out.ndim else float(out)


def f_grid(n: int = 1000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f on an n x n interior grid, for scanning the sign of the function.

    The grid excludes the coordinate axes (where f is undefined) and the
    X = 1, Y = 1 edges (where it is handled exactly); returns (x, y, F)
    with F[i, j] = f(x[i], y[j]).
    """
    pts = np.linspace(0.0, 1.0, n + 2)[1:-1]
    F = f_xy(pts[:, None], pts[None, :])
    return pts, pts, F


def implication_audit(samples) -> np.ndarray:
    """Check the complementarity implication on parameter triples.

    ``samples`` is an (N, 3) array of (gamma_A, gamma_B, phi_BA) triples.
    For each triple the audit evaluates the Robertson residual in its
    one-way form, gamma_A gamma_B - phi_BA^2 / 16 (not the commutator form
    of Robertson's theorem, which it equals only where phi_AB = 0.0; see
    :func:`robertson_residual`) and, where that bound holds, the
    complementarity combination

        bound_residual = 1 - e^{-2 gamma_A} - e^{-2 gamma_B} sin^2(phi_BA / 2)

    which the implication says must be non-negative.  Returns a
    structured array with fields gamma_A, gamma_B, phi_BA,
    robertson_residual, bound_residual, ok; rows whose Robertson residual
    is negative are vacuously ok (the implication asserts nothing there),
    and their bound_residual is still reported.  A triple like
    (0, 0, pi) shows why the precondition matters: the bound expression
    reaches 2 > 1 there.  A negative gamma raises ValueError, as in
    :func:`robertson_residual`.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 2 or s.shape[1] != 3:
        raise ValueError("samples must have shape (N, 3)")
    ga, gb, phi = s[:, 0], s[:, 1], s[:, 2]
    rob = robertson_residual(ga, gb, phi)
    bound = 1.0 - np.exp(-2.0 * ga) - np.exp(-2.0 * gb) * np.sin(0.5 * phi) ** 2
    ok = (rob < 0.0) | (bound >= -1e-12)
    out = np.empty(
        s.shape[0],
        dtype=[
            ("gamma_A", float),
            ("gamma_B", float),
            ("phi_BA", float),
            ("robertson_residual", float),
            ("bound_residual", float),
            ("ok", bool),
        ],
    )
    out["gamma_A"] = ga
    out["gamma_B"] = gb
    out["phi_BA"] = phi
    out["robertson_residual"] = rob
    out["bound_residual"] = bound
    out["ok"] = ok
    return out


@dataclass(frozen=True)
class AuditResult:
    """Inequality residuals of one scenario report, with pass flags.

    ``f_value`` is the implication function at X = e^{-2 gamma_A},
    Y = e^{-phi_BA^2 / (8 gamma_A)}.  Since ln X ln Y = phi_BA^2 / 4, it is
    the closed form 1 - X - Y sin^2(s) with s = |phi_BA| / 2, free of
    logarithms, so an exponential that underflows to 0.0 is its limit.  It
    is exactly 1 - X at phi_BA = 0, and 0.0 at gamma_A = 0 (X -> 1).  Pass
    flags use an absolute tolerance of 1e-9, widened by the report's
    quadrature error where quadrature feeds the inputs.
    """

    complementarity_residual: float
    robertson_residual: float
    f_value: float
    complementarity_ok: bool
    robertson_ok: bool


def audit_report(report, V: float, D: float) -> AuditResult:
    """Build the inequality audit for one report and its derived V, D (f_value: see AuditResult)."""
    comp = complementarity_residual(V, D)
    rob = robertson_residual(report.gamma_A, report.gamma_B, report.phi_BA)
    ga, phi = report.gamma_A, report.phi_BA
    if ga <= 0.0:
        fv = 0.0
    else:
        fv = 1.0 - math.exp(-2.0 * ga) - math.exp(-phi ** 2 / (8.0 * ga)) * math.sin(0.5 * phi) ** 2
    slack = 1e-9 + report.quad_error
    return AuditResult(
        complementarity_residual=float(comp),
        robertson_residual=float(rob),
        f_value=float(fv),
        complementarity_ok=bool(comp >= -slack),
        robertson_ok=bool(rob >= -slack),
    )
