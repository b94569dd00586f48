"""Adaptive Gauss-Legendre quadrature with batched integrand evaluation.

The phase and dephasing functionals integrate smooth worldline kernels
whose sharp features (a Gaussian-smeared light cone of width sigma) sit
on low-dimensional ridges inside the integration domain.  Panel-based
adaptive quadrature handles that well, provided panels can be evaluated
in bulk: all pending panels are stacked into a single vectorized call of
the integrand so the numpy/scipy kernels amortize across thousands of
nodes.

One tensor-product panel engine serves :func:`adaptive_1d` and
:func:`adaptive_2d`.  Panels are boxes; the first grid splits each axis
at every interior knot and bisects its widest segments until the axis
has at least 4.  Each panel is measured with a low- and a high-order
Gauss-Legendre rule (8 and 16 points in 1D, 4x4 and 8x8 tensor rules in
2D) and the high-order value is kept.  With E = |I_high - I_low|, the
panel's error estimate is

    1D:  err = E
    2D:  err = max(E * min(1, sqrt(100 E / A)), 50 eps A)

with A = volume * sum w |f| over the 8x8 nodes (QUADPACK's QK form,
Piessens et al. 1983).  E is the error of the low rule; the 2D form
shrinks a small E to what the 8x8 rule still misses, floors it at the
rounding of the panel's terms, and is 0 where A is 0.  1D keeps E.  A
panel that straddles a kink can make E smaller than its true error, so
the pairings, whose integrands kink wherever a light-cone crossing meets
a source knot, pass every such time as a knot and no panel straddles
one.  There E is far above the true error, but no battery has yet
calibrated a smaller 1D estimate.

Refinement stops once the summed error is at most max(tol * |I|,
tol * 1e-3 * L1), with L1 the sum of absolute panel values.  Until then
each round bisects, along every axis, the worst panels: a quarter (at
least one) of those whose error exceeds the target divided by the panel
count.  Reaching ``max_panels`` first raises :class:`NumericFailure`
carrying the tolerance actually achieved.

``symmetric=True`` folds a 2D f(x, y) = f(y, x), on a square with the
same edges on both axes, onto the panels on or below the diagonal.  A
diagonal square counts once and any other panel twice (value and error);
a split diagonal square drops its child above the diagonal.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["NumericFailure", "adaptive_1d", "adaptive_2d", "panel_gauss_nodes"]


def panel_gauss_nodes(a: float, b: float, n_panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights: n_panels equal panels on [a, b].

    A fixed composite rule for integrands whose oscillation rate is known
    in advance (panel width is chosen by the caller so each panel spans
    about one wavelength); the adaptive routines below are for integrands
    with localized features instead.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


class NumericFailure(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Attributes carry the partial result so callers can report how close
    the run came: ``value`` is the best estimate, ``achieved`` the error
    estimate at abort, ``requested`` the target.
    """

    def __init__(self, message: str, value: float, achieved: float, requested: float):
        super().__init__(
            f"{message}: achieved error {achieved:.3e}, requested {requested:.3e}"
        )
        self.value = value
        self.achieved = achieved
        self.requested = requested


def _tensor_rule(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre tensor rule on [-1, 1]^dim: nodes (m, dim), weights (m,)."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = np.stack(np.meshgrid(*[x] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    weights = functools.reduce(np.outer, [w] * dim).reshape(-1)
    return nodes, weights


_RULES_1D = (_tensor_rule(8, 1), _tensor_rule(16, 1))
_RULES_2D = (_tensor_rule(4, 2), _tensor_rule(8, 2))
_MIN_PANELS = 4
_EPS = np.finfo(float).eps


def _high_rule_error(diff: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Error of 2D panels' 8x8 values in QUADPACK's QK form (module docstring).

    ``diff`` is |I_8x8 - I_4x4| and ``mass`` the panel's L1 mass A.  A
    panel of zeros has error 0; a NaN stays NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = diff * np.minimum(1.0, np.sqrt(100.0 * diff / mass))
    return np.where(mass == 0.0, 0.0, np.maximum(scaled, 50.0 * _EPS * mass))


def _axis_edges(a: float, b: float, knots) -> np.ndarray:
    """Panel edges on [a, b] at every interior knot, with at least _MIN_PANELS panels."""
    edges = [a, b]
    if knots is not None:
        edges.extend(k for k in knots if a < k < b)
    edges = sorted(set(edges))
    while len(edges) - 1 < _MIN_PANELS:
        i = int(np.argmax(np.diff(edges)))
        edges.insert(i + 1, 0.5 * (edges[i] + edges[i + 1]))
    return np.asarray(edges, dtype=float)


def _adaptive(f, ranges, knots, rules, tol: float, max_panels: int, name: str, symmetric=False):
    """Tensor-product panel engine behind :func:`adaptive_1d` and :func:`adaptive_2d`.

    Panels are boxes stored as (n, d) arrays of lower and upper corners.
    ``f`` is called once per round with one flat coordinate array per
    dimension: the low-rule points of every pending panel, then the
    high-rule points.
    """
    if any(b <= a for a, b in ranges):
        return 0.0, 0.0
    dim = len(ranges)
    edges = [_axis_edges(a, b, k) for (a, b), k in zip(ranges, knots)]
    if symmetric and not np.array_equal(edges[0], edges[1]):
        raise ValueError(f"{name}: symmetric mode needs the same range and knots on both axes")
    lo = np.stack(np.meshgrid(*[e[:-1] for e in edges], indexing="ij"), axis=-1).reshape(-1, dim)
    hi = np.stack(np.meshgrid(*[e[1:] for e in edges], indexing="ij"), axis=-1).reshape(-1, dim)
    (nodes_lo, w_lo), (nodes_hi, w_hi) = rules
    # Child c of a split panel takes the upper half along axis k when bit k
    # of c is set, so axis 0 varies fastest among the 2^d children.
    upper = [np.array([(c >> k) & 1 for k in range(dim)], dtype=bool) for c in range(2 ** dim)]

    def fold(plo: np.ndarray, phi: np.ndarray):
        # Weight 1 on the diagonal (equal lower corners, bitwise), 2 below
        # it and 0, dropped, above it: every other panel lies wholly on one side.
        if not symmetric:
            return plo, phi, np.ones(plo.shape[0])
        weight = 1.0 + np.sign(plo[:, 0] - plo[:, 1])
        keep = weight > 0.0
        return plo[keep], phi[keep], weight[keep]

    def eval_panels(plo: np.ndarray, phi: np.ndarray, weight: np.ndarray):
        mid = 0.5 * (plo + phi)
        half = 0.5 * (phi - plo)
        pts = [mid[:, None, :] + half[:, None, :] * nodes[None] for nodes in (nodes_lo, nodes_hi)]
        coords = [np.concatenate([p[..., k].ravel() for p in pts]) for k in range(dim)]
        vals = np.asarray(f(*coords), dtype=float)
        n_lo = plo.shape[0] * w_lo.size
        volume = np.prod(half, axis=1)
        hi_vals = vals[n_lo:].reshape(-1, w_hi.size)
        i_lo = volume * (vals[:n_lo].reshape(-1, w_lo.size) @ w_lo)
        i_hi = volume * (hi_vals @ w_hi)
        err = np.abs(i_hi - i_lo)
        if dim == 2:
            err = _high_rule_error(err, volume * (np.abs(hi_vals) @ w_hi))
        return weight * i_hi, weight * err

    lo, hi, wt = fold(lo, hi)
    vals, errs = eval_panels(lo, hi, wt)
    while True:
        total = float(vals.sum())
        l1 = float(np.abs(vals).sum())
        target = max(tol * abs(total), tol * 1e-3 * l1)
        err = float(errs.sum())
        if err <= target:
            return total, err
        n = lo.shape[0]
        if n >= max_panels:
            raise NumericFailure(f"{name} did not converge", total, err, target)
        # Split the worst panels; a modest batch per round keeps the
        # refinement focused without many tiny evaluation calls.
        n_split = max(1, int(0.25 * np.count_nonzero(errs > target / n)))
        worst = np.argsort(errs)[-n_split:]
        keep = np.ones(n, dtype=bool)
        keep[worst] = False
        wlo, whi = lo[worst], hi[worst]
        mid = 0.5 * (wlo + whi)
        new_lo, new_hi, new_wt = fold(np.concatenate([np.where(u, mid, wlo) for u in upper]),
                                      np.concatenate([np.where(u, whi, mid) for u in upper]))
        new_vals, new_errs = eval_panels(new_lo, new_hi, new_wt)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])


def adaptive_1d(
    f,
    a: float,
    b: float,
    *,
    tol: float = 1e-9,
    knots=None,
    max_panels: int = 8192,
    name: str = "integral",
) -> tuple[float, float]:
    """Integrate a vectorized scalar function f over [a, b].

    ``f`` receives a 1D array of points and must return the integrand at
    each.  Panels are intervals measured with 8- and 16-point
    Gauss-Legendre rules, and every knot inside (a, b) is a panel edge.
    The error estimate |I_16 - I_8| holds only where f is smooth, so the
    knots should include every kink of f.
    Refinement and the stop rule are those of the module docstring: the
    L1 term keeps integrals that cancel to nearly zero from chasing an
    impossible relative target.  Returns (value, error_estimate).
    """
    return _adaptive(f, [(a, b)], [knots], _RULES_1D, tol, max_panels, name)


def adaptive_2d(
    f,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    *,
    tol: float = 1e-7,
    knots_x=None,
    knots_y=None,
    max_panels: int = 60000,
    name: str = "integral",
    symmetric: bool = False,
) -> tuple[float, float]:
    """Integrate a vectorized function f(x, y) over a rectangle.

    ``f`` receives two flat arrays (same length) of x and y coordinates
    and returns the integrand at each pair.  Panels are axis-aligned
    rectangles; each is measured with 4x4 and 8x8 Gauss-Legendre tensor
    rules and split into four when its error dominates.  That error is the
    8x8 value's own, not the 4x4 one's: |I_8x8 - I_4x4| shrunk by
    min(1, sqrt(100 |I_8x8 - I_4x4| / A)), A the panel's L1 mass, and
    floored at 50 eps A (module docstring), so a zero integrand returns
    (0.0, 0.0) after one round and a constant one sits on the floor.  The
    convergence target follows the same rule as :func:`adaptive_1d`.
    ``symmetric=True`` evaluates only the panels on or below the diagonal
    of an f(x, y) = f(y, x) (module docstring); it raises ValueError unless
    both axes have the same range and knots.  Returns (value, error_estimate).
    """
    return _adaptive(f, [x_range, y_range], [knots_x, knots_y], _RULES_2D, tol, max_panels, name,
                     symmetric)
