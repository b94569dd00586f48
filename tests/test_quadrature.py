"""Adaptive panel quadrature: convergence, knots, failure reporting."""

import math

import numpy as np
import pytest
from scipy.special import erf

from qcl.quadrature import NumericFailure, adaptive_1d, adaptive_2d, panel_gauss_nodes


def _ridge(w: float = 0.02):
    """Gaussian ridge along x = y on the unit square, with its exact integral."""
    exact = 2.0 * (
        w * math.sqrt(math.pi / 2.0) * erf(1.0 / (w * math.sqrt(2.0)))
        - w**2 * (1.0 - math.exp(-0.5 / w**2))
    )
    return (lambda x, y: np.exp(-0.5 * ((x - y) / w) ** 2)), exact


def _kinked(c: float = 1.0 / 3.0):
    """|x - c| |y - c| e^(x + y) on the unit square, with its exact integral."""
    g = 2.0 * math.exp(c) - c * math.e - c - 1.0
    return (lambda x, y: np.abs(x - c) * np.abs(y - c) * np.exp(x + y)), g * g


class TestPanelGaussNodes:
    def test_counts_and_weight_sum(self):
        nodes, weights = panel_gauss_nodes(-1.5, 2.5, 7, 5)
        assert nodes.shape == weights.shape == (35,)
        assert np.all((nodes >= -1.5) & (nodes <= 2.5))
        assert weights.sum() == pytest.approx(4.0, rel=1e-14)

    def test_polynomial_exactness(self):
        # Order-5 panels integrate degree <= 9 exactly.
        nodes, weights = panel_gauss_nodes(0.0, 2.0, 3, 5)
        got = float(weights @ nodes**9)
        assert got == pytest.approx(2.0**10 / 10.0, rel=1e-13)

    def test_oscillatory_integral(self):
        # One panel per oscillation period of sin^2(40 x) on [0, 2 pi].
        nodes, weights = panel_gauss_nodes(0.0, 2.0 * math.pi, 80, 12)
        got = float(weights @ np.sin(40.0 * nodes) ** 2)
        assert got == pytest.approx(math.pi, rel=1e-12)


class TestAdaptive1D:
    def test_smooth_integral(self):
        val, err = adaptive_1d(np.sin, 0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert 0.0 <= err < 1e-10

    def test_narrow_feature_is_resolved(self):
        s = 1e-3
        f = lambda x: np.exp(-0.5 * ((x - 0.3) / s) ** 2)
        val, err = adaptive_1d(f, 0.0, 1.0, tol=1e-10, knots=[0.3])
        assert val == pytest.approx(s * math.sqrt(2.0 * math.pi), rel=1e-9)

    def test_kink_with_knot_is_exact(self):
        c = 1.0 / 3.0
        exact = (c**2 + (1.0 - c) ** 2) / 2.0
        val, err = adaptive_1d(lambda x: np.abs(x - c), 0.0, 1.0, knots=[c])
        assert val == pytest.approx(exact, abs=1e-14)
        assert err < 1e-14

    def test_knots_outside_range_are_ignored(self):
        val, _ = adaptive_1d(np.cos, 0.0, 1.0, knots=[-5.0, 0.5, 7.0], tol=1e-12)
        assert val == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_empty_range_is_zero(self):
        assert adaptive_1d(np.sin, 2.0, 2.0) == (0.0, 0.0)
        assert adaptive_1d(np.sin, 3.0, 1.0) == (0.0, 0.0)

    def test_cancelling_integral_converges_via_l1_scale(self):
        # The integral is exactly zero; a purely relative target would be
        # unreachable, the L1 fallback terminates the refinement.
        val, err = adaptive_1d(np.sin, 0.0, 4.0 * math.pi, tol=1e-9)
        assert abs(val) < 1e-10
        assert err < 1e-10

    def test_non_convergence_raises_with_diagnostics(self):
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-300)
        with pytest.raises(NumericFailure) as exc:
            adaptive_1d(f, 0.0, 1.0, tol=1e-14, max_panels=16)
        e = exc.value
        assert e.achieved > e.requested
        assert math.isfinite(e.value)
        assert "did not converge" in str(e)


class TestAdaptive2D:
    def test_separable_polynomial(self):
        val, err = adaptive_2d(lambda x, y: x * y, (0.0, 1.0), (0.0, 1.0))
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_diagonal_ridge(self):
        # Gaussian ridge along x = y; the exact value follows from reducing
        # the double integral to the difference-variable marginal.
        f, exact = _ridge()
        val, err = adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), tol=1e-9)
        assert val == pytest.approx(exact, rel=1e-8)

    def test_axis_knots_make_kink_exact(self):
        f = lambda x, y: np.abs(x - 0.5) * y
        val, err = adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), knots_x=[0.5])
        assert val == pytest.approx(0.125, abs=1e-14)
        assert err < 1e-13

    def test_empty_range_is_zero(self):
        assert adaptive_2d(lambda x, y: x + y, (0.0, 0.0), (0.0, 1.0)) == (0.0, 0.0)
        assert adaptive_2d(lambda x, y: x + y, (0.0, 1.0), (2.0, 1.0)) == (0.0, 0.0)

    def test_non_convergence_raises(self):
        f = lambda x, y: 1.0 / (np.abs(x - y) + 1e-9)
        with pytest.raises(NumericFailure) as exc:
            adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), tol=1e-12, max_panels=64)
        assert exc.value.achieved > exc.value.requested


class TestAdaptive2DErrorEstimate:
    # The 2D estimate is that of the 8x8 value itself: |I_8x8 - I_4x4|
    # scaled by min(1, sqrt(100 |I_8x8 - I_4x4| / A)), A the panel's L1
    # mass, floored at 50 eps A.  It must still bound the true error.

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_estimate_bounds_true_error(self, tol, symmetric):
        ridge, ridge_exact = _ridge()
        kinked, kinked_exact = _kinked()
        cases = [
            (ridge, ridge_exact, {}),
            (lambda x, y: np.exp(-x) * np.exp(-y) * np.cos(2.0 * x) * np.cos(2.0 * y),
             ((1.0 - math.exp(-1.0) * (math.cos(2.0) - 2.0 * math.sin(2.0))) / 5.0) ** 2, {}),
            (kinked, kinked_exact, {"knots_x": [1.0 / 3.0], "knots_y": [1.0 / 3.0]}),
        ]
        for f, exact, knots in cases:
            val, err = adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), tol=tol, symmetric=symmetric,
                                   **knots)
            assert abs(val - exact) <= err

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_zero_integrand_stops_in_one_round(self, symmetric):
        calls = []

        def f(x, y):
            calls.append(x.size)
            return np.zeros_like(x)
        assert adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), symmetric=symmetric) == (0.0, 0.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("c, x_range, y_range", [
        (3.7, (0.0, 1.0), (0.0, 2.0)),
        (-1.3, (0.1, 0.7), (-2.0, 3.0)),
        (1.0, (0.0, 1.0), (0.0, 1.0)),
    ])
    def test_constant_sits_on_the_rounding_floor(self, c, x_range, y_range):
        val, err = adaptive_2d(lambda x, y: np.full(x.shape, c), x_range, y_range)
        area = (x_range[1] - x_range[0]) * (y_range[1] - y_range[0])
        assert val == pytest.approx(c * area, rel=1e-14)
        assert 0.0 < err <= 50.0 * np.finfo(float).eps * abs(val)


class TestAdaptive2DSymmetric:
    # A symmetric f(x, y) = f(y, x) on a square integrated over the panels
    # on or below the diagonal, the others counted through their mirrors.

    @staticmethod
    def panels(f, symmetric):
        """Value, and the centres of every panel evaluated, from the 4x4 nodes of each."""
        centres = []

        def g(x, y):
            n = x.size // 80
            centres.append(np.stack([x[:16 * n].reshape(n, 16).mean(axis=1),
                                     y[:16 * n].reshape(n, 16).mean(axis=1)], axis=1))
            return f(x, y)
        val, err = adaptive_2d(g, (0.0, 1.0), (0.0, 1.0), tol=1e-9, symmetric=symmetric)
        return val, err, np.concatenate(centres)

    def test_diagonal_ridge_matches_full_square(self):
        # The fold evaluates no panel above the diagonal, the full square's
        # diagonal panels once, and about half of its off-diagonal ones.
        f, exact = _ridge()
        val_full, _, full = self.panels(f, symmetric=False)
        val_half, err_half, half = self.panels(f, symmetric=True)
        assert val_full == pytest.approx(exact, rel=1e-8)
        assert val_half == pytest.approx(exact, rel=1e-8)
        assert abs(val_half - exact) <= err_half

        def sides(c):
            gap = c[:, 0] - c[:, 1]
            return (np.count_nonzero(np.abs(gap) <= 1e-12), np.count_nonzero(gap > 1e-12),
                    np.count_nonzero(gap < -1e-12))
        full_diag, full_below, full_above = sides(full)
        half_diag, half_below, half_above = sides(half)
        assert half_above == 0
        assert half_diag == full_diag
        assert half_below <= 0.52 * (full_below + full_above)

    def test_kink_on_both_axes_is_exact(self):
        f = lambda x, y: np.abs(x - 0.5) * np.abs(y - 0.5)
        val, err = adaptive_2d(f, (0.0, 1.0), (0.0, 1.0), knots_x=[0.5], knots_y=[0.5],
                               symmetric=True)
        assert val == pytest.approx(0.0625, abs=1e-14)
        assert err < 1e-14

    def test_unequal_ranges_raise(self):
        with pytest.raises(ValueError, match="symmetric"):
            adaptive_2d(lambda x, y: x * y, (0.0, 1.0), (0.0, 2.0), symmetric=True)

    def test_unequal_knots_raise(self):
        with pytest.raises(ValueError, match="symmetric"):
            adaptive_2d(lambda x, y: x * y, (0.0, 1.0), (0.0, 1.0), knots_x=[0.3],
                        symmetric=True)
