"""Inequality algebra: complementarity, uncertainty bound, implication function."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from qcl.inequalities import (
    audit_report,
    complementarity_residual,
    f_grid,
    f_xy,
    implication_audit,
    robertson_residual,
)

import oracles


class TestComplementarityResidual:
    def test_pure_interference(self):
        assert complementarity_residual(1.0, 0.0) == 0.0

    def test_pythagorean_pair_saturates(self):
        assert complementarity_residual(0.6, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_domain_is_enforced(self):
        with pytest.raises(ValueError):
            complementarity_residual(1.2, 0.0)
        with pytest.raises(ValueError):
            complementarity_residual(0.5, -0.1)

    def test_vectorized(self):
        out = complementarity_residual([0.0, 0.5], [0.0, 0.5])
        assert out.shape == (2,)
        assert out[0] == 1.0


class TestRobertsonResidual:
    def test_zero_phase_reduces_to_product(self):
        assert robertson_residual(0.3, 0.7, 0.0) == 0.3 * 0.7

    def test_saturation_point(self):
        assert robertson_residual(1.0, 1.0, 4.0) == 0.0

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            robertson_residual(-0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            robertson_residual(1.0, -2.0, 0.0)


class TestImplicationFunction:
    def test_left_edge_is_exactly_zero(self):
        assert f_xy(1.0, 0.3) == 0.0
        ys = np.linspace(0.01, 1.0, 17)
        assert np.all(f_xy(np.ones_like(ys), ys) == 0.0)

    def test_top_edge_is_one_minus_x(self):
        assert f_xy(0.5, 1.0) == 0.5
        xs = np.linspace(0.02, 1.0, 17)
        assert np.array_equal(f_xy(xs, np.ones_like(xs)), 1.0 - xs)

    def test_domain_is_enforced(self):
        for bad in [(0.0, 0.5), (0.5, 0.0), (1.1, 0.5), (0.5, 1.0 + 1e-9), (-0.2, 0.3)]:
            with pytest.raises(ValueError):
                f_xy(*bad)

    @given(x=st.floats(1e-6, 1.0), y=st.floats(1e-6, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_non_negative_everywhere(self, x, y):
        assert f_xy(x, y) >= -1e-12

    def test_grid_shape_and_floor(self):
        x, y, F = f_grid(128)
        assert x.shape == (128,) and F.shape == (128, 128)
        assert 0.0 < x[0] and x[-1] < 1.0
        assert F.min() >= -1e-12

    @given(x=st.floats(0.05, 0.9), y=st.floats(0.05, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_gradient_matches_central_differences(self, x, y):
        gx, gy = oracles.f_gradient(x, y)
        nx, ny = oracles.central_gradient(lambda a, b: f_xy(a, b), x, y)
        assert gx == pytest.approx(nx, rel=2e-5, abs=1e-8)
        assert gy == pytest.approx(ny, rel=2e-5, abs=1e-8)

    def test_gradient_rejects_edges(self):
        for bad in [(1.0, 0.5), (0.5, 1.0), (0.0, 0.5)]:
            with pytest.raises(ValueError):
                oracles.f_gradient(*bad)

    def test_interior_critical_point(self):
        # The single interior stationary point: both partials vanish, the
        # stationarity algebra collapses to Y - X = Y sin^2(s), and the
        # value there is 1 - Y, comfortably positive (the implication
        # function has no interior zero to fall through).
        sol, info, ier, _ = fsolve(
            lambda p: oracles.f_gradient(p[0], p[1]), x0=(0.117, 0.570), full_output=True
        )
        assert ier == 1
        x, y = sol
        assert 0.0 < x < 1.0 and 0.0 < y < 1.0
        s = math.sqrt(math.log(x) * math.log(y))
        assert abs(-x - y * math.sin(s) ** 2 + y) < 1e-9
        value = f_xy(x, y)
        assert abs(value - (1.0 - y)) < 1e-9
        assert value > 0.4


# The three bounds of the proof that f >= 0 (see the qcl.inequalities
# docstring), in a = -ln X and b = -ln Y.  Each test samples its region of
# the (a, b) quadrant on a log-spaced grid that holds a* and b*, with a and
# b up to 700 (e^-700 is still a normal float), plus the points of the
# tight family ab = pi^2/4 that fall in the region.  f is evaluated through
# f_xy at (e^-a, e^-b); ROUNDING allows a few ulps of its O(1) terms.
A_STAR = 1.26
B_STAR = -math.log1p(-math.exp(-A_STAR))
ROUNDING = 1e-15


def _region(a_in, b_in, n=400):
    """(a, b) samples in a region given by two predicates on a and b."""
    axis = np.union1d(np.geomspace(1e-8, 700.0, n), [A_STAR, B_STAR])
    a, b = (v.ravel() for v in np.meshgrid(axis[a_in(axis)], axis[b_in(axis)]))
    tight_a = np.geomspace(1e-8, 700.0, 4000)
    tight_b = math.pi ** 2 / (4.0 * tight_a)
    keep = a_in(tight_a) & b_in(tight_b) & (tight_b <= 700.0)
    return np.concatenate([a, tight_a[keep]]), np.concatenate([b, tight_b[keep]])


def _f(a, b):
    return f_xy(np.exp(-a), np.exp(-b))


class TestNonNegativityProof:
    def test_constants(self):
        assert A_STAR < 2.0 * (1.0 - 1.0 / math.e)
        assert B_STAR == pytest.approx(0.334, abs=5e-4)

    def test_bound_1_small_a(self):
        # a < a*: f >= a (1 - a/2 - 1/e) > 0.
        a, b = _region(lambda a: a < A_STAR, lambda b: b > 0.0)
        bound = a * (1.0 - a / 2.0 - 1.0 / math.e)
        assert np.all(bound > 0.0)
        assert np.all(_f(a, b) >= bound - ROUNDING)

    def test_bound_2_large_a_large_b(self):
        # a >= a*, b >= b*: f >= 1 - e^-a - e^-b >= 0.
        a, b = _region(lambda a: a >= A_STAR, lambda b: b >= B_STAR)
        bound = 1.0 - np.exp(-a) - np.exp(-b)
        assert np.all(bound >= -ROUNDING)
        assert np.all(_f(a, b) >= bound - ROUNDING)

    def test_bound_3_large_a_small_b(self):
        # a >= a*, b < b*: f >= max(b - b^2/2 - e^-a, 1 - e^-a - ab), and
        # the two terms are never both <= 0.
        a, b = _region(lambda a: a >= A_STAR, lambda b: b < B_STAR)
        first = b - b * b / 2.0 - np.exp(-a)
        second = 1.0 - np.exp(-a) - a * b
        assert not np.any((first <= 0.0) & (second <= 0.0))
        assert np.any(first <= 0.0) and np.any(second <= 0.0)
        assert np.all(_f(a, b) >= np.maximum(first, second) - ROUNDING)


class TestImplicationAudit:
    def test_structured_fields(self):
        out = implication_audit([[0.5, 0.5, 0.1]])
        assert set(out.dtype.names) == {
            "gamma_A", "gamma_B", "phi_BA",
            "robertson_residual", "bound_residual", "ok",
        }

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            implication_audit(np.zeros((4, 2)))

    @pytest.mark.parametrize("row", [[-0.1, 0.5, 0.0], [0.5, -1e-300, 0.0]])
    def test_negative_gamma_rejected(self, row):
        # The residual is robertson_residual's, with its guard.
        with pytest.raises(ValueError, match="non-negative"):
            implication_audit([[0.5, 0.5, 0.1], row])

    def test_vacuous_row_shows_why_the_precondition_matters(self):
        # Without any dephasing a pi phase would push the bound
        # expression to 2 > 1, but such a triple violates the Robertson
        # bound, so the implication asserts nothing about it.
        row = implication_audit([[0.0, 0.0, math.pi]])[0]
        assert row["robertson_residual"] == pytest.approx(-math.pi**2 / 16.0)
        assert row["bound_residual"] == pytest.approx(-1.0, rel=1e-15)
        assert bool(row["ok"]) is True

    def test_zero_phase_zero_gamma_saturates(self):
        row = implication_audit([[0.0, 0.5, 0.0]])[0]
        assert row["robertson_residual"] == 0.0
        assert row["bound_residual"] == 0.0
        assert bool(row["ok"]) is True

    @given(
        ga=st.floats(1e-6, 5.0),
        gb=st.floats(1e-6, 5.0),
        u=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_bound_holds_under_robertson(self, ga, gb, u):
        phi = 4.0 * math.sqrt(ga * gb) * u
        row = implication_audit([[ga, gb, phi]])[0]
        assert bool(row["ok"]) is True
        if row["robertson_residual"] >= 0.0:
            assert row["bound_residual"] >= -1e-12


class TestAuditReport:
    @staticmethod
    def rep(**kw):
        base = dict(gamma_A=0.5, gamma_B=0.5, phi_BA=0.3, quad_error=0.0)
        base.update(kw)
        return SimpleNamespace(**base)

    def test_zero_gamma_limit(self):
        out = audit_report(self.rep(gamma_A=0.0), V=1.0, D=0.0)
        assert out.f_value == 0.0

    def test_zero_phase_limit(self):
        out = audit_report(self.rep(phi_BA=0.0, gamma_A=0.7), V=0.3, D=0.1)
        assert out.f_value == 1.0 - math.exp(-1.4)

    def test_general_point_matches_f(self):
        r = self.rep(gamma_A=0.8, phi_BA=1.1)
        out = audit_report(r, V=0.2, D=0.3)
        want = f_xy(math.exp(-1.6), math.exp(-1.1**2 / (8.0 * 0.8)))
        assert out.f_value == want

    def test_underflowing_x_is_its_limit(self):
        # e^{-2 gamma_A} is 0.0 at gamma_A = 400, outside f_xy's domain;
        # the closed form takes it as the limit X -> 0.
        out = audit_report(self.rep(gamma_A=400.0, phi_BA=0.3), V=0.2, D=0.3)
        assert out.f_value == 1.0 - math.exp(-0.3 ** 2 / 3200.0) * math.sin(0.15) ** 2
        with pytest.raises(ValueError, match="defined on"):
            f_xy(math.exp(-800.0), 1.0)

    def test_underflowing_y_is_its_limit(self):
        # phi_BA^2 / (8 gamma_A) = 800 > 745: Y = 0.0 and f = 1 - X exactly.
        out = audit_report(self.rep(gamma_A=0.01, phi_BA=8.0), V=0.2, D=0.3)
        assert out.f_value == 1.0 - math.exp(-0.02)

    def test_quad_error_widens_the_gate(self):
        r = self.rep(gamma_A=0.5, gamma_B=0.5, phi_BA=2.0 + 1e-7, quad_error=1e-6)
        out = audit_report(r, V=0.5, D=0.5)
        # The residual is barely negative; the quadrature slack absorbs it.
        assert out.robertson_residual < 0.0
        assert out.robertson_ok is True
        tight = audit_report(self.rep(phi_BA=3.0), V=0.5, D=0.5)
        assert tight.robertson_ok is False

    def test_complementarity_flags(self):
        good = audit_report(self.rep(), V=0.6, D=0.8)
        assert good.complementarity_ok is True
        assert good.complementarity_residual == pytest.approx(0.0, abs=1e-15)
