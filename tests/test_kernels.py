"""Field kernels: closed forms vs momentum-space quadrature, causal support."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qcl.kernels
from qcl.functionals import build_report
from qcl.geometry import Worldline, make_branch_pair
from qcl.kernels import (
    KernelSpec,
    SingularityError,
    coulomb_background,
    hadamard_dt_r,
    smeared_coulomb,
)

import oracles
from conftest import mutual_scenario

SIGMA = 0.07


@pytest.fixture(scope="module")
def spec():
    return KernelSpec(sigma=SIGMA)


class TestKernelSpec:
    def test_momentum_cutoff_is_not_settable(self):
        # Mode-space routines always cut at 4.5/sigma.
        with pytest.raises(TypeError):
            KernelSpec(sigma=0.07, k_max=10.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec(sigma=0.1, quad_tol=0.0)


class TestHadamardKernel:
    points = [(0.0, 0.3), (0.3, 0.4), (0.5, 0.5), (1.0, 0.2), (0.25, 1e-9), (2.0, 1.5)]

    @pytest.mark.parametrize("dt,r", points)
    def test_matches_momentum_integral(self, spec, dt, r):
        got = hadamard_dt_r(dt, r, spec)
        want = oracles.hadamard_momentum(dt, r, SIGMA)
        assert got == pytest.approx(want, rel=1e-11)

    def test_coincidence_value_is_exact(self, spec):
        assert hadamard_dt_r(0.0, 0.0, spec) == 1.0 / (4.0 * math.pi**2 * SIGMA**2)

    def test_equal_time_distant_ratio_frozen(self, spec):
        # Equal-time value at r = 1000 sigma over the coincidence value.
        # The ratio is sigma-independent, 2 dawsn(500) / 1000.
        ratio = hadamard_dt_r(0.0, 1000.0 * SIGMA, spec) / hadamard_dt_r(0.0, 0.0, spec)
        assert ratio == 2.0000040000240007e-06

    def test_small_r_branch_is_seamless(self, spec):
        # Both radii lie below the 0.01 sigma hand-off, so both take the
        # series (checked against mpmath below) and agree far inside 1e-7.
        thr = 1e-7 * SIGMA
        for dt in (0.0, 0.35):
            below = hadamard_dt_r(dt, 0.99 * thr, spec)
            above = hadamard_dt_r(dt, 1.01 * thr, spec)
            assert below == pytest.approx(above, rel=1e-7)

    def test_near_coincidence_matches_mpmath(self, spec):
        # Below r = 0.01 sigma the kernel is the short series in r / 2 sigma;
        # the direct Dawson form would be off there by up to 1.4e-9 of the
        # coincidence value.  The reference is the direct form at 40 digits.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        s = mp.mpf(SIGMA)

        def dawson(x):
            return mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)

        coincidence = 1.0 / (4.0 * math.pi**2 * SIGMA**2)
        dts = 2.0 * SIGMA * np.linspace(0.0, 30.0, 31)
        rs = SIGMA * np.geomspace(1e-7, 1e-2, 11)
        got = hadamard_dt_r(dts[:, None], rs[None, :], spec)
        for i, dt in enumerate(dts):
            for j, r in enumerate(rs):
                a, b = mp.mpf(float(dt)), mp.mpf(float(r))
                want = (dawson((b + a) / (2 * s)) + dawson((b - a) / (2 * s))) / (
                    4 * mp.pi**2 * s * b)
                assert abs(got[i, j] - float(want)) <= 1e-14 * coincidence

    def test_array_equals_scalar_calls_bitwise(self, spec):
        # The series is evaluated only where r < 0.01 sigma; on an
        # array mixing both branches every element must still be exactly
        # what a scalar call returns, and a scalar call returns a float.
        rng = np.random.default_rng(31)
        r = np.concatenate([np.zeros(40), rng.uniform(0.0, 1e-7 * SIGMA, 40),
                            rng.uniform(1e-7 * SIGMA, 2.0, 120)])
        rng.shuffle(r)
        dt = rng.uniform(-3.0, 3.0, r.size)
        dt[:10] = 0.0
        got = hadamard_dt_r(dt, r, spec)
        scalars = [hadamard_dt_r(float(a), float(b), spec) for a, b in zip(dt, r)]
        assert all(type(v) is float for v in scalars)
        assert got.view(np.int64).tolist() == np.array(scalars).view(np.int64).tolist()
        grid = hadamard_dt_r(dt[:20, None], r[None, :30], spec)
        assert grid.shape == (20, 30)
        assert np.array_equal(grid[7], hadamard_dt_r(dt[7], r[:30], spec))

    @given(dt=st.floats(-3.0, 3.0), r=st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_even_in_time_lag(self, dt, r):
        s = KernelSpec(sigma=SIGMA)
        assert hadamard_dt_r(dt, r, s) == hadamard_dt_r(-dt, r, s)

    def test_coincidence_monotone_in_regulator(self):
        vals = [hadamard_dt_r(0.0, 0.0, KernelSpec(sigma=s))
                for s in (0.02, 0.05, 0.07, 0.2, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_lorentz_invariance_in_narrow_regulator_regime(self):
        # With sigma far below every separation scale the kernel depends
        # on its argument only through the squared interval; random boosts
        # must leave it unchanged to the regulator's accuracy.
        rng = np.random.default_rng(0)
        dx = rng.uniform(-2.0, 2.0, size=(400, 4))
        s2 = dx[:, 0] ** 2 - np.sum(dx[:, 1:] ** 2, axis=1)
        dx = dx[np.abs(s2) >= 0.5]
        assert dx.shape[0] >= 300
        eta = rng.uniform(-1.0, 1.0, size=len(dx))
        n = rng.normal(size=(len(dx), 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        ch, sh = np.cosh(eta), np.sinh(eta)
        t = dx[:, 0]
        xpar = np.sum(dx[:, 1:] * n, axis=1)
        boosted = np.column_stack([
            ch * t - sh * xpar,
            dx[:, 1:] + ((ch - 1.0) * xpar - sh * t)[:, None] * n,
        ])
        spec = KernelSpec(sigma=5e-5)
        base = hadamard_dt_r(dx[:, 0], np.linalg.norm(dx[:, 1:], axis=1), spec)
        moved = hadamard_dt_r(boosted[:, 0], np.linalg.norm(boosted[:, 1:], axis=1), spec)
        rel = np.abs(moved - base) / np.abs(base)
        assert rel.max() < 1e-6


class TestRetardedKernel:
    """The closed form in tests/oracles.py, held against its momentum integral."""

    points = [(0.5, 0.3), (0.8, 0.8), (1.2, 0.9), (0.2, 1e-9)]

    @pytest.mark.parametrize("dt,r", points)
    def test_matches_momentum_integral(self, spec, dt, r):
        got = oracles.retarded_kernel(dt, r, spec)
        want = oracles.retarded_momentum(dt, r, SIGMA)
        assert got == pytest.approx(want, rel=1e-11)

    def test_vanishes_for_non_positive_lag(self, spec):
        for dt in (0.0, -1e-12, -0.4, -3.0):
            for r in (0.0, 0.3, 1.7):
                assert oracles.retarded_kernel(dt, r, spec) == 0.0

    def test_positive_inside_support(self, spec):
        dts = np.linspace(0.05, 2.0, 9)
        rs = np.linspace(0.05, 2.0, 9)
        vals = oracles.retarded_kernel(dts[:, None], rs[None, :], spec)
        assert np.all(vals > 0.0)

    def test_peaks_on_the_light_cone(self, spec):
        r = 0.8
        dts = np.linspace(0.05, 2.0, 500)
        vals = oracles.retarded_kernel(dts, np.full_like(dts, r), spec)
        assert abs(dts[np.argmax(vals)] - r) < 0.01


class TestSmearedCoulomb:
    def test_matches_momentum_integral(self, spec):
        q, r = 1.3, 0.15
        want, _ = quad(
            lambda k: q * np.exp(-(SIGMA * k) ** 2) * np.sin(k * r) / (k * r)
            / (2.0 * math.pi**2),
            0.0, 40.0 / SIGMA, limit=2000, epsabs=1e-13, epsrel=1e-12,
        )
        assert smeared_coulomb(r, q, spec) == pytest.approx(want, rel=1e-11)

    def test_center_value_finite(self, spec):
        q = 2.0
        assert smeared_coulomb(0.0, q, spec) == q / (4.0 * math.pi**1.5 * SIGMA)

    def test_far_field_is_bare_coulomb(self, spec):
        r = 20.0 * SIGMA
        assert smeared_coulomb(r, 1.0, spec) == pytest.approx(
            1.0 / (4.0 * math.pi * r), rel=1e-13
        )

    def test_monotone_decreasing(self, spec):
        rs = np.linspace(0.0, 1.0, 50)
        vals = smeared_coulomb(rs, 1.0, spec)
        assert np.all(np.diff(vals) < 0.0)


class TestLightConeCrossings:
    def test_static_source_crossing_times(self):
        w = make_branch_pair("A", 0.0, 0.5, 0.5, 1.0, base=(1.0, 2.0, 2.0)).right
        ev = np.array([[5.0, 4.0, 6.0, 2.0]])
        r = math.sqrt(3.0**2 + 4.0**2)
        tau = qcl.kernels._light_cone_times(ev, w, advanced=False)
        assert tau[0] == pytest.approx(5.0 - r, abs=1e-9)
        tau = qcl.kernels._light_cone_times(ev, w, advanced=True)
        assert tau[0] == pytest.approx(5.0 + r, abs=1e-9)

    def test_static_lw_potential_is_coulomb(self):
        q = 1.7
        w = make_branch_pair("A", 0.0, 0.5, 0.5, 1.0, charge=q).right
        ev = np.array([[3.0, 2.0, 0.0, 0.0]])
        a = qcl.kernels._lw_batch(ev, w)[0]
        assert a[0] == pytest.approx(q / (4.0 * math.pi * 2.0), rel=1e-12)
        assert np.all(a[1:] == 0.0)
        assert np.array_equal(qcl.kernels._lw_batch(ev, w, advanced=True)[0], a)

    def test_lw_during_hold_sees_displaced_charge(self):
        q = 1.1
        w = make_branch_pair("A", 0.4, 0.0, 0.5, 3.0, charge=q, window=(-0.5, 4.5)).right
        # Crossing time 1.0 lies inside the hold era, where the branch
        # rests at base + (L/2) yhat.
        a = qcl.kernels._lw_batch(np.array([[3.0, 2.0, 0.2, 0.0]]), w)[0]
        assert a[0] == pytest.approx(q / (4.0 * math.pi * 2.0), rel=1e-12)
        assert np.all(a[1:] == 0.0)

    def test_event_on_source_raises(self):
        w = make_branch_pair("A", 0.0, 0.5, 0.5, 1.0, base=(1.0, 0.0, 0.0)).right
        with pytest.raises(SingularityError):
            qcl.kernels._lw_batch(np.array([[2.0, 1.0, 0.0, 0.0]]), w)


class TestLightConeSolver:
    """The closed-form and Newton solve against the bisection oracle."""

    @staticmethod
    def moving_pairs(rng, n):
        # Tilted axes and rest points off every symmetry plane; peak
        # speeds up to about 0.72, above the lab's generators.
        for _ in range(n):
            L = rng.uniform(0.3, 0.85)
            yield make_branch_pair(
                "B", L, 0.4, L * rng.uniform(1.3, 1.9), rng.uniform(0.2, 1.0),
                base=rng.uniform(-2.0, 2.0, size=3), axis=rng.normal(size=3),
                window=(0.0, 5.0),
            )

    @staticmethod
    def events(rng, n):
        return np.column_stack([rng.uniform(-1.0, 6.0, n), rng.uniform(-3.0, 3.0, (n, 3))])

    @staticmethod
    def crossing_events(rng, w, advanced, n):
        """Events whose crossing on w is within 1e-9 of t0 or t_end, or well outside the split.

        Returns the events and their crossings: each event is a distance r
        along a random direction from w's position at its crossing time,
        and r later (earlier, if advanced) than it.
        """
        near = rng.uniform(-1e-9, 1e-9, (2, n))
        taus = np.concatenate([w.t0 + near[0], w.t_end + near[1],
                               w.t0 - rng.uniform(0.5, 3.0, n), w.t_end + rng.uniform(0.5, 3.0, n)])
        unit = rng.normal(size=(taus.size, 3))
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        r = rng.uniform(0.05, 3.0, taus.size)
        lag = -r if advanced else r
        return np.column_stack([taus + lag, w.position(taus) + r[:, None] * unit]), taus

    @pytest.mark.parametrize("advanced", [False, True])
    def test_matches_bisection_oracle(self, advanced):
        rng = np.random.default_rng(41)
        edge_rng = np.random.default_rng(45)
        for pair in self.moving_pairs(rng, 12):
            ev = self.events(rng, 400)
            for w in (pair.right, pair.left):
                tau = qcl.kernels._light_cone_times(ev, w, advanced=advanced)
                want = oracles.light_cone_bisection(ev, w, advanced=advanced)
                assert np.max(np.abs(tau - want)) <= 1e-14
                # Crossings at the excursion's edges, where the Newton bracket is set.
                edge_ev, crossing = self.crossing_events(edge_rng, w, advanced, 50)
                tau = qcl.kernels._light_cone_times(edge_ev, w, advanced=advanced)
                want = oracles.light_cone_bisection(edge_ev, w, advanced=advanced)
                assert np.max(np.abs(tau - want)) <= 1e-14
                assert np.max(np.abs(tau - crossing)) <= 1e-14

    @pytest.mark.parametrize("advanced", [False, True])
    def test_lag_equals_distance_on_moving_branches(self, advanced):
        rng = np.random.default_rng(42)
        for pair in self.moving_pairs(rng, 12):
            ev = self.events(rng, 400)
            for w in (pair.right, pair.left):
                tau = qcl.kernels._light_cone_times(ev, w, advanced=advanced)
                r = np.linalg.norm(ev[:, 1:] - w.position(tau), axis=-1)
                lag = tau - ev[:, 0] if advanced else ev[:, 0] - tau
                assert np.all(np.abs(lag - r) <= 1e-14 * (1.0 + np.abs(ev[:, 0])))

    @pytest.mark.parametrize("advanced", [False, True])
    def test_branches_agree_bitwise_outside_split_window(self, advanced):
        rng = np.random.default_rng(43)
        outside = inside = 0
        for pair in self.moving_pairs(rng, 12):
            ev = self.events(rng, 400)
            a, b = pair.split_window
            tau_r = qcl.kernels._light_cone_times(ev, pair.right, advanced=advanced)
            tau_l = qcl.kernels._light_cone_times(ev, pair.left, advanced=advanced)
            out = (tau_r < a) | (tau_r > b)
            assert np.array_equal(tau_r[out], tau_l[out])
            outside += int(out.sum())
            inside += int(np.sum(tau_r[~out] != tau_l[~out]))
        assert outside > 1000 and inside > 100

    def test_static_path_is_closed_form(self):
        rng = np.random.default_rng(44)
        p = np.array([0.3, -1.7, 2.2])
        # A static source is a zero-width split.
        w = make_branch_pair("A", 0.0, 0.5, 0.5, 0.5, base=p, window=(0.0, 2.0)).right
        ev = self.events(rng, 500)
        d = np.linalg.norm(ev[:, 1:] - p, axis=-1)
        assert np.array_equal(qcl.kernels._light_cone_times(ev, w, advanced=False), ev[:, 0] - d)
        assert np.array_equal(qcl.kernels._light_cone_times(ev, w, advanced=True), ev[:, 0] + d)

    def test_position_work_per_event_is_bounded(self, monkeypatch):
        # Counts Worldline.position points evaluated inside the solve over
        # three mutual reports, the pairings' light-cone panel edges
        # included.  The closed form costs 1 per event and Newton a few
        # more; a solve that fell back to bisection would cost ~60.
        rng = np.random.default_rng(0)
        scenarios = [mutual_scenario(rng) for _ in range(3)]
        counts = {"events": 0, "points": 0, "inside": False}
        solve, position = qcl.kernels._light_cone_times, Worldline.position

        def counted_solve(events, w, *, advanced):
            counts["events"] += len(events)
            counts["inside"] = True
            try:
                return solve(events, w, advanced=advanced)
            finally:
                counts["inside"] = False

        def counted_position(self, ts):
            if counts["inside"]:
                counts["points"] += int(np.size(ts))
            return position(self, ts)

        monkeypatch.setattr(qcl.kernels, "_light_cone_times", counted_solve)
        monkeypatch.setattr(Worldline, "position", counted_position)
        for s in scenarios:
            build_report(s)
        assert counts["events"] > 1000
        assert counts["points"] <= 8 * counts["events"]


class TestBackgroundFields:
    def test_smeared_coulomb_background(self, spec):
        field = coulomb_background(2.0, (0.0, 0.0, 0.0), spec)
        out = field(np.array([[0.0, 0.3, 0.0, 0.0]]))
        assert out[0, 0] == smeared_coulomb(0.3, 2.0, spec)

    def test_pure_gauge_components(self):
        chi_t = lambda ev: np.cos(ev[..., 0]) * (ev[..., 1] + 2.0 * ev[..., 2] - ev[..., 3])
        chi_grad = lambda ev: np.sin(ev[..., 0])[..., None] * np.array([1.0, 2.0, -1.0])
        field = oracles.pure_gauge_background(chi_t, chi_grad)
        ev = np.array([[0.7, 0.2, -0.4, 1.1]])
        out = field(ev)
        assert out[0, 0] == math.cos(0.7) * (0.2 - 0.8 - 1.1)
        assert np.array_equal(out[0, 1:], -math.sin(0.7) * np.array([1.0, 2.0, -1.0]))
