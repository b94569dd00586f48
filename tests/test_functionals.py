"""Dephasing and phase functionals: exact cancellations, cross-route checks."""

import dataclasses
import math

import numpy as np
import pytest

import qcl.functionals
from qcl.functionals import (
    _branch_pairing_with_error,
    _gamma_integrand,
    build_report,
    commutator_functional,
    gamma,
    gamma_momentum,
    phi_pairing,
    phi_self,
    reusing_gamma,
)
from qcl.geometry import Scenario, causal_margin, make_branch_pair
from qcl.kernels import KernelSpec, _lw_batch, coulomb_background, pure_gauge_background
from qcl.quadrature import NumericFailure, panel_gauss_nodes
from qcl.quantum import rho_A

import oracles
from conftest import count_adaptive_2d, mutual_scenario, one_way_scenario, spacelike_scenario


class TestGamma:
    def test_degenerate_pair_is_exactly_zero(self, spec):
        pair = make_branch_pair("A", 0.0, 0.4, 0.8, 1.0)
        assert gamma(pair, spec) == 0.0

    def test_positive_for_open_splits(self, spec, rng):
        for _ in range(3):
            L = rng.uniform(0.3, 0.8)
            pair = make_branch_pair("A", L, 0.4, L * rng.uniform(1.3, 1.8),
                                    rng.uniform(0.6, 1.2))
            assert gamma(pair, spec) > 0.0

    def test_charge_doubling_quadruples_bitwise(self, spec):
        p1 = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.0)
        p2 = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=2.0)
        assert gamma(p2, spec) == 4.0 * gamma(p1, spec)

    def test_agrees_with_momentum_route(self, spec):
        pair = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        a = gamma(pair, spec)
        b = gamma_momentum(pair, spec)
        assert abs(a - b) / a < 1e-4


def _gamma_work(monkeypatch, pair, spec):
    """Gamma with its adaptive_2d integrand points and hadamard_dt_r points counted."""
    counts = {"integrand": 0, "hadamard": 0}
    quad, kernel = qcl.functionals.adaptive_2d, qcl.functionals.hadamard_dt_r

    def counted_quad(f, *args, **kwargs):
        def counted_f(ts, us):
            counts["integrand"] += ts.size
            return f(ts, us)
        return quad(counted_f, *args, **kwargs)

    def counted_kernel(dt, r, s):
        counts["hadamard"] += np.broadcast(dt, r).size
        return kernel(dt, r, s)

    monkeypatch.setattr(qcl.functionals, "adaptive_2d", counted_quad)
    monkeypatch.setattr(qcl.functionals, "hadamard_dt_r", counted_kernel)
    return gamma(pair, spec), counts


class TestGammaMirrorPath:
    def test_mirror_matches_four_term_integrand(self):
        # Both routes hand the kernel the same separations up to their last
        # bits.  Near coincidence (0 < r << sigma) the direct Dawson form
        # loses digits as sigma / r (see TestHadamardKernel), so the bound
        # is 1e-14 of the integrand's scale plus that rounding of the kernel.
        rng = np.random.default_rng(717)
        eps = np.finfo(float).eps
        for _ in range(10):
            L = rng.uniform(0.3, 0.8)
            sigma = rng.uniform(0.05, 0.09)
            spec = KernelSpec(sigma=sigma)
            pair = make_branch_pair("P", L, rng.uniform(0.2, 0.5), L * rng.uniform(1.3, 1.8),
                                    rng.uniform(0.2, 1.2), base=rng.uniform(-3.0, 3.0, 3),
                                    axis=rng.normal(size=3))
            a, b = pair.split_window
            nodes, _ = panel_gauss_nodes(a, b, 12, 8)
            ts, us = (x.ravel() for x in np.meshgrid(nodes, nodes))
            ts = np.concatenate([ts, rng.uniform(a, b, 8000)])
            us = np.concatenate([us, rng.uniform(a, b, 8000)])
            mirror = _gamma_integrand(pair, spec)(ts, us)
            general = oracles.gamma_four_term_integrand(pair, spec)(ts, us)
            d_t, d_u = pair.right.displacement(ts), pair.right.displacement(us)
            seps = np.stack([np.abs(d_t - d_u), np.abs(d_t + d_u)])
            r_near = np.maximum(np.where(seps > 0.0, seps, np.inf).min(axis=0), 1e-7 * sigma)
            bound = 1e-14 * np.abs(general).max() + 16.0 * eps / (math.pi ** 2 * sigma * r_near)
            assert np.all(np.abs(mirror - general) <= bound)

    def test_mirror_work_count(self, spec, monkeypatch):
        # Two kernel points per integrand point.  The integrand point count
        # is the four-term route's, frozen: folding the mirror changes the
        # cost of a point, not which points the quadrature asks for.
        pair = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        _, counts = _gamma_work(monkeypatch, pair, spec)
        assert counts["integrand"] == 106_880
        assert counts["hadamard"] == 2 * counts["integrand"]

    @pytest.mark.parametrize("base, axis, window", [
        ((0.0, 0.0, 0.0), (0.3, 1.0, -0.4), None),
        ((3.1, 0.3, -0.2), (0.0, 1.0, 0.0), None),
        ((-1.7, 2.2, 0.9), (1.0, 1.0, 1.0), None),
        ((0.4, -0.5, 6.0), (-0.6, 0.8, 0.3), None),
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, 3.0)),
        ((-1.7, 2.2, 0.9), (-0.6, 0.8, 0.3), (-4.0, 11.5)),
    ])
    def test_bitwise_invariant_under_axis_and_rest_point(self, spec, base, axis, window):
        # Also under the window: reusing_gamma's key leaves out all three.
        standard = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        moved = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2, base=base, axis=axis,
                                 window=window)
        assert gamma(moved, spec) == gamma(standard, spec)


class TestReusingGamma:
    def test_reuses_across_rest_point_axis_and_window(self, spec, monkeypatch):
        calls = count_adaptive_2d(monkeypatch)
        standard = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        moved = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2, base=(3.1, 0.3, -0.2),
                                 axis=(0.3, 1.0, -0.4), window=(-4.0, 11.5))
        with reusing_gamma():
            first = gamma(standard, spec)
            assert gamma(moved, spec) == first
        assert calls == {"gamma[A]": 1}
        assert gamma(standard, spec) == first
        assert calls == {"gamma[A]": 2}

    def test_key_is_exact_bits(self, spec, monkeypatch):
        # One quadrature per pair: each differs from the first in one key
        # field, a float of it by as little as its sign or last bit.
        calls = count_adaptive_2d(monkeypatch)
        pairs = [
            make_branch_pair("A", 0.0, 0.3, 0.9, 0.8),
            make_branch_pair("A", -0.0, 0.3, 0.9, 0.8),
            make_branch_pair("B", 0.0, 0.3, 0.9, 0.8),
            make_branch_pair("A", 0.0, 0.3, 0.9, 0.8, charge=math.nextafter(1.0, 2.0)),
            make_branch_pair("A", 0.0, math.nextafter(0.3, 1.0), 0.9, 0.8),
            make_branch_pair("A", 0.0, 0.3, math.nextafter(0.9, 1.0), 0.8),
            make_branch_pair("A", 0.0, 0.3, 0.9, math.nextafter(0.8, 1.0)),
        ]
        specs = [spec, dataclasses.replace(spec, quad_tol=math.nextafter(spec.quad_tol, 1.0))]
        with reusing_gamma():
            for s in specs:
                for pair in pairs:
                    gamma(pair, s)
                    gamma(pair, s)
        assert sum(calls.values()) == len(pairs) * len(specs)

    def test_failure_is_stored_and_raised_again(self, spec, monkeypatch):
        calls = count_adaptive_2d(monkeypatch, fail={"gamma[A]"})
        pair = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8)
        with reusing_gamma():
            for _ in range(3):
                with pytest.raises(NumericFailure):
                    gamma(pair, spec)
        assert calls == {"gamma[A]": 1}


class TestPhiSelf:
    def test_mirror_pair_has_zero_own_phase(self, spec):
        # -(q^2/2) times the exactly-zero own-field integral: report.json
        # writes its sign ("-0"), so the sign is pinned too.
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        assert phi_self(pair, spec) == 0.0
        assert math.copysign(1.0, phi_self(pair, spec)) == -1.0

    @pytest.mark.parametrize("base, axis", [
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((3.1, 0.3, -0.2), (0.3, 1.0, -0.4)),
        ((-1.7, 2.2, 0.9), (-0.6, 0.8, 0.3)),
    ])
    def test_own_field_terms_cancel_bitwise(self, spec, base, axis):
        # Why phi_self returns -0.0 without quadrature: the offsets and
        # velocities of the two branches are exact negatives, so RR equals
        # LL and RL equals LR at every (t, lag), not just in the integral.
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1, base=base, axis=axis)
        a, b = pair.split_window
        rng = np.random.default_rng(41)
        t_nodes, _ = panel_gauss_nodes(a, b, 12, 8)
        w_nodes, _ = panel_gauss_nodes(0.0, 1.5, 12, 8)
        ts, lags = (x.ravel() for x in np.meshgrid(t_nodes, w_nodes))
        ts = np.concatenate([ts, rng.uniform(a, b, 4000)])
        lags = np.concatenate([lags, rng.uniform(0.0, 1.5, 4000)])
        terms = oracles.own_field_terms(pair, spec)(ts, lags)
        assert np.array_equal(terms["RR"], terms["LL"])
        assert np.array_equal(terms["RL"], terms["LR"])
        assert np.abs(terms["RL"] - terms["RR"]).max() > 0.0
        assert np.all((terms["RR"] - terms["LL"]) + (terms["RL"] - terms["LR"]) == 0.0)

    @pytest.mark.parametrize("base, axis", [
        ((0.0, 0.3, 0.0), (0.0, 1.0, 0.0)),
        ((3.1, 0.3, -0.2), (0.0, 1.0, 0.0)),
        ((3.1, 0.3, -0.2), (0.3, 1.0, -0.4)),
    ])
    def test_rest_point_off_the_origin(self, spec, base, axis):
        # Separations within a pair come from the offsets d * axis, which
        # are exact negatives for the two branches.  Formed as base + d *
        # axis they would round differently for +d and -d, leaving noise
        # that phi_self cannot converge on (NumericFailure).
        pair = make_branch_pair("B", 0.6, 0.4, 0.9, 0.8, base=base, axis=axis,
                                window=(0.0, 3.5))
        at_origin = make_branch_pair("B", 0.6, 0.4, 0.9, 0.8, axis=axis, window=(0.0, 3.5))
        assert phi_self(pair, spec) == 0.0
        assert gamma(pair, spec) == gamma(at_origin, spec)

    def test_coulomb_background_term(self, spec):
        # An external charge off the split's mirror plane breaks the
        # symmetry; the acquired phase must match direct quadrature of
        # the potential difference along the two branches.
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        field = coulomb_background(0.9, (0.3, 0.5, 0.0), spec)
        got = phi_self(pair, spec, background=field)
        want = oracles.background_phase_term(pair, field)
        assert got == pytest.approx(want, rel=1e-9)

    def test_background_on_mirror_plane_drops_out(self, spec):
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        field = coulomb_background(0.9, (0.3, 0.0, 0.4), spec)
        assert phi_self(pair, spec, background=field) == 0.0

    def test_pure_gauge_background_is_invisible(self, spec):
        # A = (chi_t, -grad chi) contracts with the branch difference to
        # a total derivative of chi, and the branches share endpoints.
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        chi_t = lambda ev: 0.4 * np.cos(ev[..., 0]) * ev[..., 2]
        chi_grad = lambda ev: np.stack([
            np.zeros_like(ev[..., 0]),
            0.4 * np.sin(ev[..., 0]) * np.ones_like(ev[..., 0]),
            np.zeros_like(ev[..., 0]),
        ], axis=-1)
        gauge = pure_gauge_background(chi_t, chi_grad)
        assert abs(phi_self(pair, spec, background=gauge)) < 1e-12


class TestPairingPhases:
    def test_spacelike_pairings_vanish_bitwise(self, rng):
        s = spacelike_scenario(rng)
        # The probe only ever samples the source's branch-coincident
        # field, which is mirror symmetric across the probe's split
        # plane: each per-branch pairing integrand cancels node by node.
        assert _branch_pairing_with_error(s.pair_A, s.pair_B.right, s.kernel)[0] == 0.0
        assert _branch_pairing_with_error(s.pair_A, s.pair_B.left, s.kernel)[0] == 0.0
        assert phi_pairing(s.pair_A, s.pair_B, s.kernel) == 0.0
        assert phi_pairing(s.pair_B, s.pair_A, s.kernel) == 0.0

    def test_one_way_influence_is_directional(self, rng):
        s = one_way_scenario(rng)
        assert phi_pairing(s.pair_A, s.pair_B, s.kernel) == 0.0
        assert phi_pairing(s.pair_B, s.pair_A, s.kernel) != 0.0

    def test_mutual_contact_phases_both_nonzero(self, rng):
        s = mutual_scenario(rng)
        assert phi_pairing(s.pair_A, s.pair_B, s.kernel) != 0.0
        assert phi_pairing(s.pair_B, s.pair_A, s.kernel) != 0.0


def _relaid(pair, base, axis, **split):
    """The split of ``pair`` (L, ramp, hold overridable) resting at base along axis."""
    p = pair.right
    kw = {"L": 2.0 * p.amplitude, "ramp": p.ramp, "hold": p.hold, **split}
    return make_branch_pair(pair.label, kw["L"], p.t0, kw["ramp"], kw["hold"],
                            charge=pair.charge, base=base, axis=axis, window=pair.window)


def _off_axis(s):
    """Scenario s with B at (D, y0, z0) and both splits along tilted axes."""
    return dataclasses.replace(
        s,
        pair_A=_relaid(s.pair_A, (0.0, 0.0, 0.0), (0.2, 1.0, 0.5)),
        pair_B=_relaid(s.pair_B, (s.D, 0.7, -0.4), (-0.6, 0.8, 0.3)),
    )


class TestOffAxisNoSignalling:
    # No mirror symmetry here: each per-branch pairing carries the other
    # particle's Coulomb phase, and only causality makes the branch
    # difference vanish.

    def test_spacelike_cross_phases_are_exact_zeros(self, rng):
        s = _off_axis(spacelike_scenario(rng))
        assert s.spacelike
        rep = build_report(s)
        assert rep.phi_A_BR != 0.0 and rep.phi_B_AR != 0.0
        assert rep.phi_AB == 0.0
        assert rep.phi_BA == 0.0

    def test_spacelike_rho_A_ignores_B_split_choices(self, rng):
        s = _off_axis(spacelike_scenario(rng))
        want = rho_A(build_report(s)).matrix
        p = s.pair_B.right
        for split in ({"L": p.amplitude}, {"ramp": 0.8 * p.ramp}, {"hold": 0.5 * p.hold}):
            pair_b = _relaid(s.pair_B, p.base, p.axis, **split)
            varied = dataclasses.replace(s, pair_B=pair_b)
            assert varied.spacelike
            assert np.array_equal(rho_A(build_report(varied)).matrix, want), split

    def test_one_way_influence_is_directional(self, rng):
        s = _off_axis(one_way_scenario(rng))
        assert causal_margin(s.pair_A, s.pair_B) > 0.0
        rep = build_report(s)
        assert rep.phi_AB == 0.0
        assert rep.phi_BA != 0.0


class TestCommutator:
    def test_matches_phase_asymmetry(self, rng):
        spec8 = KernelSpec(sigma=0.07, quad_tol=1e-8)
        s = one_way_scenario(rng)
        comm = commutator_functional(s.pair_A, s.pair_B, spec8)
        want = (phi_pairing(s.pair_B, s.pair_A, spec8)
                - phi_pairing(s.pair_A, s.pair_B, spec8))
        assert comm == pytest.approx(want, rel=1e-8)

    def test_swap_negates_bitwise(self, rng):
        s = mutual_scenario(rng)
        ab = commutator_functional(s.pair_A, s.pair_B, s.kernel)
        ba = commutator_functional(s.pair_B, s.pair_A, s.kernel)
        assert ba == -ab
        assert ab != 0.0

    def test_mutually_spacelike_is_exactly_zero(self, rng):
        s = spacelike_scenario(rng)
        assert commutator_functional(s.pair_A, s.pair_B, s.kernel) == 0.0


class TestNearTheLightCone:
    # Equal split windows [0.5, 2.5] at distance 2 + eps: the margin is eps
    # both ways, inside the 0.021 slack of oracles.causal_margin_grid_bound.
    @staticmethod
    def _scenario(eps):
        spec, w = KernelSpec(sigma=0.07), (0.0, 3.0)
        a = make_branch_pair("A", 0.4, 0.5, 0.5, 1.0, window=w)
        b = make_branch_pair("B", 0.4, 0.5, 0.5, 1.0, base=(2.0 + eps, 0.0, 0.0), window=w)
        return Scenario(pair_A=a, pair_B=b, kernel=spec, D=2.0 + eps, T=3.0, T_A=2.0, T_B=2.0)

    def test_just_outside_the_cone_is_spacelike_with_zero_cross_phases(self):
        s = self._scenario(0.01)
        assert s.spacelike is True
        rep = build_report(s)
        assert rep.phi_AB == 0.0 and rep.phi_BA == 0.0
        assert phi_pairing(s.pair_A, s.pair_B, s.kernel) == 0.0
        assert commutator_functional(s.pair_A, s.pair_B, s.kernel) == 0.0

    def test_just_inside_the_cone_is_not_spacelike(self):
        s = self._scenario(-0.01)
        assert s.spacelike is False
        assert build_report(s).phi_AB != 0.0


def _field_difference(pair, x):
    """Bare retarded four-potential of the right branch minus the left's at event x."""
    ev = np.array([x], dtype=float)
    return (_lw_batch(ev, pair.right) - _lw_batch(ev, pair.left))[0]


class TestRetardedFieldDifference:
    def test_degenerate_pair_sources_nothing(self):
        pair = make_branch_pair("B", 0.0, 0.3, 0.6, 0.9, base=(2.0, 0.0, 0.0))
        assert np.array_equal(_field_difference(pair, (5.0, 0.0, 0.0, 0.0)), np.zeros(4))

    def test_probe_before_split_sees_nothing(self):
        pair = make_branch_pair("B", 0.5, 1.0, 0.7, 0.9, base=(2.0, 0.0, 0.0))
        # Backward cone of this event crosses the source branches at
        # tau = -1 < t0, where they still coincide.
        assert np.array_equal(_field_difference(pair, (1.0, 0.0, 0.0, 0.0)), np.zeros(4))

    def test_probe_inside_cone_sees_the_split(self):
        pair = make_branch_pair("B", 0.5, 1.0, 0.7, 0.9, base=(2.0, 0.0, 0.0))
        # Off the split's mirror plane, with the crossing inside the
        # displaced era, the two branch potentials cannot agree.
        assert np.any(_field_difference(pair, (4.0, 0.0, 0.3, 0.0)) != 0.0)


class TestBuildReport:
    def test_degenerate_scenario_reports_all_zero(self, spec):
        pa = make_branch_pair("A", 0.0, 0.2, 0.2, 0.2, window=(0.0, 1.0))
        pb = make_branch_pair("B", 0.0, 0.2, 0.2, 0.2, base=(10.0, 0.0, 0.0),
                              window=(0.0, 1.0))
        sc = Scenario(pair_A=pa, pair_B=pb, kernel=spec, D=10.0, T=1.0,
                      T_A=0.6, T_B=0.6)
        rep = build_report(sc)
        for name in ("gamma_A", "gamma_B", "phi_A", "phi_B", "phi_A_BR",
                     "phi_A_BL", "phi_B_AR", "phi_B_AL", "phi_AB", "phi_BA",
                     "quad_error"):
            assert getattr(rep, name) == 0.0, name
        assert rep.spacelike is True
        assert rep.sigma == spec.sigma

    def test_directional_phases_consistent_with_pairings(self, rng):
        s = mutual_scenario(rng)
        rep = build_report(s)
        assert rep.phi_AB == rep.phi_A_BR - rep.phi_A_BL
        assert rep.phi_BA == rep.phi_B_AR - rep.phi_B_AL
        assert rep.quad_error > 0.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", [one_way_scenario, mutual_scenario])
    def test_phi_pairing_matches_report_within_quad_error(self, family, seed):
        # phi_pairing is one integral of the source's branch-difference
        # field; the report's phi_AB is a difference of two per-branch
        # integrals.  Both contract the same probe-phase integrand.
        s = family(np.random.default_rng(seed))
        rep = build_report(s)
        assert abs(phi_pairing(s.pair_A, s.pair_B, s.kernel) - rep.phi_AB) <= rep.quad_error
        assert abs(phi_pairing(s.pair_B, s.pair_A, s.kernel) - rep.phi_BA) <= rep.quad_error

    def test_quad_error_is_invariant_under_charge_negation(self):
        # Every error term scales with q^2 or |q|, so the error budget
        # cannot shrink when the charges change sign.
        s = mutual_scenario(np.random.default_rng(0))
        field = coulomb_background(0.9, (0.3, 0.5, 0.0), s.kernel)

        def negated(pair):
            return dataclasses.replace(pair, right=dataclasses.replace(pair.right, charge=-pair.charge))

        pos = build_report(dataclasses.replace(s, background=field))
        neg = build_report(dataclasses.replace(
            s, pair_A=negated(s.pair_A), pair_B=negated(s.pair_B), background=field,
        ))
        assert neg.quad_error == pos.quad_error

    def test_spacelike_flag_and_zero_cross_phases(self, rng):
        s = spacelike_scenario(rng)
        rep = build_report(s)
        assert rep.spacelike is True
        assert rep.phi_AB == 0.0
        assert rep.phi_BA == 0.0
        assert rep.gamma_A > 0.0
        assert rep.gamma_B > 0.0

    def test_round_trip_dict(self, rng):
        s = mutual_scenario(rng)
        rep = build_report(s)
        d = rep.to_dict()
        assert set(d) == {
            "gamma_A", "gamma_B", "phi_A", "phi_B", "phi_A_BR", "phi_A_BL",
            "phi_B_AR", "phi_B_AL", "phi_AB", "phi_BA", "sigma",
            "quad_error", "spacelike",
        }
        assert d["gamma_A"] == rep.gamma_A
        assert d["spacelike"] == rep.spacelike
