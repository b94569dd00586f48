"""Dephasing and phase functionals: exact cancellations, cross-route checks."""

import dataclasses
import math

import numpy as np
import pytest

import qcl.functionals
from qcl.functionals import (
    DecoherenceReport,
    _branch_pairing_with_error,
    _commutator_with_error,
    _gamma_integrand,
    _gamma_with_error,
    _one_sided_commutator,
    _pairings_with_error,
    _phi_pairing_with_error,
    _phi_self_with_error,
    _probe_phase,
    build_report,
    commutator_functional,
    gamma,
    gamma_momentum,
    phi_pairing,
    phi_self,
    reusing_gamma,
)
from qcl.geometry import Scenario, causal_margin, make_branch_pair
from qcl.kernels import KernelSpec, _cone_edges, _light_cone_times, _lw_batch, coulomb_background
from qcl.quadrature import NumericFailure, panel_gauss_nodes
from qcl.quantum import rho_A

import oracles
from conftest import (count_adaptive, mixed_scenarios, mutual_scenario, one_way_scenario,
                      spacelike_scenario)


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

    def test_tight_tolerance_converges(self):
        # Gamma samples separations just above r = 0 (a node on the ramp out
        # against one on the ramp back).  With the kernel accurate there to
        # about 1e-14 of its coincidence value, a 1e-11 target is reachable.
        pair = make_branch_pair("A", 0.5309, 0.3, 0.9220, 1.1312)
        value = gamma(pair, KernelSpec(sigma=0.05376, quad_tol=1e-11))
        assert value == pytest.approx(0.064423837262825, rel=1e-11)

    def test_agrees_with_momentum_route(self, spec):
        pair = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        a = gamma(pair, spec)
        b = gamma_momentum(pair, spec)
        assert abs(a - b) / a < 1e-4

    def test_momentum_pass_matches_two_branch_oracle(self):
        # The cosine form of J(k, mu) against the pass that evaluates both
        # branches' complex exponentials.  Coarse passes (bump 0) on short
        # splits keep the oracle cheap; sigma from 0.05 to 0.3, both signs.
        cases = [(0.05, 0.3, 0.3, 0.0, -0.8), (0.07, 0.4, 0.4, 0.1, 1.3),
                 (0.1, 0.5, 0.6, 0.3, -1.1), (0.15, 0.6, 0.7, 0.5, 1.6),
                 (0.2, 0.7, 0.9, 0.4, -1.4), (0.3, 0.8, 1.0, 0.8, 0.9)]
        for sigma, L, ramp, hold, q in cases:
            pair = make_branch_pair("A", L, 0.3, ramp, hold, charge=q)
            spec = KernelSpec(sigma=sigma)
            value = qcl.functionals._gamma_momentum_pass(pair, spec, 0)
            want = oracles.gamma_momentum_pass_two_branch(pair, spec, 0)
            assert value > 0.0
            assert abs(value - want) <= 1e-13 * want


# (Gamma_A, Gamma_B) of mixed_scenarios(1818, 2, 2, 2) at quad_tol 1e-11:
# two spacelike, two one-way and two mutual scenarios.
GAMMA_REFERENCES = [
    (0.05147792393247155, 0.12695353993951675),
    (0.08230578977441912, 0.15334748069430176),
    (0.05087378021690466, 0.22279738074763125),
    (0.22583389095282902, 0.23662137382189033),
    (0.0574485527789095, 0.20539227487510944),
    (0.09788854312350749, 0.2682164191403174),
]


class TestGammaErrorEstimate:
    @pytest.mark.parametrize("quad_tol", [1e-4, 1e-6, 1e-8])
    def test_estimate_bounds_true_error(self, quad_tol):
        scenarios = mixed_scenarios(1818, 2, 2, 2)
        for scenario, refs in zip(scenarios, GAMMA_REFERENCES, strict=True):
            spec = dataclasses.replace(scenario.kernel, quad_tol=quad_tol)
            for pair, ref in zip((scenario.pair_A, scenario.pair_B), refs):
                value, err = _gamma_with_error(pair, spec)
                assert abs(value - ref) <= err


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
        # bits.  Just above its 0.01 sigma hand-off to the short series the
        # direct Dawson form still loses digits as sigma / r (see
        # TestHadamardKernel), so the bound is 1e-14 of the integrand's
        # scale plus that rounding of the kernel, at r no less than 0.01 sigma.
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
            r_near = np.maximum(np.where(seps > 0.0, seps, np.inf).min(axis=0), 1e-2 * sigma)
            bound = 1e-14 * np.abs(general).max() + 16.0 * eps / (math.pi ** 2 * sigma * r_near)
            assert np.all(np.abs(mirror - general) <= bound)

    def test_mirror_work_count(self, spec, monkeypatch):
        # Two kernel points per integrand point.  The integrand point count
        # is frozen: Gamma's integrand is symmetric under t <-> u, so the
        # quadrature evaluates only the panels on or below the diagonal, and
        # the 2D estimate is the 8x8 rule's own error, so it stops at well
        # under 0.4 of the 56,320 points that |I_8x8 - I_4x4| took.
        pair = make_branch_pair("A", 0.6, 0.3, 0.9, 0.8, charge=1.2)
        _, counts = _gamma_work(monkeypatch, pair, spec)
        assert counts["integrand"] == 20_640
        assert counts["integrand"] <= 0.4 * 56_320
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
        calls = count_adaptive(monkeypatch, 2)
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
        calls = count_adaptive(monkeypatch, 2)
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
        calls = count_adaptive(monkeypatch, 2, fail={"gamma[A]"})
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
        gauge = oracles.pure_gauge_background(chi_t, chi_grad)
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
                            charge=pair.charge, base=base, axis=axis)


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


class TestProbePhaseStacking:
    # _probe_phase calls the potential once on both probe branches' events.
    # Every potential acts on each event alone, so value and error must be
    # bitwise those of one call per branch (oracles.probe_phase_per_branch).

    @staticmethod
    def _assert_bitwise(probe, potential, spec):
        got = _probe_phase(probe, potential, spec, "probe")
        want = oracles.probe_phase_per_branch(probe, potential, spec)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("layout", [lambda s: s, _off_axis], ids=["standard", "off_axis"])
    @pytest.mark.parametrize("family", [spacelike_scenario, one_way_scenario, mutual_scenario])
    def test_branch_source(self, family, layout):
        s = layout(family(np.random.default_rng(5)))
        for probe, source in ((s.pair_A, s.pair_B), (s.pair_B, s.pair_A)):
            for w in (source.right, source.left):
                self._assert_bitwise(probe, lambda ev: _lw_batch(ev, w), s.kernel)

    def test_source_difference(self):
        # The potential of phi_pairing.
        s = mutual_scenario(np.random.default_rng(5))
        b = s.pair_B
        self._assert_bitwise(
            s.pair_A, lambda ev: _lw_batch(ev, b.right) - _lw_batch(ev, b.left), s.kernel)

    def test_advanced_minus_retarded(self):
        # The potential of the commutator's one-sided integral.
        s = mutual_scenario(np.random.default_rng(5))
        b = s.pair_B

        def potential(ev):
            return (_lw_batch(ev, b.right, advanced=True) - _lw_batch(ev, b.left, advanced=True)
                    - _lw_batch(ev, b.right) + _lw_batch(ev, b.left))

        self._assert_bitwise(s.pair_A, potential, s.kernel)

    def test_coulomb_background(self, spec):
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        self._assert_bitwise(pair, coulomb_background(0.9, (0.3, 0.5, 0.0), spec), spec)

    # Each pairing hands _field_phase its field as a term tuple.  Value and
    # error must be bitwise _probe_phase's on the same potential and panel
    # edges built by hand.

    @staticmethod
    def _assert_door(got, probe, potential, spec, sources_by_direction):
        edges = [t for advanced, sources in sources_by_direction
                 for t in _cone_edges(probe, sources, advanced)]
        want = _probe_phase(probe, potential, spec, "probe", edges)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("layout", [lambda s: s, _off_axis], ids=["standard", "off_axis"])
    @pytest.mark.parametrize("family", [one_way_scenario, mutual_scenario])
    def test_door_one_branch(self, family, layout):
        s = layout(family(np.random.default_rng(5)))
        for probe, source in ((s.pair_A, s.pair_B), (s.pair_B, s.pair_A)):
            for w in (source.right, source.left):
                got = _branch_pairing_with_error(probe, w, s.kernel)
                self._assert_door(got, probe, lambda ev: _lw_batch(ev, w), s.kernel,
                                  [(False, (w,))])

    @pytest.mark.parametrize("negate", [False, True], ids=["positive", "negative"])
    def test_door_mirror_right(self, negate):
        s = mutual_scenario(np.random.default_rng(5))
        if negate:
            s = dataclasses.replace(s, pair_A=_negated(s.pair_A), pair_B=_negated(s.pair_B))
        for probe, source in ((s.pair_A, s.pair_B), (s.pair_B, s.pair_A)):
            right, left = _pairings_with_error(probe, source, s.kernel)
            w = source.right
            self._assert_door(right, probe, lambda ev: _lw_batch(ev, w), s.kernel,
                              [(False, (w,))])
            assert right[0] != 0.0
            assert [x.hex() for x in left] == [(0.0 - right[0]).hex(), right[1].hex()]

    def test_door_source_difference(self):
        s = mutual_scenario(np.random.default_rng(5))
        a, b = s.pair_A, s.pair_B
        got = _phi_pairing_with_error(a, b, s.kernel)
        self._assert_door(got, a, lambda ev: _lw_batch(ev, b.right) - _lw_batch(ev, b.left),
                          s.kernel, [(False, (b.right, b.left))])

    def test_door_advanced_minus_retarded(self):
        s = mutual_scenario(np.random.default_rng(5))
        a, b = s.pair_A, s.pair_B

        def potential(ev):
            return (_lw_batch(ev, b.right, advanced=True) - _lw_batch(ev, b.left, advanced=True)
                    - _lw_batch(ev, b.right) + _lw_batch(ev, b.left))

        got = _one_sided_commutator(a, b, s.kernel)
        sources = (b.right, b.left)
        self._assert_door(got, a, potential, s.kernel, [(False, sources), (True, sources)])


def _four_integral_report(s):
    """build_report's fields with each per-branch pairing integrated on its own."""
    spec = s.kernel
    ga, ega = _gamma_with_error(s.pair_A, spec)
    gb, egb = _gamma_with_error(s.pair_B, spec)
    pa, epa = _phi_self_with_error(s.pair_A, spec, s.background)
    pb, epb = _phi_self_with_error(s.pair_B, spec, s.background)
    p_abr, e1 = _branch_pairing_with_error(s.pair_A, s.pair_B.right, spec)
    p_abl, e2 = _branch_pairing_with_error(s.pair_A, s.pair_B.left, spec)
    p_bar, e3 = _branch_pairing_with_error(s.pair_B, s.pair_A.right, spec)
    p_bal, e4 = _branch_pairing_with_error(s.pair_B, s.pair_A.left, spec)
    return DecoherenceReport(
        gamma_A=ga, gamma_B=gb, phi_A=pa, phi_B=pb,
        phi_A_BR=p_abr, phi_A_BL=p_abl, phi_B_AR=p_bar, phi_B_AL=p_bal,
        phi_AB=p_abr - p_abl, phi_BA=p_bar - p_bal, sigma=spec.sigma,
        quad_error=ega + egb + epa + epb + e1 + e2 + e3 + e4, spacelike=s.spacelike,
    )


def _negated(pair):
    return dataclasses.replace(pair, right=dataclasses.replace(pair.right, charge=-pair.charge))


def _shared_offset(s, y):
    """Scenario s with both rest points moved by y along the split axis: not a mirror layout."""
    return dataclasses.replace(
        s,
        pair_A=_relaid(s.pair_A, (0.0, y, 0.0), (0.0, 1.0, 0.0)),
        pair_B=_relaid(s.pair_B, (s.D, y, 0.0), (0.0, 1.0, 0.0)),
    )


class TestMirrorShortcuts:
    # In a mirror layout build_report integrates one pairing per direction,
    # and none where the causal margin is positive.  Its report must equal,
    # bit for bit and signed zeros included, the one four integrals give.

    @staticmethod
    def _report_and_pairing_integrals(s, monkeypatch):
        calls = count_adaptive(monkeypatch, 1)
        with reusing_gamma():
            rep = build_report(s)
            n = sum(c for name, c in calls.items() if name.startswith("pairing["))
            want = _four_integral_report(s)
        return rep, n, want

    @pytest.mark.parametrize("negate", [False, True], ids=["positive", "negative"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("family, integrals", [
        (spacelike_scenario, 0), (one_way_scenario, 1), (mutual_scenario, 2),
    ])
    def test_standard_layout(self, family, integrals, seed, negate, monkeypatch):
        # Negative charges make zero pairings -0.0, which the shortcuts must keep.
        s = family(np.random.default_rng(seed))
        if negate:
            s = dataclasses.replace(s, pair_A=_negated(s.pair_A), pair_B=_negated(s.pair_B))
        rep, n, want = self._report_and_pairing_integrals(s, monkeypatch)
        assert n == integrals
        assert [repr(x) for x in dataclasses.astuple(rep)] == \
            [repr(x) for x in dataclasses.astuple(want)]

    @pytest.mark.parametrize("layout", [
        lambda s: _shared_offset(s, 0.7), lambda s: _shared_offset(s, 1.9), _off_axis,
    ], ids=["offset_0.7", "offset_1.9", "off_axis"])
    def test_other_layouts_integrate_all_four(self, layout, monkeypatch):
        s = layout(mutual_scenario(np.random.default_rng(7)))
        rep, n, want = self._report_and_pairing_integrals(s, monkeypatch)
        assert n == 4
        assert [repr(x) for x in dataclasses.astuple(rep)] == \
            [repr(x) for x in dataclasses.astuple(want)]

    @pytest.mark.parametrize("case", ["uncharged_probe", "unsplit_source"])
    def test_zero_right_phase_integrates_the_left(self, case, monkeypatch):
        # Every pairing is a zero here, in both directions.  A zero q * v can
        # hide the sign of q * (0.0 - v) (q = 0), so both branches are integrated.
        s = mutual_scenario(np.random.default_rng(0))
        a, b = s.pair_A, s.pair_B
        if case == "uncharged_probe":
            s = dataclasses.replace(s, pair_A=dataclasses.replace(
                a, right=dataclasses.replace(a.right, charge=0.0)))
        else:
            s = dataclasses.replace(s, pair_B=_relaid(b, b.right.base, b.right.axis, L=0.0))
        rep, n, want = self._report_and_pairing_integrals(s, monkeypatch)
        assert n == 4
        assert [repr(x) for x in dataclasses.astuple(rep)] == \
            [repr(x) for x in dataclasses.astuple(want)]

    @pytest.mark.parametrize("y", [0.7, 1.9])
    def test_shared_offset_breaks_the_mirror(self, y):
        # Why the mirror test asks for zero bases along the axis, not just a
        # zero (base_B - base_A) . axis: here that dot product is 0.0, yet
        # left and right pairings differ in their last bits (1 to 6 ulps),
        # both ways.  Other shared offsets can mirror by rounding, as seed 7
        # does at these y.
        s = _shared_offset(mutual_scenario(np.random.default_rng(18)), y)
        for probe, source in ((s.pair_A, s.pair_B), (s.pair_B, s.pair_A)):
            right = _branch_pairing_with_error(probe, source.right, s.kernel)[0]
            left = _branch_pairing_with_error(probe, source.left, s.kernel)[0]
            assert left != 0.0 - right
            assert left == pytest.approx(-right, rel=1e-14)


def _tilted_mirror(s):
    """Scenario s with both splits along (0, 0.6, 0.8): still a mirror layout."""
    return dataclasses.replace(
        s,
        pair_A=_relaid(s.pair_A, (0.0, 0.0, 0.0), (0.0, 0.6, 0.8)),
        pair_B=_relaid(s.pair_B, (s.D, 0.0, 0.0), (0.0, 0.6, 0.8)),
    )


def _crosscheck_layout(D, T, split_A, split_B):
    """Two pairs with sigma 0.07: A at the origin, B at (D, 0, 0), splits along y, window [0, T].

    Each split is (L, t0, charge), with ramp 0.45 and hold 0.35.
    """
    (la, ta, qa), (lb, tb, qb) = split_A, split_B
    return (make_branch_pair("A", la, ta, 0.45, 0.35, charge=qa, window=(0.0, T)),
            make_branch_pair("B", lb, tb, 0.45, 0.35, charge=qb, base=(D, 0.0, 0.0),
                             window=(0.0, T)))


# Two commutator layouts of the benchmark's crosscheck workload, frozen,
# with phi_BA at quad_tol 1e-12.  Without panel edges at the causal knots
# phi_BA missed its tolerance there: 1.1x at 1e-7 and 11x at 1e-8 on the
# one-way layout, 32x at 1e-8 on the mutual one.
KNOWN_MISSES = {
    "one_way_977_7": (
        _crosscheck_layout(2.0, 3.9499999999999997,
                           (0.32955126517518774, 0.3, 1.0353072250768518),
                           (0.3305633123567894, 2.3, 1.185071660139836)),
        -0.03247401907448718),
    "mutual_401_2": (
        _crosscheck_layout(0.8, 2.0,
                           (0.3228735177068204, 0.4, 1.1861450662116138),
                           (0.3032466302983956, 0.45, 1.0270861856213782)),
        0.04291797668979203),
}

# (phi_A_BR, phi_A_BL, phi_B_AR, phi_B_AL, phi_AB, phi_BA, commutator) of
# mixed_scenarios(1818, 2, 2, 2) at quad_tol 1e-12.
PAIRING_REFERENCES = [
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -0.0011159641954478288, 0.0011159641954478288, 0.0, -0.002231928390895658,
     -0.0022319283908956563),
    (0.0, 0.0, -0.013183909312331774, 0.013183909312331774, 0.0, -0.026367818624663548,
     -0.02636781862466354),
    (0.017505194888566146, -0.017505194888566146, 0.017193062522663328, -0.017193062522663328,
     0.03501038977713229, 0.034386125045326656, -0.0006242647318056316),
    (0.028662598602123415, -0.028662598602123415, 0.030186510859568402, -0.030186510859568402,
     0.05732519720424683, 0.060373021719136805, 0.003047824514889963),
]


class TestCausalKnotEdges:
    # A pairing integrand kinks at each probe time whose light-cone
    # crossing lands on a source knot; those times are panel edges.

    @pytest.mark.parametrize("case, quad_tol", [
        ("one_way_977_7", 1e-7), ("one_way_977_7", 1e-8), ("mutual_401_2", 1e-8),
    ])
    def test_known_misses_meet_their_tolerance(self, case, quad_tol):
        (pair_A, pair_B), ref = KNOWN_MISSES[case]
        value = phi_pairing(pair_B, pair_A, KernelSpec(sigma=0.07, quad_tol=quad_tol))
        assert abs(value - ref) <= quad_tol * abs(ref)

    @pytest.mark.parametrize("advanced", [False, True])
    @pytest.mark.parametrize("layout", [lambda s: s, _tilted_mirror], ids=["standard", "tilted"])
    @pytest.mark.parametrize("family", [one_way_scenario, mutual_scenario])
    def test_mirror_layout_edges_from_either_source_branch(self, family, layout, advanced):
        # Why build_report may integrate against source.right alone: the
        # left branch's knots give the same edges, bitwise, as a set.
        s = layout(family(np.random.default_rng(3)))
        inside = 0
        for probe, source in ((s.pair_A, s.pair_B), (s.pair_B, s.pair_A)):
            right = sorted(set(_cone_edges(probe, (source.right,), advanced)))
            left = sorted(set(_cone_edges(probe, (source.left,), advanced)))
            assert [x.hex() for x in right] == [x.hex() for x in left]
            a, b = probe.split_window
            inside += sum(a < t < b for t in right)
        assert inside > 0


class TestFieldPhaseKnots:
    # Every probe time whose light-cone crossing lands on a knot of a term's
    # source reaches adaptive_1d as a knot, for each field direction used.

    @pytest.mark.parametrize("layout", [lambda s: s, _off_axis], ids=["standard", "off_axis"])
    def test_knots_hold_every_term_crossing(self, layout, monkeypatch):
        s = layout(mutual_scenario(np.random.default_rng(3)))
        a, b = s.pair_A, s.pair_B
        knots = {}
        real = qcl.functionals.adaptive_1d

        def capture(f, *args, name, **kwargs):
            knots[name] = {float(t).hex() for t in kwargs["knots"]}
            return real(f, *args, name=name, **kwargs)

        monkeypatch.setattr(qcl.functionals, "adaptive_1d", capture)
        _branch_pairing_with_error(a, b.left, s.kernel)
        phi_pairing(a, b, s.kernel)
        _one_sided_commutator(a, b, s.kernel)
        both = [(b.right, False), (b.left, False)]
        terms = {"pairing[A]": [(b.left, False)], "phi_pairing[A,B]": both,
                 "commutator": [(b.right, True), (b.left, True), *both]}
        inside = 0
        for name, sources in terms.items():
            for w, advanced in sources:
                events = np.array([[t, *w.position(t)] for t in w.knots()])
                for wp, _ in a.branches():
                    for t in _light_cone_times(events, wp, advanced=not advanced):
                        assert float(t).hex() in knots[name], (name, advanced)
                        inside += a.split_window[0] < t < a.split_window[1]
        assert inside > 0


class TestPairingErrorEstimate:
    @staticmethod
    def _with_errors(scenario, spec):
        a, b = scenario.pair_A, scenario.pair_B
        return [_branch_pairing_with_error(a, b.right, spec),
                _branch_pairing_with_error(a, b.left, spec),
                _branch_pairing_with_error(b, a.right, spec),
                _branch_pairing_with_error(b, a.left, spec),
                _phi_pairing_with_error(a, b, spec),
                _phi_pairing_with_error(b, a, spec),
                _commutator_with_error(a, b, spec)]

    @pytest.mark.parametrize("quad_tol", [1e-6, 1e-8])
    def test_estimate_bounds_true_error(self, quad_tol):
        scenarios = mixed_scenarios(1818, 2, 2, 2)
        for scenario, refs in zip(scenarios, PAIRING_REFERENCES, strict=True):
            spec = dataclasses.replace(scenario.kernel, quad_tol=quad_tol)
            for (value, err), ref in zip(self._with_errors(scenario, spec), refs, strict=True):
                assert abs(value - ref) <= err


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
