"""Worldline geometry: split branches, the branch checks, the mirror pair, causal margins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.geometry import (
    BranchPair,
    Worldline,
    causal_margin,
    make_branch_pair,
)

import oracles
from conftest import mutual_scenario, one_way_scenario, spacelike_scenario


class TestSplitPath:
    def test_rest_before_and_after(self):
        w = make_branch_pair("A", 0.8, 1.0, 0.9, 1.2, base=(0.5, -0.25, 2.0)).right
        for t in (-3.0, 0.0, 0.999, 4.1, 7.0):
            assert np.array_equal(w.position(np.array([t]))[0], [0.5, -0.25, 2.0])
            assert np.all(w.velocity(np.array([t])) == 0.0)

    def test_hold_displacement_is_half_L(self):
        # Dyadic parameters so hold-window times map to ramp fractions >= 1
        # without rounding and the plateau equality is bitwise.
        L, t0, ramp, hold = 0.5, 1.0, 0.5, 1.25
        w = make_branch_pair("A", L, t0, ramp, hold, axis=(0, 1, 0)).right
        t_mid = t0 + ramp + hold / 2.0
        assert w.position(np.array([t_mid]))[0, 1] == L / 2.0
        ts = np.linspace(t0 + ramp, t0 + ramp + hold, 64)
        assert np.all(w.position(ts)[:, 1] == L / 2.0)
        assert np.all(w.velocity(ts) == 0.0)

    def test_orientation_mirrors_bitwise(self):
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0)
        right, left = pair.right, pair.left
        ts = np.linspace(0.0, 3.5, 777)
        assert np.array_equal(right.position(ts)[:, 1], -left.position(ts)[:, 1])
        assert np.array_equal(right.velocity(ts)[:, 1], -left.velocity(ts)[:, 1])

    def test_peak_speed_matches_closed_form(self):
        L, ramp = 0.9, 1.1
        w = make_branch_pair("A", L, 0.5, ramp, 0.7).right
        ts = np.linspace(*w.window, 200001)
        measured = np.linalg.norm(w.velocity(ts), axis=-1).max()
        assert measured == pytest.approx(15.0 * L / (16.0 * ramp), abs=1e-8)

    def test_superluminal_parameters_rejected(self):
        with pytest.raises(ValueError, match="not below 1"):
            make_branch_pair("A", 1.1, 0.5, 0.6, 0.5)

    def test_zero_width_split_is_static(self):
        w = make_branch_pair("A", 0.0, 0.5, 0.8, 1.0, base=(1.0, 2.0, 3.0)).right
        ts = np.linspace(*w.window, 257)
        assert np.all(w.position(ts) == np.array([1.0, 2.0, 3.0]))
        assert np.all(w.velocity(ts) == 0.0)

    @given(L=st.floats(0.05, 1.2), ramp_factor=st.floats(1.05, 3.0),
           hold=st.floats(0.0, 2.0), t0=st.floats(-1.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_speed_cap_on_dense_grid(self, L, ramp_factor, hold, t0):
        ramp = 15.0 * L / 16.0 * ramp_factor
        w = make_branch_pair("A", L, t0, ramp, hold).right
        ts = np.linspace(*w.window, 10000)
        assert np.linalg.norm(w.velocity(ts), axis=-1).max() < 1.0


class TestWorldline:
    """Every branch check lives in Worldline itself."""

    def test_superluminal_path_rejected(self):
        with pytest.raises(ValueError, match="not below 1"):
            Worldline(1.0, (0.0, 2.5), (0, 0, 0), (0, 1, 0), 0.6, 0.5, 0.3, 0.5)

    @pytest.mark.parametrize("amplitude", [0.8, -0.8])
    def test_light_speed_peak_rejected(self, amplitude):
        # 15 * 0.8 / (8 * 1.5) is exactly 1: the bound is strict.
        with pytest.raises(ValueError, match="not below 1"):
            Worldline(1.0, (0.0, 5.0), (0, 0, 0), (0, 1, 0), amplitude, 0.5, 1.5, 0.5)

    def test_excursion_outside_window_rejected(self):
        for window in ((0.0, 2.0), (0.5, 4.0)):
            with pytest.raises(ValueError, match="whole excursion"):
                Worldline(1.0, window, (0, 0, 0), (0, 1, 0), 0.25, 0.4, 0.6, 0.8)

    def test_window_shorter_than_excursion_rejected(self):
        # The excursion [0.2, 1.5] starts with the window but outlasts it.
        with pytest.raises(ValueError, match="whole excursion"):
            Worldline(charge=1.0, window=(0.2, 0.9), base=(0, 0, 0), axis=(0, 1, 0),
                      amplitude=0.4, t0=0.2, ramp=0.5, hold=0.3)

    @pytest.mark.parametrize("ramp", [0.0, -0.5])
    def test_non_positive_ramp_rejected(self, ramp):
        with pytest.raises(ValueError, match="ramp must be positive"):
            Worldline(1.0, (-1.0, 5.0), (0, 0, 0), (0, 1, 0), 0.25, 0.4, ramp, 0.8)

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError, match="hold must be non-negative"):
            Worldline(1.0, (0.0, 5.0), (0, 0, 0), (0, 1, 0), 0.25, 0.4, 0.6, -0.1)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="axis must be a nonzero vector"):
            Worldline(1.0, (0.0, 5.0), (0, 0, 0), (0.0, 0.0, 0.0), 0.25, 0.4, 0.6, 0.8)

    def test_axis_is_normalised(self):
        w = Worldline(1.0, (0.0, 5.0), (0, 0, 0), (0, 3, 4), 0.25, 0.4, 0.6, 0.8)
        assert np.array_equal(w.axis, [0.0, 0.6, 0.8])


class TestBranchPair:
    @pytest.mark.parametrize("base, axis", [
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, -2.0, 0.5), (0.3, 1.0, -0.4)),
        ((-0.7, 0.2, 3.3), (1.0, 1.0, 1.0)),
    ])
    def test_left_is_the_mirrored_split_path(self, base, axis):
        pair = make_branch_pair("A", 0.7, 0.6, 0.9, 1.1, charge=1.3, base=base, axis=axis,
                                window=(0.2, 4.3))
        # Built independently from the same raw axis, normalised once.
        want = Worldline(1.3, (0.2, 4.3), base, axis, -0.7 / 2.0, 0.6, 0.9, 1.1)
        ts = np.linspace(-1.0, 5.5, 1301)  # past both ends of the window
        for f in ("position", "velocity", "offset"):
            assert np.array_equal(getattr(pair.left, f)(ts), getattr(want, f)(ts)), f
        assert (pair.left.charge, pair.left.window) == (want.charge, want.window)

    def test_split_window_is_the_excursion(self):
        t0, ramp, hold = 0.6, 0.9, 1.1
        pair = make_branch_pair("A", 0.7, t0, ramp, hold)
        assert pair.split_window == (t0, t0 + 2 * ramp + hold)

    def test_branches_coincide_outside_split_window(self):
        pair = make_branch_pair("A", 0.7, 0.6, 0.9, 1.1, charge=1.3)
        a, b = pair.split_window
        w0, w1 = pair.right.window
        ts = np.concatenate([np.linspace(w0 - 1.0, a, 40)[:-1], np.linspace(b, w1 + 1.0, 40)[1:]])
        assert np.array_equal(pair.right.position(ts), pair.left.position(ts))
        assert np.array_equal(pair.right.velocity(ts), pair.left.velocity(ts))
        # At the closure endpoints float noise in the ramp polynomial is allowed.
        for t in (a, b):
            assert np.linalg.norm(pair.right.position(t) - pair.left.position(t)) < 1e-12

    def test_left_keeps_the_right_axis_bits(self):
        # Normalising (0.3, 1, -0.4) a second time moves its last bits, so
        # a left branch built as a new Worldline would not be an exact mirror.
        pair = make_branch_pair("A", 0.7, 0.6, 0.9, 1.1, axis=(0.3, 1.0, -0.4))
        r, l = pair.right, pair.left
        renormalised = Worldline(r.charge, r.window, r.base, r.axis, -r.amplitude,
                                 r.t0, r.ramp, r.hold)
        assert not np.array_equal(renormalised.axis, r.axis)
        assert l is not r
        assert np.array_equal(l.axis, r.axis) and np.array_equal(l.base, r.base)
        assert (l.t0, l.ramp, l.hold) == (r.t0, r.ramp, r.hold)
        assert l.amplitude == -r.amplitude == -0.35

    def test_left_and_split_window_are_not_arguments(self):
        pair = make_branch_pair("A", 0.7, 0.6, 0.9, 1.1)
        with pytest.raises(TypeError):
            BranchPair("A", pair.right, pair.left)
        with pytest.raises(TypeError):
            BranchPair("A", pair.right, split_window=pair.split_window)

    def test_rebuilt_from_right_is_the_same_pair(self):
        pair = make_branch_pair("A", 0.7, 0.6, 0.9, 1.1, charge=-1.3, axis=(-0.6, 0.8, 0.3))
        again = BranchPair(pair.label, pair.right)
        ts = np.linspace(0.0, 4.0, 401)
        for f in ("position", "velocity", "offset"):
            assert np.array_equal(getattr(again.left, f)(ts), getattr(pair.left, f)(ts)), f
        assert again.split_window == pair.split_window
        assert again.left.charge == pair.right.charge == -1.3

    def test_excursion_filling_the_window_accepted(self):
        t_end = 0.4 + 2 * 0.6 + 0.8
        pair = BranchPair("A", Worldline(1.0, (0.4, t_end), (0, 0, 0), (0, 1, 0),
                                         0.25, 0.4, 0.6, 0.8))
        assert pair.split_window == pair.right.window == (0.4, 0.4 + 2 * 0.6 + 0.8)

    def test_static_degenerate_pair_is_clean(self):
        # A zero split is still a pair: its branches coincide at all times.
        pair = make_branch_pair("A", 0.0, 0.5, 0.8, 1.0)
        ts = np.linspace(-1.0, 4.0, 501)
        assert np.array_equal(pair.right.position(ts), pair.left.position(ts))
        assert np.array_equal(pair.right.velocity(ts), pair.left.velocity(ts))
        assert pair.split_window == (0.5, 0.5 + 2 * 0.8 + 1.0)


class TestCausalStructure:
    def test_margin_positive_for_distant_pairs(self, rng):
        s = spacelike_scenario(rng)
        assert causal_margin(s.pair_A, s.pair_B) > 0.0
        assert causal_margin(s.pair_B, s.pair_A) > 0.0
        assert s.spacelike

    def test_margin_signs_for_one_way(self, rng):
        s = one_way_scenario(rng)
        # B's split is in A's future: the B-probe margin must be negative.
        assert causal_margin(s.pair_B, s.pair_A) < 0.0
        assert causal_margin(s.pair_A, s.pair_B) > 0.0
        assert not s.spacelike

    def test_margin_negative_for_mutual_contact(self, rng):
        s = mutual_scenario(rng)
        assert causal_margin(s.pair_A, s.pair_B) < 0.0
        assert causal_margin(s.pair_B, s.pair_A) < 0.0
        assert not s.spacelike

    def test_margin_close_to_geometric_value(self):
        # Static pairs at distance D with equal split windows of length S:
        # the margin is D - S exactly.
        w = (0.0, 3.0)
        a = make_branch_pair("A", 0.0, 0.5, 0.5, 1.0, base=(0, 0, 0), window=w)
        b = make_branch_pair("B", 0.0, 0.5, 0.5, 1.0, base=(6.0, 0, 0), window=w)
        S = 2 * 0.5 + 1.0
        m = causal_margin(a, b)
        assert m == 6.0 - S

    def test_margin_is_never_below_the_grid_bound(self):
        signs = set()
        rng = np.random.default_rng(1101)
        for _ in range(200):
            probe, source = _random_pair(rng, "A"), _random_pair(rng, "B")
            m = causal_margin(probe, source)
            assert m >= oracles.causal_margin_grid_bound(probe, source)
            signs.add(m > 0.0)
        assert signs == {True, False}

    def test_margin_equals_a_dense_scan(self):
        signs = set()
        rng = np.random.default_rng(1102)
        for _ in range(40):
            probe, source = _random_pair(rng, "A"), _random_pair(rng, "B")
            m = causal_margin(probe, source)
            assert abs(m - oracles.causal_margin_scan(probe, source, 400)) <= 1e-12
            signs.add(m > 0.0)
        assert signs == {True, False}


def _random_pair(rng, label):
    """A split with a random rest point, tilted axis, L, ramp, hold and t0; peak speed <= 15/16."""
    L = rng.uniform(0.0, 1.2)
    return make_branch_pair(label, L, rng.uniform(-1.0, 2.0), L * rng.uniform(1.0, 3.0) + 0.05,
                            rng.uniform(0.0, 1.5), base=rng.uniform(-2.0, 2.0, 3),
                            axis=rng.normal(size=3))
