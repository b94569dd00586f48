"""Tests for the truncated-Fock cross-check route.

The mode-sum route is deliberately independent of the quadrature stack:
branch overlaps are computed by evolving number-basis amplitudes with an
ODE integrator and taking literal inner products.  The tests here pin the
route against closed-form coherent-state results on a hand-solvable
instance, then check consistency with the influence-functional route.
"""

import math

import numpy as np
import pytest

from qcl.functionals import gamma
from qcl.geometry import make_branch_pair
from qcl.kernels import KernelSpec
from qcl.modes import (
    LeakageError,
    ModeSet,
    branch_overlap_exact,
    discrete_gamma_phi,
    joint_overlap_and_bound,
    pair_mode_set,
    random_mode_set,
)


def constant_coupling(value, n_modes=1):
    def g(ts):
        return np.full((n_modes, np.asarray(ts, dtype=float).size), value, dtype=complex)

    return g


def single_mode_set(n_max):
    # Constant coupling c over a window of length 2 displaces the mode by
    # |beta| = 2c.  With c = sqrt(2)/2 that gives |beta|^2 = 2, so the
    # decoherence exponent between the driven and undriven branches is
    # exactly 1 and the overlap magnitude is exactly exp(-1).
    c = math.sqrt(2.0) / 2.0
    return ModeSet(
        n_modes=1,
        window=(0.0, 2.0),
        n_max=n_max,
        couplings={"AR": constant_coupling(c)},
    )


class TestModeSetValidation:
    def test_no_modes_rejected(self):
        with pytest.raises(ValueError, match="n_modes must be at least 1"):
            ModeSet(n_modes=0, window=(0.0, 1.0), n_max=16, couplings={})

    def test_unknown_coupling_key_rejected(self):
        with pytest.raises(ValueError, match="unknown coupling keys"):
            ModeSet(
                n_modes=1,
                window=(0.0, 1.0),
                n_max=16,
                couplings={"XR": constant_coupling(0.1)},
            )

    def test_joint_coupling_rejects_single_particle_label(self):
        modes = single_mode_set(16)
        with pytest.raises(ValueError, match="label"):
            modes.joint_coupling("AR", np.array([0.0]))

    def test_joint_coupling_sums_both_particles(self):
        modes = ModeSet(
            n_modes=1,
            window=(0.0, 1.0),
            n_max=16,
            couplings={
                "AR": constant_coupling(0.25),
                "BL": constant_coupling(1.0j),
            },
        )
        ts = np.linspace(0.0, 1.0, 5)
        g_rl = modes.joint_coupling("RL", ts)
        assert g_rl.shape == (1, 5)
        assert np.all(g_rl == 0.25 + 1.0j)
        # The other joint labels pick up only the pieces that exist.
        assert np.all(modes.joint_coupling("RR", ts) == 0.25)
        assert np.all(modes.joint_coupling("LL", ts) == 1.0j)


class TestExactOverlap:
    def test_identical_labels_short_circuit(self):
        modes = single_mode_set(16)
        assert branch_overlap_exact(modes, "RL", "RL") == 1.0 + 0.0j

    def test_single_mode_magnitude_matches_coherent_state(self):
        ov = branch_overlap_exact(single_mode_set(20), "RR", "LR")
        assert abs(ov) == pytest.approx(math.exp(-1.0), abs=1e-10)
        # Real constant coupling leaves no relative phase behind.
        assert abs(ov.imag) < 1e-10

    def test_truncation_too_small_raises(self):
        # A displaced state with |beta|^2 = 2 still has ~2.5e-8 of its
        # population above level 14, over the leakage gate.
        with pytest.raises(LeakageError):
            branch_overlap_exact(single_mode_set(14), "RR", "LR")

    @pytest.mark.parametrize("n_max", [15, 18, 22, 28])
    def test_no_degradation_past_leakage_gate(self, n_max):
        # Once the gate passes, enlarging the basis must not move the
        # answer: every size sits at the ODE noise floor.
        ov = branch_overlap_exact(single_mode_set(n_max), "RR", "LR")
        assert abs(abs(ov) - math.exp(-1.0)) < 1e-10


class TestDisplacementRoute:
    def test_single_mode_exponent(self):
        g, p = discrete_gamma_phi(single_mode_set(16), "RR", "LR")
        assert g == pytest.approx(1.0, abs=1e-12)
        assert p == 0.0

    def test_identical_labels_give_exact_zero(self):
        g, p = discrete_gamma_phi(single_mode_set(16), "RR", "RR")
        assert g == 0.0
        assert p == 0.0

    def test_swap_negates_phase_bitwise(self):
        # Exact under any rounding, so it must hold at every seed, not
        # only at one that happens to round kindly.
        for seed in range(7, 15):
            rng = np.random.default_rng(seed)
            modes = random_mode_set(rng)
            g_ab, p_ab = discrete_gamma_phi(modes, "RL", "LR")
            g_ba, p_ba = discrete_gamma_phi(modes, "LR", "RL")
            assert g_ba == g_ab, f"seed {seed}"
            assert p_ba == -p_ab, f"seed {seed}"

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_overlap_on_random_sets(self, seed):
        # Two independent routes to the same number: literal Fock-basis
        # inner products versus the displacement algebra.  Measured
        # agreement is ~4e-13; the gate leaves contingency for slower
        # platforms.
        rng = np.random.default_rng(3000 + seed)
        modes = random_mode_set(rng)
        ov = branch_overlap_exact(modes, "RL", "LR")
        g, p = discrete_gamma_phi(modes, "RL", "LR")
        assert abs(ov - np.exp(-g + 1j * p)) < 1e-6


class TestJointBound:
    def test_no_recorder_means_no_distinguishability(self):
        # Only particle A couples, so tracing out A leaves the two B
        # conditionals identical while the A overlap is exp(-1).
        res = joint_overlap_and_bound(single_mode_set(16))
        assert res.alpha == pytest.approx(math.exp(-1.0), abs=1e-10)
        assert res.distinguishability < 1e-9
        assert res.residual == pytest.approx(
            math.sqrt(1.0 - math.exp(-2.0)), abs=1e-9
        )

    def test_identical_branch_couplings_saturate_alpha(self):
        c = constant_coupling(math.sqrt(2.0) / 2.0)
        modes = ModeSet(
            n_modes=1,
            window=(0.0, 2.0),
            n_max=16,
            couplings={"AR": c, "AL": c},
        )
        res = joint_overlap_and_bound(modes)
        assert res.alpha == pytest.approx(1.0, abs=1e-9)
        assert res.distinguishability < 1e-9
        assert res.residual >= -1e-9

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_residual_nonnegative_on_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        res = joint_overlap_and_bound(random_mode_set(rng))
        assert res.residual >= -1e-9
        assert 0.0 <= res.alpha <= 1.0 + 1e-12


class TestPairProjection:
    def test_couples_only_the_requesting_particle(self):
        pair = make_branch_pair("A", 0.5, 0.4, 0.8, 1.0)
        modes = pair_mode_set(pair, KernelSpec(sigma=0.07), n_k=16, n_mu=4)
        assert set(modes.couplings) == {"AR", "AL"}
        assert modes.window == pair.split_window

    def test_k_count_must_be_a_multiple_of_8(self):
        pair = make_branch_pair("A", 0.5, 0.4, 0.8, 1.0)
        for n_k in (0, 12):
            with pytest.raises(ValueError, match="multiple of 8"):
                pair_mode_set(pair, KernelSpec(sigma=0.07), n_k=n_k, n_mu=4)

    def test_discrete_exponent_approaches_quadrature_route(self):
        # Modest resolution already lands within a few 1e-5 relative of
        # the continuum quadrature value (measured 3.9e-5 at this grid);
        # the acceptance suite tightens the grid and the gate.
        spec = KernelSpec(sigma=0.07)
        pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
        continuum = gamma(pair, spec)
        modes = pair_mode_set(pair, spec, n_k=64, n_mu=8)
        discrete, _ = discrete_gamma_phi(modes, "RR", "LR")
        assert abs(discrete - continuum) / continuum < 5e-3
