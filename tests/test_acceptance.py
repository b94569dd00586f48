"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Each test states its criterion operationally and pins the advertised
tolerance; `pytest -v` therefore prints one pass/fail line per
criterion.  Shared randomized scenario batches use fixed seeds so the
suite is reproducible run to run.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import draw_split, mixed_scenarios, mutual_scenario, one_way_scenario
from qcl.functionals import (
    DecoherenceReport,
    _branch_pairing_with_error,
    build_report,
    commutator_functional,
    gamma,
    gamma_momentum,
    phi_pairing,
    phi_self,
)
from qcl.geometry import Scenario, make_branch_pair
from qcl.inequalities import f_grid, implication_audit, robertson_residual
from qcl.kernels import KernelSpec, coulomb_background, pure_gauge_background
from qcl.modes import (
    branch_overlap_exact,
    discrete_gamma_phi,
    joint_overlap_and_bound,
    pair_mode_set,
    random_mode_set,
)
from qcl.quantum import distinguishability, rho_A, visibility


@pytest.fixture(scope="module")
def scenario_batch():
    """200 randomized scenarios (80 spacelike, 60 one-way, 60 mutual),
    each evaluated once; shared by criteria 2, 3 and 5."""
    start = time.perf_counter()
    rows = []
    for scenario in mixed_scenarios(20260817, 80, 60, 60):
        report = build_report(scenario)
        V = visibility(rho_A(report))
        D_B = distinguishability(report)
        rows.append((report, V, D_B))
    return rows, time.perf_counter() - start


def test_criterion_1_spacelike_scenarios_carry_no_imprint_of_b():
    # For 50 randomized strictly spacelike layouts (D > T), the cross
    # phase vanishes exactly (not merely below a tolerance) and the
    # reduced state of A is bit-identical when B's split width, ramp
    # duration, or charge is changed.  Budget: under one minute.
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        sigma = rng.uniform(0.05, 0.09)
        pa = draw_split(rng)
        L_b, ramp_b, hold_b, q_b = draw_split(rng)
        t0a = rng.uniform(0.3, 0.6)
        t0b = rng.uniform(0.3, 0.6)
        # Size the window for the slowest B variant so every variant fits.
        longest_b = 2.0 * (1.3 * ramp_b) + hold_b
        T = max(t0a + 2.0 * pa[1] + pa[2], t0b + longest_b) + 0.3
        D = T + rng.uniform(0.4, 1.2) + 12.0 * sigma
        spec = KernelSpec(sigma=sigma)
        window = (0.0, T)
        pair_a = make_branch_pair("A", pa[0], t0a, pa[1], pa[2],
                                  charge=pa[3], window=window)

        # The A-side functionals take only A's pair and the kernel, so
        # they are computed once; the cross pairings are recomputed for
        # every perturbed B.
        gamma_a = gamma(pair_a, spec)
        phi_a = phi_self(pair_a, spec)

        variants = [
            (L_b, ramp_b, q_b),
            (1.25 * L_b, ramp_b, q_b),
            (L_b, 1.3 * ramp_b, q_b),
            (L_b, ramp_b, 1.7 * q_b),
        ]
        matrices = []
        for L, ramp, q in variants:
            pair_b = make_branch_pair("B", L, t0b, ramp, hold_b, charge=q,
                                      base=(D, 0.0, 0.0), window=window)
            scenario = Scenario(pair_A=pair_a, pair_B=pair_b, kernel=spec,
                                D=D, T=T, T_A=2.0 * pa[1] + pa[2],
                                T_B=2.0 * ramp + hold_b)
            assert D > T
            assert scenario.spacelike
            from_right = _branch_pairing_with_error(pair_a, pair_b.right, spec)[0]
            from_left = _branch_pairing_with_error(pair_a, pair_b.left, spec)[0]
            assert from_right == 0.0
            assert from_left == 0.0
            phi_ab = from_right - from_left
            assert phi_ab == 0.0
            report = DecoherenceReport(
                gamma_A=gamma_a, gamma_B=0.0, phi_A=phi_a, phi_B=0.0,
                phi_A_BR=from_right, phi_A_BL=from_left,
                phi_B_AR=0.0, phi_B_AL=0.0,
                phi_AB=phi_ab, phi_BA=0.0,
                sigma=sigma, spacelike=True, quad_error=0.0,
            )
            matrices.append(rho_A(report).matrix)
        for m in matrices[1:]:
            assert np.array_equal(matrices[0], m)
    assert time.perf_counter() - start < 60.0


def test_criterion_2_complementarity_never_exceeds_unity(scenario_batch):
    # V^2 + D^2 <= 1 + 1e-9 across 200 randomized scenarios spanning all
    # three causal families.  Budget: under ten minutes.
    rows, elapsed = scenario_batch
    assert len(rows) == 200
    worst = max(V * V + D_B * D_B for _, V, D_B in rows)
    assert worst <= 1.0 + 1e-9
    assert elapsed < 600.0


def test_criterion_3_robertson_floor_on_the_same_batch(scenario_batch):
    # The uncertainty product gamma_A * gamma_B - phi_BA^2 / 16 may dip
    # below zero only within the accumulated quadrature error estimate.
    rows, _ = scenario_batch
    for report, _, _ in rows:
        residual = robertson_residual(report.gamma_A, report.gamma_B,
                                      report.phi_BA)
        assert residual >= -report.quad_error


def test_criterion_4_implication_bound_has_no_violations():
    # One million random triples that satisfy the uncertainty
    # precondition produce zero violations of the complementarity
    # bound, and the implication function stays above -1e-12 on a
    # 1000 x 1000 interior grid.  Budget: under one minute.
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    n = 1_000_000
    gamma_a = 10.0 ** rng.uniform(-3.0, 0.7, size=n)
    gamma_b = 10.0 ** rng.uniform(-3.0, 0.7, size=n)
    # |u| < 1 - 1e-6 keeps the precondition satisfied even after
    # floating-point rounding of phi^2 / 16.
    u = rng.uniform(-1.0, 1.0, size=n) * (1.0 - 1e-6)
    phi = 4.0 * np.sqrt(gamma_a * gamma_b) * u
    rows = implication_audit(np.column_stack([gamma_a, gamma_b, phi]))
    assert rows.shape == (n,)
    assert np.all(rows["robertson_residual"] >= 0.0)
    assert np.all(rows["bound_residual"] >= -1e-12)
    assert np.all(rows["ok"])

    xs, ys, values = f_grid(1000)
    assert values.shape == (1000, 1000)
    assert xs.shape == (1000,) and ys.shape == (1000,)
    assert float(values.min()) >= -1e-12
    assert time.perf_counter() - start < 60.0


def test_criterion_5_closed_form_envelopes(scenario_batch):
    # The matrix-route visibility reproduces its closed form
    # exp(-gamma_A)|cos(phi_AB / 2)| to 1e-12 on the shared batch, and
    # distinguishability, the closed form exp(-gamma_B)|sin(phi_BA / 2)|
    # that has passed its own matrix-route check, matches it too.
    rows, _ = scenario_batch
    for report, V, D_B in rows:
        v_closed = np.exp(-report.gamma_A) * abs(np.cos(report.phi_AB / 2.0))
        d_closed = np.exp(-report.gamma_B) * abs(np.sin(report.phi_BA / 2.0))
        assert abs(V - v_closed) <= 1e-12
        assert abs(D_B - d_closed) <= 1e-12


def test_criterion_6_commutator_route_matches_pairing_asymmetry():
    # On 20 causally connected scenarios the independently integrated
    # commutator functional agrees with phi_BA - phi_AB to 1e-8
    # relative; one-way scenarios pin phi_AB to an exact zero first, so
    # there the comparison is directly against phi_BA.  Three strictly
    # spacelike layouts must short-circuit to an exact zero.
    rng = np.random.default_rng(606)
    scenarios = [("one_way", one_way_scenario(rng)) for _ in range(12)]
    scenarios += [("mutual", mutual_scenario(rng)) for _ in range(8)]
    for family, scenario in scenarios:
        spec = dataclasses.replace(scenario.kernel, quad_tol=1e-8)
        phi_ab = phi_pairing(scenario.pair_A, scenario.pair_B, spec)
        phi_ba = phi_pairing(scenario.pair_B, scenario.pair_A, spec)
        if family == "one_way":
            assert phi_ab == 0.0
        difference = phi_ba - phi_ab
        commutator = commutator_functional(scenario.pair_A, scenario.pair_B, spec)
        scale = max(abs(difference), abs(commutator))
        assert scale > 0.0
        assert abs(commutator - difference) <= 1e-8 * scale

    from conftest import spacelike_scenario

    for _ in range(3):
        scenario = spacelike_scenario(rng)
        spec = dataclasses.replace(scenario.kernel, quad_tol=1e-8)
        assert commutator_functional(scenario.pair_A, scenario.pair_B, spec) == 0.0
        assert phi_pairing(scenario.pair_B, scenario.pair_A, spec) == 0.0


def test_criterion_7_fock_route_reproduces_exponential_form():
    # (a) On 100 random mode sets the literal truncated-Fock overlap
    # matches exp(-Gamma + i Phi) from the displacement route to 1e-6.
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        modes = random_mode_set(rng)
        overlap = branch_overlap_exact(modes, "RL", "LR")
        g, p = discrete_gamma_phi(modes, "RL", "LR")
        worst = max(worst, abs(overlap - np.exp(-g + 1j * p)))
    assert worst < 1e-6

    # (b) Projecting the reference split onto 2**10 discrete modes
    # reproduces the continuum decoherence exponent within 5%.
    spec = KernelSpec(sigma=0.07)
    pair = make_branch_pair("A", 0.7, 0.4, 0.8, 1.0, charge=1.1)
    continuum = gamma(pair, spec)
    modes = pair_mode_set(pair, spec, n_k=128, n_mu=8)
    assert modes.n_modes == 2 ** 10
    discrete, _ = discrete_gamma_phi(modes, "RR", "LR")
    assert abs(discrete - continuum) / continuum < 0.05


def test_criterion_8_distinguishability_bounded_by_record_overlap():
    # Tracing out everything but the field record: on 50 random joint
    # instances the conditional-state distance never exceeds
    # sqrt(1 - alpha^2) + 1e-9, where alpha is the surviving overlap.
    rng = np.random.default_rng(808)
    for _ in range(50):
        result = joint_overlap_and_bound(random_mode_set(rng))
        assert result.residual >= -1e-9
        assert 0.0 <= result.alpha <= 1.0 + 1e-12


def test_criterion_9_independent_routes_for_exponent_and_phase():
    # (a) The position-space decoherence exponent agrees with the
    # momentum-space route to 1e-4 relative on 20 randomized splits.
    rng = np.random.default_rng(909)
    for _ in range(20):
        L, ramp, hold, q = draw_split(rng)
        spec = KernelSpec(sigma=rng.uniform(0.05, 0.09))
        pair = make_branch_pair("P", L, rng.uniform(0.2, 0.5), ramp, hold,
                                charge=q)
        g_position = gamma(pair, spec)
        g_momentum = gamma_momentum(pair, spec)
        assert g_position > 0.0
        assert abs(g_position - g_momentum) / g_position < 1e-4

    # (b) Adding a pure-gauge background on top of a physical one moves
    # the self phase by less than the quadrature tolerance.
    def chi_t(events):
        return 0.4 * np.cos(events[:, 0]) * events[:, 2]

    def chi_grad(events):
        n = events.shape[0]
        return np.column_stack(
            [np.zeros(n), 0.4 * np.sin(events[:, 0]), np.zeros(n)]
        )

    gauge = pure_gauge_background(chi_t, chi_grad)
    rng = np.random.default_rng(910)
    for _ in range(5):
        L, ramp, hold, q = draw_split(rng)
        spec = KernelSpec(sigma=rng.uniform(0.05, 0.09))
        pair = make_branch_pair("P", L, rng.uniform(0.2, 0.5), ramp, hold,
                                charge=q)
        physical = coulomb_background(0.9, (0.3, 0.5, 0.0), spec)

        def shifted_background(events):
            return physical(events) + gauge(events)

        base = phi_self(pair, spec, background=physical)
        shifted = phi_self(pair, spec, background=shifted_background)
        assert abs(base) > 1e-3
        assert abs(shifted - base) < 1e-9
