"""Shared scenario generators for the test suite.

Three families, all in the standard layout (particle A at the origin,
particle B offset by D along +x, splits along the y axis, worldline
window [0, T]):

* strict spacelike: D > T, so no event of either split window is in the
  causal cone of the other;
* one-way contact: B splits late enough to sit inside the future cone of
  A's split, while A's split finishes long before anything from B's
  split could arrive back;
* mutual contact: comparable split times at short distance, so each
  particle's split samples the other's branch-dependent field.

Peak branch speed is capped near 0.7 by tying the ramp duration to the
split width.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import qcl.functionals
from qcl.geometry import Scenario, make_branch_pair
from qcl.kernels import KernelSpec
from qcl.quadrature import NumericFailure


def draw_split(rng, lo_L=0.45, hi_L=0.85, ramp_lo=1.3, ramp_hi=1.9,
               hold_lo=0.6, hold_hi=1.2):
    """Random split parameters (L, ramp, hold, charge) with bounded peak speed."""
    L = rng.uniform(lo_L, hi_L)
    ramp = L * rng.uniform(ramp_lo, ramp_hi)
    hold = rng.uniform(hold_lo, hold_hi)
    q = rng.uniform(0.8, 1.6)
    return L, ramp, hold, q


def _assemble(params_a, params_b, t0a, t0b, D, T, sigma):
    LA, rA, hA, qA = params_a
    LB, rB, hB, qB = params_b
    w = (0.0, T)
    pair_a = make_branch_pair("A", LA, t0a, rA, hA, charge=qA,
                              base=(0.0, 0.0, 0.0), window=w)
    pair_b = make_branch_pair("B", LB, t0b, rB, hB, charge=qB,
                              base=(D, 0.0, 0.0), window=w)
    return Scenario(
        pair_A=pair_a, pair_B=pair_b, kernel=KernelSpec(sigma=sigma),
        D=D, T=T, T_A=2 * rA + hA, T_B=2 * rB + hB,
    )


def spacelike_scenario(rng) -> Scenario:
    """Strictly spacelike scenario with D > T."""
    sigma = rng.uniform(0.05, 0.09)
    pa = draw_split(rng)
    pb = draw_split(rng)
    t0a = rng.uniform(0.3, 0.6)
    t0b = rng.uniform(0.3, 0.6)
    T = max(t0a + 2 * pa[1] + pa[2], t0b + 2 * pb[1] + pb[2]) + 0.3
    D = T + rng.uniform(0.4, 1.2) + 12.0 * sigma
    return _assemble(pa, pb, t0a, t0b, D, T, sigma)


def one_way_scenario(rng) -> Scenario:
    """B's split inside A's future cone; A's split out of reach of B's."""
    sigma = rng.uniform(0.05, 0.09)
    pa = draw_split(rng, hi_L=0.7, ramp_hi=1.6, hold_hi=0.9)
    pb = draw_split(rng, hi_L=0.7, ramp_hi=1.6, hold_hi=0.9)
    t0a = rng.uniform(0.25, 0.5)
    D = rng.uniform(2.6, 3.5)
    T_a = 2 * pa[1] + pa[2]
    t0b = t0a + D + rng.uniform(0.0, 0.5 * T_a)
    T = t0b + 2 * pb[1] + pb[2] + 0.4
    return _assemble(pa, pb, t0a, t0b, D, T, sigma)


def mutual_scenario(rng) -> Scenario:
    """Overlapping split windows at short distance; both pairings active."""
    sigma = rng.uniform(0.05, 0.09)
    pa = draw_split(rng)
    pb = draw_split(rng)
    t0a = rng.uniform(0.3, 0.6)
    t0b = t0a + rng.uniform(-0.2, 0.2)
    D = rng.uniform(1.0, 1.8)
    T = max(t0a + 2 * pa[1] + pa[2], t0b + 2 * pb[1] + pb[2]) + 0.3
    return _assemble(pa, pb, t0a, t0b, D, T, sigma)


def mixed_scenarios(seed: int, n_spacelike: int, n_one_way: int, n_mutual: int):
    """Deterministic list of scenarios across all three families."""
    rng = np.random.default_rng(seed)
    out = [spacelike_scenario(rng) for _ in range(n_spacelike)]
    out += [one_way_scenario(rng) for _ in range(n_one_way)]
    out += [mutual_scenario(rng) for _ in range(n_mutual)]
    return out


def count_adaptive(monkeypatch, dim: int, fail=()) -> Counter:
    """Count qcl.functionals.adaptive_{dim}d calls by integrand name; names in ``fail`` raise."""
    calls = Counter()
    attr = f"adaptive_{dim}d"
    real = getattr(qcl.functionals, attr)

    def counted(f, *args, name, **kwargs):
        calls[name] += 1
        if name in fail:
            raise NumericFailure(name, 0.0, 1.0, 1e-9)
        return real(f, *args, name=name, **kwargs)

    monkeypatch.setattr(qcl.functionals, attr, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spec():
    return KernelSpec(sigma=0.07)
