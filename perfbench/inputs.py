"""Seeded inputs for the benchmark workloads.

Everything here is made from the benchmark's own seed; nothing is
imported from the test suite, so editing a test cannot change what the
benchmark measures.  Round ``k`` of a run draws from
``numpy.random.default_rng([seed, k])``, so a round's inputs do not
depend on how many rounds came before it or on the run length.

Layout (the standard one): particle A rests at the origin, particle B at
(D, 0, 0), and both split along the y axis.  Every branch point of a
split therefore sits at x = 0 (A) or x = D (B), so any event of A's
split is at least D away from any event of B's split.  The causal
family of a scenario follows from its split windows alone:

* the split of a source (window [t0_s, t0_s + T_s]) can reach the split
  of a probe (window [t0_p, t0_p + T_p]) only if
  (t0_p + T_p) - t0_s > D, the largest time gap exceeding the smallest
  distance;
* spacelike: neither split can reach the other; one-way: A's split can
  reach B's but not the reverse; mutual: both can.

The generators keep every scenario at least ``FAMILY_MARGIN`` away from
a family boundary, and :func:`classify` re-derives the family from the
drawn parameters, so the checks never rest on the generator's intent.
"""

from __future__ import annotations

import dataclasses

import numpy as np

FAMILIES = ("spacelike", "one-way", "mutual")
FAMILY_MARGIN = 0.1
# The smearing width is the lab's regulator, fixed for a study; it also
# sets how finely Gamma must be resolved, so drawing it would mostly add
# run-to-run noise to the timings.
SIGMA = 0.07

# sweep-D: fixed split windows, so the causal family of every grid point
# is fixed too; the seed jitters only charges and split widths, neither
# of which moves a family boundary.
SWEEP_A = {"t0": 0.3, "ramp": 0.9, "hold": 0.8}   # split window [0.3, 2.9]
SWEEP_B = {"t0": 1.6, "ramp": 0.8, "hold": 0.9}   # split window [1.6, 4.1]
SWEEP_T = 4.5
SWEEP_GRID = (0.5, 5.9, 10)                       # D = 0.5, 1.1, ..., 5.9
SWEEP_QUAD_TOL = 1e-6

AUDIT_SAMPLES = 100_000
AUDIT_GRID_N = 1000

COMMUTATOR_QUAD_TOL = 1e-8
# The pairings a commutator is compared with are computed 100 times
# tighter than the commutator: at 1e-8 itself, phi_pairing can miss its
# own tolerance by more than 30x (phi_BA of the mutual layout of seed
# 401, round 2: 3.2e-7 relative), which would fail a correct commutator.
REFERENCE_TOL_RATIO = 1e-2
PROJECTION_MODES = (128, 8)                        # n_k x n_mu = 1024 modes
MODE_SETS_PER_ROUND = 2


@dataclasses.dataclass(frozen=True)
class Case:
    """One generated two-particle scenario and the numbers it was built from."""

    family: str
    sigma: float
    D: float
    T: float
    split_A: tuple  # (L, t0, ramp, hold, charge)
    split_B: tuple

    @property
    def windows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        (_, ta, ra, ha, _), (_, tb, rb, hb, _) = self.split_A, self.split_B
        return (ta, ta + 2.0 * ra + ha), (tb, tb + 2.0 * rb + hb)


def reach(source: tuple[float, float], probe: tuple[float, float], D: float) -> float:
    """Largest time gap from the source's split to the probe's, minus D.

    Positive when some event of the source split has some event of the
    probe split inside its future light cone; negative when none does.
    """
    return (probe[1] - source[0]) - D


def classify(windows, D: float) -> str:
    """Causal family of a layout, from its split windows and distance only."""
    wa, wb = windows
    a_to_b = reach(wa, wb, D) > 0.0
    b_to_a = reach(wb, wa, D) > 0.0
    if a_to_b and b_to_a:
        return "mutual"
    if a_to_b:
        return "one-way"
    if b_to_a:
        return "one-way-reversed"
    return "spacelike"


def family_margin(windows, D: float) -> float:
    """Distance of a layout from the nearest family boundary."""
    wa, wb = windows
    return min(abs(reach(wa, wb, D)), abs(reach(wb, wa, D)))


def _split(rng, L=(0.55, 0.70), ramp_per_L=(1.45, 1.60), hold=(0.75, 0.95),
           charge=(0.9, 1.3)):
    """(L, ramp, hold, charge) with peak speed 15 L / (16 ramp) below 0.65."""
    length = rng.uniform(*L)
    return length, length * rng.uniform(*ramp_per_L), rng.uniform(*hold), rng.uniform(*charge)


def _case(family, D, t0a, t0b, pa, pb, pad=0.3) -> Case:
    end_a = t0a + 2.0 * pa[1] + pa[2]
    end_b = t0b + 2.0 * pb[1] + pb[2]
    T = max(end_a, end_b) + pad
    case = Case(
        family=family, sigma=SIGMA, D=D, T=T,
        split_A=(pa[0], t0a, pa[1], pa[2], pa[3]),
        split_B=(pb[0], t0b, pb[1], pb[2], pb[3]),
    )
    if classify(case.windows, D) != family or family_margin(case.windows, D) < FAMILY_MARGIN:
        raise AssertionError(f"generator drew a {family} case off its family: {case}")
    return case


def spacelike_case(rng) -> Case:
    """D beyond the whole worldline window: no split event reaches the other split."""
    pa, pb = _split(rng), _split(rng)
    t0a, t0b = rng.uniform(0.3, 0.5), rng.uniform(0.3, 0.5)
    end = max(t0a + 2.0 * pa[1] + pa[2], t0b + 2.0 * pb[1] + pb[2]) + 0.3
    D = end + rng.uniform(0.5, 0.9) + 12.0 * SIGMA
    return _case("spacelike", D, t0a, t0b, pa, pb)


def one_way_case(rng) -> Case:
    """B splits inside A's future cone; A's split is over before B's can reach it."""
    pa, pb = _split(rng), _split(rng)
    t0a = rng.uniform(0.25, 0.45)
    D = rng.uniform(2.8, 3.3)
    t0b = t0a + D + rng.uniform(0.4, 0.7)
    return _case("one-way", D, t0a, t0b, pa, pb, pad=0.4)


def mutual_case(rng) -> Case:
    """Overlapping split windows at short distance: both pairings are active."""
    pa, pb = _split(rng), _split(rng)
    t0a = rng.uniform(0.3, 0.5)
    t0b = t0a + rng.uniform(-0.15, 0.15)
    D = rng.uniform(1.2, 1.6)
    return _case("mutual", D, t0a, t0b, pa, pb)


CASE_MAKERS = {"spacelike": spacelike_case, "one-way": one_way_case, "mutual": mutual_case}


def build_scenario(qcl, case: Case, quad_tol: float | None = None):
    """The qcl Scenario of a case, in the standard layout."""
    spec = qcl.KernelSpec(sigma=case.sigma) if quad_tol is None else \
        qcl.KernelSpec(sigma=case.sigma, quad_tol=quad_tol)
    window = (0.0, case.T)
    pairs = []
    for label, split, base in (("A", case.split_A, (0.0, 0.0, 0.0)),
                               ("B", case.split_B, (case.D, 0.0, 0.0))):
        L, t0, ramp, hold, q = split
        pairs.append(qcl.make_branch_pair(label, L, t0, ramp, hold, charge=q,
                                          base=base, window=window))
    (ta, tb) = case.windows
    return qcl.Scenario(
        pair_A=pairs[0], pair_B=pairs[1], kernel=spec, D=case.D, T=case.T,
        T_A=ta[1] - ta[0], T_B=tb[1] - tb[0],
    )


def round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# ---------------------------------------------------------------------------
# sweep-D


def sweep_config(rng, quad_tol: float = SWEEP_QUAD_TOL) -> dict:
    """A `qcl sweep` config whose D grid runs mutual -> one-way -> spacelike."""
    def jitter(x, rel):
        return float(x * rng.uniform(1.0 - rel, 1.0 + rel))

    return {
        "particles": {
            "A": {"charge": jitter(1.2, 0.05),
                  "split": {"L": jitter(0.6, 0.05), **SWEEP_A}},
            "B": {"charge": jitter(1.0, 0.05),
                  "split": {"L": jitter(0.5, 0.05), **SWEEP_B}},
        },
        "geometry": {"D": 1.0},
        "kernel": {"sigma": SIGMA, "quad_tol": quad_tol},
        "times": {"T": SWEEP_T},
    }


def sweep_windows(config: dict):
    out = []
    for p in ("A", "B"):
        s = config["particles"][p]["split"]
        out.append((s["t0"], s["t0"] + 2.0 * s["ramp"] + s["hold"]))
    return tuple(out)


def sweep_grid(grid=SWEEP_GRID) -> np.ndarray:
    start, stop, steps = grid
    return np.linspace(start, stop, steps)


# ---------------------------------------------------------------------------
# crosscheck: the geometry of each item is fixed, so every round does the
# same work; the seed draws split widths and charges.  Charges scale an
# integrand without moving its features, and none of these routes sizes
# its grids from the split width.


def momentum_split(rng) -> dict:
    """A split for the position-vs-momentum Gamma comparison (window 1.2 long)."""
    return {"L": rng.uniform(0.28, 0.32), "t0": 0.3, "ramp": 0.4, "hold": 0.4,
            "charge": rng.uniform(0.9, 1.3), "sigma": SIGMA}


def projection_split(rng) -> dict:
    """A split close to the reference one projected onto 1024 modes."""
    return {"L": rng.uniform(0.65, 0.75), "t0": 0.4, "ramp": 0.8, "hold": 1.0,
            "charge": rng.uniform(0.9, 1.3), "sigma": SIGMA}


# Commutator layouts: (t0_A, t0_B, D, pad); both splits last 2 * 0.45 + 0.35.
COMMUTATOR_LAYOUTS = {
    "one-way": (0.3, 2.3, 2.0, 0.4),    # A [0.3, 1.55] reaches B [2.3, 3.55]; not back
    "mutual": (0.4, 0.45, 0.8, 0.3),    # A [0.4, 1.65] and B [0.45, 1.7] at D = 0.8
}


def commutator_case(rng, family: str) -> Case:
    t0a, t0b, D, pad = COMMUTATOR_LAYOUTS[family]
    pa, pb = ((rng.uniform(0.28, 0.34), 0.45, 0.35, rng.uniform(0.9, 1.3)) for _ in range(2))
    return _case(family, D, t0a, t0b, pa, pb, pad=pad)


def make_pair(qcl, split: dict):
    spec = qcl.KernelSpec(sigma=split["sigma"])
    pair = qcl.make_branch_pair("P", split["L"], split["t0"], split["ramp"],
                                split["hold"], charge=split["charge"])
    return pair, spec
