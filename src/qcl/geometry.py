"""Worldlines, branch pairs, and causal structure on flat spacetime.

Conventions used throughout the package: metric signature (+, -, -, -),
natural units (c = 1), lab time as the worldline parameter.  A point
charge q moving on X(t) carries the four-current density

    J^mu(t, x) = q * (1, dX/dt) * delta^3(x - X(t)),

so every four-dimensional current integral collapses to a one-dimensional
integral over lab time.  The classes here only describe the geometry;
field kernels and phase/dephasing functionals live in sibling modules.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

__all__ = [
    "Worldline",
    "BranchPair",
    "make_branch_pair",
    "causal_margin",
    "Scenario",
]


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6u^5 - 15u^4 + 10u^3 on [0, 1], C^2 at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _smoothstep_rate(u: np.ndarray) -> np.ndarray:
    """Derivative 30 u^2 (1-u)^2 of the quintic smoothstep, exactly +0.0 outside (0, 1)."""
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


@dataclass(frozen=True, eq=False)
class Worldline:
    """One branch of a split: a charged point particle inside a finite lab-time window.

    The particle rests at ``base`` and makes a smooth excursion along
    ``axis``: its displacement is ``amplitude * s(t)`` where s rises from
    0 to 1 over [t0, t0 + ramp] through the quintic smoothstep, stays at 1
    for ``hold``, and returns to 0 over another ``ramp``.  The profile is
    C^2 in time, so the current it generates has no kinks.

    This is the one place that states what a branch is: ramp > 0,
    hold >= 0, a nonzero axis (normalised here, once), a window that
    contains the whole excursion, and a peak speed 15 * |amplitude| /
    (8 * ramp), reached mid-ramp, below 1.  Outside the excursion the
    particle rests at its base, before and after the window too: retarded
    fields have a source at all times, so the methods take any lab time.
    Worldlines compare and hash by identity.
    """

    charge: float
    window: tuple[float, float]
    base: np.ndarray
    axis: np.ndarray
    amplitude: float
    t0: float
    ramp: float
    hold: float

    def __post_init__(self):
        if self.ramp <= 0.0:
            raise ValueError("ramp must be positive")
        if self.hold < 0.0:
            raise ValueError("hold must be non-negative")
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        norm = math.sqrt(float(axis @ axis))
        if norm == 0.0:
            raise ValueError("axis must be a nonzero vector")
        put = partial(object.__setattr__, self)
        put("base", np.asarray(self.base, dtype=float).reshape(3))
        put("axis", axis / norm)
        for name in ("amplitude", "t0", "ramp", "hold"):
            put(name, float(getattr(self, name)))
        w0, w1 = self.window
        if not (w0 <= self.t0 and self.t_end <= w1):
            raise ValueError(f"window [{w0}, {w1}] must contain the whole excursion "
                             f"[{self.t0}, {self.t_end}]")
        vmax = 15.0 * abs(self.amplitude) / (8.0 * self.ramp)
        if not vmax < 1.0:
            raise ValueError(f"peak speed 15*|amplitude|/(8*ramp) = {vmax:.6g} is not below 1")

    @property
    def t_end(self) -> float:
        return self.t0 + 2.0 * self.ramp + self.hold

    def displacement(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        up = _smoothstep((ts - self.t0) / self.ramp)
        down = _smoothstep((ts - self.t0 - self.ramp - self.hold) / self.ramp)
        return self.amplitude * (up - down)

    def displacement_rate(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        up = _smoothstep_rate((ts - self.t0) / self.ramp)
        down = _smoothstep_rate((ts - self.t0 - self.ramp - self.hold) / self.ramp)
        return self.amplitude * (up - down) / self.ramp

    def offset(self, ts: np.ndarray) -> np.ndarray:
        """Displacement from the rest point, formed without subtracting it."""
        return self.displacement(ts)[..., None] * self.axis

    def position(self, ts) -> np.ndarray:
        """Spatial position at lab times ts."""
        return self.base + self.offset(ts)

    def velocity(self, ts) -> np.ndarray:
        """Velocity at lab times ts; zero outside the excursion."""
        return self.displacement_rate(ts)[..., None] * self.axis

    def knots(self) -> list[float]:
        """The excursion's ramp and hold boundaries, from t0 to t_end."""
        return [self.t0, self.t0 + self.ramp, self.t0 + self.ramp + self.hold, self.t_end]


@dataclass(frozen=True)
class BranchPair:
    """One particle in a symmetric superposition of two worldline branches.

    Built from its right branch alone.  The left branch is a copy of that
    worldline with the amplitude negated, so d_L(t) = -d_R(t) bitwise along
    one axis from one rest point, and ``split_window`` is the excursion
    (t0, t0 + 2*ramp + hold), outside which the branches coincide in
    position and velocity.  By convention the right branch carries
    amplitude sign +1 and the left branch -1 in every branch difference
    built from the pair.
    """

    label: str
    right: Worldline
    left: Worldline = field(init=False)
    split_window: tuple[float, float] = field(init=False)

    def __post_init__(self):
        right = self.right
        # A copy, not a new Worldline: normalising the axis again could move its last bit.
        left = copy.copy(right)
        object.__setattr__(left, "amplitude", -right.amplitude)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "split_window", (right.t0, right.t_end))

    @property
    def charge(self) -> float:
        return self.right.charge

    def branches(self) -> tuple[tuple[Worldline, float], tuple[Worldline, float]]:
        """Branch worldlines with their amplitude signs (+1 right, -1 left)."""
        return (self.right, +1.0), (self.left, -1.0)


def make_branch_pair(
    label: str,
    L: float,
    t0: float,
    ramp: float,
    hold: float,
    *,
    charge: float = 1.0,
    base: Sequence[float] = (0.0, 0.0, 0.0),
    axis: Sequence[float] = (0.0, 1.0, 0.0),
    window: tuple[float, float] | None = None,
) -> BranchPair:
    """Symmetric split: right branch at +L/2, left branch at -L/2 along axis.

    The particle rests at ``base`` before t0, moves out along ``axis`` over
    ``ramp``, holds for ``hold`` and returns by t0 + 2*ramp + hold.  The
    default window pads the excursion by one ramp on each side.
    """
    if L < 0.0:
        raise ValueError("L must be non-negative")
    if window is None:
        window = (t0 - ramp, t0 + 2.0 * ramp + hold + ramp)
    return BranchPair(label, Worldline(charge, window, base, axis, L / 2.0, t0, ramp, hold))


def causal_margin(probe: BranchPair, source: BranchPair) -> float:
    """Least F = |x_probe - x_source| - (t_probe - t_source) over the split windows.

    With R the unit vector from x_source to x_probe, every Worldline is
    slower than light, so dF/dt_probe = R.v_probe - 1 < 0 and
    dF/dt_source = 1 - R.v_source > 0.  The least value over all four
    branch combinations is thus at one corner, the end of the probe's split
    and the start of the source's split, where both particles rest at their
    bases.  A positive value certifies that no event of the source's split
    window lies on or inside the past light cone of any event of the
    probe's split window: the source's branch distinction cannot reach it.
    """
    p, s = probe.right, source.right
    return math.dist(p.base, s.base) - (p.t_end - s.t0)


def _mirrored(a: BranchPair, b: BranchPair) -> bool:
    """True when negating the split-axis coordinates maps each pair's right branch onto its left.

    Both right branches have bitwise-equal axes, and both bases are exactly
    0.0 in every coordinate where that axis is nonzero.  Then a probe's
    pairing integral against the source's left branch is bitwise 0.0
    minus the one against its right branch.  A zero dot product
    (base_b - base_a) . axis is not enough: bases (0, 0.7, 0) and
    (D, 0.7, 0) split along y can give pairings that differ in their last
    bits (at D = 1.589 in ``test_shared_offset_breaks_the_mirror``).
    """
    axis = a.right.axis
    moved = axis != 0.0
    return (axis.tobytes() == b.right.axis.tobytes()
            and bool(np.all(a.right.base[moved] == 0.0) and np.all(b.right.base[moved] == 0.0)))


def _mutually_spacelike(a: BranchPair, b: BranchPair) -> bool:
    """True when neither pair's split window can reach the other's: both margins are positive."""
    return causal_margin(a, b) > 0.0 and causal_margin(b, a) > 0.0


@dataclass(frozen=True)
class Scenario:
    """Two branch pairs plus the kernel and background that define one experiment.

    The pairs carry the whole geometry.  Nothing in qcl reads ``D`` (the
    distance between the rest positions), ``T`` (the common window length),
    ``T_A`` or ``T_B`` (the split-window durations); they remain only
    because perfbench/inputs.py still passes them.
    """

    pair_A: BranchPair
    pair_B: BranchPair
    kernel: "object"
    D: float
    T: float
    T_A: float
    T_B: float
    background: object | None = None

    @property
    def spacelike(self) -> bool:
        """True when every split-window event of A is spacelike from every one of B.

        Uses the exact :func:`causal_margin` in both time orderings.
        """
        return _mutually_spacelike(self.pair_A, self.pair_B)
