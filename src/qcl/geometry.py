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
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "SplitPath",
    "Worldline",
    "BranchPair",
    "make_branch_pair",
    "causal_margin",
    "Scenario",
]

def _event_array(e) -> np.ndarray:
    """Accept any length-4 sequence (t, x, y, z) and return ndarray(4)."""
    a = np.asarray(e, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a length-4 event, got shape {a.shape}")
    return a


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep 6u^5 - 15u^4 + 10u^3 on [0, 1], C^2 at both ends."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _smoothstep_rate(u: np.ndarray) -> np.ndarray:
    """Derivative 30 u^2 (1-u)^2 of the quintic smoothstep, exactly +0.0 outside (0, 1)."""
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


class SplitPath:
    """Smooth excursion along a fixed axis: rest, ramp out, hold, ramp back.

    The displacement is ``amplitude * s(t)`` along ``axis`` where s rises
    from 0 to 1 over [t0, t0 + ramp] through the quintic smoothstep, stays
    at 1 for ``hold``, and returns to 0 over another ``ramp``.  The profile
    is C^2 in time, so the current it generates has no kinks.  Peak speed
    is |amplitude| * 15 / (8 * ramp), reached mid-ramp.
    """

    def __init__(self, base, axis, amplitude: float, t0: float, ramp: float, hold: float):
        if ramp <= 0.0:
            raise ValueError("ramp must be positive")
        if hold < 0.0:
            raise ValueError("hold must be non-negative")
        self.base = np.asarray(base, dtype=float).reshape(3)
        axis = np.asarray(axis, dtype=float).reshape(3)
        norm = math.sqrt(float(axis @ axis))
        if norm == 0.0:
            raise ValueError("axis must be a nonzero vector")
        self.axis = axis / norm
        self.amplitude = float(amplitude)
        self.t0 = float(t0)
        self.ramp = float(ramp)
        self.hold = float(hold)

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
        return self.displacement(ts)[..., None] * self.axis

    def position(self, ts: np.ndarray) -> np.ndarray:
        return self.base + self.offset(ts)

    def velocity(self, ts: np.ndarray) -> np.ndarray:
        r = self.displacement_rate(ts)
        return r[..., None] * self.axis

    def knots(self) -> list[float]:
        return [
            self.t0,
            self.t0 + self.ramp,
            self.t0 + self.ramp + self.hold,
            self.t_end,
        ]


@dataclass(frozen=True)
class Worldline:
    """A charged point particle on a SplitPath inside a finite lab-time window.

    This is the one place that states what a branch is.  The path must be a
    SplitPath, the window must contain its whole excursion, and the peak
    speed 15 * |amplitude| / (8 * ramp) must be below 1.  Outside the
    excursion a SplitPath rests at its base, so the particle rests there
    before and after the window too: retarded fields have a source at all
    times, and the methods below hand any lab time straight to the path.
    """

    charge: float
    window: tuple[float, float]
    path: SplitPath

    def __post_init__(self):
        path, (w0, w1) = self.path, self.window
        if not isinstance(path, SplitPath):
            raise TypeError(f"a worldline must lie on a SplitPath, got {type(path).__name__}")
        if not (w0 <= path.t0 and path.t_end <= w1):
            raise ValueError(f"window [{w0}, {w1}] must contain the whole excursion "
                             f"[{path.t0}, {path.t_end}]")
        vmax = 15.0 * abs(path.amplitude) / (8.0 * path.ramp)
        if not vmax < 1.0:
            raise ValueError(f"peak speed 15*|amplitude|/(8*ramp) = {vmax:.6g} is not below 1")

    def position(self, ts) -> np.ndarray:
        """Spatial position at lab times ts."""
        return self.path.position(ts)

    def offset(self, ts) -> np.ndarray:
        """Displacement from the path's rest point, formed without subtracting it."""
        return self.path.offset(ts)

    def velocity(self, ts) -> np.ndarray:
        """Velocity at lab times ts; zero outside the excursion."""
        return self.path.velocity(ts)


@dataclass(frozen=True)
class BranchPair:
    """One particle in a symmetric superposition of two worldline branches.

    Built from its right branch alone, a Worldline on a SplitPath.  The left
    branch is the same worldline on a copy of that path with the amplitude
    negated, so d_L(t) = -d_R(t) bitwise along one axis from one rest point,
    and ``split_window`` is the path's excursion (t0, t0 + 2*ramp + hold),
    outside which the branches coincide in position and velocity.  By
    convention the right branch carries amplitude sign +1 and the left
    branch -1 in every branch difference built from the pair.
    """

    label: str
    right: Worldline
    left: Worldline = field(init=False)
    split_window: tuple[float, float] = field(init=False)

    def __post_init__(self):
        path = self.right.path
        # A copy, not a new SplitPath: normalising the axis again could move its last bit.
        mirror = copy.copy(path)
        mirror.amplitude = -path.amplitude
        object.__setattr__(self, "left", replace(self.right, path=mirror))
        object.__setattr__(self, "split_window", (path.t0, path.t_end))

    @property
    def charge(self) -> float:
        return self.right.charge

    @property
    def window(self) -> tuple[float, float]:
        return self.right.window

    def branches(self) -> tuple[tuple[Worldline, float], tuple[Worldline, float]]:
        """Branch worldlines with their amplitude signs (+1 right, -1 left)."""
        return (self.right, +1.0), (self.left, -1.0)

    def split_knots(self) -> list[float]:
        """The excursion's ramp and hold boundaries, from t0 to t0 + 2*ramp + hold."""
        return sorted(set(self.right.path.knots()))


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
    path = SplitPath(base, axis, L / 2.0, t0, ramp, hold)
    if window is None:
        window = (t0 - ramp, path.t_end + ramp)
    return BranchPair(label, Worldline(charge, window, path))


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
    p, s = probe.right.path, source.right.path
    return math.dist(p.base, s.base) - (p.t_end - s.t0)


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
