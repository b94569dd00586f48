"""Output checks for the benchmark workloads.

Each checker returns a list of problems (empty when the output is
correct).  The checks use only properties the method must have, or
numbers recomputed here apart from the program; none compares against a
stored copy of earlier output.  Tolerances are stated where they are
used.
"""

from __future__ import annotations

import math

import numpy as np

import inputs

CLOSED_FORM_TOL = 1e-12      # V and D_B against their closed forms
COMPLEMENTARITY_SLACK = 1e-9  # V^2 + D_B^2 <= 1 + slack
RECOMPUTE_TOL = 1e-12        # CSV residuals and f recomputed here
GRID_FLOOR = -1e-12          # implication function on the grid
# |commutator - (phi_BA - phi_AB)| may be as large as this many times
# quad_tol * (|phi_AB| + |phi_BA|): each side carries its own quadrature
# error at the scale of the terms, not of their (possibly much smaller)
# difference.
COMMUTATOR_TOL_FACTOR = 10.0


def check_report(case: inputs.Case, out: dict) -> list[str]:
    """The relations one scenario evaluation must satisfy.

    ``out`` holds gamma_A, gamma_B, phi_AB, phi_BA, V, D_B, quad_error and
    spacelike, as `qcl run` would report them.
    """
    problems = []
    family = inputs.classify(case.windows, case.D)
    if family != case.family:
        problems.append(f"layout classified {family}, generated as {case.family}")
    ga, gb = out["gamma_A"], out["gamma_B"]
    p_ab, p_ba = out["phi_AB"], out["phi_BA"]
    if family == "spacelike":
        if p_ab != 0.0 or p_ba != 0.0:
            problems.append(f"spacelike phases not exactly zero: {p_ab!r}, {p_ba!r}")
        if out["spacelike"] is not True:
            problems.append("spacelike layout not reported spacelike")
    if family == "one-way" and p_ab != 0.0:
        problems.append(f"one-way phi_AB not exactly zero: {p_ab!r}")
    if not (ga > 0.0 and gb > 0.0):
        problems.append(f"dephasing exponents not positive: {ga!r}, {gb!r}")
        return problems
    v_closed = math.exp(-ga) * abs(math.cos(0.5 * p_ab))
    d_closed = math.exp(-gb) * abs(math.sin(0.5 * p_ba))
    if abs(out["V"] - v_closed) > CLOSED_FORM_TOL:
        problems.append(f"V {out['V']!r} != closed form {v_closed!r}")
    if abs(out["D_B"] - d_closed) > CLOSED_FORM_TOL:
        problems.append(f"D_B {out['D_B']!r} != closed form {d_closed!r}")
    if out["V"] ** 2 + out["D_B"] ** 2 > 1.0 + COMPLEMENTARITY_SLACK:
        problems.append(f"V^2 + D^2 = {out['V'] ** 2 + out['D_B'] ** 2!r} > 1")
    if ga * gb - p_ba * p_ba / 16.0 < -out["quad_error"]:
        problems.append("Robertson residual below minus the quadrature error")
    return problems


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def check_sweep(text: str, config: dict, grid: np.ndarray) -> list[str]:
    """sweep.csv of a D sweep: statuses, causal zeros, D-independence of Gamma."""
    header, rows = parse_csv(text)
    problems = []
    if len(rows) != len(grid):
        return [f"sweep.csv has {len(rows)} rows for {len(grid)} grid points"]
    col = {name: i for i, name in enumerate(header)}
    quad_tol = config["kernel"]["quad_tol"]
    windows = inputs.sweep_windows(config)
    seen = set()
    gammas = []
    for row, D in zip(rows, grid):
        if row[col["status"]] != "ok":
            problems.append(f"D={D}: status {row[col['status']]}")
            continue
        value = float(row[col["value"]])
        if value != float(D):
            problems.append(f"row value {value!r} != grid point {float(D)!r}")
        family = inputs.classify(windows, value)
        seen.add(family)
        num = {k: float(row[col[k]]) for k in (
            "gamma_A", "gamma_B", "phi_AB", "phi_BA", "V", "D_B",
            "robertson_residual", "complementarity_residual")}
        spacelike = row[col["spacelike"]]
        ga, gb, p_ab, p_ba = num["gamma_A"], num["gamma_B"], num["phi_AB"], num["phi_BA"]
        gammas.append((ga, gb))
        if family == "spacelike":
            if p_ab != 0.0 or p_ba != 0.0:
                problems.append(f"D={value}: spacelike phases {p_ab!r}, {p_ba!r} not zero")
            if spacelike != "true":
                problems.append(f"D={value}: spacelike layout reported {spacelike}")
        if family == "one-way" and p_ab != 0.0:
            problems.append(f"D={value}: one-way phi_AB {p_ab!r} not zero")
        if not (ga > 0.0 and gb > 0.0):
            problems.append(f"D={value}: dephasing exponents {ga!r}, {gb!r} not positive")
            continue
        v_closed = math.exp(-ga) * abs(math.cos(0.5 * p_ab))
        d_closed = math.exp(-gb) * abs(math.sin(0.5 * p_ba))
        if abs(num["V"] - v_closed) > CLOSED_FORM_TOL:
            problems.append(f"D={value}: V {num['V']!r} != closed form {v_closed!r}")
        if abs(num["D_B"] - d_closed) > CLOSED_FORM_TOL:
            problems.append(f"D={value}: D_B {num['D_B']!r} != closed form {d_closed!r}")
        comp = 1.0 - num["V"] ** 2 - num["D_B"] ** 2
        if comp < -COMPLEMENTARITY_SLACK:
            problems.append(f"D={value}: V^2 + D^2 exceeds 1 by {-comp!r}")
        if abs(num["complementarity_residual"] - comp) > RECOMPUTE_TOL:
            problems.append(f"D={value}: complementarity_residual column disagrees")
        rob = ga * gb - p_ba * p_ba / 16.0
        if abs(num["robertson_residual"] - rob) > RECOMPUTE_TOL * max(1.0, abs(rob)):
            problems.append(f"D={value}: robertson_residual column disagrees")
        # sweep.csv carries no error estimate; each input is good to about
        # quad_tol relative, so allow that on both terms of the residual.
        if rob < -4.0 * quad_tol * (ga * gb + p_ba * p_ba / 16.0):
            problems.append(f"D={value}: Robertson residual {rob!r} negative")
    missing = set(inputs.FAMILIES) - seen
    if missing:
        problems.append(f"grid misses families {sorted(missing)}")
    if gammas:
        ga0, gb0 = gammas[0]
        for ga, gb in gammas:
            if abs(ga - ga0) > quad_tol * ga0 or abs(gb - gb0) > quad_tol * gb0:
                problems.append(f"Gamma moved with D: ({ga!r}, {gb!r}) vs ({ga0!r}, {gb0!r})")
                break
    return problems


def _read_floats(path, n_cols: int, last_is_flag: bool = False, chunk: int = 1 << 23):
    """Stream a numeric CSV with one header line into an (N, n_cols) array.

    Reads in blocks, so the check's own memory stays far below the
    program's; a trailing true/false column is mapped to 1/0.
    """
    parts = []
    n_lines = 0
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n")
        tail = b""
        while True:
            block = fh.read(chunk)
            if not block:
                break
            block = tail + block
            cut = block.rfind(b"\n") + 1
            tail = block[cut:]
            body = block[:cut]
            n_lines += body.count(b"\n")
            if last_is_flag:
                body = body.replace(b"true", b"1").replace(b"false", b"0")
            parts.append(np.fromstring(body.replace(b",", b" ").decode(), sep=" "))
        if tail:
            raise ValueError(f"{path}: last line not terminated")
    flat = np.concatenate(parts) if parts else np.empty(0)
    if flat.size != n_lines * n_cols:
        raise ValueError(f"{path}: {flat.size} values on {n_lines} lines")
    return header, flat.reshape(n_lines, n_cols)


def check_audit(exit_code: int, out_dir, samples: int, grid_n: int, rng) -> list[str]:
    """audit.csv and f_grid.csv of `qcl audit`, recomputed row by row here."""
    problems = []
    if exit_code != 0:
        problems.append(f"qcl audit exit code {exit_code}")
    try:
        header, a = _read_floats(out_dir / "audit.csv", 6, last_is_flag=True)
        g_header, g = _read_floats(out_dir / "f_grid.csv", 3)
    except (OSError, ValueError) as exc:
        return problems + [f"audit output unreadable: {exc}"]
    if header != "gamma_A,gamma_B,phi_BA,robertson_residual,bound_residual,pass":
        problems.append(f"audit.csv header {header!r}")
    if g_header != "X,Y,f":
        problems.append(f"f_grid.csv header {g_header!r}")
    if a.shape[0] != samples:
        problems.append(f"audit.csv has {a.shape[0] + 1} lines, expected {samples + 1}")
    if g.shape[0] != grid_n * grid_n:
        problems.append(f"f_grid.csv has {g.shape[0] + 1} lines, expected {grid_n ** 2 + 1}")
        return problems
    ga, gb, phi, rob, bound, ok = a.T
    rob_ref = ga * gb - phi * phi / 16.0
    bound_ref = 1.0 - np.exp(-2.0 * ga) - np.exp(-2.0 * gb) * np.sin(0.5 * phi) ** 2
    bad_rob = np.abs(rob - rob_ref) > RECOMPUTE_TOL * np.maximum(1.0, np.abs(rob_ref))
    bad_bound = np.abs(bound - bound_ref) > RECOMPUTE_TOL
    if bad_rob.any():
        problems.append(f"{int(bad_rob.sum())} robertson_residual values disagree")
    if bad_bound.any():
        problems.append(f"{int(bad_bound.sum())} bound_residual values disagree")
    failed_pass = (rob_ref >= 0.0) & (ok != 1.0)
    if failed_pass.any():
        problems.append(f"{int(failed_pass.sum())} precondition rows not marked pass")
    for idx in rng.integers(0, grid_n * grid_n, size=200):
        X, Y, f = g[idx]
        lx, ly = math.log(X), math.log(Y)
        f_ref = 1.0 - X - Y * math.sin(math.sqrt(lx * ly)) ** 2
        if abs(f - f_ref) > RECOMPUTE_TOL:
            problems.append(f"f({X!r}, {Y!r}) = {f!r}, recomputed {f_ref!r}")
            break
    if float(g[:, 2].min()) < GRID_FLOOR:
        problems.append(f"implication function dips to {float(g[:, 2].min())!r}")
    return problems


def check_momentum(g_position: float, g_momentum: float) -> list[str]:
    if not g_position > 0.0:
        return [f"position-route Gamma {g_position!r} not positive"]
    rel = abs(g_position - g_momentum) / g_position
    return [] if rel < 1e-4 else [f"momentum route off by {rel:.3e} relative"]


def check_fock(overlap: complex, gamma_phi: tuple[float, float]) -> list[str]:
    g, p = gamma_phi
    diff = abs(overlap - complex(math.exp(-g) * math.cos(p), math.exp(-g) * math.sin(p)))
    return [] if diff < 1e-6 else [f"Fock overlap off exp(-Gamma + i Phi) by {diff:.3e}"]


def check_joint(alpha: float, residual: float) -> list[str]:
    problems = []
    if residual < -1e-9:
        problems.append(f"joint-bound residual {residual!r} below -1e-9")
    if not 0.0 <= alpha <= 1.0 + 1e-12:
        problems.append(f"joint overlap {alpha!r} outside [0, 1]")
    return problems


def check_projection(discrete: float, continuum: float) -> list[str]:
    rel = abs(discrete - continuum) / continuum
    return [] if rel < 0.05 else [f"1024-mode Gamma off the continuum by {rel:.3%}"]


def check_commutator(family: str, phi_ab: float, phi_ba: float, commutator: float,
                     quad_tol: float) -> list[str]:
    problems = []
    if family == "one-way" and phi_ab != 0.0:
        problems.append(f"one-way phi_AB {phi_ab!r} not exactly zero")
    bound = COMMUTATOR_TOL_FACTOR * quad_tol * (abs(phi_ab) + abs(phi_ba))
    if not abs(commutator - (phi_ba - phi_ab)) <= bound:
        problems.append(
            f"commutator {commutator!r} vs phi_BA - phi_AB {phi_ba - phi_ab!r} "
            f"beyond {bound:.3e}"
        )
    return problems
