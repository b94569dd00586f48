"""Command-line interface: run one scenario, sweep a parameter, audit inequalities.

Scenarios are described by a JSON config (see README for the full
schema); outputs are a JSON report plus flat CSV files designed for
external plotting and diffing.  All numeric output is written with 17
significant digits and fixed field order, so identical inputs produce
byte-identical files.

Exit codes: 0 success, 1 malformed input, 2 an audited inequality
failed, 3 a quadrature did not converge.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import click
import numpy as np

from .functionals import build_report, reusing_gamma
from .geometry import Scenario, make_branch_pair
from .inequalities import audit_report, f_grid, implication_audit
from .kernels import KernelSpec, coulomb_background
from .quadrature import NumericFailure
from .quantum import distinguishability, rho_A, rho_B_conditional, visibility

REPORT_COLUMNS = [
    "D", "T_A", "T_B", "sigma",
    "gamma_A", "gamma_B", "phi_AB", "phi_BA",
    "V", "D_B", "robertson_residual", "complementarity_residual",
    "spacelike",
]


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the offending path."""


# ---------------------------------------------------------------------------
# Config parsing.  The schema is walked strictly: unknown keys are
# rejected with their dotted path, so typos fail loudly instead of
# silently falling back to defaults.  A leaf is a number (float) or a
# point [x, y, z]; an optional object may also be null or "none".

_SCHEMA = {
    "particles": {
        "A": {"charge": float, "split": {"L": float, "t0": float, "ramp": float, "hold": float}},
        "B": {"charge": float, "split": {"L": float, "t0": float, "ramp": float, "hold": float}},
    },
    "geometry": {"D": float},
    "kernel": {"sigma": float, "quad_tol": float},
    "times": {"T": float},
    "background": {"coulomb": {"charge": float, "position": [float, float, float]}},
}

_OPTIONAL = {"kernel.quad_tol", "background"}


def _walk_schema(data, schema, path: str, out: dict) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in data:
        if key not in schema:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    for key, sub in schema.items():
        full = f"{path}.{key}" if path else key
        if key not in data:
            if full in _OPTIONAL:
                continue
            raise ConfigError(f"{full}: missing required key")
        val = data[key]
        if isinstance(sub, dict):
            if full in _OPTIONAL and (val is None or val == "none"):
                continue
            _walk_schema(val, sub, full, out)
        elif isinstance(sub, list):
            if not isinstance(val, list) or len(val) != len(sub):
                raise ConfigError(f"{full}: expected [x, y, z]")
            out[full] = [_number(v, full) for v in val]
        else:
            out[full] = _number(val, full)


def _number(val, key: str) -> float:
    """val as a float; a bool, a non-number, NaN, inf or a huge int is a ConfigError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {val!r}")
    try:
        x = float(val)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number")
    return x


def parse_config(raw: dict) -> dict:
    """Validate a raw config dict into a flat {dotted.path: value} mapping."""
    flat: dict = {}
    _walk_schema(raw, _SCHEMA, "", flat)
    flat.setdefault("kernel.quad_tol", KernelSpec.quad_tol)
    return flat


def _split_duration(flat: dict, p: str) -> float:
    """Length 2*ramp + hold of particle p's split window: reported, never declared."""
    split = f"particles.{p}.split"
    return 2.0 * flat[f"{split}.ramp"] + flat[f"{split}.hold"]


def scenario_from_config(flat: dict) -> Scenario:
    try:
        spec = KernelSpec(sigma=flat["kernel.sigma"], quad_tol=flat["kernel.quad_tol"])
        background = None
        if "background.coulomb.charge" in flat:
            background = coulomb_background(
                flat["background.coulomb.charge"], flat["background.coulomb.position"], spec
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    pairs = {}
    for p, base in (("A", (0.0, 0.0, 0.0)), ("B", (flat["geometry.D"], 0.0, 0.0))):
        split = f"particles.{p}.split"
        try:
            pairs[p] = make_branch_pair(
                p, flat[f"{split}.L"], flat[f"{split}.t0"], flat[f"{split}.ramp"],
                flat[f"{split}.hold"], charge=flat[f"particles.{p}.charge"], base=base,
                window=(0.0, flat["times.T"]),
            )
        except ValueError as exc:
            raise ConfigError(f"{split}: {exc}") from None
    return Scenario(
        pair_A=pairs["A"], pair_B=pairs["B"], kernel=spec,
        D=flat["geometry.D"], T=flat["times.T"],
        T_A=_split_duration(flat, "A"), T_B=_split_duration(flat, "B"),
        background=background,
    )


# ---------------------------------------------------------------------------
# Deterministic serialization: every float is written as %.17g.


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in output: {x!r}")
        return "%.17g" % x
    raise TypeError(f"not a scalar: {x!r}")


def dump_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars with fixed float formatting."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(k)}: {dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dump_json(v, indent + 1) for v in obj)
        return "[" + inner + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def _matrix_blob(m: np.ndarray) -> dict:
    return {
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }


def _report_row(flat: dict, report, V: float, D_B: float, audit) -> dict:
    return {
        "D": flat["geometry.D"],
        "T_A": _split_duration(flat, "A"),
        "T_B": _split_duration(flat, "B"),
        "sigma": flat["kernel.sigma"],
        "gamma_A": report.gamma_A,
        "gamma_B": report.gamma_B,
        "phi_AB": report.phi_AB,
        "phi_BA": report.phi_BA,
        "V": V,
        "D_B": D_B,
        "robertson_residual": audit.robertson_residual,
        "complementarity_residual": audit.complementarity_residual,
        "spacelike": report.spacelike,
    }


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _evaluate(scenario: Scenario):
    report = build_report(scenario)
    V = visibility(rho_A(report))
    D_B = distinguishability(report)
    audit = audit_report(report, V, D_B)
    return report, V, D_B, audit


# ---------------------------------------------------------------------------
# Commands.


@click.group()
def main() -> None:
    """Worldline-superposition electrodynamics lab."""


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True,
              help="Directory for report.json and report.csv.")
def run(config: Path, out_dir: Path) -> None:
    """Evaluate one scenario and write report.json plus a one-row report.csv."""
    raw = _load_json(config)
    try:
        flat = parse_config(raw)
        report, V, D_B, audit = _evaluate(scenario_from_config(flat))
    except ConfigError as exc:
        click.echo(f"input error: {exc}", err=True)
        raise SystemExit(1)
    except NumericFailure as exc:
        click.echo(f"quadrature failure: {exc}", err=True)
        raise SystemExit(3)

    row = _report_row(flat, report, V, D_B, audit)
    doc = {
        "config": raw,
        "report": report.to_dict(),
        "derived": {
            "V": V,
            "D_B": D_B,
            "robertson_residual": audit.robertson_residual,
            "complementarity_residual": audit.complementarity_residual,
            "f_value": audit.f_value,
            "quad_tol": flat["kernel.quad_tol"],
        },
        "rho_A": _matrix_blob(rho_A(report).matrix),
        "rho_B_given_A_R": _matrix_blob(rho_B_conditional(report, "R").matrix),
        "rho_B_given_A_L": _matrix_blob(rho_B_conditional(report, "L").matrix),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "report.json", dump_json(doc) + "\n")
    _write(out_dir / "report.csv", _csv([REPORT_COLUMNS, [row[c] for c in REPORT_COLUMNS]]))
    click.echo(f"report written to {out_dir / 'report.json'} and {out_dir / 'report.csv'}")
    if not (audit.complementarity_ok and audit.robertson_ok):
        click.echo(
            "audit failure: "
            f"complementarity residual {audit.complementarity_residual:.3e} "
            f"(ok={audit.complementarity_ok}), "
            f"robertson residual {audit.robertson_residual:.3e} "
            f"(ok={audit.robertson_ok})",
            err=True,
        )
        raise SystemExit(2)


def _csv(rows) -> str:
    lines = [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _load_json(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        click.echo(f"input error: {path}: {exc}", err=True)
        raise SystemExit(1)
    if not isinstance(raw, dict):
        click.echo(f"input error: {path}: top level must be an object", err=True)
        raise SystemExit(1)
    return raw


def _apply_vary(flat: dict, key: str, value: float) -> dict:
    """A copy of the parsed config with one numeric key set to value."""
    if not isinstance(flat.get(key), float):
        raise ConfigError(f"--vary {key}: not a numeric config key")
    return {**flat, key: value}


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--vary", required=True, metavar="KEY=START:STOP:STEPS",
              help="Dotted config key and inclusive linear grid, "
                   "e.g. geometry.D=1:8:15 or kernel.sigma=0.05:0.12:8.")
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True, help="Directory for sweep.csv.")
def sweep(config: Path, vary: str, out_dir: Path) -> None:
    """Evaluate a scenario across a one-parameter grid; one CSV row per point."""
    raw = _load_json(config)
    try:
        key, grid = _parse_vary(vary)
        base = parse_config(raw)
    except ConfigError as exc:
        click.echo(f"input error: {exc}", err=True)
        raise SystemExit(1)

    # Every point is built and checked before any is evaluated, so a bad
    # point fails the sweep without the cost of the points before it.
    points = []
    for value in grid:
        try:
            flat = _apply_vary(base, key, float(value))
            points.append((float(value), flat, scenario_from_config(flat)))
        except ConfigError as exc:
            click.echo(f"input error at {key}={value:.17g}: {exc}", err=True)
            raise SystemExit(1)

    rows = [["vary", "value", *REPORT_COLUMNS, "status"]]
    any_numeric_failure = False
    with reusing_gamma():
        for value, flat, scenario in points:
            try:
                report, V, D_B, audit = _evaluate(scenario)
            except NumericFailure:
                any_numeric_failure = True
                rows.append([key, value, *[""] * len(REPORT_COLUMNS), "quadrature_failure"])
                continue
            row = _report_row(flat, report, V, D_B, audit)
            rows.append([key, value, *[row[c] for c in REPORT_COLUMNS], "ok"])

    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "sweep.csv", _csv(rows))
    click.echo(f"sweep written to {out_dir / 'sweep.csv'}")
    if any_numeric_failure:
        raise SystemExit(3)


def _parse_vary(vary: str) -> tuple[str, np.ndarray]:
    if "=" not in vary:
        raise ConfigError("--vary must look like key=start:stop:steps")
    key, _, rhs = vary.partition("=")
    parts = rhs.split(":")
    if len(parts) != 3:
        raise ConfigError("--vary must look like key=start:stop:steps")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"--vary: could not parse grid {rhs!r}") from None
    key = key.strip()
    if steps < 1:
        raise ConfigError("--vary: steps must be at least 1")
    # Finite endpoints can still overflow: linspace(-1e308, 1e308, 3) is [nan, inf, 1e308].
    with np.errstate(all="ignore"):
        grid = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    for value in grid:
        _number(value, key)
    return key, grid


@main.command()
@click.option("--samples", type=int, default=100000, show_default=True,
              help="Number of random (gamma_A, gamma_B, phi_BA) triples.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--grid-n", type=int, default=1000, show_default=True,
              help="Interior grid resolution per axis for f_grid.csv.")
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True,
              help="Directory for audit.csv and f_grid.csv.")
def audit(samples: int, seed: int, grid_n: int, out_dir: Path) -> None:
    """Scan the implication function and audit random parameter triples.

    Triples are drawn so that most satisfy the Robertson precondition;
    the audit fails (exit 2) if any precondition-satisfying triple
    violates the complementarity bound beyond 1e-12, or if the
    implication function dips below -1e-12 anywhere on the grid.
    """
    if samples < 1 or grid_n < 2:
        click.echo("input error: --samples must be at least 1 and --grid-n at least 2", err=True)
        raise SystemExit(1)
    rng = np.random.default_rng(seed)
    ga = 10.0 ** rng.uniform(-3.0, 0.7, size=samples)
    gb = 10.0 ** rng.uniform(-3.0, 0.7, size=samples)
    mix = rng.uniform(size=samples) < 0.8
    phi = np.where(
        mix,
        rng.uniform(-1.0, 1.0, size=samples) * 4.0 * np.sqrt(ga * gb),
        rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=samples),
    )
    rows = implication_audit(np.column_stack([ga, gb, phi]))

    xs, ys, F = f_grid(grid_n)
    grid_min = float(F.min())

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_audit_csv(out_dir / "audit.csv", rows)
    _write_grid_csv(out_dir / "f_grid.csv", xs, ys, F)

    n_violations = int(np.count_nonzero(~rows["ok"]))
    click.echo(f"audit: {samples} triples, {n_violations} violations; "
               f"grid min f = {grid_min:.3e}")
    if n_violations > 0 or grid_min < -1e-12:
        raise SystemExit(2)


def _write_audit_csv(path: Path, rows: np.ndarray) -> None:
    # One %-template per line over each block's Python floats, written as
    # it is made: the default audit is 1e5 lines, about 11 MB of text.
    line = "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("gamma_A,gamma_B,phi_BA,robertson_residual,bound_residual,pass\n")
        for start in range(0, len(rows), 4096):
            block = rows[start:start + 4096]
            cols = [block[name].tolist() for name in
                    ("gamma_A", "gamma_B", "phi_BA", "robertson_residual", "bound_residual")]
            cols.append(["true" if ok else "false" for ok in block["ok"].tolist()])
            f.write("".join(map(line.__mod__, zip(*cols))))


def _write_grid_csv(path: Path, xs: np.ndarray, ys: np.ndarray, F: np.ndarray) -> None:
    # The default grid is a million lines, about 60 MB.  Each axis is
    # formatted once; grid row i is one template, "x_i,y_j,%.17g\n" over j,
    # filled with F[i] and written before the next row is made.
    tails = ["%.17g,%%.17g\n" % y for y in ys.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("X,Y,f\n")
        for x, row in zip(xs.tolist(), F):
            head = "%.17g," % x
            f.write((head + head.join(tails)) % tuple(row.tolist()))


if __name__ == "__main__":
    main()
