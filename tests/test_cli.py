"""End-to-end tests for the command line interface.

Most tests drive the click commands in-process through CliRunner; two
smoke tests exercise the real entry points in subprocesses.  Scenario
configs are kept deliberately cheap (short splits, spacelike layouts)
so the whole module stays fast.
"""

import csv
import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qcl
from qcl.cli import (
    REPORT_COLUMNS,
    ConfigError,
    _apply_vary,
    _parse_vary,
    _write_audit_csv,
    _write_grid_csv,
    main,
    parse_config,
    scenario_from_config,
)
from qcl.functionals import build_report, gamma
from qcl.inequalities import AuditResult, f_grid, implication_audit
from qcl.kernels import SingularityError
from qcl.quadrature import NumericFailure
from qcl.quantum import distinguishability, rho_A, visibility

import oracles
from conftest import count_adaptive


def _qcl_distribution_installed():
    """True when a ``qcl`` distribution is installed, so its scripts exist."""
    try:
        importlib.metadata.distribution("qcl")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def base_config():
    return {
        "particles": {
            "A": {"charge": 1.0, "split": {"L": 0.2, "t0": 0.1, "ramp": 0.25, "hold": 0.2}},
            "B": {"charge": 1.0, "split": {"L": 0.2, "t0": 0.1, "ramp": 0.25, "hold": 0.2}},
        },
        "geometry": {"D": 10.0},
        "kernel": {"sigma": 0.07},
        "times": {"T": 1.0},
    }


def large_charge_config(particle, charge):
    """A mutual layout where one large charge underflows an input of f.

    A at charge 300 gives e^{-2 gamma_A} = 0.0; B at charge 2000 gives
    e^{-phi_BA^2 / (8 gamma_A)} = 0.0.
    """
    split = {"L": 0.5, "t0": 0.3, "ramp": 0.9, "hold": 0.8}
    cfg = {
        "particles": {"A": {"charge": 1.0, "split": dict(split)},
                      "B": {"charge": 1.0, "split": dict(split)}},
        "geometry": {"D": 0.7},
        "kernel": {"sigma": 0.07, "quad_tol": 1e-4},
        "times": {"T": 3.2},
    }
    cfg["particles"][particle]["charge"] = charge
    return cfg


def coincident_config():
    """Both particles on one worldline: at D = 0 a pairing's probe events sit on its source."""
    split = {"L": 0.5, "t0": 0.3, "ramp": 0.9, "hold": 0.8}
    return {
        "particles": {"A": {"charge": 1.0, "split": dict(split)},
                      "B": {"charge": 1.0, "split": dict(split)}},
        "geometry": {"D": 0.0},
        "kernel": {"sigma": 0.07},
        "times": {"T": 3.2},
    }


def readme_config():
    """The config of README's schema block, which has a background."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Config schema", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def runner():
    return CliRunner()


class TestParseConfig:
    def test_durations_are_derived_from_split_parameters(self):
        flat = parse_config(base_config())
        assert "times.T_A" not in flat and "times.T_B" not in flat
        scenario = scenario_from_config(flat)
        assert (scenario.T_A, scenario.T_B) == (0.7, 0.7)
        assert flat["kernel.quad_tol"] == 1e-6
        assert scenario.background is None

    def test_unknown_key_reported_with_dotted_path(self):
        cfg = base_config()
        cfg["geometry"]["tilt"] = 0.1
        with pytest.raises(ConfigError, match="geometry.tilt: unknown key"):
            parse_config(cfg)

    def test_missing_required_key_rejected(self):
        cfg = base_config()
        del cfg["kernel"]["sigma"]
        with pytest.raises(ConfigError, match="kernel.sigma: missing required key"):
            parse_config(cfg)

    def test_split_must_fit_inside_window(self):
        cfg = base_config()
        cfg["particles"]["B"]["split"]["t0"] = 0.5
        message = ("particles.B.split: window [0.0, 1.0] must contain "
                   "the whole excursion [0.5, 1.2]")
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_config(parse_config(cfg))

    def test_excursion_end_is_summed_like_split_path(self):
        # t0 + (2 ramp + hold) is 4.1, but Worldline.t_end's order,
        # (t0 + 2 ramp) + hold, is 4.1000000000000005: past the window.
        cfg = base_config()
        cfg["particles"]["A"]["split"] = {"L": 0.2, "t0": 0.98, "ramp": 0.9, "hold": 1.32}
        cfg["times"]["T"] = 4.1
        message = ("particles.A.split: window [0.0, 4.1] must contain "
                   "the whole excursion [0.98, 4.1000000000000005]")
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_config(parse_config(cfg))

    def test_split_filling_the_window_in_both_sum_orders_is_accepted(self):
        # (0.1 + 0.5) + 0.2 is 0.8 and 0.1 + (0.5 + 0.2) is 0.7999999999999999.
        cfg = base_config()
        cfg["times"]["T"] = 0.8
        scenario = scenario_from_config(parse_config(cfg))
        assert scenario.pair_A.split_window[1] == 0.8

    def test_readme_config_schema_block_parses(self):
        raw = readme_config()
        assert scenario_from_config(parse_config(raw)).background is not None
        # The example's background lies off both splits' mirror planes, so its charge shows.
        phi_a = []
        for charge in (0.5, 0.9):
            raw["background"]["coulomb"]["charge"] = charge
            phi_a.append(build_report(scenario_from_config(parse_config(raw))).phi_A)
        assert phi_a[0] != phi_a[1]

    def test_bool_is_not_a_number(self):
        cfg = base_config()
        cfg["geometry"]["D"] = True
        with pytest.raises(ConfigError, match="geometry.D"):
            parse_config(cfg)

    def test_background_none_and_coulomb(self):
        cfg = base_config()
        cfg["background"] = "none"
        assert parse_config(cfg) == parse_config(base_config())
        cfg["background"] = {"coulomb": {"charge": 0.5, "position": [1, 0.0, 0.0]}}
        flat = parse_config(cfg)
        assert {k: v for k, v in flat.items() if k.startswith("background")} == {
            "background.coulomb.charge": 0.5, "background.coulomb.position": [1.0, 0.0, 0.0],
        }
        assert scenario_from_config(flat).background is not None

    @pytest.mark.parametrize("bad", [
        {"coulomb": {"charge": 0.5}},
        {"coulomb": {"charge": 0.5, "position": [1.0, 0.0]}},
        {"coulomb": {"charge": "q", "position": [1.0, 0.0, 0.0]}},
        {"solenoid": {}},
        [1, 2, 3],
        {"coulomb": {"charge": 0.5, "position": [1.0, True, 0.0]}},
        {"coulomb": {"charge": 0.5, "position": [1.0, "0", 0.0]}},
        {"coulomb": {"charge": 0.5, "position": {"x": 1.0, "y": 0.0, "z": 0.0}}},
    ])
    def test_malformed_background_rejected(self, bad):
        cfg = base_config()
        cfg["background"] = bad
        with pytest.raises(ConfigError, match="background"):
            parse_config(cfg)

    def test_background_null_parses_like_none(self):
        cfg = base_config()
        cfg["background"] = None
        assert parse_config(cfg) == parse_config(base_config())

    def test_unknown_coulomb_key_reported_with_dotted_path(self):
        cfg = base_config()
        cfg["background"] = {"coulomb": {"charge": 0.5, "position": [1.0, 0.0, 0.0], "spin": 1}}
        with pytest.raises(ConfigError, match="background.coulomb.spin: unknown key"):
            parse_config(cfg)


def _outputs(flat):
    """Every report field of a parsed config, with V and D_B, each as its repr."""
    report = build_report(scenario_from_config(flat))
    out = {**report.to_dict(), "V": visibility(rho_A(report)), "D_B": distinguishability(report)}
    return {name: repr(value) for name, value in out.items()}


# Each numeric key of the README config with the factor it is scaled by.
# The tolerance moves by 10x: a 10% step flips no refinement decision there.
# The window bounds no integral, so no factor of times.T moves a bit.
KEY_STEPS = [(key, 1.1) for key in (
    "particles.A.charge", "particles.A.split.L", "particles.A.split.t0",
    "particles.A.split.ramp", "particles.A.split.hold",
    "particles.B.charge", "particles.B.split.L", "particles.B.split.t0",
    "particles.B.split.ramp", "particles.B.split.hold",
    "geometry.D", "kernel.sigma", "background.coulomb.charge", "background.coulomb.position",
)] + [("kernel.quad_tol", 10.0)] + [("times.T", f) for f in (0.8, 1.5, 4.0, 20.0)]


class TestEveryKeyButTheWindowMovesAnOutput:
    def test_steps_cover_every_numeric_key(self):
        assert {key for key, _ in KEY_STEPS} == set(parse_config(readme_config()))

    @pytest.mark.parametrize("key, factor", KEY_STEPS)
    def test_step_moves_an_output_unless_it_is_the_window(self, key, factor):
        flat = parse_config(readme_config())
        value = flat[key]
        stepped = [v * factor for v in value] if isinstance(value, list) else value * factor
        before, after = _outputs(flat), _outputs({**flat, key: stepped})
        if key == "times.T":
            assert after == before
        else:
            assert after != before


class TestVaryParsing:
    def test_grid_is_inclusive_linear(self):
        key, grid = _parse_vary("geometry.D=1:3:5")
        assert key == "geometry.D"
        assert list(grid) == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_single_step_grid(self):
        _, grid = _parse_vary("kernel.sigma=0.07:0.2:1")
        assert list(grid) == [0.07]

    @pytest.mark.parametrize("bad", [
        "geometry.D", "geometry.D=1:3", "geometry.D=1:3:5:7",
        "geometry.D=a:3:5", "geometry.D=1:3:0",
    ])
    def test_malformed_vary_rejected(self, bad):
        with pytest.raises(ConfigError, match="--vary"):
            _parse_vary(bad)

    def test_apply_vary_sets_nested_value(self):
        flat = _apply_vary(parse_config(base_config()), "particles.A.charge", 2.5)
        assert flat["particles.A.charge"] == 2.5

    def test_apply_vary_leaves_original_untouched(self):
        flat = parse_config(base_config())
        _apply_vary(flat, "geometry.D", 3.0)
        assert flat["geometry.D"] == 10.0

    def test_apply_vary_rejects_missing_path(self):
        with pytest.raises(ConfigError, match="geometry.tilt: not a numeric config key"):
            _apply_vary(parse_config(base_config()), "geometry.tilt", 1.0)

    def test_apply_vary_rejects_non_numeric_target(self):
        cfg = base_config()
        cfg["background"] = {"coulomb": {"charge": 0.5, "position": [1.0, 0.0, 0.0]}}
        for key in ("background", "background.coulomb.position"):
            with pytest.raises(ConfigError, match=f"--vary {key}: not a numeric config key"):
                _apply_vary(parse_config(cfg), key, 1.0)


class TestRunCommand:
    def test_writes_report_pair(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        csv_text = (out / "report.csv").read_text()
        header, row_text = csv_text.splitlines()
        assert header == ",".join(REPORT_COLUMNS)

        rows = read_csv(out / "report.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["spacelike"] == "true"
        assert row["phi_AB"] == "0" and row["phi_BA"] == "0"
        assert 0.0 < float(row["V"]) < 1.0
        assert row["D_B"] == "0"

        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {
            "config", "report", "derived",
            "rho_A", "rho_B_given_A_R", "rho_B_given_A_L",
        }
        assert doc["derived"]["V"] == float(row["V"])
        assert doc["report"]["spacelike"] is True
        for blob in (doc["rho_A"], doc["rho_B_given_A_R"]):
            assert len(blob["re"]) == 2 and len(blob["im"]) == 2

    def test_output_is_byte_identical_across_runs(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        for d in ("one", "two"):
            result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / d)])
            assert result.exit_code == 0, result.output
        for name in ("report.json", "report.csv"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second

    def test_degenerate_split_gives_unit_visibility(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["particles"]["A"]["split"]["L"] = 0.0
        cfg_dict["particles"]["B"]["split"]["L"] = 0.0
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        row = read_csv(tmp_path / "o" / "report.csv")[0]
        assert row["V"] == "1"
        assert row["D_B"] == "0"
        assert row["gamma_A"] == "0" and row["gamma_B"] == "0"

    @pytest.mark.parametrize("particle, charge", [("A", 300.0), ("B", 2000.0)])
    def test_underflowing_implication_inputs_exit_0(self, runner, tmp_path, particle, charge):
        cfg = write_config(tmp_path, large_charge_config(particle, charge))
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert math.isfinite(json.loads((out / "report.json").read_text())["derived"]["f_value"])
        row = {k: float(v) for k, v in read_csv(out / "report.csv")[0].items() if k != "spacelike"}
        assert row["gamma_A"] * row["gamma_B"] - row["phi_BA"] ** 2 / 16.0 > 0.0
        assert 1.0 - row["V"] ** 2 - row["D_B"] ** 2 > 0.0

    def test_excursion_past_window_by_rounding_exits_1(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["particles"]["A"]["split"] = {"L": 0.2, "t0": 0.98, "ramp": 0.9, "hold": 1.32}
        cfg_dict["times"]["T"] = 4.1
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "particles.A.split" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_too_fast_particle_is_named_exits_1(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["particles"]["B"]["split"].update(L=0.3, ramp=0.25)
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "input error: particles.B.split: peak speed" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("ramp", 0.0),
        ("hold", -0.1),
    ])
    def test_bad_split_shape_is_named_exits_1(self, runner, tmp_path, key, value):
        cfg_dict = base_config()
        cfg_dict["particles"]["B"]["split"][key] = value
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert f"input error: particles.B.split: {key} must be" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("geometry.D", math.nan),
        ("geometry.D", math.inf),
        ("geometry.D", 10 ** 400),
        ("kernel.quad_tol", math.inf),
        ("kernel.sigma", math.inf),
        ("times.T", math.inf),
        ("particles.A.charge", math.nan),
        ("particles.B.split.hold", -math.inf),
        ("background.coulomb.charge", math.nan),
        ("background.coulomb.position", [0.3, math.inf, 0.0]),
    ], ids=["D-nan", "D-inf", "D-huge-int", "quad_tol-inf", "sigma-inf", "T-inf",
            "charge-nan", "hold-minus-inf", "background-charge-nan", "background-position-inf"])
    def test_non_finite_number_exits_1_and_writes_nothing(self, runner, tmp_path, key, value):
        # json reads NaN, Infinity and integers past the float range.
        cfg_dict = base_config()
        cfg_dict["background"] = {"coulomb": {"charge": 0.5, "position": [0.3, 0.5, 0.0]}}
        *parents, last = key.split(".")
        node = cfg_dict
        for part in parents:
            node = node[part]
        node[last] = value
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 1
        assert f"input error: {key}: expected a finite number" in result.stderr
        assert not out.exists()

    def test_invalid_json_exits_1_and_writes_nothing(self, runner, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 1
        assert "input error" in result.output
        assert not out.exists()

    def test_unknown_config_key_exits_1(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["plotting"] = {"dpi": 300}
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "plotting: unknown key" in result.output

    @pytest.mark.parametrize("section, key, value", [
        (None, "seed", 0),
        ("kernel", "k_max", 80.0),
        ("times", "T_A", 0.7),
        ("times", "T_B", 0.5),
    ], ids=["seed", "kernel.k_max", "times.T_A", "times.T_B"])
    def test_key_that_changes_no_output_exits_1(self, runner, tmp_path, section, key, value):
        # The seed, the momentum cutoff and the split durations are not inputs.
        cfg_dict = base_config()
        (cfg_dict if section is None else cfg_dict[section])[key] = value
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 1
        dotted = key if section is None else f"{section}.{key}"
        assert f"input error: {dotted}: unknown key" in result.stderr
        assert not out.exists()

    def test_environment_does_not_set_the_tolerance(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        docs = []
        for i, env in enumerate(({"QCL_QUAD_TOL": None}, {"QCL_QUAD_TOL": "1e-4"})):
            out = tmp_path / f"o{i}"
            result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)], env=env)
            assert result.exit_code == 0, result.output
            docs.append((out / "report.json").read_bytes())
        assert docs[0] == docs[1]

    def test_failed_inequality_audit_exits_2(self, runner, tmp_path, monkeypatch):
        def failing_audit(report, V, D_B):
            return AuditResult(
                complementarity_residual=-1.0,
                robertson_residual=0.0,
                f_value=0.0,
                complementarity_ok=False,
                robertson_ok=True,
            )

        monkeypatch.setattr("qcl.cli.audit_report", failing_audit)
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 2
        assert "audit failure" in result.output
        # The report files are still written for post-mortem inspection.
        assert (out / "report.json").exists()

    def test_coincident_worldlines_exit_1_without_traceback(self, runner, tmp_path):
        cfg = coincident_config()
        with pytest.raises(SingularityError):
            build_report(scenario_from_config(parse_config(cfg)))
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", str(write_config(tmp_path, cfg)), "--out-dir", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "input error: event on or numerically on the source worldline\n"
        assert not out.exists()

    def test_quadrature_failure_exits_3(self, runner, tmp_path, monkeypatch):
        def exploding_build(scenario):
            raise NumericFailure("decoherence exponent", 0.1, 1e-3, 1e-9)

        monkeypatch.setattr("qcl.cli.build_report", exploding_build)
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert "quadrature failure" in result.output


class TestSweepCommand:
    def test_single_step_sweep_matches_run(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        r1 = runner.invoke(main, ["run", str(cfg), "--out-dir", str(tmp_path / "r")])
        r2 = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=10:10:1",
                                  "--out-dir", str(tmp_path / "s")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        run_row = read_csv(tmp_path / "r" / "report.csv")[0]
        sweep_row = read_csv(tmp_path / "s" / "sweep.csv")[0]
        assert sweep_row["vary"] == "geometry.D"
        assert sweep_row["status"] == "ok"
        for col in REPORT_COLUMNS:
            assert sweep_row[col] == run_row[col]

    def test_separation_sweep_crosses_the_light_cone(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["geometry"]["D"] = 0.4
        cfg_dict["times"]["T"] = 1.2
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=0.4:10:4",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert len(rows) == 4
        kinds = {row["spacelike"] for row in rows}
        assert kinds == {"true", "false"}
        for row in rows:
            if row["spacelike"] == "true":
                # Out of causal reach the cross phase is written as an
                # exact zero, not a small number.
                assert row["phi_AB"] == "0"
            else:
                assert float(row["phi_AB"]) != 0.0

    def test_smearing_sweep_damps_decoherence_monotonically(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "kernel.sigma=0.05:0.11:3",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        gammas = [float(r["gamma_A"]) for r in read_csv(tmp_path / "s" / "sweep.csv")]
        assert gammas == sorted(gammas, reverse=True)
        assert gammas[-1] > 0.0

    def test_split_sweep_recomputes_durations(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg),
                                      "--vary", "particles.A.split.hold=0.1:0.3:3",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        durations = [float(r["T_A"]) for r in read_csv(tmp_path / "s" / "sweep.csv")]
        assert durations == pytest.approx([0.6, 0.7, 0.8])

    @pytest.mark.parametrize("particle, charge", [("A", 300.0), ("B", 2000.0)])
    def test_underflowing_implication_inputs_write_rows(self, runner, tmp_path, particle,
                                                         charge):
        cfg = write_config(tmp_path, large_charge_config(particle, charge))
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=0.7:0.9:2",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert [row["status"] for row in rows] == ["ok", "ok"]

    def test_malformed_vary_exits_1(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=1:3",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 1
        assert "--vary" in result.output

    # The last grid has finite endpoints, but linspace makes it [nan, inf, 1e308].
    @pytest.mark.parametrize("vary", ["geometry.D=nan:1:2", "geometry.D=1:inf:2",
                                      "geometry.D=-inf:1:1", "geometry.D=-1e308:1e308:3"])
    def test_non_finite_grid_exits_1_and_writes_nothing(self, runner, tmp_path, vary):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "s"
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", vary, "--out-dir", str(out)])
        assert result.exit_code == 1
        assert "input error: geometry.D: expected a finite number" in result.stderr
        assert not out.exists()

    def test_vary_path_missing_from_config_exits_1(self, runner, tmp_path):
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "kernel.k_max=5:9:2",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 1
        assert "--vary kernel.k_max: not a numeric config key" in result.output

    def test_partial_quadrature_failure_marks_row_and_exits_3(
            self, runner, tmp_path, monkeypatch):
        from qcl import cli as cli_mod

        real_build = cli_mod.build_report

        def flaky_build(scenario):
            if scenario.D < 5.0:
                raise NumericFailure("pairing phase", 0.0, 1e-2, 1e-9)
            return real_build(scenario)

        monkeypatch.setattr("qcl.cli.build_report", flaky_build)
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=4:10:2",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 3
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert [r["status"] for r in rows] == ["quadrature_failure", "ok"]
        assert rows[0]["V"] == ""
        assert rows[1]["V"] != ""


    def test_bad_point_fails_before_any_point_is_evaluated(self, runner, tmp_path, monkeypatch):
        evaluated = []
        monkeypatch.setattr("qcl.cli.build_report", evaluated.append)
        cfg = write_config(tmp_path, base_config())
        cases = [
            # hold 0.2 fits the window [0, 1]; hold 0.5 ends the excursion at 1.1.
            ("particles.A.split.hold=0.2:0.8:3",
             "input error at particles.A.split.hold=0.5: particles.A.split: "
             "window [0.0, 1.0] must contain the whole excursion [0.1, 1.1]"),
            # With ramp 0.25, L 0.3 peaks at speed 1.125; L 0.1 and 0.2 are slower.
            ("particles.A.split.L=0.1:0.3:3",
             "input error at particles.A.split.L=0.29999999999999999: particles.A.split: peak speed"),
        ]
        for i, (vary, message) in enumerate(cases):
            out = tmp_path / f"s{i}"
            result = runner.invoke(main, ["sweep", str(cfg), "--vary", vary, "--out-dir", str(out)])
            assert result.exit_code == 1
            assert message in result.stderr
            assert evaluated == []
            assert not (out / "sweep.csv").exists()

    def test_coincident_worldlines_exit_1_at_their_point(self, runner, tmp_path):
        cfg = write_config(tmp_path, coincident_config())
        out = tmp_path / "s"
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=0:2:3",
                                      "--out-dir", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == ("input error at geometry.D=0: "
                                 "event on or numerically on the source worldline\n")
        assert not (out / "sweep.csv").exists()

    def test_rows_match_per_point_runs_with_a_background(self, runner, tmp_path):
        cfg_dict = base_config()
        cfg_dict["times"]["T"] = 1.2
        cfg_dict["background"] = {"coulomb": {"charge": 0.9, "position": [0.3, 0.5, 0.0]}}
        cfg = write_config(tmp_path, cfg_dict)
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=0.4:10:4",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert {row["spacelike"] for row in rows} == {"true", "false"}
        for i, row in enumerate(rows):
            cfg_dict["geometry"]["D"] = float(row["value"])
            point = write_config(tmp_path, cfg_dict, name=f"point{i}.json")
            out = tmp_path / f"r{i}"
            r = runner.invoke(main, ["run", str(point), "--out-dir", str(out)])
            assert r.exit_code == 0, r.output
            run_row = read_csv(out / "report.csv")[0]
            assert {c: row[c] for c in REPORT_COLUMNS} == run_row

    @pytest.mark.parametrize("section, key, grid", [
        ("kernel", "quad_tol", "1e-6:1e-4:2"),
        ("background", "coulomb.charge", "0.5:0.9:2"),
    ], ids=["kernel.quad_tol", "background.coulomb.charge"])
    def test_rows_match_per_point_runs_for_any_numeric_key(
            self, runner, tmp_path, section, key, grid):
        cfg_dict = base_config()
        cfg_dict["background"] = {"coulomb": {"charge": 0.9, "position": [0.3, 0.5, 0.0]}}
        assert "quad_tol" not in cfg_dict["kernel"]
        cfg = write_config(tmp_path, cfg_dict)
        vary = f"{section}.{key}"
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", f"{vary}={grid}",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert [float(row["value"]) for row in rows] == [float(v) for v in grid.split(":")[:2]]
        for i, row in enumerate(rows):
            point = json.loads(json.dumps(cfg_dict))
            node = point[section]
            *path, leaf = key.split(".")
            for p in path:
                node = node[p]
            node[leaf] = float(row["value"])
            out = tmp_path / f"r{i}"
            r = runner.invoke(main, ["run", str(write_config(tmp_path, point, f"point{i}.json")),
                                     "--out-dir", str(out)])
            assert r.exit_code == 0, r.output
            assert {c: row[c] for c in REPORT_COLUMNS} == read_csv(out / "report.csv")[0]


class TestSweepReusesGamma:
    @pytest.mark.parametrize("vary, expected", [
        ("geometry.D=0.4:10:10", {"gamma[A]": 1, "gamma[B]": 1}),
        ("particles.A.split.L=0.1:0.25:3", {"gamma[A]": 3, "gamma[B]": 1}),
        ("kernel.sigma=0.05:0.11:3", {"gamma[A]": 3, "gamma[B]": 3}),
    ])
    def test_one_gamma_per_distinct_particle(self, runner, tmp_path, monkeypatch,
                                              vary, expected):
        calls = count_adaptive(monkeypatch, 2)
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", vary,
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        assert calls == expected

    def test_reuse_ends_with_the_sweep(self, runner, tmp_path, monkeypatch):
        calls = count_adaptive(monkeypatch, 2)
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=4:10:2",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 0, result.output
        assert sum(calls.values()) == 2
        scenario = scenario_from_config(parse_config(base_config()))
        gamma(scenario.pair_A, scenario.kernel)
        assert calls["gamma[A]"] == 2
        build_report(scenario)
        build_report(scenario)
        assert calls == {"gamma[A]": 4, "gamma[B]": 3}

    def test_failed_gamma_fails_every_point_that_shares_it(self, runner, tmp_path, monkeypatch):
        calls = count_adaptive(monkeypatch, 2, fail={"gamma[B]"})
        cfg = write_config(tmp_path, base_config())
        result = runner.invoke(main, ["sweep", str(cfg), "--vary", "geometry.D=4:10:3",
                                      "--out-dir", str(tmp_path / "s")])
        assert result.exit_code == 3
        rows = read_csv(tmp_path / "s" / "sweep.csv")
        assert [r["status"] for r in rows] == ["quadrature_failure"] * 3
        assert calls == {"gamma[A]": 1, "gamma[B]": 1}


class TestAuditCommand:
    def test_small_audit_passes_and_writes_tables(self, runner, tmp_path):
        result = runner.invoke(main, ["audit", "--samples", "500", "--grid-n", "32",
                                      "--seed", "3", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "0 violations" in result.output

        audit_lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert audit_lines[0] == "gamma_A,gamma_B,phi_BA,robertson_residual,bound_residual,pass"
        assert len(audit_lines) == 501
        assert all(line.endswith(",true") for line in audit_lines[1:])

        grid_lines = (tmp_path / "f_grid.csv").read_text().splitlines()
        assert grid_lines[0] == "X,Y,f"
        assert len(grid_lines) == 1 + 32 * 32
        f_vals = [float(line.split(",")[2]) for line in grid_lines[1:]]
        assert min(f_vals) >= -1e-12

    def test_rejects_degenerate_sizes(self, runner, tmp_path):
        message = "input error: --samples must be at least 1 and --grid-n at least 2"
        result = runner.invoke(main, ["audit", "--samples", "0",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert message in result.stderr
        result = runner.invoke(main, ["audit", "--grid-n", "1",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert message in result.stderr

    def test_negative_grid_dip_exits_2(self, runner, tmp_path, monkeypatch):
        from qcl.inequalities import f_grid as real_grid

        def dented_grid(n):
            xs, ys, F = real_grid(n)
            F = F.copy()
            F[0, 0] = -1.0
            return xs, ys, F

        monkeypatch.setattr("qcl.cli.f_grid", dented_grid)
        result = runner.invoke(main, ["audit", "--samples", "50", "--grid-n", "8",
                                      "--out-dir", str(tmp_path)])
        assert result.exit_code == 2


def _audit_rows(samples, seed):
    rng = np.random.default_rng(seed)
    ga = 10.0 ** rng.uniform(-3.0, 0.7, size=samples)
    gb = 10.0 ** rng.uniform(-3.0, 0.7, size=samples)
    phi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=samples)
    return implication_audit(np.column_stack([ga, gb, phi]))


class TestAuditWritersMatchOracle:
    # The writers in qcl.cli must give the bytes of the one-value-at-a-time
    # writers kept in tests/oracles.py, across block edges and odd values.
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("samples", [1, 7, 4097])
    def test_audit_csv(self, tmp_path, samples, seed):
        rows = _audit_rows(samples, seed)
        rows["ok"][::3] = False  # no real audit writes "false"
        rows["phi_BA"][-1] = -0.0
        rows["bound_residual"][0] = 5e-324
        _write_audit_csv(tmp_path / "new.csv", rows)
        oracles._write_audit_csv(tmp_path / "old.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [2, 3, 37])
    def test_grid_csv(self, tmp_path, n):
        xs, ys, F = f_grid(n)
        F[0, -1] = -0.0
        F[-1, 0] = 5e-324
        _write_grid_csv(tmp_path / "new.csv", xs, ys, F)
        oracles._write_grid_csv(tmp_path / "old.csv", xs, ys, F)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestEntryPoints:
    def test_module_invocation(self):
        # The child imports the same qcl as this test, whether or not it is installed.
        src = os.path.dirname(os.path.dirname(qcl.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qcl.cli", "--help"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        for command in ("run", "sweep", "audit"):
            assert command in proc.stdout

    @pytest.mark.skipif(
        not _qcl_distribution_installed(),
        reason="no installed qcl distribution, so no qcl console script",
    )
    def test_console_script(self):
        exe = shutil.which("qcl")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "run" in proc.stdout
