"""Tests of the benchmark itself: planted faults are caught, tracing is inert.

Run from the repository root:

    python3 -m pytest -q perfbench

Each planted fault starts from real program output at smoke size, which
the checks first accept, and changes one number the way a fault in the
program would.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

qcl = run.import_qcl()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(case, output dict) for one smoke scenario of each causal family."""
    w = workloads.ReportMixed(qcl, 7, tmp_path_factory.mktemp("report"), smoke=True)
    out = []
    for case, scenario in w.inputs(0):
        report, V, D_B, _ = w.evaluate(scenario)
        out.append((case, dict(report.to_dict(), V=V, D_B=D_B)))
    return {case.family: (case, o) for case, o in out}


def test_report_checks_accept_program_output(reports):
    for case, out in reports.values():
        assert checks.check_report(case, out) == []


def test_spacelike_phase_moved_one_ulp_is_caught(reports):
    case, out = reports["spacelike"]
    for key in ("phi_AB", "phi_BA"):
        bad = dict(out, **{key: math.nextafter(0.0, 1.0)})
        assert any("not exactly zero" in p for p in checks.check_report(case, bad))
    case, out = reports["one-way"]
    bad = dict(out, phi_AB=math.nextafter(0.0, -1.0))
    assert any("not exactly zero" in p for p in checks.check_report(case, bad))


def test_visibility_moved_1e9_is_caught(reports):
    for case, out in reports.values():
        bad = dict(out, V=out["V"] + 1e-9)
        assert any("V " in p for p in checks.check_report(case, bad))


def test_gamma_b_moved_1e3_relative_is_caught(reports):
    case, out = reports["mutual"]
    bad = dict(out, gamma_B=out["gamma_B"] * (1.0 + 1e-3))
    assert any("D_B" in p for p in checks.check_report(case, bad))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    w = workloads.SweepD(qcl, 7, tmp_path_factory.mktemp("sweep"), smoke=True)
    config, grid, path, work = w.inputs(0)
    start, stop, steps = grid
    code = workloads.run_cli(qcl, ["sweep", str(path), "--vary",
                                   f"geometry.D={start}:{stop}:{steps}", "--out-dir", str(work)])
    assert code == 0
    return config, inputs.sweep_grid(grid), (work / "sweep.csv").read_text()


def _edit_row(text: str, row: int, edit) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    edit(header, cells)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_checks_accept_program_output(sweep):
    config, grid, text = sweep
    assert checks.check_sweep(text, config, grid) == []
    families = [inputs.classify(inputs.sweep_windows(config), D) for D in grid]
    assert sorted(set(families)) == sorted(inputs.FAMILIES)


def test_sweep_quadrature_failure_row_is_caught(sweep):
    config, grid, text = sweep

    def fail(header, cells):
        # What `qcl sweep` writes for a point whose quadrature failed.
        for i, name in enumerate(header):
            if name not in ("vary", "value"):
                cells[i] = ""
        cells[header.index("status")] = "quadrature_failure"

    bad = _edit_row(text, 1, fail)
    assert any("quadrature_failure" in p for p in checks.check_sweep(bad, config, grid))


def test_sweep_gamma_b_moved_1e3_relative_is_caught(sweep):
    config, grid, text = sweep

    def bump(header, cells):
        i = header.index("gamma_B")
        cells[i] = "%.17g" % (float(cells[i]) * (1.0 + 1e-3))

    bad = _edit_row(text, 2, bump)
    assert checks.check_sweep(bad, config, grid) != []


@pytest.fixture(scope="module")
def audit_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("audit")
    code = workloads.run_cli(qcl, ["audit", "--seed", "3", "--samples", "2000",
                                   "--grid-n", "40", "--out-dir", str(out)])
    assert code == 0
    return out


def test_audit_checks_accept_program_output(audit_dir):
    assert checks.check_audit(0, audit_dir, 2000, 40, np.random.default_rng(0)) == []


@pytest.mark.parametrize("column", [3, 4])
def test_audit_row_with_sign_flipped_is_caught(audit_dir, tmp_path, column):
    for name in ("audit.csv", "f_grid.csv"):
        shutil.copy(audit_dir / name, tmp_path / name)
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    for row in range(1, len(lines)):
        cells = lines[row].split(",")
        if float(cells[column]) != 0.0:
            cells[column] = cells[column][1:] if cells[column].startswith("-") else "-" + cells[column]
            lines[row] = ",".join(cells)
            break
    (tmp_path / "audit.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check_audit(0, tmp_path, 2000, 40, np.random.default_rng(0))
    assert any("disagree" in p for p in problems)


def test_audit_exit_code_and_row_count_are_checked(audit_dir):
    assert checks.check_audit(2, audit_dir, 2000, 40, np.random.default_rng(0)) != []
    assert checks.check_audit(0, audit_dir, 2001, 40, np.random.default_rng(0)) != []


def test_commutator_bound_scales_with_the_terms():
    # Disagreement of 5e-9 relative to the terms passes at quad_tol 1e-9
    # x factor 10, even when the difference itself is tiny.
    a, b = 0.05, 0.049
    assert checks.check_commutator("mutual", a, b, (b - a) + 5e-9 * (a + b), 1e-9) == []
    assert checks.check_commutator("mutual", a, b, (b - a) + 2e-8 * (a + b), 1e-9) != []
    assert checks.check_commutator("one-way", 1e-300, b, b, 1e-9) != []


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("outputs_sha256"))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_is_inert_and_its_counts_repeat(workload):
    code0, plain = _bench(workload, 0)
    code1, traced = _bench(workload, 1)
    code2, again = _bench(workload, 1)
    assert code0 == code1 == code2 == 0
    assert _digest(plain) == _digest(traced) == _digest(again)
    first, second = json.loads(traced[-1]), json.loads(again[-1])
    assert set(first["metrics"]) == {m["name"] for m in
                                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "B", "ratio"):
            assert m["value"] == second["metrics"][name]["value"], name
    assert set(json.loads(plain[-1])["metrics"]) == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = _bench("report-mixed", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_inputs_depend_only_on_seed_and_round():
    a = workloads.ReportMixed(qcl, 11, ROOT, smoke=False).inputs(3)
    b = workloads.ReportMixed(qcl, 11, ROOT, smoke=False).inputs(3)
    assert [dataclasses.astuple(c) for c, _ in a] == [dataclasses.astuple(c) for c, _ in b]
    assert [c.family for c, _ in a] == list(inputs.FAMILIES)
