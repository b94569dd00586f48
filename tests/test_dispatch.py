"""Bitwise promises under a second numpy SIMD dispatch.

numpy picks a SIMD implementation of exp, sin, log1p and friends at
import time, and the pick changes their last bits.  The exact zeros and
bitwise symmetries below hold by how qcl is built, so they must hold
under any pick.  The test reruns the tests that state them in a child
process with every dispatched target this machine supports disabled
through ``NPY_DISABLE_CPU_FEATURES``.  It asserts that each promise
holds there, not that values equal those of the default dispatch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import numpy._core._multiarray_umath as umath
except ImportError:  # numpy < 2
    import numpy.core._multiarray_umath as umath

PROMISES = [
    # Spacelike and one-way zeros.
    "test_functionals.py::TestPairingPhases::test_spacelike_pairings_vanish_bitwise",
    "test_functionals.py::TestPairingPhases::test_one_way_influence_is_directional",
    "test_functionals.py::TestOffAxisNoSignalling::test_spacelike_cross_phases_are_exact_zeros",
    "test_functionals.py::TestOffAxisNoSignalling::test_one_way_influence_is_directional",
    "test_functionals.py::TestCommutator::test_mutually_spacelike_is_exactly_zero",
    # The mirror shortcuts' reports equal the four-integral ones by repr.
    "test_functionals.py::TestMirrorShortcuts::test_standard_layout",
    # Swap antisymmetry of Phi and of the commutator.
    "test_modes.py::TestDisplacementRoute::test_swap_negates_phase_bitwise",
    "test_functionals.py::TestCommutator::test_swap_negates_bitwise",
    # Gamma under rest point, axis and window.
    "test_functionals.py::TestGammaMirrorPath::test_bitwise_invariant_under_axis_and_rest_point",
    # hadamard_dt_r is even in the time lag.
    "test_kernels.py::TestHadamardKernel::test_even_in_time_lag",
    # f is exactly 1 - X on its edges, where ln 1 is 0.0.
    "test_inequalities.py::TestImplicationFunction::test_left_edge_is_exactly_zero",
    "test_inequalities.py::TestImplicationFunction::test_top_edge_is_one_minus_x",
]


def test_promises_hold_under_a_second_dispatch():
    disabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not disabled:
        pytest.skip("numpy has no dispatched SIMD target to disable on this machine")
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # The child first checks that numpy really runs without those targets.
    child = (
        f"import sys, pytest, {umath.__name__} as umath\n"
        f"assert not any(umath.__cpu_features__[t] for t in {disabled!r})\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '--durations=0', *sys.argv[1:]]))\n"
    )
    out = subprocess.run([sys.executable, "-c", child, *PROMISES], cwd=tests,
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    summary = out.stdout.strip().splitlines()[-1]
    assert " passed" in summary and not any(
        word in summary for word in ("failed", "error", "skipped", "deselected")), summary
