"""Benchmark for qcl: four workloads, each checked, with an optional trace.

Run from the root of a source checkout (qcl is imported from ./src):

    python3 perfbench/run.py --workload report-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One caller drives the program in a closed loop: the next operation
starts when the previous one returns.  A run measures whole rounds of
operations for about ``--seconds`` (at least one round), checks
every output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, from wrappers around qcl's
cross-module calls (see tracing.py).  ``--workload all`` runs every
workload in its own process, one after another, and prints a summary.
A failed check exits with status 1, a missing program with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "op_geomean_s": "s",
}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> bool:
    """Pin math-library thread pools and clear QCL_QUAD_TOL; before numpy loads.

    One caller keeps at most one core busy, whatever the machine, and a
    stray QCL_QUAD_TOL cannot change the workloads' tolerances.  Returns
    whether QCL_QUAD_TOL was set (and has been cleared).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("QCL_QUAD_TOL", None) is not None


# glibc raises its mmap threshold to the size of the largest block freed
# so far (at most 32 MiB on 64-bit), so by default whether a large array
# lands on the heap (where a freed block may stay resident) depends on
# which arrays were freed before it, and the peak resident set changes
# from seed to seed (211, 253 or 268 MB for the same crosscheck work).
# Fixing the threshold at 32 MiB, where the default settles, is not
# enough: `gamma_momentum`'s 15-30 MiB temporaries then fragment the heap
# differently from seed to seed and the peak still read 212 to 268 MB.
# A 4 MiB threshold keeps integrand-sized arrays on the heap and maps
# every array above it afresh, so the peak is the peak of live memory.
# Its price: each `gamma_momentum` call takes about 28,500 page faults,
# against 6,000 under the default, and 0.3 s more of system time.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 4 * 1024 * 1024


def pin_malloc() -> bool:
    """Fix glibc's mmap threshold; False where there is no glibc mallopt."""
    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


class MissingProgram(RuntimeError):
    pass


def import_qcl():
    """Import qcl from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qcl" / "__init__.py").is_file():
        raise MissingProgram(f"no qcl package under {src}")
    sys.path.insert(0, str(src))
    import qcl
    import qcl.cli  # noqa: F401  (the package does not import its CLI)

    if Path(qcl.__file__).resolve().parent != (src / "qcl").resolve():
        raise MissingProgram(f"qcl imported from {qcl.__file__}, not from {src}")
    return qcl


class Recorder:
    """Times operations, counts failures, collects check problems and a digest.

    The digest covers the outputs of the first round only, which is the
    same for a given seed however long the run is.
    """

    FAILED = object()
    REFERENCE = "reference"  # a call whose result only feeds a check: counted, not timed

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.round_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.first_round = True
        self.first_round_ops = 0
        self._round_total = 0.0

    def ok(self, *values) -> bool:
        return all(v is not self.FAILED for v in values)

    def op(self, kind: str, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
            fn, args = self.tracer.call, (f"op.{kind}", fn, *args)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an operation that raises counts as failed; the run goes on
            self.failed += 1
            print(f"operation {kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return self.FAILED
        elapsed = time.perf_counter() - start
        if kind != self.REFERENCE:
            self.samples[kind].append(elapsed)
            self._round_total += elapsed
        return result

    def end_round(self) -> None:
        if self.first_round:
            self.first_round_ops = self.attempted
        self.round_times.append(self._round_total)
        self._round_total = 0.0
        self.first_round = False
        if self.tracer is not None:
            self.tracer.counting = False

    def output(self, kind: str, *values) -> None:
        if not self.first_round:
            return
        for v in values:
            if isinstance(v, float):
                v = v.hex()
            elif isinstance(v, complex):
                v = f"{v.real.hex()},{v.imag.hex()}"
            self.digest.update(f"{kind}:{v};".encode())

    def check(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "QCL_QUAD_TOL": "cleared" if args.quad_tol_cleared else "unset",
        "malloc_mmap_threshold": MMAP_THRESHOLD_BYTES if args.malloc_pinned else "default",
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that start, import qcl and make round 0's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return times


def run_workload(args) -> int:
    try:
        qcl = import_qcl()
    except MissingProgram as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](qcl, args.seed, scratch, args.smoke)
        if args.setup_probe:
            workload.inputs(0)
            return 0
        setup = measure_setup(args)
        return measure(args, qcl, workload, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, qcl, workload, setup: list[float]) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(qcl)
    rec = Recorder(tracer)
    start = time.perf_counter()
    walls: list[float] = []
    k = 0
    try:
        # Another round is started only if the run, one typical round
        # longer, ends nearer to --seconds than it would without it, so a
        # run lasts --seconds on average instead of half a round more.
        while k == 0 or time.perf_counter() - start + statistics.median(walls) / 2 < args.seconds:
            round_start = time.perf_counter()
            data = workload.inputs(k)
            workload.run_round(k, data, rec)
            rec.end_round()
            walls.append(time.perf_counter() - round_start)
            k += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    rounds = k

    medians = {kind: statistics.median(rec.samples[kind]) for kind in workload.kinds
               if rec.samples[kind]}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "round_s": statistics.median(rec.round_times),
        "op_geomean_s": math.exp(statistics.fmean(math.log(v) for v in medians.values()))
        if len(medians) == len(workload.kinds) else 0.0,
    }
    correct = not rec.problems
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "rounds": rounds,
        "attempted": rec.attempted, "failed": rec.failed, "correct": correct,
        "problems": rec.problems, "environment": environment(args),
        "setup_probes_s": setup, "round_s": rec.round_times,
        "samples_s": dict(rec.samples), "kind_medians_s": medians,
        "end_to_end": end_to_end, "outputs_sha256": rec.digest.hexdigest(),
    }
    if tracer is not None:
        layer = tracer.layer_metrics(rec.first_round_ops, rec.attempted, end_to_end["round_s"])
        record["per_layer"] = layer
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump_spans()), encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    suffix = "-smoke" if args.smoke else ""
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} rounds {rounds} "
          f"attempted {rec.attempted} failed {rec.failed} correct {str(correct).lower()}")
    print(f"environment python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"nproc {env['nproc']} math threads 1 QCL_QUAD_TOL {env['QCL_QUAD_TOL']}")
    for kind in workload.kinds:
        if kind in medians:
            print(f"  {kind:<20} {medians[kind]:.6f} s  median of {len(rec.samples[kind])}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"outputs_sha256 {record['outputs_sha256']}")
    for p in rec.problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    if not (ROOT / "src" / "qcl" / "__init__.py").is_file():
        print(f"cannot run the benchmark: no qcl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    summary = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = max(status, 1)
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return status


def main(argv=None) -> int:
    quad_tol_cleared = pin_environment()
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes: all workloads and checks in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.quad_tol_cleared = quad_tol_cleared
    args.malloc_pinned = pin_malloc()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
