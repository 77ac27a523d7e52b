"""riskflow benchmark: one workload per process, timed end to end or traced by layer.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 0 --seconds 10 --trace 0

``--trace 0`` sets up the problem in fresh interpreters (``setup_s``), then
runs the workload's operations in order and reports end-to-end medians.
Each operation is called until it has filled an equal share of
``--seconds`` and has been called twice; one whose first call takes longer
than ``--seconds`` is called once.
``--trace 1`` runs the operations once untraced and once traced, and
reports the per-layer metrics of the traced pass.  Every operation's
output is checked against values pinned from the seed implementation; an
operation that raises, returns a non-optimal status or fails its check
counts as failed.  The seed reaches only the Monte Carlo seed of
``validate``.

Human-readable lines (environment, solver diagnostics, medians with their
sample counts) come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with the spans of a traced pass, goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  Workloads are
described in ``bench/WORKLOADS.md``.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = Path(__file__).resolve().parent / "configs"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
MC_PATHS = 100_000

# The operations of each workload, in order; its config is configs/<name>.json.
WORKLOADS = {
    "reference": ("solve", "validate"),
    "circle15_semidev": ("solve", "validate"),
    "oracle_enum": ("oracle",),
}
# Values of the seed implementation.  mc_mean is the Monte Carlo mean at
# seed 0 with MC_PATHS paths.
PINNED = {
    "reference": {"rho_star": 2.016177439068, "mc_mean": 2.4284511615606896},
    "circle15_semidev": {"rho_star": 1.919004620354, "mc_mean": 2.469740021506482},
    "oracle_enum": {"n_policies": 4096, "enumeration_value": 0.98561365053,
                    "lp_value": 0.98561365125},
}
# Each command's time is printed under its own name; the end-to-end metrics
# every workload reports are their sum (total_s) and the last, cross-check
# command (check_s: validate or oracle).
PRINT_NAME = {"solve": "solve_s", "validate": "validate_s", "oracle": "oracle_s"}
# The riskflow function each operation calls; a traced pass opens its span
# under this name, so the self time of "run" is the artifact writing in run.
SPAN_NAME = {"solve": "run", "validate": "run_validation", "oracle": "run_oracle"}

# The third-party modules riskflow imports today load before the clock
# starts.  They are most of an interpreter's set-up, riskflow does not
# control them, and their load time moves with the host far more than
# computation does (+36% against +5% between two sets of runs).  A
# dependency riskflow adds later still counts.
SETUP_CODE = """\
import sys, time
import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg
t0 = time.perf_counter()
import riskflow
from riskflow import cli
cli.build_problem(cli.load_config(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_riskflow():
    if not (SRC / "riskflow" / "__init__.py").is_file():
        _fail(f"no riskflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riskflow

    if Path(riskflow.__file__).resolve().parent != SRC / "riskflow":
        _fail(f"imported riskflow from {riskflow.__file__}, not from {SRC}")
    return riskflow


def _git_revision():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": NPROC, "blas_threads": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_revision": _git_revision(), "seed": seed}


def measure_setup(config: Path) -> list:
    """Seconds for ``import riskflow``, load_config and build_problem in fresh
    interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            _fail(f"setup failed:\n{res.stderr}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


# what riskflow.run writes; validate adds its own files to the same directory
SOLVE_ARTIFACTS = ("report.json", "marginal_x.csv", "marginal_y.csv", "policy.csv",
                   "policy_mask.csv")


def _artifact_bytes(path: Path) -> int:
    return sum((path / name).stat().st_size for name in SOLVE_ARTIFACTS)


class Workload:
    """One workload's spec, working directory and operations."""

    def __init__(self, riskflow, name: str, seed: int, work: Path):
        self.rf = riskflow
        self.name = name
        self.seed = seed
        self.work = work
        self.pinned = PINNED[name]
        self.spec = riskflow.cli.load_config(CONFIGS / f"{name}.json")

    def solve(self):
        report = self.rf.cli.run(self.spec, self.work)
        diag = {"status": report.status, "rho_star": report.rho_star,
                "duality_gap": report.duality_gap, "iterations": report.iterations,
                "tol_gap": self.spec.solver.tol_gap,
                "boundary_mass": report.boundary_mass,
                "fw_rounds": report.fw_iterations,
                "artifact_bytes": _artifact_bytes(self.work)}
        errors = []
        if report.status != "optimal":
            errors.append(f"status {report.status}")
        want = self.pinned["rho_star"]
        if not abs(report.rho_star - want) <= 1e-6 * abs(want):
            errors.append(f"rho_star {report.rho_star!r} != {want!r}")
        return diag, errors

    def validate(self):
        summary = self.rf.cli.run_validation(self.spec, self.work, paths=MC_PATHS,
                                             seed=self.seed)
        diag = {k: summary[k] for k in ("paths", "seed", "mean", "stderr",
                                        "fallback_lookups")}
        errors = []
        if summary["paths"] != MC_PATHS:
            errors.append(f"paths {summary['paths']} != {MC_PATHS}")
        want = self.pinned["mc_mean"]
        if not abs(summary["mean"] - want) <= 5.0 * summary["stderr"]:
            errors.append(f"mc mean {summary['mean']!r} not within 5 stderr "
                          f"({summary['stderr']!r}) of {want!r}")
        return diag, errors

    def oracle(self):
        out = self.rf.cli.run_oracle(self.spec)
        errors = []
        if out["n_policies"] != self.pinned["n_policies"]:
            errors.append(f"n_policies {out['n_policies']}")
        for key in ("enumeration_value", "lp_value"):
            if not abs(out.get(key, math.nan) - self.pinned[key]) <= 1e-9:
                errors.append(f"{key} {out.get(key)!r} != {self.pinned[key]!r}")
        if not out["enumeration_value"] >= out.get("lp_value", math.inf) - 1e-8:
            errors.append("enumeration below the LP value")
        return dict(out), errors


class Ledger:
    """Per-operation samples, diagnostics and failures of one run."""

    def __init__(self):
        self.samples = {}
        self.diagnostics = []
        self.attempted = 0
        self.failed = 0

    def call(self, workload: Workload, op: str) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            diag, errors = getattr(workload, op)()
        except Exception:
            diag, errors = {}, [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        if errors:
            self.failed += 1
            print(f"FAILED {op}: {'; '.join(errors)}", file=sys.stderr)
        self.samples.setdefault(op, []).append(elapsed)
        self.diagnostics.append({"op": op, "seconds": elapsed, "errors": errors, **diag})
        return elapsed

    def run_pass(self, workload: Workload, seconds: float) -> float:
        """The workload's operations in order.  Each is called until it has
        run for an equal share of ``seconds`` and has been called twice, except
        that one whose first call exceeds ``seconds`` is called once.  Returns
        the elapsed seconds."""
        ops = WORKLOADS[workload.name]
        start = time.perf_counter()
        for op in ops:
            first = spent = self.call(workload, op)
            calls = 1
            while first <= seconds and (calls < 2 or spent < seconds / len(ops)):
                spent += self.call(workload, op)
                calls += 1
        return time.perf_counter() - start


def _summary(values: list, unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.6g} {unit} n={len(values)}"
    if len(values) >= 20:
        pct = math.floor(100 * (1 - 10 / len(values)))
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        text += f" p{pct} {cut:.6g} {unit}"
    return text


def timed_run(workload: Workload, seconds: float, ledger: Ledger) -> dict:
    setup = measure_setup(CONFIGS / f"{workload.name}.json")
    ops = WORKLOADS[workload.name]
    ledger.run_pass(workload, seconds)
    print(f"setup_s {_summary(setup, 's')}")
    medians = []
    for op in ops:
        print(f"{PRINT_NAME[op]} {_summary(ledger.samples[op], 's')}")
        medians.append(statistics.median(ledger.samples[op]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb {_summary([peak], 'MB')}")
    return {"setup_s": (statistics.median(setup), "s"),
            "total_s": (sum(medians), "s"),
            "check_s": (medians[-1], "s"),
            "peak_rss_mb": (peak, "MB")}


def traced_pass(workload: Workload, ledger: Ledger):
    """One traced pass; returns the tracer, the solve's artifact bytes and the
    pass's elapsed seconds."""
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        start = time.perf_counter()
        for op in WORKLOADS[workload.name]:
            with tracer.span(SPAN_NAME[op]):
                ledger.call(workload, op)
        elapsed = time.perf_counter() - start
    finally:
        tracer.restore()
    artifact_bytes = [d.get("artifact_bytes", 0) for d in ledger.diagnostics
                      if d["op"] == "solve"]
    return tracer, artifact_bytes[-1] if artifact_bytes else 0, elapsed


def trace_run(workload: Workload, ledger: Ledger):
    untraced = ledger.run_pass(workload, 0.0)
    tracer, artifact_bytes, traced = traced_pass(workload, ledger)
    values = tracing.layer_values(tracer, artifact_bytes, traced - untraced)
    for name, value in values.items():
        print(f"{name} {value:.6g}")
    metrics = {name: (values[name], unit) for name, unit, _ in tracing.LAYER_METRICS}
    return metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    riskflow = _import_riskflow()
    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    ledger = Ledger()
    tracer = None
    try:
        workload = Workload(riskflow, args.workload, args.seed, work)
        if args.trace:
            metrics, tracer = trace_run(workload, ledger)
        else:
            metrics = timed_run(workload, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for diag in ledger.diagnostics:
        if "status" in diag:
            print("solve " + " ".join(f"{k}={diag[k]!r}" for k in
                                      ("status", "rho_star", "duality_gap", "iterations",
                                       "tol_gap", "boundary_mass")))
            break
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  env=env, samples=ledger.samples, operations=ledger.diagnostics,
                  spans=tracer.records() if tracer else None)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
