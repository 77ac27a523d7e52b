"""The names the bench harness patches (bench/tracing.py) must resolve, so
renaming or deleting one fails here and not only in the bench suite."""

import importlib.util
from pathlib import Path

import scipy.sparse.linalg as spla

import riskflow.cli as cli
import riskflow.validate as validate


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_patch_points_resolve_and_restore():
    tracing = load_tracing()
    originals = (spla.splu, cli._read_policy, validate.propagate_forward,
                 validate.wasserstein1, validate.augment_generator)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert cli._read_policy is not originals[1]
    finally:
        tracer.restore()
    assert (spla.splu, cli._read_policy, validate.propagate_forward,
            validate.wasserstein1, validate.augment_generator) == originals


def test_bench_reads_the_lp_size_of_the_program_it_traces():
    # a traced run reads fp.a_eq.nnz, so the property must keep resolving
    tracing = load_tracing()
    spec = cli._build_spec({"family": "circle_follower",
                            "n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4, "horizon": 4.0})
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        fp = cli._forward_program(spec, cli.build_problem(spec))
    finally:
        tracer.restore()
    assert tracer.peaks["lp_nnz"] == fp.a_eq.nnz > 0


def test_traced_pipeline_records_every_layer_it_reaches(tmp_path):
    # one traced solve, validate and oracle pass, as bench/run.py --trace 1
    # makes it, on a chain small enough to enumerate
    tracing = load_tracing()
    spec = cli._build_spec({"n_x": 3, "n_y": 2, "n_a": 2, "n_t": 3, "horizon": 1.0,
                            "y_max": 2.0,
                            "risk": {"kind": "mean_semideviation", "beta": 0.5}})
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        with tracer.span("run"):
            cli.run(spec, tmp_path)
        with tracer.span("run_validation"):
            cli.run_validation(spec, tmp_path, paths=300, seed=0)
        with tracer.span("run_oracle"):
            cli.run_oracle(spec)
    finally:
        tracer.restore()
    reached = {"run", "run_validation", "run_oracle", "build_problem", "augment_generator",
               "assemble_forward_program", "optimize", "evaluate", "spsolve",
               "extract_policy", "write_trajectory_csv", "read_policy", "simulate_paths",
               "wasserstein1", "enumerate_policies"}
    assert reached <= set(tracer.calls())
    assert tracer.calls()["write_trajectory_csv"] == 2
    assert not tracer.raised()
    layers = tracing.layer_values(tracer, 0, 0.0)
    assert layers["solve.extract_policy_s"] > 0 and layers["forward.marginal_csv_s"] > 0
    assert layers["validate.policies"] == 4096 and layers["solve.fw_rounds"] >= 1
