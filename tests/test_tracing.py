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
