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
                 validate.wasserstein1)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert cli._read_policy is not originals[1]
    finally:
        tracer.restore()
    assert (spla.splu, cli._read_policy, validate.propagate_forward,
            validate.wasserstein1) == originals
