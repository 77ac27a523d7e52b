"""Tests of the benchmark itself: span accounting, exact counts, layer shares.

The exact counts are compared between runs with different seeds, which
reach only the Monte Carlo seed.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    inner = tracer.traced("inner", lambda: time.sleep(0.02))
    with tracer.span("outer"):
        time.sleep(0.01)
        inner()
        inner()
    own = tracer.self_times()
    assert tracer.calls() == {"outer": 1, "inner": 2}
    assert 0.04 <= own["inner"] < 0.2
    assert 0.01 <= own["outer"] < 0.04


def test_raising_span_is_closed_and_flagged():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("singular")

    with pytest.raises(RuntimeError):
        tracer.traced("splu", boom)()
    with tracer.span("after"):
        pass
    assert tracer.raised() == {"splu": 1}
    assert tracer.spans[1][3] == -1  # the failed span is no longer open


def test_patches_are_restored():
    import scipy.sparse.linalg as spla

    run._import_riskflow()
    import riskflow.generator as generator

    before = (spla.splu, generator.augment_generator)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    assert spla.splu is not before[0]
    tracer.restore()
    assert (spla.splu, generator.augment_generator) == before


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command fails without a result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    res = subprocess.run(cmd + ["--workload", "oracle_enum", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def _traced(name, seed, work):
    """The per-layer metrics and tracer of one ``--trace 1`` run."""
    ledger = run.Ledger()
    metrics, tracer = run.trace_run(
        run.Workload(run._import_riskflow(), name, seed, work), ledger)
    assert ledger.failed == 0, ledger.diagnostics
    return tracer, {k: value for k, (value, _) in metrics.items()}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counts_repeat_and_layer_shares(name, tmp_path):
    tracer, first = _traced(name, 1, tmp_path / "a")
    _, second = _traced(name, 2, tmp_path / "b")
    assert {k: first[k] for k in tracing.EXACT_COUNTS} == \
        {k: second[k] for k in tracing.EXACT_COUNTS}

    own = tracer.self_times()
    ops = {s[0]: s[2] - s[1] for s in tracer.spans if s[3] == -1}
    if name == "oracle_enum":
        assert first["validate.policies"] == 4096
        assert (first["generator.augment_s"] + first["forward.propagate_s"]
                > 0.5 * ops["run_oracle"])
        assert first["validate.mc_s"] == 0
    else:
        assert max(own, key=own.get) == "splu"
        assert first["validate.mc_s"] > 0.5 * ops["run_validation"]
        assert first["forward.propagate_calls"] == 0
