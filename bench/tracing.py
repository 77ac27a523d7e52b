"""Spans recorded from outside riskflow, and the per-layer metrics built from them.

``instrument`` replaces each traced function at the name its caller looks
up (for example ``riskflow.cli.build_problem``, which ``run`` calls as a
module global) with a wrapper that records a span: name, start, end,
parent span and whether it raised.  The solver's calls into scipy are the
factorization boundary: ``splu`` (its returned object's ``solve`` is timed
too), ``cho_factor``/``cho_solve`` and ``spsolve``.  Spans stay in memory;
the caller writes them out when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import collections
import functools
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, raised]
        self.counts = collections.Counter()
        self.peaks = collections.Counter()
        self._stack = []
        self._patches = []

    def peak(self, key: str, value: int):
        self.peaks[key] = max(self.peaks[key], value)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = raised
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, not ok)

    def traced(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` runs once it returns
        and its value is what the wrapper returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, not ok)
            return after(result, args) if after is not None else result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, original, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        own = list(dur)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[i]
        out = collections.Counter()
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def calls(self) -> collections.Counter:
        return collections.Counter(s[0] for s in self.spans)

    def raised(self) -> collections.Counter:
        return collections.Counter(s[0] for s in self.spans if s[4])

    def records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "raised": r}
                for n, s, e, p, r in self.spans]


class _TracedLU:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.traced("lu_solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument(tracer: Tracer):
    """Patch riskflow's layer boundaries and its scipy factorization calls."""
    import scipy.linalg
    import scipy.sparse.linalg as spla

    import riskflow.cli as cli
    import riskflow.generator as generator
    import riskflow.solve as solve
    import riskflow.validate as validate

    def add(key, field):
        def after(result, args):
            tracer.counts[key] += getattr(result, field)
            return result
        return after

    def after_splu(lu, args):
        tracer.peak("normal_nnz", args[0].nnz)
        tracer.peak("factor_fill_nnz", lu.L.nnz + lu.U.nnz)
        return _TracedLU(lu, tracer)

    def after_cho(cf, args):
        n = args[0].shape[0]
        tracer.peak("normal_nnz", int(np.count_nonzero(args[0])))
        tracer.peak("factor_fill_nnz", n * (n + 1) // 2)
        return cf

    def after_assemble(fp, args):
        tracer.peak("lp_nnz", fp.a_eq.nnz)
        return fp

    def after_mc(res, args):
        tracer.counts["mc_paths"] += len(res.samples)
        tracer.counts["mc_fallback_lookups"] += res.fallback_lookups
        return res

    # scipy: the factorization boundary
    tracer.patch(spla, "splu", "splu", after_splu)
    tracer.patch(scipy.linalg, "cho_factor", "cho_factor", after_cho)
    tracer.patch(scipy.linalg, "cho_solve", "cho_solve")
    tracer.patch(spla, "spsolve", "spsolve")
    # generator: AugmentedGenerator.at calls the module global
    for owner in (generator, cli, validate):
        tracer.patch(owner, "augment_generator", "augment_generator")
    # forward
    tracer.patch(cli, "assemble_forward_program", "assemble_forward_program",
                 after_assemble)
    tracer.patch(cli, "write_trajectory_csv", "write_trajectory_csv")
    tracer.patch(validate, "propagate_forward", "propagate_forward")
    # risk
    for owner in (solve, validate):
        tracer.patch(owner, "evaluate", "evaluate")
    # solve
    tracer.patch(solve, "solve_lp", "solve_lp", add("ipm_iterations", "iterations"))
    tracer.patch(solve, "extract_policy", "extract_policy")
    tracer.patch(cli, "optimize_linear_risk", "optimize")
    tracer.patch(cli, "optimize_smooth_risk", "optimize",
                 add("fw_rounds", "fw_iterations"))
    # validate
    tracer.patch(cli, "simulate_paths", "simulate_paths", after_mc)
    tracer.patch(cli, "enumerate_policies", "enumerate_policies",
                 add("policies", "n_policies"))
    for owner in (cli, validate):
        tracer.patch(owner, "wasserstein1", "wasserstein1")
    # cli
    tracer.patch(cli, "build_problem", "build_problem")
    tracer.patch(cli, "_read_policy", "read_policy")


# name, unit, better: the per-layer metrics in the order they are reported
LAYER_METRICS = (
    ("solve.factor_s", "s", "lower"),
    ("solve.factor_calls", "count", "lower"),
    ("solve.factor_retries", "count", "lower"),
    ("solve.factor_fill_nnz", "count", "lower"),
    ("solve.normal_nnz", "count", "lower"),
    ("solve.direction_solve_s", "s", "lower"),
    ("solve.direction_solves", "count", "lower"),
    ("solve.ipm_other_s", "s", "lower"),
    ("solve.lp_solves", "count", "lower"),
    ("solve.ipm_iterations", "count", "lower"),
    ("solve.fw_rounds", "count", "lower"),
    ("solve.extract_policy_s", "s", "lower"),
    ("generator.augment_s", "s", "lower"),
    ("generator.augment_calls", "count", "lower"),
    ("forward.propagate_s", "s", "lower"),
    ("forward.propagate_calls", "count", "lower"),
    ("forward.step_solve_s", "s", "lower"),
    ("forward.step_solves", "count", "lower"),
    ("forward.assemble_s", "s", "lower"),
    ("forward.lp_nnz", "count", "lower"),
    ("forward.marginal_csv_s", "s", "lower"),
    ("risk.evaluate_s", "s", "lower"),
    ("risk.evaluate_calls", "count", "lower"),
    ("validate.mc_s", "s", "lower"),
    ("validate.mc_paths_per_s", "1/s", "higher"),
    ("validate.mc_fallback_lookups", "count", "lower"),
    ("validate.enumerate_s", "s", "lower"),
    ("validate.policies", "count", "higher"),
    ("validate.w1_s", "s", "lower"),
    ("cli.build_problem_s", "s", "lower"),
    ("cli.policy_write_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.policy_read_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

# counts that repeat exactly between runs of one workload
EXACT_COUNTS = ("solve.ipm_iterations", "solve.lp_solves", "solve.fw_rounds",
                "solve.factor_calls", "solve.factor_fill_nnz", "solve.normal_nnz",
                "forward.lp_nnz", "generator.augment_calls",
                "forward.propagate_calls", "validate.policies", "cli.artifact_bytes")


def layer_values(tracer: Tracer, artifact_bytes: int, overhead_s: float) -> dict:
    """Per-layer metric values from the spans of one traced pass.

    ``run`` self time is the artifact writing that ``run`` does itself
    (``policy.csv``, ``policy_mask.csv`` and ``report.json``).
    """
    own, calls, raised = tracer.self_times(), tracer.calls(), tracer.raised()
    mc_s = own["simulate_paths"]
    return {
        "solve.factor_s": own["splu"] + own["cho_factor"],
        "solve.factor_calls": calls["splu"] + calls["cho_factor"],
        "solve.factor_retries": raised["splu"] + raised["cho_factor"],
        "solve.factor_fill_nnz": tracer.peaks["factor_fill_nnz"],
        "solve.normal_nnz": tracer.peaks["normal_nnz"],
        "solve.direction_solve_s": own["lu_solve"] + own["cho_solve"],
        "solve.direction_solves": calls["lu_solve"] + calls["cho_solve"],
        "solve.ipm_other_s": own["solve_lp"],
        "solve.lp_solves": calls["solve_lp"],
        "solve.ipm_iterations": tracer.counts["ipm_iterations"],
        "solve.fw_rounds": tracer.counts["fw_rounds"],
        "solve.extract_policy_s": own["extract_policy"],
        "generator.augment_s": own["augment_generator"],
        "generator.augment_calls": calls["augment_generator"],
        "forward.propagate_s": own["propagate_forward"],
        "forward.propagate_calls": calls["propagate_forward"],
        "forward.step_solve_s": own["spsolve"],
        "forward.step_solves": calls["spsolve"],
        "forward.assemble_s": own["assemble_forward_program"],
        "forward.lp_nnz": tracer.peaks["lp_nnz"],
        "forward.marginal_csv_s": own["write_trajectory_csv"],
        "risk.evaluate_s": own["evaluate"],
        "risk.evaluate_calls": calls["evaluate"],
        "validate.mc_s": mc_s,
        "validate.mc_paths_per_s": tracer.counts["mc_paths"] / mc_s if mc_s > 0 else 0.0,
        "validate.mc_fallback_lookups": tracer.counts["mc_fallback_lookups"],
        "validate.enumerate_s": own["enumerate_policies"],
        "validate.policies": tracer.counts["policies"],
        "validate.w1_s": own["wasserstein1"],
        "cli.build_problem_s": own["build_problem"],
        "cli.policy_write_s": own["run"],
        "cli.artifact_bytes": artifact_bytes,
        "cli.policy_read_s": own["read_policy"],
        "trace_overhead_s": overhead_s,
    }
