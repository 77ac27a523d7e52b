"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The reference pursuit instance (criteria 1-5) is solved once per session
and shared.  Criteria 1 and 2 compare against figures reported for the
original experiment, and criterion 5 allows no time-step error; the
README's reproduction-status section says why these three fail on the
reference instance.  Criteria 4 and 5 compare the LP with oracles on the
same truncated cost axis: criterion 4 takes the risk-neutral optimum from
the interior-point method on the forward program's own constraints, an
engine that shares no code with the Bellman sweep behind the LP, and
criterion 5 takes the Monte Carlo law of ``min(Y, y_max)``.  Every
tolerance below is asserted exactly as stated.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import riskflow as rf
from riskflow.cli import ProblemSpec, build_problem
from riskflow.generator import augment_generator
from riskflow.risk import evaluate, gradient_at_values, terminal_totals
from riskflow.solve import LpProblem, solve_lp


def line(idx, ok, detail):
    print(f"[criterion {idx}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def reference_pieces():
    spec = ProblemSpec()
    pieces = build_problem(spec)
    aug = augment_generator(pieces.base, pieces.cost, spec.alpha, pieces.y_grid)
    fp = rf.assemble_forward_program(aug, pieces.nu, pieces.t_grid)
    return spec, pieces, fp


@pytest.fixture(scope="session")
def reference_run(reference_pieces):
    spec, pieces, fp = reference_pieces
    start = time.monotonic()
    report = rf.optimize_linear_risk(fp, rf.RiskSpec(kind="entropic", theta=1.0),
                                     tol_gap=spec.solver.tol_gap,
                                     max_iter=spec.solver.max_iter)
    elapsed = time.monotonic() - start
    return report, elapsed


@pytest.fixture(scope="session")
def near_neutral_run(reference_pieces):
    spec, pieces, fp = reference_pieces
    report = rf.optimize_linear_risk(fp, rf.RiskSpec(kind="entropic", theta=1e-3),
                                     tol_gap=spec.solver.tol_gap,
                                     max_iter=spec.solver.max_iter)
    return report


def test_criterion_1_reference_reproduction(reference_run):
    report, elapsed = reference_run
    in_window = 1.59 <= report.rho_star <= 1.99
    gap_ok = report.duality_gap <= 1e-6
    time_ok = elapsed <= 15 * 60
    ok = line(1, in_window and gap_ok and time_ok,
              f"rho_star={report.rho_star:.4f} (window [1.59, 1.99]), "
              f"duality_gap={report.duality_gap:.2e} (<=1e-6), "
              f"wall={elapsed:.0f}s (<=900s), "
              f"terminal_cost_mean={report.terminal_cost_mean:.4f}, "
              f"boundary_mass={report.boundary_mass:.3f}")
    assert ok


def test_criterion_2_stationarity(reference_run):
    report, _ = reference_run
    ok = line(2, report.stationarity_w1 <= 1e-3,
              f"W1(last two cost marginals)={report.stationarity_w1:.3e} (<=1e-3)")
    assert ok


def test_criterion_3_strict_control(reference_run):
    report, _ = reference_run
    ok = line(3, report.strictness_fraction >= 0.95,
              f"strictness={report.strictness_fraction:.4f} "
              f"(>=0.95 of reachable cells put >=99% on one action)")
    assert ok


def test_criterion_4_risk_neutral_cross_check(reference_pieces, near_neutral_run):
    spec, pieces, fp = reference_pieces
    totals = terminal_totals(None, fp.n_x, fp.y_values).reshape(fp.n_x, fp.n_y)
    ipm = solve_lp(LpProblem(fp.a_eq, fp.b_eq, fp.terminal_objective(totals)),
                   tol_gap=spec.solver.tol_gap, max_iter=spec.solver.max_iter)
    lp_value = near_neutral_run.rho_star
    rel = abs(lp_value - ipm.primal_objective) / ipm.primal_objective
    ok = line(4, ipm.status == "optimal" and rel <= 1e-2,
              f"LP(theta=1e-3)={lp_value:.4f}, IPM expectation optimum="
              f"{ipm.primal_objective:.4f} (status {ipm.status}, "
              f"{ipm.iterations} iterations), relative diff={rel:.1e} (<=0.01)")
    assert ok


def test_criterion_5_monte_carlo_consistency(reference_pieces, reference_run):
    spec, pieces, fp = reference_pieces
    report, _ = reference_run
    start = time.monotonic()
    res = rf.simulate_paths(pieces.base, report.policy, pieces.cost, spec.alpha,
                            pieces.y_grid, pieces.nu, pieces.t_grid,
                            rf.McConfig(n_paths=100_000, seed=0))
    elapsed = time.monotonic() - start
    # the LP's absorbing top cell holds all mass that reached y_max, so the
    # LP marginal is the law of min(Y, y_max), not of Y
    capped = np.minimum(res.samples, pieces.y_grid.hi)
    values, counts = np.unique(capped, return_counts=True)
    w1 = rf.wasserstein1((values, counts / counts.sum()),
                         (pieces.y_grid.points, report.trajectory.marginal("y")[-1]))
    grid_term = pieces.y_grid.spacing
    stderr_term = 3.0 * capped.std(ddof=1) / np.sqrt(capped.size)
    ok = line(5, w1 <= grid_term + stderr_term and elapsed <= 120,
              f"W1={w1:.4f} vs allowance {grid_term:.4f}+{stderr_term:.4f} "
              f"(grid + 3*stderr), mc_mean={res.samples.mean():.4f}, "
              f"wall={elapsed:.0f}s (<=120s)")
    assert ok


def test_criterion_6_propagation_exactness():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    gen = rf.ControlledGenerator(per_action=(sp.csr_matrix(q),))
    yg = rf.build_uniform_grid(0.0, 1.0, 2)
    aug = augment_generator(gen, np.zeros((2, 1)), 0.0, yg)
    exact = scipy.linalg.expm(q.T) @ np.array([1.0, 0.0])

    def propagate_error(dt):
        n_t = int(round(1.0 / dt)) + 1
        times = np.linspace(0.0, 1.0, n_t)
        traj = rf.propagate_forward(rf.assemble_forward_program(aug, np.eye(2)[0], times),
                                    rf.MarkovPolicy.uniform(n_t, 2, 2, 1))
        got = traj.marginal("x")[-1]
        return np.abs(got - exact).max()

    err_fine = propagate_error(1e-3)
    errors = {dt: propagate_error(dt) for dt in (1e-2, 5e-3, 2.5e-3)}
    r1 = errors[1e-2] / errors[5e-3]
    r2 = errors[5e-3] / errors[2.5e-3]
    ratios_ok = abs(r1 - 2.0) <= 0.4 and abs(r2 - 2.0) <= 0.4
    ok = line(6, err_fine <= 1e-3 and ratios_ok,
              f"err(dt=1e-3)={err_fine:.2e} (<=1e-3), halving ratios "
              f"{r1:.3f}, {r2:.3f} (2.0 +/- 20%)")
    assert ok


def test_criterion_7_oracle_equality():
    def tiny(rates, cost, seed_tag=""):
        mats = [sp.csr_matrix(np.array([[-a, a], [b, -b]]))
                for a, b in rates]
        gen = rf.ControlledGenerator(per_action=tuple(mats))
        yg = rf.build_uniform_grid(0.0, 2.0, 2)
        times = np.linspace(0.0, 1.0, 3)
        aug = augment_generator(gen, np.asarray(cost, float), 0.25, yg)
        fp = rf.assemble_forward_program(aug, np.array([1.0, 0.0]), times)
        rep = rf.optimize_linear_risk(fp, rf.RiskSpec(kind="entropic", theta=1.0),
                                      tol_gap=1e-11)
        enum = rf.enumerate_policies(fp, rf.RiskSpec(kind="entropic", theta=1.0))
        return rep.rho_star, enum.value

    lp_val, enum_val = tiny([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
    designated_ok = abs(lp_val - enum_val) <= 1e-8

    rng = np.random.default_rng(2024)
    worst_gap, violations = 0.0, 0
    for _ in range(20):
        rates = rng.uniform(0.1, 3.0, (2, 2))
        cost = rng.uniform(0.0, 1.5, (2, 2))
        lp_v, en_v = tiny(rates, cost)
        worst_gap = max(worst_gap, lp_v - en_v)
        if en_v < lp_v - 1e-8:
            violations += 1
    ok = line(7, designated_ok and violations == 0,
              f"designated |LP-enum|={abs(lp_val - enum_val):.2e} (<=1e-8); "
              f"randomized: {violations}/20 violations of enum >= LP "
              f"(worst LP excess {worst_gap:.2e})")
    assert ok


def test_criterion_8_conservation_suite():
    rng = np.random.default_rng(77)
    worst_dev, worst_min = 0.0, 0.0
    for _ in range(100):
        n_x = int(rng.integers(2, 6))
        n_y = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, 4))
        n_t = int(rng.integers(2, 6))
        mats = []
        for _ in range(n_a):
            off = rng.uniform(0, 4, (n_x, n_x))
            np.fill_diagonal(off, 0.0)
            mats.append(sp.csr_matrix(off - np.diag(off.sum(axis=1))))
        gen = rf.ControlledGenerator(per_action=tuple(mats))
        for rm in gen.per_action:
            assert rf.validate_generator(rm).ok
        cost = rng.uniform(0, 2, (n_x, n_a))
        yg = rf.build_uniform_grid(0.0, float(rng.uniform(0.5, 3.0)), n_y)
        aug = augment_generator(gen, cost, float(rng.uniform(0, 1)), yg)
        probs = rng.dirichlet(np.ones(n_a), size=(n_t, n_x, n_y))
        policy = rf.MarkovPolicy(probs=probs, mask=np.ones((n_t, n_x, n_y), bool))
        mass = rng.dirichlet(np.ones(n_x * n_y))
        times = np.linspace(0, float(rng.uniform(0.5, 2.0)), n_t)
        # conservation is a property of the step: start it from any (x, y) law
        fp = rf.assemble_forward_program(aug, np.eye(n_x)[0], times)
        traj = rf.propagate_forward(dataclasses.replace(fp, initial=mass), policy)
        worst_dev = max(worst_dev, float(traj.mass_deviation.max()))
        worst_min = min(worst_min, traj.min_mass)
    ok = line(8, worst_dev <= 1e-12 and worst_min >= -1e-12,
              f"100 random instances: max slice mass deviation {worst_dev:.2e} "
              f"(<=1e-12), min mass {worst_min:.2e} (>=-1e-12)")
    assert ok


def test_criterion_9_risk_function_suite():
    rng = np.random.default_rng(99)
    violations = []

    def rand_dist(n):
        return np.sort(rng.uniform(0, 3, n)), rng.dirichlet(np.ones(n))

    # entropic monotone in theta and above the mean
    for _ in range(30):
        d = rand_dist(int(rng.integers(2, 9)))
        thetas = np.sort(rng.uniform(0, 2.5, 4))
        vals = [evaluate(rf.RiskSpec(kind="entropic", theta=t), *d) for t in thetas]
        if np.any(np.diff(vals) < -1e-12):
            violations.append("theta monotonicity")
        if vals[0] < evaluate(rf.RiskSpec(kind="expectation"), *d) - 1e-12:
            violations.append("entropic below mean")

    # semideviation gradient against central differences
    fd_worst = 0.0
    checked = 0
    while checked < 20:
        d = rand_dist(int(rng.integers(3, 8)))
        values, masses = d
        if np.min(np.abs(values - evaluate(rf.RiskSpec(kind="expectation"), *d))) < 1e-4:
            continue
        checked += 1
        spec = rf.RiskSpec(kind="mean_semideviation", beta=float(rng.uniform(0, 1)))
        grad = gradient_at_values(spec, *d, values)
        h = 1e-6
        for j in range(len(values)):
            up, dn = masses.copy(), masses.copy()
            up[j] += h
            dn[j] -= h
            fd = (evaluate(spec, values, up) - evaluate(spec, values, dn)) / (2 * h)
            fd_worst = max(fd_worst, abs(grad[j] - fd))
    if fd_worst > 1e-6:
        violations.append(f"semideviation gradient off by {fd_worst:.1e}")

    # first-order stochastic dominance on 50 constructed pairs
    specs = [rf.RiskSpec(kind="expectation"),
             rf.RiskSpec(kind="entropic", theta=0.9),
             rf.RiskSpec(kind="mean_semideviation", beta=0.7)]
    for _ in range(50):
        d = rand_dist(int(rng.integers(3, 9)))
        values, p = d
        q = p.copy()
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, len(values) - 1))
            j = int(rng.integers(i + 1, len(values)))
            amount = q[i] * rng.uniform(0, 1)
            q[i] -= amount
            q[j] += amount
        for spec in specs:
            if evaluate(spec, values, q) < evaluate(spec, *d) - 1e-12:
                violations.append(f"dominance violated for {spec.kind}")

    ok = line(9, not violations,
              "entropic monotonicity, entropic >= mean, gradient vs central "
              f"differences (worst {fd_worst:.1e} <= 1e-6), 50 dominance pairs: "
              f"{len(violations)} violations")
    assert ok
