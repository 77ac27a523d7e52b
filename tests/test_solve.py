import numpy as np
import pytest
import scipy.sparse as sp

import riskflow.forward as forward_module
import riskflow.solve as solve_module
from riskflow import (ControlledGenerator, LpProblem,
                      MarkovPolicy, RiskSpec,
                      assemble_forward_program, augment_generator,
                      build_uniform_grid, extract_policy,
                      optimize_linear_risk, optimize_smooth_risk,
                      propagate_forward, solve_lp)
from riskflow.errors import AssemblyError, InvalidParameterError
from riskflow.risk import evaluate_laws, merge_support, terminal_totals


def lp(a, b, c):
    return LpProblem(a_eq=sp.csr_matrix(np.atleast_2d(np.asarray(a, float))),
                     b_eq=np.asarray(b, float), c=np.asarray(c, float))


class TestLpCore:
    def test_single_variable(self):
        sol = solve_lp(lp([[1.0]], [1.0], [1.0]))
        assert sol.status == "optimal"
        assert sol.primal[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.duality_gap <= 1e-8

    def test_box_vertex(self):
        # min -x - y s.t. x + y + s = 1: optimum -1 on the segment x + y = 1.
        # oracle: enumerate the basic feasible points of the slack form
        vertices = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
        oracle = min(-x - y for x, y in vertices)
        sol = solve_lp(lp([[1.0, 1.0, 1.0]], [1.0], [-1.0, -1.0, 0.0]))
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(oracle, abs=1e-8)

    def test_infeasible_rows(self):
        sol = solve_lp(lp([[1.0], [1.0]], [1.0, 2.0], [1.0]))
        assert sol.status == "infeasible"

    def test_unbounded_ray(self):
        sol = solve_lp(lp([[1.0, -1.0]], [0.0], [-1.0, -1.0]))
        assert sol.status == "unbounded"

    def test_weak_duality_with_residual_slack(self):
        # for a minimization, dual <= primal up to the residual cross terms
        rng = np.random.default_rng(8)
        a = sp.csr_matrix(rng.uniform(0, 1, (3, 7)))
        x_feas = rng.uniform(0.1, 1, 7)
        b = a @ x_feas
        c = rng.uniform(-1, 1, 7)
        sol = solve_lp(LpProblem(a_eq=a, b_eq=b, c=c))
        assert sol.status == "optimal"
        for pobj, dobj, rho_p, rho_d, _, _ in sol.history:
            slack = 10.0 * (rho_p * (1 + np.linalg.norm(b))
                            + rho_d * (1 + np.linalg.norm(c))) + 1e-9
            assert dobj <= pobj + slack

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = sp.csr_matrix(rng.uniform(0, 1, (4, 9)))
        b = a @ rng.uniform(0.1, 1, 9)
        c = rng.uniform(-1, 1, 9)
        s1 = solve_lp(LpProblem(a_eq=a, b_eq=b, c=c))
        s2 = solve_lp(LpProblem(a_eq=a, b_eq=b, c=c))
        assert np.array_equal(s1.primal, s2.primal)
        assert s1.iterations == s2.iterations

    def test_empty_row_rejected(self):
        with pytest.raises(AssemblyError):
            lp([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 1.0])


def tiny_instance(rates, cost, alpha=0.25, n_y=2, y_max=2.0, n_t=3, horizon=1.0):
    mats = [sp.csr_matrix(np.array([[-q01, q01], [q10, -q10]]))
            for q01, q10 in rates]
    gen = ControlledGenerator(per_action=tuple(mats))
    yg = build_uniform_grid(0.0, y_max, n_y)
    times = np.linspace(0.0, horizon, n_t)
    nu = np.array([1.0, 0.0])
    aug = augment_generator(gen, np.asarray(cost, float), alpha, yg)
    fp = assemble_forward_program(aug, nu, times)
    return gen, yg, times, nu, aug, fp


class TestOptimizeLinear:
    def test_zero_cost_zero_risk(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], np.zeros((2, 2)))
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=1.0))
        assert rep.status == "optimal"
        assert rep.rho_star == pytest.approx(0.0, abs=1e-7)
        assert rep.trajectory.marginal("y")[-1, 0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_enumeration_on_tiny_instance(self):
        from riskflow import enumerate_policies

        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=1.0),
                                   tol_gap=1e-11)
        enum = enumerate_policies(fp, RiskSpec(kind="entropic", theta=1.0))
        assert abs(rep.rho_star - enum.value) <= 1e-8

    def test_expectation_kind(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        rep = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        assert rep.status == "optimal"
        assert rep.rho_star == pytest.approx(
            fp.y_values @ rep.trajectory.marginal("y")[-1], abs=1e-6)

    def test_nonlinear_kind_rejected(self):
        *_, fp = tiny_instance([(1.0, 2.0)], np.zeros((2, 1)))
        from riskflow import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            optimize_linear_risk(fp, RiskSpec(kind="mean_semideviation", beta=0.5))

    def test_objective_scaling_leaves_policy_support(self):
        # positive rescaling of the linear objective cannot move the set of
        # optimal vertices, so the support of the extracted policy survives
        # (tied cells keep their ties, strict cells their action)
        gen, yg, times, nu, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        r1 = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=1.0))
        from riskflow.solve import LpProblem as LP, solve_lp as slp
        w = np.exp(1.0 * np.broadcast_to(fp.y_values, (fp.n_x, fp.n_y)))
        sol = slp(LP(a_eq=fp.a_eq, b_eq=fp.b_eq, c=5.0 * fp.terminal_objective(w)))
        p2 = extract_policy(fp.trajectory_from_solution(sol.primal).mass)
        strong = (r1.trajectory.mass[1].sum(axis=-1) > 1e-6)
        support1 = r1.policy.probs[1][strong] > 1e-5
        support2 = p2.probs[1][strong] > 1e-5
        assert np.array_equal(support1, support2)

    def test_terminal_cost_changes_objective(self):
        gen, yg, times, nu, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        plain = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        shifted = optimize_linear_risk(fp, RiskSpec(kind="expectation"),
                                       v=np.array([0.0, 2.0]))
        assert shifted.rho_star > plain.rho_star

    def test_feasible_point_reproduces_itself(self):
        *_, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]], n_t=4)
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=1.0),
                                   tol_gap=1e-11)
        traj = propagate_forward(fp, rep.policy)
        folded = rep.trajectory.mass.sum(axis=-1)
        assert np.abs(folded - traj.mass).max() < 1e-6


def circle_program(payload):
    from riskflow.cli import _build_spec, _forward_program, build_problem

    spec = _build_spec(payload)
    pieces = build_problem(spec)
    return pieces, _forward_program(spec, pieces)


class TestCertificates:
    @pytest.mark.parametrize("theta", [1.0, 20.0, 60.0, 150.0, 300.0])
    def test_entropic_theta_sweep_matches_highs(self, theta):
        # shifted weights exp(theta (y - top)) stay below exp(15) however large theta is
        from scipy.optimize import linprog

        pieces, fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9})
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=theta))
        assert rep.status == "optimal"
        total = np.broadcast_to(fp.y_values, (fp.n_x, fp.n_y))
        top = total.max()
        ref = linprog(fp.terminal_objective(np.exp(theta * (total - top))),
                      A_eq=fp.a_eq, b_eq=fp.b_eq, bounds=(0, None), method="highs")
        assert ref.status == 0
        # the moment exp(theta rho_star) to 1e-7 relative, where float64 holds it
        assert rep.rho_star == pytest.approx(top + np.log(ref.fun) / theta,
                                             abs=min(1e-8, 1e-7 / theta))
        assert all(np.isfinite(v) for v in rep.to_json_dict().values()
                   if isinstance(v, float))

    @pytest.mark.parametrize("theta", [1.0, 5.0])
    @pytest.mark.parametrize("rates, y_max, v", [
        # rho_star far below the grid's top cost cell
        ([(1.0, 2.0), (0.5, 0.3)], 60.0, None),
        # a costly state reached with probability ~1e-7: the LP optimum is below 1
        ([(1e-7, 2.0), (2e-7, 0.3)], 2.0, [0.0, 40.0]),
    ])
    def test_entropic_error_within_gap_bound(self, theta, rates, y_max, v):
        # the stop test certifies rho_star to ~3 tol_gap / theta, not to
        # tol_gap times exp(theta (top - rho_star))
        from riskflow import enumerate_policies

        cost = [[0.3, 1.1], [0.9, 0.2]]
        *_, fp = tiny_instance(rates, cost, n_y=3, y_max=y_max)
        v = None if v is None else np.array(v)
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=theta), v=v)
        enum = enumerate_policies(fp, RiskSpec(kind="entropic", theta=theta), v=v)
        assert rep.status == "optimal"
        assert rep.rho_star == pytest.approx(enum.value, abs=3e-9 / theta)

    @pytest.mark.parametrize("theta", [1.0, 40.0, 2000.0])
    def test_entropic_matches_enumeration_at_large_theta(self, theta):
        from riskflow import enumerate_policies

        cost = [[0.3, 1.1], [0.9, 0.2]]
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], cost)
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic", theta=theta),
                                   tol_gap=1e-11)
        enum = enumerate_policies(fp, RiskSpec(kind="entropic", theta=theta))
        assert rep.status == "optimal"
        assert rep.rho_star == pytest.approx(enum.value, abs=1e-8)

    @pytest.mark.parametrize("payload", [
        {"n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4, "horizon": 4.0},
        {"n_x": 7, "n_y": 5, "n_a": 3, "n_t": 5, "risk": {"kind": "expectation"}},
    ])
    def test_optimal_reports_gap_within_tolerance(self, payload):
        # the reported gap is the quantity the stop test compares with tol_gap
        pieces, fp = circle_program(payload)
        risk = (RiskSpec(kind="expectation") if "risk" in payload
                else RiskSpec(kind="entropic", theta=1.0))
        for tol in np.logspace(-4, -10, 25):
            rep = optimize_linear_risk(fp, risk, tol_gap=tol)
            assert rep.status == "optimal"
            assert rep.duality_gap <= tol

    def test_frank_wolfe_status_needs_small_gap(self):
        # the expectation vertex is not optimal here: one round leaves a gap
        pieces, fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 7, "n_t": 9})
        spec = RiskSpec(kind="mean_semideviation", beta=0.5)
        short = optimize_smooth_risk(fp, spec, max_fw_iter=1)
        assert short.fw_gap > 1e-8
        assert short.status == "max_iter"
        full = optimize_smooth_risk(fp, spec)
        assert full.fw_gap <= 1e-8
        assert full.status == "optimal"


def tiny_program():
    return tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])[-1]


def small_circle_program():
    return circle_program({"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9})[1]


class TestSmallDiscount:
    @pytest.mark.parametrize("alpha", [1e-300, 1e-17, 1e-13])
    def test_optimum_tends_to_the_undiscounted_one(self, alpha):
        # each step's discount weight tends to 1 with alpha, so the optimum
        # tends to that of alpha = 0 instead of falling to 0
        spec = RiskSpec(kind="expectation")
        payload = {"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9}
        want = optimize_linear_risk(circle_program({**payload, "alpha": 0.0})[1], spec)
        got = optimize_linear_risk(circle_program({**payload, "alpha": alpha})[1], spec)
        assert got.status == want.status == "optimal"
        assert got.rho_star == pytest.approx(want.rho_star, rel=1e-12)


class TestDualSweep:
    """The forward LP solved through its dual, the Bellman sweep, against the
    interior-point method and HiGHS on the same program."""

    @pytest.mark.parametrize("theta", [None, 1.0, 20.0, 300.0])
    @pytest.mark.parametrize("program", [tiny_program, small_circle_program],
                             ids=["tiny", "circle"])
    def test_sweep_ipm_and_highs_agree(self, program, theta):
        from scipy.optimize import linprog

        from riskflow.solve import ENTROPIC_LOG_SPAN, _solve_forward_lp

        fp = program()
        total = np.broadcast_to(fp.y_values, (fp.n_x, fp.n_y))
        if theta is None:  # the expectation
            w = total
        else:  # the shifted entropic weights of optimize_linear_risk
            w = np.exp(theta * (total - max(total.min(),
                                            total.max() - ENTROPIC_LOG_SPAN / theta)))
        c = fp.terminal_objective(w)
        sweep = _solve_forward_lp(fp, w, tol_gap=1e-9, max_iter=200)
        ipm = solve_lp(LpProblem(a_eq=fp.a_eq, b_eq=fp.b_eq, c=c), tol_gap=1e-11)
        ref = linprog(c, A_eq=fp.a_eq, b_eq=fp.b_eq, bounds=(0, None), method="highs")
        assert sweep.status == ipm.status == "optimal" and ref.status == 0
        for other in (ipm.primal_objective, ref.fun):
            assert sweep.primal_objective == pytest.approx(other, rel=1e-9)
        assert sweep.dual_objective == pytest.approx(sweep.primal_objective, rel=1e-12)
        dual_residual = (np.linalg.norm(np.maximum(fp.a_eq.T @ sweep.dual - c, 0.0))
                         / (1.0 + np.linalg.norm(c)))
        assert dual_residual <= 1e-12
        assert np.linalg.norm(fp.a_eq @ sweep.primal - fp.b_eq) <= 1e-12
        assert sweep.primal.min() >= 0.0

    @pytest.mark.parametrize("spec", [RiskSpec(kind="expectation"),
                                      RiskSpec(kind="entropic", theta=1.0)])
    def test_exact_ties_mixed_uniformly(self, spec):
        # with v = 0 the absorbing top cost cell has one value at every state,
        # so every action ties there exactly; slice 0 drives no step at all
        fp = tiny_program()
        rep = optimize_linear_risk(fp, spec)
        top = rep.policy.probs[1:, :, -1]
        assert rep.policy.mask[1:, :, -1].any()
        assert np.abs(top - 0.5).max() <= 1e-15
        assert np.abs(rep.policy.probs[0] - 0.5).max() <= 1e-15

    @pytest.mark.parametrize("spec", [RiskSpec(kind="expectation"),
                                      RiskSpec(kind="entropic", theta=20.0)])
    def test_unreachable_tolerance_is_not_optimal(self, spec):
        fp = small_circle_program()
        rep = optimize_linear_risk(fp, spec, tol_gap=1e-20)
        assert rep.status == "max_iter"
        assert optimize_linear_risk(fp, spec).status == "optimal"

    @pytest.mark.parametrize("optimize, spec", [
        (optimize_linear_risk, RiskSpec(kind="entropic", theta=1.0)),
        (optimize_smooth_risk, RiskSpec(kind="mean_semideviation", beta=0.5)),
    ], ids=["linear", "smooth"])
    def test_solve_never_assembles_the_lp_matrix(self, optimize, spec):
        # the sweep and its certificate read fp.steps; only LP solvers read a_eq
        fp = small_circle_program()
        assert optimize(fp, spec).status == "optimal"
        assert "a_eq" not in vars(fp)

    def test_certificate_flags_a_broken_forward_step(self, monkeypatch):
        # forward step 3 scaled by 1 + 1e-4 and step 4 scaled back: the
        # terminal law, and so the gap, keep their values, and only the
        # primal residual sees that slice 3 breaks the forward equation
        real, forward = forward_module.implicit_step, []
        scale = {3: 1 + 1e-4, 4: 1 / (1 + 1e-4)}

        def broken(*args, transpose):
            out = real(*args, transpose=transpose)
            if transpose:
                forward.append(out)
                out = out * scale.get(len(forward), 1.0)
            return out

        monkeypatch.setattr(forward_module, "implicit_step", broken)
        rep = optimize_linear_risk(small_circle_program(), RiskSpec(kind="expectation"))
        assert len(forward) == 8
        assert rep.status == "max_iter" and rep.duality_gap <= 1e-14

    def test_certificate_flags_a_broken_bellman_value(self, monkeypatch):
        # an interior value raised by 1e-4: the dual objective reads only V_0,
        # so only the Bellman inequality at step 3 can see it
        real = solve_module.bellman_sweep

        def broken(*args):
            values, *rest = real(*args)
            values[3, 0] += 1e-4
            return (values, *rest)

        monkeypatch.setattr(solve_module, "bellman_sweep", broken)
        rep = optimize_linear_risk(small_circle_program(), RiskSpec(kind="expectation"))
        assert rep.status == "max_iter" and rep.duality_gap <= 1e-14

    def test_iterations_count_policy_evaluations(self):
        # at least one evaluation per step; one round per step caps them
        fp = small_circle_program()
        spec = RiskSpec(kind="entropic", theta=1.0)
        full = optimize_linear_risk(fp, spec)
        capped = optimize_linear_risk(fp, spec, max_iter=1)
        assert full.iterations > capped.iterations == fp.n_t - 1


@pytest.fixture
def splu_calls(monkeypatch):
    """Each call of ``scipy.sparse.linalg.splu``: its keywords and whether it raised."""
    import scipy.sparse.linalg as spla

    calls, real = [], spla.splu

    def spy(mat, **kw):
        calls.append({"kw": kw, "raised": True})
        lu = real(mat, **kw)
        calls[-1]["raised"] = False
        return lu

    monkeypatch.setattr(spla, "splu", spy)
    return calls


class TestNormalEquations:
    """A diag(d) A' is symmetric positive definite: one symmetric-mode SuperLU
    factor serves every LP size."""

    def normal_matrix(self, fp, d):
        a = fp.a_eq.tocsr()
        return a, a.T.tocsr(), (a @ sp.diags(d) @ a.T).tocsc()

    def test_symmetric_factor_on_wide_scaling(self):
        from riskflow.solve import _normal_solver

        pieces, fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9})
        assert fp.a_eq.shape[0] > 400
        rng = np.random.default_rng(3)
        d = 10.0 ** rng.uniform(-14, 10, fp.a_eq.shape[1])
        a, a_t, m = self.normal_matrix(fp, d)
        solve = _normal_solver(a, a_t, d)
        rhs = m @ rng.standard_normal(m.shape[0])
        v = solve(rhs)
        assert np.linalg.norm(m @ v - rhs) <= 1e-9 * np.linalg.norm(rhs)
        # diagonal pivots: the row permutation is the symmetric ordering
        lu = solve.__self__
        assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_zeroed_row_goes_through_regularized_retry(self, splu_calls):
        from riskflow.solve import _normal_solver

        pieces, fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9})
        rng = np.random.default_rng(4)
        d = rng.uniform(0.5, 2.0, fp.a_eq.shape[1])
        d[fp.a_eq.tocsr()[17].indices] = 0.0  # row and column 17 of A D A' vanish
        a, a_t, m = self.normal_matrix(fp, d)
        solve = _normal_solver(a, a_t, d)
        assert [c["raised"] for c in splu_calls] == [True, False]
        rhs = m @ rng.standard_normal(m.shape[0])  # zero in row 17
        v = solve(rhs)
        assert np.linalg.norm(m @ v - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_duplicated_row_small_lp_matches_highs(self, splu_calls):
        from scipy.optimize import linprog

        rng = np.random.default_rng(5)
        a4 = rng.uniform(0, 1, (4, 9))
        a = np.vstack([a4, a4[2]])  # rank 4: A D A' is singular in exact arithmetic
        b = a @ rng.uniform(0.1, 1, 9)
        c = rng.uniform(-1, 1, 9)
        sol = solve_lp(lp(a, b, c))
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert sol.status == "optimal" and ref.status == 0
        assert sol.primal_objective == pytest.approx(ref.fun, abs=1e-7)
        # one factor per iteration, some after a regularized retry
        assert sum(not c["raised"] for c in splu_calls) == sol.iterations
        assert all(c["kw"]["permc_spec"] == "MMD_AT_PLUS_A" for c in splu_calls)


class TestOptimizeSmooth:
    def test_linear_converges_in_one_step(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        spec = RiskSpec(kind="entropic", theta=1.0)
        direct = optimize_linear_risk(fp, spec, tol_gap=1e-10)
        fw = optimize_smooth_risk(fp, spec, tol=1e-7, tol_gap=1e-10)
        assert fw.fw_iterations == 1
        assert fw.rho_star == pytest.approx(direct.rho_star, abs=1e-6)

    @pytest.mark.parametrize("spec", [RiskSpec(kind="expectation"),
                                      RiskSpec(kind="entropic", theta=1.0),
                                      RiskSpec(kind="entropic", theta=5.0)],
                             ids=["expectation", "entropic1", "entropic5"])
    def test_both_optimizers_report_one_scale(self, spec):
        # a linear kind's optimum is the same number whichever optimizer finds it
        pieces, fp = circle_program({"n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4,
                                     "horizon": 4.0})
        direct = optimize_linear_risk(fp, spec)
        fw = optimize_smooth_risk(fp, spec)
        assert direct.status == fw.status == "optimal"
        assert fw.rho_star == pytest.approx(direct.rho_star, abs=1e-10)

    def test_semideviation_beta_zero_is_expectation(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        fw = optimize_smooth_risk(fp, RiskSpec(kind="mean_semideviation", beta=0.0))
        direct = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        assert fw.rho_star == pytest.approx(direct.rho_star, abs=1e-6)

    def test_semideviation_bounds(self):
        gen, yg, times, nu, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        expect = optimize_linear_risk(fp, RiskSpec(kind="expectation")).rho_star
        fw = optimize_smooth_risk(fp, RiskSpec(kind="mean_semideviation", beta=1.0),
                                  max_fw_iter=40)
        assert fw.rho_star >= expect - 1e-8
        # mean + beta * E(deviation) <= mean + beta * span of the cost axis
        assert fw.rho_star <= expect + 1.0 * (yg.hi - yg.lo) + 1e-8

    def test_semideviation_against_enumeration(self):
        from riskflow import enumerate_policies

        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        spec = RiskSpec(kind="mean_semideviation", beta=0.7)
        fw = optimize_smooth_risk(fp, spec, max_fw_iter=60, tol=1e-9)
        enum = enumerate_policies(fp, spec)
        # relaxed-policy optimum cannot exceed the deterministic one by more
        # than the conditional-gradient tolerance
        assert fw.rho_star <= enum.value + 1e-4

    @pytest.mark.parametrize("max_fw_iter, status", [(1, "max_iter"), (50, "optimal")])
    def test_rho_star_is_the_risk_of_the_reported_terminal_law(self, max_fw_iter, status):
        # Frank-Wolfe scores the law enumeration scores: merge_support of the
        # totals y + v(x) under the (x, y) marginal of the terminal slice
        pieces, fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 7, "n_t": 9,
                                     "terminal_cost": [0.0, 0.1, 0.3, 0.6, 1.0,
                                                       0.6, 0.3, 0.1, 0.0]})
        spec = RiskSpec(kind="mean_semideviation", beta=0.5)
        rep = optimize_smooth_risk(fp, spec, v=pieces.v, max_fw_iter=max_fw_iter)
        assert rep.status == status
        law = merge_support(terminal_totals(pieces.v, fp.n_x, fp.y_values),
                            rep.trajectory.mass[-1].sum(axis=-1).ravel())
        assert rep.rho_star == pytest.approx(float(evaluate_laws(spec, *law)), abs=1e-12)


class TestExtractPolicy:

    def test_product_slice_recovers_mixture(self):
        cell = np.array([[0.3, 0.5], [0.1, 0.1]])  # (x, y)
        q = np.array([0.25, 0.75])
        cube = cell[..., None] * q
        pol = extract_policy(cube[None])
        assert np.allclose(pol.probs[0], q)
        assert pol.mask.all()

    def test_zero_mass_cells_masked_uniform(self):
        cube = np.zeros((2, 2, 2))
        cube[0, 0] = [0.9, 0.1]
        pol = extract_policy(cube[None])
        assert pol.mask[0, 0, 0]
        assert not pol.mask[0, 1, 1]
        assert np.allclose(pol.probs[0, 1, 1], 0.5)
        pol.validate()

    def test_strictness_statistic(self):
        cube = np.zeros((1, 2, 2))
        cube[0, 0] = [1.0, 0.0]     # strict cell
        cube[0, 1] = [0.5, 0.5]     # mixed cell
        pol = extract_policy(cube[None])
        assert pol.strictness() == pytest.approx(0.5)

    def test_deterministic_policy_constructor(self):
        actions = np.array([[[1, 0], [0, 1]]])
        pol = MarkovPolicy.from_actions(actions, 2)
        pol.validate()
        assert pol.probs[0, 0, 0, 1] == 1.0
        assert pol.probs[0, 1, 0, 0] == 1.0

    @pytest.mark.parametrize("row", [[0.5, 0.4], [1.5, -0.5], [np.nan, 1.0]])
    def test_validate_rejects_non_distributions(self, row):
        probs = np.full((1, 1, 2, 2), 0.5)
        probs[0, 0, 1] = row
        with pytest.raises(InvalidParameterError):
            MarkovPolicy(probs=probs, mask=np.ones((1, 1, 2), bool)).validate()


def per_slice_report(fp, primal, mass_floor):
    """The per-slice loops that a solve report replaced with one pass over
    the measure, kept as the reference of its bits: normalize each slice,
    extract its conditional action law and sum out its marginals."""
    from riskflow import wasserstein1

    cube = np.asarray(primal, dtype=float).reshape(fp.n_t, fp.n_x, fp.n_y, fp.n_a)
    slices, deviation = [], np.zeros(fp.n_t)
    probs = np.full(cube.shape, 1.0 / fp.n_a)
    mask = np.zeros(cube.shape[:3], dtype=bool)
    for k in range(fp.n_t):
        m = cube[k]
        total = float(m.sum())
        deviation[k] = abs(total - 1.0)
        if total > 0:
            m = m / total
        slices.append(m)
        cell = np.maximum(m, 0.0)
        tot = cell.sum(axis=-1)
        hit = tot > mass_floor
        mask[k] = hit
        probs[k][hit] = cell[hit] / tot[hit][..., None]
    y_last, y_prev = slices[-1].sum(axis=(0, 2)), slices[-2].sum(axis=(0, 2))
    return {"mass": np.stack(slices), "mass_deviation": deviation,
            "min_mass": float(cube.min()), "probs": probs, "mask": mask,
            "x": np.stack([sl.sum(axis=(1, 2)) for sl in slices]),
            "y": np.stack([sl.sum(axis=(0, 2)) for sl in slices]),
            "stationarity_w1": wasserstein1((fp.y_values, y_last), (fp.y_values, y_prev)),
            "boundary_mass": float(y_last[-1]),
            "terminal_cost_mean": float(fp.y_values @ y_last)}


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestReportMatchesPerSliceReference:
    @staticmethod
    def assert_matches(fp, primal, mass_floor, rep):
        want = per_slice_report(fp, primal, mass_floor)
        traj = rep.trajectory
        for got, key in ((traj.mass, "mass"), (traj.mass_deviation, "mass_deviation"),
                         (traj.min_mass, "min_mass"), (rep.policy.probs, "probs"),
                         (rep.policy.mask, "mask"), (traj.marginal("x"), "x"),
                         (traj.marginal("y"), "y"), (rep.min_mass, "min_mass"),
                         (rep.stationarity_w1, "stationarity_w1"),
                         (rep.boundary_mass, "boundary_mass"),
                         (rep.terminal_cost_mean, "terminal_cost_mean")):
            assert_same_bits(got, want[key])
        assert rep.mass_deviation_max == want["mass_deviation"].max()

    @pytest.mark.parametrize("payload", [
        {"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9},
        {"n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4, "risk": {"kind": "expectation"},
         "terminal_cost": [0.0, 0.4, 1.3, 0.2, 0.9]},
        {"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9,
         "risk": {"kind": "mean_semideviation", "beta": 0.5}},
    ], ids=["entropic", "expectation_terminal_cost", "semideviation"])
    def test_solved_circle(self, payload, monkeypatch):
        pieces, fp = circle_program(payload)
        risk = RiskSpec(**payload.get("risk", {"kind": "entropic", "theta": 1.0}))
        seen, original = [], solve_module._solve_report

        def record(fp, primal, *args, **kwargs):
            seen.append(primal.copy())
            return original(fp, primal, *args, **kwargs)

        monkeypatch.setattr(solve_module, "_solve_report", record)
        optimize = optimize_linear_risk if risk.is_linear else optimize_smooth_risk
        rep = optimize(fp, risk, v=pieces.v)
        assert rep.status == "optimal" and len(seen) == 1
        self.assert_matches(fp, seen[0], solve_module.MASS_FLOOR, rep)

    def test_crafted_measure(self):
        # slice 0 carries no mass; slice 1 sums to 2, and after normalizing
        # its cell (0, 1) holds exactly the floor 0.25, so it is masked;
        # slice 2 has a negative entry
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        cube = np.zeros((3, 2, 2, 2))
        cube[1] = [[[0.25, 0.5], [0.25, 0.25]], [[0.0, 0.0], [0.5, 0.25]]]
        cube[2] = np.random.default_rng(4).uniform(0.0, 0.3, (2, 2, 2))
        cube[2, 1, 0, 1] = -1e-13
        rep = solve_module._solve_report(fp, cube.ravel(), "optimal", 0.0, 0, 0.25, 0.0)
        assert not rep.policy.mask[1, 0, 1] and rep.policy.mask[1, 0, 0]
        assert not rep.policy.mask[0].any() and rep.trajectory.mass[0].sum() == 0.0
        self.assert_matches(fp, cube.ravel(), 0.25, rep)
