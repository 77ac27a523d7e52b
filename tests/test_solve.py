import numpy as np
import pytest
import scipy.sparse as sp

from riskflow import (ControlledGenerator, DiscreteDistribution, LpProblem,
                      MarkovPolicy, RateMatrix, RiskSpec,
                      assemble_forward_program, augment_generator,
                      build_uniform_grid, extract_policy,
                      optimize_linear_risk, optimize_smooth_risk,
                      propagate_forward, solve_lp)
from riskflow.errors import AssemblyError
from riskflow.forward import TrajectoryDistribution


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
    mats = [RateMatrix(sp.csr_matrix(np.array([[-q01, q01], [q10, -q10]])))
            for q01, q10 in rates]
    gen = ControlledGenerator(per_action=tuple(mats))
    yg = build_uniform_grid(0.0, y_max, n_y)
    times = np.linspace(0.0, horizon, n_t)
    nu = np.array([1.0, 0.0])
    init = np.zeros((2, n_y))
    init[:, 0] = nu
    start = DiscreteDistribution(axes=("x", "y"),
                                 coords=(np.arange(2.0), yg.points), mass=init)
    aug = augment_generator(gen, np.asarray(cost, float), alpha, yg, t=0.0)
    fp = assemble_forward_program(aug, start, times)
    return gen, yg, times, nu, start, aug, fp


class TestOptimizeLinear:
    def test_zero_cost_zero_risk(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], np.zeros((2, 2)))
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic_linear", theta=1.0))
        assert rep.status == "optimal"
        assert rep.rho_star == pytest.approx(0.0, abs=1e-7)
        ym = rep.trajectory.slices[-1].marginal("y")
        assert ym.mass[0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_enumeration_on_tiny_instance(self):
        from riskflow import enumerate_policies

        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic_linear", theta=1.0),
                                   tol_gap=1e-11)
        enum = enumerate_policies(gen, [[0.3, 1.1], [0.9, 0.2]], 0.25, yg, times, nu,
                                  RiskSpec(kind="entropic", theta=1.0))
        assert abs(rep.rho_star - enum.value) <= 1e-8

    def test_expectation_kind(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        rep = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        assert rep.status == "optimal"
        assert rep.rho_linear is None
        assert rep.rho_star == pytest.approx(
            rep.trajectory.slices[-1].marginal("y").mean(), abs=1e-6)

    def test_nonlinear_kind_rejected(self):
        *_, fp = tiny_instance([(1.0, 2.0)], np.zeros((2, 1)))
        from riskflow import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            optimize_linear_risk(fp, RiskSpec(kind="mean_semideviation", beta=0.5))

    def test_objective_scaling_leaves_policy_support(self):
        # positive rescaling of the linear objective cannot move the set of
        # optimal vertices, so the support of the extracted policy survives
        # (tied cells keep their ties, strict cells their action)
        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        r1 = optimize_linear_risk(fp, RiskSpec(kind="entropic_linear", theta=1.0))
        from riskflow.solve import LpProblem as LP, solve_lp as slp
        w = np.exp(1.0 * np.broadcast_to(fp.y_values, (fp.n_x, fp.n_y)))
        sol = slp(LP(a_eq=fp.a_eq, b_eq=fp.b_eq, c=5.0 * fp.terminal_objective(w)))
        p2 = extract_policy(fp.trajectory_from_solution(sol.primal))
        strong = (r1.trajectory.slices[1].mass.sum(axis=-1) > 1e-6)
        support1 = r1.policy.probs[1][strong] > 1e-5
        support2 = p2.probs[1][strong] > 1e-5
        assert np.array_equal(support1, support2)

    def test_terminal_cost_changes_objective(self):
        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        plain = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        shifted = optimize_linear_risk(fp, RiskSpec(kind="expectation"),
                                       v=np.array([0.0, 2.0]))
        assert shifted.rho_star > plain.rho_star

    def test_feasible_point_reproduces_itself(self):
        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]], n_t=4)
        rep = optimize_linear_risk(fp, RiskSpec(kind="entropic_linear", theta=1.0),
                                   tol_gap=1e-11)
        traj = propagate_forward(aug, rep.policy, start, times)
        for sl_lp, sl_prop in zip(rep.trajectory.slices, traj.slices):
            folded = sl_lp.mass.sum(axis=-1)
            assert np.abs(folded - sl_prop.mass).max() < 1e-6


class TestOptimizeSmooth:
    def test_linear_converges_in_one_step(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        spec = RiskSpec(kind="entropic_linear", theta=1.0)
        direct = optimize_linear_risk(fp, spec, tol_gap=1e-10)
        fw = optimize_smooth_risk(fp, spec, tol=1e-7, tol_gap=1e-10)
        assert fw.fw_iterations == 1
        assert fw.rho_star == pytest.approx(direct.rho_linear, abs=1e-6)

    def test_semideviation_beta_zero_is_expectation(self):
        *_, fp = tiny_instance([(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        fw = optimize_smooth_risk(fp, RiskSpec(kind="mean_semideviation", beta=0.0))
        direct = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        assert fw.rho_star == pytest.approx(direct.rho_star, abs=1e-6)

    def test_semideviation_bounds(self):
        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        expect = optimize_linear_risk(fp, RiskSpec(kind="expectation")).rho_star
        fw = optimize_smooth_risk(fp, RiskSpec(kind="mean_semideviation", beta=1.0),
                                  max_fw_iter=40)
        assert fw.rho_star >= expect - 1e-8
        # mean + beta * E(deviation) <= mean + beta * span of the cost axis
        assert fw.rho_star <= expect + 1.0 * (yg.hi - yg.lo) + 1e-8

    def test_semideviation_against_enumeration(self):
        from riskflow import enumerate_policies

        gen, yg, times, nu, start, aug, fp = tiny_instance(
            [(1.0, 2.0), (0.5, 0.3)], [[0.3, 1.1], [0.9, 0.2]])
        spec = RiskSpec(kind="mean_semideviation", beta=0.7)
        fw = optimize_smooth_risk(fp, spec, max_fw_iter=60, tol=1e-9)
        enum = enumerate_policies(gen, [[0.3, 1.1], [0.9, 0.2]], 0.25, yg, times,
                                  nu, spec)
        # relaxed-policy optimum cannot exceed the deterministic one by more
        # than the conditional-gradient tolerance
        assert fw.rho_star <= enum.value + 1e-4


class TestExtractPolicy:
    def make_traj(self, cubes):
        coords = (np.arange(float(cubes[0].shape[0])),
                  np.arange(float(cubes[0].shape[1])),
                  np.arange(float(cubes[0].shape[2])))
        slices = tuple(DiscreteDistribution(axes=("x", "y", "a"), coords=coords,
                                            mass=m) for m in cubes)
        return TrajectoryDistribution(times=np.arange(float(len(cubes))),
                                      slices=slices)

    def test_product_slice_recovers_mixture(self):
        cell = np.array([[0.3, 0.5], [0.1, 0.1]])  # (x, y)
        q = np.array([0.25, 0.75])
        cube = cell[..., None] * q
        pol = extract_policy(self.make_traj([cube]))
        assert np.allclose(pol.probs[0], q)
        assert pol.mask.all()

    def test_zero_mass_cells_masked_uniform(self):
        cube = np.zeros((2, 2, 2))
        cube[0, 0] = [0.9, 0.1]
        pol = extract_policy(self.make_traj([cube]))
        assert pol.mask[0, 0, 0]
        assert not pol.mask[0, 1, 1]
        assert np.allclose(pol.probs[0, 1, 1], 0.5)
        pol.validate()

    def test_strictness_statistic(self):
        cube = np.zeros((1, 2, 2))
        cube[0, 0] = [1.0, 0.0]     # strict cell
        cube[0, 1] = [0.5, 0.5]     # mixed cell
        pol = extract_policy(self.make_traj([cube]))
        assert pol.strictness() == pytest.approx(0.5)

    def test_deterministic_policy_constructor(self):
        actions = np.array([[[1, 0], [0, 1]]])
        pol = MarkovPolicy.from_actions(actions, 2)
        pol.validate()
        assert pol.probs[0, 0, 0, 1] == 1.0
        assert pol.probs[0, 1, 0, 0] == 1.0
