import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import riskflow.validate as validate_module
from riskflow import (ControlledGenerator, DiscreteDistribution, LpFailureError,
                      LpSolution, MarkovPolicy, McConfig, PolicyEnumerationError,
                      PropagationError, RateMatrix, RiskSpec,
                      bounded_lipschitz_distance, build_uniform_grid,
                      distribution_from_samples, enumerate_policies,
                      optimize_linear_risk, risk_neutral_dp, simulate_paths,
                      wasserstein1)
from riskflow.forward import assemble_forward_program, propagate_forward
from riskflow.generator import augment_generator
from riskflow.risk import apply_terminal_cost, evaluate


def delta(v):
    return DiscreteDistribution(axes=("y",), coords=(np.array([float(v)]),),
                                mass=np.array([1.0]))


def dist(values, masses):
    return DiscreteDistribution(axes=("y",), coords=(np.asarray(values, float),),
                                mass=np.asarray(masses, float))


def single_state_gen():
    return ControlledGenerator(per_action=(RateMatrix(sp.csr_matrix((1, 1))),))


def two_state_gen(pairs):
    mats = [RateMatrix(sp.csr_matrix(np.array([[-a, a], [b, -b]]))) for a, b in pairs]
    return ControlledGenerator(per_action=tuple(mats))


class TestSimulation:
    def test_zero_cost_zero_samples(self):
        gen = two_state_gen([(1.0, 2.0)])
        yg = build_uniform_grid(0.0, 1.0, 3)
        pol = MarkovPolicy.uniform(5, 2, 3, 1)
        res = simulate_paths(gen, pol, np.zeros((2, 1)), 0.25, yg,
                             np.array([1.0, 0.0]), np.linspace(0, 2, 5),
                             McConfig(n_paths=200, seed=1))
        assert np.all(res.samples == 0.0)

    def test_constant_cost_closed_form(self):
        gen = single_state_gen()
        c0, alpha, horizon = 0.8, 0.5, 3.0
        yg = build_uniform_grid(0.0, 5.0, 4)
        pol = MarkovPolicy.uniform(7, 1, 4, 1)
        res = simulate_paths(gen, pol, np.array([[c0]]), alpha, yg, np.array([1.0]),
                             np.linspace(0, horizon, 7), McConfig(n_paths=50, seed=3))
        want = c0 * (1 - np.exp(-alpha * horizon)) / alpha
        assert np.allclose(res.samples, want, atol=1e-12)

    def test_constant_cost_no_discount(self):
        gen = single_state_gen()
        yg = build_uniform_grid(0.0, 5.0, 4)
        pol = MarkovPolicy.uniform(4, 1, 4, 1)
        res = simulate_paths(gen, pol, np.array([[0.7]]), 0.0, yg, np.array([1.0]),
                             np.linspace(0, 2, 4), McConfig(n_paths=10, seed=3))
        assert np.allclose(res.samples, 0.7 * 2.0, atol=1e-12)

    def test_reproducible_and_seed_sensitive(self):
        gen = two_state_gen([(1.0, 2.0), (0.4, 0.1)])
        yg = build_uniform_grid(0.0, 2.0, 5)
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(2), size=(6, 2, 5))
        pol = MarkovPolicy(probs=probs, mask=np.ones((6, 2, 5), bool))
        cost = np.array([[0.5, 1.0], [0.2, 0.8]])
        args = (gen, pol, cost, 0.3, yg, np.array([0.5, 0.5]), np.linspace(0, 2, 6))
        r1 = simulate_paths(*args, McConfig(n_paths=500, seed=11))
        r2 = simulate_paths(*args, McConfig(n_paths=500, seed=11))
        r3 = simulate_paths(*args, McConfig(n_paths=500, seed=12))
        assert np.array_equal(r1.samples, r2.samples)
        assert not np.array_equal(r1.samples, r3.samples)
        assert np.all(r1.samples >= 0)

    def test_mean_matches_forward_equation(self):
        # empirical mean converges at ~N^{-1/2} to the propagated mean, up to
        # the grid allowance of the discretized cost axis
        gen = two_state_gen([(1.5, 0.7)])
        cost = np.array([[1.2], [0.3]])
        alpha = 0.4
        yg = build_uniform_grid(0.0, 4.0, 81)
        times = np.linspace(0.0, 3.0, 31)
        pol = MarkovPolicy.uniform(31, 2, 81, 1)
        init = np.zeros((2, 81))
        init[0, 0] = 1.0
        start = DiscreteDistribution(axes=("x", "y"),
                                     coords=(np.arange(2.0), yg.points), mass=init)
        aug = augment_generator(gen, cost, alpha, yg, t=0.0)
        traj = propagate_forward(aug, pol, start, times)
        lp_mean = traj.slices[-1].marginal("y").mean()
        res = simulate_paths(gen, pol, cost, alpha, yg, np.array([1.0, 0.0]),
                             times, McConfig(n_paths=10_000, seed=5))
        allowance = 4 * res.stderr + yg.spacing + (times[1] - times[0]) * cost.max()
        assert abs(res.samples.mean() - lp_mean) <= allowance

    def test_unreachable_lookup_counted(self):
        gen = two_state_gen([(1.0, 1.0)])
        yg = build_uniform_grid(0.0, 1.0, 2)
        pol = MarkovPolicy(probs=np.full((3, 2, 2, 1), 1.0),
                           mask=np.zeros((3, 2, 2), bool))
        res = simulate_paths(gen, pol, np.zeros((2, 1)), 0.0, yg,
                             np.array([1.0, 0.0]), np.linspace(0, 1, 3),
                             McConfig(n_paths=10, seed=0))
        assert res.fallback_lookups > 0

    def test_short_action_mass_never_selects_past_last_action(self):
        # rows summing to 0.5 put the rest of [0, 1) on the last action
        # instead of indexing action n_a
        gen = two_state_gen([(1.0, 1.0), (2.0, 2.0)])
        yg = build_uniform_grid(0.0, 1.0, 2)
        probs = np.zeros((3, 2, 2, 2))
        probs[..., 0] = 0.5
        pol = MarkovPolicy(probs=probs, mask=np.ones((3, 2, 2), bool))
        cost = np.array([[0.0, 1.0], [0.0, 1.0]])
        res = simulate_paths(gen, pol, cost, 0.0, yg, np.array([1.0, 0.0]),
                             np.linspace(0, 1, 3), McConfig(n_paths=2000, seed=0))
        assert 0.4 < res.mean < 0.6  # half the time on the unit-cost action


class TestWasserstein:
    def test_point_masses(self):
        assert wasserstein1(delta(1.0), delta(3.5)) == pytest.approx(2.5)

    def test_uniform_vs_midpoint(self):
        assert wasserstein1(dist([0.0, 1.0], [0.5, 0.5]), delta(0.5)) == pytest.approx(0.5)

    def test_identical(self):
        d = dist([0.0, 0.3, 1.7], [0.2, 0.5, 0.3])
        assert wasserstein1(d, d) == 0.0

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ds = []
            for _ in range(3):
                n = rng.integers(1, 7)
                ds.append(dist(np.sort(rng.uniform(0, 2, n)), rng.dirichlet(np.ones(n))))
            a, b, c = ds
            assert wasserstein1(a, a) <= 1e-12
            assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-12
            assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12

    def test_from_samples(self):
        emp = distribution_from_samples(np.array([0.0, 0.0, 1.0, 1.0]))
        assert np.allclose(emp.coords[0], [0.0, 1.0])
        assert np.allclose(emp.mass, [0.5, 0.5])


class TestBoundedLipschitz:
    def test_identical_point_masses(self):
        assert bounded_lipschitz_distance(delta(0.7), delta(0.7)) == pytest.approx(0.0, abs=1e-8)

    def test_separated_point_masses(self):
        # optimal test function is a capped tent: value 2d/(2+d), here d=2
        got = bounded_lipschitz_distance(delta(0.0), delta(2.0))
        assert got == pytest.approx(1.0, abs=1e-6)
        got = bounded_lipschitz_distance(delta(0.0), delta(1.0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_bounded_by_w1_and_two(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n, m = rng.integers(1, 6), rng.integers(1, 6)
            p = dist(np.sort(rng.uniform(0, 3, n)), rng.dirichlet(np.ones(n)))
            q = dist(np.sort(rng.uniform(0, 3, m)), rng.dirichlet(np.ones(m)))
            d_bl = bounded_lipschitz_distance(p, q)
            assert d_bl <= min(2.0, wasserstein1(p, q)) + 1e-6
            assert d_bl >= -1e-9

    def test_matches_highs_on_free_variable_form(self):
        # reference: max wt . f over free f, s, l >= 0 with |f_i| <= s,
        # |f_{i+1} - f_i| <= l gap_i and s + l <= 1, solved by HiGHS
        from scipy.optimize import linprog
        from riskflow.risk import merge_support

        def highs(p, q):
            sup, wt = merge_support(np.concatenate([p.coords[0], q.coords[0]]),
                                    np.concatenate([p.mass, -q.mass]))
            n = len(sup)
            eye, diff = np.eye(n), np.diff(np.eye(n), axis=0)
            gap = np.diff(sup)[:, None]
            a_ub = np.block([[eye, -np.ones((n, 1)), np.zeros((n, 1))],
                             [-eye, -np.ones((n, 1)), np.zeros((n, 1))],
                             [diff, np.zeros((n - 1, 1)), -gap],
                             [-diff, np.zeros((n - 1, 1)), -gap],
                             [np.zeros((1, n)), np.ones((1, 2))]])
            b_ub = np.zeros(a_ub.shape[0])
            b_ub[-1] = 1.0
            res = linprog(np.concatenate([-wt, [0.0, 0.0]]), A_ub=a_ub, b_ub=b_ub,
                          bounds=[(None, None)] * n + [(0, None)] * 2, method="highs")
            assert res.status == 0
            return -res.fun

        rng = np.random.default_rng(11)
        for k in range(30):
            n, m = rng.integers(1, 8), rng.integers(1, 8)
            # every third pair has unequal total masses, so sum(wt) != 0
            scale = rng.uniform(0.5, 2.0) if k % 3 == 0 else 1.0
            p = dist(np.sort(rng.uniform(0, 3, n)), scale * rng.dirichlet(np.ones(n)))
            q = dist(np.sort(rng.uniform(0, 3, m)), rng.dirichlet(np.ones(m)))
            assert bounded_lipschitz_distance(p, q) == pytest.approx(highs(p, q), abs=1e-7)

    def test_non_optimal_lp_raises(self, monkeypatch):
        import riskflow.solve

        def stalled(problem, **kw):
            n = problem.c.size
            return LpSolution(primal=np.zeros(n), dual=np.zeros(problem.b_eq.size),
                              primal_objective=-0.5, dual_objective=-0.4,
                              duality_gap=0.1, iterations=200, status="max_iter")

        monkeypatch.setattr(riskflow.solve, "solve_lp", stalled)
        with pytest.raises(LpFailureError, match="max_iter") as info:
            bounded_lipschitz_distance(delta(0.0), delta(1.0))
        assert info.value.status == "max_iter"


class TestRiskNeutralDp:
    def test_zero_cost(self):
        gen = two_state_gen([(1.0, 2.0), (0.3, 0.4)])
        res = risk_neutral_dp(gen, np.zeros((2, 2)), 0.3,
                              np.linspace(0, 2, 5), np.array([1.0, 0.0]))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_constant_cost_closed_form(self):
        # action-independent constant cost: value is exact under the
        # step-averaged discount, for any chain
        gen = two_state_gen([(1.0, 2.0)])
        c0, alpha, horizon = 0.9, 0.35, 4.0
        res = risk_neutral_dp(gen, np.full((2, 1), c0), alpha,
                              np.linspace(0, horizon, 9), np.array([0.3, 0.7]))
        want = c0 * (1 - np.exp(-alpha * horizon)) / alpha
        assert res.value == pytest.approx(want, rel=1e-10)

    def test_terminal_cost_mode(self):
        gen = two_state_gen([(0.0, 0.0)])  # frozen chain
        v = np.array([1.0, 4.0])
        res = risk_neutral_dp(gen, np.zeros((2, 1)), 0.0,
                              np.linspace(0, 1, 3), np.array([1.0, 0.0]), v=v)
        assert res.value == pytest.approx(1.0)

    def test_greedy_policy_beats_fixed_actions(self):
        gen = two_state_gen([(1.0, 2.0), (0.5, 0.3)])
        cost = np.array([[0.3, 1.1], [0.9, 0.2]])
        times = np.linspace(0, 1, 3)
        nu = np.array([1.0, 0.0])
        dp = risk_neutral_dp(gen, cost, 0.25, times, nu)
        yg = build_uniform_grid(0.0, 2.0, 41)
        for a_fixed in (0, 1):
            pol = MarkovPolicy.from_actions(np.full((3, 2, 41), a_fixed), 2)
            init = np.zeros((2, 41))
            init[:, 0] = nu
            start = DiscreteDistribution(axes=("x", "y"),
                                         coords=(np.arange(2.0), yg.points),
                                         mass=init)
            aug = augment_generator(gen, cost, 0.25, yg, t=0.0)
            traj = propagate_forward(aug, pol, start, times)
            assert dp.value <= traj.slices[-1].marginal("y").mean() + 1e-8


# the designated two-state instance of acceptance criterion 7
DESIGNATED_RATES = [(1.0, 2.0), (0.5, 0.3)]
DESIGNATED_COST = np.array([[0.3, 1.1], [0.9, 0.2]])
DESIGNATED_TIMES = np.linspace(0, 1, 3)
DESIGNATED_NU = np.array([1.0, 0.0])


def designated_start(yg):
    mass = np.zeros((2, yg.n))
    mass[:, 0] = DESIGNATED_NU
    return DiscreteDistribution(axes=("x", "y"), coords=(np.arange(2.0), yg.points),
                                mass=mass)


class TestRiskNeutralDpCostAxis:
    """With a cost grid the DP sweeps the LP's own augmented chain."""

    @pytest.mark.parametrize("v", [None, np.array([0.7, 0.1])])
    def test_capped_value_matches_lp_and_enumeration(self, v, monkeypatch):
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, 0.4, 2)
        dp = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                             DESIGNATED_NU, v=v, y_grid=yg)
        uncapped = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                                   DESIGNATED_NU, v=v)
        assert dp.value < uncapped.value - 1e-2  # the ceiling binds
        aug = augment_generator(gen, DESIGNATED_COST, 0.25, yg, t=0.0)
        fp = assemble_forward_program(aug, designated_start(yg), DESIGNATED_TIMES)
        lp = optimize_linear_risk(fp, RiskSpec(kind="expectation"), v=v, tol_gap=1e-11)
        enum = enumerate_policies(gen, DESIGNATED_COST, 0.25, yg, DESIGNATED_TIMES,
                                  DESIGNATED_NU, RiskSpec(kind="expectation"), v=v)
        assert dp.value == pytest.approx(lp.rho_star, abs=1e-8)
        assert dp.value == pytest.approx(enum.value, abs=1e-8)
        # 256 policies in chunks of 7: the last chunk is partial
        monkeypatch.setattr(validate_module, "ENUM_CHUNK", 7)
        chunked = enumerate_policies(gen, DESIGNATED_COST, 0.25, yg, DESIGNATED_TIMES,
                                     DESIGNATED_NU, RiskSpec(kind="expectation"), v=v)
        assert (chunked.value, chunked.n_policies) == (enum.value, 256)

    @pytest.mark.parametrize("y_max, n_y", [(0.4, 2), (0.5, 3), (2.0, 5)])
    def test_greedy_policy_reproduces_value(self, y_max, n_y):
        # the exact implicit step is attained by its own greedy policy; a
        # per-state minimum over per-action resolvents is not
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, y_max, n_y)
        dp = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                             DESIGNATED_NU, y_grid=yg)
        assert dp.actions.shape == (2, 2, n_y)
        aug = augment_generator(gen, DESIGNATED_COST, 0.25, yg, t=0.0)
        traj = propagate_forward(aug, dp.greedy_policy(n_y, 2), designated_start(yg),
                                 DESIGNATED_TIMES)
        assert traj.slices[-1].marginal("y").mean() == pytest.approx(dp.value, abs=1e-10)

    def test_base_chain_is_the_uncapped_limit(self):
        # on a cost axis tall enough that the top cell gets no mass, the
        # augmented sweep and the base-chain sweep solve the same problem
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, 40.0, 81)
        base = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                               DESIGNATED_NU)
        tall = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                               DESIGNATED_NU, y_grid=yg)
        assert base.value == pytest.approx(tall.value, abs=1e-10)
        aug = augment_generator(gen, DESIGNATED_COST, 0.25, yg, t=0.0)
        traj = propagate_forward(aug, base.greedy_policy(yg.n, 2), designated_start(yg),
                                 DESIGNATED_TIMES)
        assert traj.slices[-1].marginal("y").mean() == pytest.approx(base.value, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_infinite_cost_fails_loudly_on_cost_axis(self):
        # an infinite rate makes the augmented implicit step singular; the
        # base chain only sees it in the stage cost, which the minimum avoids
        gen = two_state_gen(DESIGNATED_RATES)
        cost = DESIGNATED_COST.copy()
        cost[0, 1] = np.inf
        with pytest.raises(PropagationError):
            risk_neutral_dp(gen, cost, 0.25, DESIGNATED_TIMES, DESIGNATED_NU,
                            y_grid=build_uniform_grid(0.0, 0.4, 2))
        base = risk_neutral_dp(gen, cost, 0.25, DESIGNATED_TIMES, DESIGNATED_NU)
        assert base.value == pytest.approx(0.2310, abs=1e-4)


class TestEnumeration:
    @pytest.mark.parametrize("spec, v", [
        (RiskSpec(kind="entropic", theta=2.0), None),
        (RiskSpec(kind="mean_semideviation", beta=0.5), np.array([0.3, 0.0])),
    ])
    def test_matches_per_policy_loop(self, spec, v, monkeypatch):
        # the reference: every action table in itertools.product order,
        # propagated one policy at a time
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, 0.6, 2)
        aug = augment_generator(gen, DESIGNATED_COST, 0.25, yg, t=0.0)
        want = np.inf
        for assignment in itertools.product(range(2), repeat=8):
            table = np.zeros((3, 2, 2), dtype=np.int64)
            table[1:] = np.reshape(assignment, (2, 2, 2))
            traj = propagate_forward(aug, MarkovPolicy.from_actions(table, 2),
                                     designated_start(yg), DESIGNATED_TIMES)
            law = (traj.slices[-1].marginal("y") if v is None
                   else apply_terminal_cost(traj.slices[-1], v))
            want = min(want, evaluate(spec, law))
        monkeypatch.setattr(validate_module, "ENUM_CHUNK", 100)
        res = enumerate_policies(gen, DESIGNATED_COST, 0.25, yg, DESIGNATED_TIMES,
                                 DESIGNATED_NU, spec, v=v)
        assert res.n_policies == 256
        assert res.value == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_single_action_unique_value(self):
        gen = two_state_gen([(1.0, 2.0)])
        yg = build_uniform_grid(0.0, 2.0, 3)
        res = enumerate_policies(gen, np.array([[0.4], [0.9]]), 0.25, yg,
                                 np.linspace(0, 1, 3), np.array([1.0, 0.0]),
                                 RiskSpec(kind="expectation"))
        assert res.n_policies == 1

    def test_zero_cost_all_policies_zero(self):
        gen = two_state_gen([(1.0, 2.0), (0.5, 0.3)])
        yg = build_uniform_grid(0.0, 2.0, 2)
        res = enumerate_policies(gen, np.zeros((2, 2)), 0.25, yg,
                                 np.linspace(0, 1, 2), np.array([1.0, 0.0]),
                                 RiskSpec(kind="entropic", theta=1.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large_spaces(self):
        gen = two_state_gen([(1.0, 2.0), (0.5, 0.3)])
        yg = build_uniform_grid(0.0, 2.0, 21)
        with pytest.raises(PolicyEnumerationError, match="deterministic policies"):
            enumerate_policies(gen, np.zeros((2, 2)), 0.25, yg,
                               np.linspace(0, 1, 11), np.array([1.0, 0.0]),
                               RiskSpec(kind="expectation"))
