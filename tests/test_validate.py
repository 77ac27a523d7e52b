import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import riskflow.solve as solve_module
import riskflow.validate as validate_module
from riskflow import (ControlledGenerator, InvalidCostError, InvalidGridError,
                      InvalidParameterError, MarkovPolicy, McConfig,
                      PolicyEnumerationError, PropagationError, RiskflowError,
                      RiskSpec, build_uniform_grid, enumerate_policies, optimize_linear_risk,
                      optimize_smooth_risk, risk_neutral_dp, simulate_paths,
                      wasserstein1)
from riskflow.forward import assemble_forward_program, propagate_forward
from riskflow.generator import augment_generator
from riskflow.risk import evaluate
from test_generator import push_totals


def delta(v):
    return np.array([float(v)]), np.array([1.0])


def dist(values, masses):
    return np.asarray(values, float), np.asarray(masses, float)


def single_state_gen():
    return ControlledGenerator(per_action=(sp.csr_matrix((1, 1)),))


def two_state_gen(pairs):
    mats = [sp.csr_matrix(np.array([[-a, a], [b, -b]])) for a, b in pairs]
    return ControlledGenerator(per_action=tuple(mats))


class TestSimulation:
    def test_sample_spread(self):
        # McResult.stderr and validate's mc_summary.json share this formula
        samples = np.array([1.0, 2.0, 4.0, 0.5])
        std = float(samples.std(ddof=1))
        assert validate_module.sample_spread(samples) == (std, std / 2.0)
        assert validate_module.sample_spread(np.array([3.0])) == (0.0, 0.0)
        res = simulate_paths(single_state_gen(), MarkovPolicy.uniform(3, 1, 4, 1),
                             np.array([[0.5]]), 0.0, build_uniform_grid(0.0, 2.0, 4),
                             np.array([1.0]), np.linspace(0, 1, 3), McConfig(n_paths=1))
        assert res.stderr == 0.0

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

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_cost_accrues_from_the_first_grid_time(self, alpha):
        gen = single_state_gen()
        yg = build_uniform_grid(0.0, 5.0, 4)
        pol = MarkovPolicy.uniform(3, 1, 4, 1)
        res = simulate_paths(gen, pol, np.array([[0.7]]), alpha, yg, np.array([1.0]),
                             np.linspace(1.0, 2.0, 3), McConfig(n_paths=4, seed=0))
        want = 0.7 if alpha == 0 else 0.7 * (np.exp(-alpha) - np.exp(-2 * alpha)) / alpha
        assert np.allclose(res.samples, want, rtol=1e-14)

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
        fp = program(gen, cost, yg, times, np.array([1.0, 0.0]), alpha=alpha)
        traj = propagate_forward(fp, pol)
        lp_mean = yg.points @ traj.marginal("y")[-1]
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

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            McConfig(n_paths=10, seed=seed)

    @pytest.mark.parametrize("n_paths", [0, 1000.0, 2.5, True])
    def test_bad_path_count_refused(self, n_paths):
        with pytest.raises(InvalidParameterError, match="n_paths"):
            McConfig(n_paths=n_paths)

    def test_small_discount_rates_accrue_as_none(self, circle_case):
        # the draws do not depend on alpha, so each sample is the undiscounted
        # one up to its discount, within 1 - e^{-25 alpha} < 3e-12 at horizon 25
        cfg = McConfig(n_paths=20_000, seed=0)
        want = simulate_paths(*circle_case[:3], 0.0, *circle_case[4:], cfg).samples
        for alpha in (1e-300, 1e-17, 1e-13):
            got = simulate_paths(*circle_case[:3], alpha, *circle_case[4:], cfg).samples
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=str(alpha))


def jump_law(gen):
    """Per action a and state i: the jump targets, padded with the last
    one (or i, with no target), and their cumulative law, 1 in the last
    column."""
    n_x, n_a = gen.dim, gen.n_actions
    exit_rate = np.zeros((n_a, n_x))
    support = []
    width = 1
    for a in range(n_a):
        m = gen.per_action[a].tocoo()
        rows = [[] for _ in range(n_x)]
        for i, j, r in zip(m.row, m.col, m.data):
            if i != j and r > 0:
                rows[i].append((j, r))
        support.append(rows)
        exit_rate[a] = -gen.per_action[a].diagonal()
        width = max(width, max((len(r) for r in rows), default=1))
    targets = np.zeros((n_a, n_x, width), dtype=np.int64)
    cumprob = np.ones((n_a, n_x, width))
    for a in range(n_a):
        for i, row in enumerate(support[a]):
            targets[a, i, :] = i
            if not row:
                continue
            js, rs = zip(*row)
            targets[a, i, :len(js)] = js
            targets[a, i, len(js):] = js[-1]
            cumprob[a, i, :len(js)] = np.cumsum(np.asarray(rs) / exit_rate[a, i])
    cumprob[..., -1] = 1.0
    return exit_rate, targets, cumprob


def mass_rule_weights(probs):
    """Action weights of every cell under the sampler's mass rule: the
    steps of the cumulative law capped at 1, the last entry set to 1."""
    cum = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    cum[..., -1] = 1.0
    return np.diff(cum, axis=-1, prepend=0.0)


def mixed_rows(q, cost, x, w):
    """Rates (rows, n_x), exit rates and cost rates of the action mixtures
    ``w`` (rows, n_a) on the rows of states x of the dense generators
    ``q`` (n_a, n_x, n_x): sums over the actions of positive weight in
    ascending order, from 0, so a one-hot mixture is its action's row."""
    rates, exit_rate, rate = np.zeros((x.size, q.shape[1])), np.zeros(x.size), np.zeros(x.size)
    for a in range(q.shape[0]):
        on = w[:, a] > 0
        rates[on] += w[on, a, None] * q[a, x[on]]
        exit_rate[on] += w[on, a] * -q[a, x[on], x[on]]
        rate[on] += w[on, a] * cost[x[on], a]
    return rates, exit_rate, rate


def jump_targets(rates, exit_rate, x, u):
    """Targets of jumps by draws u from rows ``rates`` in states x: the
    first positive off-diagonal rate, in column order, whose cumulative
    law reaches u, the last one for any draw; x for a row with none."""
    cols = np.arange(rates.shape[1])
    on = (rates > 0) & (cols != x[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        cum = np.cumsum(np.where(on, rates, 0.0) / exit_rate[:, None], axis=1)
    last = np.where(on, cols, -1).max(axis=1)
    passed = (on & (cols < last[:, None]) & (u[:, None] > cum)).sum(axis=1)
    pick = np.argmax(np.cumsum(on, axis=1) > passed[:, None], axis=1)
    return np.where(last >= 0, pick, x)


def reference_simulate_paths(gen, policy, cost_rate, alpha, y_grid, initial_x,
                             t_grid, cfg, draw_actions=False):
    """The sampler's contract (``McConfig``) as a plain loop, kept as the
    bitwise reference: each block of ``BLOCK_PATHS`` paths runs alone from
    its own stream, round after round, until its last path passes the
    horizon.  A round draws a jump uniform per path (a path on its stay
    row keeps its state), then an exponential per path; a path whose clock
    passes its slice's end stops there and moves to the next slice on its
    stay row.  A path runs on the row of its cell's relaxed generator Q_w.

    ``draw_actions`` gives the sampler before Q_w rows: between the two
    draws, an action uniform per path whose cell mixes actions, and the
    row of the action drawn, a semi-Markov process under a relaxed policy.
    Under a deterministic policy the two draw the same."""
    times = np.asarray(t_grid, dtype=float)
    n_x, n_a = gen.dim, gen.n_actions
    q = np.stack([m.toarray() for m in gen.per_action])
    c = np.asarray(cost_rate, dtype=float)
    nu = np.asarray(initial_x, dtype=float)
    n_t, _, n_y = policy.mask.shape
    # the row of every (slice, state, cost) cell, and of every (state, action)
    weights = mass_rule_weights(policy.probs).reshape(-1, n_a)
    cell_x = np.tile(np.repeat(np.arange(n_x), n_y), n_t)
    cell_rows = mixed_rows(q, c, cell_x, weights)
    action_rows = mixed_rows(q, c, np.repeat(np.arange(n_x), n_a), np.tile(np.eye(n_a), (n_x, 1)))
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0
    n = cfg.n_paths
    x_all = np.random.default_rng(cfg.seed).choice(n_x, size=n, p=nu / nu.sum())
    y_all = np.zeros(n)
    fallback = 0
    block = validate_module.BLOCK_PATHS
    n_blocks = -(-n // block)
    for b, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_blocks)):
        rng = np.random.Generator(np.random.PCG64(seq))
        ids = np.arange(b * block, min(n, (b + 1) * block))
        x, y = x_all[ids], np.zeros(ids.size)
        t, k = np.full(ids.size, times[0]), np.zeros(ids.size, dtype=np.int64)
        disc = np.full(ids.size, np.exp(-alpha * times[0]))
        stay, rates, exit_rate = np.ones(ids.size, bool), np.zeros((ids.size, n_x)), np.zeros(ids.size)
        while ids.size:
            u = rng.random(ids.size)
            go = ~stay
            x[go] = jump_targets(rates[go], exit_rate[go], x[go], u[go])
            ys = np.clip(np.rint((y - y_grid.lo) / y_grid.spacing), 0, n_y - 1).astype(np.int64)
            fallback += int((~policy.mask[k + 1, x, ys]).sum())
            cell = ((k + 1) * n_x + x) * n_y + ys
            rows, at = cell_rows, cell
            if draw_actions:
                on = weights[cell] > 0
                mixed = on.sum(axis=1) > 1
                acts = np.argmax(on, axis=1)
                acts[mixed] = (rng.random(int(mixed.sum()))[:, None]
                               > pol_cum[k + 1, x, ys][mixed]).sum(axis=1)
                rows, at = action_rows, x * n_a + acts
            rates, exit_rate, rate = (r[at] for r in rows)
            with np.errstate(divide="ignore"):
                wait = np.where(exit_rate > 0, rng.standard_exponential(ids.size)
                                / np.maximum(exit_rate, 1e-300), np.inf)
            t_event = t + wait
            t_hi = times[k + 1]
            t_new = np.minimum(t_event, t_hi)
            if alpha == 0.0:
                y += rate * (t_new - t)
            else:
                lost = disc * -np.expm1(-alpha * (t_new - t))
                y += rate * lost / alpha
                disc = disc - lost
            t, stay = t_new, t_event >= t_hi
            k = k + stay
            done = k == len(times) - 1
            y_all[ids[done]] = y[done]
            ids, x, y, t, k, disc, stay, rates, exit_rate = (
                v[~done] for v in (ids, x, y, t, k, disc, stay, rates, exit_rate))
    return y_all, fallback


def reference_simulate_paths_v34(gen, policy, cost_rate, alpha, y_grid, initial_x,
                                 t_grid, cfg):
    """The sampler of one PCG64 stream for all paths, kept as a law oracle:
    each round of each slice draws an action uniform per active path, then
    the exponentials, then a jump uniform per path whose clock rang, and
    accrues through the difference of two discount factors."""
    times = np.asarray(t_grid, dtype=float)
    n_x = gen.dim
    exit_rate, targets, cumprob = jump_law(gen)
    c = np.asarray(cost_rate, dtype=float)
    nu = np.asarray(initial_x, dtype=float)
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0
    n_y = policy.probs.shape[2]
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_paths
    x = rng.choice(n_x, size=n, p=nu / nu.sum())
    y = np.zeros(n)
    fallback = 0

    def snap(yv):
        return np.clip(np.rint((yv - y_grid.lo) / y_grid.spacing), 0, n_y - 1).astype(np.int64)

    def accrue(rate, t0, t1):
        if alpha == 0.0:
            return rate * (t1 - t0)
        return rate * (np.exp(-alpha * t0) - np.exp(-alpha * t1)) / alpha

    t_cur = np.zeros(n)
    for k in range(len(times) - 1):
        t_hi = times[k + 1]
        pol_slice = min(k + 1, policy.probs.shape[0] - 1)
        active = np.arange(n)
        while active.size:
            xs = x[active]
            ys = snap(y[active])
            fallback += int((~policy.mask[pol_slice, xs, ys]).sum())
            u = rng.random(active.size)
            acts = (u[:, None] > pol_cum[pol_slice, xs, ys]).sum(axis=1)
            rates = exit_rate[acts, xs]
            with np.errstate(divide="ignore"):
                wait = np.where(rates > 0, rng.standard_exponential(active.size)
                                / np.maximum(rates, 1e-300), np.inf)
            t_event = t_cur[active] + wait
            t_new = np.minimum(t_event, t_hi)
            y[active] += accrue(c[xs, acts], t_cur[active], t_new)
            t_cur[active] = t_new
            jumped = t_event < t_hi
            if jumped.any():
                sub = active[jumped]
                u2 = rng.random(sub.size)
                sel = (u2[:, None] > cumprob[acts[jumped], x[sub]]).sum(axis=1)
                x[sub] = targets[acts[jumped], x[sub], sel]
            active = active[jumped]
    return y, fallback


def solved_case(config, tmp_path_factory):
    """A config's chain under the solver's own policy, as simulate_paths
    takes it."""
    from riskflow.cli import _build_spec, build_problem, run

    spec = _build_spec(config)
    policy = run(spec, tmp_path_factory.mktemp("case")).policy
    pieces = build_problem(spec)
    return (pieces.base, policy, pieces.cost, spec.alpha, pieces.y_grid, pieces.nu,
            pieces.t_grid.points)


@pytest.fixture(scope="module")
def circle_case(tmp_path_factory):
    """The 9x9x5x9 circle under the solver's own policy: one-hot cells and
    uniform tie cells."""
    return solved_case({"family": "circle_follower", "n_x": 9, "n_y": 9, "n_a": 5,
                        "n_t": 9}, tmp_path_factory)


@pytest.fixture(scope="module")
def semidev_case(tmp_path_factory):
    """The 15x15x7x15 circle of the mean semideviation (beta 0.5) under the
    policy of its Frank-Wolfe solve, which mixes vertices."""
    return solved_case({"n_x": 15, "n_y": 15, "n_a": 7, "n_t": 15,
                        "risk": {"kind": "mean_semideviation", "beta": 0.5}}, tmp_path_factory)


def argmax_case(args):
    """``args`` under the argmax of its policy, a deterministic policy with
    the same masked cells."""
    policy = args[1]
    one_hot = MarkovPolicy.from_actions(policy.probs.argmax(axis=-1), policy.probs.shape[-1])
    return args[:1] + (MarkovPolicy(probs=one_hot.probs, mask=policy.mask),) + args[2:]


def relaxed_case(alpha, absorbing=False):
    """Random relaxed policy on a 4-state, 3-action chain: exact zeros, rows
    summing to 0.5, masked cells; ``absorbing`` zeroes state 3's exit rate
    under action 1."""
    rng = np.random.default_rng(17)
    n_x, n_a, n_y, n_t = 4, 3, 5, 7
    mats = []
    for a in range(n_a):
        q = rng.uniform(0.2, 2.0, (n_x, n_x)) * (rng.random((n_x, n_x)) < 0.7)
        np.fill_diagonal(q, 0.0)
        if absorbing and a == 1:
            q[3] = 0.0
        np.fill_diagonal(q, -q.sum(axis=1))
        mats.append(sp.csr_matrix(q))
    probs = rng.dirichlet(np.ones(n_a), size=(n_t, n_x, n_y))
    probs[rng.random(probs.shape) < 0.3] = 0.0
    probs[probs.sum(axis=-1) == 0.0, 0] = 1.0
    probs /= probs.sum(axis=-1, keepdims=True)
    probs[:, 1, 2] *= 0.5  # short rows
    probs[:, 2] = [0.0, 0.0, 1.0]  # one-hot past a zero prefix
    mask = rng.random((n_t, n_x, n_y)) > 0.2
    cost = rng.uniform(0.0, 1.5, (n_x, n_a))
    return (ControlledGenerator(per_action=tuple(mats)),
            MarkovPolicy(probs=probs, mask=mask), cost, alpha,
            build_uniform_grid(0.0, 3.0, n_y), np.array([0.4, 0.3, 0.2, 0.1]),
            np.linspace(0.0, 3.0, n_t))


def record_runs(monkeypatch):
    """Patch ``_run_blocks`` to record the paths (lo, hi) of every run."""
    runs, run_blocks = [], validate_module._run_blocks

    def record(tab, streams, ws, out):
        runs.append((int(ws.ids[0]), int(ws.ids[-1]) + 1))
        return run_blocks(tab, streams, ws, out)

    monkeypatch.setattr(validate_module, "_run_blocks", record)
    return runs


class TestSamplerMatchesReference:
    SEEDS = (0, 1, 2, 5)

    # blocks of 700 paths: 3,000 paths are 4 whole blocks and one of 200,
    # run as 1,400 + 1,600 paths on 2 CPUs and 700 + 1,400 + 900 on 3
    RUNS = {1: [3000], 2: [1400, 1600], 3: [700, 1400, 900]}

    def check(self, args, n_paths, monkeypatch, draw_actions=False):
        monkeypatch.setattr(validate_module, "BLOCK_PATHS", 700)
        runs = record_runs(monkeypatch)
        for seed in self.SEEDS:
            cfg = McConfig(n_paths=n_paths, seed=seed)
            want, fallback = reference_simulate_paths(*args, cfg, draw_actions=draw_actions)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(validate_module, "_cpu_count", lambda c=cpus: c)
                runs.clear()
                res = simulate_paths(*args, cfg)
                assert res.samples.tobytes() == want.tobytes(), (seed, cpus)
                assert res.fallback_lookups == fallback, (seed, cpus)
                assert [hi - lo for lo, hi in sorted(runs)] == self.RUNS[cpus]

    def test_circle_solver_policy(self, circle_case, monkeypatch):
        self.check(circle_case, 3000, monkeypatch)

    def test_circle_solver_policy_undiscounted(self, circle_case, monkeypatch):
        self.check(circle_case[:3] + (0.0,) + circle_case[4:], 3000, monkeypatch)

    @pytest.mark.parametrize("alpha", [0.0, 0.35])
    @pytest.mark.parametrize("absorbing", [False, True])
    def test_relaxed_policy(self, alpha, absorbing, monkeypatch):
        args = relaxed_case(alpha, absorbing)
        assert args[1].probs.sum(axis=-1).min() == pytest.approx(0.5)
        assert not args[1].mask.all()
        self.check(args, 3000, monkeypatch)

    @pytest.mark.parametrize("case", ["semidev", "relaxed"])
    def test_deterministic_policy_draws_as_before(self, case, semidev_case, monkeypatch):
        # one action per cell: the sampler draws the bits of the sampler
        # that drew an action per mixed cell, on the benchmark's circle15_semidev
        # chain and on the relaxed case's masked cells and absorbing row
        args = argmax_case(semidev_case if case == "semidev" else relaxed_case(0.35, True))
        assert ((args[1].probs > 0).sum(axis=-1) == 1).all()
        cfg = McConfig(n_paths=3000, seed=7)
        assert (reference_simulate_paths(*args, cfg)[0].tobytes()
                == reference_simulate_paths(*args, cfg, draw_actions=True)[0].tobytes())
        self.check(args, 3000, monkeypatch, draw_actions=True)

    def test_jump_tables_keep_every_draw_on_its_row(self):
        # row 0's jump law sums to 1 - 2**-52 in float64, below the largest
        # draw, in a table as wide as row 1; row 2 exits at a rate within
        # rounding of zero and has no target, so it stays put; row 6 mixes
        # two actions of state 0 evenly, as the sampler builds a mixed
        # cell's row, and its law too sums to 1 - 2**-52
        q = np.zeros((6, 6))
        q[0, 1:5] = [0.5, 0.4, 0.2, 0.3]
        q[1, [0, 2, 3, 4, 5]] = 1.0
        q[3:, 0] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        q[2, 2] = -1e-12
        pair = np.zeros((2, 6))
        pair[:, 1:4] = [[1.3, 0.3, 0.6], [1.0, 0.9, 0.3]]
        pair[:, 0] = -pair.sum(axis=1)
        mixed = (sp.csr_matrix([[0.5, 0.5]]) @ sp.csr_matrix(pair)).sorted_indices()
        rates = mixed.toarray()[0]
        assert np.cumsum(rates[1:] / -rates[0])[-1] == 1 - 2.0 ** -52
        exit_rate, targets, width, columns = validate_module._jump_tables(
            sp.vstack([sp.csr_matrix(q), mixed], format="csr"), np.array([0, 1, 2, 3, 4, 5, 0]))
        assert exit_rate[6] == -rates[0]
        assert width == 5 and columns[3, 0] == 1.0 and columns[2, 6] == 1.0
        slot = (np.nextafter(1.0, 0.0) > columns).sum(axis=0)
        assert targets[np.arange(7) * width + slot].tolist() == [4, 5, 2, 0, 0, 0, 3]

    def test_negative_action_probability_rejected(self):
        gen, pol, *rest = relaxed_case(0.2)
        probs = pol.probs.copy()
        probs[3, 0, 1] = [1.25, -0.25, 0.0]
        bad = MarkovPolicy(probs=probs, mask=pol.mask)
        with pytest.raises(InvalidParameterError, match="negative"):
            simulate_paths(gen, bad, *rest, McConfig(n_paths=10))

    @pytest.mark.parametrize("cells", [(7, 4, 4, 3), (7, 3, 5, 3), (7, 4, 5, 2),
                                       (6, 4, 5, 3)])
    def test_policy_off_the_chain_rejected(self, cells):
        gen, _, *rest = relaxed_case(0.2)
        bad = MarkovPolicy.uniform(*cells)
        with pytest.raises(InvalidParameterError, match="policy cells"):
            simulate_paths(gen, bad, *rest, McConfig(n_paths=10))


class TestWorkspaces:
    """Each call samples in arrays of its own: calls back to back in one
    process, at every CPU count, with 3,000 paths, then 500, then 3,000,
    give the reference's bits.  At 1,000 paths per block a 3,000-path call
    runs in as many threads as it may use, and a 500-path call is one
    partial block in the calling thread."""

    @pytest.mark.parametrize("alpha", [0.0, 0.35])
    def test_back_to_back_calls_match_the_reference(self, alpha, monkeypatch):
        args = relaxed_case(alpha, absorbing=True)  # a dead row and masked cells
        assert not args[1].mask.all()
        monkeypatch.setattr(validate_module, "BLOCK_PATHS", 1000)
        runs = record_runs(monkeypatch)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(validate_module, "_cpu_count", lambda c=cpus: c)
            for n_paths in (3000, 500, 3000):
                runs.clear()
                cfg = McConfig(n_paths=n_paths, seed=n_paths + cpus)
                want, fallback = reference_simulate_paths(*args, cfg)
                res = simulate_paths(*args, cfg)
                assert res.samples.tobytes() == want.tobytes(), (cpus, n_paths)
                assert res.fallback_lookups == fallback, (cpus, n_paths)
                assert len(runs) == (1 if n_paths == 500 else cpus), (cpus, n_paths)


class TestSameLawAsOneStream:
    """The per-block streams change the draws, not the law: on seeds fixed
    before the first run, the means agree within 4 combined standard
    errors and the masked-lookup counts within 5% of the other count.
    Under the argmax of each case's policy, a deterministic policy, the
    law is that of the one-stream sampler (``reference_simulate_paths_v34``),
    which draws an action per round and so samples Q_w only where no cell
    mixes; under the case's own relaxed policy it is that of the plain-loop
    Q_w reference."""

    N_PATHS = 20_000

    def agree(self, args, oracle):
        res = simulate_paths(*args, McConfig(n_paths=self.N_PATHS, seed=101))
        other, other_fallback = oracle(*args, McConfig(n_paths=self.N_PATHS, seed=202))
        spread = math.hypot(res.stderr, validate_module.sample_spread(other)[1])
        assert abs(res.mean - other.mean()) <= 4 * spread
        assert abs(res.fallback_lookups - other_fallback) <= 0.05 * other_fallback

    @pytest.mark.parametrize("alpha", [0.0, 0.35])
    @pytest.mark.parametrize("case", ["circle", "relaxed"])
    def test_means_and_masked_lookups_agree(self, case, alpha, circle_case):
        args = circle_case if case == "circle" else relaxed_case(alpha, absorbing=True)
        args = args[:3] + (alpha,) + args[4:]
        self.agree(argmax_case(args), reference_simulate_paths_v34)
        self.agree(args, reference_simulate_paths)


class TestRelaxedGenerator:
    """A relaxed policy acts through Q_w = sum_a diag(w_a) Q_a, as in the
    forward equation: on 2-state, 2-action chains with unequal exit rates
    and a 50/50 policy constant in t and y, on seeds fixed before the
    first run."""

    def test_mean_holding_time_is_one_over_the_mixed_rate(self):
        # state 0 leaves at rate 0.5 or 4 and state 1 absorbs; a unit cost in
        # state 0 over a horizon of 30 makes each sample its holding time
        # there.  A path that drew one action per stay would wait 1 / 0.5 or
        # 1 / 4 with equal odds: mean sum w / lambda = 1.125, not 1 / 2.25.
        gen = two_state_gen([(0.5, 0.0), (4.0, 0.0)])
        pol = MarkovPolicy.uniform(2, 2, 4, 2)
        res = simulate_paths(gen, pol, np.array([[1.0, 1.0], [0.0, 0.0]]), 0.0,
                             build_uniform_grid(0.0, 3.0, 4), np.array([1.0, 0.0]),
                             np.array([0.0, 30.0]), McConfig(n_paths=20_000, seed=3))
        rate = 0.5 * 0.5 + 0.5 * 4.0
        assert abs(res.mean - (1 - np.exp(-30 * rate)) / rate) <= 4 * res.stderr
        assert res.mean < 0.6 < 1.125

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("absorbing", [False, True])
    def test_mean_is_the_exact_expectation(self, alpha, absorbing, monkeypatch):
        # E[Y] = int_0^T e^{-alpha s} nu e^{s Q_w} c_w ds, the top right of
        # expm(T [[Q_w - alpha I, c_w], [0, 0]]).  ``absorbing`` stops action
        # 1 in state 0: its mixed row there still leaves at rate 0.5, by
        # action 0, and is neither dead nor slowed to the clock's floor.
        from scipy.linalg import expm

        gen = two_state_gen([(1.0, 0.5), (0.0 if absorbing else 3.0, 2.0)])
        cost = np.array([[1.0, 0.2], [0.4, 1.5]])
        nu, horizon = np.array([1.0, 0.0]), 2.0
        tabs = record_tables(monkeypatch)
        res = simulate_paths(gen, MarkovPolicy.uniform(5, 2, 6, 2), cost, alpha,
                             build_uniform_grid(0.0, 5.0, 6), nu,
                             np.linspace(0.0, horizon, 5), McConfig(n_paths=20_000, seed=11))
        q_w = 0.5 * sum(q.toarray() for q in gen.per_action)
        aug = np.zeros((3, 3))
        aug[:2, :2] = q_w - alpha * np.eye(2)
        aug[:2, 2] = cost.mean(axis=1)
        want = nu @ expm(horizon * aug)[:2, 2]
        assert abs(res.mean - want) <= 4 * res.stderr, (res.mean, want, res.stderr)
        tab = tabs[0]
        # row 0 is cell 0 (slice 1, state 0, cost cell 0): it leaves state 0
        # for state 1 at the mixed rate, at state 0's mixed cost rate
        assert tab.targets[0] == 1 and tab.cost[0] == 0.5 * (1.0 + 0.2)
        assert tab.clock[0] == 0.5 * (1.0 if absorbing else 4.0)
        assert tab.dead is None  # no cell row of the uniform policy is dead

    @pytest.mark.parametrize("case", ["relaxed", "circle"])
    def test_one_row_per_cell_and_one_hot_cells_read_their_action_row(
            self, case, circle_case, monkeypatch):
        # a cell with all its weight on action a gets the jump table row, bit
        # for bit, that _jump_tables gives row x n_a + a of gen.stacked; the
        # case's stacked table may be narrower, and past its width a one-hot
        # row keeps its own state at cumulative law 1
        args = relaxed_case(0.35, absorbing=True) if case == "relaxed" else circle_case
        gen, policy, cost = args[:3]
        tabs = record_tables(monkeypatch)
        simulate_paths(*args, McConfig(n_paths=10, seed=0))
        tab, (n_t, n_x, n_y, n_a) = tabs[0], policy.probs.shape
        assert tab.stay == (n_t - 1) * n_x * n_y
        assert len(tab.clock) == len(tab.targets) // tab.width == tab.stay + n_x
        exit_rate, targets, width, jump_cum = validate_module._jump_tables(
            gen.stacked, np.repeat(np.arange(n_x), n_a))
        targets, wide = targets.reshape(-1, width), tab.targets.reshape(-1, tab.width)
        weights = mass_rule_weights(policy.probs[1:]).reshape(-1, n_a)
        one_hot = np.flatnonzero((weights > 0).sum(axis=1) == 1)
        assert 0 < one_hot.size < tab.stay
        for cell in one_hot:
            x, row = cell // n_y % n_x, cell // n_y % n_x * n_a + weights[cell].argmax()
            assert weights[cell].max() == 1.0
            assert wide[cell, :width].tobytes() == targets[row].tobytes()
            assert (wide[cell, width:] == x).all()
            assert tab.jump_cum[:width - 1, cell].tobytes() == jump_cum[:, row].tobytes()
            assert (tab.jump_cum[width - 1:, cell] == 1.0).all()
            assert tab.clock[cell] == max(exit_rate[row], 1e-300)
            assert tab.cost[cell].tobytes() == np.asarray(cost, float)[x, row % n_a].tobytes()


def record_tables(monkeypatch):
    """Patch ``_run_blocks`` to record the jump tables of every run."""
    tabs, run_blocks = [], validate_module._run_blocks
    monkeypatch.setattr(validate_module, "_run_blocks",
                        lambda tab, *rest: tabs.append(tab) or run_blocks(tab, *rest))
    return tabs


def run_bounded(call, timeout=60.0):
    """``call()`` in a daemon thread joined with a timeout: (result, error)."""
    out = {}

    def target():
        try:
            out["result"] = call()
        except Exception as exc:
            out["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "simulate_paths did not return"
    return out.get("result"), out.get("error")


class TestShardedRounds:
    @pytest.fixture(autouse=True)
    def three_shards(self, monkeypatch):
        monkeypatch.setattr(validate_module, "_cpu_count", lambda: 3)
        monkeypatch.setattr(validate_module, "BLOCK_PATHS", 100)

    def test_same_bits_under_fast_switching_and_no_thread_left(self):
        # 3 threads of 10 blocks each on any CPU count, the interpreter
        # switching threads as often as it can: a lost or misplaced write
        # changes the samples
        args, cfg = relaxed_case(0.35), McConfig(n_paths=3000, seed=4)
        want, fallback = reference_simulate_paths(*args, cfg)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res, error = run_bounded(lambda: simulate_paths(*args, cfg))
        finally:
            sys.setswitchinterval(interval)
        assert error is None
        assert res.samples.tobytes() == want.tobytes()
        assert res.fallback_lookups == fallback
        assert threading.active_count() == before

    @pytest.mark.parametrize("worker", [False, True], ids=["calling", "worker"])
    def test_shard_failure_raises_in_the_caller(self, monkeypatch, worker):
        # the ninth round of one thread fails while the others run on
        step = validate_module._jump
        calls = []

        def failing(*args):
            in_pool = threading.current_thread().name.startswith("ThreadPoolExecutor")
            calls.append(in_pool)
            if in_pool == worker and calls.count(worker) > 8:
                raise ZeroDivisionError("injected")
            return step(*args)

        monkeypatch.setattr(validate_module, "_jump", failing)
        before = threading.active_count()
        _, error = run_bounded(lambda: simulate_paths(*relaxed_case(0.35),
                                                      McConfig(n_paths=3000)))
        assert isinstance(error, ZeroDivisionError)
        assert threading.active_count() == before


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

    def test_sums_in_numpy_order(self):
        # BLAS ddot splits a long sum by thread count; numpy's order is fixed
        rng = np.random.default_rng(5)
        values, counts = np.unique(rng.uniform(0.0, 2.0, 60000), return_counts=True)
        p = values, counts / counts.sum()
        q = dist(np.linspace(0.0, 2.0, 21), np.full(21, 1 / 21))
        v = np.concatenate([p[0], q[0]])
        w = np.concatenate([p[1], -q[1]])
        order = np.argsort(v, kind="stable")
        cdf_diff = np.cumsum(w[order])[:-1]
        want = float(np.add.reduce(np.abs(cdf_diff) * np.diff(v[order])))
        assert wasserstein1(p, q) == want

    def test_from_samples(self, tmp_path):
        # validate's w1_vs_lp compares the empirical law of the capped samples
        # (ties merged, equal weights) with the last marginal_y.csv slice
        from riskflow.cli import _build_spec, build_problem, run, run_validation

        spec = _build_spec({"n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4, "horizon": 4.0})
        run(spec, tmp_path)
        summary = run_validation(spec, tmp_path, paths=2000, seed=3)
        y_grid = build_problem(spec).y_grid
        samples = np.minimum(np.loadtxt(tmp_path / "mc_samples.csv", skiprows=1), y_grid.hi)
        values, counts = np.unique(samples, return_counts=True)
        assert values.size < samples.size  # the cap makes ties
        last = np.loadtxt(tmp_path / "marginal_y.csv", delimiter=",",
                          skiprows=1)[-y_grid.n:, 2]
        want = wasserstein1((values, counts / samples.size), (y_grid.points, last))
        assert summary["w1_vs_lp"] == want > 0


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
        fp = program(gen, cost, yg, times, nu)
        for a_fixed in (0, 1):
            pol = MarkovPolicy.from_actions(np.full((3, 2, 41), a_fixed), 2)
            traj = propagate_forward(fp, pol)
            assert dp.value <= yg.points @ traj.marginal("y")[-1] + 1e-8


# the designated two-state instance of acceptance criterion 7
DESIGNATED_RATES = [(1.0, 2.0), (0.5, 0.3)]
DESIGNATED_COST = np.array([[0.3, 1.1], [0.9, 0.2]])
DESIGNATED_TIMES = np.linspace(0, 1, 3)
DESIGNATED_NU = np.array([1.0, 0.0])


def program(gen, cost, yg, times, nu, alpha=0.25):
    """The forward program of ``gen`` on the cost grid ``yg``, started
    from the state law ``nu`` at cost 0."""
    return assemble_forward_program(augment_generator(gen, cost, alpha, yg), nu, times)


def designated_program(yg, cost=DESIGNATED_COST):
    return program(two_state_gen(DESIGNATED_RATES), cost, yg, DESIGNATED_TIMES, DESIGNATED_NU)


class TestRiskNeutralDpCostAxis:
    """The risk-neutral optimum on the cost axis has one engine, the forward
    program's sweep (``optimize_linear_risk`` with the expectation); it is
    checked against enumeration and against propagating its own policy."""

    @pytest.mark.parametrize("v", [None, np.array([0.7, 0.1])])
    def test_capped_value_matches_lp_and_enumeration(self, v, monkeypatch):
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, 0.4, 2)
        fp = designated_program(yg)
        lp = optimize_linear_risk(fp, RiskSpec(kind="expectation"), v=v, tol_gap=1e-11)
        assert lp.status == "optimal"
        uncapped = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                                   DESIGNATED_NU, v=v)
        assert lp.rho_star < uncapped.value - 1e-2  # the ceiling binds
        enum = enumerate_policies(fp, RiskSpec(kind="expectation"), v=v)
        assert lp.rho_star == pytest.approx(enum.value, abs=1e-8)
        # the 16 systems of a step (n_z = 4) in runs of 7: the last run is partial
        monkeypatch.setattr(validate_module, "ENUM_CHUNK_BYTES", 7 * 8 * (16 + 4))
        chunked = enumerate_policies(fp, RiskSpec(kind="expectation"), v=v)
        assert (chunked.value, chunked.n_policies) == (enum.value, 256)

    @pytest.mark.parametrize("y_max, n_y", [(0.4, 2), (0.5, 3), (2.0, 5)])
    def test_greedy_policy_reproduces_value(self, y_max, n_y):
        # the exact implicit step is attained by its own greedy policy; a
        # per-state minimum over per-action resolvents is not
        yg = build_uniform_grid(0.0, y_max, n_y)
        fp = designated_program(yg)
        lp = optimize_linear_risk(fp, RiskSpec(kind="expectation"), tol_gap=1e-11)
        traj = propagate_forward(fp, lp.policy)
        assert yg.points @ traj.marginal("y")[-1] == pytest.approx(lp.rho_star, abs=1e-10)

    def test_base_chain_is_the_uncapped_limit(self):
        # on a cost axis tall enough that the top cell gets no mass, the
        # capped optimum and the base-chain DP solve the same problem
        gen = two_state_gen(DESIGNATED_RATES)
        yg = build_uniform_grid(0.0, 40.0, 81)
        base = risk_neutral_dp(gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES,
                               DESIGNATED_NU)
        fp = designated_program(yg)
        lp = optimize_linear_risk(fp, RiskSpec(kind="expectation"), tol_gap=1e-11)
        assert lp.boundary_mass < 1e-50
        assert base.value == pytest.approx(lp.rho_star, abs=1e-10)
        for policy, value in ((lp.policy, lp.rho_star),
                              (base.greedy_policy(yg.n, 2), base.value)):
            traj = propagate_forward(fp, policy)
            assert yg.points @ traj.marginal("y")[-1] == pytest.approx(value, abs=1e-10)

    def test_values_spanning_decades_match_enumeration(self):
        # state 1 carries a terminal cost of 1.5e6 and state 0 is left at
        # rates near 1e-7, so the values span more than 1e6.  At state 0 the
        # two actions nearly tie: switching to the better one gains about
        # 1e-5, far above 1e-9 of the start value but below 1e-10 times the
        # largest value, so a tie margin on the global value scale keeps the
        # worse action.  The margin is per state.
        gen = two_state_gen([(1.1801e-7, 0.17844), (1.1375e-7, 0.58553)])
        cost = np.array([[0.27816, 0.282], [0.34827, 0.30681]])
        v = np.array([0.0, 1.5284e6])
        yg = build_uniform_grid(0.0, 1.7885, 2)
        times = np.linspace(0.0, 1.8605, 3)
        fp = program(gen, cost, yg, times, np.array([1.0, 0.0]))
        lp = optimize_linear_risk(fp, RiskSpec(kind="expectation"), v=v)
        assert v.max() >= 1e6 * lp.rho_star
        enum = enumerate_policies(fp, RiskSpec(kind="expectation"), v=v)
        assert lp.rho_star == pytest.approx(enum.value, rel=1e-9)

    def test_infinite_cost_fails_loudly_on_cost_axis(self):
        # an infinite rate mixes to NaN (0 * inf) in the augmented implicit
        # step, refused before SuperLU; the base chain only sees it in the
        # stage cost, which the minimum avoids
        cost = DESIGNATED_COST.copy()
        cost[0, 1] = np.inf
        fp = designated_program(build_uniform_grid(0.0, 0.4, 2), cost)
        with pytest.raises(PropagationError, match="implicit step matrix has a non-finite entry"):
            optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        base = risk_neutral_dp(two_state_gen(DESIGNATED_RATES), cost, 0.25,
                               DESIGNATED_TIMES, DESIGNATED_NU)
        assert base.value == pytest.approx(0.2310, abs=1e-4)


class TestTerminalCostRefusal:
    """Every engine checks the terminal cost table, its length and then its
    sign, before it sweeps: all read it through ``risk.terminal_totals``."""

    YG = build_uniform_grid(0.0, 0.4, 2)
    ENGINES = {
        "lp-expectation": lambda gen, fp, v: optimize_linear_risk(
            fp, RiskSpec(kind="expectation"), v=v),
        "lp-entropic": lambda gen, fp, v: optimize_linear_risk(
            fp, RiskSpec(kind="entropic", theta=1.0), v=v),
        "frank-wolfe": lambda gen, fp, v: optimize_smooth_risk(
            fp, RiskSpec(kind="mean_semideviation", beta=0.5), v=v),
        "dp-base": lambda gen, fp, v: risk_neutral_dp(
            gen, DESIGNATED_COST, 0.25, DESIGNATED_TIMES, DESIGNATED_NU, v=v),
        "enumeration": lambda gen, fp, v: enumerate_policies(
            fp, RiskSpec(kind="expectation"), v=v),
    }

    @pytest.mark.parametrize("v, error", [
        pytest.param([-0.5, 0.0], InvalidCostError, id="negative"),
        pytest.param([np.nan, 0.0], InvalidCostError, id="nan"),
        pytest.param([0.5, 0.0, 0.0], InvalidParameterError, id="wrong-length"),
        pytest.param([-0.5, 0.0, 0.0], InvalidParameterError, id="length-before-sign"),
    ])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_refused_before_any_sweep(self, engine, v, error, monkeypatch):
        gen = two_state_gen(DESIGNATED_RATES)
        fp = designated_program(self.YG)
        swept = []
        monkeypatch.setattr(solve_module, "bellman_sweep", lambda *a, **k: swept.append(1))
        for name in ("bellman_sweep", "_step_policies"):
            monkeypatch.setattr(validate_module, name, lambda *a, **k: swept.append(1))
        with pytest.raises(RiskflowError) as caught:
            self.ENGINES[engine](gen, fp, np.array(v))
        assert type(caught.value) is error
        assert swept == []


class TestCostTableRefusal:
    """Every engine checks the running-cost table and its discount rate
    through ``generator.check_cost_table`` before it samples or sweeps."""

    GEN = two_state_gen([(1.0, 2.0), (0.5, 0.3), (2.0, 0.1)])
    COST = np.array([[0.3, 1.1, 0.5], [0.9, 0.2, 0.4]])
    YG = build_uniform_grid(0.0, 1.0, 2)
    ENGINES = {
        "monte-carlo": lambda c, alpha: simulate_paths(
            TestCostTableRefusal.GEN, MarkovPolicy.uniform(3, 2, 2, 3), c, alpha,
            TestCostTableRefusal.YG, DESIGNATED_NU, DESIGNATED_TIMES, McConfig(n_paths=10)),
        "dp": lambda c, alpha: risk_neutral_dp(TestCostTableRefusal.GEN, c, alpha,
                                               DESIGNATED_TIMES, DESIGNATED_NU),
        "augmentation": lambda c, alpha: augment_generator(
            TestCostTableRefusal.GEN, c, alpha, TestCostTableRefusal.YG),
    }

    @pytest.mark.parametrize("table, alpha, error", [
        pytest.param(COST * [[1, -1, 1], [1, 1, 1]], 0.25, InvalidCostError, id="negative"),
        pytest.param(COST * [[1, np.nan, 1], [1, 1, 1]], 0.25, InvalidCostError, id="nan"),
        pytest.param(COST.T, 0.25, InvalidParameterError, id="transposed"),
        pytest.param(COST.ravel(), 0.25, InvalidParameterError, id="flat"),
        pytest.param(COST, -0.5, InvalidParameterError, id="negative-alpha"),
        pytest.param(COST, np.nan, InvalidParameterError, id="nan-alpha"),
    ])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_refused_before_sampling_or_sweeping(self, engine, table, alpha, error, monkeypatch):
        ran = []
        for name in ("_run_blocks", "bellman_sweep", "_step_policies"):
            monkeypatch.setattr(validate_module, name, lambda *a, **k: ran.append(1))
        with pytest.raises(RiskflowError) as caught:
            self.ENGINES[engine](table, alpha)
        assert type(caught.value) is error
        assert ran == []


class TestInitialLawRefusal:
    """Every engine checks the state law through
    ``generator.check_initial_law`` before it samples, sweeps or steps: the
    Monte Carlo and the base-chain DP check it, and so does
    ``assemble_forward_program``, which is passed the law straight and
    builds the program that the optimizers, propagation and enumeration
    read, so enumeration and the linear optimizer are both refused at
    assembly."""

    GEN = two_state_gen(DESIGNATED_RATES)
    YG = build_uniform_grid(0.0, 1.0, 2)
    ENGINES = {
        "monte-carlo": lambda nu: simulate_paths(
            TestInitialLawRefusal.GEN, MarkovPolicy.uniform(3, 2, 2, 2), DESIGNATED_COST,
            0.25, TestInitialLawRefusal.YG, nu, DESIGNATED_TIMES, McConfig(n_paths=10)),
        "dp": lambda nu: risk_neutral_dp(TestInitialLawRefusal.GEN, DESIGNATED_COST, 0.25,
                                         DESIGNATED_TIMES, nu),
        "enumeration": lambda nu: enumerate_policies(
            program(TestInitialLawRefusal.GEN, DESIGNATED_COST, TestInitialLawRefusal.YG,
                    DESIGNATED_TIMES, nu), RiskSpec(kind="expectation")),
        "forward-program": lambda nu: optimize_linear_risk(
            program(TestInitialLawRefusal.GEN, DESIGNATED_COST, TestInitialLawRefusal.YG,
                    DESIGNATED_TIMES, nu), RiskSpec(kind="expectation")),
    }

    @pytest.mark.parametrize("nu", [
        pytest.param([0.5, 0.25, 0.25], id="wrong-length"),
        pytest.param([1.5, -0.5], id="negative"),
        pytest.param([np.nan, 1.0], id="nan"),
        pytest.param([1.0, 1.0], id="sums-to-2"),
    ])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_refused_before_sampling_or_sweeping(self, engine, nu, monkeypatch):
        ran = []
        for name in ("_run_blocks", "bellman_sweep", "_step_policies"):
            monkeypatch.setattr(validate_module, name, lambda *a, **k: ran.append(1))
        for name in ("bellman_sweep", "implicit_step"):
            monkeypatch.setattr(solve_module, name, lambda *a, **k: ran.append(1))
        with pytest.raises(RiskflowError) as caught:
            self.ENGINES[engine](np.array(nu))
        assert type(caught.value) is InvalidParameterError
        assert ran == []


class TestTimeGridRefusal:
    """Every engine reads its times through ``grids.grid_points``, which
    refuses an explicit grid that is not 1-d, finite and strictly
    increasing.  Unchecked, the Monte Carlo never passed a NaN or infinite
    grid time, so it runs in a thread with a timeout; a decreasing grid
    gave a mean, a DP value and a forward law with negative mass."""

    GEN = two_state_gen(DESIGNATED_RATES)
    YG = build_uniform_grid(0.0, 1.0, 2)
    ENGINES = {
        "monte-carlo": lambda times: run_bounded(lambda: simulate_paths(
            TestTimeGridRefusal.GEN, MarkovPolicy.uniform(3, 2, 2, 2), DESIGNATED_COST,
            0.25, TestTimeGridRefusal.YG, DESIGNATED_NU, times, McConfig(n_paths=10)),
            timeout=10.0),
        "dp": lambda times: (None, risk_neutral_dp(TestTimeGridRefusal.GEN, DESIGNATED_COST,
                                                   0.25, times, DESIGNATED_NU)),
        "forward": lambda times: (None, propagate_forward(
            program(TestTimeGridRefusal.GEN, DESIGNATED_COST, TestTimeGridRefusal.YG, times,
                    DESIGNATED_NU), MarkovPolicy.uniform(3, 2, 2, 2))),
    }

    @pytest.mark.parametrize("times", [
        pytest.param([0.0, np.nan, 1.0], id="nan"),
        pytest.param([0.0, 1.0, np.inf], id="inf"),
        pytest.param([0.0, 2.0, 1.0], id="decreasing"),
        pytest.param([0.0, 1.0, 1.0], id="repeated"),
        pytest.param([[0.0, 0.5, 1.0]], id="2-d"),
    ])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_refused(self, engine, times):
        try:
            _, error = self.ENGINES[engine](np.array(times))
        except RiskflowError as exc:
            error = exc
        assert isinstance(error, InvalidGridError), error

    def test_one_point_grid_gives_zero_costs(self):
        res = simulate_paths(self.GEN, MarkovPolicy.uniform(1, 2, 2, 2), DESIGNATED_COST,
                             0.25, self.YG, DESIGNATED_NU, [0.5], McConfig(n_paths=10))
        assert (res.samples == 0.0).all()


class TestEnumeration:
    # On this chain (n_z = 4, n_a = 2) a step has 16 systems of 16 floats and
    # a prefix has 16 rows of 4 floats: a chunk of 3,584 bytes holds the 16
    # systems and 3 prefixes, one of 1,120 bytes a run of 7 systems of one prefix.
    @pytest.mark.parametrize("spec, v, n_t, chunk", [
        pytest.param(RiskSpec(kind="entropic", theta=2.0), None, 3, 3584, id="spec0-None"),
        pytest.param(RiskSpec(kind="mean_semideviation", beta=0.5), np.array([0.3, 0.0]),
                     3, 3584, id="spec1-v1"),
        # three steps in blocks of 3 prefixes: the 16 prefixes of the middle
        # level span 6 chunks, the last one partial, and the totals 0.6 + 0
        # and 0 + 0.6 merge
        pytest.param(RiskSpec(kind="entropic", theta=2.0), np.array([0.6, 0.0]),
                     4, 3584, id="three-steps"),
        # the fan of 16 systems exceeds a chunk: each prefix in runs of 7, 7 and 2
        pytest.param(RiskSpec(kind="mean_semideviation", beta=0.5), np.array([0.3, 0.0]),
                     4, 1120, id="fan-above-chunk"),
    ])
    def test_matches_per_policy_loop(self, spec, v, n_t, chunk, monkeypatch):
        # the reference: every action table in itertools.product order,
        # stepped one policy at a time by dense solves of each step's
        # stacked matrix.  Enumeration's batched step calls the same LAPACK
        # solve, so this checks the prefix tree, the action digits, the
        # chunks and the scoring; the solve itself is checked against the
        # LP's sparse steps in TestRiskNeutralDpCostAxis and criterion 7
        yg = build_uniform_grid(0.0, 0.6, 2)
        fp = program(two_state_gen(DESIGNATED_RATES), DESIGNATED_COST, yg,
                     np.linspace(0, 1, n_t), DESIGNATED_NU)
        n_z, z = fp.n_z, np.arange(fp.n_z)
        steps = [(dt, q.toarray().reshape(n_z, fp.n_a, n_z)) for dt, q in fp.steps]
        want = []
        for assignment in itertools.product(range(2), repeat=(n_t - 1) * n_z):
            m = fp.b_eq[:n_z]
            for (dt, q), acts in zip(steps, np.reshape(assignment, (n_t - 1, n_z))):
                q_w = q[z, acts]  # row z of Q_{a(z)}
                m = np.linalg.solve(np.eye(n_z) - dt * q_w.T, m)
            want.append(evaluate(spec, *push_totals(m.reshape(fp.n_x, fp.n_y), fp.y_values, v)))
        # every policy's value, in policy order, not only the minimum
        original, scored = validate_module.evaluate_laws, []

        def record(*args):
            scored.append(original(*args))
            return scored[-1]

        monkeypatch.setattr(validate_module, "evaluate_laws", record)
        monkeypatch.setattr(validate_module, "ENUM_CHUNK_BYTES", chunk)
        res = enumerate_policies(fp, spec, v=v)
        assert res.n_policies == len(want) == 2 ** ((n_t - 1) * 4)
        assert np.concatenate(scored) == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert res.value == pytest.approx(min(want), rel=1e-14, abs=1e-14)

    def test_single_action_unique_value(self):
        gen = two_state_gen([(1.0, 2.0)])
        yg = build_uniform_grid(0.0, 2.0, 3)
        res = enumerate_policies(
            program(gen, np.array([[0.4], [0.9]]), yg, np.linspace(0, 1, 3),
                    np.array([1.0, 0.0])), RiskSpec(kind="expectation"))
        assert res.n_policies == 1

    def test_zero_cost_all_policies_zero(self):
        gen = two_state_gen([(1.0, 2.0), (0.5, 0.3)])
        yg = build_uniform_grid(0.0, 2.0, 2)
        res = enumerate_policies(
            program(gen, np.zeros((2, 2)), yg, np.linspace(0, 1, 2), np.array([1.0, 0.0])),
            RiskSpec(kind="entropic", theta=1.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rate, want", [(np.inf, None), (5.0, 0.16462363080205614)],
                             ids=["inf", "finite"])
    def test_infinite_cost_fails_loudly(self, rate, want):
        # a LAPACK solve of a step matrix holding inf returned the value 0.0
        cost = np.array([[rate, 0.2], [0.3, 0.4]])
        fp = program(two_state_gen([(1.0, 2.0), (0.5, 0.3)]), cost,
                     build_uniform_grid(0.0, 1.0, 2), np.linspace(0, 1, 3), np.array([1.0, 0.0]))
        if want is None:
            with pytest.raises(PropagationError, match="non-finite"):
                enumerate_policies(fp, RiskSpec(kind="expectation"))
        else:
            res = enumerate_policies(fp, RiskSpec(kind="expectation"))
            assert res.value == pytest.approx(want, rel=1e-14)

    def test_refuses_dense_steps_too_large_before_any_step(self, monkeypatch):
        # one action, so one policy, but 1600 (x, y) cells: a dense step of
        # 1600 x 1600 systems takes about 41 MB
        stepped = []
        monkeypatch.setattr(validate_module, "_step_policies",
                            lambda *a, **k: stepped.append(1))
        fp = program(two_state_gen([(1.0, 2.0)]), np.array([[0.4], [0.9]]),
                     build_uniform_grid(0.0, 2.0, 800), np.linspace(0, 1, 3),
                     np.array([1.0, 0.0]))
        with pytest.raises(PolicyEnumerationError, match="n_z = 1600"):
            enumerate_policies(fp, RiskSpec(kind="expectation"))
        assert stepped == []

    def test_refuses_large_spaces(self):
        gen = two_state_gen([(1.0, 2.0), (0.5, 0.3)])
        yg = build_uniform_grid(0.0, 2.0, 21)
        with pytest.raises(PolicyEnumerationError, match="deterministic policies"):
            enumerate_policies(
                program(gen, np.zeros((2, 2)), yg, np.linspace(0, 1, 11), np.array([1.0, 0.0])),
                RiskSpec(kind="expectation"))
