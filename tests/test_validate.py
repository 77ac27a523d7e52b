import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import riskflow.solve as solve_module
import riskflow.validate as validate_module
from riskflow import (ControlledGenerator, InvalidCostError,
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


def reference_simulate_paths(gen, policy, cost_rate, alpha, y_grid, initial_x,
                             t_grid, cfg):
    """The sampler before compaction, kept as the bitwise reference: every
    round gathers over all active paths and counts ``u > cum``."""
    times = np.asarray(t_grid, dtype=float)
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


@pytest.fixture(scope="module")
def circle_case(tmp_path_factory):
    """The 9x9x5x9 circle under the solver's own policy: one-hot cells and
    uniform tie cells."""
    from riskflow.cli import _build_spec, build_problem, run

    spec = _build_spec({"family": "circle_follower", "n_x": 9, "n_y": 9, "n_a": 5,
                        "n_t": 9})
    policy = run(spec, tmp_path_factory.mktemp("circle")).policy
    pieces = build_problem(spec)
    return (pieces.base, policy, pieces.cost, spec.alpha, pieces.y_grid, pieces.nu,
            pieces.t_grid.points)


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


class TestSamplerMatchesReference:
    SEEDS = (0, 1, 2, 5)

    def check(self, args, n_paths, monkeypatch):
        # at most 3 shards while each holds 400 paths: 3,000 paths start as
        # 3 shards of 1,000 and merge into fewer, unequal ones as they finish
        monkeypatch.setattr(validate_module, "MIN_SHARD_PATHS", 400)
        counts = []
        reshard = validate_module._reshard

        def record(shards, count):
            counts.append(count)
            out = reshard(shards, count)
            sizes = [sh.ids.size for sh in out]
            # the calling thread also draws the exponentials: its shard is the smallest
            assert count < 2 or sizes[0] <= min(sizes[1:]), sizes
            return out

        monkeypatch.setattr(validate_module, "_reshard", record)
        for seed in self.SEEDS:
            cfg = McConfig(n_paths=n_paths, seed=seed)
            want, fallback = reference_simulate_paths(*args, cfg)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(validate_module, "_cpu_count", lambda c=cpus: c)
                counts.clear()
                res = simulate_paths(*args, cfg)
                assert res.samples.tobytes() == want.tobytes(), (seed, cpus)
                assert res.fallback_lookups == fallback, (seed, cpus)
                assert max(counts, default=1) == cpus

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

    def test_uniform_block_splits_by_advance(self):
        # the shards rely on this: PCG64 yields one 64-bit word per uniform,
        # so a copy advanced by k draws continues the block at its k-th draw
        rng = np.random.default_rng(11)
        rng.standard_exponential(977)  # a mid-stream state, as in a round
        state = rng.bit_generator.state
        whole = rng.random(10_000)
        cuts = [0, 1, 7, 4096, 4097, 9999, 10_000]
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            copy = np.random.Generator(np.random.PCG64())
            copy.bit_generator.state = state
            copy.bit_generator.advance(lo)
            parts.append(copy.random(hi - lo))
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        copy.bit_generator.state = state
        copy.bit_generator.advance(10_000)
        assert copy.bit_generator.state == rng.bit_generator.state

    def test_jump_tables_keep_every_draw_on_its_row(self):
        # row 0's jump law sums to 1 - 2**-52 in float64, below the largest
        # draw, in a table as wide as row 1; row 2 exits at a rate within
        # rounding of zero and has no target, so it stays put
        q = np.zeros((6, 6))
        q[0, 1:5] = [0.5, 0.4, 0.2, 0.3]
        q[1, [0, 2, 3, 4, 5]] = 1.0
        q[3:, 0] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        q[2, 2] = -1e-12
        gen = ControlledGenerator(per_action=(sp.csr_matrix(q),))
        _, targets, width, columns = validate_module._jump_tables(gen)
        assert width == 5 and columns[3, 0] == 1.0
        slot = (np.nextafter(1.0, 0.0) > columns).sum(axis=0)
        assert targets[np.arange(6) * width + slot].tolist() == [4, 5, 2, 0, 0, 0]

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
    """Each call samples in workspaces of its own: calls back to back in one
    process, at every CPU count, with 3,000 paths, then 500, then 3,000,
    give the reference's bits.  At 1,000 paths per shard the shards of a
    3,000-path call on 2 or 3 CPUs merge within a slice, into the calling
    thread's workspace."""

    @pytest.mark.parametrize("alpha", [0.0, 0.35])
    def test_back_to_back_calls_match_the_reference(self, alpha, monkeypatch):
        args = relaxed_case(alpha, absorbing=True)  # a dead row and masked cells
        assert not args[1].mask.all()
        monkeypatch.setattr(validate_module, "MIN_SHARD_PATHS", 1000)
        merges, reshard = [], validate_module._reshard

        def record(shards, count):
            merges.append(count < len(shards))
            return reshard(shards, count)

        monkeypatch.setattr(validate_module, "_reshard", record)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(validate_module, "_cpu_count", lambda c=cpus: c)
            for n_paths in (3000, 500, 3000):
                merges.clear()
                cfg = McConfig(n_paths=n_paths, seed=n_paths + cpus)
                want, fallback = reference_simulate_paths(*args, cfg)
                res = simulate_paths(*args, cfg)
                assert res.samples.tobytes() == want.tobytes(), (cpus, n_paths)
                assert res.fallback_lookups == fallback, (cpus, n_paths)
                assert any(merges) == (cpus > 1 and n_paths == 3000), (cpus, n_paths)


def action_rows():
    """Cumulative action laws (last entry 1, as the sampler sets it) with
    entries on bucket edges and one ulp either side of them."""
    big, n_a = validate_module.ACTION_BUCKETS, 21
    edges = np.array([1, 2, 511, 512, 513, 1023]) / big
    around = np.sort(np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, 1)]))
    rows = [
        np.concatenate([around, [1.0] * (n_a - around.size)]),
        np.concatenate([[0.5] * (n_a - 1), [1.0]]),  # every entry on one edge
        np.cumsum(np.full(n_a, 1 / n_a)),  # uniform, as the sweep mixes its ties
        np.cumsum(np.full(n_a, 0.5 / n_a)),  # short row
        np.concatenate([[0.0] * 5, [1.0] * (n_a - 5)]),  # one-hot past a zero prefix
        np.concatenate([[0.25] * 10, [1 - 2.0 ** -52] * (n_a - 10)]),
        np.concatenate([[0.3], [1 + 2.0 ** -52] * (n_a - 1)]),  # sums above one
        np.concatenate([[5e-324], [0.75] * (n_a - 1)]),  # a subnormal first action
    ]
    cum = np.array(rows)
    cum[:, -1] = 1.0
    return cum


def table_actions(cum, u):
    """Actions of every draw ``u`` in every cell of ``cum`` by the sampler's
    table lookup, (cells, draws)."""
    first, mixed_cum, table = validate_module._action_table(cum)
    cells = np.repeat(np.arange(len(cum)), u.size)
    uu = np.tile(u, len(cum))
    acts = first[cells]
    mixed = np.flatnonzero(acts < 0)
    acts[mixed] = validate_module._pick_actions(uu[mixed], ~acts[mixed], mixed_cum, table)
    return acts.reshape(len(cum), u.size)


class TestActionTable:
    def test_counts_the_entries_below_every_draw(self):
        cum = action_rows()
        big = validate_module.ACTION_BUCKETS
        edges = np.arange(1, big) / big
        u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
                            [2.0 ** -53, np.nextafter(1.0, 0.0)]])
        want = (u[None, :, None] > cum[:, None, :]).sum(axis=-1)
        assert np.array_equal(table_actions(cum, u), want)

    def test_a_zero_draw_gets_the_first_action_of_positive_probability(self):
        cum = action_rows()
        assert np.array_equal(table_actions(cum, np.zeros(1))[:, 0], (cum <= 0).sum(axis=1))

    def test_only_mixed_cells_get_a_compact_table(self):
        cum = action_rows()
        first, mixed_cum, table = validate_module._action_table(cum)
        assert first[4] == 5  # one-hot: no table
        assert (first < 0).sum() == len(cum) - 1 == len(mixed_cum)
        assert table.itemsize == 1 and table.size == len(mixed_cum) * validate_module.ACTION_BUCKETS


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
        monkeypatch.setattr(validate_module, "MIN_SHARD_PATHS", 100)

    def test_same_bits_under_fast_switching_and_no_thread_left(self):
        # 3 shards on any CPU count, the interpreter switching threads as
        # often as it can: a lost or misplaced write changes the samples
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
        step = validate_module._shard_round
        calls = []

        def failing(*args):
            in_pool = threading.current_thread().name.startswith("ThreadPoolExecutor")
            calls.append(in_pool)
            if in_pool == worker and calls.count(worker) > 8:
                raise ZeroDivisionError("injected")
            return step(*args)

        monkeypatch.setattr(validate_module, "_shard_round", failing)
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
        for name in ("_shard_round", "bellman_sweep", "_step_policies"):
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
        for name in ("_shard_round", "bellman_sweep", "_step_policies"):
            monkeypatch.setattr(validate_module, name, lambda *a, **k: ran.append(1))
        for name in ("bellman_sweep", "implicit_step"):
            monkeypatch.setattr(solve_module, name, lambda *a, **k: ran.append(1))
        with pytest.raises(RiskflowError) as caught:
            self.ENGINES[engine](np.array(nu))
        assert type(caught.value) is InvalidParameterError
        assert ran == []


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
