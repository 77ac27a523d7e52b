import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import riskflow.forward as forward_module
import riskflow.solve as solve_module
from riskflow import (ControlledGenerator, InvalidParameterError, MarkovPolicy,
                      McConfig, PropagationError, RiskSpec, optimize_linear_risk,
                      assemble_forward_program, augment_generator,
                      build_circle_grid, build_uniform_grid, discount_factor,
                      discretize_circle_diffusion, propagate_forward,
                      run, simulate_paths, write_trajectory_csv)
from riskflow.cli import _build_spec, _forward_program, build_problem, write_grid_csv
from riskflow.forward import implicit_step, step_plan
from test_generator import stack_actions


def two_state_gen(q01=1.0, q10=2.0):
    m = sp.csr_matrix(np.array([[-q01, q01], [q10, -q10]]))
    return ControlledGenerator(per_action=(m,))


class TestGridCsv:
    SPECIAL = np.array([-0.0, 5e-324, 0.1, 1 / 3, 1.0, 1e300, 0.0, -2.5])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("shape", [(8,), (3, 5), (2, 3, 2, 4)])
    def test_bytes_match_savetxt(self, tmp_path, newline, shape):
        rng = np.random.default_rng(len(shape))
        coords = [np.concatenate([[-0.0], rng.normal(size=n - 1)]) for n in shape]
        coords[-1][-1] = 1e300
        values = rng.choice(self.SPECIAL, size=shape)
        values.flat[: self.SPECIAL.size] = self.SPECIAL
        header = [f"c{i}" for i in range(len(shape))] + ["v"]
        write_grid_csv(tmp_path / "fast.csv", header, coords, values, newline=newline)
        grids = np.meshgrid(*coords, indexing="ij")
        table = np.column_stack([g.ravel() for g in grids] + [values.ravel()])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline=newline,
                       header=",".join(header), comments="")
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b"-0," in got and b",-0" + newline.encode() in got

    @pytest.mark.parametrize("shape", [(8,), (3, 5), (2, 3, 2, 4)])
    def test_subset_bytes_match_the_savetxt_rows_above_zero(self, tmp_path, shape):
        # policy.csv's rows: those of the full table whose value is > 0, in order
        rng = np.random.default_rng(len(shape))
        coords = [rng.permutation(n) - 0.5 * n for n in shape]  # unsorted, as actions may be
        values = rng.choice(self.SPECIAL, size=shape)
        header = [f"c{i}" for i in range(len(shape))] + ["v"]
        write_grid_csv(tmp_path / "fast.csv", header, coords, values, newline="\n",
                       rows=np.flatnonzero(values > 0))
        grids = np.meshgrid(*coords, indexing="ij")
        table = np.column_stack([g.ravel() for g in grids] + [values.ravel()])
        np.savetxt(tmp_path / "ref.csv", table[table[:, -1] > 0], fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_dense_artifacts_are_the_savetxt_tables(self, tmp_path):
        # marginal_x.csv, marginal_y.csv and policy_mask.csv keep every grid point
        spec = _build_spec({"n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4, "horizon": 4.0})
        report = run(spec, tmp_path)
        pieces = build_problem(spec)
        traj = report.trajectory
        txy = (pieces.t_grid.points, pieces.base.state_points, pieces.y_grid.points)
        for name, coords, values, newline in (
                ("marginal_x.csv", (traj.times, traj.x_values), traj.marginal("x"), "\r\n"),
                ("marginal_y.csv", (traj.times, traj.y_values), traj.marginal("y"), "\r\n"),
                ("policy_mask.csv", txy, report.policy.mask, "\n")):
            grids = np.meshgrid(*coords, indexing="ij")
            table = np.column_stack([g.ravel() for g in grids] + [np.ravel(values)])
            head = (tmp_path / name).read_text().splitlines()[0]
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline=newline,
                           header=head, comments="")
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name


class TestPropagation:
    def test_zero_generator_freezes_mass(self):
        gen = ControlledGenerator(per_action=(sp.csr_matrix((3, 3)),))
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((3, 1)), 0.0, yg)
        traj = propagate_forward(assemble_forward_program(aug, np.eye(3)[1], np.linspace(0, 1, 4)),
                                 MarkovPolicy.uniform(4, 3, 2, 1))
        for mass in traj.mass:
            assert np.allclose(mass, [[0, 0], [1, 0], [0, 0]])

    def test_two_state_chain_matches_matrix_exponential(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        gen = two_state_gen()
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((2, 1)), 0.0, yg)
        n_t = 101  # dt = 0.01 over t = 1
        times = np.linspace(0.0, 1.0, n_t)
        traj = propagate_forward(assemble_forward_program(aug, np.eye(2)[0], times),
                                 MarkovPolicy.uniform(n_t, 2, 2, 1))
        got = traj.marginal("x")[-1]
        want = scipy.linalg.expm(q.T) @ np.array([1.0, 0.0])
        # oracle value: (2/3 + e^-3/3, 1/3 - e^-3/3)
        assert want[0] == pytest.approx(2 / 3 + np.exp(-3) / 3, rel=1e-12)
        assert np.abs(got - want).max() < 2e-3

    def test_uniform_stays_uniform_on_circle(self):
        grid = build_circle_grid(7)
        gen = ControlledGenerator(
            per_action=(discretize_circle_diffusion(grid, 0.0, 1.0),),
            state_grid=grid)
        yg = build_uniform_grid(0.0, 1.0, 3)
        aug = augment_generator(gen, np.zeros((7, 1)), 0.0, yg)
        traj = propagate_forward(assemble_forward_program(aug, np.full(7, 1.0 / 7.0),
                                                          np.linspace(0, 2, 5)),
                                 MarkovPolicy.uniform(5, 7, 3, 1))
        for law in traj.marginal("x"):
            assert np.allclose(law, 1.0 / 7.0, atol=1e-12)

    def test_mass_conservation_and_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_x, n_y, n_a = rng.integers(2, 6), rng.integers(2, 5), rng.integers(1, 4)
            mats = []
            for _ in range(n_a):
                off = rng.uniform(0, 3, (n_x, n_x))
                np.fill_diagonal(off, 0.0)
                q = off - np.diag(off.sum(axis=1))
                mats.append(sp.csr_matrix(q))
            gen = ControlledGenerator(per_action=tuple(mats))
            cost = rng.uniform(0, 2, (n_x, n_a))
            yg = build_uniform_grid(0.0, 1.5, n_y)
            aug = augment_generator(gen, cost, rng.uniform(0, 1), yg)
            probs = rng.dirichlet(np.ones(n_a), size=(4, n_x, n_y))
            policy = MarkovPolicy(probs=probs, mask=np.ones((4, n_x, n_y), bool))
            # conservation is a property of the step: start it from any (x, y) law
            fp = assemble_forward_program(aug, np.eye(n_x)[0], np.linspace(0, 1.5, 4))
            start = rng.dirichlet(np.ones(n_x * n_y))
            traj = propagate_forward(dataclasses.replace(fp, initial=start), policy)
            assert traj.mass_deviation.max() <= 1e-12
            assert traj.min_mass >= -1e-12

    def test_first_moment_identity(self):
        # mean cost increment per step = dt * disc * E_{mu_{k+1}}[c] off the top cell
        rng = np.random.default_rng(5)
        grid = build_circle_grid(5)
        a_vals = np.array([-0.3, 0.4])
        gen = ControlledGenerator(
            per_action=tuple(discretize_circle_diffusion(grid, a, 0.8) for a in a_vals),
            state_grid=grid)
        cost = rng.uniform(0, 1.5, (5, 2))
        alpha = 0.3
        yg = build_uniform_grid(0.0, 2.0, 9)
        aug = augment_generator(gen, cost, alpha, yg)
        times = np.linspace(0.0, 2.0, 6)
        probs = rng.dirichlet(np.ones(2), size=(6, 5, 9))
        policy = MarkovPolicy(probs=probs, mask=np.ones((6, 5, 9), bool))
        traj = propagate_forward(assemble_forward_program(aug, np.eye(5)[0], times), policy)
        means = traj.marginal("y") @ traj.y_values
        assert np.all(np.diff(means) >= -1e-14)
        dt = times[1] - times[0]
        for k in range(5):
            disc = discount_factor(alpha, times[k], step=dt)
            nxt = traj.mass[k + 1]  # (x, y)
            w = policy.probs[k + 1]        # (x, y, a)
            flow = sum((nxt[:, :-1] * w[:, :-1, a] * cost[:, None, a]).sum()
                       for a in range(2))
            assert means[k + 1] - means[k] == pytest.approx(dt * disc * flow, abs=1e-12)

    def test_policy_shape_checked(self):
        gen = two_state_gen()
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((2, 1)), 0.0, yg)
        fp = assemble_forward_program(aug, np.eye(2)[0], np.linspace(0, 1, 4))
        with pytest.raises(InvalidParameterError):
            propagate_forward(fp, MarkovPolicy.uniform(3, 2, 2, 1))

    @staticmethod
    def step_policy(engine, policy):
        """Step ``policy`` on a 2-state, 2-action chain over 4 grid times
        with ``engine``, ``propagate_forward`` or ``simulate_paths``."""
        gen = ControlledGenerator(per_action=two_state_gen().per_action
                                  + two_state_gen(0.5, 0.3).per_action)
        cost = np.array([[0.3, 1.1], [0.9, 0.2]])
        yg, times = build_uniform_grid(0.0, 1.0, 2), np.linspace(0, 1, 4)
        if engine == "propagate_forward":
            aug = augment_generator(gen, cost, 0.25, yg)
            return propagate_forward(assemble_forward_program(aug, np.eye(2)[0], times), policy)
        return simulate_paths(gen, policy, cost, 0.25, yg, np.eye(2)[0], times,
                              McConfig(n_paths=10))

    @pytest.mark.parametrize("engine", ["propagate_forward", "simulate_paths"])
    @pytest.mark.parametrize("flaw", ["shape", "negative", "nan"])
    def test_policy_cells_checked_by_both_engines(self, engine, flaw, monkeypatch):
        # one check refuses each flaw before any step: a NaN used to reach
        # spsolve, and [1.5, -0.5] used to propagate silently
        policy = MarkovPolicy.uniform(3 if flaw == "shape" else 4, 2, 2, 2)
        if flaw != "shape":
            policy.probs[2, 1, 0] = [1.5, -0.5] if flaw == "negative" else [np.nan, 1.0]

        def no_step(*args, **kwargs):
            raise AssertionError("stepped an unchecked policy")

        monkeypatch.setattr(forward_module, "implicit_step", no_step)
        match = "policy cells" if flaw == "shape" else "negative or NaN"
        with pytest.raises(InvalidParameterError, match=match):
            self.step_policy(engine, policy)

    @pytest.mark.parametrize("engine", ["propagate_forward", "simulate_paths"])
    def test_policy_cells_summing_below_one_step(self, engine):
        policy = MarkovPolicy.uniform(4, 2, 2, 2)
        policy.probs[2, 1, 0] = [0.25, 0.25]
        self.step_policy(engine, policy)


class TestAssembly:
    def test_state_law_starts_at_cost_zero(self):
        gen = ControlledGenerator(per_action=(sp.csr_matrix((3, 3)),) * 2)
        yg = build_uniform_grid(0.0, 1.0, 4)
        aug = augment_generator(gen, np.ones((3, 2)), 0.5, yg)
        nu = np.array([0.2, 0.0, 0.8])
        fp = assemble_forward_program(aug, nu, np.linspace(0, 1, 3))
        want = np.zeros((3, 3, 4))  # (t, x, y)
        want[0, :, 0] = nu
        assert np.array_equal(fp.b_eq, want.ravel())

    def test_degenerate_single_cell(self):
        gen = ControlledGenerator(per_action=(sp.csr_matrix((1, 1)),))
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((1, 1)), 0.0, yg)
        fp = assemble_forward_program(aug, np.ones(1), np.linspace(0, 1, 2))
        assert fp.n_vars == 4  # 2 slices x 2 cost levels x 1 action
        assert fp.a_eq.shape == (4, 4)

    def test_reference_problem_size(self):
        grid = build_circle_grid(21)
        a_vals = np.linspace(-0.5, 0.5, 21)
        gen = ControlledGenerator(
            per_action=tuple(discretize_circle_diffusion(grid, a, 1.0) for a in a_vals),
            state_grid=grid)
        cost = (1 - np.cos(grid.points))[:, None] + 2.0 * a_vals[None, :] ** 2
        yg = build_uniform_grid(0.0, 2.5, 21)
        aug = augment_generator(gen, cost, 0.25, yg)
        fp = assemble_forward_program(aug, np.eye(21)[0], build_uniform_grid(0.0, 25.0, 21))
        assert fp.n_vars == 21 * 21 * 21 * 21 == 194_481
        assert fp.a_eq.shape[0] == 20 * 441 + 441 == 9_261
        assert np.diff(fp.a_eq.tocsr().indptr).min() >= 1
        # every variable appears in at least one constraint
        assert np.diff(fp.a_eq.tocsc().indptr).min() >= 1

    def test_evolution_rows_telescope_total_mass(self):
        # summing evolution rows over states leaves +1 on the new slice and
        # -1 on the old slice: row sums of the generator cancel exactly
        rng = np.random.default_rng(2)
        grid = build_circle_grid(4)
        a_vals = np.array([0.0, 0.5])
        gen = ControlledGenerator(
            per_action=tuple(discretize_circle_diffusion(grid, a, 1.0) for a in a_vals),
            state_grid=grid)
        cost = rng.uniform(0, 1, (4, 2))
        yg = build_uniform_grid(0.0, 1.0, 3)
        aug = augment_generator(gen, cost, 0.2, yg)
        fp = assemble_forward_program(aug, np.eye(4)[0], np.linspace(0, 1, 3))
        n_z, n_a = 12, 2
        dense = fp.a_eq.toarray()
        for k in range(2):
            rows = dense[n_z + k * n_z: n_z + (k + 1) * n_z]
            colsum = rows.sum(axis=0)
            expect = np.zeros(fp.n_vars)
            expect[(k + 1) * n_z * n_a:(k + 2) * n_z * n_a] = 1.0
            expect[k * n_z * n_a:(k + 1) * n_z * n_a] = -1.0
            assert np.allclose(colsum, expect, atol=1e-12)

    def test_csv_export_round_trip(self, tmp_path):
        gen = two_state_gen()
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.full((2, 1), 0.4), 0.0, yg)
        traj = propagate_forward(assemble_forward_program(aug, np.eye(2)[0], np.linspace(0, 1, 3)),
                                 MarkovPolicy.uniform(3, 2, 2, 1))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, "y")
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (6, 3)
        got = rows[rows[:, 0] == 1.0][:, 2]
        assert np.allclose(got, traj.marginal("y")[-1])


def random_generator(rng, n_x, n_a, density=0.6):
    """Dense random rate matrices, zero row sums, some rates exactly zero."""
    mats = []
    for _ in range(n_a):
        q = rng.uniform(0, 2, (n_x, n_x)) * (rng.uniform(size=(n_x, n_x)) < density)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        mats.append(sp.csr_matrix(q))
    return ControlledGenerator(per_action=tuple(mats))


def scipy_step(stacked, weights, dt, rhs, transpose):
    """``implicit_step`` as six scipy sparse operations per call (mixing
    matrix, product, identity, scaling, difference, ``tocsc``): the bitwise
    reference of its index plan."""
    n, n_a = weights.shape
    mixing = sp.csr_matrix((weights.ravel(), np.arange(weights.size),
                            np.arange(0, weights.size + 1, n_a)), shape=(n, weights.size))
    q_w = mixing @ stacked
    system = (sp.identity(n, format="csr") - dt * (q_w.T if transpose else q_w)).tocsc()
    return spla.spsolve(system, rhs)


def assert_step_bits(stacked, weights, dt, rhs):
    plan = step_plan(stacked, weights.shape[1])
    for transpose in (True, False):
        got = implicit_step(stacked, weights, dt, rhs, plan, transpose=transpose)
        assert np.array_equal(got, scipy_step(stacked, weights, dt, rhs, transpose))


def mixing_weights(rng, kind, n, n_a):
    """One-hot, tie-mixed or random weights, each with explicit zeros."""
    if kind == "one-hot":
        return np.eye(n_a)[rng.integers(n_a, size=n)]
    if kind == "ties":
        tie = rng.uniform(size=(n, n_a)) < 0.5
        tie[np.arange(n), rng.integers(n_a, size=n)] = True
        return tie / tie.sum(axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(n_a), size=n)
    w[rng.uniform(size=(n, n_a)) < 0.3] = 0.0
    w[np.arange(n), rng.integers(n_a, size=n)] += 0.5
    return w / w.sum(axis=1, keepdims=True)


def circle_program(payload):
    spec = _build_spec(payload)
    return _forward_program(spec, build_problem(spec))


def reference_step_plan(stacked, n_a):
    """``step_plan`` as first written: ``np.unique`` over the entry and
    diagonal keys, then two argsorts.  The bitwise reference of its arrays."""
    n = stacked.shape[1]
    rows = np.repeat(np.arange(stacked.shape[0]), np.diff(stacked.indptr))
    keys = np.concatenate([rows // n_a * n + stacked.indices, np.arange(n) * (n + 1)])
    pattern, slot = np.unique(keys, return_inverse=True)
    z, col = (i.astype(np.intc) for i in np.divmod(pattern, n))
    eye, slot, heads = (z == col).astype(float), slot[:rows.size], np.arange(n + 1)
    by_col = np.argsort(col, kind="stable")
    return ((rows, np.argsort(by_col)[slot], eye[by_col], z[by_col],
             np.searchsorted(col[by_col], heads).astype(np.intc)),
            (rows, slot, eye, col, np.searchsorted(z, heads).astype(np.intc)))


def assert_plan_bits(stacked, n_a):
    for got, want in zip(step_plan(stacked, n_a), reference_step_plan(stacked, n_a)):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStepPlan:
    @pytest.mark.parametrize("name", ["reference", "circle15_semidev", "oracle_enum"])
    def test_bench_configs_match_the_reference(self, name):
        config = Path(__file__).parent.parent / "bench" / "configs" / f"{name}.json"
        fp = circle_program(json.loads(config.read_text()))
        assert_plan_bits(fp.steps[0][1], fp.n_a)

    def test_custom_chains_match_the_reference(self):
        # augmented steps with a zero cost rate and an absorbing state, the
        # bare stacked chain, and the same chain with each row's columns
        # stored in reverse
        rng = np.random.default_rng(21)
        for _ in range(8):
            n_x, n_y, n_a = (int(rng.integers(2, k)) for k in (7, 5, 4))
            mats = [random_generator(rng, n_x, 1, density=rng.uniform(0.1, 0.9)).per_action[0]
                    .multiply(np.arange(n_x)[:, None] > 0).tocsr() for _ in range(n_a)]
            cost = rng.uniform(0, 1.5, (n_x, n_a))
            cost[0, 0] = 0.0
            aug = augment_generator(ControlledGenerator(per_action=tuple(mats)), cost,
                                    float(rng.uniform(0.0, 1.0)),
                                    build_uniform_grid(0.0, 2.0, n_y))
            (_, q), = aug.steps(np.array([0.0, 0.5]))
            assert_plan_bits(q, n_a)
            stacked = stack_actions(mats)
            assert_plan_bits(stacked, n_a)
            flipped = stacked.copy()
            for lo, hi in zip(flipped.indptr[:-1], flipped.indptr[1:]):
                flipped.indices[lo:hi] = flipped.indices[lo:hi][::-1].copy()
                flipped.data[lo:hi] = flipped.data[lo:hi][::-1].copy()
            assert_plan_bits(flipped, n_a)


class TestImplicitStepKernel:
    """The LP rows, the forward step and the backward step share one
    stacked (state, action) generator."""

    @pytest.mark.parametrize("seed", range(4))
    def test_a_eq_matches_per_action_formula(self, seed):
        # the evolution rows written out action by action, as a dense matrix
        rng = np.random.default_rng(seed)
        n_x, n_y, n_a = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 4))
        gen = random_generator(rng, n_x, n_a)
        cost = rng.uniform(0, 1.5, (n_x, n_a))
        alpha = float(rng.uniform(0.1, 1.0))
        yg = build_uniform_grid(0.0, float(rng.uniform(0.5, 3.0)), n_y)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.9, 3))])
        fp = assemble_forward_program(augment_generator(gen, cost, alpha, yg),
                                      np.eye(n_x)[0], times)
        n_z = n_x * n_y
        shift = np.eye(n_y, k=1) - np.eye(n_y)
        shift[-1] = 0.0
        want = np.zeros((len(times) * n_z, len(times) * n_z * n_a))
        z = np.arange(n_z)
        for a in range(n_a):
            want[z, z * n_a + a] = 1.0
        for k in range(len(times) - 1):
            dt = times[k + 1] - times[k]
            disc = discount_factor(alpha, times[k], dt)
            rows = (k + 1) * n_z + z
            for a in range(n_a):
                q_a = (np.kron(gen.per_action[a].toarray(), np.eye(n_y))
                       + disc * np.kron(np.diag(cost[:, a] / yg.spacing), shift))
                block = (np.eye(n_z) - dt * q_a).T
                want[np.ix_(rows, ((k + 1) * n_z + z) * n_a + a)] = block
                want[rows, (k * n_z + z) * n_a + a] = -1.0
        np.testing.assert_allclose(fp.a_eq.toarray(), want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("transpose", [True, False])
    def test_implicit_step_matches_dense_solve(self, transpose):
        # n_b mixtures stepped as one chain of n_b disjoint copies (as policy
        # enumeration does); each copy must get the single call's solution
        rng = np.random.default_rng(5)
        for n_b in (1, 1, 1, 4, 4):
            n, n_a = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            gen = random_generator(rng, n, n_a)
            weights = rng.dirichlet(np.ones(n_a), size=(n_b, n))
            dt = float(rng.uniform(0.05, 2.0))
            rhs = rng.uniform(-1, 1, (n_b, n))
            stacked = stack_actions(gen.per_action)
            singles = []
            for w, r in zip(weights, rhs):
                q_w = sum(w[:, [a]] * gen.per_action[a].toarray()
                          for a in range(n_a))
                system = np.eye(n) - dt * q_w
                want = np.linalg.solve(system.T if transpose else system, r)
                singles.append(implicit_step(stacked, w, dt, r, step_plan(stacked, n_a),
                                             transpose=transpose))
                np.testing.assert_allclose(singles[-1], want, rtol=1e-12, atol=1e-12)
            chain = sp.kron(sp.identity(n_b), stacked, format="csr")
            got = implicit_step(chain, weights.reshape(-1, n_a), dt, rhs.ravel(),
                                step_plan(chain, n_a), transpose=transpose)
            np.testing.assert_allclose(got.reshape(n_b, n), singles, rtol=1e-14, atol=1e-14)
            assert np.array_equal(got, scipy_step(chain, weights.reshape(-1, n_a), dt,
                                                  rhs.ravel(), transpose))

    @pytest.mark.parametrize("kind", ["one-hot", "ties", "random"])
    def test_implicit_step_matches_scipy_bitwise(self, kind):
        # actions of different sparsity, one cost rate zero (no cost-shift
        # entry) and an absorbing state, whose top cost cell mixes to an
        # all-zero row with no diagonal entry
        rng = np.random.default_rng(11)
        for _ in range(12):
            n_x, n_y, n_a = (int(rng.integers(2, k)) for k in (6, 4, 4))
            mats = [random_generator(rng, n_x, 1, density=rng.uniform(0.1, 0.9)).per_action[0]
                    .multiply(np.arange(n_x)[:, None] > 0).tocsr() for _ in range(n_a)]
            gen = ControlledGenerator(per_action=tuple(mats))
            cost = rng.uniform(0, 1.5, (n_x, n_a))
            cost[0, 0] = cost[int(rng.integers(n_x)), int(rng.integers(n_a))] = 0.0
            yg = build_uniform_grid(0.0, float(rng.uniform(0.5, 3.0)), n_y)
            aug = augment_generator(gen, cost, float(rng.uniform(0.0, 1.0)), yg)
            (dt, q), = aug.steps(np.array([0.0, float(rng.uniform(0.05, 2.0))]))
            assert not q[(n_y - 1) * n_a:n_y * n_a].toarray().any()
            assert_step_bits(q, mixing_weights(rng, kind, n_x * n_y, n_a), dt,
                             rng.uniform(-1, 1, n_x * n_y))
            stacked = stack_actions(mats)
            assert_step_bits(stacked, mixing_weights(rng, kind, n_x, n_a),
                             float(rng.uniform(0.05, 2.0)), rng.uniform(-1, 1, n_x))

    @pytest.mark.parametrize("zero_rate", [True, False], ids=["explicit-zero", "no-zero"])
    def test_both_system_paths_keep_the_plan(self, zero_rate, monkeypatch):
        # a stored zero rate mixes to an exact zero in the system, which is dropped
        # from copies of the plan's indices; with no zero, spsolve reads the plan's
        # own arrays, so neither path may change them
        rng = np.random.default_rng(9)
        n, n_a = 5, 3
        stacked = stack_actions(random_generator(rng, n, n_a, density=1.0).per_action)
        if zero_rate:  # every action's rate from state 0 to 1 moves to its diagonal
            lo = stacked.indptr[:n_a]
            stacked.data[lo] += stacked.data[lo + 1]
            stacked.data[lo + 1] = 0.0
        plan = step_plan(stacked, n_a)
        before = [[a.copy() for a in half] for half in plan]
        systems, real_spsolve = [], spla.spsolve

        def recorded(system, rhs):
            systems.append(system)
            return real_spsolve(system, rhs)

        monkeypatch.setattr(spla, "spsolve", recorded)
        for transpose in (True, False, True, False):
            weights = rng.dirichlet(np.ones(n_a), size=n)
            dt, rhs = float(rng.uniform(0.05, 2.0)), rng.uniform(-1, 1, n)
            got = implicit_step(stacked, weights, dt, rhs, plan, transpose=transpose)
            index, ptr = plan[transpose][3:]
            assert (np.shares_memory(systems[-1].indices, index)
                    and np.shares_memory(systems[-1].indptr, ptr)) is not zero_rate
            assert systems[-1].nnz == index.size - zero_rate
            assert np.array_equal(got, scipy_step(stacked, weights, dt, rhs, transpose))
        for half, copies in zip(plan, before):
            for array, copy in zip(half, copies):
                assert array.dtype == copy.dtype and np.array_equal(array, copy)

    @pytest.fixture
    def plan_builds(self, monkeypatch):
        # counts each plan built and checks every step taken against the reference
        builds, real_plan, real_step = [], forward_module.step_plan, forward_module.implicit_step

        def counted(stacked, n_a):
            builds.append(stacked.nnz)
            return real_plan(stacked, n_a)

        def checked(stacked, weights, dt, rhs, plan, transpose):
            out = real_step(stacked, weights, dt, rhs, plan, transpose=transpose)
            assert np.array_equal(out, scipy_step(stacked, weights, dt, rhs, transpose))
            return out

        monkeypatch.setattr(forward_module, "step_plan", counted)
        for owner in (forward_module, solve_module):
            monkeypatch.setattr(owner, "implicit_step", checked)
        return builds

    def test_one_plan_serves_every_step(self, plan_builds):
        fp = circle_program({"n_x": 9, "n_y": 9, "n_a": 5, "n_t": 9})
        rep = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        propagate_forward(fp, rep.policy)
        assert rep.status == "optimal"
        assert plan_builds == [fp.steps[0][1].nnz]

    def test_one_plan_serves_underflowed_cost_entries(self, plan_builds):
        # the discount of the second step underflows to zero, and with it
        # that step's cost entries, which stay stored as explicit zeros
        config = Path(__file__).parent.parent / "bench" / "configs" / "oracle_enum.json"
        fp = circle_program(dict(json.loads(config.read_text()), alpha=1500.0))
        assert fp.steps[1][1].count_nonzero() == 36
        rep = optimize_linear_risk(fp, RiskSpec(kind="expectation"))
        propagate_forward(fp, rep.policy)
        assert rep.status == "optimal"
        assert plan_builds == [42]

    def test_non_finite_system_refused_before_spsolve(self, monkeypatch):
        # a zero weight on an infinite rate mixes to NaN
        stacked = stack_actions([sp.csr_matrix([[-1.0, 1.0], [2.0, -2.0]]),
                                 sp.csr_matrix([[-np.inf, np.inf], [0.0, 0.0]])])
        monkeypatch.setattr(spla, "spsolve", None)
        with pytest.raises(PropagationError, match="non-finite entry"):
            implicit_step(stacked, np.eye(2)[[0, 0]], 0.5, np.ones(2), step_plan(stacked, 2),
                          transpose=True)

    def test_stack_actions_order(self):
        rng = np.random.default_rng(6)
        gen = random_generator(rng, 4, 3)
        stacked = stack_actions(gen.per_action).toarray()
        for z in range(4):
            for a in range(3):
                assert np.array_equal(stacked[z * 3 + a],
                                      gen.per_action[a].toarray()[z])
