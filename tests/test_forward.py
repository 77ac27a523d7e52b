import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from riskflow import (ControlledGenerator, DiscreteDistribution,
                      InvalidParameterError, MarkovPolicy,
                      assemble_forward_program, augment_generator,
                      build_circle_grid, build_uniform_grid, discount_factor,
                      discretize_circle_diffusion, marginal,
                      propagate_forward, write_trajectory_csv)
from riskflow.forward import implicit_step, write_grid_csv
from riskflow.generator import stack_actions


def two_state_gen(q01=1.0, q10=2.0):
    m = sp.csr_matrix(np.array([[-q01, q01], [q10, -q10]]))
    return ControlledGenerator(per_action=(m,))


def start_at(index, n_x, n_y, coords=None):
    mass = np.zeros((n_x, n_y))
    mass[index, 0] = 1.0
    coords = coords or (np.arange(n_x, dtype=float), np.arange(n_y, dtype=float))
    return DiscreteDistribution(axes=("x", "y"), coords=coords, mass=mass)


class TestMarginal:
    def test_product_measure_factorizes(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.3, 0.2])
        joint = DiscreteDistribution(axes=("x", "y"),
                                     coords=(np.arange(2.), np.arange(3.)),
                                     mass=np.outer(p, q))
        assert np.allclose(joint.marginal("x").mass, p)
        assert np.allclose(joint.marginal("y").mass, q)

    def test_point_mass(self):
        d = start_at(1, 3, 4)
        m = d.marginal("y")
        assert np.allclose(m.mass, [1, 0, 0, 0])

    def test_uniform_two_by_two(self):
        d = DiscreteDistribution(axes=("x", "y"), coords=(np.arange(2.), np.arange(2.)),
                                 mass=np.full((2, 2), 0.25))
        for ax in ("x", "y"):
            assert np.allclose(d.marginal(ax).mass, [0.5, 0.5])

    def test_axis_reorder(self):
        m = np.arange(6.0).reshape(2, 3)
        m /= m.sum()
        d = DiscreteDistribution(axes=("x", "y"), coords=(np.arange(2.), np.arange(3.)),
                                 mass=m)
        flipped = d.marginal(("y", "x"))
        assert flipped.axes == ("y", "x")
        assert np.allclose(flipped.mass, m.T)

    def test_unknown_axis(self):
        d = start_at(0, 2, 2)
        with pytest.raises(InvalidParameterError):
            marginal(d, "z")


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


class TestPropagation:
    def test_zero_generator_freezes_mass(self):
        gen = ControlledGenerator(per_action=(sp.csr_matrix((3, 3)),))
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((3, 1)), 0.0, yg)
        init = start_at(1, 3, 2, coords=(np.arange(3.), yg.points))
        traj = propagate_forward(assemble_forward_program(aug, init, np.linspace(0, 1, 4)),
                                 MarkovPolicy.uniform(4, 3, 2, 1))
        for sl in traj.slices:
            assert np.allclose(sl.mass, init.mass)

    def test_two_state_chain_matches_matrix_exponential(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        gen = two_state_gen()
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((2, 1)), 0.0, yg)
        n_t = 101  # dt = 0.01 over t = 1
        times = np.linspace(0.0, 1.0, n_t)
        init = start_at(0, 2, 2, coords=(np.arange(2.), yg.points))
        traj = propagate_forward(assemble_forward_program(aug, init, times),
                                 MarkovPolicy.uniform(n_t, 2, 2, 1))
        got = traj.slices[-1].marginal("x").mass
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
        mass = np.zeros((7, 3))
        mass[:, 0] = 1.0 / 7.0
        init = DiscreteDistribution(axes=("x", "y"), coords=(grid.points, yg.points),
                                    mass=mass)
        traj = propagate_forward(assemble_forward_program(aug, init, np.linspace(0, 2, 5)),
                                 MarkovPolicy.uniform(5, 7, 3, 1))
        for sl in traj.slices:
            assert np.allclose(sl.marginal("x").mass, 1.0 / 7.0, atol=1e-12)

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
            mass = rng.dirichlet(np.ones(n_x * n_y)).reshape(n_x, n_y)
            init = DiscreteDistribution(axes=("x", "y"),
                                        coords=(np.arange(float(n_x)), yg.points),
                                        mass=mass)
            traj = propagate_forward(
                assemble_forward_program(aug, init, np.linspace(0, 1.5, 4)), policy)
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
        init = start_at(0, 5, 9, coords=(grid.points, yg.points))
        traj = propagate_forward(assemble_forward_program(aug, init, times), policy)
        means = [sl.marginal("y").mean() for sl in traj.slices]
        assert np.all(np.diff(means) >= -1e-14)
        dt = times[1] - times[0]
        for k in range(5):
            disc = discount_factor(alpha, times[k], step=dt)
            nxt = traj.slices[k + 1].mass  # (x, y)
            w = policy.probs[k + 1]        # (x, y, a)
            flow = sum((nxt[:, :-1] * w[:, :-1, a] * cost[:, None, a]).sum()
                       for a in range(2))
            assert means[k + 1] - means[k] == pytest.approx(dt * disc * flow, abs=1e-12)

    def test_policy_shape_checked(self):
        gen = two_state_gen()
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((2, 1)), 0.0, yg)
        init = start_at(0, 2, 2, coords=(np.arange(2.), yg.points))
        fp = assemble_forward_program(aug, init, np.linspace(0, 1, 4))
        with pytest.raises(InvalidParameterError):
            propagate_forward(fp, MarkovPolicy.uniform(3, 2, 2, 1))


class TestAssembly:
    def test_degenerate_single_cell(self):
        gen = ControlledGenerator(per_action=(sp.csr_matrix((1, 1)),))
        yg = build_uniform_grid(0.0, 1.0, 2)
        aug = augment_generator(gen, np.zeros((1, 1)), 0.0, yg)
        init = start_at(0, 1, 2, coords=(np.zeros(1), yg.points))
        fp = assemble_forward_program(aug, init, np.linspace(0, 1, 2))
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
        init = start_at(0, 21, 21, coords=(grid.points, yg.points))
        fp = assemble_forward_program(aug, init, build_uniform_grid(0.0, 25.0, 21))
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
        init = start_at(0, 4, 3, coords=(grid.points, yg.points))
        times = np.linspace(0, 1, 3)
        fp = assemble_forward_program(aug, init, times)
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
        init = start_at(0, 2, 2, coords=(np.arange(2.), yg.points))
        traj = propagate_forward(assemble_forward_program(aug, init, np.linspace(0, 1, 3)),
                                 MarkovPolicy.uniform(3, 2, 2, 1))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, axes=("y",))
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (6, 3)
        got = rows[rows[:, 0] == 1.0][:, 2]
        assert np.allclose(got, traj.slices[-1].marginal("y").mass)


def random_generator(rng, n_x, n_a):
    """Dense random rate matrices, zero row sums, some rates exactly zero."""
    mats = []
    for _ in range(n_a):
        q = rng.uniform(0, 2, (n_x, n_x)) * (rng.uniform(size=(n_x, n_x)) < 0.6)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        mats.append(sp.csr_matrix(q))
    return ControlledGenerator(per_action=tuple(mats))


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
        init = start_at(0, n_x, n_y, coords=(np.arange(float(n_x)), yg.points))
        fp = assemble_forward_program(augment_generator(gen, cost, alpha, yg),
                                      init, times)
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
                singles.append(implicit_step(stacked, w, dt, r, transpose=transpose))
                np.testing.assert_allclose(singles[-1], want, rtol=1e-12, atol=1e-12)
            got = implicit_step(sp.kron(sp.identity(n_b), stacked, format="csr"),
                                weights.reshape(-1, n_a), dt, rhs.ravel(),
                                transpose=transpose)
            np.testing.assert_allclose(got.reshape(n_b, n), singles, rtol=1e-14, atol=1e-14)

    def test_stack_actions_order(self):
        rng = np.random.default_rng(6)
        gen = random_generator(rng, 4, 3)
        stacked = stack_actions(gen.per_action).toarray()
        for z in range(4):
            for a in range(3):
                assert np.array_equal(stacked[z * 3 + a],
                                      gen.per_action[a].toarray()[z])
