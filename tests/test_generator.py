import numpy as np
import pytest
import scipy.sparse as sp

from riskflow import (ConfigError, ControlledGenerator, DiscreteDistribution,
                      InvalidCostError, InvalidParameterError, MarkovPolicy,
                      assemble_forward_program, augment_generator, build_circle_grid,
                      build_uniform_grid, discount_factor,
                      discretize_circle_diffusion, load_generator_triplets,
                      propagate_forward, validate_generator)
from riskflow.generator import ROW_SUM_TOL
from riskflow.grids import grid_points


def circle_gen(n=5, sigma=1.0, actions=(0.0,)):
    grid = build_circle_grid(n)
    return grid, ControlledGenerator(
        per_action=tuple(discretize_circle_diffusion(grid, a, sigma) for a in actions),
        state_grid=grid)


def per_action(aug, disc):
    """Each action's augmented generator at discount weight ``disc``: rows
    ``a::n_a`` of ``state_part + disc * cost_part``."""
    n_a = aug.base.n_actions
    stacked = (aug.state_part + disc * aug.cost_part).tocsr()
    return tuple(stacked[a::n_a] for a in range(n_a))


class TestStencil:
    def test_pure_diffusion_rates(self):
        grid = build_circle_grid(4)
        q = discretize_circle_diffusion(grid, 0.0, 1.0).toarray()
        rate = 1.0 / (2.0 * (np.pi / 2) ** 2)  # = 2 / pi^2
        assert q[0, 1] == pytest.approx(rate, rel=1e-12)
        assert q[0, 3] == pytest.approx(rate, rel=1e-12)
        assert q[0, 0] == pytest.approx(-2 * rate, rel=1e-12)
        assert rate == pytest.approx(0.202642, abs=1e-6)

    def test_drift_is_upwind(self):
        grid = build_circle_grid(4)
        q = discretize_circle_diffusion(grid, 0.5, 1.0).toarray()
        diff = 2.0 / np.pi ** 2
        assert q[0, 1] == pytest.approx(diff + 0.5 / (np.pi / 2), rel=1e-12)
        assert q[0, 1] == pytest.approx(0.5209522534684662, rel=1e-12)
        assert q[0, 3] == pytest.approx(diff, rel=1e-12)
        # negative drift mirrors to the left neighbor
        q = discretize_circle_diffusion(grid, -0.5, 1.0).toarray()
        assert q[0, 3] == pytest.approx(0.5209522534684662, rel=1e-12)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = rng.integers(3, 40)
            a = rng.uniform(-2, 2)
            sigma = rng.uniform(0.1, 3)
            q = discretize_circle_diffusion(build_circle_grid(n), a, sigma)
            assert validate_generator(q).ok

    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            discretize_circle_diffusion(build_circle_grid(5), 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            discretize_circle_diffusion(build_circle_grid(5), 0.0, -1.0)


class TestValidateGenerator:
    def test_good_matrix(self):
        _, gen = circle_gen()
        assert validate_generator(gen.per_action[0]).ok

    def test_negative_off_diagonal_flagged(self):
        m = np.array([[-1.0, 1.0], [-0.1, 0.1]])
        diag = validate_generator(sp.csr_matrix(m))
        assert not diag.ok
        assert diag.min_off_diagonal == pytest.approx(-0.1)

    def test_row_sum_violation_flagged(self):
        m = np.array([[-1.0, 1.5], [2.0, -2.0]])
        diag = validate_generator(sp.csr_matrix(m))
        assert not diag.ok
        assert diag.max_row_sum_deviation == pytest.approx(0.5)

    def test_zero_matrix_is_valid(self):
        diag = validate_generator(sp.csr_matrix((3, 3)))
        assert diag.ok


class TestAugmentation:
    def test_zero_cost_is_block_diagonal(self):
        grid, gen = circle_gen(5, actions=(0.3,))
        yg = build_uniform_grid(0.0, 1.0, 4)
        aug = augment_generator(gen, np.zeros((5, 1)), 0.5, yg)
        expect = sp.kron(gen.per_action[0], sp.identity(4)).toarray()
        assert np.allclose(per_action(aug, 1.0)[0].toarray(), expect)

    def test_reference_transport_rate(self):
        # cost rate (1 - cos x + 2 a^2) over dy = 0.125, at discount weight 1
        grid = build_circle_grid(21)
        a_vals = np.linspace(-0.5, 0.5, 21)
        gen = ControlledGenerator(
            per_action=tuple(discretize_circle_diffusion(grid, a, 1.0) for a in a_vals),
            state_grid=grid)
        cost = (1 - np.cos(grid.points))[:, None] + 2.0 * a_vals[None, :] ** 2
        yg = build_uniform_grid(0.0, 2.5, 21)
        aug = augment_generator(gen, cost, 0.25, yg)
        n_y = 21
        for a in (0, 10, 20):
            m = per_action(aug, 1.0)[a]
            for x in (0, 5, 13):
                z = x * n_y + 3  # some interior cost level
                assert m[z, z + 1] == pytest.approx(cost[x, a] / 0.125, rel=1e-12)

    def test_rows_conserve_and_top_absorbs(self):
        grid, gen = circle_gen(4, actions=(0.2, -0.4))
        yg = build_uniform_grid(0.0, 2.0, 5)
        cost = np.abs(np.random.default_rng(1).normal(size=(4, 2)))
        aug = augment_generator(gen, cost, 0.3, yg)
        disc = np.exp(-0.3 * 1.7)  # the point discount at t = 1.7
        for q in per_action(aug, disc):
            assert validate_generator(q).ok
        # top cost level has no upward transport left: the row reduces to
        # pure state transitions at fixed y
        m = per_action(aug, disc)[0].toarray()
        top = 4  # y index n_y - 1
        for x in range(4):
            row = m[x * 5 + top].reshape(4, 5)
            assert np.all(row[:, :top] == 0)
            assert np.allclose(row[:, top], gen.per_action[0].toarray()[x])

    def test_monotone_coupling(self):
        grid, gen = circle_gen(4, actions=(0.0,))
        yg = build_uniform_grid(0.0, 1.0, 4)
        cost = np.full((4, 1), 0.5)
        base = per_action(augment_generator(gen, cost, 0.0, yg), 1.0)[0].toarray()
        bumped_cost = cost.copy()
        bumped_cost[2, 0] += 0.25
        bumped = per_action(augment_generator(gen, bumped_cost, 0.0, yg), 1.0)[0].toarray()
        delta = bumped - base
        # only transport entries of state 2 changed, all upward
        changed = np.argwhere(np.abs(delta) > 1e-14)
        assert len(changed) > 0
        for z, w in changed:
            assert z // 4 == 2
            assert w in (z, z + 1)
        assert np.all(delta[np.arange(8, 12), np.arange(9, 13)] >= 0)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("t_grid", [build_uniform_grid(0.0, 7.5, 7),
                                        np.array([0.0, 0.5, 2.0, 7.3])],
                             ids=["uniform", "ragged"])
    def test_steps_match_fresh_build(self, alpha, t_grid):
        grid, gen = circle_gen(5, actions=(-0.4, 0.0, 0.6))
        yg = build_uniform_grid(0.0, 2.0, 6)
        cost = np.linspace(0.0, 1.4, 15).reshape(5, 3)
        shift = np.eye(6, k=1) - np.eye(6)
        shift[-1] = 0.0  # absorbing top cost cell
        times = grid_points(t_grid)
        steps = augment_generator(gen, cost, alpha, yg).steps(t_grid)
        assert len(steps) == len(times) - 1
        for k, (dt, got) in enumerate(steps):
            assert dt == times[k + 1] - times[k]
            disc = discount_factor(alpha, times[k], dt)
            fresh = augment_generator(gen, cost, alpha, yg)
            want = (fresh.state_part + disc * fresh.cost_part).tocsr()
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
            for a in range(3):
                dense = (np.kron(gen.per_action[a].toarray(), np.eye(6))
                         + disc * np.kron(np.diag(cost[:, a] / yg.spacing), shift))
                assert np.allclose(got[a::3].toarray(), dense, rtol=1e-14, atol=1e-14)

    def test_negative_cost_rejected(self):
        grid, gen = circle_gen(4, actions=(0.0,))
        yg = build_uniform_grid(0.0, 1.0, 3)
        with pytest.raises(InvalidCostError):
            augment_generator(gen, np.full((4, 1), -0.1), 0.0, yg)

    def test_time_dependence_only_through_discount(self):
        grid, gen = circle_gen(4, actions=(0.1,))
        yg = build_uniform_grid(0.0, 1.0, 4)
        cost = np.full((4, 1), 0.7)
        times = np.array([0.0, 1.0, 5.0, 6.0])  # steps 0 and 2 both last 1.0
        a0, _, a5 = (q for _, q in augment_generator(gen, cost, 0.0, yg).steps(times))
        assert np.allclose(a0.toarray(), a5.toarray())  # alpha = 0: time independent
        b0, _, b5 = (q.toarray() for _, q in augment_generator(gen, cost, 0.4, yg).steps(times))
        x_part = sp.kron(gen.per_action[0], sp.identity(4)).toarray()
        ratio = np.exp(-0.4 * 5.0)
        assert np.allclose(b5 - x_part, ratio * (b0 - x_part))

    def test_constant_cost_mean_matches_closed_form(self):
        # single state, constant rate c0: E[y_t] = c0 (1 - e^{-alpha t}) / alpha
        gen = ControlledGenerator(per_action=(sp.csr_matrix((1, 1)),))
        c0, alpha, horizon = 0.8, 0.5, 2.0
        yg = build_uniform_grid(0.0, 3.0, 121)
        times = np.linspace(0.0, horizon, 41)
        aug = augment_generator(gen, np.array([[c0]]), alpha, yg)
        init = np.zeros((1, 121))
        init[0, 0] = 1.0
        start = DiscreteDistribution(axes=("x", "y"),
                                     coords=(np.zeros(1), yg.points), mass=init)
        policy = MarkovPolicy.uniform(41, 1, 121, 1)
        traj = propagate_forward(assemble_forward_program(aug, start, times), policy)
        want = c0 * (1 - np.exp(-alpha * horizon)) / alpha
        # step-averaged discounting makes the mean exact away from the boundary
        assert traj.slices[-1].marginal("y").mean() == pytest.approx(want, abs=1e-9)


class TestDiscountFactor:
    def test_point_and_average(self):
        avg = discount_factor(0.25, 1.0, step=2.0)
        want = (np.exp(-0.25) - np.exp(-0.75)) / (0.25 * 2.0)
        assert avg == pytest.approx(want, rel=1e-14)

    def test_average_tends_to_point_value(self):
        point = np.exp(-0.3 * 1.5)
        for step in (1e-3, 1e-6):
            assert discount_factor(0.3, 1.5, step=step) == pytest.approx(point, rel=1e-2 * step / 1e-3 + 1e-9)


class TestTripletLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("action,row,col,rate\n"
                        "0,0,1,1.0\n0,1,0,2.0\n"
                        "1,0,1,0.5\n1,1,0,0.25\n")
        gen = load_generator_triplets(path)
        assert gen.dim == 2 and gen.n_actions == 2
        q0 = gen.per_action[0].toarray()
        assert np.allclose(q0, [[-1.0, 1.0], [2.0, -2.0]])
        assert validate_generator(gen.per_action[1]).ok

    def test_explicit_diagonal_kept(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("0,0,1,1.0\n0,0,0,-1.0\n0,1,0,2.0\n")
        gen = load_generator_triplets(path)
        assert np.allclose(gen.per_action[0].toarray(), [[-1.0, 1.0], [2.0, -2.0]])

    def test_rates_near_1e6_load(self, tmp_path):
        # filled diagonals leave row sums of about 1e-9, above ROW_SUM_TOL
        # in absolute terms but rounding relative to the exit rates
        rates = np.random.default_rng(0).uniform(1e5, 1e6, (12, 12))
        path = tmp_path / "gen.csv"
        path.write_text("".join(f"0,{i},{j},{r:.17g}\n" for (i, j), r in np.ndenumerate(rates)
                                if i != j))
        q = load_generator_triplets(path).per_action[0]
        assert np.abs(q.sum(axis=1)).max() > ROW_SUM_TOL
        assert np.allclose(q.toarray() - np.diag(q.diagonal()), rates - np.diag(rates.diagonal()))

    def test_negative_off_diagonal_rejected(self, tmp_path):
        path = tmp_path / "gen.csv"
        path.write_text("0,0,1,-1.0\n")
        with pytest.raises(ConfigError, match=r"gen\.csv, line 1: .* negative off-diagonal"):
            load_generator_triplets(path)

    @pytest.mark.parametrize("text", ["", "action,row,col,rate\n# nothing else\n"],
                             ids=["empty", "header_only"])
    def test_file_without_entries_rejected(self, tmp_path, text):
        path = tmp_path / "gen.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"no generator entries found in .*gen\.csv"):
            load_generator_triplets(path)

    @pytest.mark.parametrize("text, line, n_states", [
        ("action,row,col,rate\n0,0,1,1.0\n1,1,0,2.O\n", 3, None),  # non-numeric field
        ("0,0,1,1.0\n# comment\n0,1,0\n", 3, None),                # three fields
        ("0,0,1,1.0\n0,1,2,2.0\n", 2, 2),                           # column >= n_states
        ("0,0,1,1.0\n0,1,0,2.0\n\n1,1,0,-0.5\n", 4, None),            # negative rate
    ], ids=["later_header", "three_fields", "index_out_of_range", "negative_rate"])
    def test_malformed_line_names_file_and_line(self, tmp_path, text, line, n_states):
        path = tmp_path / "gen.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"gen\.csv, line {line}:"):
            load_generator_triplets(path, n_states=n_states)
