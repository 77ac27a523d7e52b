import math

import numpy as np
import pytest

from riskflow import InvalidCostError, InvalidParameterError, RiskSpec
from riskflow.risk import (MERGE_TOL, entropic, evaluate, evaluate_laws, gradient_at_values,
                           mean_semideviation, merge_support, terminal_totals)
from riskflow.solve import _terminal_law
from test_generator import push_totals


def dist(values, masses):
    return np.asarray(values, float), np.asarray(masses, float)


COIN = dist([0.0, 1.0], [0.5, 0.5])
MEAN = RiskSpec("expectation")


def moment(d, theta):
    """The exponential moment ``sum exp(theta y) m(y)`` of the law ``d``."""
    values, mass = d
    return np.exp(theta * values) @ mass


class TestExpectation:
    def test_point_mass(self):
        assert evaluate(MEAN, *dist([0.0], [1.0])) == 0.0

    def test_coin(self):
        assert evaluate(MEAN, *COIN) == 0.5

    def test_uniform_on_cost_axis(self):
        grid = np.linspace(0.0, 2.5, 21)
        assert evaluate(MEAN, *dist(grid, np.full(21, 1 / 21))) == pytest.approx(1.25)


class TestEntropic:
    def test_point_mass(self):
        d = dist([0.7], [1.0])
        assert evaluate(RiskSpec("entropic", theta=2.0), *d) == pytest.approx(0.7)
        assert moment(d, 2.0) == pytest.approx(math.exp(1.4))

    def test_coin_value(self):
        spec = RiskSpec("entropic", theta=1.0)
        assert evaluate(spec, *COIN) == pytest.approx(math.log((1 + math.e) / 2), rel=1e-14)
        assert evaluate(spec, *COIN) == pytest.approx(0.620115, abs=1e-6)

    def test_theta_zero_is_expectation(self):
        assert evaluate(RiskSpec("entropic", theta=0.0), *COIN) == 0.5

    def test_log_of_linear_identity(self):
        # the shifted form agrees with the log of the moment to rounding
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = rng.integers(2, 8)
            d = dist(np.sort(rng.uniform(0, 3, n)), rng.dirichlet(np.ones(n)))
            theta = rng.uniform(0.1, 2)
            risk = evaluate(RiskSpec("entropic", theta=theta), *d)
            assert risk == pytest.approx(math.log(moment(d, theta)) / theta, rel=1e-12)

    def test_monotone_in_theta_and_above_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(2, 10)
            d = dist(np.sort(rng.uniform(0, 4, n)), rng.dirichlet(np.ones(n)))
            thetas = np.sort(rng.uniform(0, 3, 4))
            vals = [evaluate(RiskSpec("entropic", theta=t), *d) for t in thetas]
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] >= evaluate(MEAN, *d) - 1e-12

    def test_small_theta_rate(self):
        # entropic - mean vanishes linearly, slope var/2
        var = 0.25  # coin variance
        for theta in (1e-3, 1e-4):
            gap = evaluate(RiskSpec("entropic", theta=theta), *COIN) - 0.5
            assert gap / theta == pytest.approx(var / 2, rel=1e-3)

    def test_finite_where_the_moment_overflows(self):
        # exp(1000 y) overflows float64 at y = 1; the risk itself is near 1
        spec = RiskSpec("entropic", theta=1000.0)
        with np.errstate(over="ignore"):
            assert math.isinf(moment(COIN, 1000.0))
        value = evaluate(spec, *COIN)
        assert value == pytest.approx(1.0 + math.log(0.5) / 1000.0, abs=1e-12)
        far = dist([0.0, 800.0], [0.5, 0.5])
        assert evaluate(spec, *far) == pytest.approx(800.0 + math.log(0.5) / 1000.0)
        # d/dm of log(E exp(theta Y)) / theta is exp(theta y) / (theta E exp(theta Y))
        grad = gradient_at_values(RiskSpec(kind="entropic", theta=1000.0), *COIN,
                                  np.array([0.0, 1.0]))
        assert np.all(np.isfinite(grad))
        assert grad == pytest.approx([0.0, 2.0 / 1000.0], abs=1e-15)
        grad = gradient_at_values(RiskSpec(kind="entropic", theta=1.0), *COIN,
                                  np.array([0.0, 1.0]))
        assert grad == pytest.approx(np.exp([0.0, 1.0]) / ((1 + math.e) / 2), rel=1e-14)

    def test_small_theta_at_least_the_mean_and_tends_to_it(self):
        # Hoeffding: mean <= rho <= mean + theta (b - a)^2 / 8 on a support in
        # [a, b]; laws with dyadic masses sum to 1 exactly, and the bounds
        # allow 4 ulp of the largest value for rounding
        quarter = dist([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        rng = np.random.default_rng(12)
        laws = [quarter]
        for _ in range(20):
            n = int(rng.integers(2, 8))
            counts = rng.multinomial(1024, rng.dirichlet(np.ones(n)))
            laws.append(dist(rng.uniform(0, 5, n), counts / 1024))
        for theta in np.logspace(-300, -2, 60):
            for values, mass in laws:
                rho = evaluate(RiskSpec("entropic", theta=theta), values, mass)
                mean = evaluate(MEAN, values, mass)
                slack = 4 * np.finfo(float).eps * values.max()
                spread = np.ptp(values[mass > 0])
                assert mean - slack <= rho <= mean + theta * spread ** 2 / 8 + slack, theta
            assert evaluate(RiskSpec("entropic", theta=theta), *quarter) >= 1.0

    def test_top_with_little_mass_at_large_theta_y(self):
        # theta y near 800: exp(theta y) would overflow, and M = 1e-7 + ...
        # is far from 1, where expm1 would cancel its small terms against -1
        values, mass = dist([0.0, 790.0, 800.0], [1 - 2e-7, 1e-7, 1e-7])
        want = 800.0 + math.log(1e-7 + 1e-7 * math.exp(-10.0) + (1 - 2e-7) * math.exp(-800.0))
        assert evaluate(RiskSpec("entropic", theta=1.0), values, mass) == pytest.approx(
            want, rel=1e-15)

    def test_negative_theta_rejected(self):
        values, mass = COIN
        with pytest.raises(InvalidParameterError):
            entropic(values, mass, -0.5)
        with pytest.raises(InvalidParameterError):
            entropic(values, np.stack([mass, mass]), -0.5)
        with pytest.raises(InvalidParameterError):
            RiskSpec(kind="entropic", theta=-1.0)

    # both entry points of the entropic risk
    THETA_CALLS = [
        pytest.param(lambda theta: entropic(*COIN, theta), id="entropic"),
        pytest.param(lambda theta: RiskSpec(kind="entropic", theta=theta), id="spec"),
    ]

    @pytest.mark.parametrize("call", THETA_CALLS)
    def test_nan_theta_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call(np.nan)

    @pytest.mark.parametrize("call", THETA_CALLS)
    def test_infinite_theta_rejected(self, call):
        # a NaN risk with a RuntimeWarning otherwise
        with pytest.raises(InvalidParameterError):
            call(np.inf)


class TestMeanSemideviation:
    def test_point_mass(self):
        spec = RiskSpec("mean_semideviation", beta=0.7)
        assert evaluate(spec, *dist([1.3], [1.0])) == pytest.approx(1.3)

    def test_coin_full_weight(self):
        assert evaluate(RiskSpec("mean_semideviation", beta=1.0), *COIN) == pytest.approx(0.75)

    def test_beta_zero_is_expectation(self):
        rng = np.random.default_rng(2)
        d = dist(np.sort(rng.uniform(0, 2, 5)), rng.dirichlet(np.ones(5)))
        assert evaluate(RiskSpec("mean_semideviation", beta=0.0), *d) == evaluate(MEAN, *d)

    def test_beta_range_checked(self):
        with pytest.raises(InvalidParameterError):
            mean_semideviation(*COIN, 1.5)
        with pytest.raises(InvalidParameterError):
            RiskSpec(kind="mean_semideviation", beta=-0.1)


class TestGradient:
    def test_linear_coefficients(self):
        d = dist([0.0, 1.0], [0.3, 0.7])
        g = gradient_at_values(MEAN, *d, d[0])
        assert np.allclose(g, [0.0, 1.0])

    def test_semideviation_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = RiskSpec(kind="mean_semideviation", beta=0.6)
        for _ in range(10):
            n = rng.integers(3, 8)
            values = np.sort(rng.uniform(0, 3, n))
            masses = rng.dirichlet(np.ones(n))
            d = dist(values, masses)
            if np.min(np.abs(values - evaluate(MEAN, *d))) < 1e-4:
                continue  # keep away from the kink
            g = gradient_at_values(spec, *d, values)
            h = 1e-6
            for j in range(n):
                up, dn = masses.copy(), masses.copy()
                up[j] += h
                dn[j] -= h
                fd = (evaluate(spec, values, up) - evaluate(spec, values, dn)) / (2 * h)
                assert abs(g[j] - fd) < 1e-6

    def test_entropic_log_form_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        spec = RiskSpec(kind="entropic", theta=0.8)
        values = np.sort(rng.uniform(0, 2, 5))
        masses = rng.dirichlet(np.ones(5))
        d = dist(values, masses)
        g = gradient_at_values(spec, *d, values)
        h = 1e-7
        for j in range(5):
            up, dn = masses.copy(), masses.copy()
            up[j] += h
            dn[j] -= h
            fd = (evaluate(spec, values, up) - evaluate(spec, values, dn)) / (2 * h)
            assert abs(g[j] - fd) < 1e-6

    def test_gradient_at_off_support_values(self):
        d = COIN
        g = gradient_at_values(RiskSpec(kind="entropic", theta=2.0), *d,
                               np.array([0.25, 3.0]))
        rho = evaluate(RiskSpec("entropic", theta=2.0), *d)
        assert np.allclose(g, np.exp(2.0 * (np.array([0.25, 3.0]) - rho)) / 2.0)


class TestBatchedLaws:
    VALUES = np.array([0.0, 0.4, 1.1, 2.0])

    @pytest.mark.parametrize("spec", [
        RiskSpec(kind="expectation"),
        RiskSpec(kind="entropic", theta=1.3),
        RiskSpec(kind="entropic", theta=0.0),
        RiskSpec(kind="mean_semideviation", beta=0.6),
    ])
    def test_rows_are_their_laws_alone(self, spec):
        rng = np.random.default_rng(8)
        mass = rng.dirichlet(np.ones(4), size=(3, 5))
        mass[0, 0] = [0.5, 0.5, 0.0, 0.0]
        got = evaluate_laws(spec, self.VALUES, mass)
        assert got.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            want = evaluate(spec, *dist(self.VALUES, mass[idx]))
            assert got[idx] == pytest.approx(want, rel=1e-14)

    def test_entropic_overflow_rows_take_their_own_top(self):
        # exp(theta y) overflows float64 beyond y = 709.78 at theta = 1, so
        # every row takes the shifted branch, each with the top it charges
        values = np.array([0.0, 700.0, 800.0, 1500.0])
        mass = np.array([[0.5, 0.5, 0.0, 0.0],
                         [0.25, 0.25, 0.5, 0.0],
                         [0.2, 0.2, 0.2, 0.4],
                         [1.0, 0.0, 0.0, 0.0]])
        spec = RiskSpec(kind="entropic", theta=1.0)
        got = evaluate_laws(spec, values, mass)
        for row, law in zip(got, mass):
            assert row == pytest.approx(evaluate(spec, *dist(values, law)), rel=1e-14)
        want = [700.0 + math.log(0.5), 800.0 + math.log(0.5), 1500.0 + math.log(0.4), 0.0]
        assert got == pytest.approx(want, rel=1e-14)

    def test_merge_support_rows_are_their_laws_alone(self):
        values = np.array([0.6, 1.2, 0.0, 0.6, 0.6 + 1e-13, 2.0])
        rows = np.random.default_rng(9).dirichlet(np.ones(6), size=4)
        sup, merged = merge_support(values, rows)
        assert sup.tolist() == [0.0, 0.6, 1.2, 2.0]
        for row, out in zip(rows, merged):
            want_sup, want = merge_support(values, row)
            assert np.array_equal(want_sup, sup)
            assert np.array_equal(out, want)
        assert merged[:, 1] == pytest.approx(rows[:, 0] + rows[:, 3] + rows[:, 4], rel=1e-15)


class TestLawInvariance:
    def test_permuting_identical_cells(self):
        # two support points with the same value and mass can swap freely
        d1 = dist([0.5, 0.5, 1.5], [0.25, 0.25, 0.5])
        d2 = dist([0.5, 0.5, 1.5], [0.25, 0.25, 0.5])
        d3 = dist([1.5, 0.5, 0.5], [0.5, 0.25, 0.25])
        for spec in (RiskSpec(kind="expectation"),
                     RiskSpec(kind="entropic", theta=1.3),
                     RiskSpec(kind="mean_semideviation", beta=0.4)):
            assert evaluate(spec, *d1) == pytest.approx(evaluate(spec, *d2), rel=1e-15)
            assert evaluate(spec, *d1) == pytest.approx(evaluate(spec, *d3), rel=1e-12)


class TestStochasticDominance:
    def test_upward_mass_moves_never_decrease_risk(self):
        rng = np.random.default_rng(6)
        specs = [RiskSpec(kind="expectation"),
                 RiskSpec(kind="entropic", theta=0.7),
                 RiskSpec(kind="mean_semideviation", beta=0.8)]
        for _ in range(25):
            n = rng.integers(3, 9)
            values = np.sort(rng.uniform(0, 3, n))
            p = rng.dirichlet(np.ones(n))
            q = p.copy()
            for _ in range(rng.integers(1, 4)):  # push mass to higher values
                i = rng.integers(0, n - 1)
                j = rng.integers(i + 1, n)
                amount = q[i] * rng.uniform(0, 1)
                q[i] -= amount
                q[j] += amount
            for spec in specs:
                lo = evaluate(spec, *dist(values, p))
                hi = evaluate(spec, *dist(values, q))
                assert hi >= lo - 1e-12


class TestTerminalCost:
    """``solve._terminal_law``, the law Frank-Wolfe scores: the terminal
    slice's (x, y) marginal pushed to the totals ``y + v(x)``."""

    Y = np.array([0.0, 0.5, 1.0])
    # totals 0.5 + y, the same again within MERGE_TOL, and y itself
    V = np.array([0.5, 0.5 + 0.4 * MERGE_TOL, 0.0])

    def law(self, joint, v):
        totals = terminal_totals(v, len(joint), np.arange(float(np.shape(joint)[1])))
        return _terminal_law(totals, np.asarray(joint, float).reshape(totals.size, 1))

    def test_zero_cost_gives_cost_marginal(self):
        values, mass = self.law([[0.2, 0.3], [0.1, 0.4]], np.zeros(2))
        assert np.allclose(values, [0.0, 1.0])
        assert np.allclose(mass, [0.3, 0.7])

    def test_point_mass_shift(self):
        joint = np.zeros((2, 3))
        joint[0, 1] = 1.0
        values, mass = self.law(joint, np.array([1.0, 0.0]))
        assert np.allclose(values, [2.0])
        assert np.allclose(mass, [1.0])

    def test_equal_totals_aggregate(self):
        joint = np.zeros((2, 2))
        joint[0, 0] = 0.5
        joint[1, 0] = 0.5
        values, mass = self.law(joint, np.array([0.75, 0.75]))
        assert len(values) == 1
        assert values[0] == pytest.approx(0.75)
        assert mass[0] == pytest.approx(1.0)

    def test_negative_terminal_cost_rejected(self):
        with pytest.raises(InvalidCostError):
            self.law([[1.0]], np.array([-0.5]))

    @pytest.mark.parametrize("v", [None, V], ids=["no-terminal-cost", "near-ties"])
    def test_bits_of_the_pushed_normalized_slice(self, v):
        # the reference scales the slice's (x, y) marginal to a law on the
        # (n_x, n_y) grid, then pushes it forward; zero cells, an all-zero
        # slice and one of negative total are among the laws
        rng = np.random.default_rng(12)
        totals = terminal_totals(v, 3, self.Y)
        cubes = [np.zeros((3, 3, 2)), -rng.uniform(size=(3, 3, 2)),
                 rng.uniform(size=(3, 3, 2))]
        for _ in range(20):
            cube = rng.uniform(-0.05, 1.0, (3, 3, 2))
            cube[rng.uniform(size=(3, 3)) < 0.4] = 0.0
            cubes.append(cube)
        for cube in cubes:
            total = cube.sum()
            joint = np.maximum(cube.sum(axis=-1), 0.0) / (total if total > 0 else 1.0)
            got = _terminal_law(totals, cube.reshape(9, 2))
            for g, w in zip(got, push_totals(joint, self.Y, v)):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
        # with mass in every cell the 9 totals merge to 4 (to 3 with no terminal cost)
        assert len(_terminal_law(totals, cubes[2].reshape(9, 2))[0]) == (3 if v is None else 4)
