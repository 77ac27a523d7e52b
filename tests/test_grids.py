import numpy as np
import pytest

from riskflow import InvalidGridError, build_circle_grid, build_uniform_grid

TWO_PI = 2.0 * np.pi


def test_circle_four_points():
    g = build_circle_grid(4)
    assert np.allclose(g.points, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert g.spacing == pytest.approx(np.pi / 2, rel=1e-15)


def test_circle_reference_spacing():
    g = build_circle_grid(21)
    assert g.spacing == pytest.approx(TWO_PI / 21, rel=1e-15)
    assert g.spacing == pytest.approx(0.29920, abs=5e-6)


def test_circle_too_small():
    with pytest.raises(InvalidGridError):
        build_circle_grid(2)


def test_circle_invariants():
    for n in (3, 7, 21, 50):
        g = build_circle_grid(n)
        assert np.all(np.diff(g.points) > 0)
        assert g.points[0] == 0.0 and g.points[-1] < TWO_PI
        # total circumference recovered from the spacings
        assert abs(g.spacing * n - TWO_PI) <= 1e-12 * TWO_PI


def test_circle_distance_axioms():
    g = build_circle_grid(9)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, TWO_PI, 40)
    ph = rng.uniform(0, TWO_PI, 40)
    assert np.allclose(g.distance(th, th), 0.0)
    assert np.allclose(g.distance(th, ph), g.distance(ph, th))
    assert np.allclose(g.distance(th, ph) ** 2, 1 - np.cos(th - ph))


def test_uniform_cost_axis():
    g = build_uniform_grid(0.0, 2.5, 21)
    assert g.spacing == pytest.approx(0.125, rel=1e-15)
    assert g.points[0] == 0.0 and g.points[-1] == 2.5
    # default cost ceiling is 2 + gamma * a_max^2 with gamma=2, a_max=0.5
    assert 2.0 + 2.0 * 0.5 ** 2 == 2.5


def test_uniform_action_axis():
    g = build_uniform_grid(-0.5, 0.5, 21)
    assert g.points[0] == -0.5 and g.points[-1] == 0.5
    assert len(g.points) == 21


def test_uniform_two_points():
    g = build_uniform_grid(0.0, 1.0, 2)
    assert np.allclose(g.points, [0.0, 1.0])


def test_uniform_errors():
    with pytest.raises(InvalidGridError):
        build_uniform_grid(0.0, 1.0, 1)
    with pytest.raises(InvalidGridError):
        build_uniform_grid(1.0, 1.0, 5)
    with pytest.raises(InvalidGridError):
        build_uniform_grid(2.0, 1.0, 5)
