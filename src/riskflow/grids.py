"""Discrete axes: a periodic circle grid for the state space and uniform
closed-interval grids for the cost, action, and time axes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced angles ``2*pi*i/n`` on ``[0, 2*pi)`` with wrap-around.

    Neighbor indexing is modulo ``n``; ``distance`` is the chordal-type
    metric ``sqrt(1 - cos(theta - phi))``.
    """

    n: int
    points: np.ndarray
    spacing: float

    @staticmethod
    def distance(theta, phi):
        return np.sqrt(np.maximum(1.0 - np.cos(np.asarray(theta) - np.asarray(phi)), 0.0))


@dataclass(frozen=True)
class UniformGrid:
    """Equispaced points on ``[lo, hi]``, both endpoints included."""

    lo: float
    hi: float
    n: int
    points: np.ndarray
    spacing: float


def build_circle_grid(n: int) -> CircleGrid:
    """Build the periodic state grid with ``n >= 3`` angles."""
    if n < 3:
        raise InvalidGridError(f"circle grid needs n >= 3 points, got n={n}")
    spacing = TWO_PI / n
    points = spacing * np.arange(n)
    assert abs(spacing * n - TWO_PI) <= 1e-12 * TWO_PI
    return CircleGrid(n=int(n), points=points, spacing=spacing)


def build_uniform_grid(lo: float, hi: float, n: int) -> UniformGrid:
    """Build an inclusive uniform grid with ``n >= 2`` points on ``lo < hi``."""
    if n < 2:
        raise InvalidGridError(f"uniform grid needs n >= 2 points, got n={n}")
    if not lo < hi:
        raise InvalidGridError(f"uniform grid needs lo < hi, got lo={lo}, hi={hi}")
    points = np.linspace(float(lo), float(hi), int(n))
    return UniformGrid(lo=float(lo), hi=float(hi), n=int(n),
                       points=points, spacing=float(points[1] - points[0]))


def grid_points(grid) -> np.ndarray:
    """The points of a ``UniformGrid``, or of an explicit grid: a nonempty
    1-d array of finite, strictly increasing points (``InvalidGridError``)."""
    if isinstance(grid, UniformGrid):
        return grid.points
    points = np.asarray(grid, float)
    if not (points.ndim == 1 and points.size and np.isfinite(points).all()
            and (np.diff(points) > 0).all()):
        raise InvalidGridError(f"explicit grid not 1-d, finite and increasing: {points!r}")
    return points
