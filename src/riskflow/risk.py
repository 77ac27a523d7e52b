"""Law-invariant risk functionals on discrete cost distributions.

All functionals read a distribution only through its (value, mass) pairs:
each takes one support ``values (n,)`` and the laws ``mass (..., n)`` on
it, so a batch of laws is scored in one call; ``evaluate`` is the one-law
entry to the same code.  ``terminal_totals`` is the one table of the total
costs ``y + v(x)`` that every engine scores.
The entropic risk ``log(sum exp(theta y) m(y)) / theta`` is optimized
through its exponential moment, which is linear in the mass: its
coefficients drop directly into an LP objective, and the log of the
moment's optimum gives the risk's optimum because the logarithm is
strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidCostError, InvalidParameterError
from .forward import DiscreteDistribution

KINDS = ("expectation", "entropic", "mean_semideviation")
LINEAR_KINDS = ("expectation", "entropic")


@dataclass(frozen=True)
class RiskSpec:
    """Which functional to use and its parameter.

    ``theta >= 0`` for the entropic risk (risk aversion strength),
    ``beta in [0, 1]`` for mean semideviation.
    """

    kind: str
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown risk kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "entropic" and self.theta < 0:
            raise InvalidParameterError(f"entropic risk needs theta >= 0, got {self.theta}")
        if self.kind == "mean_semideviation" and not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(f"semideviation weight must be in [0,1], got {self.beta}")

    @property
    def is_linear(self) -> bool:
        return self.kind in LINEAR_KINDS


def _row_dot(mass: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_i mass[..., i] weights[..., i]`` for every law.  Each one is a
    BLAS ``ddot``, as ``weights @ mass`` is for a single law, so a law of a
    batch gets the bits it gets alone."""
    return (mass[..., None, :] @ weights[..., :, None])[..., 0, 0]


def expectation(values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Mean of each law ``mass (..., n)`` on the support ``values (n,)``."""
    return _row_dot(mass, values)


def entropic(values: np.ndarray, mass: np.ndarray, theta: float) -> np.ndarray:
    """Entropic risk ``log(sum exp(theta y) m) / theta`` of each law;
    the expectation at theta = 0.

    A law whose exponential moment overflows float64 (every law, once some
    ``exp(theta y)`` does) is evaluated as
    ``top + log(sum exp(theta (y - top)) m) / theta``, with ``top`` the
    largest value carrying mass in that law; the values above ``top``
    carry none and are weighed as ``top``.
    """
    if theta < 0:
        raise InvalidParameterError(f"theta must be >= 0, got {theta}")
    if theta == 0:
        return expectation(values, mass)
    laws = mass.reshape(-1, values.size)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN: not finite
        linear = _row_dot(laws, np.exp(theta * values))
    over = ~np.isfinite(linear)
    risk = np.log(linear) / theta
    if over.any():
        laws = laws[over]
        top = np.where(laws > 0, values, -np.inf).max(axis=-1)
        shifted = np.exp(theta * np.minimum(values - top[:, None], 0.0))
        risk[over] = top + np.log(_row_dot(laws, shifted)) / theta
    return risk.reshape(mass.shape[:-1])


def mean_semideviation(values: np.ndarray, mass: np.ndarray, beta: float) -> np.ndarray:
    """Mean plus ``beta`` times the expected deviation above the mean, of each law."""
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError(f"beta must be in [0,1], got {beta}")
    mean = expectation(values, mass)
    return mean + beta * _row_dot(mass, np.maximum(values - mean[..., None], 0.0))


def evaluate_laws(spec: RiskSpec, values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The risk of each law ``mass (..., n)`` on the support ``values (n,)``."""
    if spec.kind == "expectation":
        return expectation(values, mass)
    if spec.kind == "entropic":
        return entropic(values, mass, spec.theta)
    return mean_semideviation(values, mass, spec.beta)


def evaluate(spec: RiskSpec, dist: DiscreteDistribution) -> float:
    return float(evaluate_laws(spec, *dist.values_1d()))


def gradient_at_values(spec: RiskSpec, dist: DiscreteDistribution,
                       values: np.ndarray) -> np.ndarray:
    """Derivative of the risk w.r.t. mass placed at arbitrary ``values``.

    Masses are treated as free nonnegative coordinates (no renormalization),
    matching how the LP and conditional-gradient iterations perturb them.
    At a semideviation kink the subgradient with the strict indicator
    ``value > mean`` is returned.
    """
    values = np.asarray(values, dtype=float)
    if spec.kind == "expectation":
        return values.copy()
    sup, mass = dist.values_1d()
    if spec.kind == "entropic":
        if spec.theta == 0:
            return values.copy()
        # exp(theta y) / (theta E exp(theta Y)), without forming either moment
        rho = float(entropic(sup, mass, spec.theta))
        return np.exp(spec.theta * (values - rho)) / spec.theta
    # mean semideviation
    mean = float(expectation(sup, mass))
    above = float(mass[sup > mean].sum())
    return values + spec.beta * (np.maximum(values - mean, 0.0) - values * above)


def terminal_totals(v: Optional[np.ndarray], n_x: int, y_values: np.ndarray) -> np.ndarray:
    """Total costs ``y + v(x)`` of the (x, y) cells, x-major, once the terminal
    cost table ``v`` (``None``: no terminal cost) is checked: one nonnegative
    entry per x.  Every engine reads its totals from here."""
    v = np.zeros(n_x) if v is None else np.asarray(v, dtype=float)
    if v.shape != (n_x,):
        raise InvalidParameterError(
            f"terminal cost table has shape {v.shape}, expected ({n_x},)")
    if np.any(v < 0):
        raise InvalidCostError(f"terminal costs must be nonnegative, min is {v.min()}")
    return (v[:, None] + y_values[None, :]).ravel()


def apply_terminal_cost(joint: DiscreteDistribution,
                        v: Optional[np.ndarray]) -> DiscreteDistribution:
    """Push a joint (x, y) law forward under total cost ``(x, y) -> y + v(x)``
    (``v=None``: no terminal cost).

    The output support is the sorted set of attained totals; masses landing
    within 1e-12 of each other are aggregated.
    """
    if joint.axes != ("x", "y"):
        joint = joint.marginal(("x", "y"))
    totals = terminal_totals(v, joint.mass.shape[0], joint.coords[1])
    mass = joint.mass.ravel()
    hit = mass != 0.0  # support = values actually attained by mass
    if hit.any():
        totals, mass = totals[hit], mass[hit]
    out_v, out_m = merge_support(totals, mass, 1e-12)
    return DiscreteDistribution(axes=("cost",), coords=(out_v,), mass=out_m)


def merge_support(values: np.ndarray, weights: np.ndarray,
                  tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` stably and add up, in order, the weights of the values
    within ``tol`` of the first value of their group.

    ``weights`` is ``(..., n)``: every law is merged on the same groups, and
    each group's sum is taken member by member, as for a single law.
    """
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[..., order]
    sorted_v = values.tolist()
    first = [0]
    for i, v in enumerate(sorted_v):
        if v - sorted_v[first[-1]] > tol:
            first.append(i)
    size = np.diff(first + [len(sorted_v)])
    out = weights[..., first]
    for rank in range(1, int(size.max())):
        group = np.flatnonzero(size > rank)
        out[..., group] += weights[..., np.take(first, group) + rank]
    return values[first], out
