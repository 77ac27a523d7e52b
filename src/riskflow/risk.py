"""Law-invariant risk functionals on discrete cost distributions.

All functionals read a distribution only through its (value, mass) pairs.
The entropic family comes in two forms: the log form, and the linear form
``sum exp(theta y) m(y)`` whose coefficients drop directly into an LP
objective; the log of the linear optimum recovers the log-form value
because the logarithm is strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCostError, InvalidParameterError
from .forward import DiscreteDistribution

KINDS = ("expectation", "entropic", "entropic_linear", "mean_semideviation")
LINEAR_KINDS = ("expectation", "entropic_linear")


@dataclass(frozen=True)
class RiskSpec:
    """Which functional to use and its parameter.

    ``theta >= 0`` for the entropic kinds (risk aversion strength),
    ``beta in [0, 1]`` for mean semideviation.
    """

    kind: str
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown risk kind {self.kind!r}; choose from {KINDS}")
        if self.kind in ("entropic", "entropic_linear") and self.theta < 0:
            raise InvalidParameterError(f"entropic risk needs theta >= 0, got {self.theta}")
        if self.kind == "mean_semideviation" and not 0.0 <= self.beta <= 1.0:
            raise InvalidParameterError(f"semideviation weight must be in [0,1], got {self.beta}")

    @property
    def is_linear(self) -> bool:
        return self.kind in LINEAR_KINDS


def eval_expectation(dist: DiscreteDistribution) -> float:
    values, mass = dist.values_1d()
    return float(values @ mass)


def eval_entropic_linear(dist: DiscreteDistribution, theta: float) -> float:
    """The exponential moment ``sum exp(theta y) m(y)`` (linear in the mass)."""
    if theta < 0:
        raise InvalidParameterError(f"theta must be >= 0, got {theta}")
    values, mass = dist.values_1d()
    return float(np.exp(theta * values) @ mass)


def eval_entropic(dist: DiscreteDistribution, theta: float) -> float:
    """Entropic risk ``log(sum exp(theta y) m) / theta``; expectation at theta=0."""
    if theta < 0:
        raise InvalidParameterError(f"theta must be >= 0, got {theta}")
    if theta == 0:
        return eval_expectation(dist)
    return math.log(eval_entropic_linear(dist, theta)) / theta


def eval_mean_semideviation(dist: DiscreteDistribution, beta: float) -> float:
    """Mean plus ``beta`` times the expected deviation above the mean."""
    if not 0.0 <= beta <= 1.0:
        raise InvalidParameterError(f"beta must be in [0,1], got {beta}")
    values, mass = dist.values_1d()
    mean = float(values @ mass)
    return mean + beta * float(np.maximum(values - mean, 0.0) @ mass)


def evaluate(spec: RiskSpec, dist: DiscreteDistribution) -> float:
    if spec.kind == "expectation":
        return eval_expectation(dist)
    if spec.kind == "entropic":
        return eval_entropic(dist, spec.theta)
    if spec.kind == "entropic_linear":
        return eval_entropic_linear(dist, spec.theta)
    return eval_mean_semideviation(dist, spec.beta)


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
    if spec.kind == "entropic_linear":
        return np.exp(spec.theta * values)
    if spec.kind == "entropic":
        if spec.theta == 0:
            return values.copy()
        z = eval_entropic_linear(dist, spec.theta)
        return np.exp(spec.theta * values) / (spec.theta * z)
    # mean semideviation
    sup, mass = dist.values_1d()
    mean = float(sup @ mass)
    above = float(mass[sup > mean].sum())
    return values + spec.beta * (np.maximum(values - mean, 0.0) - values * above)


def risk_gradient(spec: RiskSpec, dist: DiscreteDistribution) -> np.ndarray:
    """Gradient of the risk at ``dist`` w.r.t. the mass on its own support."""
    return gradient_at_values(spec, dist, dist.values_1d()[0])


def apply_terminal_cost(joint: DiscreteDistribution, v: np.ndarray) -> DiscreteDistribution:
    """Push a joint (x, y) law forward under total cost ``(x, y) -> y + v(x)``.

    The output support is the sorted set of attained totals; masses landing
    within 1e-12 of each other are aggregated.
    """
    if joint.axes != ("x", "y"):
        joint = joint.marginal(("x", "y"))
    v = np.asarray(v, dtype=float)
    if v.shape != (joint.mass.shape[0],):
        raise InvalidParameterError(
            f"terminal cost table has shape {v.shape}, expected ({joint.mass.shape[0]},)")
    if np.any(v < 0):
        raise InvalidCostError(f"terminal costs must be nonnegative, min is {v.min()}")
    totals = (v[:, None] + joint.coords[1][None, :]).ravel()
    mass = joint.mass.ravel()
    hit = mass != 0.0  # support = values actually attained by mass
    if hit.any():
        totals, mass = totals[hit], mass[hit]
    out_v, out_m = merge_support(totals, mass, 1e-12)
    return DiscreteDistribution(axes=("cost",), coords=(out_v,), mass=out_m)


def merge_support(values: np.ndarray, weights: np.ndarray,
                  tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` stably and add up, in order, the weights of the values
    within ``tol`` of the first value of their group."""
    order = np.argsort(values, kind="stable")
    sup, wt = [values[order[0]]], [weights[order[0]]]
    for v, w in zip(values[order[1:]], weights[order[1:]]):
        if v - sup[-1] <= tol:
            wt[-1] += w
        else:
            sup.append(v)
            wt.append(w)
    return np.array(sup), np.array(wt)
