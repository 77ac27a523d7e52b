"""Law-invariant risk functionals on discrete cost distributions.

A law on the line is a ``(values, mass)`` pair of arrays: the support
``values (n,)`` and the masses on it.  Every functional takes one support
and the laws ``mass (..., n)`` on it, so a batch of laws is scored in one
call; ``evaluate`` is the one-law entry to the same code.
``terminal_totals`` is the one table of the total costs ``y + v(x)`` that
every engine scores, ``merge_support`` is the one pushforward of a law
on the (x, y) cells to the law of those totals, and ``wasserstein1`` is
the exact 1-Wasserstein distance between two laws.
The entropic risk ``log(sum exp(theta y) m(y)) / theta`` is optimized
through its exponential moment, which is linear in the mass: its
coefficients drop directly into an LP objective, and the log of the
moment's optimum gives the risk's optimum because the logarithm is
strictly increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidCostError, InvalidParameterError

KINDS = ("expectation", "entropic", "mean_semideviation")
LINEAR_KINDS = ("expectation", "entropic")
MERGE_TOL = 1e-12  # merge_support's distance within one group of totals


@dataclass(frozen=True)
class RiskSpec:
    """Which functional to use and its parameter.

    finite ``theta >= 0`` for the entropic risk (risk aversion strength),
    ``beta in [0, 1]`` for mean semideviation.
    """

    kind: str
    theta: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown risk kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "entropic" and not 0 <= self.theta < np.inf:  # NaN fails too
            raise InvalidParameterError(f"entropic risk needs finite theta >= 0, got {self.theta}")
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

    Each law is shifted by its ``top``, the largest value carrying mass in
    it, to ``top + log(M) / theta`` with ``M = sum m exp(theta (y - top))``:
    no ``exp(theta y)`` overflows, and the values above ``top``, which carry
    no mass, weigh as ``top``.  Where M lies in (1/2, 2), as at small theta,
    ``log(M)`` is ``log1p(sum m expm1(theta (y - top)) + (sum m - 1))``,
    which cancels no 1 + O(theta); elsewhere that sum would cancel M's
    small terms against -1, so the log is taken of M's positive terms.
    """
    if not 0 <= theta < np.inf:  # NaN fails too
        raise InvalidParameterError(f"theta must be finite and >= 0, got {theta}")
    if theta == 0:
        return expectation(values, mass)
    laws = mass.reshape(-1, values.size)
    # reduced along the laws: a short support reduces slowly along its own axis
    top = np.where(np.ascontiguousarray(laws.T) != 0, values[:, None], -np.inf).max(axis=0)
    shift = np.minimum(values - top[:, None], 0.0) * theta
    log_m = np.log(_row_dot(laws, np.exp(shift)))
    near = np.flatnonzero(np.abs(log_m) < math.log(2.0))  # M in (1/2, 2)
    if near.size:
        laws, tilt = laws[near], np.expm1(shift[near])
        log_m[near] = np.log1p(_row_dot(laws, tilt) + (_row_dot(laws, np.ones(values.size)) - 1.0))
    return (top + log_m / theta).reshape(mass.shape[:-1])


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


def evaluate(spec: RiskSpec, values: np.ndarray, mass: np.ndarray) -> float:
    """The risk of the one law ``(values, mass)``."""
    return float(evaluate_laws(spec, values, mass))


def gradient_at_values(spec: RiskSpec, values: np.ndarray, mass: np.ndarray,
                       at: np.ndarray) -> np.ndarray:
    """Derivative of the risk of the law ``(values, mass)`` w.r.t. mass placed
    at arbitrary points ``at``.

    Masses are treated as free nonnegative coordinates (no renormalization),
    matching how the LP and conditional-gradient iterations perturb them.
    At a semideviation kink the subgradient with the strict indicator
    ``value > mean`` is returned.
    """
    at = np.asarray(at, dtype=float)
    if spec.kind == "expectation":
        return at.copy()
    if spec.kind == "entropic":
        if spec.theta == 0:
            return at.copy()
        # exp(theta y) / (theta E exp(theta Y)), without forming either moment
        rho = float(entropic(values, mass, spec.theta))
        return np.exp(spec.theta * (at - rho)) / spec.theta
    # mean semideviation
    mean = float(expectation(values, mass))
    above = float(mass[values > mean].sum())
    return at + spec.beta * (np.maximum(at - mean, 0.0) - at * above)


def terminal_totals(v: Optional[np.ndarray], n_x: int, y_values: np.ndarray) -> np.ndarray:
    """Total costs ``y + v(x)`` of the (x, y) cells, x-major, once the terminal
    cost table ``v`` (``None``: no terminal cost) is checked: one nonnegative
    entry per x.  Every engine reads its totals from here."""
    v = np.zeros(n_x) if v is None else np.asarray(v, dtype=float)
    if v.shape != (n_x,):
        raise InvalidParameterError(
            f"terminal cost table has shape {v.shape}, expected ({n_x},)")
    if not (v >= 0).all():  # NaN fails too
        raise InvalidCostError(f"terminal costs must be nonnegative, min is {v.min()}")
    return (v[:, None] + y_values[None, :]).ravel()


def merge_support(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` stably and add up, in order, the weights of the values
    within ``MERGE_TOL`` of the first value of their group.

    ``weights`` is ``(..., n)``: every law is merged on the same groups, and
    each group's sum is taken member by member, as for a single law.
    """
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[..., order]
    sorted_v = values.tolist()
    first = [0]
    for i, v in enumerate(sorted_v):
        if v - sorted_v[first[-1]] > MERGE_TOL:
            first.append(i)
    size = np.diff(first + [len(sorted_v)])
    out = weights[..., first]
    for rank in range(1, int(size.max())):
        group = np.flatnonzero(size > rank)
        out[..., group] += weights[..., np.take(first, group) + rank]
    return values[first], out


def wasserstein1(p: tuple, q: tuple) -> float:
    """Exact 1-Wasserstein distance between the discrete laws ``(values,
    mass)`` ``p`` and ``q`` on the line."""
    (vp, mp), (vq, mq) = p, q
    v = np.concatenate([vp, vq])
    w = np.concatenate([mp, -mq])
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    if len(v) < 2:
        return 0.0
    gaps = np.diff(v)
    gaps *= np.abs(np.cumsum(w)[:-1])
    # numpy's own summation order: BLAS ddot splits long vectors by thread
    # count, which would make the distance depend on it
    return float(np.add.reduce(gaps))
