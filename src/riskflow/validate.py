"""Independent oracles: Monte Carlo simulation of the controlled chain,
distribution distances, a risk-neutral dynamic-programming sweep, and
brute-force policy enumeration for desk-size instances."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, PolicyEnumerationError
# propagate_forward stays importable here: bench/tracing.py patches it by this name
from .forward import DiscreteDistribution, implicit_step, propagate_forward  # noqa: F401
from .generator import (ControlledGenerator, augment_generator, discount_factor,
                        stack_actions)
from .grids import UniformGrid, grid_points
from .risk import RiskSpec, apply_terminal_cost, evaluate, merge_support
from .solve import MarkovPolicy


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True)
class McConfig:
    """Path count and seed for chain simulation.

    Identical (config, inputs) give bitwise-identical samples: all paths are
    advanced in vectorized lockstep rounds drawing from a single seeded
    PCG64 stream, one block of draws per round.
    """

    n_paths: int
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidParameterError(f"need at least one path, got {self.n_paths}")


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray      # terminal discounted costs, never clamped
    occupancy: np.ndarray    # time-weighted state occupancy, normalized
    stderr: float            # standard error of the sample mean
    fallback_lookups: int    # policy lookups that hit a masked cell

    @property
    def mean(self) -> float:
        return float(self.samples.mean())


def _jump_tables(gen: ControlledGenerator):
    """Exit rates and padded cumulative jump distributions per (action, state)."""
    n_x, n_a = gen.dim, gen.n_actions
    exit_rate = np.zeros((n_a, n_x))
    support = []
    width = 1
    for a in range(n_a):
        m = gen.per_action[a].matrix.tocoo()
        rows = [[] for _ in range(n_x)]
        for i, j, r in zip(m.row, m.col, m.data):
            if i != j and r > 0:
                rows[i].append((j, r))
        support.append(rows)
        exit_rate[a] = -gen.per_action[a].matrix.diagonal()
        width = max(width, max((len(r) for r in rows), default=1))
    targets = np.zeros((n_a, n_x, width), dtype=np.int64)
    cumprob = np.ones((n_a, n_x, width))
    for a in range(n_a):
        for i, row in enumerate(support[a]):
            targets[a, i, :] = i
            if not row:
                continue
            js, rs = zip(*row)
            probs = np.asarray(rs) / exit_rate[a, i]
            targets[a, i, :len(js)] = js
            targets[a, i, len(js):] = js[-1]
            cumprob[a, i, :len(js)] = np.cumsum(probs)
    cumprob[..., -1] = 1.0  # u < 1 never selects past the last target
    return exit_rate, targets, cumprob


def simulate_paths(gen: ControlledGenerator, policy: MarkovPolicy, cost_rate,
                   alpha: float, y_grid: UniformGrid, initial_x: np.ndarray,
                   t_grid: Union[UniformGrid, np.ndarray], cfg: McConfig) -> McResult:
    """Simulate the controlled chain with exponential clocks, exact in time.

    The policy is piecewise constant on the time grid (the step from t_k
    to t_{k+1} reads slice k+1, matching the forward propagation); actions
    are resampled at jump times and at grid boundaries.  Running costs are
    integrated in closed form between events; the accumulated cost is
    snapped to the cost grid only for policy lookups, never in the returned
    samples.
    """
    if alpha < 0:
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    times = grid_points(t_grid)
    n_x, n_a = gen.dim, gen.n_actions
    c = np.asarray(cost_rate, dtype=float)
    nu = np.asarray(initial_x, dtype=float)
    exit_rate, targets, cumprob = _jump_tables(gen)
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0  # u < 1: a row summing to 1 - eps cannot pick past the last action
    n_y = policy.probs.shape[2]

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_paths
    x = rng.choice(n_x, size=n, p=nu / nu.sum())
    y = np.zeros(n)
    occupancy = np.zeros(n_x)
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
                wait = np.where(rates > 0, rng.standard_exponential(active.size) / np.maximum(rates, 1e-300), np.inf)
            t_event = t_cur[active] + wait
            t_new = np.minimum(t_event, t_hi)
            y[active] += accrue(c[xs, acts], t_cur[active], t_new)
            np.add.at(occupancy, xs, t_new - t_cur[active])
            t_cur[active] = t_new
            jumped = t_event < t_hi
            if jumped.any():
                sub = active[jumped]
                u2 = rng.random(sub.size)
                sel = (u2[:, None] > cumprob[acts[jumped], x[sub]]).sum(axis=1)
                x[sub] = targets[acts[jumped], x[sub], sel]
            active = active[jumped]
    stderr = float(y.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McResult(samples=y, occupancy=occupancy / occupancy.sum(),
                    stderr=stderr, fallback_lookups=fallback)


# ---------------------------------------------------------------------------
# Distribution distances


def wasserstein1(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact 1-Wasserstein distance between discrete laws on the line."""
    vp, mp = p.values_1d()
    vq, mq = q.values_1d()
    v = np.concatenate([vp, vq])
    w = np.concatenate([mp, -mq])
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    if len(v) < 2:
        return 0.0
    cdf_diff = np.cumsum(w)[:-1]
    return float(np.abs(cdf_diff) @ np.diff(v))


def bounded_lipschitz_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """sup of integral differences over f with sup-norm + Lipschitz-norm <= 1.

    Solved as a small standard-form LP on the merged support, over the
    shifted values g = f + s >= 0 with s the sup variable: ``g_i <= 2 s``
    bounds ``|f_i|`` by ``s``, adjacent increments of g (those of f) are
    bounded by a Lipschitz variable l times the gap, and ``s + l <= 1``.
    The objective ``wt . f = wt . g - s sum(wt)`` is exact for any weights.
    """
    # deferred: solve imports this module
    from .solve import LpFailureError, LpProblem, solve_lp

    vp, mp = p.values_1d()
    vq, mq = q.values_1d()
    sup, wt = merge_support(np.concatenate([vp, vq]), np.concatenate([mp, -mq]))
    n = len(sup)
    if np.abs(wt).max() < 1e-15:
        return 0.0
    diff = sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))
    gaps = sp.csr_matrix(np.diff(sup)[:, None])
    one = sp.csr_matrix([[1.0]])
    # columns: g (n) | s | l | one slack per row (3n - 1)
    rows = sp.bmat([[sp.identity(n), sp.csr_matrix(np.full((n, 1), -2.0)), None],
                    [diff, None, -gaps],
                    [-diff, None, -gaps],
                    [None, one, one]])
    n_rows = 3 * n - 1
    a_eq = sp.hstack([rows, sp.identity(n_rows)], format="csr")
    b_eq = np.zeros(n_rows)
    b_eq[-1] = 1.0
    c = np.concatenate([-wt, [wt.sum(), 0.0], np.zeros(n_rows)])  # maximize wt . f
    sol = solve_lp(LpProblem(a_eq=a_eq, b_eq=b_eq, c=c))
    if sol.status != "optimal":
        raise LpFailureError(sol.status, f"bounded-Lipschitz LP reported {sol.status}")
    return float(-sol.primal_objective)


# ---------------------------------------------------------------------------
# Risk-neutral dynamic programming


@dataclass(frozen=True)
class DpResult:
    """Optimal values and greedy actions of the backward sweep.

    On the base chain ``values`` is ``(n_t, n_x)`` and ``actions`` is
    ``(n_t - 1, n_x)``; on the cost-augmented chain both carry a trailing
    cost axis, ``(n_t, n_x, n_y)`` and ``(n_t - 1, n_x, n_y)``.
    ``actions[k]`` drives the step from ``t_k`` to ``t_{k+1}``.
    """

    value: float
    values: np.ndarray
    actions: np.ndarray

    def greedy_policy(self, n_y: int, n_a: int) -> MarkovPolicy:
        """Lift the greedy actions to a deterministic (time, state, cost)
        Markov policy; base-chain actions are repeated over the cost cells."""
        n_t = self.values.shape[0]
        acts = self.actions if self.actions.ndim == 3 else self.actions[:, :, None]
        table = np.zeros((n_t, self.actions.shape[1], n_y), dtype=np.int64)
        table[1:] = acts  # step k feeds slice k + 1
        return MarkovPolicy.from_actions(table, n_a)


DP_TIE_TOL = 1e-10


def _implicit_bellman_step(stacked: sp.csr_matrix, rhs: np.ndarray, dt: float):
    """Solve ``V = min_a [rhs_a + dt Q_a V]`` row by row by Howard's policy
    iteration; ``stacked`` is the generator stacked over actions
    (``generator.stack_actions``) and ``rhs`` is ``(n, n_a)``.

    Each evaluation solves ``(I - dt Q_pi) V = rhs_pi`` for a deterministic
    policy ``pi``.  ``I - dt Q_pi`` is an M-matrix, so every improvement
    lowers ``V`` componentwise and the loop ends at the least solution.  A
    state switches action only when that lowers its value by more than
    ``DP_TIE_TOL`` relative to the value scale: exact ties would cycle.
    """
    n, n_a = rhs.shape
    rows = np.arange(n)

    def candidates(val):
        return rhs + dt * (stacked @ val).reshape(n, n_a)

    pol = candidates(rhs.min(axis=1)).argmin(axis=1)
    while True:
        val = implicit_step(stacked, np.eye(n_a)[pol], dt, rhs[rows, pol], transpose=False)
        cand = candidates(val)
        best = cand.argmin(axis=1)
        switch = cand[rows, best] < cand[rows, pol] - DP_TIE_TOL * np.abs(val).max()
        if not switch.any():
            return val, pol
        pol = np.where(switch, best, pol)


def risk_neutral_dp(gen: ControlledGenerator, cost_rate, alpha: float,
                    t_grid: Union[UniformGrid, np.ndarray], initial_x,
                    v: Optional[np.ndarray] = None,
                    y_grid: Optional[UniformGrid] = None) -> DpResult:
    """Backward dynamic program for the expected discounted cost.

    Every step is the exact implicit Bellman step of the forward module's
    implicit-Euler scheme, ``V_k = min_a [s_a + V_{k+1} + dt Q_a(t_k) V_k]``
    taken row by row, solved by policy iteration.  Two modes:

    - ``y_grid=None``: the base chain, with stage cost ``s_a = dt disc c_a``
      (step-averaged discount) and terminal value ``v`` (zero if absent).
      The accumulated cost is uncapped.
    - ``y_grid`` given: the cost-augmented chain that the forward program
      optimizes, with the same ``augment_generator(...).at(t_k, step=dt)``
      matrices, no stage cost and terminal value ``y + v(x)``, so mass that
      reaches the absorbing top cost cell stays capped at ``y_max``.  The
      value equals the forward program's expectation optimum.

    The state starts with law ``initial_x`` and, on the augmented chain,
    in the bottom cost cell.
    """
    times = grid_points(t_grid)
    n_t = len(times)
    c = np.asarray(cost_rate, dtype=float)
    nu = np.asarray(initial_x, dtype=float)
    terminal = np.zeros(gen.dim) if v is None else np.asarray(v, dtype=float)
    # step(t, dt, v_next) gives one step's stacked generator and Bellman rhs
    if y_grid is None:
        base = stack_actions([q.matrix for q in gen.per_action])

        def step(t, dt, v_next):
            return base, dt * discount_factor(alpha, t, step=dt) * c + v_next[:, None]
    else:
        aug = augment_generator(gen, c, alpha, y_grid, t=float(times[0]))
        terminal = terminal[:, None] + y_grid.points[None, :]

        def step(t, dt, v_next):
            return (aug.at(t, step=dt).matrix,
                    np.broadcast_to(v_next[:, None], (v_next.size, gen.n_actions)))
    values = np.zeros((n_t,) + terminal.shape)
    values[-1] = terminal
    actions = np.zeros((n_t - 1,) + terminal.shape, dtype=np.int64)
    for k in range(n_t - 2, -1, -1):
        dt = float(times[k + 1] - times[k])
        stacked, rhs = step(times[k], dt, values[k + 1].ravel())
        val, pol = _implicit_bellman_step(stacked, rhs, dt)
        values[k] = val.reshape(terminal.shape)
        actions[k] = pol.reshape(terminal.shape)
    start = values[0] if y_grid is None else values[0][:, 0]
    return DpResult(value=float(nu @ start), values=values, actions=actions)


# ---------------------------------------------------------------------------
# Brute-force policy enumeration

# Policies per block-diagonal step, sized by memory: one chunk adds about
# 1.5 MB to the peak RSS on a 6-state chain, and 11 MB on a dense 19-state
# chain, the most states the default cap admits.
ENUM_CHUNK = 2 ** 9


@dataclass(frozen=True)
class EnumerationResult:
    value: float
    n_policies: int


def enumerate_policies(gen: ControlledGenerator, cost_rate, alpha: float,
                       y_grid: UniformGrid, t_grid: Union[UniformGrid, np.ndarray],
                       initial_x, spec: RiskSpec, v: Optional[np.ndarray] = None,
                       max_policies: int = 10 ** 6) -> EnumerationResult:
    """Exhaustive minimum over deterministic (time, state, cost) -> action maps.

    Only the slices that drive the dynamics are enumerated (the step from
    t_k to t_{k+1} reads slice k+1, so slice 0 is irrelevant); the policy
    space size is n_a ** ((n_t - 1) * n_x * n_y).  Policy ``i`` plays the
    base-``n_a`` digits of ``i`` on those cells, the first cell most significant.
    """
    times = grid_points(t_grid)
    n_t = len(times)
    n_x, n_a, n_y = gen.dim, gen.n_actions, y_grid.n
    cells = (n_t - 1) * n_x * n_y
    count = n_a ** cells
    if count > max_policies:
        raise PolicyEnumerationError(
            f"{count} deterministic policies exceed the cap of {max_policies}")
    start = np.outer(np.asarray(initial_x, dtype=float), np.eye(n_y)[0]).ravel()
    coords = (gen.state_points, y_grid.points)
    aug = augment_generator(gen, cost_rate, alpha, y_grid, t=float(times[0]))
    place = n_a ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    best_val = math.inf
    for lo in range(0, count, ENUM_CHUNK):
        index = np.arange(lo, min(lo + ENUM_CHUNK, count), dtype=np.int64)
        actions = (index[:, None] // place % n_a).reshape(index.size, n_t - 1, start.size)
        m = np.broadcast_to(start, (index.size, start.size))
        for k in range(n_t - 1):
            dt = float(times[k + 1] - times[k])
            m = implicit_step(aug.at(times[k], step=dt).matrix, np.eye(n_a)[actions[:, k]],
                              dt, m, transpose=True)
        for mass in m.reshape(index.size, n_x, n_y):
            joint = DiscreteDistribution(axes=("x", "y"), coords=coords, mass=mass)
            dist = joint.marginal("y") if v is None else apply_terminal_cost(joint, v)
            best_val = min(best_val, evaluate(spec, dist))
    return EnumerationResult(value=best_val, n_policies=count)
