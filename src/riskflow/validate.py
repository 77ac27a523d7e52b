"""Independent oracles: Monte Carlo simulation of the controlled chain,
the exact 1-Wasserstein distance between laws on the line, a risk-neutral
dynamic-programming sweep, and brute-force policy enumeration for
desk-size instances.  The simulation, the DP and the enumeration read
the controlled generator in the (state, action) row order of
``stack_actions``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameterError, PolicyEnumerationError
# propagate_forward stays importable here: bench/tracing.py patches it by this name
from .forward import DiscreteDistribution, implicit_step, propagate_forward  # noqa: F401
from .generator import (ControlledGenerator, augment_generator, discount_factor,
                        stack_actions)
from .grids import UniformGrid, grid_points
from .risk import RiskSpec, apply_terminal_cost, evaluate
from .solve import MarkovPolicy, bellman_sweep


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True)
class McConfig:
    """Path count and seed for chain simulation.

    Identical (config, inputs) give bitwise-identical samples: all paths are
    advanced in vectorized lockstep rounds drawing from a single seeded
    PCG64 stream in a fixed order.  First one ``rng.choice`` draws every
    initial state.  Then each round of each time slice draws a block of
    uniforms (the actions), one per path still active in the slice in
    ascending path id, then a block of standard exponentials (the clocks)
    in the same order, then a block of uniforms (the jump targets) for the
    paths whose clock rang inside the slice, again in ascending path id.

    The sampler reads the policy's cost cell only at jumps and at slice
    boundaries; it does not look it up again when the accrued cost crosses
    into another cost cell between two events.
    """

    n_paths: int
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidParameterError(f"need at least one path, got {self.n_paths}")


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray      # terminal discounted costs, never clamped
    stderr: float            # standard error of the sample mean
    fallback_lookups: int    # policy lookups that hit a masked cell

    @property
    def mean(self) -> float:
        return float(self.samples.mean())


def _jump_tables(gen: ControlledGenerator):
    """Jump tables with one row per (state x, action a), row ``x * n_a + a``
    as in ``stack_actions``.

    Returns the exit rates, the jump targets (row r's start at
    ``r * width``), and the cumulative jump law as one array per column,
    without the last column.  A row's positive off-diagonal rates keep
    their stored order; its last target's column and every later one hold
    1.0, so a draw u < 1 never passes its last target.  A row with no
    target keeps its own state in column 0.
    """
    n_a = gen.n_actions
    exit_rate = -np.column_stack([q.diagonal() for q in gen.per_action]).ravel()
    m = stack_actions(gen.per_action).tocoo()  # entries sorted by row
    keep = (m.col != m.row // n_a) & (m.data > 0)
    row = m.row[keep]
    count = np.bincount(row, minlength=exit_rate.size)
    slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
    width = max(1, int(count.max()))
    targets = np.zeros((exit_rate.size, width), dtype=np.int64)
    targets[:, 0] = np.arange(exit_rate.size) // n_a
    targets[row, slot] = m.col[keep]
    cum = np.zeros((exit_rate.size, width))
    cum[row, slot] = m.data[keep] / exit_rate[row]
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= count[:, None] - 1] = 1.0
    return exit_rate, targets.ravel(), width, np.ascontiguousarray(cum[:, :-1].T)


# Buckets of [0, 1) in the action lookup: a power of two, so the bucket of a
# draw u is exactly floor(u * ACTION_BUCKETS).  With 64 buckets about one
# draw in three of a uniform 21-action cell needs a search step.
ACTION_BUCKETS = 64


def _action_bounds(cum: np.ndarray) -> np.ndarray:
    """Search bounds of the cumulative action laws ``cum`` (cells, n_a).

    For a draw u in bucket g, ``[g / B, (g + 1) / B)``, the action is the
    first a with ``cum[a] >= u``; it lies between ``bound[cell, g]`` and
    ``bound[cell, g + 1]``, where ``bound[cell, g]`` counts the entries
    below g / B, except ``bound[cell, 0]``, which counts those <= 0 (u > 0).
    A one-hot cell has equal bounds in every bucket and needs no search.
    Returned flat, row-major over ``(cells, B + 1)``.
    """
    edges = np.arange(ACTION_BUCKETS + 1) / ACTION_BUCKETS
    bound = (cum[:, None, :] < edges[:, None]).sum(axis=-1)
    bound[:, 0] = (cum <= 0).sum(axis=-1)
    return bound.ravel()


def _pick_actions(u, cells, cum, bound):
    """First action a with ``cum[cell, a] >= u``, for draws u in (0, 1):
    a binary search between the bounds of the draw's bucket, run only
    where they differ.  Equals the count of entries of ``cum`` below u;
    u = 0 (probability 2**-53) gets the first action of positive probability."""
    n_a = cum.shape[1]
    at = cells * (ACTION_BUCKETS + 1) + (u * ACTION_BUCKETS).astype(np.int64)
    acts = bound[at]
    span = bound[at + 1] - acts
    open_ = np.flatnonzero(span)
    if open_.size:
        lo = acts[open_]
        hi, uu, base = lo + span[open_], u[open_], cells[open_] * n_a
        flat = cum.ravel()
        for _ in range(int(span[open_].max()).bit_length()):
            mid = (lo + hi) >> 1
            right = flat[base + mid] < uu
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        acts[open_] = lo
    return acts


def simulate_paths(gen: ControlledGenerator, policy: MarkovPolicy, cost_rate,
                   alpha: float, y_grid: UniformGrid, initial_x: np.ndarray,
                   t_grid: Union[UniformGrid, np.ndarray], cfg: McConfig) -> McResult:
    """Simulate the controlled chain with exponential clocks, exact in time.

    The policy is piecewise constant on the time grid (the step from t_k
    to t_{k+1} reads slice k+1, matching the forward propagation); actions
    are resampled at jump times and at grid boundaries.  Running costs are
    integrated in closed form between events; the accumulated cost is
    snapped to the cost grid only for policy lookups, never in the returned
    samples.  The cost cell is looked up only at those events: a path whose
    accrued cost crosses into another cost cell between events keeps its
    action until its next jump or the next grid boundary.

    The draws follow ``McConfig``'s order: the initial ``rng.choice``;
    then per round a block of action uniforms and a block of clock
    exponentials over the active paths in ascending path id; then a block
    of target uniforms over the paths that jump.  The action of a uniform
    u is the first whose cumulative probability reaches u; a row summing
    to less than one gives the rest to its last action.

    Each slice keeps only its active paths in compact arrays, writing them
    back once per round, and carries e^{-alpha t} from round to round.
    The policy must have one slice per grid time over (n_x, n_y, n_a), with
    nonnegative action probabilities, which the action search relies on;
    ``InvalidParameterError`` otherwise.
    """
    if alpha < 0:
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    times = grid_points(t_grid)
    n_x, n_a, n_y = gen.dim, gen.n_actions, y_grid.n
    shape = (len(times), n_x, n_y, n_a)
    if policy.probs.shape != shape:
        raise InvalidParameterError(f"policy cells {policy.probs.shape} are not "
                                    f"(n_t, n_x, n_y, n_a) = {shape}")
    if not (policy.probs >= 0).all():  # NaN fails too
        raise InvalidParameterError(
            f"negative or NaN action probability {np.nanmin(policy.probs)}")
    exit_rate, targets, width, jump_cum = _jump_tables(gen)
    # per (state, action) row x * n_a + a, like the jump tables
    clock = np.maximum(exit_rate, 1e-300)
    dead = ~(exit_rate > 0)
    any_dead = dead.any()
    cost = np.asarray(cost_rate, dtype=float).ravel()
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0  # u < 1: a row summing to 1 - eps cannot pick past the last action
    nu = np.asarray(initial_x, dtype=float)

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_paths
    x_all = rng.choice(n_x, size=n, p=nu / nu.sum())
    y_all = np.zeros(n)
    fallback = 0

    for k in range(len(times) - 1):
        t_hi = times[k + 1]
        cum = pol_cum[k + 1].reshape(n_x * n_y, n_a)
        bound = _action_bounds(cum)
        mask = policy.mask[k + 1].ravel()
        check_mask = not mask.all()
        ids, x, y = np.arange(n), x_all, y_all
        t = np.full(n, times[k])
        disc = np.exp(-alpha * t) if alpha else None
        while ids.size:
            cells = x * n_y + np.clip(np.rint((y - y_grid.lo) / y_grid.spacing),
                                      0, n_y - 1).astype(np.int64)
            if check_mask:
                fallback += ids.size - int(np.count_nonzero(mask[cells]))
            row = _pick_actions(rng.random(ids.size), cells, cum, bound) + x * n_a
            wait = rng.standard_exponential(ids.size) / clock[row]
            if any_dead:
                wait[dead[row]] = np.inf
            t_event = t + wait
            t_new = np.minimum(t_event, t_hi)
            if alpha:
                e_new = np.exp(-alpha * t_new)
                y = y + cost[row] * (disc - e_new) / alpha
            else:
                y = y + cost[row] * (t_new - t)
            x_all[ids] = x  # a path's last write is in the round it finishes
            y_all[ids] = y
            keep = np.flatnonzero(t_event < t_hi)
            ids, row, y, t = ids[keep], row[keep], y[keep], t_new[keep]
            if alpha:
                disc = e_new[keep]
            u = rng.random(keep.size)
            at = row * width
            for column in jump_cum:
                at += u > column[row]
            x = targets[at]
    stderr = float(y_all.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McResult(samples=y_all, stderr=stderr, fallback_lookups=fallback)


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


def risk_neutral_dp(gen: ControlledGenerator, cost_rate, alpha: float,
                    t_grid: Union[UniformGrid, np.ndarray], initial_x,
                    v: Optional[np.ndarray] = None,
                    y_grid: Optional[UniformGrid] = None) -> DpResult:
    """Backward dynamic program for the expected discounted cost.

    Every step is the exact implicit Bellman step of the forward module's
    implicit-Euler scheme, ``V_k = min_a [s_a + V_{k+1} + dt Q_a(t_k) V_k]``
    taken row by row, solved by ``solve.bellman_sweep``.  Two modes:

    - ``y_grid=None``: the base chain, with stage cost ``s_a = dt disc c_a``
      (step-averaged discount) and terminal value ``v`` (zero if absent).
      The accumulated cost is uncapped.
    - ``y_grid`` given: the cost-augmented chain that the forward program
      optimizes, with the same ``augment_generator(...).steps(t_grid)``
      matrices, no stage cost and terminal value ``y + v(x)``, so mass that
      reaches the absorbing top cost cell stays capped at ``y_max``.  The
      value equals the forward program's expectation optimum.

    The state starts with law ``initial_x`` and, on the augmented chain,
    in the bottom cost cell.
    """
    times = grid_points(t_grid)
    c = np.asarray(cost_rate, dtype=float)
    nu = np.asarray(initial_x, dtype=float)
    terminal = np.zeros(gen.dim) if v is None else np.asarray(v, dtype=float)
    if y_grid is None:
        stacked = stack_actions(gen.per_action)
        steps = [(float(dt), stacked) for dt in np.diff(times)]
        stage = [dt * discount_factor(alpha, t, dt) * c for t, (dt, _) in zip(times, steps)]
    else:
        steps = augment_generator(gen, c, alpha, y_grid).steps(times)
        stage = np.zeros((len(steps), 1, gen.n_actions))
        terminal = terminal[:, None] + y_grid.points[None, :]
    values, actions, _, _ = bellman_sweep(steps, terminal.ravel(), stage)
    values = values.reshape((-1,) + terminal.shape)
    start = values[0] if y_grid is None else values[0][:, 0]
    return DpResult(value=float(nu @ start), values=values,
                    actions=actions.reshape((-1,) + terminal.shape))


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
    steps = augment_generator(gen, cost_rate, alpha, y_grid).steps(t_grid)
    n_x, n_a, n_y = gen.dim, gen.n_actions, y_grid.n
    cells = len(steps) * n_x * n_y
    count = n_a ** cells
    if count > max_policies:
        raise PolicyEnumerationError(
            f"{count} deterministic policies exceed the cap of {max_policies}")
    start = np.outer(np.asarray(initial_x, dtype=float), np.eye(n_y)[0]).ravel()
    coords = (gen.state_points, y_grid.points)
    place = n_a ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    best_val = math.inf
    for lo in range(0, count, ENUM_CHUNK):
        index = np.arange(lo, min(lo + ENUM_CHUNK, count), dtype=np.int64)
        actions = (index[:, None] // place % n_a).reshape(index.size, len(steps), start.size)
        m = np.broadcast_to(start, (index.size, start.size))
        for k, (dt, q) in enumerate(steps):
            m = implicit_step(q, np.eye(n_a)[actions[:, k]], dt, m, transpose=True)
        for mass in m.reshape(index.size, n_x, n_y):
            joint = DiscreteDistribution(axes=("x", "y"), coords=coords, mass=mass)
            dist = joint.marginal("y") if v is None else apply_terminal_cost(joint, v)
            best_val = min(best_val, evaluate(spec, dist))
    return EnumerationResult(value=best_val, n_policies=count)
