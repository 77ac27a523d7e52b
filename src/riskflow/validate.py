"""Independent oracles: Monte Carlo simulation of the controlled chain,
the exact 1-Wasserstein distance between laws on the line, a risk-neutral
dynamic-programming sweep of the uncapped base chain, and brute-force
policy enumeration for desk-size instances, a walk over the tree of action
prefixes of a forward program that steps each chunk of prefixes in one
batched dense solve and scores the terminal laws in batches.  The
simulation and the DP check their initial state law
(``generator.check_initial_law``); all three read the controlled generator
in the (state, action) row order of ``stack_actions``."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameterError, PolicyEnumerationError, PropagationError
# propagate_forward, augment_generator and evaluate stay importable here, unused:
# bench/tracing.py patches them by these names
from .forward import DiscreteDistribution, ForwardProgram, propagate_forward  # noqa: F401
from .generator import (ControlledGenerator, augment_generator,  # noqa: F401
                        check_cost_table, check_initial_law, discount_factor, stack_actions)
from .grids import UniformGrid, grid_points
from .risk import RiskSpec, evaluate, evaluate_laws, merge_support, terminal_totals  # noqa: F401
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
    ``simulate_paths`` runs each round's paths as shards on several
    threads, but keeps this order draw for draw, so the samples are the
    same bits at any CPU count.

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


# Fewest active paths per shard of a lockstep round; a round with fewer runs
# as fewer shards, down to one in the calling thread.  A thread's numpy
# calls pay for themselves only on long arrays: on a 2-CPU host, 100,000
# reference paths took simulate_paths 1.22-1.42 s with this minimum,
# 1.28-1.43 s with 2 ** 13, 1.39-1.51 s with 2 ** 15 and 1.71-1.89 s in
# one thread.
MIN_SHARD_PATHS = 2 ** 14


def _cpu_count() -> int:
    """CPUs this process may run on: the number of lockstep shards."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _reshard(shards, count: int):
    """The paths of ``shards``, in path-id order, cut into ``count``
    contiguous shards of near-equal size, as views of one array per field.
    A shard holds ``ids``, ``y``, ``t`` and ``disc`` (e^{-alpha t}, None
    when alpha = 0) of its paths, and either their states ``x`` (in a
    slice's first round) or ``row``, the previous round's (state, action)
    row, whose jump is still to be drawn."""
    whole = {}
    for field, first in vars(shards[0]).items():
        parts = [getattr(sh, field) for sh in shards]
        whole[field] = parts[0] if first is None or len(parts) == 1 else np.concatenate(parts)
    cut = np.arange(count + 1) * whole["ids"].size // count
    return [SimpleNamespace(**{f: None if v is None else v[lo:hi] for f, v in whole.items()})
            for lo, hi in zip(cut[:-1], cut[1:])]


def _jump(tab: SimpleNamespace, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Targets of the jumps from (state, action) rows ``row`` for draws u."""
    at = row * tab.width
    for column in tab.jump_cum:
        at += u > column[row]
    return tab.targets[at]


def _pick_rows(tab: SimpleNamespace, x: np.ndarray, y: np.ndarray, u: np.ndarray):
    """(state, action) rows of paths in states x with running costs y for
    action draws u, and how many of their cost cells are masked."""
    y_grid, n_y = tab.y_grid, tab.y_grid.n
    snap = y - y_grid.lo
    snap /= y_grid.spacing
    np.rint(snap, out=snap)
    np.clip(snap, 0, n_y - 1, out=snap)
    cells = snap.astype(np.int64)
    cells += x * n_y
    fallback = 0 if tab.mask is None else x.size - int(np.count_nonzero(tab.mask[cells]))
    row = tab.fixed_row[cells]
    search = np.flatnonzero(row < 0)
    if search.size:
        row[search] = (_pick_actions(u[search], cells[search], tab.cum, tab.bound)
                       + x[search] * tab.n_a)
    return row, fallback


def _shard_round(tab: SimpleNamespace, sh: SimpleNamespace, rng: np.random.Generator,
                 state: dict, offset: int, m: int, released, exp_block: list):
    """One lockstep round of shard ``sh`` (see ``_reshard``), whose paths
    sit at ``offset`` of the round's m active paths, over the slice's
    tables ``tab``: its part of the jump and action uniform blocks from
    ``rng`` set to ``state``, the round's start, and advanced to that part;
    then, once ``released`` is set, its part of the exponential block in
    ``exp_block``.  Writes back the paths that finish the slice, keeps the
    others in ``sh`` and returns (fallback lookups, paths kept)."""
    bits = rng.bit_generator
    bits.state = state
    bits.advance(offset)
    n = sh.ids.size
    if sh.row is None:
        x = sh.x
    else:
        x = _jump(tab, sh.row, rng.random(n))
        bits.advance(m - n)
    row, fallback = _pick_rows(tab, x, sh.y, rng.random(n))
    released.wait()
    if not exp_block:
        raise RuntimeError("the round's exponential block was not drawn")
    t_event = tab.clock[row]
    np.divide(exp_block[0][offset:offset + n], t_event, out=t_event)
    if tab.dead is not None:
        t_event[tab.dead[row]] = np.inf
    t_event += sh.t
    t_new = np.minimum(t_event, tab.t_hi)
    y, alpha = sh.y, tab.alpha
    if alpha:
        e_new = t_new * -alpha
        np.exp(e_new, out=e_new)
        accrued = tab.cost[row]
        accrued *= np.subtract(sh.disc, e_new, out=sh.disc)
        accrued /= alpha
    else:
        accrued = tab.cost[row]
        accrued *= np.subtract(t_new, sh.t, out=sh.t)
    y += accrued
    going = t_event < tab.t_hi
    done = np.flatnonzero(~going)
    tab.x_all[sh.ids[done]] = x[done]
    tab.y_all[sh.ids[done]] = y[done]
    keep = np.flatnonzero(going)
    sh.ids, sh.x, sh.row, sh.y, sh.t = sh.ids[keep], None, row[keep], y[keep], t_new[keep]
    if alpha:
        sh.disc = e_new[keep]
    return fallback, keep.size


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

    The draws follow the order stated in ``McConfig``.  The action of a
    uniform u is the first whose cumulative probability reaches u; a row
    summing to less than one gives the rest to its last action.

    Each slice keeps only its active paths in compact arrays, writes a path
    back in the round it finishes, and carries e^{-alpha t} from round to
    round.  A round's active paths are cut into contiguous path-id shards,
    one per CPU the process may use while each holds ``MIN_SHARD_PATHS``;
    shard 0 runs in the calling thread, the others in a pool that lives
    inside this call.  Each shard draws its own parts of the round's
    uniform blocks from a copy of the stream advanced to them (a uniform
    takes one 64-bit word), and the calling thread draws the exponential
    block whole, so the samples are the same bits at any CPU count.
    The policy must have one slice per grid time over (n_x, n_y, n_a), with
    nonnegative action probabilities, which the action search relies on;
    ``InvalidParameterError`` otherwise.  ``cost_rate`` and ``initial_x``
    are checked by ``check_cost_table`` and ``check_initial_law`` before
    anything is drawn.
    """
    if alpha < 0:
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    # per (state, action) row x * n_a + a, like the jump tables
    cost = check_cost_table(cost_rate, gen).ravel()
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
    if not dead.any():
        dead = None
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0  # u < 1: a row summing to 1 - eps cannot pick past the last action
    cell_x = np.repeat(np.arange(n_x), n_y)
    nu = check_initial_law(initial_x, (gen.dim,))

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_paths
    x_all = rng.choice(n_x, size=n, p=nu / nu.sum())
    y_all = np.zeros(n)
    fallback = 0
    cpus = _cpu_count()
    # imported here: no other riskflow call needs it, and every import would pay
    from concurrent.futures import ThreadPoolExecutor

    copies = [np.random.Generator(np.random.PCG64()) for _ in range(cpus)]

    with ThreadPoolExecutor(max_workers=max(1, cpus - 1)) as pool:
        for k in range(len(times) - 1):
            cum = pol_cum[k + 1].reshape(n_x * n_y, n_a)
            bound = _action_bounds(cum)
            cut = bound.reshape(-1, ACTION_BUCKETS + 1)
            agree = (cut == cut[:, :1]).all(axis=1)
            mask = policy.mask[k + 1].ravel()
            tab = SimpleNamespace(
                targets=targets, width=width, jump_cum=jump_cum, clock=clock, dead=dead,
                cost=cost, alpha=alpha, y_grid=y_grid, n_a=n_a, cum=cum, bound=bound,
                # the row of each cell whose bounds agree in every bucket, else -1
                fixed_row=np.where(agree, cut[:, 0] + cell_x * n_a, -1),
                mask=None if mask.all() else mask, t_hi=times[k + 1],
                x_all=x_all, y_all=y_all)
            t = np.full(n, times[k])
            # the first round accrues into y_all in place; later rounds write
            # a path back when it finishes
            shards = [SimpleNamespace(ids=np.arange(n), x=x_all, row=None, y=y_all, t=t,
                                      disc=np.exp(-alpha * t) if alpha else None)]
            m = n
            while m:
                count = max(1, min(cpus, m // MIN_SHARD_PATHS))
                if count != len(shards):
                    shards = _reshard(shards, count)
                offsets = np.cumsum([0] + [s.ids.size for s in shards[:-1]]).tolist()
                state = rng.bit_generator.state
                released, exp_block = threading.Event(), []
                work = [pool.submit(_shard_round, tab, sh, copies[i], state, off, m,
                                    released, exp_block)
                        for i, (sh, off) in enumerate(zip(shards, offsets)) if i]
                try:
                    # the stream after this round's uniform blocks
                    rng.bit_generator.advance(m if shards[0].row is None else 2 * m)
                    exp_block.append(rng.standard_exponential(m))
                finally:
                    released.set()
                rounds = [_shard_round(tab, shards[0], copies[0], state, 0, m, released,
                                       exp_block)]
                rounds += [w.result() for w in work]
                fallback += sum(f for f, _ in rounds)
                m = sum(kept for _, kept in rounds)
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
    gaps = np.diff(v)
    gaps *= np.abs(np.cumsum(w)[:-1])
    # numpy's own summation order: BLAS ddot splits long vectors by thread
    # count, which would make the distance depend on it
    return float(np.add.reduce(gaps))


# ---------------------------------------------------------------------------
# Risk-neutral dynamic programming


@dataclass(frozen=True)
class DpResult:
    """Optimal values ``(n_t, n_x)`` and greedy actions ``(n_t - 1, n_x)``
    of the backward sweep; ``actions[k]`` drives the step from ``t_k`` to
    ``t_{k+1}``."""

    value: float
    values: np.ndarray
    actions: np.ndarray

    def greedy_policy(self, n_y: int, n_a: int) -> MarkovPolicy:
        """Lift the greedy actions to a deterministic (time, state, cost)
        Markov policy that repeats them over the cost cells."""
        table = np.zeros((self.values.shape[0], self.values.shape[1], n_y), dtype=np.int64)
        table[1:] = self.actions[:, :, None]  # step k feeds slice k + 1
        return MarkovPolicy.from_actions(table, n_a)


def risk_neutral_dp(gen: ControlledGenerator, cost_rate, alpha: float,
                    t_grid: Union[UniformGrid, np.ndarray], initial_x,
                    v: Optional[np.ndarray] = None) -> DpResult:
    """Backward dynamic program for the expected discounted cost on the
    base chain, with no cost axis and so no cap on the accumulated cost.

    Every step is the exact implicit Bellman step of the forward module's
    implicit-Euler scheme, ``V_k = min_a [s_a + V_{k+1} + dt Q_a V_k]``
    taken row by row, solved by ``solve.bellman_sweep``, with stage cost
    ``s_a = dt disc c_a`` (step-averaged discount) and terminal value ``v``
    (zero if absent).  The state starts with law ``initial_x``.  The capped
    optimum on the cost-augmented chain is
    ``optimize_linear_risk(fp, RiskSpec("expectation"))``.
    """
    c = check_cost_table(cost_rate, gen)
    nu = check_initial_law(initial_x, (gen.dim,))
    times = grid_points(t_grid)
    # the terminal values are the totals on one cost cell at 0
    terminal = terminal_totals(v, gen.dim, np.zeros(1))
    stacked = stack_actions(gen.per_action)
    steps = [(float(dt), stacked) for dt in np.diff(times)]
    stage = [dt * discount_factor(alpha, t, dt) * c for t, (dt, _) in zip(times, steps)]
    values, actions, _, _ = bellman_sweep(steps, terminal, stage)
    return DpResult(value=float(nu @ values[0]),
                    values=values, actions=actions)


# ---------------------------------------------------------------------------
# Brute-force policy enumeration

# Prefix rows per batched dense solve: one enumerate_policies call grows ru_maxrss
# by about 0.8 MB on the 6-state oracle_enum chain and 1.9 MB on a dense 18-state
# chain (one step, 2 ** 18 policies).  ENUM_STEP_BYTES bounds one dense step.
ENUM_CHUNK = 2 ** 9
ENUM_STEP_BYTES = 32 * 10 ** 6


@dataclass(frozen=True)
class EnumerationResult:
    value: float
    n_policies: int


def _step_policies(system: np.ndarray, acts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - dt Q_w)^T m = rhs[r]`` for the B policies ``acts[r]`` (B, n_z)
    in one ``np.linalg.solve``, ``system[z, a]`` being row z of ``I - dt Q_a``.
    A non-finite step matrix, a singular system or a non-finite solution
    raises ``PropagationError``, as in ``forward.implicit_step``."""
    if not np.isfinite(system).all():
        raise PropagationError("implicit step matrix has a non-finite entry")
    try:
        out = np.linalg.solve(system[np.arange(len(system)), acts].transpose(0, 2, 1),
                              rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise PropagationError(f"implicit step failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise PropagationError("implicit step produced a non-finite solution")
    return out


def enumerate_policies(fp: ForwardProgram, spec: RiskSpec, v: Optional[np.ndarray] = None,
                       max_policies: int = 10 ** 6) -> EnumerationResult:
    """Exhaustive minimum over deterministic (time, state, cost) -> action
    maps, stepping ``fp.steps`` from the program's initial law.

    Slice k + 1 drives the step from t_k, so slices 1..n_t - 1 give
    n_a ** ((n_t - 1) n_x n_y) policies; policy ``i`` plays the base-``n_a``
    digits of ``i`` on those cells, the first cell most significant.  The
    walk goes over the tree of action prefixes: level k holds one mass row
    per prefix of steps 0..k, row r stepped once from row
    ``r // n_a ** (n_x n_y)`` of level k - 1 (at most 4 MB of levels under
    the default cap of 10 ** 6 policies).  A chunk of ``ENUM_CHUNK`` rows is
    one batched dense solve of the rows of ``I - dt Q_a`` (``Q_k`` densified
    once per step) its action digits pick; a last-level chunk is scored in
    one risk call, on the totals ``y + v(x)`` as ``apply_terminal_cost``
    merges them.  More than ``max_policies`` policies, or a dense step of
    more than ``ENUM_STEP_BYTES`` (32 MB), raise ``PolicyEnumerationError``
    before any step.
    """
    n_a, width = fp.n_a, fp.n_z
    count = n_a ** ((fp.n_t - 1) * width)
    if count > max_policies:
        raise PolicyEnumerationError(
            f"{count} deterministic policies exceed the cap of {max_policies}")
    if 8 * width ** 2 * (n_a + min(ENUM_CHUNK, count)) > ENUM_STEP_BYTES:
        raise PolicyEnumerationError(f"n_z = {width}: dense step above {ENUM_STEP_BYTES} bytes")
    totals = terminal_totals(v, fp.n_x, fp.y_values)
    fan, place = n_a ** width, n_a ** np.arange(width - 1, -1, -1, dtype=np.int64)
    level, best_val = fp.b_eq[:width].reshape(1, width), math.inf
    for k, (dt, q) in enumerate(fp.steps):
        last = k == len(fp.steps) - 1
        system = np.eye(width)[:, None, :] - dt * q.toarray().reshape(width, n_a, width)
        rows = len(level) * fan
        below = None if last else np.empty((rows, width))
        for lo in range(0, rows, ENUM_CHUNK):
            index = np.arange(lo, min(lo + ENUM_CHUNK, rows), dtype=np.int64)
            m = _step_policies(system, index[:, None] // place % n_a, level[index // fan])
            if last:  # fmin and min skip NaN risks
                risks = evaluate_laws(spec, *merge_support(totals, m))
                best_val = min(best_val, float(np.fmin.reduce(risks)))
            else:
                below[lo:lo + index.size] = m
        level = below
    return EnumerationResult(value=best_val, n_policies=count)
