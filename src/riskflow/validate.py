"""Independent oracles: Monte Carlo simulation of the controlled chain, a
risk-neutral dynamic-programming sweep of the uncapped base chain, and brute-force
policy enumeration for desk-size instances, a walk over the tree of action
prefixes of a forward program that factors each dense system of a step
once per chunk of prefixes and scores the terminal laws in batches.  The
simulation and the DP check their state law and discounted running cost
(``generator.check_initial_law``, ``check_cost_table``); all three read
the controlled generator in the (state, action) row order of
``ControlledGenerator.stacked``."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, PolicyEnumerationError, PropagationError
# propagate_forward, augment_generator, evaluate and wasserstein1 stay importable
# here, unused: bench/tracing.py patches them by these names
from .forward import ForwardProgram, propagate_forward, step_plan  # noqa: F401
from .generator import (ControlledGenerator, augment_generator,  # noqa: F401
                        check_cost_table, check_initial_law, discount_factor)
from .grids import UniformGrid, grid_points
from .risk import (RiskSpec, evaluate, evaluate_laws, merge_support,  # noqa: F401
                   terminal_totals, wasserstein1)
from .solve import MarkovPolicy, bellman_sweep


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True)
class McConfig:
    """Path count and seed for chain simulation.

    Identical (config, inputs) give bitwise-identical samples at any CPU
    count.  First ``default_rng(seed).choice`` draws every initial state.
    The paths are then cut into blocks of ``BLOCK_PATHS`` consecutive ids,
    the last one maybe partial, and block b draws from its own PCG64
    stream, ``SeedSequence(seed).spawn(n_blocks)[b]``.  A block advances
    its paths in lockstep rounds until each has passed the last grid time.
    Each round draws from the block's stream, in ascending path id, one
    uniform per active path (its jump target), then one standard
    exponential per active path (its clock); no action is drawn.  A path
    starts at the first grid time, and restarts at each grid time its
    clock passes, on a stay row: its jump draw keeps its state.

    The sampler reads the policy's cost cell only at jumps and at slice
    boundaries; it does not look it up again when the accrued cost crosses
    into another cost cell between two events.
    """

    n_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        n, seed = self.n_paths, self.seed
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise InvalidParameterError(f"n_paths must be a positive integer, got {n!r}")
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray      # terminal discounted costs, never clamped
    stderr: float            # standard error of the sample mean
    fallback_lookups: int    # policy lookups that hit a masked cell

    @property
    def mean(self) -> float:
        return float(self.samples.mean())


def _jump_tables(rows: sp.csr_matrix, state: np.ndarray):
    """Jump tables of the generator rows ``rows``, row r leaving state
    ``state[r]``.

    Returns the exit rates, minus each row's entry in its own state; the
    jump targets (row r's start at ``r * width``); and the cumulative jump
    law as one array per column, without the last column.  A row's
    positive off-diagonal rates keep their stored order; its last target's
    column and every later one hold 1.0, so a draw u < 1 never passes its
    last target.  A row with no target keeps its own state in column 0.
    """
    m = rows.tocoo()  # entries sorted by row
    own = m.col == state[m.row]
    exit_rate = -np.bincount(m.row[own], weights=m.data[own], minlength=state.size)
    keep = ~own & (m.data > 0)
    row = m.row[keep]
    count = np.bincount(row, minlength=state.size)
    slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
    width = max(1, int(count.max()))
    targets = np.repeat(state[:, None], width, axis=1)
    targets[row, slot] = m.col[keep]
    cum = np.zeros((state.size, width))
    cum[row, slot] = m.data[keep] / exit_rate[row]
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= count[:, None] - 1] = 1.0
    return exit_rate, targets.ravel(), width, np.ascontiguousarray(cum[:, :-1].T)


# Paths per block, the unit of the Monte Carlo's streams and of its split
# across threads; the last block of a call may be partial.
BLOCK_PATHS = 2 ** 13


def _cpu_count() -> int:
    """CPUs this process may use: the most threads a call runs in."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _jump(tab: SimpleNamespace, row: np.ndarray, u: np.ndarray, ws: SimpleNamespace):
    """Targets of the jumps from jump-table rows ``row`` for draws u,
    into ``ws.x``; the gathers read table rows, in range by construction,
    so ``mode="clip"`` writes ``out`` unbuffered."""
    n = row.size
    at, got, up = ws.cells[:n], ws.g[:n], ws.flag[:n]
    np.multiply(row, tab.width, out=at)
    for column in tab.jump_cum:
        np.greater(u, column.take(row, out=got, mode="clip"), out=up)
        at += up
    return tab.targets.take(at, out=ws.x[:n], mode="clip")


def _pick_rows(tab: SimpleNamespace, x: np.ndarray, y: np.ndarray, sl: np.ndarray,
               row: np.ndarray, ws: SimpleNamespace):
    """Jump-table rows, into ``row``, of paths in states x with running
    costs y in slices ``sl``: each path's cost cell, which is its row;
    returns how many of these cells are masked.  The snapped cells are
    clipped into the grid, so the mask's gather takes ``mode="clip"``."""
    n, y_grid = x.size, tab.y_grid
    snap, cells, flag = ws.g[:n], ws.cells[:n], ws.flag[:n]
    np.subtract(y, y_grid.lo, out=snap)
    snap /= y_grid.spacing
    np.rint(snap, out=snap)
    np.clip(snap, 0, y_grid.n - 1, out=snap)
    np.copyto(cells, snap, casting="unsafe")
    np.multiply(sl, tab.n_x, out=row)  # the jump has read row
    row += x
    row *= y_grid.n
    row += cells
    return 0 if tab.mask is None else n - int(np.count_nonzero(
        tab.mask.take(row, out=flag, mode="clip")))


def _draw(fills, bounds, out: np.ndarray):
    """Fill ``out[bounds[b]:bounds[b + 1]]`` by ``fills[b]``, block b's
    draw, for every block with paths there."""
    for fill, lo, hi in zip(fills, bounds[:-1], bounds[1:]):
        if hi > lo:
            fill(out=out[lo:hi])


def _workspace(row: np.ndarray, t0: float, alpha: float) -> SimpleNamespace:
    """The arrays of a call, one entry per path: its state (see
    ``_run_blocks``), all paths at ``t0`` with their pending ``row``, and
    the temporaries of a round.  Allocated in the calling thread: allocated
    in the workers, they raised the reference's peak RSS by 4.6 MB from a
    process's second call on."""
    n = row.size
    ws = SimpleNamespace(ids=np.arange(n), row=row, sl=np.zeros(n, np.intp), y=np.zeros(n),
                         t=np.full(n, t0), disc=np.full(n, np.exp(-alpha * t0)) if alpha else None)
    ws.u, ws.g, ws.tn = (np.empty(n) for _ in range(3))
    ws.x, ws.cells, ws.flag = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n, bool)
    return ws


def _run_blocks(tab: SimpleNamespace, streams: list, ws: SimpleNamespace, out: np.ndarray):
    """The paths of ``ws``, whole blocks with ``streams`` their generators,
    run in one lockstep until each has passed the last grid time; writes
    each path's cost into ``out`` and returns the masked lookups.

    ``ws`` holds views of the call's arrays (``_workspace``) over these
    paths: their ids, pending jump-table rows, slices, costs y, times
    t and e^{-alpha t} (``disc``, None at alpha = 0), then the temporaries.
    Paths leave the arrays only at the horizon, in ascending id, so each
    block's kept paths stay contiguous between ``bounds``, and every array
    is used as a prefix.  Gathers read table rows or indices from
    ``nonzero``, in range, so they take ``mode="clip"``."""
    m, alpha = ws.ids.size, tab.alpha
    ids, row, sl, y, t, disc, tn = ws.ids, ws.row, ws.sl, ws.y, ws.t, ws.disc, ws.tn
    bounds = list(range(0, m, BLOCK_PATHS)) + [m]
    rand = [s.random for s in streams]
    expo = [s.standard_exponential for s in streams]
    fallback = 0
    while m:
        u, flag, rw, k, tk = ws.u[:m], ws.flag[:m], row[:m], sl[:m], t[:m]
        _draw(rand, bounds, u)
        x = _jump(tab, rw, u, ws)
        fallback += _pick_rows(tab, x, y[:m], k, rw, ws)
        _draw(expo, bounds, u)
        t_event = tab.clock.take(rw, out=ws.g[:m], mode="clip")
        np.divide(u, t_event, out=t_event)
        if tab.dead is not None:
            np.copyto(t_event, np.inf, where=tab.dead.take(rw, out=flag, mode="clip"))
        t_event += tk
        t_new = tab.ends.take(k, out=tn[:m], mode="clip")
        cross = np.greater_equal(t_event, t_new, out=flag)
        np.minimum(t_event, t_new, out=t_new)
        step = np.subtract(t_new, tk, out=u)
        accrued = tab.cost.take(rw, out=ws.g[:m], mode="clip")  # t_event is spent
        if alpha:  # the discount lost over the step, -disc (1 - e^{-alpha step}) ...
            step *= -alpha
            np.expm1(step, out=step)
            step *= disc[:m]
            disc[:m] += step
            accrued *= step
            accrued /= -alpha  # ... over -alpha: no cancellation at small alpha
        else:
            accrued *= step
        y[:m] += accrued
        t, tn = tn, t  # the new times; the old ones are spent
        # a path that passed its slice's end restarts there, on its stay row
        ended = cross.nonzero()[0]
        rw[ended] = x[ended] + tab.stay
        k[ended] += 1
        done = ended[k[ended] == tab.ends.size]
        if done.size:
            flag.fill(True)
            flag[done] = False
            keep = flag.nonzero()[0]
            out[ids.take(done, out=ws.cells[:done.size], mode="clip")] = \
                y.take(done, out=ws.u[:done.size], mode="clip")
            m = keep.size
            for field, tmp in ((ids, ws.cells), (row, ws.cells), (sl, ws.cells), (y, ws.u),
                               (t, ws.u), (disc, ws.u)):
                if field is not None:
                    field[:m] = field.take(keep, out=tmp[:m], mode="clip")
            bounds = np.searchsorted(keep, bounds).tolist()
    return fallback


def simulate_paths(gen: ControlledGenerator, policy: MarkovPolicy, cost_rate,
                   alpha: float, y_grid: UniformGrid, initial_x: np.ndarray,
                   t_grid: Union[UniformGrid, np.ndarray], cfg: McConfig) -> McResult:
    """Simulate the controlled chain with exponential clocks, exact in time.

    The policy is piecewise constant on the time grid (the step from t_k
    to t_{k+1} reads slice k+1, matching the forward propagation).  A path
    runs on the relaxed generator of its cell, ``Q_w = sum_a w_a Q_a`` on
    its state's row, as the forward equation evolves: it waits an
    exponential of rate ``sum_a w_a lambda_a``, accrues the cost rate
    ``sum_a w_a c_a`` and jumps by the law proportional to ``sum_a w_a
    q_a(x, .)`` off the diagonal.  No action is drawn, so a relaxed policy
    gives a Markov chain, not a semi-Markov one.  Running costs are
    integrated in closed form between events, ``c disc (1 - e^{-alpha
    dt}) / alpha`` through ``expm1`` (``c dt`` at alpha = 0); the
    accumulated cost is snapped to the cost grid only for policy lookups,
    never in the returned samples.  The cost cell is looked up only at
    jumps and grid boundaries: a path whose accrued cost crosses into
    another cost cell between events keeps its row until then.

    The draws follow the order stated in ``McConfig``.  The weights ``w``
    of a cell are the steps of its cumulative action law, capped at 1 with
    the last entry set to 1: a row summing to 1 - eps gives the rest to its
    last action, one summing above 1 drops the excess from its last
    actions, and nothing is renormalized.  The jump tables hold one row per
    cell of slices 1.., row j for cell j, then the stay row of each state
    x, ``n_cells + x``, whose only target is x.  The cell rows are the
    sparse products ``W @ gen.stacked`` and ``W @ cost`` of the cells'
    weights W, O(nnz) to build; a cell with all its weight on action a
    gets the bits of row ``x n_a + a`` of ``gen.stacked``.

    The blocks are cut into contiguous runs balanced by path count, one per
    CPU the process may use: the first runs in the calling thread, the
    others in a pool that lives inside this call, and each runs its paths
    to the horizon in one lockstep (``_run_blocks``).  Which thread runs a
    block changes none of its draws, so the samples are the same bits at
    any CPU count; an exception in any thread reaches the caller once every
    thread has stopped.  ``MarkovPolicy.check_cells`` refuses a policy that
    does not have one slice per grid time over (n_x, n_y, n_a), or that has
    a negative or NaN action probability, which the weights rely on;
    ``cost_rate``, ``alpha`` and ``initial_x`` are checked by
    ``check_cost_table`` and ``check_initial_law``; all before anything is
    drawn.
    """
    # per (state, action) row x * n_a + a, like gen.stacked
    cost = check_cost_table(cost_rate, gen, alpha).ravel()
    times = grid_points(t_grid)
    n_x, n_a, n_y = gen.dim, gen.n_actions, y_grid.n
    policy.check_cells((len(times), n_x, n_y, n_a))
    nu = check_initial_law(initial_x, gen.dim)
    mask = policy.mask[1:].ravel()
    # the weights of each cell, slice k + 1 driving step k
    cum = np.cumsum(policy.probs[1:], axis=-1).reshape(-1, n_a)
    np.minimum(cum, 1.0, out=cum)
    cum[:, -1] = 1.0
    w = np.diff(cum, axis=1, prepend=0.0)
    stay = len(w)
    # row j of weights puts cell j's weights on its (state, action) rows; the
    # n_x stay rows after the cells are empty.  row_x is the state of each row.
    row_x = np.concatenate([np.arange(stay) // n_y % n_x, np.arange(n_x)])
    cell, act = w.nonzero()
    weights = sp.csr_matrix((w[cell, act], (cell, row_x[cell] * n_a + act)),
                            shape=(row_x.size, n_x * n_a))
    exit_rate, targets, width, jump_cum = _jump_tables(
        (weights @ gen.stacked).sorted_indices(), row_x)
    dead = ~(exit_rate[:stay] > 0)
    tab = SimpleNamespace(
        targets=targets, width=width, jump_cum=jump_cum, stay=stay, cost=weights @ cost,
        clock=np.maximum(exit_rate, 1e-300), dead=dead if dead.any() else None,
        alpha=alpha, y_grid=y_grid, n_x=n_x, mask=None if mask.all() else mask, ends=times[1:])
    n = cfg.n_paths
    x0 = np.random.default_rng(cfg.seed).choice(n_x, size=n, p=nu / nu.sum())
    ws = _workspace(x0 + tab.stay, times[0], alpha)
    n_blocks = -(-n // BLOCK_PATHS)
    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence(cfg.seed).spawn(n_blocks)]
    # contiguous runs of blocks, each the nearest to an even share of the paths
    cpus = _cpu_count()
    cuts = sorted({0, n_blocks, *(min(n_blocks, round(n * i / cpus / BLOCK_PATHS))
                                  for i in range(1, cpus))})
    runs = [(streams[a:b], SimpleNamespace(**{
        k: None if v is None else v[a * BLOCK_PATHS:b * BLOCK_PATHS] for k, v in vars(ws).items()}))
        for a, b in zip(cuts[:-1], cuts[1:])]
    y_all = np.zeros(n)
    runs = runs if len(times) > 1 else []  # no step: every cost is 0
    # imported here: no other riskflow call needs it, and every import would pay
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=max(1, len(runs) - 1)) as pool:
        work = [pool.submit(_run_blocks, tab, *run, y_all) for run in runs[1:]]
        fallback = sum(_run_blocks(tab, *run, y_all) for run in runs[:1])
        fallback += sum(w.result() for w in work)
    return McResult(samples=y_all, stderr=sample_spread(y_all)[1], fallback_lookups=fallback)


def sample_spread(samples: np.ndarray) -> tuple[float, float]:
    """Sample standard deviation (ddof 1) and standard error of the mean of
    ``samples``; both 0 for a single sample."""
    if samples.size < 2:
        return 0.0, 0.0
    std = samples.std(ddof=1)
    return float(std), float(std / math.sqrt(samples.size))


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
    c = check_cost_table(cost_rate, gen, alpha)
    nu = check_initial_law(initial_x, gen.dim)
    times = grid_points(t_grid)
    # the terminal values are the totals on one cost cell at 0
    terminal = terminal_totals(v, gen.dim, np.zeros(1))
    steps = [(float(dt), gen.stacked) for dt in np.diff(times)]
    stage = [dt * discount_factor(alpha, t, dt) * c for t, (dt, _) in zip(times, steps)]
    values, actions, _, _ = bellman_sweep(steps, step_plan(gen.stacked, gen.n_actions),
                                          terminal, stage)
    return DpResult(value=float(nu @ values[0]),
                    values=values, actions=actions)


# ---------------------------------------------------------------------------
# Brute-force policy enumeration

# Bytes of one batched dense solve: its systems (n_z ** 2 floats each) and its
# rows (n_z floats each).  One enumerate_policies call grows ru_maxrss by
# 0.9-1.1 MB on the 6-state oracle_enum chain, whose levels fit one chunk each,
# and by 3.0-4.6 MB on a dense 18-state chain (one step, 2 ** 18 policies in
# 343 chunks of up to 766 systems).  ENUM_STEP_BYTES bounds one dense step.
ENUM_CHUNK_BYTES = 2 ** 21
ENUM_STEP_BYTES = 32 * 10 ** 6
ENUM_MAX_POLICIES = 10 ** 6  # the most policies one call enumerates


@dataclass(frozen=True)
class EnumerationResult:
    value: float
    n_policies: int


def _step_policies(system: np.ndarray, acts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - dt Q_w)^T m = rhs[p]`` for the S action patterns ``acts[s]``
    (S, n_z) and the P laws ``rhs`` (P, n_z), ``system[z, a]`` being row z of
    ``I - dt Q_a``: one ``np.linalg.solve`` factors each pattern's system once
    and solves it for the P laws as the columns of one right-hand side.
    Returns the (P S, n_z) solutions, row ``p S + s`` for law p and pattern s.
    A non-finite step matrix, a singular system or a non-finite solution
    raises ``PropagationError``, as in ``forward.implicit_step``."""
    if not np.isfinite(system).all():
        raise PropagationError("implicit step matrix has a non-finite entry")
    try:
        out = np.linalg.solve(system[np.arange(len(system)), acts].transpose(0, 2, 1),
                              rhs.T[None])
    except np.linalg.LinAlgError as exc:
        raise PropagationError(f"implicit step failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise PropagationError("implicit step produced a non-finite solution")
    return out.transpose(2, 0, 1).reshape(-1, rhs.shape[1])


def enumerate_policies(fp: ForwardProgram, spec: RiskSpec,
                       v: Optional[np.ndarray] = None) -> EnumerationResult:
    """Exhaustive minimum over deterministic (time, state, cost) -> action
    maps, stepping ``fp.steps`` from the program's initial law.

    Slice k + 1 drives the step from t_k, so slices 1..n_t - 1 give
    n_a ** ((n_t - 1) n_x n_y) policies; policy ``i`` plays the base-``n_a``
    digits of ``i`` on those cells, the first cell most significant.  The
    walk goes over the tree of action prefixes: level k holds one mass row
    per prefix of steps 0..k, row r stepped once from row ``r // fan`` of
    level k - 1 with the action digits of ``r % fan``, ``fan = n_a ** (n_x
    n_y)`` (at most 4 MB of levels under the cap of ``ENUM_MAX_POLICIES``).
    So all prefixes of a level meet the same ``fan`` systems (``Q_k``
    densified once per step), and a chunk, one ``_step_policies`` solve,
    is a block of prefixes under all of them, or one prefix under a run of
    them if they alone exceed ``ENUM_CHUNK_BYTES``, in policy order.  A
    last-level chunk is scored in one risk call, on the totals ``y + v(x)``
    as ``merge_support`` merges them.  More policies than that cap,
    or a dense step of more than ``ENUM_STEP_BYTES`` (32 MB), raise
    ``PolicyEnumerationError`` before any step.
    """
    n_a, width = fp.n_a, fp.n_z
    count = n_a ** ((fp.n_t - 1) * width)
    if count > ENUM_MAX_POLICIES:
        raise PolicyEnumerationError(
            f"{count} deterministic policies exceed the cap of {ENUM_MAX_POLICIES}")
    fan, place = n_a ** width, n_a ** np.arange(width - 1, -1, -1, dtype=np.int64)
    # systems and prefixes per chunk: every system for a block of prefixes if they fit
    span = min(fan, max(1, ENUM_CHUNK_BYTES // (8 * width * (width + 1))))
    block = 1 if span < fan else max(1, (ENUM_CHUNK_BYTES // (8 * width) - fan * width) // fan)
    if 8 * width ** 2 * (n_a + span) > ENUM_STEP_BYTES:
        raise PolicyEnumerationError(f"n_z = {width}: dense step above {ENUM_STEP_BYTES} bytes")
    totals = terminal_totals(v, fp.n_x, fp.y_values)
    level, best_val = fp.initial.reshape(1, width), math.inf
    for k, (dt, q) in enumerate(fp.steps):
        last = k == len(fp.steps) - 1
        with np.errstate(over="ignore"):  # _step_policies refuses a non-finite entry
            system = np.eye(width)[:, None, :] - dt * q.toarray().reshape(width, n_a, width)
        below = None if last else np.empty((len(level) * fan, width))
        for p in range(0, len(level), block):
            for s in range(0, fan, span):
                acts = np.arange(s, min(s + span, fan), dtype=np.int64)[:, None] // place % n_a
                m = _step_policies(system, acts, level[p:p + block])
                if last:  # fmin and min skip NaN risks
                    risks = evaluate_laws(spec, *merge_support(totals, m))
                    best_val = min(best_val, float(np.fmin.reduce(risks)))
                else:
                    below[p * fan + s:p * fan + s + len(m)] = m
        level = below
    return EnumerationResult(value=best_val, n_policies=count)
