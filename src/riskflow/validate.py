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

import itertools
import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

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

    n_paths: int = 100_000
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
    of ``gen.stacked``.

    Returns the exit rates, the jump targets (row r's start at
    ``r * width``), and the cumulative jump law as one array per column,
    without the last column.  A row's positive off-diagonal rates keep
    their stored order; its last target's column and every later one hold
    1.0, so a draw u < 1 never passes its last target.  A row with no
    target keeps its own state in column 0.
    """
    n_a = gen.n_actions
    exit_rate = -np.column_stack([q.diagonal() for q in gen.per_action]).ravel()
    m = gen.stacked.tocoo()  # entries sorted by row
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


# Buckets of [0, 1) in the action table of a mixed cell: a power of two, so
# the bucket of a draw u is exactly floor(u * ACTION_BUCKETS), and an entry c
# lies below the bucket edge g / ACTION_BUCKETS exactly when floor(c *
# ACTION_BUCKETS) < g.  A uniform 21-action cell has a boundary in 20 of its
# 1,024 buckets, so about one draw in fifty needs a search step.
ACTION_BUCKETS = 1024


def _action_table(cum: np.ndarray):
    """Action lookup of the cumulative action laws ``cum`` (cells, n_a),
    whose last column is 1: the action of a draw u in (0, 1) is the first a
    with ``cum[a] >= u``.

    A cell is mixed when an entry lies strictly inside (0, 1).  Any other
    cell gives every draw its first action of positive probability, the
    count of its entries <= 0.  Returns ``first``, that action of each such
    cell and ``~j`` for the j-th mixed cell; the mixed cells' rows of
    ``cum``; and their table, flat over (mixed cells, ``ACTION_BUCKETS``):
    entry g holds the action of every draw in ``[g / B, (g + 1) / B)``, or
    ``~lo`` when a boundary lies in the bucket, lo counting the entries
    below g / B (for g = 0 the entries <= 0, since u > 0).
    """
    n_a, big = cum.shape[1], ACTION_BUCKETS
    below = cum[:, :-1]  # the last entry, 1, is never below a draw
    first = (below <= 0).sum(axis=1)
    mixed = np.flatnonzero(((below > 0) & (below < 1)).any(axis=1))
    c = below[mixed]
    # the first bucket edge above each entry, big + 1 for an entry >= 1
    edge = np.minimum(np.floor(c * big), big).astype(np.int64) + 1
    edge += np.arange(mixed.size)[:, None] * (big + 2)
    bound = np.bincount(edge.ravel(), minlength=mixed.size * (big + 2))
    bound = bound.reshape(-1, big + 2).cumsum(axis=1)  # entries below each edge
    bound[:, 0] = first[mixed]
    lo, hi = bound[:, :big], bound[:, 1:big + 1]
    table = np.where(lo == hi, lo, ~lo).astype(np.min_scalar_type(-n_a))
    first[mixed] = ~np.arange(mixed.size)
    return first, cum[mixed], table.ravel()


def _pick_actions(u, mixed, cum, table):
    """Actions of draws u in (0, 1) in the mixed cells ``mixed`` (indices
    into ``cum``, the mixed rows, and ``table`` of ``_action_table``): one
    table lookup, and where the draw's bucket holds a boundary a binary
    search above it.  Equals the count of entries of ``cum`` below u; u = 0
    (probability 2**-53) gets the first action of positive probability."""
    acts = table[mixed * ACTION_BUCKETS + (u * ACTION_BUCKETS).astype(np.int64)]
    edge = np.flatnonzero(acts < 0)
    if edge.size:
        n_a = cum.shape[1]
        lo = ~acts[edge].astype(np.int64)
        hi, uu, base = np.full(edge.size, n_a - 1), u[edge], mixed[edge] * n_a
        flat = cum.ravel()
        for _ in range(int(n_a - 1 - lo.min()).bit_length()):
            mid = (lo + hi) >> 1
            right = flat[base + mid] < uu
            lo = np.where(right, mid + 1, lo)
            hi = np.where(right, hi, mid)
        acts[edge] = lo
    return acts


# Fewest active paths per shard of a lockstep round; a round with fewer runs
# as fewer shards, down to one in the calling thread.  A thread's numpy
# calls pay for themselves only on long arrays.  simulate_paths on 100,000
# paths, 2-CPU host, median (range) of 12 calls in 3 alternated processes:
#   minimum      reference               circle15_semidev
#   2 ** 13      0.559 (0.554-0.596) s   0.299 (0.296-0.302) s
#   2 ** 14      0.563 (0.556-0.567) s   0.303 (0.301-0.333) s
#   2 ** 15      0.594 (0.589-0.599) s   0.320 (0.316-0.325) s
#   one shard    0.886 (0.870-0.970) s   0.491 (0.486-0.496) s
MIN_SHARD_PATHS = 2 ** 13


def _cpu_count() -> int:
    """CPUs this process may run on: the number of lockstep shards."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Cost of a path's exponential draw relative to the rest of its round, which
# sets the calling thread's share in ``_reshard``.  A standard exponential
# takes 3.3 ns.  simulate_paths on 100,000 paths, 2-CPU host, 2 ** 13 paths
# per shard, median (range) of 12 calls in 3 alternated processes:
#   cost    reference               circle15_semidev
#   0.10    0.563 (0.556-0.565) s   0.300 (0.297-0.304) s
#   0.13    0.558 (0.552-0.562) s   0.301 (0.296-0.328) s
#   0.16    0.561 (0.554-0.617) s   0.301 (0.299-0.333) s
#   0.20    0.568 (0.562-0.572) s   0.309 (0.303-0.381) s
EXP_DRAW_COST = 0.13


def _reshard(shards, count: int):
    """The paths of ``shards``, in path-id order, cut into ``count``
    contiguous shards, as views of one array per field.  The calling
    thread, which runs shard 0, also draws the round's exponential block,
    so shard 0 takes ``1 - (count - 1) * EXP_DRAW_COST`` of an even share
    of the paths and the others split the rest evenly.
    A shard holds ``ids``, ``y``, ``t`` and ``disc`` (e^{-alpha t}, None
    when alpha = 0) of its paths, and either their states ``x`` (in a
    slice's first round) or ``row``, the previous round's (state, action)
    row, whose jump is still to be drawn;
    ``half`` names the half of its workspace that holds them, None for
    views of other arrays.  Several shards are copied into ``merged``, the
    call's state arrays for all paths, which every shard carries."""
    merged, whole = shards[0].merged, {}
    for field in ("ids", "x", "row", "y", "t", "disc"):
        parts = [getattr(sh, field) for sh in shards]
        whole[field] = parts[0] if parts[0] is None or len(parts) == 1 else np.concatenate(
            parts, out=getattr(merged, field)[:sum(p.size for p in parts)])
    m = whole["ids"].size
    head = int(m * max(0.0, 1.0 - (count - 1) * EXP_DRAW_COST)) // count
    cut = [0] + (head + np.arange(count) * (m - head) // max(1, count - 1)).tolist()
    return [SimpleNamespace(half=None, merged=merged,
                            **{f: None if v is None else v[lo:hi] for f, v in whole.items()})
            for lo, hi in zip(cut[:-1], cut[1:])]


def _state(size: int) -> SimpleNamespace:
    """Uninitialized shard state for ``size`` paths (see ``_reshard``)."""
    return SimpleNamespace(ids=np.empty(size, np.intp), row=np.empty(size, np.intp),
                           y=np.empty(size), t=np.empty(size), disc=np.empty(size))


def _grow(ws: SimpleNamespace, size: int):
    """Give the workspace ``ws`` of one shard index arrays for ``size``
    paths, unless it has them: two halves of shard state and the round's
    temporaries."""
    if ws.size >= size:
        return
    ws.size, ws.halves = size, [_state(size), _state(size)]
    ws.u, ws.g, ws.tn, ws.acc = (np.empty(size) for _ in range(4))
    ws.x, ws.cells, ws.rows = (np.empty(size, np.intp) for _ in range(3))
    ws.flag = np.empty(size, bool)


def _jump(tab: SimpleNamespace, row: np.ndarray, u: np.ndarray, ws: SimpleNamespace):
    """Targets of the jumps from (state, action) rows ``row`` for draws u,
    into ``ws.x``; the gathers read table rows, in range by construction,
    so ``mode="clip"`` writes ``out`` unbuffered."""
    n = row.size
    at, got, up = ws.cells[:n], ws.g[:n], ws.flag[:n]
    np.multiply(row, tab.width, out=at)
    for column in tab.jump_cum:
        np.greater(u, column.take(row, out=got, mode="clip"), out=up)
        at += up
    return tab.targets.take(at, out=ws.x[:n], mode="clip")


def _pick_rows(tab: SimpleNamespace, x: np.ndarray, y: np.ndarray, u: np.ndarray,
               ws: SimpleNamespace):
    """(state, action) rows, in ``ws.rows``, of paths in states x with
    running costs y for action draws u, and how many of their cost cells
    are masked.  The snapped cells are clipped into the grid, so their
    gathers take ``mode="clip"``."""
    n, y_grid = x.size, tab.y_grid
    snap, cells, row, flag = ws.g[:n], ws.cells[:n], ws.rows[:n], ws.flag[:n]
    np.subtract(y, y_grid.lo, out=snap)
    snap /= y_grid.spacing
    np.rint(snap, out=snap)
    np.clip(snap, 0, y_grid.n - 1, out=snap)
    np.copyto(cells, snap, casting="unsafe")
    cells += np.multiply(x, y_grid.n, out=row)  # row is free until the lookup
    fallback = 0 if tab.mask is None else n - int(np.count_nonzero(
        tab.mask.take(cells, out=flag, mode="clip")))
    tab.fixed_row.take(cells, out=row, mode="clip")
    mixed = np.less(row, 0, out=flag).nonzero()[0]
    if mixed.size:
        row[mixed] = (_pick_actions(u[mixed], ~row[mixed], tab.cum, tab.table)
                      + x[mixed] * tab.n_a)
    return row, fallback


def _shard_round(tab: SimpleNamespace, sh: SimpleNamespace, ws: SimpleNamespace,
                 state: dict, offset: int, m: int, released, exp_block: list):
    """One lockstep round of shard ``sh`` (see ``_reshard``), whose paths
    sit at ``offset`` of the round's m active paths, over the slice's
    tables ``tab`` in the workspace ``ws`` of its shard index: its part of
    the jump and action uniform blocks from ``ws.rng`` set to ``state``,
    the round's start, and advanced to that part; then, once ``released``
    is set, its part of the exponential block in ``exp_block``.  Writes
    back the paths that finish the slice, takes the others into the other
    half of ``ws`` and returns (fallback lookups, paths kept).  Every
    temporary is a prefix of a ``ws`` array; the kept and finished paths
    come from ``nonzero``, in range, so they are taken with
    ``mode="clip"``."""
    n = sh.ids.size
    _grow(ws, n)  # a shard grows only when cut anew, and then its arrays are not ws's
    bits, u = ws.rng.bit_generator, ws.u[:n]
    bits.state = state
    bits.advance(offset)
    if sh.row is None:
        x = sh.x
    else:
        x = _jump(tab, sh.row, ws.rng.random(out=u), ws)
        bits.advance(m - n)
    row, fallback = _pick_rows(tab, x, sh.y, ws.rng.random(out=u), ws)
    released.wait()
    if not exp_block:
        raise RuntimeError("the round's exponential block was not drawn")
    t_event, flag = tab.clock.take(row, out=ws.g[:n], mode="clip"), ws.flag[:n]
    np.divide(exp_block[0][offset:offset + n], t_event, out=t_event)
    if tab.dead is not None:
        np.copyto(t_event, np.inf, where=tab.dead.take(row, out=flag, mode="clip"))
    t_event += sh.t
    t_new = np.minimum(t_event, tab.t_hi, out=ws.tn[:n])
    keep = np.less(t_event, tab.t_hi, out=flag).nonzero()[0]
    done = np.logical_not(flag, out=flag).nonzero()[0]
    y, alpha = sh.y, tab.alpha
    accrued = tab.cost.take(row, out=ws.acc[:n], mode="clip")
    if alpha:
        e_new = np.multiply(t_new, -alpha, out=t_event)  # t_event is spent
        np.exp(e_new, out=e_new)
        accrued *= np.subtract(sh.disc, e_new, out=u)
        accrued /= alpha
    else:
        accrued *= np.subtract(t_new, sh.t, out=u)
    y += accrued
    half = 0 if sh.half else 1
    nxt, k = ws.halves[half], keep.size
    for new, field in ((sh.ids, "ids"), (row, "row"), (y, "y"), (t_new, "t")):
        new.take(keep, out=getattr(nxt, field)[:k], mode="clip")
    if alpha:
        e_new.take(keep, out=nxt.disc[:k], mode="clip")
    if done.size:  # row and accrued are spent
        ids = sh.ids.take(done, out=ws.cells[:done.size], mode="clip")
        tab.x_all[ids] = x.take(done, out=ws.rows[:done.size], mode="clip")
        tab.y_all[ids] = y.take(done, out=ws.acc[:done.size], mode="clip")
    sh.ids, sh.x, sh.row, sh.y, sh.t = nxt.ids[:k], None, nxt.row[:k], nxt.y[:k], nxt.t[:k]
    sh.disc, sh.half = nxt.disc[:k] if alpha else None, half
    return fallback, k


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
    summing to less than one gives the rest to its last action.  A cell
    with no cumulative probability strictly inside (0, 1) reads its action
    from one table of the slice, any other cell from one bucket of a table
    of its own (``_action_table``).

    Each slice keeps only its active paths in compact arrays, writes a path
    back in the round it finishes, and carries e^{-alpha t} from round to
    round.  A round's active paths are cut into contiguous path-id shards,
    one per CPU the process may use while each holds ``MIN_SHARD_PATHS``;
    shard 0 runs in the calling thread, the others in a pool that lives
    inside this call.  Each shard draws its own parts of the round's
    uniform blocks from a copy of the stream advanced to them (a uniform
    takes one 64-bit word), and the calling thread draws the exponential
    block whole, so the samples are the same bits at any CPU count; for
    that draw shard 0 is cut smaller than the others (``EXP_DRAW_COST``).
    A round runs in preallocated memory: each shard index owns a workspace
    of path-length arrays (``_grow``), grown only for a shard larger than
    any before and reused across rounds and slices; its temporaries are
    written with ``out=``, and compaction takes the kept paths into the
    other half of its ping-pong state.  The exponential block is drawn
    into one buffer of the call.
    ``MarkovPolicy.check_cells`` refuses a policy that does not have one
    slice per grid time over (n_x, n_y, n_a), or that has a negative or NaN
    action probability, which the action search relies on; ``cost_rate``,
    ``alpha`` and ``initial_x`` are checked by ``check_cost_table`` and
    ``check_initial_law``; all before anything is drawn.
    """
    # per (state, action) row x * n_a + a, like the jump tables
    cost = check_cost_table(cost_rate, gen, alpha).ravel()
    times = grid_points(t_grid)
    n_x, n_a, n_y = gen.dim, gen.n_actions, y_grid.n
    policy.check_cells((len(times), n_x, n_y, n_a))
    exit_rate, targets, width, jump_cum = _jump_tables(gen)
    clock = np.maximum(exit_rate, 1e-300)
    dead = ~(exit_rate > 0)
    if not dead.any():
        dead = None
    pol_cum = np.cumsum(policy.probs, axis=-1)
    pol_cum[..., -1] = 1.0  # u < 1: a row summing to 1 - eps cannot pick past the last action
    cell_x = np.repeat(np.arange(n_x), n_y)
    nu = check_initial_law(initial_x, gen.dim)

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_paths
    x_all = rng.choice(n_x, size=n, p=nu / nu.sum())
    y_all = np.zeros(n)
    ids, exp_buf = np.arange(n), np.empty(n)
    fallback = 0
    cpus = _cpu_count()
    # imported here: no other riskflow call needs it, and every import would pay
    from concurrent.futures import ThreadPoolExecutor

    spaces = [SimpleNamespace(size=0, rng=np.random.Generator(np.random.PCG64()))
              for _ in range(cpus)]
    merged = _state(n)  # touched only as far as a merge of shards reaches

    with ThreadPoolExecutor(max_workers=max(1, cpus - 1)) as pool:
        for k in range(len(times) - 1):
            first, cum, table = _action_table(pol_cum[k + 1].reshape(n_x * n_y, n_a))
            mask = policy.mask[k + 1].ravel()
            tab = SimpleNamespace(
                targets=targets, width=width, jump_cum=jump_cum, clock=clock, dead=dead,
                cost=cost, alpha=alpha, y_grid=y_grid, n_a=n_a, cum=cum, table=table,
                # the row of each cell that is not mixed, else ~j for mixed cell j
                fixed_row=np.where(first < 0, first, first + cell_x * n_a),
                mask=None if mask.all() else mask, t_hi=times[k + 1],
                x_all=x_all, y_all=y_all)
            # a slice starts every path at times[k]: one value, read as n
            t = np.broadcast_to(times[k:k + 1], (n,))
            disc = np.broadcast_to(np.exp(times[k:k + 1] * -alpha), (n,)) if alpha else None
            # the first round accrues into y_all in place; later rounds write
            # a path back when it finishes
            shards = [SimpleNamespace(ids=ids, x=x_all, row=None, y=y_all, t=t, disc=disc,
                                      half=None, merged=merged)]
            m = n
            while m:
                count = max(1, min(cpus, m // MIN_SHARD_PATHS))
                if count != len(shards):
                    shards = _reshard(shards, count)
                offsets = list(itertools.accumulate([s.ids.size for s in shards[:-1]], initial=0))
                state = rng.bit_generator.state
                released, exp_block = threading.Event(), []
                work = [pool.submit(_shard_round, tab, sh, spaces[i], state, off, m,
                                    released, exp_block)
                        for i, (sh, off) in enumerate(zip(shards, offsets)) if i]
                # The exponential block is drawn here while the workers do
                # their uniform work, so the draw overlaps it.  Drawn before
                # dispatch, it gave the same samples of 100,000 reference paths
                # but took 6-9% longer (6 of 6 alternated runs, twice, 2 CPUs).
                try:
                    # the stream after this round's uniform blocks
                    rng.bit_generator.advance(m if shards[0].row is None else 2 * m)
                    exp_block.append(rng.standard_exponential(out=exp_buf[:m]))
                finally:
                    released.set()
                rounds = [_shard_round(tab, shards[0], spaces[0], state, 0, m, released,
                                       exp_block)]
                rounds += [w.result() for w in work]
                fallback += sum(f for f, _ in rounds)
                m = sum(kept for _, kept in rounds)
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
