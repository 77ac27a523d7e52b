"""Rate matrices for the controlled chain and their cost augmentation.

The state of the augmented chain is a pair ``(x, y)`` of a circle (or
generic finite) state and a discounted running-cost level.  Product states
are flattened x-major: ``z = x * n_y + y``.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InvalidCostError, InvalidParameterError
from .grids import CircleGrid, UniformGrid, grid_points

ROW_SUM_TOL = 1e-10
OFF_DIAG_TOL = -1e-12


@dataclass(frozen=True)
class GeneratorDiagnostics:
    max_row_sum_deviation: float  # |row sum| / max(1, |Q[x, x]|), over the rows x
    min_off_diagonal: float
    worst_row: int  # a row x where the deviation is largest

    @property
    def ok(self) -> bool:
        return (self.max_row_sum_deviation <= ROW_SUM_TOL
                and self.min_off_diagonal >= OFF_DIAG_TOL)


def validate_generator(q: sp.csr_matrix) -> GeneratorDiagnostics:
    """Check the generator properties of ``q``: zero row sums, rates >= 0.

    A row sum is measured against the row's exit rate, so rounding in rows
    with large rates is not a violation."""
    m = q.tocoo()
    dev = np.abs(np.asarray(q.sum(axis=1)).ravel()) / np.maximum(1.0, np.abs(q.diagonal()))
    off = m.data[m.row != m.col]
    min_off = float(off.min()) if off.size else 0.0
    return GeneratorDiagnostics(max_row_sum_deviation=float(dev.max(initial=0.0)),
                                min_off_diagonal=min_off,
                                worst_row=int(np.argmax(dev)) if dev.size else 0)


def discretize_circle_diffusion(grid: CircleGrid, a: float, sigma: float) -> sp.csr_matrix:
    """Finite-volume rates for drift ``a`` plus diffusion ``sigma`` on the circle.

    First-order upwind drift and central diffusion: both neighbor rates get
    ``sigma^2 / (2 dx^2)``, and the drift adds ``|a| / dx`` to the downwind
    neighbor only, so off-diagonals stay nonnegative for any finite ``a``
    (``InvalidParameterError`` otherwise, or unless ``0 < sigma < inf``).
    """
    if not 0 < sigma < np.inf:  # NaN fails too
        raise InvalidParameterError(f"diffusion strength must be finite and positive, got {sigma}")
    if not np.isfinite(a):
        raise InvalidParameterError(f"drift must be finite, got {a}")
    n, dx = grid.n, grid.spacing
    diff = sigma * sigma / (2.0 * dx * dx)
    right = diff + max(a, 0.0) / dx
    left = diff + max(-a, 0.0) / dx
    # row i holds (i - 1) % n, i and (i + 1) % n, distinct for n >= 3, in
    # column order: the wrapped neighbor of rows 0 and n - 1 comes first or last
    cols = (np.arange(n, dtype=np.intc)[:, None] + np.array([-1, 0, 1], dtype=np.intc)) % n
    order = np.argsort(cols, axis=1)
    data = np.array([left, -(right + left), right])[order]
    return sp.csr_matrix((data.ravel(), np.take_along_axis(cols, order, axis=1).ravel(),
                          np.arange(0, 3 * n + 1, 3, dtype=np.intc)), shape=(n, n))


def gather_rows(first: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR row pointers of rows of ``lengths`` entries, and the index of each
    entry in a source array where row ``i``'s entries start at ``first[i]``."""
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return indptr, np.repeat(first - indptr[:-1], lengths) + np.arange(indptr[-1])


@dataclass(frozen=True)
class ControlledGenerator:
    """One sparse rate matrix per action over a shared state space."""

    per_action: tuple[sp.csr_matrix, ...]
    state_grid: Optional[CircleGrid] = None

    @property
    def dim(self) -> int:
        return self.per_action[0].shape[0]

    @property
    def n_actions(self) -> int:
        return len(self.per_action)

    @property
    def state_points(self) -> np.ndarray:
        """State coordinates: the grid's angles, else ``0, 1, ..., dim - 1``."""
        if self.state_grid is not None:
            return self.state_grid.points
        return np.arange(self.dim, dtype=float)

    @functools.cached_property
    def stacked(self) -> sp.csr_matrix:
        """The actions stacked: row ``x * n_a + a`` is row ``x`` of ``per_action[a]``."""
        mats = [q.tocsr() for q in self.per_action]
        ptrs = np.stack([q.indptr for q in mats], axis=1)
        # row x of action a starts at ptrs[x, a] plus the entries of the actions before a
        indptr, take = gather_rows((ptrs[:-1] + np.cumsum(ptrs[-1]) - ptrs[-1]).ravel(),
                                   np.diff(ptrs, axis=0).ravel())
        return sp.csr_matrix((np.concatenate([q.data for q in mats])[take],
                              np.concatenate([q.indices for q in mats])[take], indptr),
                             shape=(self.dim * self.n_actions, self.dim))

    def __post_init__(self):
        shapes = {q.shape for q in self.per_action}
        if len(shapes) != 1 or len(set(*shapes)) != 1:
            raise InvalidParameterError(f"per-action matrices need one square shape: {shapes}")


def discount_factor(alpha: float, t: float, step: float) -> float:
    """Discount weight applied to the cost-transport rate over one time step:
    the average of ``exp(-alpha s)`` over ``[t, t + step]``, which makes the
    accumulated cost of a constant rate exact for any step size."""
    if alpha == 0.0:
        return 1.0
    return float((np.exp(-alpha * t) - np.exp(-alpha * (t + step))) / (alpha * step))


@dataclass(frozen=True)
class AugmentedGenerator:
    """Generator of the joint (state, running-cost) chain.

    State transitions copy the base rates at every cost level,
    ``kron(Q_a, I_y)``.  Cost accumulation is upwind transport to the next
    cost level at rate ``c(x, a) / dy``, dropped at the top cost cell
    (absorbing boundary) so rows still sum to zero.  Both are built once,
    in the row order of ``ControlledGenerator.stacked``, as ``state_part``
    and ``cost_part`` on one pattern, the union of their entries; time
    enters only through the discount (see ``steps``).
    """

    base: ControlledGenerator
    alpha: float
    y_grid: UniformGrid
    state_part: sp.csr_matrix
    cost_part: sp.csr_matrix

    def steps(self, t_grid) -> list[tuple[float, sp.csr_matrix]]:
        """The chain's one time discretization: a ``(dt, Q_k)`` per step of
        ``t_grid``, the parts' shared pattern with data ``s + f_k c`` (zeros
        stay stored), ``f_k`` the discount averaged over the step from ``t_k``."""
        times, s, c = grid_points(t_grid), self.state_part, self.cost_part
        return [(dt, sp.csr_matrix((s.data + discount_factor(self.alpha, t, dt) * c.data,
                                    s.indices, s.indptr), shape=s.shape))
                for t, dt in zip(times, np.diff(times).tolist())]


def check_cost_table(cost_rate, base: ControlledGenerator, alpha: float) -> np.ndarray:
    """The running-cost table as floats: shape ``(n_states, n_actions)``
    of ``base`` (``InvalidParameterError``), no negative or NaN entry
    (``InvalidCostError``); infinite entries are allowed.  Its discount
    rate ``alpha`` must be nonnegative (``InvalidParameterError``)."""
    c = np.asarray(cost_rate, dtype=float)
    if c.shape != (base.dim, base.n_actions):
        raise InvalidParameterError(
            f"cost table shape {c.shape} does not match (n_states, n_actions)="
            f"({base.dim}, {base.n_actions})")
    if not (c >= 0).all():  # NaN fails too
        raise InvalidCostError(f"cost rates must be nonnegative, min is {c.min()}")
    if not alpha >= 0:  # NaN fails too
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    return c


def check_initial_law(law, n_states: int) -> np.ndarray:
    """The state law as floats: ``n_states`` entries, finite and
    nonnegative, with a total within 1e-10 of one
    (``InvalidParameterError``)."""
    nu = np.asarray(law, dtype=float)
    if nu.shape != (n_states,):
        raise InvalidParameterError(f"initial law shape {nu.shape} is not ({n_states},)")
    if not (np.isfinite(nu).all() and (nu >= 0).all() and abs(nu.sum() - 1.0) <= 1e-10):
        raise InvalidParameterError(
            f"initial law must be a probability vector, got min {nu.min()} "
            f"and total {nu.sum()}")
    return nu


def augment_generator(base: ControlledGenerator, cost_rate, alpha: float,
                      y_grid: UniformGrid) -> AugmentedGenerator:
    """Assemble the joint (state, cost) generator of the running cost
    ``cost_rate`` discounted at rate ``alpha`` (``check_cost_table``)."""
    c = check_cost_table(cost_rate, base, alpha)
    n_x, n_a, n_y = base.dim, base.n_actions, y_grid.n
    n_z, n_r = n_x * n_y, n_x * n_a
    # the pattern of base row r = x n_a + a on one cost level, in base columns: rate
    # q_a[x, x'] at x' n_y and, below the top level (rows r) when the cost rate
    # c(x, a) / dy is positive, -rate at x n_y and +rate at x n_y + 1; the top level
    # (rows n_r + r) has no cost entries.  Keys row * n_z + column, duplicates summed
    m = base.stacked
    rows = np.repeat(np.arange(n_r), np.diff(m.indptr))
    with np.errstate(over="ignore"):  # an infinite rate is refused by every step
        rate = (c / y_grid.spacing).ravel()
    r = np.flatnonzero(rate)
    state_keys = rows * n_z + m.indices * n_y
    pattern, slot = np.unique(np.concatenate([state_keys, state_keys + n_r * n_z,
                                              (r * n_z + r // n_a * n_y + [[0], [1]]).ravel()]),
                              return_inverse=True)
    state, cost = (np.bincount(i, weights=w, minlength=pattern.size) for i, w in (
        (slot[:2 * rows.size], np.tile(m.data, 2)),
        (slot[2 * rows.size:], np.concatenate([-rate[r], rate[r]]))))
    column, ptr = pattern % n_z, np.searchsorted(pattern // n_z, np.arange(2 * n_r + 1))
    # row (x n_y + y) n_a + a of the parts is row x n_a + a of its level, columns + y:
    # the pattern is built once per base row, not once per cost level
    level = (np.arange(n_r).reshape(n_x, 1, n_a)
             + n_r * (np.arange(n_y) == n_y - 1)[:, None]).ravel()
    indptr, take = gather_rows(ptr[level], np.diff(ptr)[level])
    y = np.repeat(np.arange(level.size) // n_a % n_y, np.diff(indptr))
    state_part = sp.csr_matrix((state[take], column[take] + y, indptr), shape=(level.size, n_z))
    cost_part = sp.csr_matrix((cost[take], state_part.indices, state_part.indptr),
                              state_part.shape)
    return AugmentedGenerator(base=base, alpha=float(alpha), y_grid=y_grid,
                              state_part=state_part, cost_part=cost_part)


def load_generator_triplets(path, n_states: Optional[int] = None,
                            n_actions: Optional[int] = None) -> ControlledGenerator:
    """Read a controlled generator from a CSV of ``action,row,col,rate`` rows.

    Off-diagonal rates must be nonnegative.  Diagonal entries may be
    omitted; each missing diagonal is filled with minus the row sum.  The
    first non-comment line may be a header without digits and is skipped;
    any other line must be four numbers with indices in range and a
    nonnegative off-diagonal rate, else ``ConfigError`` names file and line.
    Every row must then sum to zero (``validate_generator``), else
    ``ConfigError`` names the file, the action and the state.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, rec) for rec in reader
                if rec and not rec[0].strip().startswith("#")]
    if rows and not any(c.isdigit() for c in "".join(rows[0][1])):
        rows = rows[1:]  # header
    if not rows:
        raise ConfigError(f"no generator entries found in {path}")
    triplets = []
    for line, rec in rows:
        try:
            if len(rec) != 4 or not np.isfinite(float(rec[3])):
                raise ValueError("need four fields: integer action, row and col, finite rate")
            triplets.append((int(rec[0]), int(rec[1]), int(rec[2]), float(rec[3])))
        except ValueError as exc:
            raise ConfigError(f"{path}, line {line}: malformed generator entry "
                              f"{','.join(rec)!r}: {exc}") from exc
    arr = np.array(triplets)
    na = int(arr[:, 0].max()) + 1 if n_actions is None else n_actions
    ns = int(max(arr[:, 1].max(), arr[:, 2].max())) + 1 if n_states is None else n_states

    def refuse(bad, what):
        if bad.any():
            line, rec = rows[int(np.argmax(bad))]
            raise ConfigError(f"{path}, line {line}: entry {','.join(rec)!r} {what}")

    refuse((arr[:, :3] < 0).any(axis=1) | (arr[:, 0] >= na) | (arr[:, 1:3] >= ns).any(axis=1),
           f"is out of range for {na} actions and {ns} states")
    refuse((arr[:, 1] != arr[:, 2]) & (arr[:, 3] < 0), "is a negative off-diagonal rate")
    mats = []
    for a in range(na):
        sel = arr[arr[:, 0] == a]
        m = sp.csr_matrix((sel[:, 3], (sel[:, 1].astype(int), sel[:, 2].astype(int))),
                          shape=(ns, ns))
        has_diag = np.zeros(ns, dtype=bool)
        has_diag[sel[sel[:, 1] == sel[:, 2]][:, 1].astype(int)] = True
        row_sums = np.asarray(m.sum(axis=1)).ravel()
        mats.append((m + sp.diags(np.where(has_diag, 0.0, -row_sums))).tocsr())
        diag = validate_generator(mats[-1])
        if not diag.ok:
            raise ConfigError(f"{path}: the rates of action {a}, state {diag.worst_row} "
                              f"do not sum to zero (relative deviation "
                              f"{diag.max_row_sum_deviation:.3g})")
    return ControlledGenerator(per_action=tuple(mats))
