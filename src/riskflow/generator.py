"""Rate matrices for the controlled chain and their cost augmentation.

The state of the augmented chain is a pair ``(x, y)`` of a circle (or
generic finite) state and a discounted running-cost level.  Product states
are flattened x-major: ``z = x * n_y + y``.
"""

from __future__ import annotations

import csv
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
    neighbor only, so off-diagonals stay nonnegative for any ``a``.
    """
    if sigma <= 0:
        raise InvalidParameterError(f"diffusion strength must be positive, got {sigma}")
    n, dx = grid.n, grid.spacing
    diff = sigma * sigma / (2.0 * dx * dx)
    right = diff + max(a, 0.0) / dx
    left = diff + max(-a, 0.0) / dx
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([(idx + 1) % n, (idx - 1) % n, idx])
    data = np.concatenate([np.full(n, right), np.full(n, left),
                           np.full(n, -(right + left))])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


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

    def __post_init__(self):
        dims = {q.shape[0] for q in self.per_action}
        if len(dims) != 1:
            raise InvalidParameterError(f"per-action matrices disagree on dimension: {sorted(dims)}")


def discount_factor(alpha: float, t: float, step: float) -> float:
    """Discount weight applied to the cost-transport rate over one time step:
    the average of ``exp(-alpha s)`` over ``[t, t + step]``, which makes the
    accumulated cost of a constant rate exact for any step size."""
    if alpha == 0.0:
        return 1.0
    return float((np.exp(-alpha * t) - np.exp(-alpha * (t + step))) / (alpha * step))


def stack_actions(mats) -> sp.csr_matrix:
    """One matrix whose row ``z * n_a + a`` is row ``z`` of ``mats[a]``: the
    (state, action) order of the forward program's variables."""
    n_a, n = len(mats), mats[0].shape[0]
    return sp.vstack(mats, format="csr")[np.arange(n * n_a).reshape(n_a, n).T.ravel()]


@dataclass(frozen=True)
class AugmentedGenerator:
    """Generator of the joint (state, running-cost) chain.

    State transitions copy the base rates at every cost level,
    ``kron(Q_a, I_y)``.  Cost accumulation is upwind transport to the next
    cost level at rate ``c(x, a) / dy``, dropped at the top cost cell
    (absorbing boundary) so rows still sum to zero.  Both are stacked over
    actions (``stack_actions``) into ``state_part`` and ``cost_part`` once;
    time enters only through the discount (see ``steps``).
    """

    base: ControlledGenerator
    alpha: float
    y_grid: UniformGrid
    state_part: sp.csr_matrix
    cost_part: sp.csr_matrix

    def steps(self, t_grid) -> list[tuple[float, sp.csr_matrix]]:
        """The chain's one time discretization: a ``(dt, Q_k)`` per step of
        ``t_grid``, the stacked generator at the left endpoint ``t_k`` with
        the discount averaged over the step (``discount_factor``)."""
        times = grid_points(t_grid)
        return [(dt, (self.state_part + discount_factor(self.alpha, t, dt) * self.cost_part).tocsr())
                for t, dt in zip(times, np.diff(times).tolist())]


def _cost_shift(n_y: int) -> sp.csr_matrix:
    """Unit-rate transport up one cost level, absorbing at the top cell."""
    rows = np.concatenate([np.arange(n_y - 1), np.arange(n_y - 1)])
    cols = np.concatenate([np.arange(1, n_y), np.arange(n_y - 1)])
    data = np.concatenate([np.ones(n_y - 1), -np.ones(n_y - 1)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_y, n_y))


def check_cost_table(cost_rate, base: ControlledGenerator) -> np.ndarray:
    """The running-cost table as floats: shape ``(n_states, n_actions)``
    of ``base`` (``InvalidParameterError``), no negative or NaN entry
    (``InvalidCostError``); infinite entries are allowed."""
    c = np.asarray(cost_rate, dtype=float)
    if c.shape != (base.dim, base.n_actions):
        raise InvalidParameterError(
            f"cost table shape {c.shape} does not match (n_states, n_actions)="
            f"({base.dim}, {base.n_actions})")
    if not (c >= 0).all():  # NaN fails too
        raise InvalidCostError(f"cost rates must be nonnegative, min is {c.min()}")
    return c


def check_initial_law(law, shape: tuple) -> np.ndarray:
    """The initial law as floats: an array of ``shape`` (``(n_states,)``
    for the base chain, ``(n_x, n_y)`` for the augmented one), finite and
    nonnegative, with a total within 1e-10 of one
    (``InvalidParameterError``)."""
    nu = np.asarray(law, dtype=float)
    if nu.shape != shape:
        raise InvalidParameterError(f"initial law shape {nu.shape} is not {shape}")
    if not (np.isfinite(nu).all() and (nu >= 0).all() and abs(nu.sum() - 1.0) <= 1e-10):
        raise InvalidParameterError(
            f"initial law must be a probability vector, got min {nu.min()} "
            f"and total {nu.sum()}")
    return nu


def augment_generator(base: ControlledGenerator, cost_rate, alpha: float,
                      y_grid: UniformGrid) -> AugmentedGenerator:
    """Assemble the joint (state, cost) generator of the running cost
    ``cost_rate`` (``check_cost_table``)."""
    c = check_cost_table(cost_rate, base)
    if alpha < 0:
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    eye_y = sp.identity(y_grid.n, format="csr")
    shift = _cost_shift(y_grid.n)
    state_part = stack_actions([sp.kron(q, eye_y, format="csr")
                                for q in base.per_action])
    cost_part = stack_actions([sp.kron(sp.diags(c[:, a] / y_grid.spacing), shift, format="csr")
                               for a in range(base.n_actions)])
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
