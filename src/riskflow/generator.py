"""Rate matrices for the controlled chain and their cost augmentation.

The state of the augmented chain is a pair ``(x, y)`` of a circle (or
generic finite) state and a discounted running-cost level.  Product states
are flattened x-major: ``z = x * n_y + y``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import InvalidCostError, InvalidParameterError
from .grids import CircleGrid, UniformGrid

ROW_SUM_TOL = 1e-10
OFF_DIAG_TOL = -1e-12


@dataclass(frozen=True)
class RateMatrix:
    """Sparse generator of a finite-state continuous-time Markov chain.

    Off-diagonal entries are jump rates (>= 0); every row sums to zero, so
    constants are annihilated and total probability mass is conserved.
    """

    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GeneratorDiagnostics:
    max_row_sum_deviation: float
    min_off_diagonal: float

    @property
    def ok(self) -> bool:
        return (self.max_row_sum_deviation <= ROW_SUM_TOL
                and self.min_off_diagonal >= OFF_DIAG_TOL)


def validate_generator(q: RateMatrix) -> GeneratorDiagnostics:
    """Check the conservation (zero row sums) and sign structure of ``q``."""
    m = q.matrix.tocoo()
    row_sums = np.asarray(q.matrix.sum(axis=1)).ravel()
    off = m.data[m.row != m.col]
    min_off = float(off.min()) if off.size else 0.0
    dev = float(np.abs(row_sums).max()) if row_sums.size else 0.0
    return GeneratorDiagnostics(max_row_sum_deviation=dev, min_off_diagonal=min_off)


def discretize_circle_diffusion(grid: CircleGrid, a: float, sigma: float) -> RateMatrix:
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
    return RateMatrix(sp.csr_matrix((data, (rows, cols)), shape=(n, n)))


@dataclass(frozen=True)
class ControlledGenerator:
    """One rate matrix per action over a shared state space."""

    per_action: tuple[RateMatrix, ...]
    state_grid: Optional[CircleGrid] = None

    @property
    def dim(self) -> int:
        return self.per_action[0].dim

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
        dims = {q.dim for q in self.per_action}
        if len(dims) != 1:
            raise InvalidParameterError(f"per-action matrices disagree on dimension: {sorted(dims)}")


def discount_factor(alpha: float, t: float, step: Optional[float] = None) -> float:
    """Discount weight applied to the cost-transport rate.

    With ``step=None`` this is the point value ``exp(-alpha t)``; otherwise
    it is the average of ``exp(-alpha s)`` over ``[t, t + step]``, which makes
    the accumulated cost of a constant rate exact for any step size.
    """
    if alpha == 0.0:
        return 1.0
    if step is None:
        return float(np.exp(-alpha * t))
    return float((np.exp(-alpha * t) - np.exp(-alpha * (t + step))) / (alpha * step))


def stack_actions(mats) -> sp.csr_matrix:
    """One matrix whose row ``z * n_a + a`` is row ``z`` of ``mats[a]``: the
    (state, action) order of the forward program's variables."""
    n_a, n = len(mats), mats[0].shape[0]
    return sp.vstack(mats, format="csr")[np.arange(n * n_a).reshape(n_a, n).T.ravel()]


@dataclass(frozen=True)
class AugmentedGenerator:
    """Generator of the joint (state, running-cost) chain at a fixed time.

    State transitions copy the base rates at every cost level,
    ``kron(Q_a, I_y)``.  Cost accumulation is upwind transport to the next
    cost level at rate ``c(x, a) / dy``, dropped at the top cost cell
    (absorbing boundary) so rows still sum to zero.  Both are stacked over
    actions (``stack_actions``) into ``state_part`` and ``cost_part`` once;
    time enters only through the discount,
    ``matrix = state_part + discount * cost_part``.
    """

    base: ControlledGenerator
    alpha: float
    y_grid: UniformGrid
    state_part: sp.csr_matrix
    cost_part: sp.csr_matrix
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.base.dim * self.y_grid.n

    def at(self, t: float, step: Optional[float] = None) -> "AugmentedGenerator":
        """The same generator with the discount taken at another time point."""
        disc = discount_factor(self.alpha, t, step)
        return replace(self, matrix=(self.state_part + disc * self.cost_part).tocsr())


def _cost_shift(n_y: int) -> sp.csr_matrix:
    """Unit-rate transport up one cost level, absorbing at the top cell."""
    rows = np.concatenate([np.arange(n_y - 1), np.arange(n_y - 1)])
    cols = np.concatenate([np.arange(1, n_y), np.arange(n_y - 1)])
    data = np.concatenate([np.ones(n_y - 1), -np.ones(n_y - 1)])
    return sp.csr_matrix((data, (rows, cols)), shape=(n_y, n_y))


def augment_generator(base: ControlledGenerator, cost_rate, alpha: float,
                      y_grid: UniformGrid, t: float,
                      step: Optional[float] = None) -> AugmentedGenerator:
    """Assemble the joint (state, cost) generator at time ``t``.

    ``cost_rate`` has shape ``(n_states, n_actions)`` and must be
    nonnegative.  ``step`` selects the discount sampling: ``None`` uses the
    point value ``exp(-alpha t)``, a positive value averages the discount
    over ``[t, t + step]`` (what the time stepper uses).
    """
    c = np.asarray(cost_rate, dtype=float)
    if c.shape != (base.dim, base.n_actions):
        raise InvalidParameterError(
            f"cost table shape {c.shape} does not match (n_states, n_actions)="
            f"({base.dim}, {base.n_actions})")
    if np.any(c < 0):
        raise InvalidCostError(f"cost rates must be nonnegative, min is {c.min()}")
    if alpha < 0:
        raise InvalidParameterError(f"discount rate must be nonnegative, got {alpha}")
    eye_y = sp.identity(y_grid.n, format="csr")
    shift = _cost_shift(y_grid.n)
    state_part = stack_actions([sp.kron(q.matrix, eye_y, format="csr")
                                for q in base.per_action])
    cost_part = stack_actions([sp.kron(sp.diags(c[:, a] / y_grid.spacing), shift, format="csr")
                               for a in range(base.n_actions)])
    return AugmentedGenerator(base=base, alpha=float(alpha), y_grid=y_grid,
                              state_part=state_part, cost_part=cost_part,
                              matrix=None).at(t, step)


def load_generator_triplets(path, n_states: Optional[int] = None,
                            n_actions: Optional[int] = None) -> ControlledGenerator:
    """Read a controlled generator from a CSV of ``action,row,col,rate`` rows.

    Off-diagonal rates must be nonnegative.  Diagonal entries may be
    omitted; each missing diagonal is filled with minus the row sum.
    A header line is allowed and skipped.
    """
    triplets = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or rec[0].strip().startswith("#"):
                continue
            try:
                a, i, j = int(rec[0]), int(rec[1]), int(rec[2])
                r = float(rec[3])
            except ValueError:
                continue  # header
            triplets.append((a, i, j, r))
    if not triplets:
        raise InvalidParameterError(f"no generator entries found in {path}")
    arr = np.array(triplets)
    na = int(arr[:, 0].max()) + 1 if n_actions is None else n_actions
    ns = int(max(arr[:, 1].max(), arr[:, 2].max())) + 1 if n_states is None else n_states
    mats = []
    for a in range(na):
        sel = arr[arr[:, 0] == a]
        m = sp.csr_matrix((sel[:, 3], (sel[:, 1].astype(int), sel[:, 2].astype(int))),
                          shape=(ns, ns))
        has_diag = np.zeros(ns, dtype=bool)
        has_diag[sel[sel[:, 1] == sel[:, 2]][:, 1].astype(int)] = True
        row_sums = np.asarray(m.sum(axis=1)).ravel()
        fill = np.where(has_diag, 0.0, -row_sums)
        m = (m + sp.diags(fill)).tocsr()
        off = m.tocoo()
        bad = off.data[(off.row != off.col) & (off.data < 0)]
        if bad.size:
            raise InvalidParameterError(
                f"negative off-diagonal rate {bad.min()} for action {a} in {path}")
        mats.append(RateMatrix(m))
    return ControlledGenerator(per_action=tuple(mats))
