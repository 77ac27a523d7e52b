"""Time discretization of the forward (Fokker-Planck / master) equation.

The chain starts with its state law at cost zero, ``X_0 ~ nu`` and
``Y_0 = 0``.  ``assemble_forward_program`` checks ``nu`` and keeps it, in
cost cell 0, as ``fp.initial``, with the ``(dt, Q(t_k))`` pairs of
``AugmentedGenerator.steps``, as one ``ForwardProgram`` over time-indexed
joint measures ``mu_k(x, y, a)``.  Its consumers share one implicit-Euler
step over (product state, action), ``[z = z'] - dt Q_a(t_k)[z, z']``:
``propagate_forward`` steps ``fp.steps`` forward from ``fp.initial`` under
one policy and ``solve.bellman_sweep`` steps them backward, each step one
``bincount`` over the ``step_plan`` they all share (``ForwardProgram.plan``)
and one ``spsolve`` in ``implicit_step``; ``validate.enumerate_policies``
solves it densely for a batch of deterministic policies at a time.  The
program's LP layout, ``ForwardProgram.b_eq`` and ``a_eq``, is built on
first read.  Controls are attached to the new time slice: the step from ``t_k``
to ``t_{k+1}`` mixes actions with the policy (or measure) at slice ``k + 1``
and evaluates the generator at the left endpoint ``t_k``.

A trajectory (``TrajectoryDistribution``) is one mass array on the
program's grid: ``mass[k, x, y]`` from ``propagate_forward`` and
``mass[k, x, y, a]`` from ``ForwardProgram.trajectory_from_solution``.
Its ``mass_deviation[k]`` is ``|total mass of slice k - 1|`` from both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, InvalidParameterError, PropagationError
from .generator import AugmentedGenerator, check_initial_law
from .grids import UniformGrid, grid_points


@dataclass(frozen=True)
class TrajectoryDistribution:
    """A time-indexed measure as one array on the program's grid.

    ``mass`` is ``(n_t, n_x, n_y)`` from ``propagate_forward`` or
    ``(n_t, n_x, n_y, n_a)`` from ``ForwardProgram.trajectory_from_solution``:
    slice ``k`` at ``times[k]`` over the states ``x_values``, the cost cells
    ``y_values`` and, from a solve, the action indices.  ``mass_deviation[k]``
    is ``|total mass of slice k - 1|`` before any renormalization (``n_t``
    entries) and ``min_mass`` the most negative entry, from either producer.
    """

    times: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    mass: np.ndarray
    mass_deviation: np.ndarray
    min_mass: float

    def marginal(self, axis: str) -> np.ndarray:
        """The ``(n_t, n)`` per-slice marginal on ``axis``, ``"x"`` or ``"y"``."""
        if axis not in ("x", "y"):
            raise InvalidParameterError(f"unknown axis {axis!r}; have 'x' and 'y'")
        keep = 1 if axis == "x" else 2
        return self.mass.sum(axis=tuple(i for i in range(1, self.mass.ndim) if i != keep))


def step_plan(stacked: sp.csr_matrix, n_a: int) -> tuple:
    """Index plan of ``I - dt Q_w`` for the structure of a generator stacked
    over ``n_a`` actions: ``plan[transpose]`` holds each stored entry's row
    ``z * n_a + a`` and slot in the pattern (the mixed rows and the diagonal),
    the identity, and the CSC row indices and pointer of the system solved."""
    n = stacked.shape[1]
    rows = np.repeat(np.arange(stacked.shape[0]), np.diff(stacked.indptr))
    keys = np.concatenate([rows // n_a * n + stacked.indices, np.arange(n) * (n + 1)])
    pattern, slot = np.unique(keys, return_inverse=True)
    z, col = (i.astype(np.intc) for i in np.divmod(pattern, n))
    eye, slot, heads = (z == col).astype(float), slot[:rows.size], np.arange(n + 1)
    by_col = np.argsort(col, kind="stable")
    return ((rows, np.argsort(by_col)[slot], eye[by_col], z[by_col],
             np.searchsorted(col[by_col], heads).astype(np.intc)),
            (rows, slot, eye, col, np.searchsorted(z, heads).astype(np.intc)))


def implicit_step(stacked: sp.csr_matrix, weights: np.ndarray, dt: float,
                  rhs: np.ndarray, plan: tuple, transpose: bool) -> np.ndarray:
    """One implicit-Euler step of the action mixture of a stacked generator.

    ``stacked`` holds ``Q_a`` row ``z`` in row ``z * n_a + a`` and
    ``weights[z, a]`` mixes the actions row-wise into
    ``Q_w = sum_a diag(w_a) Q_a``.  Solves ``(I - dt Q_w)^T m = rhs``
    (forward, ``transpose=True``) or ``(I - dt Q_w) V = rhs`` (backward);
    ``weights`` is ``(n, n_a)``, ``rhs`` is ``(n,)``, ``plan`` is
    ``step_plan(stacked, n_a)``; a non-finite entry raises ``PropagationError``.
    """
    rows, slot, eye, index, ptr = plan[transpose]
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN are refused below
        mixed = weights.ravel()[rows] * stacked.data
        entries = eye - dt * np.bincount(slot, weights=mixed, minlength=eye.size)
    if not np.isfinite(entries).all():
        raise PropagationError("implicit step matrix has a non-finite entry")
    # without an exact zero, spsolve reads the plan's index arrays and leaves them as they are
    has_zero = not entries.all()
    system = sp.csc_matrix((entries, index, ptr), shape=(rhs.size, rhs.size), copy=has_zero)
    if has_zero:
        system.eliminate_zeros()  # in place, on copies of the plan's indices
    try:
        out = spla.spsolve(system, rhs)
    except RuntimeError as exc:
        raise PropagationError(f"implicit step failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise PropagationError("implicit step produced a non-finite solution")
    return out


def propagate_forward(fp: ForwardProgram, policy) -> TrajectoryDistribution:
    """Implicit-Euler propagation of the program's initial law
    under a policy with one slice per grid time.

    ``policy.check_cells`` refuses a policy off the program's cells or
    with a negative or NaN action probability before any step.  Each step
    of ``fp.steps`` solves ``(I - dt Q^T) m_{k+1} = m_k`` from
    ``fp.initial``, with ``Q`` the policy-mixed generator.  No
    renormalization is applied; each slice's distance from unit mass and
    the most negative entry are reported as diagnostics.
    """
    probs = policy.check_cells((fp.n_t, fp.n_x, fp.n_y, fp.n_a)).probs
    mass = np.empty((fp.n_t, fp.n_z))
    mass[0] = fp.initial
    for k, (dt, q) in enumerate(fp.steps):
        mass[k + 1] = implicit_step(q, probs[k + 1].reshape(fp.n_z, -1), dt, mass[k], fp.plan,
                                    transpose=True)
    return TrajectoryDistribution(times=fp.t_values, x_values=fp.x_values,
                                  y_values=fp.y_values,
                                  mass=mass.reshape(fp.n_t, fp.n_x, fp.n_y),
                                  mass_deviation=np.abs(mass.sum(axis=1) - 1.0),
                                  min_mass=float(mass.min()))


@dataclass(frozen=True)
class ForwardProgram:
    """The evolution constraints: the initial (x, y) law ``initial`` (n_z
    entries), the state law in cost cell 0, and the ``(dt, Q_k)`` pairs in
    ``steps``.

    Decision variables are ``mu_k(x, y, a) >= 0`` flattened as
    ``column = ((k * n_z) + x * n_y + y) * n_a + a``.  Rows are the initial
    condition (one per product state) followed by one evolution row per
    (step, product state); ``b_eq`` is their right-hand side and ``a_eq``
    their matrix, each built on first read.
    """

    initial: np.ndarray
    n_t: int
    n_x: int
    n_y: int
    n_a: int
    t_values: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    steps: tuple

    @property
    def n_z(self) -> int:
        return self.n_x * self.n_y

    @property
    def n_vars(self) -> int:
        return self.n_t * self.n_z * self.n_a

    @functools.cached_property
    def b_eq(self) -> np.ndarray:
        """The right-hand side: ``initial``, then zero on every evolution row."""
        b = np.zeros(self.n_t * self.n_z)
        b[:self.n_z] = self.initial
        return b

    @functools.cached_property
    def a_eq(self) -> sp.csr_matrix:
        """The sparse equality matrix, for an LP solver.

        Initial rows: ``sum_a mu_0(z, a) = initial(z)``.  Evolution rows
        for each step ``k`` and product state ``z``:

            sum_a mu_{k+1}(z, a) - dt sum_{z', a} Q_a(t_k)[z', z] mu_{k+1}(z', a)
                = sum_a mu_k(z, a)
        """
        ones = sp.kron(sp.identity(self.n_z), np.ones((self.n_a, 1)), format="csr")
        blocks = [[None] * self.n_t for _ in range(self.n_t)]
        blocks[0][0] = ones.T
        for k, (dt, q) in enumerate(self.steps):
            blocks[k + 1][k] = -ones.T
            blocks[k + 1][k + 1] = (ones - dt * q).T
        return sp.bmat(blocks, format="csr")

    @functools.cached_property
    def plan(self) -> tuple:
        """The ``step_plan`` of the one pattern of every step (``AugmentedGenerator.steps``)."""
        return step_plan(self.steps[0][1], self.n_a)

    def terminal_objective(self, weights_xy: np.ndarray) -> np.ndarray:
        """Objective vector placing ``weights_xy`` ``(n_x, n_y)`` on every
        terminal variable: ``weights_xy[x, y]`` multiplies ``mu_{T}(x, y, a)``
        for every action ``a``.
        """
        w = np.asarray(weights_xy, dtype=float)
        if w.shape != (self.n_x, self.n_y):
            raise AssemblyError(f"objective weights shape {w.shape} unusable")
        c = np.zeros(self.n_vars)
        c[(self.n_t - 1) * self.n_z * self.n_a:] = np.repeat(w.ravel(), self.n_a)
        return c

    def trajectory_from_solution(self, x: np.ndarray) -> TrajectoryDistribution:
        """The variable vector as one ``(n_t, n_x, n_y, n_a)`` measure, each
        slice of positive total renormalized to unit mass (the drift is
        kept in ``mass_deviation``) so that its marginals are laws; a slice
        of total <= 0 is kept as it is.  Actions are labeled by index.
        """
        cube = np.asarray(x, dtype=float).reshape(self.n_t, self.n_x, self.n_y, self.n_a)
        total = cube.sum(axis=(1, 2, 3), keepdims=True)
        return TrajectoryDistribution(times=self.t_values, x_values=self.x_values,
                                      y_values=self.y_values,
                                      mass=np.divide(cube, total, out=cube.copy(),
                                                     where=total > 0),
                                      mass_deviation=np.abs(total.ravel() - 1.0),
                                      min_mass=float(cube.min()))


def assemble_forward_program(gen: AugmentedGenerator, initial_x: np.ndarray,
                             t_grid: Union[UniformGrid, np.ndarray]) -> ForwardProgram:
    """The implicit-Euler evolution over ``t_grid`` from the state law
    ``initial_x`` at cost zero: its steps and initial law
    (``ForwardProgram.a_eq`` stacks them into equality constraints when
    read).  The state law is checked by ``check_initial_law``."""
    times = grid_points(t_grid)
    n_t = len(times)
    if n_t < 2:
        raise AssemblyError(f"need at least two time points, got {n_t}")
    n_x, n_y, n_a = gen.base.dim, gen.y_grid.n, gen.base.n_actions
    initial = np.zeros(n_x * n_y)
    initial[::n_y] = check_initial_law(initial_x, n_x)
    return ForwardProgram(initial=initial, n_t=n_t, n_x=n_x, n_y=n_y, n_a=n_a,
                          t_values=times, x_values=gen.base.state_points,
                          y_values=gen.y_grid.points, steps=tuple(gen.steps(times)))
