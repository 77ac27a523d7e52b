"""Time discretization of the forward (Fokker-Planck / master) equation.

``assemble_forward_program`` checks the initial (x, y) law and keeps it
with the ``(dt, Q(t_k))`` pairs of ``AugmentedGenerator.steps`` as one
``ForwardProgram`` over time-indexed joint measures ``mu_k(x, y, a)``.
Its consumers share one implicit-Euler step over (product state, action),
``[z = z'] - dt Q_a(t_k)[z, z']``: ``propagate_forward`` steps ``fp.steps``
forward from ``fp.b_eq[:fp.n_z]`` under one policy and ``solve.bellman_sweep``
steps them backward, through ``implicit_step``; ``validate.enumerate_policies``
solves it densely for a batch of deterministic policies at a time.  The
sparse equality matrix ``ForwardProgram.a_eq`` is built only when an LP
solver reads it.  Controls are attached to the new time slice: the step
from ``t_k`` to ``t_{k+1}`` mixes actions with the policy (or measure) at
slice ``k + 1`` and evaluates the generator at the left endpoint ``t_k``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, InvalidParameterError, PropagationError
from .generator import AugmentedGenerator, check_initial_law
from .grids import UniformGrid, grid_points


@dataclass(frozen=True)
class DiscreteDistribution:
    """Nonnegative mass on a labeled product grid, summing to one.

    ``mass`` has one dimension per axis; ``coords[i]`` holds the grid
    values along ``axes[i]``.
    """

    axes: tuple[str, ...]
    coords: tuple[np.ndarray, ...]
    mass: np.ndarray

    def __post_init__(self):
        if len(self.axes) != len(self.coords) or self.mass.ndim != len(self.axes):
            raise InvalidParameterError("axes, coords, and mass dimensions disagree")
        if self.mass.shape != tuple(len(c) for c in self.coords):
            raise InvalidParameterError(
                f"mass shape {self.mass.shape} does not match coordinate lengths")

    def marginal(self, axes: Union[str, Sequence[str]]) -> "DiscreteDistribution":
        return marginal(self, axes)

    def values_1d(self) -> tuple[np.ndarray, np.ndarray]:
        """Support values and masses of a one-dimensional distribution."""
        if len(self.axes) != 1:
            raise InvalidParameterError(
                f"expected a 1-d distribution, got axes {self.axes}")
        return self.coords[0], self.mass

    def mean(self) -> float:
        v, m = self.values_1d()
        return float(v @ m)


def marginal(dist: DiscreteDistribution, axes: Union[str, Sequence[str]]) -> DiscreteDistribution:
    """Sum out every axis not requested; mass is preserved exactly."""
    if isinstance(axes, str):
        axes = (axes,)
    axes = tuple(axes)
    unknown = set(axes) - set(dist.axes)
    if unknown:
        raise InvalidParameterError(f"unknown axes {sorted(unknown)}; have {dist.axes}")
    keep = [i for i, name in enumerate(dist.axes) if name in axes]
    drop = tuple(i for i, name in enumerate(dist.axes) if name not in axes)
    mass = dist.mass.sum(axis=drop) if drop else dist.mass
    # reorder to the requested axis order
    kept_names = [dist.axes[i] for i in keep]
    order = [kept_names.index(name) for name in axes]
    if mass.ndim > 1:
        mass = np.transpose(mass, order)
    return DiscreteDistribution(axes=axes,
                                coords=tuple(dist.coords[keep[j]] for j in order),
                                mass=mass)


def distribution_from_samples(samples: np.ndarray, axis: str = "y") -> DiscreteDistribution:
    """Empirical distribution of scalar samples (equal weights, merged ties)."""
    values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    return DiscreteDistribution(axes=(axis,), coords=(values,),
                                mass=counts / counts.sum())


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Per-time distributions plus propagation diagnostics.

    Slices are over ``(x, y, a)`` for optimizer output or ``(x, y)`` once a
    policy has been folded in.  ``mass_deviation`` depends on the producer:
    ``propagate_forward`` records the change of total mass over each step
    (``n_t - 1`` entries), ``ForwardProgram.trajectory_from_solution`` the
    distance of each slice's total mass from one before it renormalizes
    (``n_t`` entries).  ``min_mass`` is the most negative entry seen.
    """

    times: np.ndarray
    slices: tuple[DiscreteDistribution, ...]
    mass_deviation: np.ndarray = field(default_factory=lambda: np.zeros(0))
    min_mass: float = 0.0

    @property
    def n_t(self) -> int:
        return len(self.slices)


def _format_17g(values) -> list[str]:
    """``%.17g`` of every entry, formatting each distinct bit pattern once
    (so ``-0.0`` stays ``-0``)."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.ravel().tolist()]


def write_grid_csv(path, header: Sequence[str], coords: Sequence[np.ndarray],
                   values: np.ndarray, newline: str):
    """Write one ``%.17g`` row per point of the ij-ordered product grid
    ``coords``: the point's coordinates, then its entry of ``values``.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on
    the meshgrid table, written one block per leading coordinate.
    """
    lead, *inner = [_format_17g(c) for c in coords]
    tails = ["".join(s + "," for s in point) for point in itertools.product(*inner)]
    cells = _format_17g(values)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for i, t in enumerate(lead):
            block = cells[i * len(tails):(i + 1) * len(tails)]
            fh.write("".join([f"{t},{tail}{v}{newline}" for tail, v in zip(tails, block)]))


def write_trajectory_csv(traj: TrajectoryDistribution, path, axes: Sequence[str]):
    """Write ``t,<axes...>,mass`` rows of the marginals on ``axes``."""
    axes = tuple(axes)
    margs = [sl.marginal(axes) for sl in traj.slices]
    write_grid_csv(path, ("t",) + axes + ("mass",), (traj.times,) + margs[0].coords,
                   np.stack([m.mass for m in margs]), newline="\r\n")


def implicit_step(stacked: sp.csr_matrix, weights: np.ndarray, dt: float,
                  rhs: np.ndarray, transpose: bool) -> np.ndarray:
    """One implicit-Euler step of the action mixture of a stacked generator.

    ``stacked`` holds ``Q_a`` row ``z`` in row ``z * n_a + a`` and
    ``weights[z, a]`` mixes the actions row-wise into
    ``Q_w = sum_a diag(w_a) Q_a``.  Solves ``(I - dt Q_w)^T m = rhs``
    (forward, ``transpose=True``) or ``(I - dt Q_w) V = rhs`` (backward);
    ``weights`` is ``(n, n_a)`` and ``rhs`` is ``(n,)``.
    """
    n, n_a = weights.shape
    mixing = sp.csr_matrix((weights.ravel(), np.arange(weights.size),
                            np.arange(0, weights.size + 1, n_a)), shape=(n, weights.size))
    q_w = mixing @ stacked
    system = (sp.identity(n, format="csr") - dt * (q_w.T if transpose else q_w)).tocsc()
    try:
        out = spla.spsolve(system, rhs)
    except RuntimeError as exc:
        raise PropagationError(f"implicit step failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise PropagationError("implicit step produced a non-finite solution")
    return out


def propagate_forward(fp: ForwardProgram, policy) -> TrajectoryDistribution:
    """Implicit-Euler propagation of the program's initial (x, y) law
    under a policy with one slice per grid time.

    Each step of ``fp.steps`` solves ``(I - dt Q^T) m_{k+1} = m_k`` from a
    copy of ``fp.b_eq[:fp.n_z]``, with ``Q`` the policy-mixed generator.
    No renormalization is applied; the change of total mass over each step
    and the most negative entry are reported as diagnostics.
    """
    n_x, n_y, n_z = fp.n_x, fp.n_y, fp.n_z
    probs = policy.probs
    if probs.shape != (fp.n_t, n_x, n_y, fp.n_a):
        raise InvalidParameterError(
            f"policy shape {probs.shape} does not match (n_t, n_x, n_y, n_a)")

    m = fp.b_eq[:n_z].copy()
    coords = (fp.x_values, fp.y_values)

    def as_slice(vec):
        return DiscreteDistribution(axes=("x", "y"), coords=coords,
                                    mass=vec.reshape(n_x, n_y))

    slices = [as_slice(m)]
    deviations = np.zeros(fp.n_t - 1)
    min_mass = float(m.min())
    for k, (dt, q) in enumerate(fp.steps):
        m_next = implicit_step(q, probs[k + 1].reshape(n_z, -1), dt, m, transpose=True)
        deviations[k] = abs(float(m_next.sum()) - float(m.sum()))
        min_mass = min(min_mass, float(m_next.min()))
        m = m_next
        slices.append(as_slice(m))
    return TrajectoryDistribution(times=fp.t_values, slices=tuple(slices),
                                  mass_deviation=deviations, min_mass=min_mass)


@dataclass(frozen=True)
class ForwardProgram:
    """The evolution constraints: the initial law ``b_eq[:n_z]`` and the
    ``(dt, Q_k)`` pairs in ``steps``.

    Decision variables are ``mu_k(x, y, a) >= 0`` flattened as
    ``column = ((k * n_z) + x * n_y + y) * n_a + a``.  Rows are the initial
    condition (one per product state) followed by one evolution row per
    (step, product state); ``b_eq`` is their right-hand side and ``a_eq``
    their matrix, built from ``steps`` on first read.
    """

    b_eq: np.ndarray
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
        """Reshape an optimal variable vector into per-time joint measures.

        Actions are labeled by index.  Each slice is renormalized to unit
        mass (solver drift is recorded in ``mass_deviation``) so downstream
        marginals satisfy the distribution invariants.
        """
        cube = np.asarray(x, dtype=float).reshape(self.n_t, self.n_x, self.n_y, self.n_a)
        coords = (self.x_values, self.y_values, np.arange(self.n_a, dtype=float))
        slices = []
        deviation = np.zeros(self.n_t)
        for k in range(self.n_t):
            m = cube[k]
            total = float(m.sum())
            deviation[k] = abs(total - 1.0)
            if total > 0:
                m = m / total
            slices.append(DiscreteDistribution(axes=("x", "y", "a"), coords=coords, mass=m))
        return TrajectoryDistribution(times=self.t_values, slices=tuple(slices),
                                      mass_deviation=deviation,
                                      min_mass=float(cube.min()))


def assemble_forward_program(gen: AugmentedGenerator, initial_xy: DiscreteDistribution,
                             t_grid: Union[UniformGrid, np.ndarray]) -> ForwardProgram:
    """The implicit-Euler evolution from ``initial_xy`` over ``t_grid``:
    its steps and initial law (``ForwardProgram.a_eq`` stacks them into
    equality constraints when read).  This is the one check of the (x, y)
    law: ``check_initial_law`` with shape ``(n_x, n_y)``."""
    times = grid_points(t_grid)
    n_t = len(times)
    if n_t < 2:
        raise AssemblyError(f"need at least two time points, got {n_t}")
    n_x, n_y, n_a = gen.base.dim, gen.y_grid.n, gen.base.n_actions
    law = check_initial_law(initial_xy.mass, (n_x, n_y))
    b_eq = np.zeros(n_x * n_y * n_t)
    b_eq[:n_x * n_y] = law.ravel()
    return ForwardProgram(b_eq=b_eq, n_t=n_t, n_x=n_x, n_y=n_y, n_a=n_a,
                          t_values=times, x_values=gen.base.state_points,
                          y_values=gen.y_grid.points, steps=tuple(gen.steps(times)))
