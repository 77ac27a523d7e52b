"""Sparse LP core, the forward LP's dual sweep and the risk-aware outer loop.

The LP solver is a Mehrotra predictor-corrector interior-point method on
the homogeneous self-dual embedding of the standard form min c'x s.t.
Ax = b, x >= 0, the only form it takes.  Primal-dual residuals and the
relative duality gap are tracked per iteration and reported first-class;
infeasibility and unboundedness are detected from the embedding variables.

Every LP over the forward-equation polytope is a dynamic program on the
augmented chain whose values are its dual: ``_solve_forward_lp`` solves it
by a backward Howard sweep and certifies the pair with the IPM's stop test.

On top of it sit the two optimizers over the forward-equation polytope:
a direct solve for risks linear in the terminal measure, and a
conditional-gradient (Frank-Wolfe) loop for smooth nonlinear risks, plus
extraction of the time-state-cost Markov policy from an optimal measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, InvalidParameterError, RiskflowError
from .forward import ForwardProgram, TrajectoryDistribution, implicit_step
from .risk import RiskSpec, evaluate, gradient_at_values, merge_support, terminal_totals

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 200
MASS_FLOOR = 1e-12
MAX_FW_ITER = 50  # Frank-Wolfe rounds
FW_TOL = 1e-8  # Frank-Wolfe gap that ends the loop
STEP_SCALE = 0.99995  # fraction of the distance to the boundary taken per step
# largest log of an entropic LP weight: optimize_linear_risk shifts the
# weights so that none exceeds exp(15), which keeps them and the sweep's
# values far inside float64's range at any theta.  The value dates from the
# interior-point solve_lp, whose infeasibility test fired on feasible programs
# from about 30 on; no command runs it now, but the tests check the sweep
# against it on these weights.
ENTROPIC_LOG_SPAN = 15.0
DP_TIE_TOL = 1e-10  # relative margin of a Bellman step's action switches and ties
POLICY_MASS_TOL = 1e-10  # largest |sum_a probs - 1| of a valid policy cell


class LpFailureError(RiskflowError):
    """The LP terminated without a usable optimum."""

    def __init__(self, status: str, message: str = ""):
        super().__init__(message or f"linear program terminated with status {status!r}")
        self.status = status


@dataclass(frozen=True)
class LpProblem:
    """min c'x subject to A x = b and x >= 0; every variable is nonnegative."""

    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        m, n = self.a_eq.shape
        if self.b_eq.shape != (m,) or self.c.shape != (n,):
            raise AssemblyError(
                f"LP dimensions disagree: A is {self.a_eq.shape}, "
                f"b is {self.b_eq.shape}, c is {self.c.shape}")
        if np.diff(self.a_eq.indptr).min() < 1:
            raise AssemblyError("every constraint row needs at least one nonzero")


@dataclass(frozen=True)
class LpSolution:
    primal: np.ndarray
    dual: np.ndarray
    primal_objective: float
    dual_objective: float
    duality_gap: float  # |primal - dual| / (1 + |primal| + |dual|), the stop test's
    iterations: int
    status: str  # optimal | infeasible | unbounded | max_iter | failed
    history: tuple = ()


def _normal_solver(a_csr, a_t_csr, d_vec):
    """Factor the positive definite A diag(d) A' by SuperLU in symmetric mode
    (diagonal pivots), escalating a regularization on breakdown."""
    scaled = a_csr.copy()
    scaled.data = scaled.data * d_vec[a_csr.indices]
    m_mat = (scaled @ a_t_csr).tocsc()
    reg = 0.0
    base = abs(m_mat.diagonal()).mean() or 1.0
    for _ in range(4):
        try:
            mat = m_mat if reg == 0.0 else m_mat + reg * sp.identity(m_mat.shape[0], format="csc")
            return spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options=dict(SymmetricMode=True)).solve
        except RuntimeError:
            reg = base * 1e-12 if reg == 0.0 else reg * 1e4
    raise LpFailureError("failed", "normal-equation factorization failed")


def _dot(a, b) -> float:
    """Inner product in numpy's own summation order: BLAS ``ddot`` splits
    long vectors by thread count, which would make results depend on it."""
    return float(np.add.reduce(a * b))


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


def _max_step(vals, dirs):
    neg = dirs < 0
    if not neg.any():
        return np.inf
    return float(np.min(-vals[neg] / dirs[neg]))


def solve_lp(problem: LpProblem, tol_gap: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> LpSolution:
    """Predictor-corrector path following on the self-dual embedding;
    deterministic for identical inputs.

    ``status == "optimal"`` certifies relative primal/dual residuals and
    duality gap at or below ``tol_gap``.
    """
    a_csr = problem.a_eq.tocsr()
    b = np.asarray(problem.b_eq, dtype=float)
    c = np.asarray(problem.c, dtype=float)
    m, n = a_csr.shape
    a_t = a_csr.T.tocsr()
    x = np.ones(n)
    y = np.zeros(m)
    z = np.ones(n)
    tau, kappa = 1.0, 1.0
    norm_b, norm_c = _norm(b), _norm(c)
    status = "max_iter"
    history = []
    iteration = 0

    def scaled_report():
        xs, ys, zs = x / tau, y / tau, z / tau
        pobj = _dot(c, xs)
        dobj = _dot(b, ys)
        rho_p = _norm(a_csr @ xs - b) / (1.0 + norm_b)
        rho_d = _norm(a_t @ ys + zs - c) / (1.0 + norm_c)
        rho_g = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return xs, ys, zs, pobj, dobj, rho_p, rho_d, rho_g

    while True:
        r_p = b * tau - a_csr @ x
        r_d = c * tau - a_t @ y - z
        r_g = _dot(c, x) - _dot(b, y) + kappa
        mu = (_dot(x, z) + tau * kappa) / (n + 1)

        xs, ys, zs, pobj, dobj, rho_p, rho_d, rho_g = scaled_report()
        history.append((pobj, dobj, rho_p, rho_d, rho_g, mu))
        if rho_p <= tol_gap and rho_d <= tol_gap and rho_g <= tol_gap:
            status = "optimal"
            break
        # infeasibility / unboundedness via the embedding scale collapsing
        hp = _norm(r_p) / max(1.0, norm_b)
        hd = _norm(r_d) / max(1.0, norm_c)
        hg = abs(r_g) / max(1.0, norm_b + norm_c)
        if ((hp <= tol_gap and hd <= tol_gap and hg <= tol_gap
                and tau <= tol_gap * max(1.0, kappa))
                or (mu <= tol_gap * max(1.0, kappa) and tau <= tol_gap * min(1.0, kappa))):
            status = "infeasible" if _dot(b, y) > tol_gap else "unbounded"
            break
        if iteration >= max_iter:
            status = "max_iter"
            break
        iteration += 1

        d_vec = x / z
        try:
            solve_normal = _normal_solver(a_csr, a_t, d_vec)
        except LpFailureError:
            status = "failed"
            break

        def sym_solve(r1, r2):
            rhs = r2 + a_csr @ (d_vec * r1)
            v = solve_normal(rhs)
            u = d_vec * (a_t @ v - r1)
            return u, v

        def direction(eta, rxs, rtk):
            u, v = sym_solve(eta * r_d - rxs / x, eta * r_p)
            d_tau = ((eta * r_g + rtk / tau - (_dot(b, v) - _dot(c, u)))
                     / (kappa / tau + (_dot(b, q_vec) - _dot(c, p_vec))))
            d_x = u + p_vec * d_tau
            d_y = v + q_vec * d_tau
            d_z = (rxs - z * d_x) / x
            d_kappa = (rtk - kappa * d_tau) / tau
            return d_x, d_y, d_z, d_tau, d_kappa

        p_vec, q_vec = sym_solve(c, b)
        # predictor (affine scaling)
        aff = direction(1.0, -x * z, -tau * kappa)
        if not all(np.all(np.isfinite(np.atleast_1d(d))) for d in aff):
            status = "failed"
            break
        dxa, dya, dza, dta, dka = aff
        alpha_aff = min(1.0, _max_step(x, dxa), _max_step(z, dza),
                        _max_step(np.array([tau]), np.array([dta])),
                        _max_step(np.array([kappa]), np.array([dka])))
        mu_aff = ((_dot(x + alpha_aff * dxa, z + alpha_aff * dza)
                   + (tau + alpha_aff * dta) * (kappa + alpha_aff * dka)) / (n + 1))
        gamma = min(1.0, max(0.0, (mu_aff / mu) ** 3))
        # corrector
        rxs = gamma * mu - x * z - dxa * dza
        rtk = gamma * mu - tau * kappa - dta * dka
        d_x, d_y, d_z, d_tau, d_kappa = direction(1.0 - gamma, rxs, rtk)
        if not np.all(np.isfinite(d_x)) or not math.isfinite(d_tau):
            status = "failed"
            break
        alpha = STEP_SCALE * min(1.0 / STEP_SCALE, _max_step(x, d_x), _max_step(z, d_z),
                                 _max_step(np.array([tau]), np.array([d_tau])),
                                 _max_step(np.array([kappa]), np.array([d_kappa])))
        x = x + alpha * d_x
        y = y + alpha * d_y
        z = z + alpha * d_z
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa

    xs, ys, zs, pobj, dobj, _, _, rho_g = scaled_report()
    return LpSolution(primal=xs, dual=ys, primal_objective=pobj, dual_objective=dobj,
                      duality_gap=rho_g, iterations=iteration, status=status,
                      history=tuple(history))


# ---------------------------------------------------------------------------
# Markov policies


@dataclass(frozen=True)
class MarkovPolicy:
    """Distribution over actions for every (time, state, cost) cell.

    ``probs[k, x, y, a]`` is the conditional action probability at time
    slice ``k``; ``mask[k, x, y]`` is False where the cell carried no mass
    and the uniform fallback was substituted.  The propagation step from
    ``t_k`` to ``t_{k+1}`` reads slice ``k + 1`` (controls sit on the new
    slice), so slice 0 never influences the dynamics.
    """

    probs: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 4 or self.mask.shape != self.probs.shape[:3]:
            raise InvalidParameterError("policy arrays have inconsistent shapes")

    def validate(self) -> "MarkovPolicy":
        """Raise unless every cell's action probabilities are >= 0 and sum
        to 1 within ``POLICY_MASS_TOL``."""
        dev = np.abs(self.probs.sum(axis=-1) - 1.0).max()
        if not dev <= POLICY_MASS_TOL:  # NaN fails too
            raise InvalidParameterError(f"conditional action mass off by {dev}")
        return self.check_cells(self.probs.shape)

    def check_cells(self, shape: tuple) -> "MarkovPolicy":
        """Raise ``InvalidParameterError`` unless the policy has the cells
        ``shape``, ``(n_t, n_x, n_y, n_a)``, and no negative or NaN action
        probability: the checks of every engine that steps a policy.  A
        cell summing to less than one passes."""
        if self.probs.shape != tuple(shape):
            raise InvalidParameterError(f"policy cells {self.probs.shape} are not "
                                        f"(n_t, n_x, n_y, n_a) = {tuple(shape)}")
        bad = self.probs[~(self.probs >= 0)]  # NaN fails too
        if bad.size:
            raise InvalidParameterError(f"negative or NaN action probability {bad[0]}")
        return self

    @classmethod
    def uniform(cls, n_t: int, n_x: int, n_y: int, n_a: int) -> "MarkovPolicy":
        return cls(probs=np.full((n_t, n_x, n_y, n_a), 1.0 / n_a),
                   mask=np.ones((n_t, n_x, n_y), dtype=bool))

    @classmethod
    def from_actions(cls, actions: np.ndarray, n_a: int) -> "MarkovPolicy":
        """Deterministic policy from an integer table ``actions[k, x, y]``."""
        actions = np.asarray(actions)
        probs = np.zeros(actions.shape + (n_a,))
        np.put_along_axis(probs, actions[..., None], 1.0, axis=-1)
        return cls(probs=probs, mask=np.ones(actions.shape, dtype=bool))

    def strictness(self) -> float:
        """Fraction of reachable cells putting >= 0.99 on one action."""
        peak = self.probs.max(axis=-1)
        reach = self.mask
        if not reach.any():
            return 1.0
        return float((peak[reach] >= 0.99).mean())


def extract_policy(measure: np.ndarray, mass_floor: float = MASS_FLOOR) -> MarkovPolicy:
    """Conditional action laws of a joint measure ``measure[k, x, y, a]``.

    Cells whose total mass is at or below ``mass_floor`` get the uniform
    fallback and are excluded from the reachability mask.
    """
    if measure.ndim != 4:
        raise InvalidParameterError(
            f"need a measure over (t, x, y, a), got shape {measure.shape}")
    cell = np.maximum(measure, 0.0)
    tot = cell.sum(axis=-1)
    mask = tot > mass_floor
    probs = np.divide(cell, tot[..., None], out=np.full(cell.shape, 1.0 / cell.shape[-1]),
                      where=mask[..., None])
    return MarkovPolicy(probs=probs, mask=mask)


# ---------------------------------------------------------------------------
# Backward Bellman sweep: the forward program's dual


def _implicit_bellman_step(stacked: sp.csr_matrix, plan, rhs: np.ndarray, dt: float,
                           max_iter: int):
    """Solve ``V = min_a [rhs_a + dt Q_a V]`` row by row by Howard's policy
    iteration in at most ``max_iter`` evaluations; ``stacked`` is the
    generator stacked over actions (as ``ControlledGenerator.stacked``),
    ``plan`` its ``forward.step_plan`` and ``rhs`` is ``(n, n_a)``.

    Each evaluation solves ``(I - dt Q_pi) V = rhs_pi`` for a deterministic
    policy ``pi``.  ``I - dt Q_pi`` is an M-matrix, so every improvement
    lowers ``V`` componentwise and the loop ends at the least solution.  A
    state switches action only when that lowers its value by more than
    ``DP_TIE_TOL |V(z)|``: exact ties would cycle.  Returns the values, the
    policy, the ties (actions within that margin of the best) and the count.
    """
    n, n_a = rhs.shape
    rows = np.arange(n)

    def candidates(val):
        return rhs + dt * (stacked @ val).reshape(n, n_a)

    pol = candidates(rhs.min(axis=1)).argmin(axis=1)
    for rounds in range(1, max_iter + 1):
        val = implicit_step(stacked, np.eye(n_a)[pol], dt, rhs[rows, pol], plan, transpose=False)
        cand = candidates(val)
        best = cand.min(axis=1)
        slack = DP_TIE_TOL * np.abs(val)
        switch = best < cand[rows, pol] - slack
        if rounds == max_iter or not switch.any():
            break
        pol = np.where(switch, cand.argmin(axis=1), pol)
    return val, pol, cand <= (best + slack)[:, None], rounds


def bellman_sweep(steps, plan, terminal: np.ndarray, stage, max_iter: int = DEFAULT_MAX_ITER):
    """Backward sweep ``V_k = min_a [stage[k]_a + V_{k+1} + dt Q_a(t_k) V_k]``
    from ``V_T = terminal`` over the ``(dt, Q_k)`` pairs of ``steps``, sharing ``plan``.
    Returns the values ``(n_t, n)``, the per-step actions and tie masks of
    ``_implicit_bellman_step`` and the number of policy evaluations.
    """
    values = np.tile(terminal.astype(float), (len(steps) + 1, 1))
    actions, ties, evaluations = [None] * len(steps), [None] * len(steps), 0
    for k in range(len(steps) - 1, -1, -1):
        dt, stacked = steps[k]
        values[k], actions[k], ties[k], rounds = _implicit_bellman_step(
            stacked, plan, values[k + 1][:, None] + stage[k], dt, max_iter)
        evaluations += rounds
    return values, np.array(actions), np.array(ties), evaluations


# ---------------------------------------------------------------------------
# Risk-aware optimization over the forward-equation polytope


@dataclass
class SolveReport:
    """Optimal value plus the certificates and diagnostics around it."""

    rho_star: float
    duality_gap: float
    iterations: int
    status: str
    stationarity_w1: float
    boundary_mass: float
    strictness_fraction: float
    mass_deviation_max: float
    min_mass: float
    terminal_cost_mean: float = float("nan")
    fw_iterations: Optional[int] = None
    fw_gap: Optional[float] = None
    policy: Optional[MarkovPolicy] = None
    trajectory: Optional[TrajectoryDistribution] = None

    def to_json_dict(self) -> dict:
        """Every field but the policy and the trajectory, where it is set."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("policy", "trajectory")
                and getattr(self, f.name) is not None}


def _solve_report(fp, primal, status, duality_gap, iterations, mass_floor,
                  rho_star, fw_iterations=None, fw_gap=None):
    """Diagnose the measure ``primal`` and its policy; the status, gap and
    iteration count are reported as given."""
    from .validate import wasserstein1  # deferred: validate imports solve

    traj = fp.trajectory_from_solution(primal)
    policy = extract_policy(traj.mass, mass_floor=mass_floor)
    y_prev, y_last = traj.marginal("y")[-2:]
    return SolveReport(
        rho_star=rho_star,
        duality_gap=duality_gap,
        iterations=iterations,
        status=status,
        stationarity_w1=wasserstein1((fp.y_values, y_last), (fp.y_values, y_prev)),
        boundary_mass=float(y_last[-1]),
        strictness_fraction=policy.strictness(),
        mass_deviation_max=float(traj.mass_deviation.max()),
        min_mass=traj.min_mass,
        terminal_cost_mean=float(fp.y_values @ y_last),
        fw_iterations=fw_iterations,
        fw_gap=fw_gap,
        policy=policy,
        trajectory=traj,
    )


def _solve_forward_lp(fp: ForwardProgram, weights: np.ndarray, tol_gap: float,
                      max_iter: int, relative: bool = False) -> LpSolution:
    """Minimize ``terminal_objective(weights)`` over the forward polytope.

    The sweep's values, stacked as ``(V_0; V_0, ..., V_{T-1})`` in the row
    order of ``fp.a_eq``, are the dual; propagating the policy that mixes
    each cell's ties uniformly gives the primal.  The status is ``optimal``
    when ``solve_lp``'s relative primal residual, dual infeasibility and
    gap are within ``tol_gap`` (times an optimum below 1 when
    ``relative``), else ``max_iter``.  Both residuals are formed step by
    step from ``fp.steps``: the primal one from the forward equation, the
    dual one from the Bellman inequality
    ``V_k <= V_{k+1} + dt Q_a(t_k) V_k`` at every ``(z, a)``.
    """
    values, _, ties, evaluations = bellman_sweep(
        fp.steps, fp.plan, np.ravel(weights), np.zeros((fp.n_t - 1, 1, fp.n_a)), max_iter)
    m = fp.b_eq[:fp.n_z]
    mu = [np.outer(m, np.full(fp.n_a, 1.0 / fp.n_a))]
    r_p, r_d = [mu[0].sum(axis=1) - m], [np.zeros(fp.n_z * fp.n_a)]
    for k, ((dt, q), tie) in enumerate(zip(fp.steps, ties)):
        mix = tie / tie.sum(axis=1, keepdims=True)
        m = implicit_step(q, mix, dt, m, fp.plan, transpose=True)
        mu.append(m[:, None] * mix)
        r_p.append(mu[k + 1].sum(axis=1) - dt * (q.T @ mu[k + 1].ravel())
                   - mu[k].sum(axis=1))
        r_d.append(np.repeat(values[k] - values[k + 1], fp.n_a) - dt * (q @ values[k]))
    mu = np.ravel(mu)
    lam = np.concatenate([values[0], values[:-1].ravel()])
    c = fp.terminal_objective(weights)
    pobj, dobj = _dot(c, mu), _dot(fp.b_eq, lam)
    rho_p = _norm(np.concatenate(r_p)) / (1.0 + _norm(fp.b_eq))
    rho_d = _norm(np.maximum(np.concatenate(r_d), 0.0)) / (1.0 + _norm(c))
    rho_g = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    tol = tol_gap * min(1.0, pobj) if relative else tol_gap
    status = "optimal" if all(r <= tol for r in (rho_p, rho_d, rho_g)) else "max_iter"
    return LpSolution(primal=mu, dual=lam, primal_objective=pobj, dual_objective=dobj,
                      duality_gap=rho_g, iterations=evaluations, status=status)


def optimize_linear_risk(fp: ForwardProgram, spec: RiskSpec,
                         v: Optional[np.ndarray] = None,
                         tol_gap: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         mass_floor: float = MASS_FLOOR) -> SolveReport:
    """Minimize a measure-linear risk of the terminal cost distribution.

    The objective places the risk coefficients (``y + v(x)`` for the
    expectation, ``exp(theta (y + v(x) - top))`` for the entropic risk)
    on the terminal-slice variables.  The shift ``top`` is the smallest cost
    on the grid, raised just enough that no weight exceeds
    ``exp(ENTROPIC_LOG_SPAN)``, which keeps the LP well scaled for any
    ``theta``.  The reported ``rho_star`` is ``top + log(optimum) / theta``;
    an optimum below 1 is certified with the gap tolerance scaled by it, so
    that ``optimal`` bounds the gap's share of the error in ``rho_star`` by
    about ``3 tol_gap / theta`` either way.
    """
    if not spec.is_linear:
        raise InvalidParameterError(
            f"optimize_linear_risk needs a measure-linear risk, got {spec.kind!r}")
    totals = terminal_totals(v, fp.n_x, fp.y_values).reshape(fp.n_x, fp.n_y)
    if spec.kind != "entropic" or spec.theta == 0:
        sol = _solve_forward_lp(fp, totals, tol_gap, max_iter)
        return _solve_report(fp, sol.primal, sol.status, sol.duality_gap, sol.iterations,
                             mass_floor, sol.primal_objective)
    theta = spec.theta
    top = max(float(totals.min()), float(totals.max()) - ENTROPIC_LOG_SPAN / theta)
    sol = _solve_forward_lp(fp, np.exp(theta * (totals - top)), tol_gap, max_iter,
                            relative=True)
    return _solve_report(fp, sol.primal, sol.status, sol.duality_gap, sol.iterations,
                         mass_floor, top + math.log(sol.primal_objective) / theta)


def _terminal_law(totals: np.ndarray, cube: np.ndarray):
    """The law of the total costs ``totals`` (one per (x, y) cell) under the
    terminal slice ``cube`` (cells, actions) of a measure: each cell's mass
    summed over the actions and cut to zero when negative, over the slice's
    total when that is positive, merged by ``merge_support`` on the cells
    that carry mass (on every cell when none does)."""
    total = cube.sum()
    mass = np.maximum(cube.sum(axis=-1), 0.0) / (total if total > 0 else 1.0)
    hit = mass != 0.0
    return merge_support(totals[hit], mass[hit]) if hit.any() else merge_support(totals, mass)


def optimize_smooth_risk(fp: ForwardProgram, spec: RiskSpec,
                         v: Optional[np.ndarray] = None,
                         max_fw_iter: int = MAX_FW_ITER, tol: float = FW_TOL,
                         tol_gap: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER,
                         mass_floor: float = MASS_FLOOR) -> SolveReport:
    """Conditional-gradient minimization of a smooth risk over the polytope.

    Each round linearizes the risk at the current terminal cost
    distribution, minimizes it over the polytope for the descent point, and
    mixes with step ``2 / (k + 2)``; it stops when the Frank-Wolfe gap drops
    to ``tol``.
    When that gap is reached against a certified descent point, the status
    is ``optimal`` and the iterate it certifies is returned.  Otherwise the
    status is ``max_iter`` and the best iterate seen is returned (the risk
    surface need not be convex in the measure).  The report carries the
    last subproblem's duality gap and the evaluations summed over all.
    """
    totals = terminal_totals(v, fp.n_x, fp.y_values)
    grid = totals.reshape(fp.n_x, fp.n_y)
    # start from the vertex optimal for the plain expectation
    sol = _solve_forward_lp(fp, grid, tol_gap, max_iter)
    mu = sol.primal
    total_iters = sol.iterations
    best_val, best_mu = math.inf, mu
    gap = math.inf
    steps = 0
    for fw_iter in range(1, max_fw_iter + 1):
        law = _terminal_law(totals, mu.reshape(fp.n_t, -1, fp.n_a)[-1])
        val = evaluate(spec, *law)
        if val < best_val:
            best_val, best_mu = val, mu
        grad_xy = gradient_at_values(spec, *law, grid)
        sol = _solve_forward_lp(fp, grad_xy, tol_gap, max_iter)
        total_iters += sol.iterations
        gap = _dot(fp.terminal_objective(grad_xy), mu - sol.primal)
        steps = fw_iter
        if gap <= tol:
            break
        step = 2.0 / ((fw_iter - 1) + 2.0)
        mu = (1.0 - step) * mu + step * sol.primal
    status = "optimal" if gap <= tol and sol.status == "optimal" else "max_iter"
    if status == "optimal":
        best_val, best_mu = val, mu
    else:
        final = evaluate(spec, *_terminal_law(totals, mu.reshape(fp.n_t, -1, fp.n_a)[-1]))
        if final < best_val:
            best_val, best_mu = final, mu
    return _solve_report(fp, best_mu, status, sol.duality_gap, total_iters,
                         mass_floor, best_val, fw_iterations=steps, fw_gap=gap)
