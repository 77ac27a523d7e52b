"""Configuration, problem-family construction, and the command line.

Subcommands: ``solve`` runs the optimizer and writes report.json plus CSV
marginal/policy tables; ``validate`` simulates the chain under a previously
extracted policy and cross-checks it against the solver's terminal cost
marginal; ``oracle`` enumerates deterministic policies on tiny instances and
cross-checks them with the optimizer ``solve`` runs (``_optimize``).

The JSON config schema and the CSV column orders are documented in the
README; unknown keys are rejected with their full key path.  This module
owns the grid-table format: ``write_grid_csv`` writes the tables and
``_read_grid_csv`` reads them back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, InvalidParameterError, PolicyEnumerationError,
                     PropagationError, RiskflowError)
from .forward import ForwardProgram, TrajectoryDistribution, assemble_forward_program
from .generator import (ControlledGenerator, augment_generator,
                        discretize_circle_diffusion, load_generator_triplets)
from .grids import build_circle_grid, build_uniform_grid
from .risk import KINDS, RiskSpec, wasserstein1
from .solve import (DEFAULT_MAX_ITER, DEFAULT_TOL, FW_TOL, MASS_FLOOR, MAX_FW_ITER,
                    MarkovPolicy, SolveReport, optimize_linear_risk,
                    optimize_smooth_risk)
from .validate import McConfig, enumerate_policies, sample_spread, simulate_paths

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_MAX_ITER = 4
EXIT_IO = 5

# Samples per block of mc_samples.csv.  Blocks of 2 ** 14 Python floats
# raised the peak RSS of circle15_semidev by about 2 MB; these do not.
MC_SAMPLES_BLOCK = 2 ** 10


@dataclass(frozen=True)
class SolverOptions:
    tol_gap: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    max_fw_iter: int = MAX_FW_ITER
    fw_tol: float = FW_TOL
    mass_floor: float = MASS_FLOOR


@dataclass(frozen=True)
class ProblemSpec:
    """Fully resolved problem description.

    The ``circle_follower`` defaults are the reference pursuit instance:
    21 points on every axis, horizon 25, actions in [-0.5, 0.5], sigma 1,
    movement cost weight 2, discount 0.25, entropic parameter 1, and a
    point-mass start at angle 0 with cost ceiling 2.5.
    """

    family: str = "circle_follower"
    sigma: float = 1.0
    gamma: float = 2.0
    alpha: float = 0.25
    a_min: float = -0.5
    a_max: float = 0.5
    y_max: Optional[float] = None
    horizon: float = 25.0
    n_x: int = 21
    n_y: int = 21
    n_a: int = 21
    n_t: int = 21
    risk_kind: str = "entropic"
    theta: float = 1.0
    beta: float = 0.0
    nu_point: Optional[int] = 0
    nu_vector: Optional[tuple] = None
    terminal_cost: Optional[tuple] = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    validation: McConfig = field(default_factory=McConfig)
    # custom family inputs
    generator_file: Optional[str] = None
    n_states: Optional[int] = None
    actions: Optional[tuple] = None
    cost_constant: Optional[float] = None
    cost_table: Optional[tuple] = None

    @property
    def y_max_resolved(self) -> float:
        if self.y_max is not None:
            return self.y_max
        return 2.0 + self.gamma * max(self.a_min ** 2, self.a_max ** 2)

    @property
    def risk(self) -> RiskSpec:
        return RiskSpec(kind=self.risk_kind, theta=self.theta, beta=self.beta)


# One row per config key: JSON key path -> (ProblemSpec attribute, value
# type, inclusive lower bound or None).  ``solver.*`` and ``validation.*``
# attributes live on ``SolverOptions`` and ``McConfig``; a type in a one-element
# tuple is a list of that type.
_FIELDS = {
    "family": ("family", str, None),
    "sigma": ("sigma", float, None),
    "gamma": ("gamma", float, None),
    "alpha": ("alpha", float, 0.0),
    "a_min": ("a_min", float, None),
    "a_max": ("a_max", float, None),
    "y_max": ("y_max", float, None),
    "horizon": ("horizon", float, None),
    "n_x": ("n_x", int, None),
    "n_y": ("n_y", int, 2),
    "n_a": ("n_a", int, None),
    "n_t": ("n_t", int, 2),
    "terminal_cost": ("terminal_cost", (float,), 0.0),
    "generator_file": ("generator_file", str, None),
    "n_states": ("n_states", int, 1),
    "actions": ("actions", (float,), None),
    "risk.kind": ("risk_kind", str, None),
    "risk.theta": ("theta", float, 0.0),
    "risk.beta": ("beta", float, 0.0),
    "nu.point": ("nu_point", int, 0),
    "nu.vector": ("nu_vector", (float,), 0.0),
    "cost.constant": ("cost_constant", float, 0.0),
    "cost.table": ("cost_table", ((float,),), 0.0),
    "solver.tol_gap": ("solver.tol_gap", float, 0.0),
    "solver.max_iter": ("solver.max_iter", int, 1),
    "solver.max_fw_iter": ("solver.max_fw_iter", int, 1),
    "solver.fw_tol": ("solver.fw_tol", float, 0.0),
    "solver.mass_floor": ("solver.mass_floor", float, 0.0),
    "validation.paths": ("validation.n_paths", int, 1),
    "validation.seed": ("validation.seed", int, 0),
}
_SECTIONS = {path.split(".")[0] for path in _FIELDS if "." in path}


def _convert(path: str, value, kind, lower):
    """Check one JSON value strictly against its row of ``_FIELDS``."""
    def bad(msg):
        raise ConfigError(f"config key {path}: {msg}, got {value!r}")

    if isinstance(kind, tuple):
        if not isinstance(value, list):
            bad("expected a list")
        return tuple(_convert(path, v, kind[0], lower) for v in value)
    if kind is str:
        return value if isinstance(value, str) else bad("expected a string")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        bad("expected a number")
    if not abs(value) <= sys.float_info.max:  # inf, nan, or an int beyond floats
        bad("must be finite")
    if kind is int and value != int(value):
        bad("expected a whole number")
    if lower is not None and value < lower:
        bad("must be nonnegative" if lower == 0 else f"must be at least {lower}")
    return kind(value)


def _build_spec(raw: dict) -> ProblemSpec:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    flat = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            if "." in key:  # only the keys inside a section are dotted
                raise ConfigError(f"unknown config key '{key}'")
            flat[key] = value
        elif value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {key}: expected an object")
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
    kw, options = {}, {"solver": {}, "validation": {}}
    for path, value in flat.items():
        if path not in _FIELDS:
            raise ConfigError(f"unknown config key '{path}'")
        if value is not None:  # null means the default
            attr, kind, lower = _FIELDS[path]
            section, _, name = attr.rpartition(".")
            (options[section] if section else kw)[name] = _convert(path, value, kind, lower)
    if "nu_vector" in kw:
        kw.setdefault("nu_point", None)
    spec = ProblemSpec(**kw, solver=SolverOptions(**options["solver"]),
                       validation=McConfig(**options["validation"]))
    _check_spec(spec)
    return spec


def _check_spec(spec: ProblemSpec):
    """What no single row of ``_FIELDS`` can say: choices, upper bounds,
    family-specific inputs, and checks across keys."""
    def bad(path, msg):
        raise ConfigError(f"config key {path}: {msg}")

    if spec.family not in ("circle_follower", "custom"):
        bad("family", f"must be circle_follower or custom, got {spec.family!r}")
    if spec.risk_kind not in KINDS:
        bad("risk.kind", f"must be one of {KINDS}, got {spec.risk_kind!r}")
    if spec.beta > 1.0:
        bad("risk.beta", f"must be in [0, 1], got {spec.beta}")
    if spec.horizon <= 0:
        bad("horizon", f"must be positive, got {spec.horizon}")
    if spec.family == "circle_follower":
        if spec.sigma <= 0:
            bad("sigma", f"must be positive, got {spec.sigma}")
        if spec.gamma < 0:
            bad("gamma", f"must be nonnegative, got {spec.gamma}")
        if spec.n_x < 3:
            bad("n_x", f"circle grid needs at least 3 points, got {spec.n_x}")
        if spec.n_a < 2:
            bad("n_a", f"action grid needs at least 2 points, got {spec.n_a}")
        if not spec.a_min < spec.a_max:
            bad("a_min", f"need a_min < a_max, got [{spec.a_min}, {spec.a_max}]")
    else:
        if spec.generator_file is None:
            bad("generator_file", "required for the custom family")
        if not spec.actions:
            bad("actions", "custom family needs an explicit action list")
        if len(set(spec.actions)) < len(spec.actions):  # policy.csv names actions by value
            bad("actions", f"values must be distinct, got {list(spec.actions)}")
        if spec.cost_constant is None and spec.cost_table is None:
            bad("cost", "custom family needs cost.constant or cost.table")
    if spec.cost_table is not None and len(set(map(len, spec.cost_table))) != 1:
        bad("cost.table", "needs rows of one length")
    if spec.y_max_resolved <= 0:
        bad("y_max", f"must be positive, got {spec.y_max_resolved}")
    n_x = spec.n_x if spec.family == "circle_follower" else spec.n_states
    if spec.nu_point is not None and spec.nu_vector is not None:
        bad("nu", "nu.point and nu.vector are mutually exclusive")
    for path, values in (("nu.vector", spec.nu_vector), ("terminal_cost", spec.terminal_cost)):
        if values is not None and n_x is not None and len(values) != n_x:
            bad(path, f"length {len(values)} != n_x {n_x}")
    if spec.nu_vector is not None and abs(np.sum(spec.nu_vector) - 1.0) > 1e-10:
        bad("nu.vector", "must be a probability vector")
    if spec.nu_vector is None and n_x is not None and spec.nu_point >= n_x:
        bad("nu.point", f"index {spec.nu_point} outside 0..{n_x - 1}")


def load_config(path) -> ProblemSpec:
    """Read and validate a JSON problem configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return _build_spec(raw)


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def serialize(spec: ProblemSpec) -> dict:
    """Inverse of load_config: a dict that reproduces ``spec`` exactly."""
    out = {}
    for path, (attr, _, _) in _FIELDS.items():
        value = attrgetter(attr)(spec)
        if value is not None:
            *section, key = path.split(".")
            (out.setdefault(section[0], {}) if section else out)[key] = _to_json(value)
    return out


def config_digest(spec: ProblemSpec) -> str:
    """sha256 of all a solve run depends on: the spec without ``validation``."""
    solved = {k: v for k, v in serialize(spec).items() if k != "validation"}
    return hashlib.sha256(json.dumps(solved, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Problem assembly


@dataclass(frozen=True)
class ProblemPieces:
    base: ControlledGenerator
    cost: np.ndarray
    a_values: np.ndarray
    y_grid: object
    t_grid: object
    nu: np.ndarray
    v: Optional[np.ndarray]


def build_problem(spec: ProblemSpec) -> ProblemPieces:
    """Materialize grids, generator, cost table, and initial state law."""
    if spec.family == "circle_follower":
        x_grid = build_circle_grid(spec.n_x)
        a_values = np.linspace(spec.a_min, spec.a_max, spec.n_a)
        base = ControlledGenerator(
            per_action=tuple(discretize_circle_diffusion(x_grid, a, spec.sigma)
                             for a in a_values),
            state_grid=x_grid)
        cost = (x_grid.distance(x_grid.points, 0.0)[:, None] ** 2
                + spec.gamma * a_values[None, :] ** 2)
    else:
        base = load_generator_triplets(spec.generator_file, n_states=spec.n_states,
                                       n_actions=len(spec.actions))
        a_values = np.asarray(spec.actions, dtype=float)
        shape = (base.dim, len(a_values))
        if spec.cost_table is not None:
            cost = np.asarray(spec.cost_table, dtype=float)
            if cost.shape != shape:
                raise ConfigError(f"config key cost.table: shape {cost.shape} != {shape}")
        else:
            cost = np.full(shape, float(spec.cost_constant))
    n_x = base.dim
    y_grid = build_uniform_grid(0.0, spec.y_max_resolved, spec.n_y)
    t_grid = build_uniform_grid(0.0, spec.horizon, spec.n_t)
    if spec.nu_vector is not None:
        nu = np.asarray(spec.nu_vector, dtype=float)
    else:
        # longer than n_x when the point is out of range
        nu = np.bincount([spec.nu_point], minlength=n_x).astype(float)
    v = None if spec.terminal_cost is None else np.asarray(spec.terminal_cost, dtype=float)
    for path, values in (("nu", nu), ("terminal_cost", v)):
        if values is not None and len(values) != n_x:
            raise ConfigError(f"config key {path}: length {len(values)} != n_x {n_x}")
    return ProblemPieces(base=base, cost=cost, a_values=a_values, y_grid=y_grid,
                         t_grid=t_grid, nu=nu, v=v)


def _policy_tables(pieces: ProblemPieces):
    """Name, header, ij-ordered coordinate grids and density of the two
    policy tables: ``policy.csv`` has only the rows of positive probability."""
    txy = (pieces.t_grid.points, pieces.base.state_points, pieces.y_grid.points)
    return (("policy.csv", ("t", "x", "y", "a", "prob"), txy + (pieces.a_values,), False),
            ("policy_mask.csv", ("t", "x", "y", "reachable"), txy, True))


def _forward_program(spec: ProblemSpec, pieces: ProblemPieces) -> ForwardProgram:
    aug = augment_generator(pieces.base, pieces.cost, spec.alpha, pieces.y_grid)
    return assemble_forward_program(aug, pieces.nu, pieces.t_grid)


def _optimize(spec: ProblemSpec, pieces: ProblemPieces, fp: ForwardProgram) -> SolveReport:
    """The configured risk's optimum over ``fp``: one sweep for a
    measure-linear risk, Frank-Wolfe for a smooth one."""
    risk, opts = spec.risk, spec.solver
    if risk.is_linear:
        return optimize_linear_risk(fp, risk, v=pieces.v, tol_gap=opts.tol_gap,
                                    max_iter=opts.max_iter, mass_floor=opts.mass_floor)
    return optimize_smooth_risk(fp, risk, v=pieces.v, max_fw_iter=opts.max_fw_iter,
                                tol=opts.fw_tol, tol_gap=opts.tol_gap, max_iter=opts.max_iter,
                                mass_floor=opts.mass_floor)


def run(spec: ProblemSpec, out_dir) -> SolveReport:
    """Solve the configured problem and write the report artifacts.

    Writes report.json, marginal_x.csv (t,x,mass), marginal_y.csv
    (t,y,mass), policy.csv (t,x,y,a,prob; only the rows of positive
    probability), and policy_mask.csv into ``out_dir``.
    """
    pieces = build_problem(spec)  # a config it refuses leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = _optimize(spec, pieces, _forward_program(spec, pieces))
    with open(out / "report.json", "w") as fh:
        json.dump(dict(report.to_json_dict(), config_digest=config_digest(spec)),
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_trajectory_csv(report.trajectory, out / "marginal_x.csv", "x")
    write_trajectory_csv(report.trajectory, out / "marginal_y.csv", "y")
    for (name, header, coords, dense), values in zip(_policy_tables(pieces),
                                                     (report.policy.probs, report.policy.mask)):
        write_grid_csv(out / name, header, coords, values, newline="\n",
                       rows=None if dense else np.flatnonzero(values > 0))
    return report


def _format_17g(values) -> np.ndarray:
    """``%.17g`` of every entry as an object array of ``str``, formatting
    each distinct bit pattern once (so ``-0.0`` stays ``-0``)."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.ravel()]


def write_grid_csv(path, header: Sequence[str], coords: Sequence[np.ndarray],
                   values: np.ndarray, newline: str, rows: Optional[np.ndarray] = None):
    """Write one ``%.17g`` row for each point of the ij-ordered product grid
    ``coords`` whose flat index is in the increasing ``rows`` (every point
    by default): the point's coordinates, then its entry of ``values``.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on
    those rows of the meshgrid table.
    """
    flat = np.ravel(values)
    rows = np.arange(flat.size) if rows is None else rows
    points = np.unravel_index(rows, [len(c) for c in coords])
    columns = [_format_17g(c)[i] for c, i in zip(coords, points)] + [_format_17g(flat[rows])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        fh.writelines(",".join(row) + newline for row in zip(*columns))


def write_trajectory_csv(traj: TrajectoryDistribution, path, axis: str):
    """Write ``t,<axis>,mass`` rows of the marginal on ``axis``, ``"x"`` or ``"y"``."""
    write_grid_csv(path, ("t", axis, "mass"),
                   (traj.times, traj.x_values if axis == "x" else traj.y_values),
                   traj.marginal(axis), newline="\r\n")


def _nearest(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of the point of ``grid`` (distinct, in any order) nearest each of ``values``."""
    order = np.argsort(grid)
    ranked = grid[order]
    hi = np.searchsorted(ranked, values).clip(max=len(grid) - 1)
    lo = (hi - 1).clip(min=0)  # ranked[lo] <= value <= ranked[hi] unless clipped
    return order[np.where(values - ranked[lo] < ranked[hi] - values, lo, hi)]


def _read_grid_csv(path, header, coords, dense: bool) -> np.ndarray:
    """The last column of a table ``write_grid_csv`` wrote over ``coords``,
    shaped to the grid with 0 at each point that has no row, else
    ``ConfigError``.

    The header must match, each row must name a grid point by coordinates
    within 1e-12 of it (``np.isclose``), so a ``%.18e`` table is read too,
    and the rows must follow the grid's order with no point twice.  A
    ``dense`` table has one row per point.  Empty lines are skipped."""
    values = np.zeros(tuple(len(c) for c in coords))
    with open(path, errors="replace") as fh:
        head = fh.readline().strip()
        if head != ",".join(header):
            raise ConfigError(f"{path} has header {head!r}, not {','.join(header)!r}")
        start = fh.tell()  # np.loadtxt warns on a body with no data
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise ConfigError(f"{path} has no data rows")
        fh.seek(start)
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a numeric table: {exc}") from exc
    if table.shape[1] != len(header):
        raise ConfigError(f"{path}: a row does not have {len(header)} columns")
    if dense and len(table) != values.size:
        raise ConfigError(f"{path} has {len(table)} rows, not {values.size}")
    points = [_nearest(grid, column) for grid, column in zip(coords, table.T)]
    snapped = [grid[i] for grid, i in zip(coords, points)]
    if not np.isclose(table.T[:-1], snapped, rtol=1e-12, atol=1e-12).all():
        raise ConfigError(f"{path}: coordinate columns do not follow the config's grids")
    flat = np.ravel_multi_index(points, values.shape)
    if not (np.diff(flat) > 0).all():
        raise ConfigError(f"{path}: coordinate columns do not follow the config's grids "
                          "in order: a point is repeated or out of order")
    values.flat[flat] = table[:, -1]
    return values


def _read_policy(report_dir, pieces: ProblemPieces) -> MarkovPolicy:
    """The policy ``run`` wrote for ``pieces``, else ``ConfigError``."""
    probs, mask = (_read_grid_csv(Path(report_dir) / name, header, coords, dense)
                   for name, header, coords, dense in _policy_tables(pieces))
    try:
        return MarkovPolicy(probs=probs, mask=mask.astype(bool)).validate()
    except InvalidParameterError as exc:
        raise ConfigError(f"{Path(report_dir) / 'policy.csv'} is not a policy: {exc}") from exc


def run_validation(spec: ProblemSpec, report_dir, paths: Optional[int] = None,
                   seed: Optional[int] = None) -> dict:
    """Monte Carlo cross-check of a solve run; writes mc_summary.json.

    ``paths`` and ``seed`` override the config's ``validation`` values and
    are checked against the same rows of the field table.  A report.json
    that is not JSON or was solved for another spec (``config_digest``), or
    a policy or ``marginal_y.csv`` off the config's grids, or a last
    ``marginal_y.csv`` slice that is not a law (a non-finite entry, or a
    total more than 1e-10 from one), raises ``ConfigError`` before the
    Monte Carlo runs.
    """
    def option(path, value):
        attr, kind, lower = _FIELDS[path]
        return attrgetter(attr)(spec) if value is None else _convert(path, value, kind, lower)

    cfg = McConfig(n_paths=option("validation.paths", paths),
                   seed=option("validation.seed", seed))
    rep = Path(report_dir)
    try:
        solved = json.loads((rep / "report.json").read_text())
    except ValueError as exc:
        raise ConfigError(f"{rep / 'report.json'} is not JSON: {exc}") from exc
    if not isinstance(solved, dict) or solved.get("config_digest") != config_digest(spec):
        raise ConfigError(f"config_digest of {rep / 'report.json'} is not this config's; "
                          "solve it again")
    pieces = build_problem(spec)
    policy = _read_policy(rep, pieces)
    y_points = pieces.y_grid.points
    marg = _read_grid_csv(rep / "marginal_y.csv", ("t", "y", "mass"),
                          (pieces.t_grid.points, y_points), dense=True)
    total = float(marg[-1].sum())
    if not (np.isfinite(marg[-1]).all() and abs(total - 1.0) <= 1e-10):
        raise ConfigError(f"{rep / 'marginal_y.csv'}: the last slice is not a law; "
                          f"its masses sum to {total!r}")
    result = simulate_paths(pieces.base, policy, pieces.cost, spec.alpha,
                            pieces.y_grid, pieces.nu, pieces.t_grid, cfg)
    # the LP's absorbing top cell carries min(Y, y_max), so that is the
    # law compared; the summary statistics stay those of the raw samples
    capped = np.minimum(result.samples, pieces.y_grid.hi)
    values, counts = np.unique(capped, return_counts=True)
    w1 = wasserstein1((values, counts / counts.sum()), (y_points, marg[-1]))
    summary = {
        "paths": cfg.n_paths,
        "seed": cfg.seed,
        "mean": float(result.samples.mean()),
        "std": sample_spread(result.samples)[0],
        "stderr": result.stderr,
        "w1_vs_lp": w1,
        "grid_allowance": pieces.y_grid.spacing,
        "stderr_allowance": 3.0 * sample_spread(capped)[1],
        "fallback_lookups": result.fallback_lookups,
    }
    with open(rep / "mc_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(rep / "mc_samples.csv", "w", newline="") as fh:
        fh.write("y\n")
        # Python floats format faster than numpy scalars
        for lo in range(0, result.samples.size, MC_SAMPLES_BLOCK):
            block = result.samples[lo:lo + MC_SAMPLES_BLOCK].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))
    return summary


def run_oracle(spec: ProblemSpec) -> dict:
    """Enumerate deterministic policies and cross-check them with the
    optimizer ``solve`` runs, for every risk kind.  Both read one forward
    program."""
    pieces = build_problem(spec)
    fp = _forward_program(spec, pieces)
    result = enumerate_policies(fp, spec.risk, v=pieces.v)
    return {"enumeration_value": result.value, "n_policies": result.n_policies,
            "lp_value": _optimize(spec, pieces, fp).rho_star}


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="riskflow",
                                     description="Risk-aware control of Markov chains "
                                                 "via forward-equation linear programs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve a configured problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_val = sub.add_parser("validate", help="Monte Carlo cross-check of a solve run")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--report", required=True)
    p_val.add_argument("--paths", type=int, default=None)
    p_val.add_argument("--seed", type=int, default=None)
    p_orc = sub.add_parser("oracle", help="brute-force enumeration on a tiny instance")
    p_orc.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        spec = load_config(args.config)
        if args.command == "solve":
            report = run(spec, args.out)
            print(f"rho_star={report.rho_star:.6g} gap={report.duality_gap:.2e} "
                  f"status={report.status}")
            return EXIT_OK if report.status == "optimal" else EXIT_MAX_ITER
        if args.command == "validate":
            summary = run_validation(spec, args.report, args.paths, args.seed)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return EXIT_OK
        summary = run_oracle(spec)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PropagationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_MAX_ITER
    except PolicyEnumerationError as exc:
        print(f"enumeration refused: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RiskflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
