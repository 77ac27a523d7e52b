import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import riskflow.cli as cli_module
import riskflow.validate as validate_module
from riskflow import (ConfigError, RiskSpec, enumerate_policies, load_config, run,
                      serialize)
from riskflow.cli import (EXIT_CONFIG, EXIT_ERROR, EXIT_IO, EXIT_MAX_ITER, EXIT_OK,
                          _build_spec, build_problem, main, run_oracle,
                          run_validation)

BENCH_CONFIGS = sorted((Path(__file__).parent.parent / "bench" / "configs").glob("*.json"))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_riskflow(args, threads):
    """``python -W error -m riskflow args`` in a child process with BLAS
    capped at ``threads`` threads: a warning fails it, as in this suite."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "riskflow", *args],
                          env=env, capture_output=True, text=True)


SMALL_CIRCLE = {
    "family": "circle_follower",
    "n_x": 5, "n_y": 4, "n_a": 3, "n_t": 4,
    "horizon": 4.0,
    "solver": {"tol_gap": 1e-9},
}


class TestConfig:
    def test_defaults_are_reference_instance(self, tmp_path):
        spec = load_config(write_config(tmp_path, {"family": "circle_follower"}))
        assert (spec.n_x, spec.n_y, spec.n_a, spec.n_t) == (21, 21, 21, 21)
        assert spec.horizon == 25.0
        assert (spec.a_min, spec.a_max) == (-0.5, 0.5)
        assert (spec.sigma, spec.gamma, spec.alpha, spec.theta) == (1.0, 2.0, 0.25, 1.0)
        assert spec.nu_point == 0
        assert spec.y_max_resolved == 2.5
        assert spec.risk_kind == "entropic"

    def test_negative_theta_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="risk.theta"):
            load_config(write_config(tmp_path, {"risk": {"theta": -1.0}}))

    def test_single_time_point_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="n_t"):
            load_config(write_config(tmp_path, {"n_t": 1}))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="sigmaa"):
            load_config(write_config(tmp_path, {"sigmaa": 2.0}))
        with pytest.raises(ConfigError, match="solver.tol"):
            load_config(write_config(tmp_path, {"solver": {"tol": 1e-6}}))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="parse"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        payload = dict(SMALL_CIRCLE)
        payload["risk"] = {"kind": "mean_semideviation", "beta": 0.4}
        payload["nu"] = {"vector": [0.2, 0.2, 0.2, 0.2, 0.2]}
        spec = load_config(write_config(tmp_path, payload))
        again = _build_spec(serialize(spec))
        assert again == spec

    def test_nu_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="nu"):
            load_config(write_config(tmp_path, {"nu": {"point": 99}}))
        with pytest.raises(ConfigError, match="nu"):
            load_config(write_config(
                tmp_path, {"n_x": 4, "nu": {"vector": [0.5, 0.5]}}))

    def test_custom_family_requires_inputs(self, tmp_path):
        with pytest.raises(ConfigError, match="generator_file"):
            load_config(write_config(tmp_path, {"family": "custom"}))


# malformed values and the key path their error must name
MALFORMED = [
    ({"risk": 5}, "risk"),
    ({"solver": {"max_iter": "abc"}}, "solver.max_iter"),
    ({"n_t": 21.7}, "n_t"),
    ({"solver": {"max_iter": 2.9}}, "solver.max_iter"),
    ({"nu": {"point": 1.9}}, "nu.point"),
    ({"validation": {"seed": 1.5}}, "validation.seed"),
    ({"n_t": "21"}, "n_t"),
    ({"horizon": "25"}, "horizon"),
    ({"validation": {"paths": 0}}, "validation.paths"),
    ({"validation": {"seed": -1}}, "validation.seed"),
    ({"solver": {"tol_gap": -1}}, "solver.tol_gap"),
    ({"risk": {"theta": float("inf")}}, "risk.theta"),
    ({"risk": {"theta": float("nan")}}, "risk.theta"),
    ({"n_x": True}, "n_x"),
    ({"family": 5}, "family"),
    ({"terminal_cost": [0.0, "1"]}, "terminal_cost"),
    ({"risk.theta": 2.0}, "risk.theta"),
    ({"risk": {"kind": "entropic_linear"}}, "risk.kind"),
]


class TestFieldTable:
    @pytest.mark.parametrize("payload,path", MALFORMED,
                             ids=[json.dumps(p) for p, _ in MALFORMED])
    def test_malformed_value_names_key_path(self, tmp_path, payload, path):
        with pytest.raises(ConfigError, match=rf"key '?{re.escape(path)}(?![\w.])"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("payload", [{"risk": 5}, {"solver": {"max_iter": "abc"}}])
    def test_malformed_value_exits_with_config_code(self, tmp_path, payload, capsys):
        cfg = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("actions", [[0.0, 1.0, 0.0], [-0.0, 0.0]],
                             ids=["repeat", "signed_zero"])
    def test_repeated_actions_rejected(self, actions):
        # policy.csv names an action by its value, so no two may share one
        payload = {"family": "custom", "generator_file": "gen.csv", "actions": actions,
                   "cost": {"constant": 1.0}}
        with pytest.raises(ConfigError, match=re.escape(
                f"config key actions: values must be distinct, got {actions}")):
            _build_spec(payload)

    def test_integral_float_accepted_for_int_key(self, tmp_path):
        spec = load_config(write_config(tmp_path, {"validation": {"paths": 1e5}}))
        assert spec.validation.n_paths == 100_000
        assert type(spec.validation.n_paths) is int

    def test_null_means_default_in_every_section(self):
        spec = _build_spec({"risk": None, "nu": {"point": None},
                            "solver": {"max_iter": None}, "validation": {"seed": None}})
        assert spec == _build_spec({})

    def test_custom_lengths_checked_against_generator_file(self, tmp_path):
        gen_file = tmp_path / "gen.csv"
        gen_file.write_text("0,0,1,1.0\n0,1,0,2.0\n")
        base = {"family": "custom", "generator_file": str(gen_file),
                "actions": [0.0], "cost": {"constant": 1.0}}
        for extra, path in (({"terminal_cost": [1.0, 2.0, 3.0]}, "terminal_cost"),
                            ({"nu": {"point": 5}}, "nu")):
            with pytest.raises(ConfigError, match=f"key {path}: length"):
                build_problem(_build_spec({**base, **extra}))

    @staticmethod
    def round_trips(spec):
        return _build_spec(json.loads(json.dumps(serialize(spec)))) == spec

    def test_round_trip_custom_family(self):
        assert self.round_trips(_build_spec({
            "family": "custom", "generator_file": "gen.csv", "n_states": 2,
            "actions": [0.0, 1.0], "cost": {"table": [[0.0, 1.0], [2.0, 0.5]]},
            "terminal_cost": [0.0, 1.5], "nu": {"vector": [0.25, 0.75]},
            "n_y": 3, "y_max": 2.0, "risk": {"kind": "expectation"},
        }))

    def test_round_trip_circle_with_generator_file(self):
        assert self.round_trips(_build_spec({"generator_file": "x.csv"}))

    @pytest.mark.parametrize("path", BENCH_CONFIGS, ids=[p.stem for p in BENCH_CONFIGS])
    def test_round_trip_bench_config(self, path):
        assert self.round_trips(load_config(path))


# configs refused by a check across keys, by a family's inputs or by the
# problem build, and the key path the refusal names (None: the root message)
REFUSED = [
    ({"family": "linear"}, "family"),
    ({"risk": {"beta": 1.5}}, "risk.beta"),
    ({"horizon": 0.0}, "horizon"),
    ({"sigma": 0.0}, "sigma"),
    ({"gamma": -1.0}, "gamma"),
    ({"n_x": 2}, "n_x"),
    ({"n_a": 1}, "n_a"),
    ({"a_min": 0.5, "a_max": 0.5}, "a_min"),
    ({"family": "custom", "generator_file": "gen.csv", "cost": {"constant": 1.0}},
     "actions"),
    ({"family": "custom", "generator_file": "gen.csv", "actions": [0.0]}, "cost"),
    ({"cost": {"table": [[1.0, 2.0], [1.0]]}}, "cost.table"),
    ({"y_max": 0.0}, "y_max"),
    ({"nu": {"point": 0, "vector": [1.0]}}, "nu"),
    ({"n_x": 3, "nu": {"vector": [0.5, 0.2, 0.2]}}, "nu.vector"),
    ({"actions": 0.5}, "actions"),
    ([], None),
    ({"family": "custom", "generator_file": "gen.csv", "actions": [0.0],
      "cost": {"table": [[1.0, 2.0], [1.0, 2.0]]}}, "cost.table"),  # 2 x 1 chain
    ({"family": "custom", "generator_file": "gen.csv", "actions": [0.5, 0.0, 0.5],
      "cost": {"constant": 1.0}}, "actions"),
]


@pytest.mark.parametrize("payload, path", REFUSED, ids=[f"{i}-{p}" for i, (_, p) in
                                                        enumerate(REFUSED)])
def test_refused_config_exits_with_config_code(tmp_path, capsys, payload, path):
    gen_file = tmp_path / "gen.csv"
    gen_file.write_text("0,0,1,1.0\n0,1,0,2.0\n")
    if isinstance(payload, dict) and "generator_file" in payload:
        payload = dict(payload, generator_file=str(gen_file))
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    want = "config root must be" if path is None else f"config key {path}: "
    assert capsys.readouterr().err.startswith(f"config error: {want}")
    assert not out.exists()


# custom 2-state, 2-action chains whose steps overflow float64: a rate of
# 1e308, and a cost of 1e308 carried up the cost axis at 1e308 / dy
OVERFLOWING = {
    "step": ("0,0,1,1e308\n1,1,0,1.0\n", {"cost": {"constant": 1.0}, "y_max": 2.0}),
    "transport_rate": ("0,0,1,1.0\n1,1,0,1.0\n", {"cost": {"constant": 1e308},
                                                   "y_max": 0.5}),
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_chain_is_a_solver_failure(tmp_path, capsys, case, command):
    # under this suite's filterwarnings = error an overflow warning would escape main
    rates, keys = OVERFLOWING[case]
    gen_file = tmp_path / "gen.csv"
    gen_file.write_text(rates)
    cfg = write_config(tmp_path, dict(keys, family="custom", generator_file=str(gen_file),
                                      actions=[0.0, 1.0], n_t=3, n_y=3, horizon=4.0))
    args = [command, "--config", str(cfg)]
    assert main(args + (["--out", str(tmp_path / "o")] if command == "solve" else [])) \
        == EXIT_MAX_ITER
    assert capsys.readouterr().err.startswith("solver failure: ")


class TestInitialLaw:
    def test_one_hot_vector_matches_the_point(self, tmp_path):
        outs = []
        for name, nu in (("point", {"point": 2}), ("vector", {"vector": [0, 0, 1.0, 0, 0]})):
            cfg = write_config(tmp_path, dict(SMALL_CIRCLE, nu=nu), name=f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["solve", "--config", str(cfg), "--out", str(outs[-1])]) == EXIT_OK
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            if name.endswith(".csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        point, vector = (json.loads((out / "report.json").read_text()) for out in outs)
        assert point.pop("config_digest") != vector.pop("config_digest")
        assert point == vector

    def test_uniform_vector_solves_and_validates(self, tmp_path):
        cfg = write_config(tmp_path, dict(SMALL_CIRCLE, nu={"vector": [0.2] * 5}))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "500"]) == EXIT_OK
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["paths"] == 500 and np.isfinite(summary["w1_vs_lp"])

    def test_oracle_refuses_too_many_policies(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_x": 3, "n_y": 2, "n_a": 2, "n_t": 5,
                                      "horizon": 1.0, "y_max": 2.0})
        assert main(["oracle", "--config", str(cfg)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("enumeration refused: 16777216 deterministic policies")
        assert captured.out == ""


class TestRun:
    def test_small_instance_artifacts(self, tmp_path):
        spec = _build_spec(SMALL_CIRCLE)
        out = tmp_path / "out"
        report = run(spec, out)
        assert report.status == "optimal"
        assert (out / "report.json").exists()
        payload = json.loads((out / "report.json").read_text())
        for key in ("rho_star", "duality_gap", "iterations", "stationarity_w1",
                    "boundary_mass", "strictness_fraction"):
            assert key in payload
        assert payload["duality_gap"] <= 1e-8
        marg = np.loadtxt(out / "marginal_x.csv", delimiter=",", skiprows=1)
        assert marg.shape == (4 * 5, 3)
        t_last = marg[marg[:, 0] == marg[:, 0].max()]
        assert t_last[:, 2].sum() == pytest.approx(1.0, abs=1e-9)
        # only the 150 of the 4 * 5 * 4 * 3 (t, x, y, a) rows with probability > 0
        pol = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)
        assert pol.shape == (np.count_nonzero(report.policy.probs > 0), 5) == (150, 5)
        assert (pol[:, 4] > 0).all()

    def test_csv_headers_and_mask_values(self, tmp_path):
        out = tmp_path / "out"
        run(_build_spec(SMALL_CIRCLE), out)
        heads = {"marginal_x.csv": b"t,x,mass\r\n", "marginal_y.csv": b"t,y,mass\r\n",
                 "policy.csv": b"t,x,y,a,prob\n", "policy_mask.csv": b"t,x,y,reachable\n"}
        for name, head in heads.items():
            with open(out / name, "rb") as fh:
                assert fh.readline() == head
        lines = (out / "policy_mask.csv").read_bytes().split(b"\n")[1:-1]
        assert {line.rsplit(b",", 1)[1] for line in lines} <= {b"0", b"1"}
        assert len(lines) == 4 * 5 * 4

    def test_zero_cost_override_gives_zero_risk(self, tmp_path):
        payload = dict(SMALL_CIRCLE)
        payload["gamma"] = 0.0
        spec = _build_spec(payload)
        # zero the distance cost by replacing the family cost table: use the
        # custom family with an equivalent chain instead
        pieces = build_problem(spec)
        lines = ["action,row,col,rate"]
        for a, rm in enumerate(pieces.base.per_action):
            coo = rm.tocoo()
            lines += [f"{a},{i},{j},{v}" for i, j, v in zip(coo.row, coo.col, coo.data)]
        gen_file = tmp_path / "gen.csv"
        gen_file.write_text("\n".join(lines))
        custom = _build_spec({
            "family": "custom", "generator_file": str(gen_file),
            "actions": list(np.linspace(-0.5, 0.5, 3)),
            "cost": {"constant": 0.0},
            "n_y": 4, "n_t": 4, "horizon": 4.0, "y_max": 2.5,
        })
        report = run(custom, tmp_path / "out0")
        assert report.rho_star == pytest.approx(0.0, abs=1e-7)

    def test_custom_two_state_matches_matrix_exponential(self, tmp_path):
        gen_file = tmp_path / "gen.csv"
        gen_file.write_text("0,0,1,1.0\n0,1,0,2.0\n")
        spec = _build_spec({
            "family": "custom", "generator_file": str(gen_file),
            "actions": [0.0], "cost": {"constant": 0.0},
            "n_y": 2, "n_t": 101, "horizon": 1.0, "y_max": 1.0,
            "risk": {"kind": "expectation"},
        })
        out = tmp_path / "outc"
        run(spec, out)
        marg = np.loadtxt(out / "marginal_x.csv", delimiter=",", skiprows=1)
        last = marg[marg[:, 0] == marg[:, 0].max()]
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        want = scipy.linalg.expm(q.T) @ np.array([1.0, 0.0])
        assert np.abs(last[:, 2] - want).max() < 2e-3

    def test_deterministic_artifacts(self, tmp_path):
        spec = _build_spec(SMALL_CIRCLE)
        run(spec, tmp_path / "a")
        run(spec, tmp_path / "b")
        for name in ("marginal_x.csv", "marginal_y.csv", "policy.csv",
                     "policy_mask.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("risk", [{"kind": "entropic", "theta": 1.0},
                                      {"kind": "mean_semideviation", "beta": 0.5}],
                             ids=["entropic", "semideviation"])
    def test_solve_never_assembles_the_lp_matrix(self, tmp_path, monkeypatch, risk):
        # the sweep and its certificate read fp.steps; only LP solvers read a_eq
        built, assemble = [], cli_module.assemble_forward_program

        def keep(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(cli_module, "assemble_forward_program", keep)
        run(_build_spec(dict(SMALL_CIRCLE, risk=risk)), tmp_path / "out")
        assert len(built) == 1 and "a_eq" not in vars(built[0])

    @pytest.mark.parametrize("payload", [
        {"n_x": 9, "n_y": 9, "n_a": 9, "n_t": 15},
        {"n_x": 11, "n_y": 11, "n_a": 7, "n_t": 13,
         "risk": {"kind": "mean_semideviation", "beta": 0.5}},
    ], ids=["entropic", "semideviation"])
    def test_artifacts_independent_of_blas_threads(self, tmp_path, payload):
        # about 1e4 LP variables: long enough for BLAS to split inner
        # products across threads, which would change their rounding
        config = write_config(tmp_path, payload)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_riskflow(["solve", "--config", str(config), "--out", str(out)], threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            assert proc.stderr == ""
            outs.append(out)
        for name in ("marginal_x.csv", "marginal_y.csv", "policy.csv",
                     "policy_mask.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestValidationCommand:
    def test_mc_summary_written(self, tmp_path):
        spec = _build_spec(SMALL_CIRCLE)
        out = tmp_path / "out"
        run(spec, out)
        summary = run_validation(spec, out, paths=2000, seed=4)
        assert (out / "mc_summary.json").exists()
        for key in ("mean", "std", "stderr", "w1_vs_lp", "grid_allowance",
                    "stderr_allowance"):
            assert key in summary
        assert summary["paths"] == 2000
        samples = np.loadtxt(out / "mc_samples.csv", skiprows=1)
        assert samples.shape == (2000,)
        # %.17g round-trips, so the file is the f-string format of what it holds
        assert (out / "mc_samples.csv").read_text() == \
            "y\n" + "".join(f"{v:.17g}\n" for v in samples.tolist())
        assert samples.mean() == pytest.approx(summary["mean"])


class TestOracleCommand:
    def test_enumeration_cross_check(self):
        spec = _build_spec({
            "family": "circle_follower",
            "n_x": 3, "n_y": 2, "n_a": 2, "n_t": 3,
            "horizon": 1.0, "y_max": 2.0,
        })
        result = run_oracle(spec)
        assert result["n_policies"] == 2 ** 12
        assert result["enumeration_value"] >= result["lp_value"] - 1e-8
        assert abs(result["enumeration_value"] - result["lp_value"]) < 1e-6

    def test_smooth_risk_meets_the_optimizer(self, tmp_path):
        # mean semideviation is neither convex nor concave in the law: on this
        # chain Frank-Wolfe stops, optimal, at a stationary point (11.158100)
        # above the best deterministic policy (11.147027).  The oracle reports
        # both; the wiring is asserted here, not the gap between them
        gen_file = tmp_path / "gen.csv"
        gen_file.write_text("action,row,col,rate\n0,0,1,0.75\n0,1,0,3.6\n"
                            "1,0,1,0.4\n1,1,0,0.2\n")
        spec = _build_spec({
            "family": "custom", "generator_file": str(gen_file),
            "n_states": 2, "actions": [0, 1],
            "cost": {"table": [[3.8, 0.15], [0.25, 0.35]]},
            "terminal_cost": [11.3, 4.2], "alpha": 0, "horizon": 0.5, "n_t": 3,
            "n_y": 2, "y_max": 0.5, "risk": {"kind": "mean_semideviation", "beta": 1.0},
        })
        result = run_oracle(spec)
        assert result["lp_value"] == run(spec, tmp_path / "out").rho_star
        pieces = build_problem(spec)
        enum = enumerate_policies(cli_module._forward_program(spec, pieces),
                                  RiskSpec(kind="mean_semideviation", beta=1.0), v=pieces.v)
        assert result["enumeration_value"] == enum.value

    def test_one_augmentation_per_run(self, monkeypatch):
        # enumeration and the LP read the one forward program of the run
        calls, augment = [], cli_module.augment_generator

        def count(*args):
            calls.append(1)
            return augment(*args)

        for owner in (cli_module, validate_module):
            monkeypatch.setattr(owner, "augment_generator", count)
        result = run_oracle(_build_spec({"family": "circle_follower", "n_x": 3, "n_y": 2,
                                         "n_a": 2, "n_t": 2, "horizon": 1.0}))
        assert result["n_policies"] == 2 ** 6 and "lp_value" in result
        assert len(calls) == 1

    def test_output_independent_of_blas_threads(self):
        # the batched dense steps of enumeration go through LAPACK
        config = next(c for c in BENCH_CONFIGS if c.stem == "oracle_enum")
        outs = []
        for threads in ("1", "2"):
            proc = run_riskflow(["oracle", "--config", str(config)], threads)
            assert proc.returncode == EXIT_OK, proc.stderr
            assert proc.stderr == ""
            outs.append(proc.stdout)
        assert "enumeration_value" in outs[0]
        assert outs[0] == outs[1]


class TestMain:
    def test_solve_and_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        bad = write_config(tmp_path, {"risk": {"theta": -2.0}}, name="bad.json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o2")]) == EXIT_CONFIG
        missing = tmp_path / "nope.json"
        assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "o3")]) == EXIT_IO

    def test_validate_command(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        code = main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "500", "--seed", "7"])
        assert code == EXIT_OK
        assert (out / "mc_summary.json").exists()

    def test_validate_flags_obey_field_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for flag, value, key in (("--seed", "-1", "validation.seed"),
                                 ("--paths", "0", "validation.paths")):
            code = main(["validate", "--config", str(cfg), "--report", str(out),
                         flag, value])
            assert code == EXIT_CONFIG
            assert f"config key {key}:" in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    def test_validate_refuses_stale_solve_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        edited = write_config(tmp_path, dict(SMALL_CIRCLE, n_t=5), name="edited.json")
        assert main(["validate", "--config", str(edited), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert "config_digest" in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()
        # the validation section is not part of what was solved
        rerun = write_config(tmp_path, dict(SMALL_CIRCLE, validation={"seed": 3}),
                             name="rerun.json")
        for config in (cfg, rerun):
            assert main(["validate", "--config", str(config), "--report", str(out),
                         "--paths", "200"]) == EXIT_OK
        # a report written before the digest existed is refused too
        report = json.loads((out / "report.json").read_text())
        del report["config_digest"]
        # and so are a report that is not JSON and one that is not an object
        for body in (json.dumps(report), "{", "[]"):
            (out / "report.json").write_text(body)
            assert main(["validate", "--config", str(cfg), "--report", str(out),
                         "--paths", "200"]) == EXIT_CONFIG
            assert "report.json" in capsys.readouterr().err

    def test_validate_refuses_policy_that_is_not_a_distribution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        table = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)
        table[:, 4] = 0.0
        np.savetxt(out / "policy.csv", table, delimiter=",", header="t,x,y,a,prob",
                   comments="")
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert "policy.csv" in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    @pytest.mark.parametrize("name", ["policy.csv", "policy_mask.csv", "marginal_y.csv"])
    def test_validate_refuses_policy_with_wrong_row_count(self, tmp_path, capsys, name):
        # a dense table has one row per grid point; policy.csv has only the
        # rows of positive probability, so its last cell is left a row short
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines[:-1]))  # truncated by one row
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        want = (f"{name} is not a policy: conditional action mass off by" if name == "policy.csv"
                else f"{name} has {len(lines) - 2} rows, not {len(lines) - 1}")
        assert want in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    @pytest.mark.parametrize("name", ["policy_mask.csv", "marginal_y.csv"])
    def test_validate_refuses_a_padded_dense_table(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(lines + lines[-1:]))  # the last row twice
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert f"{name} has {len(lines)} rows, not {len(lines) - 1}" in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    def test_validate_refuses_a_cell_with_no_row(self, tmp_path, capsys):
        # every row of one (t, x, y) cell of slice 1 deleted: an absent row is
        # probability 0, so the cell holds no mass
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        head, *rows = (out / "policy.csv").read_text().splitlines(keepends=True)
        cell = next(r.split(",")[:3] for r in rows if r.split(",")[0] != "0")
        kept = [r for r in rows if r.split(",")[:3] != cell]
        (out / "policy.csv").write_text(head + "".join(kept), newline="")
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert "policy.csv is not a policy: conditional action mass off by 1" \
            in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    @pytest.mark.parametrize("edit", ["extra_row", "not_numeric"])
    def test_validate_refuses_a_malformed_policy_table(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "policy.csv").read_text().splitlines(keepends=True)
        if edit == "extra_row":  # the last row twice
            want = "policy.csv: coordinate columns do not follow the config's grids in order"
            lines.append(lines[-1])
        else:
            want = "policy.csv is not a numeric table"
            lines[1] = lines[1].rsplit(",", 1)[0] + ",abc\n"
        (out / "policy.csv").write_text("".join(lines))
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert want in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    def test_malformed_generator_file_exits_with_config_code(self, tmp_path, capsys):
        gen_file = tmp_path / "gen.csv"
        cfg = write_config(tmp_path, {"family": "custom", "generator_file": str(gen_file),
                                      "actions": [0.0], "cost": {"constant": 1.0}})
        for text, message in [
                ("action,row,col,rate\n0,0,1,1.0\n0,1,0,2.O\n", "gen.csv, line 3:"),
                ("0,0,1,1.0\n0,1,0,-2.0\n", "gen.csv, line 2:"),  # negative rate
                ("0,0,0,-5\n0,0,1,1\n", "gen.csv: the rates of action 0, state 0"),
                ("action,row,col,rate\n", "no generator entries found in")]:
            gen_file.write_text(text)
            assert main(["solve", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["four_columns", "header", "swapped_rows",
                                      "marginal_header_only", "marginal_y_times_10",
                                      "duplicated_row"])
    def test_validate_refuses_policy_off_the_grid(self, tmp_path, capsys, edit):
        # each policy edit leaves every row a distribution over the actions
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        name = "marginal_y.csv" if edit.startswith("marginal") else "policy.csv"
        head, *rows = (out / name).read_text().splitlines(keepends=True)
        if edit == "four_columns":
            rows = [",".join(r.split(",")[:4]) + "\n" for r in rows]
        elif edit == "header":
            head = "t,x,y,action,prob\n"
        elif edit == "swapped_rows":  # the first rows of the first two cells trade places
            cell = rows[0].split(",")[:3]
            second = next(i for i, r in enumerate(rows) if r.split(",")[:3] != cell)
            rows[0], rows[second] = rows[second], rows[0]
        elif edit == "duplicated_row":
            rows.insert(5, rows[5])
        elif edit == "marginal_header_only":
            rows = []
        else:  # the marginal of a cost grid ten times as wide
            rows = [f"{t},{float(y) * 10:.17g},{mass}"
                    for t, y, mass in (r.split(",") for r in rows)]
        (out / name).write_text(head + "".join(rows), newline="")
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert name in err
        if edit == "marginal_header_only":
            assert "has no data rows" in err
        if edit in ("swapped_rows", "duplicated_row"):
            assert "a point is repeated or out of order" in err
        assert not (out / "mc_summary.json").exists()

    @pytest.mark.parametrize("column", ["t", "x", "y", "a"])
    def test_validate_refuses_one_coordinate_off_the_grid(self, tmp_path, capsys, column):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        head, *rows = (out / "policy.csv").read_text().splitlines(keepends=True)
        cells = rows[100].split(",")
        at = "txya".index(column)
        # a quarter of the finest step (the actions' 0.5): between two grid points
        cells[at] = f"{float(cells[at]) + 0.25:.17g}"
        rows[100] = ",".join(cells)
        (out / "policy.csv").write_text(head + "".join(rows), newline="")
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "policy.csv: coordinate columns do not follow the config's grids\n" in err
        assert not (out / "mc_summary.json").exists()

    @pytest.mark.parametrize("column", ["t", "x", "y", "a"])
    def test_validate_refuses_a_coordinate_moved_by_1e9(self, tmp_path, capsys, column):
        # one field off its grid point by far less than a grid step, but more
        # than the reader's 1e-12
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        head, *rows = (out / "policy.csv").read_text().splitlines(keepends=True)
        cells = rows[100].split(",")
        at = "txya".index(column)
        cells[at] = f"{float(cells[at]) + 1e-9:.17g}"
        rows[100] = ",".join(cells)
        (out / "policy.csv").write_text(head + "".join(rows), newline="")
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert "policy.csv: coordinate columns do not follow" in capsys.readouterr().err
        assert not (out / "mc_summary.json").exists()

    def test_read_policy_accepts_coordinates_as_18e(self, tmp_path):
        # np.savetxt's default text: the same numbers, none of the %.17g fields
        spec = _build_spec(SMALL_CIRCLE)
        run(spec, tmp_path / "o")
        pieces = build_problem(spec)
        want = cli_module._read_policy(tmp_path / "o", pieces).probs
        path = tmp_path / "o" / "policy.csv"
        head, *rows = path.read_text().splitlines(keepends=True)
        wide = []
        for row in rows:
            cells = row.split(",")
            wide.append(",".join([f"{float(c):.18e}" for c in cells[:4]] + cells[4:]))
        assert all(a != b for a, b in zip(rows, wide))
        path.write_text(head + "".join(wide), newline="")
        got = cli_module._read_policy(tmp_path / "o", pieces).probs
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", ["%.17g", "%.18e"])
    def test_read_policy_accepts_a_dense_table(self, tmp_path, fmt):
        # the table of every (t, x, y, a) row, explicit zeros included, that
        # solve wrote before policy.csv kept only the rows of positive probability
        spec = _build_spec(SMALL_CIRCLE)
        report = run(spec, tmp_path / "o")
        pieces = build_problem(spec)
        coords = cli_module._policy_tables(pieces)[0][2]
        grids = np.meshgrid(*coords, indexing="ij")
        table = np.column_stack([g.ravel() for g in grids] + [report.policy.probs.ravel()])
        assert (table[:, 4] == 0).any()
        np.savetxt(tmp_path / "o" / "policy.csv", table, fmt=fmt, delimiter=",",
                   header="t,x,y,a,prob", comments="")
        probs = cli_module._read_policy(tmp_path / "o", pieces).probs
        assert probs.tobytes() == report.policy.probs.tobytes()

    @pytest.mark.parametrize("block", [1, 97, 4096])
    def test_read_in_blocks_that_cut_lines_anywhere(self, tmp_path, monkeypatch, block):
        # \r\n line ends, as marginal_y.csv has, and empty lines anywhere are
        # read from a file that hands out at most `block` bytes per read, so a
        # read may end inside a line or between \r and \n
        spec = _build_spec(SMALL_CIRCLE)
        report = run(spec, tmp_path / "o")
        pieces = build_problem(spec)
        for name in ("policy.csv", "marginal_y.csv"):
            path = tmp_path / "o" / name
            head, *rows = path.read_text().splitlines()
            rows[7:7] = ["", ""]
            path.write_text("\r\n".join([head, ""] + rows + ["", ""]), newline="")

        class Trickle(io.FileIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:block])

        def trickle_open(path, mode="r", **kwargs):
            assert mode == "r"
            return io.TextIOWrapper(io.BufferedReader(Trickle(path), buffer_size=block), **kwargs)

        monkeypatch.setattr(cli_module, "open", trickle_open, raising=False)
        probs = cli_module._read_policy(tmp_path / "o", pieces).probs
        assert probs.tobytes() == report.policy.probs.tobytes()
        marg = cli_module._read_grid_csv(tmp_path / "o" / "marginal_y.csv", ("t", "y", "mass"),
                                         (pieces.t_grid.points, pieces.y_grid.points), dense=True)
        assert marg.tobytes() == report.trajectory.marginal("y").tobytes()

    @pytest.mark.parametrize("actions", [[1.0, 0.0], [0.0]], ids=["unsorted", "single"])
    def test_custom_action_lists_round_trip(self, tmp_path, actions):
        # policy.csv names each action by its value, on a grid in the config's order
        two = len(actions) == 2
        gen_file = tmp_path / "gen.csv"
        gen_file.write_text("0,0,1,1.0\n0,1,0,2.0\n" + ("1,0,1,0.25\n1,1,0,3.0\n" if two else ""))
        cost = {"table": [[1.0, 0.2], [0.1, 1.5]]} if two else {"constant": 1.0}
        cfg = write_config(tmp_path, {"family": "custom", "generator_file": str(gen_file),
                                      "actions": actions, "cost": cost, "n_y": 3, "n_t": 4,
                                      "horizon": 1.0, "y_max": 2.0})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_OK
        spec = load_config(cfg)
        pieces = build_problem(spec)
        solved = cli_module._optimize(spec, pieces, cli_module._forward_program(spec, pieces))
        probs = cli_module._read_policy(out, pieces).probs
        assert probs.tobytes() == solved.policy.probs.tobytes()
        if two:  # each action is the only one taken in some cell
            assert (probs[1:] == 1).any(axis=(0, 1, 2)).all()

    def test_nearest_grid_point_in_any_order(self):
        assert cli_module._nearest(np.array([0.0]), np.array([-1.0, 0.0, 2.0])).tolist() \
            == [0, 0, 0]
        assert cli_module._nearest(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.4, 0.6, 7.0])
                                   ).tolist() == [1, 0, 1, 0, 0]

    def test_read_policy_owns_its_cells(self, tmp_path):
        # the parsed five-column table is not kept alive by a view
        spec = _build_spec(SMALL_CIRCLE)
        report = run(spec, tmp_path / "o")
        policy = cli_module._read_policy(tmp_path / "o", build_problem(spec))
        assert policy.probs.flags.owndata
        assert np.array_equal(policy.probs, report.policy.probs)

    @pytest.mark.parametrize("edit", ["nan", "times_3"])
    def test_validate_refuses_marginal_that_is_not_a_law(self, tmp_path, capsys,
                                                         monkeypatch, edit):
        cfg = write_config(tmp_path, SMALL_CIRCLE)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        table = np.loadtxt(out / "marginal_y.csv", delimiter=",", skiprows=1)
        last = table[:, 0] == table[-1, 0]
        if edit == "nan":
            table[np.flatnonzero(last)[0], 2] = np.nan
        else:
            table[last, 2] *= 3.0
        np.savetxt(out / "marginal_y.csv", table, fmt="%.17g", delimiter=",",
                   header="t,y,mass", comments="")
        sampled = []
        monkeypatch.setattr(cli_module, "simulate_paths", lambda *a: sampled.append(a))
        assert main(["validate", "--config", str(cfg), "--report", str(out),
                     "--paths", "200"]) == EXIT_CONFIG
        assert "marginal_y.csv: the last slice is not a law" in capsys.readouterr().err
        assert sampled == []
        assert not (out / "mc_summary.json").exists()

    def test_uncertified_solve_exits_with_iteration_code(self, tmp_path, capsys):
        # no float64 sweep meets a 1e-20 stop test
        cfg = write_config(tmp_path, dict(SMALL_CIRCLE, solver={"tol_gap": 1e-20}))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_MAX_ITER
        assert "status=max_iter" in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text())["status"] == "max_iter"
