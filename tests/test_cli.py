import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from jmdp import cli
from jmdp.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_ERROR,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    RunConfig,
    main,
)
from jmdp.env import (
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    save_env,
)
from jmdp.errors import ConfigError
from jmdp.fa import check_coupling_budget
from jmdp.stats import truncation_horizon


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2))
    return path


def base_config(**overrides) -> dict:
    doc = {
        "format_version": 1,
        "env": {"builtin": "crc", "num_states": 5, "gamma": 0.9},
        "policy": {"builtin": "uniform"},
        "algorithm": {"name": "dp2", "epsilon": 1e-8},
        "seed": 0,
    }
    doc.update(overrides)
    return doc


class TestRunConfig:
    def test_round_trip(self):
        doc = base_config()
        cfg = RunConfig(doc)
        assert RunConfig(cfg.to_dict()).to_dict() == doc
        assert cfg.config_hash() == RunConfig(doc).config_hash()

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field"):
            RunConfig(base_config(extra_field=1))

    def test_unknown_algorithm_field_rejected(self):
        doc = base_config(algorithm={"name": "dp2", "epsilonn": 1e-8})
        with pytest.raises(ConfigError, match="epsilonn"):
            RunConfig(doc)

    def test_unknown_env_builtin_rejected(self):
        doc = base_config(env={"builtin": "mystery"})
        with pytest.raises(ConfigError, match="mystery"):
            RunConfig(doc)

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(base_config(seed=-1))

    @pytest.mark.parametrize("key", ["num_updates", "trace_stride"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_incremental_counts_must_be_positive(self, key, value):
        doc = base_config(algorithm={"name": "incremental", key: value})
        with pytest.raises(ConfigError, match=key):
            RunConfig(doc)

    def test_goal_policy_requires_gridworld(self):
        doc = base_config(policy={"builtin": "wgw-goal"})
        cfg = RunConfig(doc)
        env = cfg.build_env()
        with pytest.raises(ConfigError, match="wgw"):
            cfg.build_policy(env)


class TestValidateEnv:
    @pytest.mark.parametrize("build, coupled", [
        (lambda: build_crc(5, 0.9), "yes"),
        (lambda: build_wgw(3, 3, (0, 2), 0.3, 0.9), "yes"),
        (lambda: build_wgw(3, 3, (0, 2), 0.0, 0.9), "no"),
        (lambda: build_ring_chain(6, 0.9), "yes"),
        (lambda: build_indep_successors(3, 0.9), "no"),
        (lambda: build_shared_successors(3, 0.9), "yes"),
        (lambda: build_hub_successors(4, 0.9), "yes"),
    ], ids=["crc", "wgw", "wgw-windless", "ring", "indep", "shared", "hub"])
    def test_coupled_dynamics_line(self, tmp_path, capsys, build, coupled):
        path = tmp_path / "env.json"
        save_env(build(), path)
        assert main(["validate-env", str(path)]) == EXIT_OK
        assert f"coupled-dynamics: {coupled}\n" in capsys.readouterr().out

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_env(build_crc(3, 0.9), path)
        doc = json.loads(path.read_text())
        doc["g"][0][0][0] = 2.0
        path.write_text(json.dumps(doc))
        assert main(["validate-env", str(path)]) == EXIT_CONFIG
        assert "g[0][0][0]" in capsys.readouterr().err


class TestEval:
    def test_dp2_certified_with_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(out_dir=str(tmp_path / "run")))
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "run"
        assert (out / "residuals.csv").exists()
        assert (out / "moments.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["result"]["certified"] is True
        assert manifest["config_sha256"]
        rows = (out / "residuals.csv").read_text().strip().splitlines()
        assert rows[0] == "iteration,residual_lambda,certified_bound"
        gamma = 0.9
        residuals = [float(r.split(",")[1]) for r in rows[1:]]
        for k in range(len(residuals) - 1):
            assert residuals[k + 1] <= gamma * residuals[k] + 1e-10

    def test_not_certified_exit_code(self, tmp_path):
        doc = base_config(algorithm={"name": "dp2", "epsilon": 1e-10, "max_iter": 2},
                          out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_NOT_CERTIFIED

    def test_divergence_exit_code(self, tmp_path):
        doc = base_config(
            env={"builtin": "hub-successors", "num_states": 16, "gamma": 0.9},
            algorithm={
                "name": "projected",
                "features": {"builtin": "state-ramp"},
                "epsilon": 1e-9,
                "max_iter": 200,
            },
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_DIVERGENCE

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr(cli, "jipe2", out_of_memory)
        cfg = write_config(tmp_path / "c.json", base_config(out_dir=str(tmp_path / "run")))
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 1.16 TiB for an array\n"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(algorithm={"name": "nope"}))
        assert main(["eval", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["eval", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_incremental_run_writes_trace(self, tmp_path):
        doc = base_config(
            algorithm={
                "name": "incremental",
                "rule": "harmonic",
                "c": 10,
                "visitation": "sweep",
                "num_updates": 50_000,
                "trace_stride": 10_000,
            },
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        rows = (tmp_path / "run" / "trace.csv").read_text().strip().splitlines()
        assert rows[0] == "update_index,lambda_distance_to_fixed_point,step_size_last"
        assert len(rows) == 6
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["reference_certified"] is True
        assert result["reference_error_bound"] <= 1e-10

    def test_projected_run_converges(self, tmp_path):
        doc = base_config(
            algorithm={
                "name": "projected",
                "features": {"builtin": "state-poly", "degree": 2},
                "epsilon": 1e-8,
            },
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "run" / "projected.csv").exists()

    def test_projected_with_feature_file(self, tmp_path):
        phi = np.repeat(
            np.stack([np.ones(5), np.arange(5) / 4.0], axis=1), 2, axis=0
        )
        feat_path = tmp_path / "phi.json"
        feat_path.write_text(
            json.dumps({"format_version": 1, "phi": phi.tolist()})
        )
        doc = base_config(
            algorithm={
                "name": "projected",
                "features": {"path": "phi.json"},
                "epsilon": 1e-8,
            },
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        moments = json.loads((tmp_path / "run" / "moments.json").read_text())
        assert len(moments["theta_mu"]) == 2

    def test_dpn_order_three(self, tmp_path):
        doc = base_config(
            env={"builtin": "crc", "num_states": 3, "gamma": 0.8},
            algorithm={"name": "dpn", "order": 3, "epsilon": 1e-6},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        doc = json.loads((tmp_path / "run" / "moments.json").read_text())
        assert doc["order"] == 3
        mu = np.asarray(doc["tables"][0])
        np.testing.assert_allclose(mu, 0.5 / (1 - 0.8), atol=1e-5)
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        last = (tmp_path / "run" / "residuals.csv").read_text().strip().splitlines()[-1]
        assert result["certified"] is True
        assert result["certified_error_bound"] == float(last.split(",")[2])
        assert result["certified_error_bound"] <= 1e-6


class TestAnalyze:
    def test_outputs_and_values(self, tmp_path):
        doc = base_config(
            analysis={
                "corr": True, "gaps": True, "ecdf": False, "coupling": True,
                "mc_compare": True, "states": [0], "num_rollouts": 4_000,
                "trunc_tol": 1e-5,
            },
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "run"
        result = json.loads((out / "manifest.json").read_text())["result"]
        assert result["certified"] is True and result["certified_error_bound"] <= 1e-10
        corr = json.loads((out / "corr.json").read_text())
        offdiag = corr["matrices"][0]["corr"][0][1]
        # chain correlation under the solver's coupling (see test_stats)
        expected = 0.25 * (1 / 0.19 - 2 / 0.595) / (0.25 / 0.19)
        assert offdiag == pytest.approx(expected, abs=1e-6)
        gaps = json.loads((out / "gaps.json").read_text())
        assert gaps["reports"][0]["cantelli_bound"] is None  # zero-mean gap
        coupling = json.loads((out / "coupling.json").read_text())
        assert set(coupling["modes"]) == {"same_state", "global"}
        assert (out / "mc_compare.csv").exists()

    def test_ecdf_on_gridworld(self, tmp_path):
        doc = base_config(
            env={"builtin": "wgw", "width": 3, "height": 3, "goal_row": 0,
                 "goal_col": 2, "p_wind": 0.3, "gamma": 0.9},
            policy={"builtin": "wgw-goal"},
            analysis={"corr": False, "gaps": False, "ecdf": True,
                      "coupling": False, "mc_compare": False,
                      "num_rollouts": 3_000, "trunc_tol": 1e-4},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        rows = (tmp_path / "run" / "ecdf.csv").read_text().strip().splitlines()
        assert rows[0] == "state,action_a,action_b,ratio_jipe,ratio_mc,mc_ci"
        assert len(rows) > 1

    @pytest.mark.parametrize("overrides, absorbed", [
        # every rollout of the goal policy ends in the absorbing goal
        ({"env": {"builtin": "wgw", "width": 3, "height": 3, "goal_row": 0,
                  "goal_col": 2, "p_wind": 0.3, "gamma": 0.9},
          "policy": {"builtin": "wgw-goal"}}, True),
        # the chain's absorbing end state pays, so rollouts run to the horizon
        ({}, False),
    ], ids=["wgw", "crc"])
    def test_manifest_records_monte_carlo(self, tmp_path, overrides, absorbed):
        analysis = {"corr": False, "gaps": True, "ecdf": False, "coupling": False,
                    "mc_compare": False, "states": [0, 3], "num_rollouts": 500,
                    "trunc_tol": 1e-4}
        out = tmp_path / "run"
        doc = base_config(**overrides, analysis=analysis, out_dir=str(out))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        mc = json.loads((out / "manifest.json").read_text())["result"]["monte_carlo"]
        assert sorted(mc) == ["horizon", "max_steps", "num_rollouts",
                              "truncation_bias_bound"]
        horizon = truncation_horizon(0.9, 1e-4)
        assert mc["horizon"] == horizon and mc["num_rollouts"] == 500
        assert mc["truncation_bias_bound"] == 0.9**horizon / (1 - 0.9) <= 1e-4
        assert (mc["max_steps"] < horizon) if absorbed else (mc["max_steps"] == horizon)

    def test_uncertified_solve_exit_code(self, tmp_path, monkeypatch):
        solve = cli.jipe2
        monkeypatch.setattr(cli, "jipe2", lambda env, pol, eps: solve(env, pol, eps, 3))
        doc = base_config(
            analysis={"gaps": False, "ecdf": False, "coupling": False,
                      "mc_compare": False},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_NOT_CERTIFIED
        out = tmp_path / "run"
        result = json.loads((out / "manifest.json").read_text())["result"]
        assert result["certified"] is False and result["iterations"] == 3
        assert result["certified_error_bound"] > 1e-10
        assert "monte_carlo" not in result  # no Monte Carlo block was run
        assert (out / "corr.json").exists()

    def test_coupling_budget_fails_before_other_work(self, tmp_path, capsys, monkeypatch):
        # wgw(6x6), |X| = 144, fits the default budget; a budget one byte
        # below the same_state need must fail before any other work.
        env = build_wgw(6, 6, (0, 5), 0.3, 0.9)
        need = check_coupling_budget(env, "same_state")
        monkeypatch.setattr(cli, "DEFAULT_ORDER_BUDGET_BYTES", need - 1)
        doc = base_config(
            env={"builtin": "wgw", "width": 6, "height": 6, "gamma": 0.9},
            analysis={"states": [0], "num_rollouts": 10},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: BudgetError: " in err and f"needs {need} bytes" in err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []

    def test_coupling_on_large_gridworld(self, tmp_path):
        doc = base_config(
            env={"builtin": "wgw", "width": 6, "height": 6, "gamma": 0.9},
            analysis={"corr": False, "gaps": False, "ecdf": False,
                      "mc_compare": False, "coupling": True, "states": [0]},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        coupling = json.loads((tmp_path / "run" / "coupling.json").read_text())
        for rep in coupling["modes"].values():
            assert rep["converged"] is True and rep["iterations"] >= 1
            assert rep["sqrt_c_rho"] >= 1.0

    @pytest.mark.parametrize(
        "analysis",
        [{"num_rollouts": 0}, {"states": [5]}, {"states": [0, 0]}],
        ids=["zero_rollouts", "state_out_of_range", "duplicate_states"],
    )
    def test_invalid_analysis_rejected(self, tmp_path, capsys, analysis):
        doc = base_config(analysis=analysis, out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config.analysis" in capsys.readouterr().err
        out = tmp_path / "run"
        assert not out.exists() or not any(out.iterdir())


# Every file each run writes: CSV header rows in order, JSON top-level keys
# sorted. The README's "Outputs" table documents the same table.
MANIFEST_KEYS = ["config", "config_sha256", "result", "seed", "versions"]
RESIDUALS = ["iteration", "residual_lambda", "certified_bound"]
OUTPUTS = {
    "dp2": {"residuals.csv": RESIDUALS,
            "moments.json": ["format_version", "gamma", "m_mu", "m_sigma"]},
    "dpn": {"residuals.csv": RESIDUALS,
            "moments.json": ["format_version", "gamma", "order", "tables"]},
    "incremental": {
        "trace.csv": ["update_index", "lambda_distance_to_fixed_point", "step_size_last"],
        "moments.json": ["format_version", "gamma", "m_mu", "m_sigma"],
    },
    "projected": {"projected.csv": ["iteration", "successive_distance"],
                  "moments.json": ["format_version", "gamma", "theta_mu", "theta_sigma"]},
    "analyze": {
        "coupling.json": ["format_version", "modes", "nu_source"],
        "corr.json": ["format_version", "matrices"],
        "gaps.json": ["format_version", "reports"],
        "mc_compare.csv": ["state", "action_a", "action_b", "dp_sigma", "mc_sigma", "mc_ci"],
        "ecdf.csv": ["state", "action_a", "action_b", "ratio_jipe", "ratio_mc", "mc_ci"],
    },
}
OUTPUT_RUNS = {
    "dp2": ("eval", {}),
    "dpn": ("eval", {"env": {"builtin": "crc", "num_states": 3, "gamma": 0.9},
                     "algorithm": {"name": "dpn", "order": 2}}),
    "incremental": ("eval", {"algorithm": {"name": "incremental", "num_updates": 2_000,
                                           "trace_stride": 1_000}}),
    "projected": ("eval", {"algorithm": {
        "name": "projected", "features": {"builtin": "state-poly", "degree": 2}}}),
    "analyze": ("analyze", {"env": {"builtin": "crc", "num_states": 3, "gamma": 0.9},
                            "analysis": {"states": [0], "num_rollouts": 100,
                                         "trunc_tol": 1e-3}}),
}


def readme_outputs() -> dict:
    """The README's "Outputs" table as {run: {file: [columns or keys]}}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    table, every_run, run = {}, {}, None
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) != 3 or "`" not in cells[1]:
            continue
        run_tokens = re.findall(r"`([^`]+)`", cells[0])
        if cells[0].strip() == "every run":
            rows = every_run
        else:
            run = run_tokens[-1] if run_tokens else run
            rows = table.setdefault(run, {})
        (name,) = re.findall(r"`([^`]+)`", cells[1])
        rows[name] = re.findall(r"`([^`]+)`", cells[2])
    return {run: {**rows, **every_run} for run, rows in table.items()}


class TestOutputs:
    def test_readme_documents_every_output(self):
        documented = readme_outputs()
        assert documented.keys() == OUTPUTS.keys()
        for run, files in OUTPUTS.items():
            assert documented[run].keys() == {*files, "manifest.json"}, run
            assert sorted(documented[run]["manifest.json"]) == MANIFEST_KEYS
            for name, fields in files.items():
                if name.endswith(".json"):
                    assert sorted(documented[run][name]) == fields, (run, name)
                else:
                    assert documented[run][name] == fields, (run, name)

    @pytest.mark.parametrize("run", OUTPUT_RUNS)
    def test_files_headers_and_keys(self, tmp_path, run):
        command, overrides = OUTPUT_RUNS[run]
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", base_config(**overrides, out_dir=str(out)))
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        expected = {**OUTPUTS[run], "manifest.json": MANIFEST_KEYS}
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, fields in expected.items():
            if name.endswith(".csv"):
                with open(out / name, newline="") as fh:
                    assert next(csv.reader(fh)) == fields, name
            else:
                assert sorted(json.loads((out / name).read_text())) == fields, name


def _projected(features: dict) -> dict:
    return {"algorithm": {"name": "projected", "features": features}}


def _env_file(**fields) -> dict:
    """A one-state, two-action environment document with `fields` replaced."""
    doc = {"format_version": 1, "num_states": 1, "num_actions": 2, "gamma": 0.9,
           "noise_probs": [1.0], "g": [[[0.0], [1.0]]], "h": [[[0], [0]]]}
    doc.update(fields)
    return doc


# id, command, config overrides, files written next to the config, and the
# field path (or the file, relative to the config's directory) the error names.
MALFORMED = [
    ("num_states_string", "eval", {"env": {"builtin": "crc", "num_states": "5"}},
     {}, "config.env.num_states"),
    ("gamma_string", "eval", {"env": {"builtin": "crc", "gamma": "0.9"}},
     {}, "config.env.gamma"),
    ("order_string", "eval", {"algorithm": {"name": "dpn", "order": "3"}},
     {}, "config.algorithm.order"),
    ("epsilon_string", "eval", {"algorithm": {"name": "dp2", "epsilon": "abc"}},
     {}, "config.algorithm.epsilon"),
    ("negative_max_iter", "eval", {"algorithm": {"name": "dp2", "max_iter": -1}},
     {}, "config.algorithm.max_iter"),
    ("short_hub_probs", "eval",
     {"env": {"builtin": "hub-successors", "hub_probs": [0.5]}},
     {}, "config.env.hub_probs"),
    ("crc_with_grid_keys", "eval",
     {"env": {"builtin": "crc", "width": 7, "p_wind": 0.9}}, {}, "config.env.width"),
    ("ring_with_width", "eval", {"env": {"builtin": "ring", "width": 9}},
     {}, "config.env.width"),
    ("fractional_num_updates", "eval",
     {"algorithm": {"name": "incremental", "num_updates": 10.5}},
     {}, "config.algorithm.num_updates"),
    ("ecdf_string", "analyze", {"analysis": {"ecdf": "no"}}, {}, "config.analysis.ecdf"),
    ("confidence_above_one", "analyze", {"analysis": {"confidence": 2}},
     {}, "config.analysis.confidence"),
    ("unknown_visitation", "eval",
     {"algorithm": {"name": "incremental", "visitation": "random"}},
     {}, "config.algorithm.visitation"),
    ("zero_trunc_tol", "analyze", {"analysis": {"trunc_tol": 0}},
     {}, "config.analysis.trunc_tol"),
    ("missing_env_file", "eval", {"env": {"path": "env.json"}}, {}, "env.json"),
    ("missing_policy_file", "eval", {"policy": {"path": "pol.json"}}, {}, "pol.json"),
    ("env_file_version", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps({"format_version": 2})}, "env.json.format_version"),
    ("features_not_json", "eval", _projected({"path": "phi.json"}),
     {"phi.json": "phi = [[1.0]]"}, "phi.json"),
    ("features_without_phi", "eval", _projected({"path": "phi.json"}),
     {"phi.json": json.dumps({"format_version": 1})}, "phi.json"),
    ("features_ragged", "eval", _projected({"path": "phi.json"}),
     {"phi.json": json.dumps({"format_version": 1, "phi": [[1.0], [1.0, 2.0]]})},
     "phi.json.phi"),
    ("features_row_count", "eval", _projected({"path": "phi.json"}),
     {"phi.json": json.dumps({"format_version": 1, "phi": [[1.0], [0.5], [0.2]]})},
     "config.algorithm.features"),
    ("config_is_a_list", "eval", None, {}, "c.json"),
    ("c_with_constant_rule", "eval",
     {"algorithm": {"name": "incremental", "rule": "constant", "c": 5.0}},
     {}, "config.algorithm.c"),
    ("alpha0_with_harmonic_rule", "eval",
     {"algorithm": {"name": "incremental", "alpha0": 0.2}},
     {}, "config.algorithm.alpha0"),
    ("incremental_reference_epsilon", "eval",
     {"algorithm": {"name": "incremental", "reference_epsilon": 1e-8}},
     {}, "config.algorithm.reference_epsilon"),
    ("policy_ragged_probs", "eval", {"policy": {"path": "pol.json"}},
     {"pol.json": json.dumps({"format_version": 1, "probs": [[0.5, 0.5], [1.0]]})},
     "pol.json.probs"),
    ("env_ragged_noise_probs", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(noise_probs=[[0.5], [0.25, 0.25]]))},
     "env.json.noise_probs"),
    ("env_ragged_g", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(g=[[[0.0], [1.0, 0.0]]]))}, "env.json.g"),
    ("env_ragged_h", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(h=[[[0], [0, 0]]]))}, "env.json.h"),
    ("env_fractional_num_states", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(num_states=3.7))}, "env.json.num_states"),
    ("env_string_num_states", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(num_states="abc"))}, "env.json.num_states"),
    ("env_bool_num_states", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(num_states=True))}, "env.json.num_states"),
    ("env_null_gamma", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(gamma=None))}, "env.json.gamma"),
    ("env_string_gamma", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(gamma="0.9"))}, "env.json.gamma"),
    ("env_nan_g", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(g=[[[0.0], [float("nan")]]]))},
     "env.json.g[0][1][0]"),
    ("env_nan_noise_probs", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(noise_probs=[float("nan")]))},
     "env.json.noise_probs[0]"),
    ("env_unknown_key", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(discount=0.9))}, "env.json.discount"),
    ("policy_nan_probs", "eval", {"policy": {"path": "pol.json"}},
     {"pol.json": json.dumps({"format_version": 1,
                              "probs": [[0.5, 0.5]] * 4 + [[float("nan"), 1.0]]})},
     "pol.json.probs[4][0]"),
    ("features_nan_phi", "eval", _projected({"path": "phi.json"}),
     {"phi.json": json.dumps({"format_version": 1,
                              "phi": [[1.0]] * 9 + [[float("nan")]]})},
     "phi.json.phi[9][0]"),
    ("env_bool_in_h", "eval", {"env": {"path": "env.json"}},
     {"env.json": json.dumps(_env_file(h=[[[0], [True]]]))}, "env.json.h[0][1][0]"),
    ("policy_bool_in_probs", "eval", {"policy": {"path": "pol.json"}},
     {"pol.json": json.dumps({"format_version": 1,
                              "probs": [[0.5, 0.5]] * 4 + [[True, 0.0]]})},
     "pol.json.probs[4][0]"),
    ("features_rank_deficient", "eval", _projected({"path": "phi.json"}),
     {"phi.json": json.dumps({"format_version": 1, "phi": [[1.0, 2.0]] * 10})},
     "phi.json.phi"),
]


@pytest.mark.parametrize(
    "command, overrides, files, field",
    [row[1:] for row in MALFORMED],
    ids=[row[0] for row in MALFORMED],
)
def test_malformed_config_fails_before_any_output(
    tmp_path, capsys, command, overrides, files, field
):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    doc = [base_config()] if overrides is None else base_config(**overrides)
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    if not field.startswith("config."):
        field = str(tmp_path / field)
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


ENV_FILE_CASES = [row for row in MALFORMED if "env.json" in row[3]]


@pytest.mark.parametrize(
    "text, field",
    [(row[3]["env.json"], row[4]) for row in ENV_FILE_CASES],
    ids=[row[0] for row in ENV_FILE_CASES],
)
def test_validate_env_rejects_malformed_file(tmp_path, capsys, text, field):
    path = tmp_path / "env.json"
    path.write_text(text)
    assert main(["validate-env", str(path)]) == EXIT_CONFIG
    assert f"config error: {tmp_path / field}" in capsys.readouterr().err


class TestDeterminism:
    def _run_twice(self, tmp_path, doc, command="eval"):
        digests = []
        for tag in ("a", "b"):
            run_doc = dict(doc)
            run_doc["out_dir"] = str(tmp_path / f"run_{tag}")
            cfg = write_config(tmp_path / f"c_{tag}.json", run_doc)
            assert main([command, "--config", str(cfg)]) in (EXIT_OK, EXIT_NOT_CERTIFIED)
            blobs = {}
            for f in sorted(Path(run_doc["out_dir"]).glob("*.csv")):
                blobs[f.name] = f.read_bytes()
            blobs["moments.json"] = (Path(run_doc["out_dir"]) / "moments.json").read_bytes() \
                if (Path(run_doc["out_dir"]) / "moments.json").exists() else b""
            digests.append(blobs)
        assert digests[0].keys() == digests[1].keys()
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], name

    def test_dp2_byte_identical(self, tmp_path):
        self._run_twice(tmp_path, base_config())

    def test_incremental_byte_identical(self, tmp_path):
        self._run_twice(
            tmp_path,
            base_config(
                algorithm={"name": "incremental", "num_updates": 30_000,
                           "trace_stride": 10_000, "visitation": "uniform"},
                seed=7,
            ),
        )
