import json
from pathlib import Path

import numpy as np
import pytest

from jmdp.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_NOT_CERTIFIED,
    EXIT_OK,
    RunConfig,
    main,
)
from jmdp.env import build_crc, build_wgw, save_env
from jmdp.errors import ConfigError


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
    def test_coupled_chain(self, tmp_path, capsys):
        path = tmp_path / "crc.json"
        save_env(build_crc(5, 0.9), path)
        assert main(["validate-env", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "coupled-dynamics: yes" in out

    def test_windless_grid_is_product(self, tmp_path, capsys):
        path = tmp_path / "wgw.json"
        save_env(build_wgw(3, 3, (0, 2), 0.0, 0.9), path)
        assert main(["validate-env", str(path)]) == EXIT_OK
        assert "coupled-dynamics: no" in capsys.readouterr().out

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


    def test_coupling_budget_fails_before_other_work(self, tmp_path, capsys):
        # wgw(6x6): |X| = 144, so the dense pair kernel needs 20736 > 20000 rows.
        doc = base_config(
            env={"builtin": "wgw", "width": 6, "height": 6, "gamma": 0.9},
            analysis={"states": [0], "num_rollouts": 10},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) != EXIT_OK
        assert "20736" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []


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
