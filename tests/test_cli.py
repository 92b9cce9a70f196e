import csv
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
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
from jmdp.dp import _BackupPlan, check_backup_budget, jipe
from jmdp.env import (
    Policy,
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    save_env,
    save_policy,
)
from jmdp.errors import ConfigError
from jmdp.incremental import check_incremental_budget
from jmdp import fa
from jmdp.fa import (
    check_coupling_budget,
    check_projected_budget,
    check_stationary_budget,
    state_poly_features,
)
from jmdp.stats import check_mc_budget, truncation_horizon


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


# (env, nu_source, pattern of nu_note): crc's absorbing end state leaves the
# chain reducible, so the weighting law falls back to uniform; ring's is stationary.
NU_CASES = [
    ({"builtin": "crc", "num_states": 5, "gamma": 0.9}, "uniform-fallback",
     r"chain is not irreducible \(\d+ strongly connected components\).*"),
    ({"builtin": "ring", "num_states": 5, "gamma": 0.9}, "stationary", ""),
]


def test_import_leaves_out_scipy_stats():
    code = "import sys, jmdp.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter with this checkout's jmdp."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


# Prints, last, the scipy modules loaded after `import jmdp, jmdp.cli` and the
# `main` calls given as a JSON list of argv lists (each must exit 0).
_SCIPY_PROBE = """
import json, sys
import jmdp, jmdp.cli
for argv in json.loads(sys.argv[1]):
    assert jmdp.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_leaves_out_scipy():
    proc = _fresh_python("-c", _SCIPY_PROBE, "[]")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_exact_and_incremental_runs_leave_out_scipy(tmp_path):
    runs = {
        "dp2": {},
        "dpn": {"env": {"builtin": "crc", "num_states": 3, "gamma": 0.9},
                "algorithm": {"name": "dpn", "order": 3}},
        "incremental": {"algorithm": {"name": "incremental", "num_updates": 2_000,
                                      "trace_stride": 1_000}},
    }
    argvs = [["eval", "--config", str(write_config(
        tmp_path / f"{name}.json", base_config(**doc, out_dir=str(tmp_path / name))))]
        for name, doc in runs.items()]
    save_env(build_crc(5, 0.9), tmp_path / "env.json")
    argvs.append(["validate-env", str(tmp_path / "env.json")])
    proc = _fresh_python("-c", _SCIPY_PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    assert "coupled-dynamics: yes\n" in proc.stdout  # validate-env ran
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in runs:
        assert (tmp_path / name / "moments.json").exists()


@pytest.mark.parametrize("command, overrides, written", [
    ("analyze", {"env": {"builtin": "crc", "num_states": 3, "gamma": 0.9},
                 "analysis": {"states": [0], "num_rollouts": 100, "trunc_tol": 1e-3}},
     ["coupling.json", "corr.json", "gaps.json", "mc_compare.csv", "ecdf.csv"]),
    ("eval", {"algorithm": {"name": "projected",
                            "features": {"builtin": "state-poly", "degree": 2}}},
     ["projected.csv", "moments.json"]),
], ids=["analyze", "projected"])
def test_analyze_and_projected_runs_leave_out_scipy(tmp_path, command, overrides, written):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", base_config(**overrides, out_dir=str(out)))
    proc = _fresh_python("-c", _SCIPY_PROBE, json.dumps([[command, "--config", str(cfg)]]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in [*written, "manifest.json"]:
        assert (out / name).exists(), name


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

    def test_large_ring_never_builds_the_dense_table(self, tmp_path, capsys):
        """ring(2048)'s dense S x N x S table would be 64 MiB; validate-env
        sums the transition rows from the sparse marginal law instead."""
        path = tmp_path / "ring.json"
        save_env(build_ring_chain(2048, 0.9), path)
        small = tmp_path / "small.json"
        save_env(build_ring_chain(4, 0.9), small)
        assert main(["validate-env", str(small)]) == EXIT_OK  # imports, outside the trace
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["validate-env", str(path)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024
        assert capsys.readouterr().out == (
            "states: 2048\nactions: 2\nnoise support: 4\ngamma: 0.9\n"
            "mean reward range: [0.5, 0.5]\ntransition rows stochastic: True\n"
            "coupled-dynamics: yes\n")

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
        assert rows[0] == "iteration,residual_lambda,certified_bound,order"
        gamma = 0.9
        rows = [(int(k), float(r), float(b), int(o))
                for k, r, b, o in (row.split(",") for row in rows[1:])]
        # One run of sweeps per order k, contracting at gamma^k, then the
        # full backup, whose bound and update count the manifest reports.
        assert [o for o, _ in itertools.groupby(o for *_, o in rows)] == [1, 2, 0]
        for (_, r0, _, o0), (_, r1, _, o1) in zip(rows, rows[1:]):
            if o0 == o1:
                assert r1 <= gamma**o0 * r0 + 1e-10
        k, _, bound, _ = rows[-1]
        assert bound <= 1e-8
        assert (k, bound) == (manifest["result"]["iterations"],
                              manifest["result"]["certified_error_bound"])

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
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["diverged"] is True and result["nu_source"] == "uniform-fallback"

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr(cli, "jipe", out_of_memory)
        cfg = write_config(tmp_path / "c.json", base_config(out_dir=str(tmp_path / "run")))
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: MemoryError: Unable to allocate 1.16 TiB for an array\n"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(algorithm={"name": "nope"}))
        assert main(["eval", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["eval", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_policy_of_another_shape_is_a_config_error(self, tmp_path, capsys):
        save_policy(Policy(np.full((5, 3), 1 / 3)), tmp_path / "pol.json")
        doc = base_config(policy={"path": "pol.json"}, out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: config.policy: table shape (5, 3) does not match the "
            "environment (5 states, 2 actions)\n")
        assert not (tmp_path / "run").exists()

    def test_constant_step_run(self, tmp_path):
        doc = base_config(
            algorithm={"name": "incremental", "rule": "constant", "alpha0": 0.05,
                       "visitation": "sweep", "num_updates": 20_000,
                       "trace_stride": 5_000},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "run" / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["update_index"]) for r in rows] == [5_000, 10_000, 15_000, 20_000]
        assert all(float(r["step_size_last"]) == 0.05 for r in rows)

    def test_projected_identity_features_reproduce_the_exact_tables(self, tmp_path):
        """With identity features both projections are exact, so the
        projected loop converges to the tabular fixed point."""
        doc = base_config(env={"builtin": "ring", "num_states": 8, "gamma": 0.9},
                          **_projected({"builtin": "identity"}),
                          out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["converged"] is True and result["iterations"] == 192
        moments = json.loads((tmp_path / "run" / "moments.json").read_text())
        env = build_ring_chain(8, 0.9)
        exact = jipe(env, Policy.uniform(env.space), 1e-10).final
        np.testing.assert_allclose(moments["theta_mu"], exact.m_mu, rtol=0, atol=1e-6)
        np.testing.assert_allclose(moments["theta_sigma"], exact.m_sigma, rtol=0, atol=1e-6)

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
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["sqrt_c_rho"] > 0.0
        assert result["coupling_converged"] is True
        assert 1 <= result["coupling_iterations"] <= 40

    @pytest.mark.parametrize("env, source, note", NU_CASES, ids=["crc", "ring"])
    def test_projected_manifest_records_nu_source(self, tmp_path, env, source, note):
        doc = base_config(
            env=env,
            algorithm={"name": "projected",
                       "features": {"builtin": "state-poly", "degree": 2}},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["nu_source"] == source
        assert re.fullmatch(note, result["nu_note"])

    def test_projected_on_a_large_ring_fits_the_default_budget(self, tmp_path):
        # |X| = 4096: a dense marginal kernel alone would need 134 MB; only
        # the coupling step, which falls back to beta = 1, is over budget.
        doc = base_config(
            env={"builtin": "ring", "num_states": 2048, "gamma": 0.9},
            algorithm={"name": "projected",
                       "features": {"builtin": "state-poly", "degree": 2}},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        result = json.loads((tmp_path / "run" / "manifest.json").read_text())["result"]
        assert result["nu_source"] == "stationary" and result["converged"] is True
        assert result["sqrt_c_rho"] is None and result["beta"] == 1.0

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

    def test_singular_feature_gram_is_an_error_without_output(self, tmp_path, capsys,
                                                               monkeypatch):
        # A 40 x 6 map with singular values down to 1e-9 passes FeatureMap's
        # rank test; whether np.linalg.solve then calls Phi' D Phi singular
        # depends on the BLAS, so the LinAlgError is injected.
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.normal(size=(40, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        phi = u @ np.diag(np.logspace(0, -9, 6)) @ v.T
        (tmp_path / "phi.json").write_text(
            json.dumps({"format_version": 1, "phi": phi.tolist()}))
        doc = base_config(
            env={"builtin": "ring", "num_states": 20, "gamma": 0.9},
            algorithm={"name": "projected", "features": {"path": "phi.json"}},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: FeatureRankError: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("count", ["stationary", "loop"])
    def test_projected_budget_refused_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                        count):
        env = build_ring_chain(32, 0.9)
        loop_need = check_projected_budget(env, state_poly_features(32, 2, 2), 10_000)
        stationary_need = check_stationary_budget(env)
        assert stationary_need < loop_need  # so each count is the first to refuse
        need = stationary_need if count == "stationary" else loop_need
        doc = base_config(
            env={"builtin": "ring", "num_states": 32, "gamma": 0.9},
            algorithm={"name": "projected", "features": {"builtin": "state-poly",
                                                         "degree": 2}},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)

        def never(*args, **kwargs):
            raise AssertionError("work started before the budget checks")

        for name in ("stationary_distribution", "projected_jipe2"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        what = ("stationary distribution over 64 coordinates" if count == "stationary"
                else "projected iteration over 64 coordinates (3 features)")
        assert capsys.readouterr().err == (f"error: BudgetError: {what} needs {need} bytes; "
                                           f"budget is {need - 1}\n")
        assert not (tmp_path / "run").exists()
        if count == "loop":  # at the loop's count, both counts pass
            monkeypatch.undo()
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
            assert main(["eval", "--config", str(cfg)]) == EXIT_OK
            assert (tmp_path / "run" / "projected.csv").exists()

    def test_indefinite_iterate_is_an_error_without_output(self, tmp_path, capsys,
                                                           monkeypatch):
        # The shared clip is patched to return an indefinite iterate, as an
        # ill-conditioned feature map can through rounding.
        monkeypatch.setattr(fa, "_clip_psd", lambda core, r_inv: (-np.eye(core.shape[0]), core))
        doc = base_config(
            algorithm={"name": "projected", "features": {"builtin": "state-poly",
                                                         "degree": 2}},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: FeatureRankError: iterate 1 fails its parameter check")
        assert "cond(R) = " in err
        assert not (tmp_path / "run").exists()

    def test_dpn_budget_refused_before_any_output(self, tmp_path, capsys, monkeypatch):
        env = build_crc(3, 0.8)
        need = _BackupPlan(env, Policy.uniform(env.space), 3, 100_000).need  # default max_iter
        doc = base_config(
            env={"builtin": "crc", "num_states": 3, "gamma": 0.8},
            algorithm={"name": "dpn", "order": 3, "epsilon": 1e-6},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == (f"error: BudgetError: order-3 backup over 6 coordinates needs "
                       f"{need} bytes; budget is {need - 1}\n")
        assert not (tmp_path / "run").exists()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "run" / "moments.json").exists()

    def test_incremental_budget_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(cli, "jipe", never)  # the reference solve comes first
        need = check_incremental_budget(build_crc(5, 0.9))
        doc = base_config(algorithm={"name": "incremental", "num_updates": 1_000},
                          out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        assert capsys.readouterr().err == (f"error: BudgetError: incremental run over 10 "
                                           f"coordinates needs {need} bytes; budget is {need - 1}\n")
        assert not (tmp_path / "run").exists()

    def test_dp2_budget_refused_before_any_output(self, tmp_path, capsys, monkeypatch):
        need = check_backup_budget(build_crc(5, 0.9), 2)
        cfg = write_config(tmp_path / "c.json", base_config(out_dir=str(tmp_path / "run")))
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        assert main(["eval", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == (f"error: BudgetError: order-2 backup over 10 coordinates "
                       f"needs {need} bytes; budget is {need - 1}\n")
        assert not (tmp_path / "run").exists()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        assert main(["eval", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "run" / "moments.json").exists()

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

    @pytest.mark.parametrize("env, policy", [
        ({"builtin": "crc", "num_states": 5, "gamma": 0.9}, {"builtin": "uniform"}),
        ({"builtin": "wgw", "width": 2, "height": 2, "gamma": 0.9}, {"builtin": "wgw-goal"}),
    ], ids=["crc5", "wgw2x2-goal"])
    def test_dp2_is_dpn_at_order_two(self, tmp_path, env, policy):
        """dp2 and dpn at order 2 are one solve: the same residuals.csv bytes,
        tables and certificate."""
        runs = {}
        for name, algo in (("dp2", {"name": "dp2"}), ("dpn", {"name": "dpn", "order": 2})):
            doc = base_config(env=env, policy=policy, algorithm=algo,
                              out_dir=str(tmp_path / name))
            cfg = write_config(tmp_path / f"{name}.json", doc)
            assert main(["eval", "--config", str(cfg)]) == EXIT_OK
            out = tmp_path / name
            runs[name] = ((out / "residuals.csv").read_bytes(),
                          json.loads((out / "moments.json").read_text()),
                          json.loads((out / "manifest.json").read_text())["result"])
        (csv2, m2, res2), (csv_n, m_n, res_n) = runs["dp2"], runs["dpn"]
        assert csv2 == csv_n
        assert m_n["order"] == 2
        assert m2["m_mu"] == m_n["tables"][0] and m2["m_sigma"] == m_n["tables"][1]
        for key in ("certified", "iterations", "certified_error_bound"):
            assert res2[key] == res_n[key]
        assert res2["certified"] is True


class TestAnalyze:
    @pytest.mark.parametrize("env, source, note", NU_CASES, ids=["crc", "ring"])
    def test_manifest_records_nu_source_and_note(self, tmp_path, env, source, note):
        analysis = {"corr": False, "gaps": False, "ecdf": False, "mc_compare": False}
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           base_config(env=env, analysis=analysis, out_dir=str(out)))
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        result = json.loads((out / "manifest.json").read_text())["result"]
        assert result["nu_source"] == source
        assert re.fullmatch(note, result["nu_note"])
        assert json.loads((out / "coupling.json").read_text())["nu_source"] == source

    def test_manifest_has_no_weighting_law_without_coupling(self, tmp_path):
        analysis = {"corr": False, "gaps": False, "ecdf": False, "mc_compare": False,
                    "coupling": False}
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", base_config(analysis=analysis, out_dir=str(out)))
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        result = json.loads((out / "manifest.json").read_text())["result"]
        assert "nu_source" not in result and "nu_note" not in result

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
        assert sorted(mc) == ["horizon", "max_steps", "num_rollouts", "rollout_steps",
                              "truncation_bias_bound"]
        horizon = truncation_horizon(0.9, 1e-4)
        assert mc["horizon"] == horizon and mc["num_rollouts"] == 500
        assert mc["truncation_bias_bound"] == 0.9**horizon / (1 - 0.9) <= 1e-4
        assert (mc["max_steps"] < horizon) if absorbed else (mc["max_steps"] == horizon)
        # The live rollout-steps summed over both blocks: finished rollouts
        # leave the simulation, so on wgw they fall short of the full count.
        full = 500 * mc["max_steps"] * 2
        assert (0 < mc["rollout_steps"] < full) if absorbed else (mc["rollout_steps"] == full)

    def test_uncertified_solve_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_ANALYSIS_MAX_ITER", 3)
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
        # wgw(6x6), |X| = 144: a budget one byte below the same_state need
        # (the larger mode, checked first) fails before any other work.
        env = build_wgw(6, 6, (0, 5), 0.3, 0.9)
        need = check_coupling_budget(env, "same_state")
        assert check_coupling_budget(env, "global") < need
        # The jipe solve's count, with its 100 000-entry residual trace, is
        # the larger here; at both counts the run goes through.
        both = max(need, check_backup_budget(env, 2))
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        doc = base_config(
            env={"builtin": "wgw", "width": 6, "height": 6, "gamma": 0.9},
            analysis={"states": [0], "num_rollouts": 10, "corr": False},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: BudgetError: " in err and f"needs {need} bytes" in err
        assert not (tmp_path / "run").exists()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", both)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "run" / "coupling.json").exists()

    def test_stationary_budget_fails_before_other_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("heavy work started before the budget check")

        for name in ("jipe", "coupling_coefficient", "stationary_distribution",
                     "mc_state_block"):
            monkeypatch.setattr(cli, name, never)
        # The coupling count is larger; passed here, the stationary count refuses.
        monkeypatch.setattr(cli, "check_coupling_budget", lambda env, mode: 0)
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        need = check_stationary_budget(env)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        doc = base_config(
            env={"builtin": "wgw", "width": 3, "height": 3, "gamma": 0.9},
            analysis={"states": [0], "num_rollouts": 10},
            out_dir=str(tmp_path / "run"),
        )
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert ("error: BudgetError: stationary distribution over 36 coordinates "
                f"needs {need} bytes") in err
        assert not (tmp_path / "run").exists()

    def test_backup2_budget_fails_before_other_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("heavy work started before the budget check")

        for name in ("jipe", "coupling_coefficient", "stationary_distribution",
                     "mc_state_block"):
            monkeypatch.setattr(cli, name, never)
        for name in ("check_coupling_budget", "check_stationary_budget", "check_mc_budget"):
            monkeypatch.setattr(cli, name, lambda *args: 0)
        need = check_backup_budget(build_crc(5, 0.9), 2)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        doc = base_config(analysis={"states": [0], "num_rollouts": 10},
                          out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert ("error: BudgetError: order-2 backup over 10 coordinates "
                f"needs {need} bytes") in err
        assert not (tmp_path / "run").exists()

    def test_rollout_budget_fails_before_other_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("heavy work started before the budget check")

        for name in ("jipe", "coupling_coefficient", "stationary_distribution",
                     "mc_state_block"):
            monkeypatch.setattr(cli, name, never)
        doc = base_config(analysis={"states": [0], "num_rollouts": 10**9},
                          out_dir=str(tmp_path / "run"))
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: BudgetError: Monte Carlo block of 2 branches and 1000000000" in err
        assert not (tmp_path / "run").exists()
        # One byte below the count of a small block refuses as well.
        need = check_mc_budget(2, 300)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        doc["analysis"]["num_rollouts"] = 300
        write_config(tmp_path / "c.json", doc)
        assert main(["analyze", "--config", str(cfg)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert ("error: BudgetError: Monte Carlo block of 2 branches and 300 rollouts "
                f"needs {need} bytes; budget is {need - 1}") in err
        assert not (tmp_path / "run").exists()

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
RESIDUALS = ["iteration", "residual_lambda", "certified_bound", "order"]
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
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert sorted(versions) == ["blas", "blas_threads_env", "jmdp", "numpy", "python"]
        assert sorted(versions["blas"]) == ["name", "version"]
        assert versions["blas_threads_env"] == {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count(),
        }


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

    def test_coupling_json_byte_identical(self, tmp_path):
        doc = base_config(
            env={"builtin": "wgw", "width": 3, "height": 3, "goal_row": 0,
                 "goal_col": 2, "p_wind": 0.3, "gamma": 0.9},
            policy={"builtin": "wgw-goal"},
            analysis={"corr": False, "gaps": False, "ecdf": False,
                      "mc_compare": False, "coupling": True},
            seed=3,
        )
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            cfg = write_config(tmp_path / f"c_{tag}.json", {**doc, "out_dir": str(out)})
            assert main(["analyze", "--config", str(cfg)]) == EXIT_OK
            blobs.append((out / "coupling.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_incremental_byte_identical(self, tmp_path):
        self._run_twice(
            tmp_path,
            base_config(
                algorithm={"name": "incremental", "num_updates": 30_000,
                           "trace_stride": 10_000, "visitation": "uniform"},
                seed=7,
            ),
        )
