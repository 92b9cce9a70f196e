"""The four benchmark workloads: generated configs, CLI calls and output checks.

A workload is built from a seed and a scale. The seed goes into every
generated config, and the program under test receives only those config files.
"full" is the measured scale; "tiny" exists for the harness smoke test.

An operation is one round of the workload's CLI calls. exact-chain's round is
two calls (dp2, then dpn order 3), so its op_s is not a median over a mix of
two differently sized calls; every other round is a single call.

Checks use only the public jmdp API. They run outside the timed region and
return a list of failure messages (empty when the outputs are correct).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EPSILON = 1e-8
# sa-grid: largest final lambda-distance to the exact fixed point accepted
# after the run's updates. At full scale the observed values sit near 0.02.
SA_DISTANCE_BOUND = {"full": 0.1, "tiny": 0.5}
# analyze-grid: |dp_sigma - mc_sigma| may be at most this many 95% CI
# half-widths (3 half-widths is about 5.9 standard errors), plus the bias
# 2 * tol / (1 - gamma) that truncating rollouts at tail mass tol adds to a
# second moment of returns in [0, 1/(1 - gamma)].
MC_CI_FACTOR = 3.0
MC_TRUNC_TOL = 1e-6
# projected-ring: sqrt(c_rho) of ring(num_states) under the uniform policy,
# recorded from the program's own output; compared to 1e-8.
RING_SQRT_C_RHO = {32: 1.0068090662278801, 6: 1.0145639268796336}
SQRT_C_RHO_TOL = 1e-8

SCALES = {
    "exact-chain": {"full": {"chain": 40, "order_chain": 3},
                    "tiny": {"chain": 5, "order_chain": 2}},
    "sa-grid": {"full": {"side": 3, "updates": 300_000, "stride": 10_000},
                "tiny": {"side": 2, "updates": 3_000, "stride": 1_000}},
    "analyze-grid": {"full": {"side": 3, "rollouts": 5_000},
                     "tiny": {"side": 2, "rollouts": 300}},
    "projected-ring": {"full": {"ring": 32}, "tiny": {"ring": 6}},
}


@dataclass
class Call:
    """One CLI invocation: `jmdp <command> --config <config>.json --out <out>`."""

    command: str
    config: str


@dataclass
class Workload:
    configs: dict
    calls: list
    sizes: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    # Knobs the smoke test may tighten to force a failing check.
    sa_distance_bound: float = 0.0
    sqrt_c_rho: float = 0.0

    def argv(self, call: Call, config_dir: Path, out_dir: Path) -> list:
        return [call.command, "--config", str(config_dir / f"{call.config}.json"),
                "--out", str(out_dir / call.config)]

    def write_configs(self, config_dir: Path) -> None:
        config_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in self.configs.items():
            (config_dir / f"{name}.json").write_text(json.dumps(doc, indent=2))


def _doc(env: dict, seed: int, algorithm: dict, **extra) -> dict:
    return {"format_version": 1, "env": env, "algorithm": algorithm,
            "seed": seed, **extra}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """Generate the workload's configs from the seed; no jmdp import needed."""
    if name not in SCALES:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(SCALES)}")
    p = SCALES[name][scale]
    if name == "exact-chain":
        configs = {
            "dp2": _doc({"builtin": "crc", "num_states": p["chain"], "gamma": 0.9},
                        seed, {"name": "dp2", "epsilon": EPSILON}),
            "dpn": _doc({"builtin": "crc", "num_states": p["order_chain"], "gamma": 0.9},
                        seed, {"name": "dpn", "order": 3, "epsilon": EPSILON}),
        }
        calls = [Call("eval", "dp2"), Call("eval", "dpn")]
    elif name == "sa-grid":
        env = {"builtin": "wgw", "width": p["side"], "height": p["side"]}
        configs = {"sa": _doc(env, seed, {
            "name": "incremental", "rule": "harmonic", "c": 10.0,
            "visitation": "uniform", "num_updates": p["updates"],
            "trace_stride": p["stride"]}, policy={"builtin": "wgw-goal"})}
        calls = [Call("eval", "sa")]
    elif name == "analyze-grid":
        env = {"builtin": "wgw", "width": p["side"], "height": p["side"]}
        configs = {"analyze": _doc(env, seed, {"name": "dp2"},
                                   policy={"builtin": "wgw-goal"},
                                   analysis={"num_rollouts": p["rollouts"],
                                             "trunc_tol": MC_TRUNC_TOL})}
        calls = [Call("analyze", "analyze")]
    else:
        configs = {"projected": _doc(
            {"builtin": "ring", "num_states": p["ring"], "gamma": 0.9}, seed,
            {"name": "projected", "features": {"builtin": "state-poly", "degree": 2}})}
        calls = [Call("eval", "projected")]
    return Workload(configs, calls,
                    sa_distance_bound=SA_DISTANCE_BOUND[scale],
                    sqrt_c_rho=RING_SQRT_C_RHO.get(p.get("ring"), math.nan))


def build_inputs(cli, workload: Workload, config_dir: Path) -> list:
    """Load every config and build its env and policy, as the CLI does first."""
    built = []
    for name in workload.configs:
        cfg = cli.load_config(config_dir / f"{name}.json")
        env = cfg.build_env()
        built.append((name, cfg, env, cfg.build_policy(env)))
    return built


def prepare(workload: Workload, built: list) -> None:
    """Record problem sizes and compute the references the checks compare to."""
    import numpy as np

    from jmdp import dp, env as jenv, stats

    for name, cfg, env, policy in built:
        space = env.space
        sizes = {"num_states": space.num_states, "num_actions": space.num_actions,
                 "num_x": space.num_x, "pairs": space.num_x ** 2,
                 "noise_support": env.noise.support_size}
        algo = cfg.algorithm
        if name == "dp2":
            kernel = jenv.marginal_kernel(env, policy)
            r_mean, _ = jenv.marginal_mdp(env)
            workload.refs["mu"] = np.linalg.solve(
                np.eye(space.num_x) - env.gamma * kernel, r_mean.reshape(-1))
        elif name == "dpn":
            sizes["order"] = algo["order"]
            workload.refs["dpn"] = dp.jipe2(env, policy, EPSILON).final
            workload.refs["lam"] = 2.0 / (1.0 - env.gamma)
        elif name == "sa":
            sizes["num_updates"] = algo["num_updates"]
        elif name == "analyze":
            sizes["rollouts"] = cfg.analysis["num_rollouts"]
            sizes["mc_horizon"] = stats.truncation_horizon(env.gamma, MC_TRUNC_TOL)
            workload.refs["rows"] = space.num_states * space.num_actions ** 2
            workload.refs["mc_bias"] = 2 * MC_TRUNC_TOL / (1.0 - env.gamma)
        else:
            sizes["feature_dim"] = algo["features"]["degree"] + 1
        workload.sizes[name] = sizes


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["result"]


def check(workload: Workload, call: Call, out: Path) -> list:
    """Failure messages for one finished call's outputs."""
    import numpy as np

    fails = []
    res = _manifest(out)
    if call.config == "dp2":
        bound = res["certified_error_bound"]
        if not (res["certified"] and bound <= EPSILON):
            fails.append(f"dp2 certificate {bound!r} exceeds {EPSILON}")
        mu = np.asarray(json.loads((out / "moments.json").read_text())["m_mu"])
        err = float(np.max(np.abs(mu - workload.refs["mu"])))
        if err > EPSILON:
            fails.append(f"dp2 mean table off the direct solve by {err:.3e}")
    elif call.config == "dpn":
        if not res["certified"]:
            fails.append("dpn not certified")
        tables = json.loads((out / "moments.json").read_text())["tables"]
        ref = workload.refs["dpn"]
        err = max(float(np.max(np.abs(np.asarray(tables[0]) - ref.m_mu))),
                  float(np.max(np.abs(np.asarray(tables[1]) - ref.m_sigma)))
                  / workload.refs["lam"])
        if err > 2 * EPSILON:
            fails.append(f"dpn orders 1-2 off jipe2 by {err:.3e} (lambda norm)")
    elif call.config == "sa":
        dist = res["final_distance"]
        if not (math.isfinite(dist) and dist < workload.sa_distance_bound):
            fails.append(f"sa final distance {dist!r} not below "
                         f"{workload.sa_distance_bound}")
    elif call.config == "analyze":
        with open(out / "mc_compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != workload.refs["rows"]:
            fails.append(f"mc_compare has {len(rows)} rows, "
                         f"expected {workload.refs['rows']}")
        for row in rows:
            gap = abs(float(row["dp_sigma"]) - float(row["mc_sigma"]))
            if not gap <= MC_CI_FACTOR * float(row["mc_ci"]) + workload.refs["mc_bias"]:
                fails.append(f"mc_compare row {row} outside {MC_CI_FACTOR} CIs")
    else:
        if not res.get("converged"):
            fails.append("projected run did not converge")
        elif abs(res["sqrt_c_rho"] - workload.sqrt_c_rho) > SQRT_C_RHO_TOL:
            fails.append(f"sqrt_c_rho {res['sqrt_c_rho']!r} != recorded "
                         f"{workload.sqrt_c_rho!r}")
        else:
            theta = np.asarray(json.loads((out / "moments.json").read_text())
                               ["theta_sigma"])
            eig = np.linalg.eigvalsh(0.5 * (theta + theta.T))
            if eig[0] < -1e-10 * max(1.0, float(np.max(np.abs(eig)))):
                fails.append(f"theta_sigma not PSD (min eigenvalue {eig[0]:.3e})")
    return fails
