"""Experiment runner: seeded, config-driven evaluation and analysis with CSV
and JSON outputs suitable for external plotting.

Exit codes: 0 success / certified, 1 configuration error, 2 finished without a
convergence certificate, 3 divergence detected, 4 any other package error (a
resource budget exceeded, a violated assumption, ...), reported as
"error: <ExceptionClass>: <message>".
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import MomentCollection2
from .dp import DEFAULT_ORDER_BUDGET_BYTES, jipe2, jipe_n, write_residual_csv
from .env import (
    ExoJmdp,
    Policy,
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    child_seed,
    is_coupled_dynamics,
    load_env,
    load_policy,
    marginal_mdp,
    wgw_goal_policy,
)
from .errors import ConfigError, DivergenceError, JmdpError
from .fa import (
    COUPLING_MODES,
    FeatureMap,
    check_coupling_budget,
    coupling_coefficient,
    identity_features,
    projected_jipe2,
    state_poly_features,
    state_ramp_features,
    stationary_distribution,
)
from .incremental import (
    StepSchedule,
    VisitationScheme,
    run_incremental,
    write_incremental_csv,
)
from .stats import (
    build_gap_report,
    chebyshev_ecdf,
    corr_matrix,
    gap_stats,
    mc_state_block,
    write_ecdf_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DIVERGENCE = 3
EXIT_ERROR = 4


def _check_keys(doc: dict, allowed, path: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _get(doc: dict, key: str, path: str, default=None, required: bool = False):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return doc[key]


class RunConfig:
    """Validated run configuration; round-trips through to_dict/from_dict."""

    ENV_BUILTINS = (
        "crc",
        "wgw",
        "ring",
        "indep-successors",
        "shared-successors",
        "hub-successors",
    )

    def __init__(self, doc: dict, base_dir: Path | None = None):
        if not isinstance(doc, dict):
            raise ConfigError("config: top level must be an object")
        _check_keys(
            doc,
            ("format_version", "env", "policy", "algorithm", "analysis", "seed", "out_dir"),
            "config",
        )
        if _get(doc, "format_version", "config", required=True) != 1:
            raise ConfigError("config.format_version: only version 1 is supported")
        self.base_dir = base_dir or Path(".")
        self.env_spec = self._parse_env(_get(doc, "env", "config", required=True))
        self.policy_spec = self._parse_policy(_get(doc, "policy", "config") or {"builtin": "uniform"})
        self.algorithm = self._parse_algorithm(_get(doc, "algorithm", "config", required=True))
        self.analysis = self._parse_analysis(_get(doc, "analysis", "config") or {})
        seed = _get(doc, "seed", "config", default=0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"config.seed: must be a nonnegative integer, got {seed!r}")
        self.seed = seed
        self.out_dir = _get(doc, "out_dir", "config", default="runs/latest")
        self.raw = doc

    @staticmethod
    def _parse_env(doc) -> dict:
        if not isinstance(doc, dict):
            raise ConfigError("config.env: must be an object")
        if "path" in doc:
            _check_keys(doc, ("path",), "config.env")
            return {"path": doc["path"]}
        _check_keys(
            doc,
            ("builtin", "num_states", "gamma", "width", "height", "goal_row",
             "goal_col", "p_wind", "hub_probs"),
            "config.env",
        )
        builtin = _get(doc, "builtin", "config.env", required=True)
        if builtin not in RunConfig.ENV_BUILTINS:
            raise ConfigError(
                f"config.env.builtin: unknown builtin {builtin!r}; "
                f"choose from {RunConfig.ENV_BUILTINS}"
            )
        return dict(doc)

    @staticmethod
    def _parse_policy(doc) -> dict:
        if not isinstance(doc, dict):
            raise ConfigError("config.policy: must be an object")
        if "path" in doc:
            _check_keys(doc, ("path",), "config.policy")
            return {"path": doc["path"]}
        _check_keys(doc, ("builtin",), "config.policy")
        builtin = _get(doc, "builtin", "config.policy", required=True)
        if builtin not in ("uniform", "wgw-goal"):
            raise ConfigError(f"config.policy.builtin: unknown builtin {builtin!r}")
        return dict(doc)

    @staticmethod
    def _parse_algorithm(doc) -> dict:
        if not isinstance(doc, dict):
            raise ConfigError("config.algorithm: must be an object")
        name = _get(doc, "name", "config.algorithm", required=True)
        if name == "dp2":
            _check_keys(doc, ("name", "epsilon", "max_iter"), "config.algorithm")
        elif name == "dpn":
            _check_keys(doc, ("name", "order", "epsilon", "max_iter"), "config.algorithm")
            if _get(doc, "order", "config.algorithm", required=True) < 1:
                raise ConfigError("config.algorithm.order: must be >= 1")
        elif name == "incremental":
            _check_keys(
                doc,
                ("name", "rule", "c", "alpha0", "visitation", "num_updates",
                 "trace_stride", "reference_epsilon"),
                "config.algorithm",
            )
            for key in ("num_updates", "trace_stride"):
                value = doc.get(key, 1)
                if not isinstance(value, (int, float)) or not value >= 1:
                    raise ConfigError(
                        f"config.algorithm.{key}: must be >= 1, got {value!r}"
                    )
        elif name == "projected":
            _check_keys(
                doc, ("name", "features", "epsilon", "max_iter"), "config.algorithm"
            )
        else:
            raise ConfigError(f"config.algorithm.name: unknown algorithm {name!r}")
        return dict(doc)

    @staticmethod
    def _parse_analysis(doc) -> dict:
        if not isinstance(doc, dict):
            raise ConfigError("config.analysis: must be an object")
        _check_keys(
            doc,
            ("gaps", "corr", "ecdf", "coupling", "mc_compare", "states",
             "num_rollouts", "trunc_tol", "confidence", "epsilon"),
            "config.analysis",
        )
        rollouts = doc.get("num_rollouts", 1)
        if not _is_int(rollouts) or rollouts < 1:
            raise ConfigError(
                f"config.analysis.num_rollouts: must be an integer >= 1, got {rollouts!r}"
            )
        states = doc.get("states", [])
        if not isinstance(states, list) or not all(
            _is_int(s) and s >= 0 for s in states
        ):
            raise ConfigError(
                f"config.analysis.states: must be a list of state indices, got {states!r}"
            )
        if len(set(states)) != len(states):
            raise ConfigError(f"config.analysis.states: duplicate entries in {states!r}")
        return dict(doc)

    def to_dict(self) -> dict:
        return dict(self.raw)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()

    # -- materialization ----------------------------------------------------

    def build_env(self) -> ExoJmdp:
        spec = self.env_spec
        if "path" in spec:
            return load_env(self.base_dir / spec["path"])
        builtin = spec["builtin"]
        gamma = _get(spec, "gamma", "config.env", default=0.9)
        if builtin == "crc":
            return build_crc(_get(spec, "num_states", "config.env", default=25), gamma)
        if builtin == "ring":
            return build_ring_chain(_get(spec, "num_states", "config.env", default=8), gamma)
        if builtin == "wgw":
            width = _get(spec, "width", "config.env", default=3)
            height = _get(spec, "height", "config.env", default=3)
            goal = (
                _get(spec, "goal_row", "config.env", default=0),
                _get(spec, "goal_col", "config.env", default=width - 1),
            )
            p_wind = _get(spec, "p_wind", "config.env", default=0.3)
            return build_wgw(width, height, goal, p_wind, gamma)
        if builtin == "indep-successors":
            return build_indep_successors(
                _get(spec, "num_states", "config.env", default=6), gamma
            )
        if builtin == "shared-successors":
            return build_shared_successors(
                _get(spec, "num_states", "config.env", default=16), gamma
            )
        return build_hub_successors(
            _get(spec, "num_states", "config.env", default=16),
            gamma,
            tuple(_get(spec, "hub_probs", "config.env", default=(0.8, 0.2))),
        )

    def build_policy(self, env: ExoJmdp) -> Policy:
        spec = self.policy_spec
        if "path" in spec:
            policy = load_policy(self.base_dir / spec["path"])
        elif spec["builtin"] == "uniform":
            policy = Policy.uniform(env.space)
        else:
            if self.env_spec.get("builtin") != "wgw":
                raise ConfigError(
                    "config.policy.builtin: wgw-goal policy requires a wgw builtin env"
                )
            width = _get(self.env_spec, "width", "config.env", default=3)
            height = _get(self.env_spec, "height", "config.env", default=3)
            goal = (
                _get(self.env_spec, "goal_row", "config.env", default=0),
                _get(self.env_spec, "goal_col", "config.env", default=width - 1),
            )
            policy = wgw_goal_policy(width, height, goal)
        if policy.probs.shape != (env.space.num_states, env.space.num_actions):
            raise ConfigError(
                f"config.policy: table shape {policy.probs.shape} does not match "
                f"the environment ({env.space.num_states} states, "
                f"{env.space.num_actions} actions)"
            )
        return policy

    def build_features(self, env: ExoJmdp) -> FeatureMap:
        doc = _get(self.algorithm, "features", "config.algorithm", required=True)
        if not isinstance(doc, dict):
            raise ConfigError("config.algorithm.features: must be an object")
        if "path" in doc:
            _check_keys(doc, ("path",), "config.algorithm.features")
            raw = json.loads((self.base_dir / doc["path"]).read_text())
            if raw.get("format_version") != 1:
                raise ConfigError(
                    f"{doc['path']}.format_version: unsupported version"
                )
            return FeatureMap(np.asarray(raw["phi"], dtype=float))
        _check_keys(doc, ("builtin", "degree"), "config.algorithm.features")
        builtin = _get(doc, "builtin", "config.algorithm.features", required=True)
        s_n, a_n = env.space.num_states, env.space.num_actions
        if builtin == "identity":
            return identity_features(env.space.num_x)
        if builtin == "state-poly":
            return state_poly_features(
                s_n, a_n, _get(doc, "degree", "config.algorithm.features", default=2)
            )
        if builtin == "state-ramp":
            return state_ramp_features(s_n, a_n)
        raise ConfigError(
            f"config.algorithm.features.builtin: unknown builtin {builtin!r}"
        )


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: config file not found") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return RunConfig(doc, base_dir=Path(path).resolve().parent)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _moments_doc(m: MomentCollection2, gamma: float) -> dict:
    return {
        "format_version": 1,
        "gamma": gamma,
        "m_mu": m.m_mu.tolist(),
        "m_sigma": m.m_sigma.tolist(),
    }


def _manifest(cfg: RunConfig, extra: dict) -> dict:
    doc = {
        "config": cfg.to_dict(),
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {
            "jmdp": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    doc.update(extra)
    return doc


def cmd_eval(cfg: RunConfig, out_dir: Path) -> int:
    env = cfg.build_env()
    policy = cfg.build_policy(env)
    algo = cfg.algorithm
    out_dir.mkdir(parents=True, exist_ok=True)
    name = algo["name"]
    status = {"algorithm": name}

    if name == "dp2":
        report = jipe2(
            env,
            policy,
            float(algo.get("epsilon", 1e-8)),
            int(algo.get("max_iter", 100_000)),
        )
        write_residual_csv(report.residual_trace, env.gamma, out_dir / "residuals.csv")
        _write_json(out_dir / "moments.json", _moments_doc(report.final, env.gamma))
        status.update(
            certified=report.certified,
            iterations=report.iterations,
            certified_error_bound=report.certified_error_bound,
        )
        _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": status}))
        return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED

    if name == "dpn":
        order = int(algo["order"])
        eps = float(algo.get("epsilon", 1e-8))
        final, trace = jipe_n(env, policy, order, eps, int(algo.get("max_iter", 100_000)))
        write_residual_csv(trace, env.gamma, out_dir / "residuals.csv")
        doc = {
            "format_version": 1,
            "gamma": env.gamma,
            "order": order,
            "tables": [t.tolist() for t in final.tables],
        }
        _write_json(out_dir / "moments.json", doc)
        certified = trace[-1][1] <= eps * (1.0 - env.gamma)
        status.update(certified=certified, iterations=trace[-1][0])
        _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": status}))
        return EXIT_OK if certified else EXIT_NOT_CERTIFIED

    if name == "incremental":
        rule = algo.get("rule", "harmonic")
        if rule == "harmonic":
            schedule = StepSchedule.harmonic(float(algo.get("c", 10.0)))
        elif rule == "constant":
            schedule = StepSchedule.constant(float(algo.get("alpha0", 0.1)))
        else:
            raise ConfigError(f"config.algorithm.rule: unknown rule {rule!r}")
        visitation = VisitationScheme(algo.get("visitation", "uniform"))
        ref = jipe2(env, policy, float(algo.get("reference_epsilon", 1e-10)))
        result = run_incremental(
            env,
            policy,
            schedule,
            visitation,
            int(algo.get("num_updates", 1_000_000)),
            cfg.seed,
            fixed_point=ref.final,
            trace_stride=int(algo.get("trace_stride", 10_000)),
        )
        write_incremental_csv(result.trace, out_dir / "trace.csv")
        _write_json(out_dir / "moments.json", _moments_doc(result.final, env.gamma))
        final_dist = result.trace[-1][1] if result.trace else float("nan")
        status.update(num_updates=result.num_updates, final_distance=final_dist)
        _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": status}))
        return EXIT_OK

    # projected
    features = cfg.build_features(env)
    nu = stationary_distribution(env, policy).nu
    try:
        report = projected_jipe2(
            env,
            policy,
            features,
            nu,
            float(algo.get("epsilon", 1e-9)),
            int(algo.get("max_iter", 10_000)),
        )
    except DivergenceError as exc:
        status.update(diverged=True, detail=str(exc))
        _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": status}))
        print(f"divergence detected: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    with open(out_dir / "projected.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "successive_distance"])
        for k, dist in enumerate(report.distances):
            writer.writerow([k, repr(dist)])
    _write_json(
        out_dir / "moments.json",
        {
            "format_version": 1,
            "gamma": env.gamma,
            "theta_mu": report.moments.theta_mu.tolist(),
            "theta_sigma": report.moments.theta_sigma.tolist(),
        },
    )
    status.update(
        converged=report.converged,
        iterations=report.iterations,
        beta=report.beta,
        kappa=report.kappa,
        sqrt_c_rho=report.sqrt_c_rho,
    )
    _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": status}))
    return EXIT_OK if report.converged else EXIT_NOT_CERTIFIED


def cmd_analyze(cfg: RunConfig, out_dir: Path) -> int:
    env = cfg.build_env()
    policy = cfg.build_policy(env)
    ana = cfg.analysis
    n_s, n_a = env.space.num_states, env.space.num_actions
    states = ana.get("states", list(range(n_s)))
    if any(s >= n_s for s in states):
        raise ConfigError(
            f"config.analysis.states: entries must lie in 0..{n_s - 1}, got {states!r}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    # Coupling needs no moments; run it first, and check its memory budget
    # before any work, so an env over budget fails before the jipe2 solve
    # and the Monte Carlo blocks.
    if ana.get("coupling", True):
        budget = DEFAULT_ORDER_BUDGET_BYTES
        for mode in COUPLING_MODES:
            check_coupling_budget(env, mode, budget)
        nu = stationary_distribution(env, policy)
        reports = {}
        for mode in COUPLING_MODES:
            rep = coupling_coefficient(
                env, policy, nu.nu, mode=mode, memory_budget_bytes=budget
            )
            reports[mode] = {
                "sqrt_c_rho": rep.sqrt_c_rho,
                "gamma": rep.gamma,
                "product": rep.product,
                "satisfied": rep.satisfied,
                "iterations": rep.iterations,
                "converged": rep.converged,
            }
        _write_json(
            out_dir / "coupling.json",
            {"format_version": 1, "nu_source": nu.source, "modes": reports},
        )

    eps = float(ana.get("epsilon", 1e-10))
    fixed = jipe2(env, policy, eps).final
    rollouts = ana.get("num_rollouts", 20_000)
    trunc = float(ana.get("trunc_tol", 1e-6))
    conf = float(ana.get("confidence", 0.95))

    if ana.get("corr", True):
        doc = []
        for s in states:
            cm = corr_matrix(env.space, fixed, s)
            doc.append(
                {
                    "state": s,
                    "cov": cm.cov.tolist(),
                    "corr": [
                        [None if np.isnan(v) else v for v in row]
                        for row in cm.corr.tolist()
                    ],
                }
            )
        _write_json(out_dir / "corr.json", {"format_version": 1, "matrices": doc})

    blocks = {}
    if any(ana.get(key, True) for key in ("gaps", "mc_compare", "ecdf")):
        for s in states:
            blocks[s] = mc_state_block(
                env, policy, s, tuple(range(n_a)), rollouts, trunc,
                seed=child_seed(cfg.seed, s), confidence=conf,
            )

    if ana.get("gaps", True):
        reports = []
        for s in states:
            for a in range(n_a):
                for b in range(n_a):
                    if a == b:
                        continue
                    rep = build_gap_report(env.space, fixed, s, a, b, blocks[s])
                    reports.append(
                        {
                            "state": rep.state,
                            "action_a": rep.action_a,
                            "action_b": rep.action_b,
                            "gap_mean": rep.gap_mean,
                            "gap_variance": rep.gap_variance,
                            "cantelli_bound": rep.cantelli,
                            "mc_gap_mean": rep.mc_gap_mean,
                            "mc_gap_variance": rep.mc_gap_variance,
                            "mc_inferiority_prob": rep.mc_inferiority_prob,
                            "mc_ci_halfwidths": list(rep.mc_ci_halfwidths),
                        }
                    )
        _write_json(out_dir / "gaps.json", {"format_version": 1, "reports": reports})

    if ana.get("mc_compare", True):
        with open(out_dir / "mc_compare.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["state", "action_a", "action_b", "dp_sigma", "mc_sigma", "mc_ci"]
            )
            for s in states:
                blk = blocks[s]
                z = blk.z_value
                for a in range(n_a):
                    for b in range(n_a):
                        xa, xb = env.space.x(s, a), env.space.x(s, b)
                        writer.writerow(
                            [s, a, b, repr(float(fixed.m_sigma[xa, xb])),
                             repr(float(blk.sigma[a, b])),
                             repr(float(z * blk.sigma_se[a, b]))]
                        )

    if ana.get("ecdf", True):
        pairs = []
        for s in states:
            for a in range(n_a):
                for b in range(n_a):
                    if a != b and gap_stats(env.space, fixed, s, a, b)[0] > 0.0:
                        pairs.append((s, a, b))
        ratios = chebyshev_ecdf(env.space, fixed, pairs, blocks)
        write_ecdf_csv(ratios, out_dir / "ecdf.csv")

    _write_json(out_dir / "manifest.json", _manifest(cfg, {"result": {"analysis": True}}))
    return EXIT_OK


def cmd_validate_env(path: str) -> int:
    try:
        env = load_env(path)
    except ConfigError as exc:
        print(f"invalid environment file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    r_mean, p_s = marginal_mdp(env)
    coupled = is_coupled_dynamics(env)
    print(f"states: {env.space.num_states}")
    print(f"actions: {env.space.num_actions}")
    print(f"noise support: {env.noise.support_size}")
    print(f"gamma: {env.gamma}")
    print(f"mean reward range: [{r_mean.min():.6g}, {r_mean.max():.6g}]")
    print(f"transition rows stochastic: {bool(np.allclose(p_s.sum(axis=2), 1.0))}")
    print(f"coupled-dynamics: {'yes' if coupled else 'no'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmdp",
        description="Joint-MDP policy evaluation: moment solvers and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a solver per the config file")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None)

    p_ana = sub.add_parser("analyze", help="gap/correlation/bound analyses")
    p_ana.add_argument("--config", required=True)
    p_ana.add_argument("--seed", type=int, default=None)
    p_ana.add_argument("--out", default=None)

    p_val = sub.add_parser("validate-env", help="check an environment file")
    p_val.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "validate-env":
        return cmd_validate_env(args.path)

    try:
        overrides = {"seed": args.seed}
        if args.out is not None:
            overrides["out_dir"] = args.out
        cfg = load_config(args.config, overrides)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        return cmd_analyze(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JmdpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
