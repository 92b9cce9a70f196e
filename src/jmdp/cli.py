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
from .dp import DEFAULT_ORDER_BUDGET_BYTES, jipe2, jipe_n
from .env import (
    _PROB_TOL,
    _REQUIRED,
    _int,
    _real,
    _section,
    ExoJmdp,
    Policy,
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    check_format_version,
    child_seed,
    is_coupled_dynamics,
    load_env,
    load_policy,
    marginal_mdp,
    read_json_doc,
    wgw_goal_policy,
)
from .errors import ConfigError, DivergenceError, JmdpError
from .fa import (
    COUPLING_MODES,
    FeatureMap,
    check_coupling_budget,
    coupling_coefficient,
    identity_features,
    load_features,
    projected_jipe2,
    state_poly_features,
    state_ramp_features,
    stationary_distribution,
)
from .incremental import StepSchedule, VisitationScheme, run_incremental
from .stats import cantelli_bound, chebyshev_ecdf, corr_matrix, gap_stats, mc_state_block

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DIVERGENCE = 3
EXIT_ERROR = 4


# -- config schema -----------------------------------------------------------
# Each section is a schema table parsed by env._section (see the file-format
# section of env.py); a default of None stands for a value that depends on the
# environment.


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be true or false, got {value!r}")
    return value


def _text(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: must be a non-empty string, got {value!r}")
    return value


def _choice(*options):
    def check(value, path):
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"{path}: unknown value {value!r}; choose from {options}")
        return value
    return check


def _or_none(check):
    return lambda value, path: None if value is None else check(value, path)


def _hub_probs(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: must be a pair of probabilities, got {value!r}")
    probs = tuple(_real("(0, 1)")(p, f"{path}[{i}]") for i, p in enumerate(value))
    if abs(sum(probs) - 1.0) > _PROB_TOL:
        raise ConfigError(f"{path}: must sum to 1, got {value!r}")
    return probs


def _state_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list of state indices, got {value!r}")
    states = [_int(0)(s, f"{path}[{i}]") for i, s in enumerate(value)]
    if len(set(states)) != len(states):
        raise ConfigError(f"{path}: duplicate entries in {value!r}")
    return states


def _pick(key: str, variants: dict, files: bool = False):
    """Check of a section whose `key` field picks its schema from `variants`;
    with `files`, a section holding a "path" names a JSON file instead."""
    choose = _choice(*variants)

    def check(doc, path):
        variant = {}
        if isinstance(doc, dict) and files and "path" in doc:
            return _section(doc, {"path": (_text, _REQUIRED)}, path)
        if isinstance(doc, dict) and key in doc:
            variant = variants[choose(doc[key], f"{path}.{key}")]
        return _section(doc, {key: (choose, _REQUIRED), **variant}, path)
    return check


_GAMMA = (_real("(0, 1)"), 0.9)


def _build_wgw(width, height, goal_row, goal_col, p_wind, gamma) -> ExoJmdp:
    return build_wgw(width, height, (goal_row, goal_col), p_wind, gamma)


# builtin -> (builder called with the parsed fields, schema)
_ENV_BUILTINS = {
    "crc": (build_crc, {"num_states": (_int(2), 25), "gamma": _GAMMA}),
    "wgw": (_build_wgw, {
        "width": (_int(1), 3),
        "height": (_int(1), 3),
        "goal_row": (_int(0), 0),
        "goal_col": (_or_none(_int(0)), None),  # None: width - 1
        "p_wind": (_real("[0, 1]"), 0.3),
        "gamma": _GAMMA,
    }),
    "ring": (build_ring_chain, {"num_states": (_int(3), 8), "gamma": _GAMMA}),
    "indep-successors": (
        build_indep_successors, {"num_states": (_int(2), 6), "gamma": _GAMMA}
    ),
    "shared-successors": (
        build_shared_successors, {"num_states": (_int(2), 16), "gamma": _GAMMA}
    ),
    "hub-successors": (build_hub_successors, {
        "num_states": (_int(3), 16),
        "gamma": _GAMMA,
        "hub_probs": (_hub_probs, (0.8, 0.2)),
    }),
}


def _env(doc, path):
    """The env section; wgw's goal_col defaults to the last column, width - 1."""
    schemas = {name: schema for name, (_, schema) in _ENV_BUILTINS.items()}
    env = _pick("builtin", schemas, files=True)(doc, path)
    if "builtin" in env and env["builtin"] == "wgw" and env["goal_col"] is None:
        env["goal_col"] = env["width"] - 1
    return env


_POSITIVE = _real("(0, inf)")
_REFERENCE_EPSILON = 1e-10  # the incremental run's reference jipe2 solve
_ALGORITHMS = {
    "dp2": {"epsilon": (_POSITIVE, 1e-8), "max_iter": (_int(0), 100_000)},
    "dpn": {
        "order": (_int(1), _REQUIRED),
        "epsilon": (_POSITIVE, 1e-8),
        "max_iter": (_int(0), 100_000),
    },
    "incremental": {
        "rule": (_choice("harmonic", "constant"), "harmonic"),
        "c": (_POSITIVE, 10.0),
        "alpha0": (_real("(0, 1]"), 0.1),
        "visitation": (_choice("uniform", "sweep"), "uniform"),
        "num_updates": (_int(1), 1_000_000),
        "trace_stride": (_int(1), 10_000),
    },
    "projected": {
        "features": (_pick("builtin", {
            "identity": {},
            "state-poly": {"degree": (_int(0), 2)},
            "state-ramp": {},
        }, files=True), _REQUIRED),
        "epsilon": (_POSITIVE, 1e-9),
        "max_iter": (_int(0), 10_000),
    },
}


def _algorithm(doc, path):
    """The algorithm section; incremental's c goes only with the harmonic rule,
    alpha0 only with the constant one."""
    algo = _pick("name", _ALGORITHMS)(doc, path)
    unused = {"harmonic": "alpha0", "constant": "c"}.get(algo.get("rule"))
    if unused in doc:
        raise ConfigError(f"{path}.{unused}: not used with rule {algo['rule']!r}")
    return algo


_ANALYSIS = {
    "gaps": (_bool, True),
    "corr": (_bool, True),
    "ecdf": (_bool, True),
    "coupling": (_bool, True),
    "mc_compare": (_bool, True),
    "states": (_or_none(_state_list), None),  # None: every state
    "num_rollouts": (_int(1), 20_000),
    "trunc_tol": (_POSITIVE, 1e-6),
    "confidence": (_real("(0, 1)"), 0.95),
    "epsilon": (_POSITIVE, 1e-10),
}

_CONFIG = {
    "format_version": (check_format_version, _REQUIRED),
    "env": (_env, _REQUIRED),
    "policy": (_pick("builtin", {"uniform": {}, "wgw-goal": {}}, files=True),
               {"builtin": "uniform"}),
    "algorithm": (_algorithm, _REQUIRED),
    "analysis": (lambda doc, path: _section(doc, _ANALYSIS, path), {}),
    "seed": (_int(0), 0),
    "out_dir": (_text, "runs/latest"),
}


class RunConfig:
    """Run configuration parsed against the schema tables above; to_dict and
    config_hash record the raw document."""

    def __init__(self, doc: dict, base_dir: Path | None = None):
        parsed = _section(doc, _CONFIG, "config")
        self.env_spec, self.policy_spec = parsed["env"], parsed["policy"]
        self.algorithm, self.analysis = parsed["algorithm"], parsed["analysis"]
        self.seed, self.out_dir = parsed["seed"], parsed["out_dir"]
        self.base_dir = base_dir or Path(".")
        self.raw = doc

    def to_dict(self) -> dict:
        return dict(self.raw)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()

    # -- materialization ----------------------------------------------------

    def build_env(self) -> ExoJmdp:
        fields = dict(self.env_spec)
        if "path" in fields:
            return load_env(self.base_dir / fields["path"])
        builder, _ = _ENV_BUILTINS[fields.pop("builtin")]
        return builder(**fields)

    def build_policy(self, env: ExoJmdp) -> Policy:
        spec, env_spec = self.policy_spec, self.env_spec
        if "path" in spec:
            policy = load_policy(self.base_dir / spec["path"])
        elif spec["builtin"] == "uniform":
            policy = Policy.uniform(env.space)
        elif "builtin" in env_spec and env_spec["builtin"] == "wgw":
            goal = (env_spec["goal_row"], env_spec["goal_col"])
            policy = wgw_goal_policy(env_spec["width"], env_spec["height"], goal)
        else:
            raise ConfigError(
                "config.policy.builtin: wgw-goal policy requires a wgw builtin env"
            )
        if policy.probs.shape != (env.space.num_states, env.space.num_actions):
            raise ConfigError(
                f"config.policy: table shape {policy.probs.shape} does not match "
                f"the environment ({env.space.num_states} states, "
                f"{env.space.num_actions} actions)"
            )
        return policy

    def build_features(self, env: ExoJmdp) -> FeatureMap:
        spec = self.algorithm["features"]
        s_n, a_n = env.space.num_states, env.space.num_actions
        if "path" in spec:
            features = load_features(self.base_dir / spec["path"])
            if features.num_x != env.space.num_x:
                raise ConfigError(
                    f"config.algorithm.features: {features.num_x} rows, "
                    f"the environment has {env.space.num_x} state-action pairs"
                )
            return features
        if spec["builtin"] == "identity":
            return identity_features(env.space.num_x)
        if spec["builtin"] == "state-poly":
            return state_poly_features(s_n, a_n, spec["degree"])
        return state_ramp_features(s_n, a_n)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    doc = read_json_doc(path)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    return RunConfig(doc, base_dir=Path(path).resolve().parent)


# -- outputs -----------------------------------------------------------------
# Every file a run writes goes through _write_csv or _write_json; the README's
# "Outputs" table lists each file's CSV columns or JSON keys.


def _write_csv(path: Path, header: list, rows) -> None:
    """Header row, then the rows; floats, numpy ones too, are written as
    repr(float(v)), the shortest text that reads back to the same double."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v
                 for v in row]
            )


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _finish(cfg: RunConfig, out_dir: Path, result: dict, code: int) -> int:
    """Write manifest.json (config, its hash, seed, versions, result); return code."""
    doc = {
        "config": cfg.to_dict(),
        "config_sha256": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {
            "jmdp": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "result": result,
    }
    _write_json(out_dir / "manifest.json", doc)
    return code


def cmd_eval(cfg: RunConfig, out_dir: Path) -> int:
    env = cfg.build_env()
    policy = cfg.build_policy(env)
    algo = cfg.algorithm
    name = algo["name"]
    features = cfg.build_features(env) if name == "projected" else None
    out_dir.mkdir(parents=True, exist_ok=True)
    status = {"algorithm": name}
    moments = {"format_version": 1, "gamma": env.gamma}

    if name in ("dp2", "dpn"):
        eps = algo["epsilon"]
        if name == "dp2":
            report = jipe2(env, policy, eps, algo["max_iter"])
            trace = report.residual_trace
            moments.update(m_mu=report.final.m_mu.tolist(),
                           m_sigma=report.final.m_sigma.tolist())
        else:
            final, trace = jipe_n(env, policy, algo["order"], eps, algo["max_iter"])
            moments.update(order=algo["order"],
                           tables=[t.tolist() for t in final.tables])
        _write_csv(out_dir / "residuals.csv",
                   ["iteration", "residual_lambda", "certified_bound"],
                   [(k, r, r / (1.0 - env.gamma)) for k, r in trace])
        k, residual = trace[-1]
        certified = residual <= eps * (1.0 - env.gamma)
        status.update(certified=certified, iterations=k,
                      certified_error_bound=residual / (1.0 - env.gamma))
        code = EXIT_OK if certified else EXIT_NOT_CERTIFIED

    elif name == "incremental":
        if algo["rule"] == "harmonic":
            schedule = StepSchedule.harmonic(algo["c"])
        else:
            schedule = StepSchedule.constant(algo["alpha0"])
        ref = jipe2(env, policy, _REFERENCE_EPSILON)
        result = run_incremental(
            env,
            policy,
            schedule,
            VisitationScheme(algo["visitation"]),
            algo["num_updates"],
            cfg.seed,
            fixed_point=ref.final,
            trace_stride=algo["trace_stride"],
        )
        _write_csv(out_dir / "trace.csv",
                   ["update_index", "lambda_distance_to_fixed_point", "step_size_last"],
                   result.trace)
        moments.update(m_mu=result.final.m_mu.tolist(),
                       m_sigma=result.final.m_sigma.tolist())
        final_dist = result.trace[-1][1] if result.trace else float("nan")
        status.update(num_updates=result.num_updates, final_distance=final_dist,
                      reference_certified=ref.certified,
                      reference_error_bound=ref.certified_error_bound)
        code = EXIT_OK

    else:  # projected
        nu = stationary_distribution(env, policy).nu
        try:
            report = projected_jipe2(
                env, policy, features, nu, algo["epsilon"], algo["max_iter"]
            )
        except DivergenceError as exc:
            status.update(diverged=True, detail=str(exc))
            print(f"divergence detected: {exc}", file=sys.stderr)
            return _finish(cfg, out_dir, status, EXIT_DIVERGENCE)
        _write_csv(out_dir / "projected.csv", ["iteration", "successive_distance"],
                   enumerate(report.distances))
        moments.update(theta_mu=report.moments.theta_mu.tolist(),
                       theta_sigma=report.moments.theta_sigma.tolist())
        status.update(
            converged=report.converged,
            iterations=report.iterations,
            beta=report.beta,
            kappa=report.kappa,
            sqrt_c_rho=report.sqrt_c_rho,
        )
        code = EXIT_OK if report.converged else EXIT_NOT_CERTIFIED

    _write_json(out_dir / "moments.json", moments)
    return _finish(cfg, out_dir, status, code)


def cmd_analyze(cfg: RunConfig, out_dir: Path) -> int:
    env = cfg.build_env()
    policy = cfg.build_policy(env)
    ana = cfg.analysis
    n_s, n_a = env.space.num_states, env.space.num_actions
    states = list(range(n_s)) if ana["states"] is None else ana["states"]
    if any(s >= n_s for s in states):
        raise ConfigError(
            f"config.analysis.states: entries must lie in 0..{n_s - 1}, got {states!r}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    # Coupling needs no moments; run it first, and check its memory budget
    # before any work, so an env over budget fails before the jipe2 solve
    # and the Monte Carlo blocks.
    if ana["coupling"]:
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
                key: getattr(rep, key)
                for key in ("sqrt_c_rho", "gamma", "product", "satisfied",
                            "iterations", "converged")
            }
        _write_json(
            out_dir / "coupling.json",
            {"format_version": 1, "nu_source": nu.source, "modes": reports},
        )

    solve = jipe2(env, policy, ana["epsilon"])
    fixed = solve.final

    # One pass over the states. Each state's Monte Carlo block is dropped
    # once the state's rows are built.
    matrices, gap_rows, mc_rows, ratios, mc = [], [], [], [], {}
    for s in states:
        if ana["corr"]:
            cm = corr_matrix(env.space, fixed, s)
            matrices.append({
                "state": s,
                "cov": cm.cov.tolist(),
                "corr": [[None if np.isnan(v) else v for v in row]
                         for row in cm.corr.tolist()],
            })
        if not (ana["gaps"] or ana["mc_compare"] or ana["ecdf"]):
            continue
        blk = mc_state_block(
            env, policy, s, tuple(range(n_a)), ana["num_rollouts"],
            ana["trunc_tol"], seed=child_seed(cfg.seed, s),
            confidence=ana["confidence"],
        )
        mc = {"horizon": blk.horizon, "num_rollouts": blk.num_rollouts,
              "truncation_bias_bound": env.gamma**blk.horizon / (1.0 - env.gamma),
              "max_steps": max(blk.steps, mc.get("max_steps", 0))}
        z = blk.z_value
        pairs = []
        for a in range(n_a):
            for b in range(n_a):
                xa, xb = env.space.x(s, a), env.space.x(s, b)
                i, j = blk.actions.index(a), blk.actions.index(b)
                mc_rows.append([s, a, b, fixed.m_sigma[xa, xb], blk.sigma[i, j],
                                z * blk.sigma_se[i, j]])
                if a == b:
                    continue
                mean, var = gap_stats(env.space, fixed, s, a, b)
                if mean > 0.0:
                    pairs.append((s, a, b))
                gap_rows.append({
                    "state": s, "action_a": a, "action_b": b,
                    "gap_mean": mean,
                    "gap_variance": var,
                    "cantelli_bound": cantelli_bound(mean, var) if mean > 0.0 else None,
                    "mc_gap_mean": float(blk.gap_mean[i, j]),
                    "mc_gap_variance": float(blk.gap_var[i, j]),
                    "mc_inferiority_prob": float(blk.inferiority[i, j]),
                    "mc_ci_halfwidths": [
                        float(z * se[i, j])
                        for se in (blk.gap_mean_se, blk.gap_var_se, blk.inferiority_se)
                    ],
                })
        if ana["ecdf"]:
            ratios += chebyshev_ecdf(env.space, fixed, pairs, {s: blk})

    if ana["corr"]:
        _write_json(out_dir / "corr.json", {"format_version": 1, "matrices": matrices})
    if ana["gaps"]:
        _write_json(out_dir / "gaps.json", {"format_version": 1, "reports": gap_rows})
    if ana["mc_compare"]:
        _write_csv(out_dir / "mc_compare.csv",
                   ["state", "action_a", "action_b", "dp_sigma", "mc_sigma", "mc_ci"],
                   mc_rows)
    if ana["ecdf"]:
        _write_csv(out_dir / "ecdf.csv",
                   ["state", "action_a", "action_b", "ratio_jipe", "ratio_mc", "mc_ci"],
                   [(r.state, r.action_a, r.action_b, r.ratio_jipe, r.ratio_mc, r.mc_ci)
                    for r in ratios])

    status = {"analysis": True, "certified": solve.certified,
              "iterations": solve.iterations,
              "certified_error_bound": solve.certified_error_bound}
    if mc:
        status["monte_carlo"] = mc
    return _finish(cfg, out_dir, status,
                   EXIT_OK if solve.certified else EXIT_NOT_CERTIFIED)


def cmd_validate_env(path: str) -> int:
    env = load_env(path)
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

    for command, text in (("eval", "run a solver per the config file"),
                          ("analyze", "gap/correlation/bound analyses")):
        p_run = sub.add_parser(command, help=text)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--seed", type=int, default=None)
        p_run.add_argument("--out", default=None)

    p_val = sub.add_parser("validate-env", help="check an environment file")
    p_val.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate-env":
            return cmd_validate_env(args.path)
        cfg = load_config(args.config, {"seed": args.seed, "out_dir": args.out})
        run = cmd_eval if args.command == "eval" else cmd_analyze
        return run(cfg, Path(cfg.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except JmdpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
