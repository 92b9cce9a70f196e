"""Gap statistics, one-sided tail bounds, correlation matrices, and the coupled
Monte Carlo oracle used to ground-truth every moment computation.

The oracle simulates counterfactual return branches under the same coupling the
dynamic-programming operator encodes: branches occupying a common state share
that step's noise draw (they pass one uniform to `env.sample_outcomes`),
branches whose full coordinates coincide share the next action as well (they
denote one random return), and branches at distinct states evolve on
independent draws. An `independent` continuation mode is also available, where
cross-branch coupling is confined to the very first step.

Rollouts stop before the truncation horizon once every branch lies in the
env's largest reward-free closed set (no action and no noise atom leads from it
to a nonzero reward). Each later term would add exactly 0.0, so returns are
bit-identical to the full-horizon run in both modes, and a block that stops
early (`McBlock.steps < horizon`) carries no truncation bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.stats import norm as _norm

from .core import MomentCollectionN, StateActionSpace
from .env import ExoJmdp, Policy, _cdf, _draw_actions, child_seed, sample_outcomes
from .errors import AssumptionError, InvalidInputError, InvalidQueryError

__all__ = [
    "CorrMatrix",
    "McBlock",
    "EcdfRatio",
    "truncation_horizon",
    "gap_stats",
    "cantelli_bound",
    "corr_matrix",
    "mc_state_block",
    "chebyshev_ecdf",
]

DEGENERATE_VAR_TOL = 1e-12


def truncation_horizon(gamma: float, tol: float) -> int:
    """Smallest T with gamma^T / (1 - gamma) <= tol; valid because rewards
    lie in [0, 1], so the discarded tail is at most that geometric sum."""
    if tol <= 0.0:
        raise InvalidInputError(f"truncation tolerance must be > 0, got {tol}")
    t = int(np.ceil(np.log(tol * (1.0 - gamma)) / np.log(gamma)))
    return max(t, 1)


def gap_stats(
    space: StateActionSpace,
    m: MomentCollectionN,
    s: int,
    a: int,
    a_tilde: int,
) -> tuple[float, float]:
    """Mean and variance of the return gap between two actions at a state.

    variance = Sig(x,x) + Sig(y,y) - 2 Sig(x,y) - mean^2, clamped at zero if a
    numerically negative value appears.
    """
    if a == a_tilde:
        raise InvalidQueryError("gap requires two distinct actions")
    x = space.x(s, a)
    y = space.x(s, a_tilde)
    mean = float(m.m_mu[x] - m.m_mu[y])
    var = float(
        m.m_sigma[x, x] + m.m_sigma[y, y] - 2.0 * m.m_sigma[x, y] - mean**2
    )
    if var < 0.0:
        import warnings

        if var < -1e-8:
            warnings.warn(
                f"gap variance clamped from {var:.3e} to 0", RuntimeWarning
            )
        var = 0.0
    return mean, var


def cantelli_bound(mean: float, variance: float) -> float:
    """One-sided bound on P(gap <= 0): variance / (variance + mean^2)."""
    if variance < 0.0:
        raise InvalidInputError(f"variance must be >= 0, got {variance}")
    if mean <= 0.0:
        raise AssumptionError(
            f"bound needs a strictly positive gap mean, got {mean}"
        )
    return variance / (variance + mean**2)


@dataclass(frozen=True)
class CorrMatrix:
    """Per-state action covariance and correlation of returns.

    Correlations involving a variance below the degenerate threshold are NaN
    (an explicit undefined marker), except the diagonal which is 1 by
    convention.
    """

    state: int
    cov: np.ndarray
    corr: np.ndarray


def corr_matrix(space: StateActionSpace, m: MomentCollectionN, s: int) -> CorrMatrix:
    n_a = space.num_actions
    xs = np.array([space.x(s, a) for a in range(n_a)])
    mu = m.m_mu[xs]
    block = m.m_sigma[np.ix_(xs, xs)]
    cov = block - np.outer(mu, mu)
    var = np.diag(cov).copy()
    corr = np.full((n_a, n_a), np.nan)
    ok = var > DEGENERATE_VAR_TOL
    denom = np.sqrt(np.outer(np.where(ok, var, np.nan), np.where(ok, var, np.nan)))
    with np.errstate(invalid="ignore"):
        corr = cov / denom
    np.fill_diagonal(corr, 1.0)
    return CorrMatrix(s, cov, corr)


# ---------------------------------------------------------------------------
# Coupled Monte Carlo oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McBlock:
    """Moment estimates from coupled rollouts of several action branches at one state.

    All branches start at `state`; branch j executes actions[j] first and the
    policy afterwards. sigma[i, j] estimates the mixed second moment of the
    branch returns; gap_* tables are indexed by ordered branch pairs. steps is
    the number of steps simulated, at most the truncation horizon.
    """

    state: int
    actions: tuple
    num_rollouts: int
    horizon: int
    steps: int
    mu: np.ndarray
    mu_se: np.ndarray
    sigma: np.ndarray
    sigma_se: np.ndarray
    gap_mean: np.ndarray
    gap_mean_se: np.ndarray
    gap_var: np.ndarray
    gap_var_se: np.ndarray
    inferiority: np.ndarray
    inferiority_se: np.ndarray
    confidence: float

    @property
    def z_value(self) -> float:
        return float(_norm.ppf(0.5 + self.confidence / 2.0))


def _reward_free_sink(env: ExoJmdp) -> np.ndarray:
    """Mask of the largest reward-free closed set: the states from which no
    action and no noise atom ever reaches a state with a nonzero reward.

    One breadth-first search over the reversed successor graph, from an extra
    root node linked to every rewarding state, marks the states that can reach
    a reward; the rest is the set. O(S·A·U) time and memory."""
    s_n = env.space.num_states
    rewarding = np.flatnonzero(env.g.reshape(s_n, -1).any(axis=1))
    # Edge h[s, a, u] -> s for every (s, a, u), and root s_n -> each rewarding state.
    rows = np.r_[env.h.ravel(), np.full(rewarding.size, s_n)]
    cols = np.r_[np.repeat(np.arange(s_n), env.h[0].size), rewarding]
    graph = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(s_n + 1, s_n + 1))
    sink = np.ones(s_n + 1, dtype=bool)
    sink[breadth_first_order(graph, s_n, return_predecessors=False)] = False
    return sink[:s_n]


def _branch_returns(
    env: ExoJmdp,
    policy: Policy,
    s: int,
    actions,
    num_rollouts: int,
    horizon: int,
    seed: int,
    continuation_coupling: str,
) -> tuple[np.ndarray, int]:
    """Simulate coupled branch returns (rows are branches, columns rollouts);
    return them with the number of steps simulated, below horizon once every
    branch lies in the reward-free closed set."""
    n = num_rollouts
    k = len(actions)
    n_a = env.space.num_actions
    pol_cdf = _cdf(policy.probs)
    sink = _reward_free_sink(env)

    rng = np.random.default_rng(child_seed(seed, 0))
    states = np.full((k, n), s, dtype=np.int64)
    acts = np.stack([np.full(n, a, dtype=np.int64) for a in actions])
    z = np.zeros((k, n))
    disc = 1.0
    t = 0
    while t < horizon and not sink[states].all():
        r = rng.random((k, n))
        # Share the noise uniform with the lowest-indexed branch at the same state.
        if continuation_coupling == "shared-state" or t == 0:
            for i in range(1, k):
                taken = np.zeros(n, dtype=bool)
                for j in range(i):
                    mask = (states[i] == states[j]) & ~taken
                    r[i] = np.where(mask, r[j], r[i])
                    taken |= mask
        rew, nxt = sample_outcomes(env, states * n_a + acts, r)
        z += disc * rew
        new_acts = _draw_actions(pol_cdf, nxt, rng.random((k, n)))
        if continuation_coupling == "shared-state":
            # Identical coordinates denote one return: share the next action too.
            for i in range(1, k):
                taken = np.zeros(n, dtype=bool)
                for j in range(i):
                    mask = (states[i] == states[j]) & (acts[i] == acts[j]) & ~taken
                    new_acts[i] = np.where(mask, new_acts[j], new_acts[i])
                    taken |= mask
        states = nxt
        acts = new_acts
        disc *= env.gamma
        t += 1
    return z, t


def mc_state_block(
    env: ExoJmdp,
    policy: Policy,
    s: int,
    actions,
    num_rollouts: int,
    trunc_tol: float,
    seed: int,
    confidence: float = 0.95,
    continuation_coupling: str = "shared-state",
) -> McBlock:
    """Coupled-rollout estimates of all first/second moments and pairwise gap
    functionals for the given action branches at one state."""
    if continuation_coupling not in ("shared-state", "independent"):
        raise InvalidQueryError(
            f"unknown continuation coupling {continuation_coupling!r}"
        )
    if num_rollouts < 1:
        raise InvalidInputError(f"num_rollouts must be >= 1, got {num_rollouts}")
    acts = tuple(int(a) for a in actions)
    if not acts:
        raise InvalidQueryError("need at least one action branch")
    for a in acts:
        if not (0 <= a < env.space.num_actions):
            raise InvalidQueryError(f"action {a} out of range")
    if not (0 <= s < env.space.num_states):
        raise InvalidQueryError(f"state {s} out of range")
    horizon = truncation_horizon(env.gamma, trunc_tol)
    z, steps = _branch_returns(
        env, policy, s, acts, num_rollouts, horizon, seed, continuation_coupling
    )
    k, n = z.shape
    mu = z.mean(axis=1)
    mu_se = z.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(k)
    prods = z[:, None, :] * z[None, :, :]
    sigma = prods.mean(axis=2)
    sigma_se = (
        prods.std(axis=2, ddof=1) / np.sqrt(n) if n > 1 else np.zeros((k, k))
    )
    gaps = z[:, None, :] - z[None, :, :]
    gap_mean = gaps.mean(axis=2)
    gap_mean_se = gaps.std(axis=2, ddof=1) / np.sqrt(n) if n > 1 else np.zeros((k, k))
    centered = gaps - gap_mean[:, :, None]
    gap_var = (centered**2).sum(axis=2) / max(n - 1, 1)
    m4 = (centered**4).mean(axis=2)
    gap_var_se = np.sqrt(np.maximum(m4 - gap_var**2, 0.0) / n)
    inferior = (gaps <= 0.0).mean(axis=2)
    inferiority_se = np.sqrt(inferior * (1.0 - inferior) / n)
    return McBlock(
        state=s,
        actions=acts,
        num_rollouts=n,
        horizon=horizon,
        steps=steps,
        mu=mu,
        mu_se=mu_se,
        sigma=sigma,
        sigma_se=sigma_se,
        gap_mean=gap_mean,
        gap_mean_se=gap_mean_se,
        gap_var=gap_var,
        gap_var_se=gap_var_se,
        inferiority=inferior,
        inferiority_se=inferiority_se,
        confidence=confidence,
    )


@dataclass(frozen=True)
class EcdfRatio:
    state: int
    action_a: int
    action_b: int
    ratio_jipe: float
    ratio_mc: float
    mc_ci: float
    inferiority: float
    bound_jipe: float
    bound_mc: float
    note: str = ""


def chebyshev_ecdf(
    space: StateActionSpace,
    m: MomentCollectionN,
    pairs,
    blocks: dict,
) -> list[EcdfRatio]:
    """Ratios of empirical inferiority frequency to its one-sided moment bound.

    blocks maps each state in pairs to a Monte Carlo block holding branches for
    both actions of its pairs. Each ratio is computed twice: with the bound
    from the solver moments and from the Monte Carlo moments. Pairs whose gap
    mean is not strictly positive under both are skipped with a note.
    """
    out: list[EcdfRatio] = []
    for s, a, b in pairs:
        mean, var = gap_stats(space, m, s, a, b)
        mc = blocks[s]
        for c in (a, b):
            if c not in mc.actions:
                raise InvalidQueryError(
                    f"the block at state {s} has no branch for action {c}"
                )
        i, j = mc.actions.index(a), mc.actions.index(b)
        mc_mean = float(mc.gap_mean[i, j])
        mc_var = float(mc.gap_var[i, j])
        p_hat = float(mc.inferiority[i, j])
        ci = float(mc.z_value * mc.inferiority_se[i, j])
        if mean <= 0.0 or mc_mean <= 0.0:
            out.append(
                EcdfRatio(
                    s, a, b, float("nan"), float("nan"), ci, p_hat,
                    float("nan"), float("nan"),
                    note="skipped: non-positive gap mean",
                )
            )
            continue
        b_dp = cantelli_bound(mean, var)
        b_mc = cantelli_bound(mc_mean, mc_var)
        out.append(
            EcdfRatio(
                s, a, b,
                p_hat / b_dp if b_dp > 0 else float("inf"),
                p_hat / b_mc if b_mc > 0 else float("inf"),
                ci, p_hat, b_dp, b_mc,
            )
        )
    return out
