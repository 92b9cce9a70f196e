"""Gap statistics, one-sided tail bounds, correlation matrices, and the coupled
Monte Carlo oracle used to ground-truth every moment computation.

The oracle simulates counterfactual return branches under the same coupling the
dynamic-programming operator encodes, one `env.sample_step` per step: branches
occupying a common state share that step's noise uniform, so its noise draw;
branches at one coordinate share the action uniform as well, so the next action
(they denote one random return); branches at distinct states evolve on
independent draws. An `independent` continuation mode is also available, where
cross-branch coupling is confined to the very first step.

A rollout finishes once every branch lies in the env's largest reward-free
closed set (no action and no noise atom leads from it to a nonzero reward).
Each later term would add exactly 0.0, so a finished rollout's return is final:
it leaves the simulated arrays, and the block stops before the truncation
horizon once every rollout has finished. Each step still draws its uniforms
for all rollouts and gathers the live ones' columns, so the random stream, and
every return, is bit-identical to the full-horizon run in both modes, and a
block that stops early (`McBlock.steps < horizon`) carries no truncation bias.
The gap and product tables are reduced once per unordered branch pair and
mirrored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MomentCollectionN, StateActionSpace, _check_choice, _check_gamma, _check_index,
                   _check_int, _check_real, check_budget)
from .env import ExoJmdp, Policy, _bfs_levels, _check_policy, child_seed, sample_step
from .errors import AssumptionError, InvalidQueryError

__all__ = [
    "CorrMatrix",
    "McBlock",
    "EcdfRatio",
    "truncation_horizon",
    "gap_stats",
    "cantelli_bound",
    "corr_matrix",
    "check_mc_budget",
    "mc_state_block",
    "chebyshev_ecdf",
]

DEGENERATE_VAR_TOL = 1e-12


def truncation_horizon(gamma: float, tol: float) -> int:
    """Smallest T with gamma^T / (1 - gamma) <= tol; valid because rewards
    lie in [0, 1], so the discarded tail is at most that geometric sum."""
    gamma, tol = _check_gamma(gamma), _check_real("tol", tol, "(0, inf)")
    scaled = tol * (1.0 - gamma)  # gamma^T <= scaled; a tiny tol underflows it to 0.0
    log_scaled = np.log(scaled) if scaled > 0.0 else np.log(tol) + np.log1p(-gamma)
    t = int(np.ceil(log_scaled / np.log(gamma)))
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
    x, y = space.x(s, a), space.x(s, _check_int("a_tilde", a_tilde))
    if x == y:
        raise InvalidQueryError("gap requires two distinct actions")
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
    mean = _check_real("mean", mean, "(-inf, inf)")
    variance = _check_real("variance", variance, "[0, inf)")
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
    the number of steps simulated, at most the truncation horizon, and
    rollout_steps the rollout-steps simulated: the sum over those steps of the
    rollouts still live at each.
    """

    state: int
    actions: tuple
    num_rollouts: int
    horizon: int
    steps: int
    rollout_steps: int
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
        return _ndtri(0.5 + self.confidence / 2.0)


# Cephes ndtri's rational approximations, coefficients highest power first:
# P0/Q0 for |p - 1/2| <= 1/2 - exp(-2), in (p - 1/2)^2; P1/Q1 and P2/Q2 in the
# tails, in 1/x with x = sqrt(-2 log p) below and above 8. Q's leading 1 is implied.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189


def _horner(x: float, coef: tuple, monic: bool = False) -> float:
    """Cephes polevl (or p1evl when monic: a leading coefficient 1 implied)."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _ndtri(p: float) -> float:
    """The standard normal quantile at p in [0, 1]: Cephes ndtri, evaluated in
    its order of operations, so its value is scipy.special.ndtri's to the bit."""
    if p == 0.0 or p == 1.0:
        return math.copysign(math.inf, p - 0.5)
    upper = p > 1.0 - _EXP_MINUS_2
    if upper:
        p = 1.0 - p
    if p > _EXP_MINUS_2:
        y = p - 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, monic=True))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(p))
    z = 1.0 / x
    p_tail, q_tail = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, p_tail) / _horner(z, q_tail, monic=True)
    return x if upper else -x


def _reward_free_sink(env: ExoJmdp) -> np.ndarray:
    """Mask of the largest reward-free closed set: the states from which no
    action and no noise atom ever reaches a state with a nonzero reward.

    One breadth-first search over the reversed successor graph, from every
    rewarding state, marks the states that can reach a reward; the rest is the
    set. O(S·A·U) time and memory."""
    s_n = env.space.num_states
    succ = env.h.ravel()
    # The edges h[s, a, u] -> s reversed, grouped by successor: each edge's
    # flat index names its source state s.
    preds = np.argsort(succ) // env.h[0].size
    indptr = np.r_[0, np.cumsum(np.bincount(succ, minlength=s_n))]
    rewarding = np.flatnonzero(env.g.reshape(s_n, -1).any(axis=1))
    return _bfs_levels(preds, indptr, rewarding) < 0


def _share(r: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Give each branch (row) the uniform of the lowest-indexed branch with the
    same key, per rollout; equal keys are transitive, so matches may overwrite."""
    for i in range(1, len(r)):
        for j in range(i):
            r[i] = np.where(key[i] == key[j], r[j], r[i])
    return r


def _branch_returns(
    env: ExoJmdp,
    policy: Policy,
    s: int,
    actions,
    num_rollouts: int,
    horizon: int,
    seed: int,
    continuation_coupling: str,
) -> tuple[np.ndarray, list]:
    """Simulate coupled branch returns (rows are branches, columns rollouts);
    return them with the number of rollouts live at each simulated step. A
    rollout is live until every branch lies in the reward-free closed set; only
    live columns are simulated, but each step still draws its uniforms for all
    columns, so the stream does not depend on when rollouts finish. A step's
    noise uniforms are shared by state (at step 0 only under independent), then
    its action uniforms by coordinate (under shared-state only)."""
    n, k = num_rollouts, len(actions)
    shared = continuation_coupling == "shared-state"
    sink = _reward_free_sink(env)
    rng = np.random.default_rng(child_seed(seed, 0))
    live = np.arange(n)
    states = np.full((k, n), s, dtype=np.int64)
    x = s * env.space.num_actions + np.repeat(np.array(actions)[:, None], n, axis=1)
    z, z_live = np.zeros((k, n)), np.zeros((k, n))
    disc, counts = 1.0, []

    def draw():  # every column's uniforms, then the live ones'
        r = rng.random((k, n))
        return r if live.size == n else r.take(live, axis=1)

    while len(counts) < horizon:
        done = sink[states].all(axis=0)
        if done.any():  # later terms of a finished rollout add exactly 0.0
            z[:, live[done]] = z_live[:, done]
            keep = np.flatnonzero(~done)
            live, states, x, z_live = live[keep], states[:, keep], x[:, keep], z_live[:, keep]
            if not live.size:
                break
        r = _share(draw(), states) if shared or not counts else draw()
        r_a = draw()
        rew, states, x = sample_step(env, policy, x, r, _share(r_a, x) if shared else r_a)
        z_live += disc * rew
        disc *= env.gamma
        counts.append(live.size)
    z[:, live] = z_live
    return z, counts


def check_mc_budget(num_branches: int, num_rollouts: int) -> int:
    """Bytes the per-rollout arrays of one Monte Carlo block hold at most, in
    (k, n) 8-byte arrays: _branch_returns holds eleven (one sample_step and
    the loop's state) plus z_live, one full draw beside its live gather, and
    the live index (n entries); mc_state_block then holds the returns and
    k(k+1)/2 product rows of n floats beside one temporary of their size (the
    k(k-1)/2 gap rows, with one bool table, take less). Raises BudgetError
    when that exceeds core.BUDGET_BYTES."""
    k, n = num_branches, num_rollouts
    return check_budget(f"Monte Carlo block of {k} branches and {n} rollouts",
                        8 * n * (k * k + 15 * k + 1) + n * k * (k - 1) // 2)


def _mirror(upper, lower, iu, ju, k, diag=0.0):
    """(k, k) table holding upper at (iu, ju), lower at (ju, iu), and diag on
    any diagonal entry those leave out."""
    table = np.full((k, k), diag)
    table[iu, ju] = upper
    table[ju, iu] = lower
    return table


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
    _check_policy(env, policy)
    _check_choice("continuation_coupling", continuation_coupling, ("shared-state", "independent"))
    _check_int("num_rollouts", num_rollouts, 1)
    _check_int("seed", seed, 0)
    confidence = _check_real("confidence", confidence, "(0, 1)")
    acts = tuple(_check_index("actions", a, env.space.num_actions, "action") for a in actions)
    if not acts:
        raise InvalidQueryError("need at least one action branch")
    s = _check_index("s", s, env.space.num_states, "state")
    horizon = truncation_horizon(env.gamma, trunc_tol)
    check_mc_budget(len(acts), num_rollouts)
    z, counts = _branch_returns(
        env, policy, s, acts, num_rollouts, horizon, seed, continuation_coupling
    )
    k, n = z.shape
    mu = z.mean(axis=1)
    mu_se = z.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(k)
    # Each unordered branch pair is reduced once, as one row of n rollouts, and
    # mirrored: products are symmetric, gaps antisymmetric.
    iu, ju = np.triu_indices(k)
    prods = z[iu]
    prods *= z[ju]
    sigma = prods.mean(axis=1)
    sigma_se = prods.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(iu.size)
    sigma, sigma_se = (_mirror(v, v, iu, ju, k) for v in (sigma, sigma_se))
    del prods  # the gap rows below take its place
    iu, ju = np.triu_indices(k, 1)
    gaps = z[iu]
    gaps -= z[ju]
    gap_mean = gaps.mean(axis=1)
    gap_mean_se = gaps.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(iu.size)
    inferior = _mirror((gaps <= 0.0).mean(axis=1), (gaps >= 0.0).mean(axis=1), iu, ju, k, 1.0)
    gaps -= gap_mean[:, None]  # centered in place
    pw = gaps * gaps
    gap_var = pw.sum(axis=1) / max(n - 1, 1)
    # Products, not numpy's CPU-dispatched `power`: the same bytes on every CPU.
    pw *= gaps
    pw *= gaps  # the fourth power, ((c * c) * c) * c
    gap_var_se = np.sqrt(np.maximum(pw.mean(axis=1) - gap_var**2, 0.0) / n)
    # 0.0 - m, not -m: a gap that is zero in every rollout has mean +0.0 both ways.
    gap_mean = _mirror(gap_mean, 0.0 - gap_mean, iu, ju, k)
    gap_mean_se, gap_var, gap_var_se = (
        _mirror(v, v, iu, ju, k) for v in (gap_mean_se, gap_var, gap_var_se))
    inferiority_se = np.sqrt(inferior * (1.0 - inferior) / n)
    return McBlock(
        state=s,
        actions=acts,
        num_rollouts=n,
        horizon=horizon,
        steps=len(counts),
        rollout_steps=sum(counts),
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
    mean is not strictly positive under both are skipped with a note. Every
    pair's block is checked before any ratio: it must exist, be simulated at
    the pair's state and hold both actions, else InvalidQueryError.
    """
    pairs = list(pairs)
    for s, a, b in pairs:
        mc = blocks.get(s)
        if mc is None or mc.state != s:
            found = "none" if mc is None else f"one simulated at state {mc.state}"
            raise InvalidQueryError(f"need the Monte Carlo block of state {s}, got {found}")
        for c in (a, b):
            if c not in mc.actions:
                raise InvalidQueryError(
                    f"the block at state {s} has no branch for action {c}"
                )
    out: list[EcdfRatio] = []
    for s, a, b in pairs:
        mean, var = gap_stats(space, m, s, a, b)
        mc = blocks[s]
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
