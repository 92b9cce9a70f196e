"""Exact joint Bellman operators and their fixed-point iterations.

apply_t2 backs up first and mixed second moments in one sweep by finite
enumeration over the noise support and the policy; no sampling anywhere, so
contraction properties can be checked to float precision. Queries at distinct
states use independent draws, so the cross-state block factors through the
marginal MDP (env.marginal_mdp): with mean rewards r, expected continuation
means e, marginal kernel P (|X| x S) and policy-averaged second moments M
(S x S), it is r r' + gamma (r e' + e r') + gamma^2 P M P'. Only same-state
entries enumerate the shared noise draw. jipe2 iterates the operator and
certifies accuracy through the computable residual bound
||m - m*|| <= residual / (1 - gamma).

apply_tn generalizes the backup to moment tables of any order: a tuple of
coordinates is grouped by current state, each group shares one noise draw,
groups are independent, and coordinates that repeat exactly share their next
action as well (they denote the same random return, so their continuations
coincide).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LambdaWeights,
    MomentCollection2,
    MomentCollectionN,
    lambda_norm,
    lambda_norm_n,
    order_table_bytes,
)
from .env import ExoJmdp, Policy, marginal_mdp
from .errors import BudgetError, InvalidInputError

__all__ = [
    "Jipe2Report",
    "apply_t2",
    "jipe2",
    "apply_tn",
    "jipe_n",
    "write_residual_csv",
]

DEFAULT_ORDER_BUDGET_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class Jipe2Report:
    """Outcome of a second-order evaluation run.

    certified_error_bound is always residual/(1-gamma) for the final iterate;
    certified says whether the requested tolerance was reached within max_iter.
    """

    final: MomentCollection2
    residual_trace: list
    iterations: int
    certified: bool
    certified_error_bound: float


def _check_dims(env: ExoJmdp, m: MomentCollection2) -> None:
    if m.m_mu.size != env.space.num_x:
        raise InvalidInputError(
            f"moment tables sized for {m.m_mu.size} coordinates, "
            f"environment has {env.space.num_x}"
        )


def apply_t2(env: ExoJmdp, policy: Policy, m: MomentCollection2) -> MomentCollection2:
    """One exact application of the second-order joint Bellman operator."""
    _check_dims(env, m)
    s_n, a_n, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
    u_probs = env.noise.probs
    g, h = env.g, env.h
    pi = policy.probs
    gamma = env.gamma

    mu = m.m_mu.reshape(s_n, a_n)
    sig = m.m_sigma.reshape(s_n, a_n, s_n, a_n)

    # Policy-averaged lookups of the input tables.
    mbar = np.einsum("sa,sa->s", pi, mu)  # E_pi[m_mu(s', .)]
    msum2 = np.einsum("ia,iajb,jb->ij", pi, sig, pi)  # independent next actions
    diag_sa = np.einsum("sasa->sa", sig)
    mdiag = np.einsum("sa,sa->s", pi, diag_sa)  # one shared next action

    r_mean, p_s = marginal_mdp(env)
    mbar_h = mbar[h]  # (S, N, U)
    e_mb = mbar_h @ u_probs  # E[mbar(S') | s, a]

    t_mu = r_mean + gamma * e_mb

    # Cross-state coordinates: the two queries use independent draws, so every
    # term factorizes through the marginal MDP.
    r, e = r_mean.reshape(n_x, 1), e_mb.reshape(n_x, 1)
    p = p_s.reshape(n_x, s_n)
    t_sig = (
        r * r.T + gamma * (r * e.T) + gamma * (e * r.T) + gamma**2 * (p @ msum2 @ p.T)
    ).reshape(s_n, a_n, s_n, a_n)

    # Same-state coordinates: one shared noise draw couples the two actions.
    t1 = np.einsum("u,sau,sbu->sab", u_probs, g, g)
    cross = gamma * np.einsum("u,sau,sbu->sab", u_probs, g, mbar_h)
    t4 = gamma**2 * np.einsum(
        "u,sabu->sab", u_probs, msum2[h[:, :, None, :], h[:, None, :, :]]
    )
    same_block = t1 + cross + cross.transpose(0, 2, 1) + t4

    # Repeated coordinate (same state and action): the query denotes a single
    # random return, so the continuation shares one next action.
    diag_val = (
        (g * g) @ u_probs
        + 2.0 * gamma * np.einsum("u,sau,sau->sa", u_probs, g, mbar_h)
        + gamma**2 * mdiag[h] @ u_probs
    )

    states = np.arange(s_n)
    t_sig[states, :, states, :] = same_block
    acts = np.arange(a_n)
    t_sig[states[:, None], acts[None, :], states[:, None], acts[None, :]] = diag_val

    t_sig = t_sig.reshape(n_x, n_x)
    t_sig = 0.5 * (t_sig + t_sig.T)
    return MomentCollection2(t_mu.reshape(-1), t_sig)


def check_solver_args(epsilon: float, max_iter: int) -> None:
    """Shared guard of the iterative solvers: a finite epsilon > 0, max_iter >= 0."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidInputError(f"epsilon must be finite and > 0, got {epsilon}")
    if max_iter < 0:
        raise InvalidInputError(f"max_iter must be >= 0, got {max_iter}")


def jipe2(
    env: ExoJmdp,
    policy: Policy,
    epsilon: float,
    max_iter: int = 100_000,
    m0: MomentCollection2 | None = None,
) -> Jipe2Report:
    """Iterate the second-order operator until the residual certifies epsilon accuracy.

    Stops once ||m_k - T m_k||_lambda <= epsilon * (1 - gamma), at which point
    ||m_k - m*||_lambda <= epsilon. Hitting max_iter first yields certified=False.
    """
    check_solver_args(epsilon, max_iter)
    weights = LambdaWeights(env.gamma)
    threshold = epsilon * (1.0 - env.gamma)
    m = MomentCollection2.zeros(env.space) if m0 is None else m0
    trace: list = []
    for k in range(max_iter + 1):
        t_m = apply_t2(env, policy, m)
        residual = lambda_norm(m - t_m, weights)
        trace.append((k, residual))
        if residual <= threshold:
            return Jipe2Report(m, trace, k, True, residual / (1.0 - env.gamma))
        if k == max_iter:
            break
        m = t_m
    residual = trace[-1][1]
    return Jipe2Report(m, trace, max_iter, False, residual / (1.0 - env.gamma))


def write_residual_csv(trace, gamma: float, path) -> None:
    """Residual trace as CSV: iteration, residual_lambda, certified_bound."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_lambda", "certified_bound"])
        for k, residual in trace:
            writer.writerow([k, repr(residual), repr(residual / (1.0 - gamma))])


# ---------------------------------------------------------------------------
# Arbitrary-order operator
# ---------------------------------------------------------------------------


class _TuplePlan:
    """Static enumeration data for one sorted coordinate tuple.

    Precomputes, per joint noise combination over the tuple's state groups, the
    rewards and successors of each distinct coordinate, so repeated operator
    applications only pay for table lookups.
    """

    __slots__ = ("k", "coord_of_pos", "n_distinct", "combos")

    def __init__(self, env: ExoJmdp, xs: tuple):
        a_n = env.space.num_actions
        self.k = len(xs)
        distinct: list = []
        self.coord_of_pos = []
        for x in xs:
            if x not in distinct:
                distinct.append(x)
            self.coord_of_pos.append(distinct.index(x))
        self.n_distinct = len(distinct)
        states = [x // a_n for x in distinct]
        actions = [x % a_n for x in distinct]
        groups: dict = {}
        for j, s in enumerate(states):
            groups.setdefault(s, []).append(j)
        group_items = list(groups.items())
        u_n = env.noise.support_size
        probs = env.noise.probs
        self.combos = []
        for draw in itertools.product(range(u_n), repeat=len(group_items)):
            p = 1.0
            rewards = [0.0] * self.n_distinct
            succs = [0] * self.n_distinct
            for (s, members), u in zip(group_items, draw):
                p *= float(probs[u])
                for j in members:
                    rewards[j] = float(env.g[s, actions[j], u])
                    succs[j] = int(env.h[s, actions[j], u])
            self.combos.append((p, tuple(rewards), tuple(succs)))


def _expect_subset(
    m: MomentCollectionN,
    pi: np.ndarray,
    a_n: int,
    subset: tuple,
    coord_of_pos,
    succs,
) -> float:
    """E over next actions of table_{|subset|} at the subset's successors.

    Positions that reference the same coordinate share a single next action;
    distinct coordinates draw independently from the policy at their successor.
    """
    size = len(subset)
    if size == 0:
        return 1.0
    table = m.table(size)
    coords = sorted({coord_of_pos[i] for i in subset})
    total = 0.0
    for assign in itertools.product(range(a_n), repeat=len(coords)):
        w = 1.0
        action_of = {}
        for j, a in zip(coords, assign):
            w *= float(pi[succs[j], a])
            action_of[j] = a
        if w == 0.0:
            continue
        idx = tuple(
            succs[coord_of_pos[i]] * a_n + action_of[coord_of_pos[i]] for i in subset
        )
        total += w * float(table[idx])
    return total


def _apply_tn_planned(
    env: ExoJmdp, policy: Policy, m: MomentCollectionN, plans
) -> MomentCollectionN:
    a_n = env.space.num_actions
    pi = policy.probs
    gamma = env.gamma
    out_tables = []
    for k in range(1, m.order + 1):
        out = np.zeros((m.num_x,) * k)
        subsets = [
            tuple(i for i in range(k) if mask >> i & 1) for mask in range(1 << k)
        ]
        gamma_pow = [gamma ** len(sub) for sub in subsets]
        for xs, plan in plans[k]:
            value = 0.0
            for p, rewards, succs in plan.combos:
                contrib = 0.0
                for sub, gpow in zip(subsets, gamma_pow):
                    r_prod = 1.0
                    for i in range(k):
                        if not (i in sub):
                            r_prod *= rewards[plan.coord_of_pos[i]]
                    if r_prod == 0.0:
                        continue
                    contrib += gpow * r_prod * _expect_subset(
                        m, pi, a_n, sub, plan.coord_of_pos, succs
                    )
                value += p * contrib
            for perm in set(itertools.permutations(xs)):
                out[perm] = value
        out_tables.append(out)
    return MomentCollectionN(tuple(out_tables))


def _build_plans(env: ExoJmdp, order: int):
    n_x = env.space.num_x
    plans = {}
    for k in range(1, order + 1):
        plans[k] = [
            (xs, _TuplePlan(env, xs))
            for xs in itertools.combinations_with_replacement(range(n_x), k)
        ]
    return plans


def _check_budget(env: ExoJmdp, order: int, memory_budget_bytes: int) -> None:
    need = order_table_bytes(env.space, order)
    if need > memory_budget_bytes:
        raise BudgetError(
            f"order-{order} tables over {env.space.num_x} coordinates need "
            f"{need} bytes; budget is {memory_budget_bytes}"
        )


def apply_tn(
    env: ExoJmdp,
    policy: Policy,
    m: MomentCollectionN,
    memory_budget_bytes: int = DEFAULT_ORDER_BUDGET_BYTES,
) -> MomentCollectionN:
    """One exact application of the order-n joint Bellman operator."""
    if m.num_x != env.space.num_x:
        raise InvalidInputError(
            f"moment tables sized for {m.num_x} coordinates, "
            f"environment has {env.space.num_x}"
        )
    _check_budget(env, m.order, memory_budget_bytes)
    return _apply_tn_planned(env, policy, m, _build_plans(env, m.order))


def jipe_n(
    env: ExoJmdp,
    policy: Policy,
    order: int,
    epsilon: float,
    max_iter: int = 100_000,
    m0: MomentCollectionN | None = None,
    memory_budget_bytes: int = DEFAULT_ORDER_BUDGET_BYTES,
) -> tuple[MomentCollectionN, list]:
    """Iterate the order-n operator; returns (final collection, residual trace).

    Stopping and certification mirror jipe2 with the order-weighted norm; the
    trace holds (iteration, residual) pairs and the last entry certifies
    ||m - m*|| <= residual / (1 - gamma).
    """
    check_solver_args(epsilon, max_iter)
    _check_budget(env, order, memory_budget_bytes)
    weights = LambdaWeights(env.gamma)
    threshold = epsilon * (1.0 - env.gamma)
    m = MomentCollectionN.zeros(env.space, order) if m0 is None else m0
    if m.order != order:
        raise InvalidInputError(f"m0 has order {m.order}, expected {order}")
    plans = _build_plans(env, order)
    trace: list = []
    for k in range(max_iter + 1):
        t_m = _apply_tn_planned(env, policy, m, plans)
        diff = MomentCollectionN(
            tuple(a - b for a, b in zip(m.tables, t_m.tables))
        )
        residual = lambda_norm_n(diff, weights)
        trace.append((k, residual))
        if residual <= threshold or k == max_iter:
            return m, trace
        m = t_m
    return m, trace
