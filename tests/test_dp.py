import importlib
import itertools
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

from jmdp.core import (
    MomentCollection2,
    MomentCollectionN,
    StateActionSpace,
    lambda_norm,
)
import jmdp.dp
from jmdp.dp import (
    _BackupPlan,
    _block_kernel,
    apply_tn,
    check_backup_budget,
    jipe,
)
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_ring_chain,
    build_wgw,
    marginal_kernel,
    marginal_mdp,
    wgw_goal_policy,
)
from jmdp.errors import BudgetError, InvalidInputError
from jmdp.fa import (
    coupling_coefficient,
    identity_features,
    projected_jipe2,
    stationary_distribution,
)
from jmdp.incremental import (
    noise_diagnostic,
    run_incremental,
    sample_backup,
)
from jmdp.stats import _branch_returns, mc_state_block, truncation_horizon

from test_env import anticorrelated_single_state, random_env, random_policy


# ---------------------------------------------------------------------------
# Reference second-order backup and solver: one backup computing every term
# per call, and an order-2 jipe loop stepping frozen MomentCollection2 objects with the
# residual max(max|d_mu|, max|d_sigma| / lam). The order-n backup, built once
# per solve, must agree with both to rounding level: the same iteration
# counts, and residuals and tables within 1e-12.
# ---------------------------------------------------------------------------


def _ref_apply_t2(env: ExoJmdp, policy: Policy, m: MomentCollection2) -> MomentCollection2:
    s_n, a_n, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
    u_probs = env.noise.probs
    g, h = env.g, env.h
    pi = policy.probs
    gamma = env.gamma

    mu = m.m_mu.reshape(s_n, a_n)
    sig = m.m_sigma.reshape(s_n, a_n, s_n, a_n)

    mbar = np.einsum("sa,sa->s", pi, mu)
    msum2 = np.einsum("ia,iajb,jb->ij", pi, sig, pi)
    diag_sa = np.einsum("sasa->sa", sig)
    mdiag = np.einsum("sa,sa->s", pi, diag_sa)

    r_mean, p_s = marginal_mdp(env)
    mbar_h = mbar[h]
    e_mb = mbar_h @ u_probs

    t_mu = r_mean + gamma * e_mb

    r, e = r_mean.reshape(n_x, 1), e_mb.reshape(n_x, 1)
    p = p_s.reshape(n_x, s_n)
    t_sig = (
        r * r.T + gamma * (r * e.T) + gamma * (e * r.T) + gamma**2 * (p @ msum2 @ p.T)
    ).reshape(s_n, a_n, s_n, a_n)

    t1 = np.einsum("u,sau,sbu->sab", u_probs, g, g)
    cross = gamma * np.einsum("u,sau,sbu->sab", u_probs, g, mbar_h)
    t4 = gamma**2 * np.einsum(
        "u,sabu->sab", u_probs, msum2[h[:, :, None, :], h[:, None, :, :]]
    )
    same_block = t1 + cross + cross.transpose(0, 2, 1) + t4

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


def _ref_jipe2(env, policy, epsilon, max_iter=100_000, m0=None):
    """(final collection, residual trace) of the reference loop."""
    lam = 2.0 / (1.0 - env.gamma)
    m = MomentCollection2.zeros(env.space) if m0 is None else m0
    trace = []
    for k in range(max_iter + 1):
        t_m = _ref_apply_t2(env, policy, m)
        d = m - t_m
        trace.append((k, max(float(np.max(np.abs(d.m_mu))),
                             float(np.max(np.abs(d.m_sigma))) / lam)))
        if trace[-1][1] <= epsilon * (1.0 - env.gamma) or k == max_iter:
            return m, trace
        m = t_m


SECOND_ORDER_CASES = {
    "crc5": lambda: (build_crc(5, 0.9), Policy.uniform(StateActionSpace(5, 2))),
    "wgw3x3-goal": lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9),
                            wgw_goal_policy(3, 3, (0, 2))),
    "ring8": lambda: (build_ring_chain(8, 0.9), Policy.uniform(StateActionSpace(8, 2))),
    "random": lambda: (random_env(6, num_states=3, num_actions=3, num_noise=4),
                       random_policy(6, StateActionSpace(3, 3))),
}


# ---------------------------------------------------------------------------
# Reference order-n backup: plain enumeration of every sorted coordinate tuple,
# its joint noise draws, the continuing subsets of its positions and the next
# actions of its distinct coordinates. Slow, but written independently of the
# pattern-grouped tensor backup that dp.apply_tn computes.
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


def _build_plans(env: ExoJmdp, order: int, coords=None):
    coords = range(env.space.num_x) if coords is None else coords
    plans = {}
    for k in range(1, order + 1):
        plans[k] = [
            (xs, _TuplePlan(env, xs))
            for xs in itertools.combinations_with_replacement(coords, k)
        ]
    return plans


def mean_value_oracle(env, policy):
    """Independent policy-evaluation oracle: solve the mean linear system
    built directly from the noise tables."""
    n_s, n_a, n_u = env.g.shape
    n_x = n_s * n_a
    probs = env.noise.probs
    r_bar = env.g @ probs
    p_x = np.zeros((n_x, n_x))
    for s in range(n_s):
        for a in range(n_a):
            for u in range(n_u):
                s1 = env.h[s, a, u]
                for a1 in range(n_a):
                    p_x[s * n_a + a, s1 * n_a + a1] += probs[u] * policy.probs[s1, a1]
    q = np.linalg.solve(np.eye(n_x) - env.gamma * p_x, r_bar.reshape(-1))
    return q


def random_tables(rng, num_x, order, scale=3.0):
    """Permutation-invariant random tables of orders 1..order."""
    tables = []
    for k in range(1, order + 1):
        t = scale * rng.normal(size=(num_x,) * k)
        perms = list(itertools.permutations(range(k)))
        tables.append(sum(t.transpose(p) for p in perms) / len(perms))
    return MomentCollectionN(tuple(tables))


# name -> (env, policy, coordinates compared at order 4). The order-4
# comparison is restricted to tuples over those coordinates, which still cover
# four distinct states and, where the env has them, four actions at one state.
REFERENCE_CASES = {
    "crc3": lambda: (build_crc(3, 0.8), Policy.uniform(StateActionSpace(3, 2)),
                     list(range(6))),
    "random": lambda: (
        random_env(6, num_states=3, num_actions=3, num_noise=4),
        random_policy(6, StateActionSpace(3, 3)),
        [0, 1, 2, 3, 6],
    ),
    "ring6": lambda: (build_ring_chain(6, 0.9), Policy.uniform(StateActionSpace(6, 2)),
                      [0, 1, 2, 4, 6]),
    "wgw2x2": lambda: (build_wgw(2, 2, (0, 1), 0.3, 0.9), wgw_goal_policy(2, 2, (0, 1)),
                       [0, 1, 2, 3, 4, 8, 12]),
}


def random_moments(rng, num_x, scale=1.0):
    mu = scale * rng.normal(size=num_x)
    sig = scale * rng.normal(size=(num_x, num_x))
    return MomentCollection2(mu, 0.5 * (sig + sig.T))


class TestApplyT2:
    def test_zero_continuation_means(self):
        env = random_env(2)
        pol = Policy.uniform(env.space)
        out = apply_tn(env, pol, MomentCollection2.zeros(env.space))
        r_bar = env.g @ env.noise.probs
        np.testing.assert_allclose(
            out.m_mu, r_bar.reshape(-1), atol=1e-14
        )

    def test_zero_continuation_coupled_products(self):
        env = anticorrelated_single_state()
        pol = Policy.uniform(env.space)
        out = apply_tn(env, pol, MomentCollection2.zeros(env.space))
        # coupled cross term vanishes while the product of the means is 1/4
        assert out.m_sigma[0, 1] == 0.0
        assert out.m_mu[0] * out.m_mu[1] == pytest.approx(0.25)
        assert out.m_sigma[0, 0] == pytest.approx(0.5)

    def test_cross_state_factorizes_for_zero_input(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        out = apply_tn(env, pol, MomentCollection2.zeros(env.space))
        # distinct chain states draw independently: E[R Rt] = 1/4
        x0 = env.space.x(0, 0)
        x1 = env.space.x(1, 1)
        assert out.m_sigma[x0, x1] == pytest.approx(0.25)

    def test_output_symmetric(self):
        env = random_env(9, num_states=4, num_actions=3)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(0)
        m = random_moments(rng, env.space.num_x, scale=5.0)
        out = apply_tn(env, pol, m)
        np.testing.assert_array_equal(out.m_sigma, out.m_sigma.T)

    def test_dimension_mismatch(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError):
            apply_tn(env, Policy.uniform(env.space),
                     MomentCollection2.zeros(StateActionSpace(2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_contraction_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        for env in (build_crc(4, 0.9), build_wgw(2, 2, (0, 1), 0.3, 0.9)):
            pol = Policy.uniform(env.space)
            for _ in range(10):
                a = random_moments(rng, env.space.num_x)
                b = random_moments(rng, env.space.num_x)
                lhs = lambda_norm(apply_tn(env, pol, a) - apply_tn(env, pol, b), env.gamma)
                rhs = env.gamma * lambda_norm(a - b, env.gamma)
                assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("case", list(SECOND_ORDER_CASES))
class TestSecondOrderMatchesReference:
    def test_apply_t2(self, case):
        env, pol = SECOND_ORDER_CASES[case]()
        m = random_moments(np.random.default_rng(3), env.space.num_x, scale=3.0)
        out, ref = apply_tn(env, pol, m), _ref_apply_t2(env, pol, m)
        np.testing.assert_allclose(out.m_mu, ref.m_mu, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out.m_sigma, ref.m_sigma, rtol=0.0, atol=1e-12)

    def test_jipe2(self, case):
        env, pol = SECOND_ORDER_CASES[case]()
        rep = jipe(env, pol, 1e-8)
        ref_final, ref_trace = _ref_jipe2(env, pol, 1e-8)
        ref_bound = ref_trace[-1][1] / (1 - env.gamma)
        assert rep.certified and ref_bound <= 1e-8
        assert lambda_norm(rep.final - ref_final, env.gamma) <= rep.certified_error_bound + ref_bound
        # The last row is the full backup; the reference backup gives its residual.
        k, r, order = rep.residual_trace[-1]
        assert order == 0 and k == rep.iterations
        assert abs(r - lambda_norm(rep.final - _ref_apply_t2(env, pol, rep.final), env.gamma)) <= 1e-12
        # Started at its own fixed point, the solver returns m0 after no update:
        # one sweep per order, then the full backup.
        again = jipe(env, pol, 1e-8, m0=rep.final)
        (ref_k, ref_r), = _ref_jipe2(env, pol, 1e-8, m0=rep.final)[1]
        assert [(k, o) for k, _, o in again.residual_trace] == [(0, 1), (0, 2), (0, 0)]
        assert ref_k == 0 and abs(again.residual_trace[-1][1] - ref_r) <= 1e-12
        assert again.iterations == 0 and again.final is rep.final


def order_runs(trace) -> list:
    """The trace as (order, residuals) runs of consecutive rows of one order;
    checks that the rows are one run per order 1..n, then the full backup."""
    runs = [(o, [r for _, r, _ in rows])
            for o, rows in itertools.groupby(trace, key=lambda row: row[2])]
    assert [o for o, _ in runs] == [*range(1, len(runs)), 0]
    return runs


def assert_runs_contract(trace, gamma, tol, floor):
    """Each order k's residuals shrink to gamma^k times the last, plus tol,
    per sweep, from any residual above floor."""
    for k, rs in order_runs(trace)[:-1]:
        for a, b in zip(rs, rs[1:]):
            if a > floor:
                assert b <= gamma**k * a + tol


class TestJipe2:
    def test_fixed_point_initialization_stops_immediately(self):
        env = build_crc(3, 0.5)
        pol = Policy.uniform(env.space)
        star = jipe(env, pol, 1e-12).final
        rep = jipe(env, pol, 1e-6, m0=star)
        assert rep.iterations == 0
        assert rep.residual_trace[0][1] <= 1e-6 * (1 - env.gamma)
        assert rep.certified

    # The reference cases, plus crc(100), where the |X|^2 tables dominate the count.
    @pytest.mark.parametrize("case", [*REFERENCE_CASES, "crc100"])
    def test_budget_bounds_measured_peak(self, case, monkeypatch):
        if case == "crc100":
            env = build_crc(100, 0.9)
            pol = Policy.uniform(env.space)
        else:
            env, pol, _ = REFERENCE_CASES[case]()
        m = MomentCollectionN.zeros(env.space, 2)
        # The count holds the residual trace, so each run is refused at its own
        # max_iter. A run capped inside order 1 and one that certifies, so that
        # its order-2 sweeps end before the closing full backup. noise_diagnostic's
        # count adds its samples to the backup's (check_noise_budget), so only its
        # refusal is checked.
        needs = [check_backup_budget(env, 2, max_iter) for max_iter in (3, 1_000, 0, 0)]
        runs = (lambda: jipe(env, pol, 1e-8, max_iter=3),
                lambda: jipe(env, pol, 1e-6, max_iter=1_000), lambda: apply_tn(env, pol, m),
                lambda: noise_diagnostic(env, pol, m, (0,), 1000, seed=0))
        for run, need in zip(runs, needs):
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
            with pytest.raises(BudgetError, match=(
                    f"order-2 backup over {env.space.num_x} coordinates "
                    f"needs {need} bytes; budget is {need - 1}")):
                run()
        for run, need in zip(runs[:3], needs):
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need

    def test_crc_mean_closed_form(self):
        env = build_crc(25, 0.9)
        rep = jipe(env, Policy.uniform(env.space), 1e-10)
        assert rep.certified
        np.testing.assert_allclose(rep.final.m_mu, 5.0, atol=1e-9)

    def test_residual_trace_contracts(self):
        env = build_crc(25, 0.9)
        rep = jipe(env, Policy.uniform(env.space), 1e-4)
        assert_runs_contract(rep.residual_trace, env.gamma, 1e-10, 1e-13)

    def test_certificate_bound_fields(self):
        env = build_crc(5, 0.9)
        rep = jipe(env, Policy.uniform(env.space), 1e-8)
        last = rep.residual_trace[-1][1]
        assert rep.certified_error_bound == pytest.approx(last / (1 - env.gamma))

    def test_max_iter_flags_not_certified(self):
        env = build_crc(5, 0.9)
        rep = jipe(env, Policy.uniform(env.space), 1e-10, max_iter=3)
        assert not rep.certified
        assert rep.iterations == 3

    def test_max_iter_spent_inside_order_two(self):
        """A run whose updates run out while it sweeps order 2 ends with the
        full backup: uncertified, with a bound that still covers the distance
        to a tight solve."""
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        tight = jipe(env, pol, 1e-12)
        first = len(order_runs(tight.residual_trace)[0][1]) - 1  # order-1 updates
        rep = jipe(env, pol, 1e-10, max_iter=first + 5)
        assert [o for o, _ in order_runs(rep.residual_trace)] == [1, 2, 0]
        assert not rep.certified and rep.iterations == first + 5
        dist = lambda_norm(rep.final - tight.final, env.gamma)
        assert rep.certified_error_bound >= dist - tight.certified_error_bound > 0

    def test_mean_channel_matches_linear_solve(self):
        for env in (build_crc(5, 0.9), build_wgw(3, 3, (0, 2), 0.3, 0.8)):
            pol = Policy.uniform(env.space)
            rep = jipe(env, pol, 1e-12)
            q = mean_value_oracle(env, pol)
            np.testing.assert_allclose(rep.final.m_mu, q, atol=1e-10)


@pytest.mark.parametrize(
    "epsilon, max_iter",
    [(0.0, 10), (-1e-8, 10), (float("nan"), 10), (float("inf"), 10), (1e-8, -1)],
    ids=["zero_epsilon", "negative_epsilon", "nan_epsilon", "inf_epsilon",
         "negative_max_iter"],
)
@pytest.mark.parametrize("order", [2, 3])
def test_solver_arguments_rejected(order, epsilon, max_iter):
    env = build_crc(3, 0.9)
    pol = Policy.uniform(env.space)
    with pytest.raises(InvalidInputError, match="max_iter" if max_iter < 0 else "epsilon"):
        jipe(env, pol, epsilon, max_iter=max_iter, order=order)


def test_block_kernel_powers_are_products(monkeypatch):
    """Each reward factor g^e is 1 * g * ... * g, never numpy's CPU-dispatched
    power, so the kernel's bytes do not depend on the CPU. The first noise
    atoms of a tau-block of e positions are those of no continuing position,
    weighing p_u g^e (one position's kernel is dense, so e starts at 2)."""
    env = random_env(9, num_states=20, num_actions=4, num_noise=10)
    monkeypatch.setattr(jmdp.dp, "_DENSE_KERNEL_MAX", 0)  # return the weights
    power = env.g * env.g
    for e in range(2, 6):
        _, _, weight = _block_kernel(env, (e,))
        np.testing.assert_array_equal(weight[:10], (env.noise.probs * power).reshape(-1, 10).T)
        power = power * env.g


class TestApplyTn:
    def test_order_one_is_mean_backup(self):
        env = random_env(4)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(1)
        mu = rng.normal(size=env.space.num_x)
        out_n = apply_tn(env, pol, MomentCollectionN((mu,)))
        out_2 = _ref_apply_t2(
            env, pol, MomentCollection2(mu, np.zeros((mu.size, mu.size)))
        )
        np.testing.assert_allclose(out_n.table(1), out_2.m_mu, atol=1e-13)

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (build_crc(3, 0.8), Policy.uniform),
            lambda: (build_wgw(2, 2, (0, 1), 0.3, 0.9), Policy.uniform),
            lambda: (
                random_env(6, num_states=3, num_actions=3, num_noise=4),
                lambda space: random_policy(6, space),
            ),
        ],
    )
    def test_order_two_matches_specialized_operator(self, case):
        env, make_policy = case()
        pol = make_policy(env.space)
        rng = np.random.default_rng(2)
        m2 = random_moments(rng, env.space.num_x, scale=3.0)
        mn = MomentCollectionN((m2.m_mu, m2.m_sigma))
        out_n = apply_tn(env, pol, mn)
        out_2 = _ref_apply_t2(env, pol, m2)
        np.testing.assert_allclose(out_n.table(1), out_2.m_mu, atol=1e-12)
        np.testing.assert_allclose(out_n.table(2), out_2.m_sigma, atol=1e-12)

    def test_output_permutation_invariant(self):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        m = MomentCollectionN.zeros(env.space, 3)
        out = apply_tn(env, pol, m)
        t3 = out.table(3)
        np.testing.assert_array_equal(t3, np.swapaxes(t3, 0, 1))
        np.testing.assert_array_equal(t3, np.swapaxes(t3, 0, 2))

    def test_memory_budget_refused(self, monkeypatch):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        m = MomentCollectionN.zeros(env.space, 4)
        # The count holds the residual trace: apply_tn counts none, jipe
        # one entry per step of its max_iter (100 000 by default).
        need_tn, need_n, need_2 = (_BackupPlan(env, pol, 4, k).need for k in (0, 100_000, 2))
        for run, need in ((lambda: apply_tn(env, pol, m), need_tn),
                          (lambda: jipe(env, pol, 1e-6, order=4), need_n)):
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
            with pytest.raises(BudgetError, match=f"order-4 backup over 6 coordinates "
                                                  f"needs {need} bytes; budget is {need - 1}"):
                run()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need_tn)
        apply_tn(env, pol, m)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need_2)
        jipe(env, pol, 1e-6, max_iter=2, order=4)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("case", ["crc3", "wgw2x2"])
    def test_budget_bounds_measured_peak(self, case, order, monkeypatch):
        env, pol, _ = REFERENCE_CASES[case]()
        need = _BackupPlan(env, pol, order, 3).need  # the count of a 3-step solve
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        with pytest.raises(BudgetError, match=f"needs {need} bytes"):
            jipe(env, pol, 1e-8, max_iter=3, order=order)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        tracemalloc.start()
        try:
            jipe(env, pol, 1e-8, max_iter=3, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_enumeration_reference(self, case, order):
        env, pol, coords = REFERENCE_CASES[case]()
        if order < 4:
            coords = list(range(env.space.num_x))
        m = random_tables(np.random.default_rng(order), env.space.num_x, order)
        ref = _apply_tn_planned(env, pol, m, _build_plans(env, order, coords))
        out = apply_tn(env, pol, m)
        for k in range(1, order + 1):
            block = np.ix_(*[coords] * k)
            np.testing.assert_allclose(out.table(k)[block], ref.table(k)[block],
                                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("order, n", [(2, 7), (3, 5), (4, 4)])
@pytest.mark.parametrize("block", [1, 3, 1 << 13], ids=["rows1", "rows3", "default"])
def test_mirror_copies_sorted_tuples(order, n, block, monkeypatch):
    """_mirror gives each entry its value at the sorted coordinates, for any
    number of leading rows per block."""
    monkeypatch.setattr(jmdp.dp, "_CHECK_BLOCK", block * n ** (order - 1))
    t = np.random.default_rng(order).normal(size=(n,) * order)
    out = t.copy()
    jmdp.dp._mirror(out)
    for xs in itertools.product(range(n), repeat=order):
        assert out[xs] == t[tuple(sorted(xs))]


class TestKernelForms:
    """Every class contracts its state tensor through one kernel per
    sigma-block; with _DENSE_KERNEL_MAX = 0 every kernel of several positions
    is a weighted gather instead of a dense matrix."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_factored_plan(self, case, order, monkeypatch):
        env, pol, _ = REFERENCE_CASES[case]()
        m = random_tables(np.random.default_rng(order), env.space.num_x, order)
        out = apply_tn(env, pol, m)
        monkeypatch.setattr(jmdp.dp, "_DENSE_KERNEL_MAX", 0)
        ref = apply_tn(env, pol, m)
        for k in range(1, order + 1):
            np.testing.assert_allclose(out.table(k), ref.table(k), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: (build_crc(3, 0.9), Policy.uniform(StateActionSpace(3, 2))),
        lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9), wgw_goal_policy(3, 3, (0, 2))),
    ], ids=["crc3", "wgw3x3-goal"])
    def test_same_iterations_as_factored_plan(self, make, monkeypatch):
        env, pol = make()
        rep = jipe(env, pol, 1e-8, order=3)
        monkeypatch.setattr(jmdp.dp, "_DENSE_KERNEL_MAX", 0)
        ref = jipe(env, pol, 1e-8, order=3)
        assert rep.residual_trace[-1][0] == ref.residual_trace[-1][0]
        diff = [a - b for a, b in zip(rep.final.tables, ref.final.tables)]
        assert lambda_norm(diff, env.gamma) <= 1e-12

    @pytest.mark.parametrize("case, order", [
        ("crc3", 2), ("crc3", 3), ("crc3", 4), ("wgw2x2", 3)])
    def test_every_class_contracts_through_its_block_kernels(self, case, order):
        """No class is composed into one matrix over its state tensor: each
        runs len(shape) ops, the plan's kernel of each sigma-block, shared by
        every class holding that block."""
        env, pol, _ = REFERENCE_CASES[case]()
        plan = _BackupPlan(env, pol, order, 0)
        shared = {}
        for k, classes in enumerate(plan.orders, start=1):
            for (shape, _), (z, ops, *_) in zip(jmdp.dp._classes(k), classes, strict=True):
                assert len(ops) == len(shape)
                for sizes, op in zip(shape, ops):
                    assert op is shared.setdefault(sizes, op)
                    rows, kern, weights = _block_kernel(env, sizes)
                    assert op[0] == rows and (op[2] is None) == (weights is None)
                    np.testing.assert_array_equal(op[1], kern)
                if len(shape) > 1:
                    assert all(op[0] < z.size for op in ops)


@pytest.mark.parametrize("order", [2, 3])
def test_budget_counts_residual_trace(order, monkeypatch):
    """A solve that runs out of max_iter keeps max_iter + 1 residuals, which
    its count holds: the measured peak stays within it, one byte less refuses."""
    env = build_crc(3, 0.9999)
    pol = Policy.uniform(env.space)
    need = check_backup_budget(env, order, 2_000)
    assert need == _BackupPlan(env, pol, order, 2_000).need
    run = lambda: jipe(env, pol, 1e-8, max_iter=2_000, order=order).residual_trace
    monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetError, match=f"needs {need} bytes; budget is {need - 1}"):
        run()
    monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
    tracemalloc.start()
    try:
        trace = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 2_001
    assert peak <= need


def _run_incremental(env, pol, **moments):
    return run_incremental(env, pol, 10, seed=0, visitation="sweep", **moments)


@pytest.mark.parametrize("call", [
    lambda env, pol, m: jipe(env, pol, 1e-8, m0=m),
    lambda env, pol, m: _run_incremental(env, pol, m0=m),
    lambda env, pol, m: _run_incremental(env, pol, fixed_point=m),
    lambda env, pol, m: sample_backup(env, pol, m, (0,), np.random.default_rng(0)),
    lambda env, pol, m: noise_diagnostic(env, pol, m, (0,), 1000, seed=0),
], ids=["jipe_m0", "run_incremental_m0", "run_incremental_fixed_point",
        "sample_backup", "noise_diagnostic"])
def test_order_two_entry_points_reject_order_three(call):
    env = build_crc(3, 0.9)
    with pytest.raises(InvalidInputError, match="order 3"):
        call(env, Policy.uniform(env.space), MomentCollectionN.zeros(env.space, 3))


@pytest.mark.parametrize("call", [
    apply_tn,
    lambda env, pol, m: jipe(env, pol, 1e-8),
    lambda env, pol, m: jipe(env, pol, 1e-6, order=3),
    lambda env, pol, m: noise_diagnostic(env, pol, m, (0,), 1000, seed=0),
    lambda env, pol, m: sample_backup(env, pol, m, (0,), np.random.default_rng(0)),
    lambda env, pol, m: _run_incremental(env, pol),
    lambda env, pol, m: mc_state_block(env, pol, 0, (0, 1), 100, 1e-3, seed=0),
    lambda env, pol, m: stationary_distribution(env, pol),
    lambda env, pol, m: coupling_coefficient(env, pol, np.full(env.space.num_x, 0.1)),
    lambda env, pol, m: projected_jipe2(env, pol, identity_features(env.space.num_x),
                                        np.full(env.space.num_x, 0.1), 1e-8),
    lambda env, pol, m: marginal_kernel(env, pol),
], ids=["apply_tn", "jipe_order2", "jipe_order3", "noise_diagnostic", "sample_backup",
        "run_incremental", "mc_state_block", "stationary_distribution",
        "coupling_coefficient", "projected_jipe2", "marginal_kernel"])
@pytest.mark.parametrize("probs, shape", [
    (np.full((1, 2), 0.5), (1, 2)),
    (np.full((5, 3), 1 / 3), (5, 3)),
], ids=["one_row", "three_actions"])
def test_policy_of_another_shape_rejected_before_any_work(call, probs, shape, capfd):
    """A policy table that is not (states, actions) for the env is one
    InvalidInputError naming both shapes, raised before numpy or scipy sees
    the table, so nothing is printed."""
    env = build_crc(5, 0.9)  # 5 states, 2 actions
    m = MomentCollectionN.zeros(env.space, 2)
    with pytest.raises(InvalidInputError, match=(
            rf"policy table shape \({shape[0]}, {shape[1]}\) does not match "
            r"the environment's \(states, actions\) = \(5, 2\)")):
        call(env, Policy(probs), m)
    assert capfd.readouterr() == ("", "")


class TestJipeN:
    @pytest.mark.parametrize("m0_order, m0_states", [(2, 3), (4, 3), (3, 4)],
                             ids=["lower_order", "higher_order", "other_env"])
    def test_m0_of_another_order_or_env_rejected(self, m0_order, m0_states):
        env = build_crc(3, 0.9)
        m0 = MomentCollectionN.zeros(build_crc(m0_states, 0.9).space, m0_order)
        with pytest.raises(InvalidInputError, match="expected order 3"):
            jipe(env, Policy.uniform(env.space), 1e-6, m0=m0, order=3)

    def test_order_below_one_rejected(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError, match="^order: must be an integer >= 1, got 0$"):
            jipe(env, Policy.uniform(env.space), 1e-6, order=0)

    def test_order_two_reproduces_jipe2(self):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        rep2 = jipe(env, pol, 1e-9)
        rep_n = jipe(env, pol, 1e-9, order=2)
        np.testing.assert_array_equal(rep_n.final.table(1), rep2.final.m_mu)
        np.testing.assert_array_equal(rep_n.final.table(2), rep2.final.m_sigma)
        assert rep_n.residual_trace == rep2.residual_trace

    def test_residual_contraction_order_three(self):
        env = build_crc(3, 0.8)
        trace = jipe(env, Policy.uniform(env.space), 1e-7, order=3).residual_trace
        assert_runs_contract(trace, env.gamma, 1e-10, 1e-12)
        assert trace[-1][1] <= 1e-7 * (1 - env.gamma)

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_stage_residual_is_full_backup_component(self, case):
        """Each order's last sweep leaves exactly the residual that the
        closing full backup, and a fresh backup of the result, find for that
        order; the closing row holds their maximum."""
        env, pol, _ = REFERENCE_CASES[case]()
        lam = 2.0 / (1.0 - env.gamma)
        rep = jipe(env, pol, 1e-8, order=3)
        final, trace = rep.final, rep.residual_trace
        backup = apply_tn(env, pol, final)
        runs = order_runs(trace)
        for k, rs in runs[:-1]:
            d = final.table(k) - backup.table(k)
            assert rs[-1] == float(np.max(np.abs(d))) / lam ** (k - 1)
        assert runs[-1][1] == [max(rs[-1] for _, rs in runs[:-1])]

    @pytest.mark.parametrize("make, order", [
        (lambda: (build_crc(3, 0.9), Policy.uniform(StateActionSpace(3, 2))), 3),
        (lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9), wgw_goal_policy(3, 3, (0, 2))), 4),
    ], ids=["crc3-order3", "wgw3x3-goal-order4"])
    def test_order_k_sweeps_contract_at_gamma_k(self, make, order):
        """Order k's run takes at most ceil(log(r_first/target)/log(1/gamma^k)) + 1
        sweeps: with the lower orders fixed its backup contracts at gamma^k."""
        env, pol = make()
        target = 1e-6 * (1 - env.gamma)
        trace = jipe(env, pol, 1e-6, order=order).residual_trace
        runs = order_runs(trace)
        assert [k for k, _ in runs] == [*range(1, order + 1), 0]
        for k, rs in runs[:-1]:
            steps = math.log(rs[0] / target) / (-k * math.log(env.gamma))
            assert len(rs) <= max(0, math.ceil(steps)) + 1

    @pytest.mark.parametrize("misses", [1, None], ids=["once", "always"])
    def test_missed_full_backup_resumes(self, misses, monkeypatch):
        """When the closing full backup misses epsilon, the sweeps resume at
        the first order it misses, here 2, and the next full backup certifies.
        If every full backup misses, the run ends at max_iter + order + 1 rows."""
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        ref_rep = jipe(env, pol, 1e-8, order=3)
        ref_final, ref = ref_rep.final, ref_rep.residual_trace
        apply, fulls = _BackupPlan.apply, []

        def perturbed(plan, tables, order=None):
            out = apply(plan, tables, order)
            if order is None:
                fulls.append(order)
                if misses is None or len(fulls) <= misses:
                    out[1][0, 0] += 1.0
            return out

        monkeypatch.setattr(_BackupPlan, "apply", perturbed)
        rep = jipe(env, pol, 1e-8, max_iter=1_000, order=3)
        final, trace = rep.final, rep.residual_trace
        k = ref[-1][0]
        assert trace[:len(ref) - 1] == ref[:-1] and trace[len(ref) - 1][2] == 0
        for a, b in zip(final.tables, ref_final.tables):
            np.testing.assert_array_equal(a, b)
        if misses:
            r2, r3 = (rs[-1] for _, rs in order_runs(ref)[1:3])
            assert trace[len(ref):] == [(k, r2, 2), (k, r3, 3), ref[-1]]
        else:
            assert len(trace) == 1_000 + 3 + 1 and trace[-1][2] == 0
            assert {(i, o) for i, _, o in trace[len(ref):]} == {(k, 2), (k, 3), (k, 0)}
            assert trace[-1][1] > 1e-8 * (1 - env.gamma)

    def test_order_one_table_of_higher_order_run(self):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        final3 = jipe(env, pol, 1e-10, order=3).final
        final1 = jipe(env, pol, 1e-10, order=1).final
        np.testing.assert_allclose(final3.table(1), final1.table(1), atol=1e-9)

    def test_third_moments_match_coupled_rollouts(self):
        env = build_crc(3, 0.8)
        check_third_moments(env, Policy.uniform(env.space), 0, (0, 1))

    def test_third_moments_match_coupled_rollouts_on_gridworld(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        check_third_moments(env, wgw_goal_policy(3, 3, (0, 2)), 3, (0, 1))


def test_one_exact_solver_and_every_export_exists():
    """jipe2 is only a second name of jipe, the removed solver names are gone,
    and every name a jmdp module lists in __all__ exists."""
    assert jmdp.dp.jipe2 is jmdp.dp.jipe
    for gone in ("jipe_n", "Jipe2Report", "_certificate", "_solve"):
        assert not hasattr(jmdp.dp, gone) and not hasattr(jmdp, gone)
    for info in pkgutil.iter_modules(jmdp.__path__):
        if info.name != "__main__":  # running it runs the CLI
            mod = importlib.import_module(f"jmdp.{info.name}")
            missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
            assert missing == [], f"jmdp.{info.name}.__all__ lists missing names"


def check_third_moments(env, pol, state, actions):
    """Order-3 tables of jipe against coupled rollouts from `state`, one branch
    per action; each mixed third moment within 4 standard errors."""
    rep = jipe(env, pol, 1e-8, order=3)
    final, trace = rep.final, rep.residual_trace
    assert trace[-1][1] <= 1e-8 * (1 - env.gamma)
    n = 60_000
    horizon = truncation_horizon(env.gamma, 1e-5)
    z, _ = _branch_returns(env, pol, state, actions, n, horizon, 123, "shared-state")
    for combo in [(0, 0, 0), (0, 0, 1), (0, 1, 1)]:
        sample = z[combo[0]] * z[combo[1]] * z[combo[2]]
        est = sample.mean()
        se = sample.std(ddof=1) / np.sqrt(n)
        idx = tuple(env.space.x(state, actions[b]) for b in combo)
        exact = final.table(3)[idx]
        assert abs(est - exact) <= 4 * se + 1e-6
