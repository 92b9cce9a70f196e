import itertools
import tracemalloc

import numpy as np
import pytest

from jmdp.core import (
    Index2,
    LambdaWeights,
    MomentCollection2,
    MomentCollectionN,
    StateActionSpace,
    lambda_norm,
)
from jmdp.dp import _BackupPlan, apply_t2, apply_tn, jipe2, jipe_n
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_ring_chain,
    build_wgw,
    marginal_mdp,
    wgw_goal_policy,
)
from jmdp.errors import BudgetError, InvalidInputError
from jmdp.incremental import (
    StepSchedule,
    VisitationScheme,
    noise_diagnostic,
    run_incremental,
    sample_backup,
)
from jmdp.stats import _branch_returns, truncation_horizon

from test_env import anticorrelated_single_state, random_env, random_policy


# ---------------------------------------------------------------------------
# Reference second-order backup and solver: one apply_t2 computing every term
# per call, and a jipe2 loop stepping frozen MomentCollection2 objects with the
# residual max(max|d_mu|, max|d_sigma| / lam). The backup built once per solve
# must reproduce both bit for bit.
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
    lam = LambdaWeights(env.gamma).lam
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
        out = apply_t2(env, pol, MomentCollection2.zeros(env.space))
        r_bar = env.g @ env.noise.probs
        np.testing.assert_allclose(
            out.m_mu, r_bar.reshape(-1), atol=1e-14
        )

    def test_zero_continuation_coupled_products(self):
        env = anticorrelated_single_state()
        pol = Policy.uniform(env.space)
        out = apply_t2(env, pol, MomentCollection2.zeros(env.space))
        # coupled cross term vanishes while the product of the means is 1/4
        assert out.m_sigma[0, 1] == 0.0
        assert out.m_mu[0] * out.m_mu[1] == pytest.approx(0.25)
        assert out.m_sigma[0, 0] == pytest.approx(0.5)

    def test_cross_state_factorizes_for_zero_input(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        out = apply_t2(env, pol, MomentCollection2.zeros(env.space))
        # distinct chain states draw independently: E[R Rt] = 1/4
        x0 = env.space.x(0, 0)
        x1 = env.space.x(1, 1)
        assert out.m_sigma[x0, x1] == pytest.approx(0.25)

    def test_output_symmetric(self):
        env = random_env(9, num_states=4, num_actions=3)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(0)
        m = random_moments(rng, env.space.num_x, scale=5.0)
        out = apply_t2(env, pol, m)
        np.testing.assert_array_equal(out.m_sigma, out.m_sigma.T)

    def test_dimension_mismatch(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError):
            apply_t2(env, Policy.uniform(env.space),
                     MomentCollection2.zeros(StateActionSpace(2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_contraction_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        for env in (build_crc(4, 0.9), build_wgw(2, 2, (0, 1), 0.3, 0.9)):
            pol = Policy.uniform(env.space)
            w = LambdaWeights(env.gamma)
            for _ in range(10):
                a = random_moments(rng, env.space.num_x)
                b = random_moments(rng, env.space.num_x)
                lhs = lambda_norm(apply_t2(env, pol, a) - apply_t2(env, pol, b), w)
                rhs = env.gamma * lambda_norm(a - b, w)
                assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("case", list(SECOND_ORDER_CASES))
class TestSecondOrderMatchesReference:
    def test_apply_t2(self, case):
        env, pol = SECOND_ORDER_CASES[case]()
        m = random_moments(np.random.default_rng(3), env.space.num_x, scale=3.0)
        out, ref = apply_t2(env, pol, m), _ref_apply_t2(env, pol, m)
        assert np.array_equal(out.m_mu, ref.m_mu)
        assert np.array_equal(out.m_sigma, ref.m_sigma)

    def test_jipe2(self, case):
        env, pol = SECOND_ORDER_CASES[case]()
        rep = jipe2(env, pol, 1e-8)
        ref_final, ref_trace = _ref_jipe2(env, pol, 1e-8)
        assert rep.residual_trace == ref_trace
        assert np.array_equal(rep.final.m_mu, ref_final.m_mu)
        assert np.array_equal(rep.final.m_sigma, ref_final.m_sigma)
        # Started at its own fixed point, the solver returns m0 at k = 0.
        again = jipe2(env, pol, 1e-8, m0=rep.final)
        assert again.residual_trace == _ref_jipe2(env, pol, 1e-8, m0=rep.final)[1]
        assert again.iterations == 0 and again.final is rep.final


class TestJipe2:
    def test_fixed_point_initialization_stops_immediately(self):
        env = build_crc(3, 0.5)
        pol = Policy.uniform(env.space)
        star = jipe2(env, pol, 1e-12).final
        rep = jipe2(env, pol, 1e-6, m0=star)
        assert rep.iterations == 0
        assert rep.residual_trace[0][1] <= 1e-6 * (1 - env.gamma)
        assert rep.certified

    def test_crc_mean_closed_form(self):
        env = build_crc(25, 0.9)
        rep = jipe2(env, Policy.uniform(env.space), 1e-10)
        assert rep.certified
        np.testing.assert_allclose(rep.final.m_mu, 5.0, atol=1e-9)

    def test_residual_trace_contracts(self):
        env = build_crc(25, 0.9)
        rep = jipe2(env, Policy.uniform(env.space), 1e-4)
        rs = [r for _, r in rep.residual_trace]
        for k in range(len(rs) - 1):
            if rs[k] > 1e-13:
                assert rs[k + 1] <= env.gamma * rs[k] + 1e-10

    def test_certificate_bound_fields(self):
        env = build_crc(5, 0.9)
        rep = jipe2(env, Policy.uniform(env.space), 1e-8)
        last = rep.residual_trace[-1][1]
        assert rep.certified_error_bound == pytest.approx(last / (1 - env.gamma))

    def test_max_iter_flags_not_certified(self):
        env = build_crc(5, 0.9)
        rep = jipe2(env, Policy.uniform(env.space), 1e-10, max_iter=3)
        assert not rep.certified
        assert rep.iterations == 3

    def test_mean_channel_matches_linear_solve(self):
        for env in (build_crc(5, 0.9), build_wgw(3, 3, (0, 2), 0.3, 0.8)):
            pol = Policy.uniform(env.space)
            rep = jipe2(env, pol, 1e-12)
            q = mean_value_oracle(env, pol)
            np.testing.assert_allclose(rep.final.m_mu, q, atol=1e-10)


@pytest.mark.parametrize(
    "epsilon, max_iter",
    [(0.0, 10), (-1e-8, 10), (float("nan"), 10), (float("inf"), 10), (1e-8, -1)],
    ids=["zero_epsilon", "negative_epsilon", "nan_epsilon", "inf_epsilon",
         "negative_max_iter"],
)
@pytest.mark.parametrize("solver", ["jipe2", "jipe_n"])
def test_solver_arguments_rejected(solver, epsilon, max_iter):
    env = build_crc(3, 0.9)
    pol = Policy.uniform(env.space)
    with pytest.raises(InvalidInputError, match="max_iter" if max_iter < 0 else "epsilon"):
        if solver == "jipe2":
            jipe2(env, pol, epsilon, max_iter=max_iter)
        else:
            jipe_n(env, pol, 2, epsilon, max_iter=max_iter)


class TestApplyTn:
    def test_order_one_is_mean_backup(self):
        env = random_env(4)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(1)
        mu = rng.normal(size=env.space.num_x)
        out_n = apply_tn(env, pol, MomentCollectionN((mu,)))
        out_2 = apply_t2(
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
        out_2 = apply_t2(env, pol, m2)
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

    def test_memory_budget_refused(self):
        env = build_crc(3, 0.8)
        with pytest.raises(BudgetError, match="bytes"):
            jipe_n(env, Policy.uniform(env.space), 4, 1e-6,
                   memory_budget_bytes=1000)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("case", ["crc3", "wgw2x2"])
    def test_budget_bounds_measured_peak(self, case, order):
        env, pol, _ = REFERENCE_CASES[case]()
        need = _BackupPlan(env, pol, order, 1 << 40).need
        with pytest.raises(BudgetError):
            jipe_n(env, pol, order, 1e-8, max_iter=3, memory_budget_bytes=need - 1)
        tracemalloc.start()
        try:
            jipe_n(env, pol, order, 1e-8, max_iter=3, memory_budget_bytes=need)
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


def _run_incremental(env, pol, **moments):
    return run_incremental(env, pol, StepSchedule.harmonic(), VisitationScheme.sweep(),
                           10, seed=0, **moments)


@pytest.mark.parametrize("call", [
    apply_t2,
    lambda env, pol, m: jipe2(env, pol, 1e-8, m0=m),
    lambda env, pol, m: _run_incremental(env, pol, m0=m),
    lambda env, pol, m: _run_incremental(env, pol, fixed_point=m),
    lambda env, pol, m: sample_backup(env, pol, m, Index2("mu", 0), np.random.default_rng(0)),
    lambda env, pol, m: noise_diagnostic(env, pol, m, Index2("mu", 0), 1000, seed=0),
], ids=["apply_t2", "jipe2_m0", "run_incremental_m0", "run_incremental_fixed_point",
        "sample_backup", "noise_diagnostic"])
def test_order_two_entry_points_reject_order_three(call):
    env = build_crc(3, 0.9)
    with pytest.raises(InvalidInputError, match="order 3"):
        call(env, Policy.uniform(env.space), MomentCollectionN.zeros(env.space, 3))


class TestJipeN:
    @pytest.mark.parametrize("m0_order, m0_states", [(2, 3), (4, 3), (3, 4)],
                             ids=["lower_order", "higher_order", "other_env"])
    def test_m0_of_another_order_or_env_rejected(self, m0_order, m0_states):
        env = build_crc(3, 0.9)
        m0 = MomentCollectionN.zeros(build_crc(m0_states, 0.9).space, m0_order)
        with pytest.raises(InvalidInputError, match="expected order 3"):
            jipe_n(env, Policy.uniform(env.space), 3, 1e-6, m0=m0)

    def test_order_below_one_rejected(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError, match="order must be >= 1"):
            jipe_n(env, Policy.uniform(env.space), 0, 1e-6)

    def test_order_two_reproduces_jipe2(self):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        rep2 = jipe2(env, pol, 1e-9)
        final_n, trace_n = jipe_n(env, pol, 2, 1e-9)
        np.testing.assert_allclose(final_n.table(1), rep2.final.m_mu, atol=1e-9)
        np.testing.assert_allclose(final_n.table(2), rep2.final.m_sigma, atol=1e-9)
        rs2 = [r for _, r in rep2.residual_trace]
        rsn = [r for _, r in trace_n]
        assert len(rs2) == len(rsn)
        np.testing.assert_allclose(rs2, rsn, rtol=1e-9, atol=1e-12)

    def test_residual_contraction_order_three(self):
        env = build_crc(3, 0.8)
        final, trace = jipe_n(env, Policy.uniform(env.space), 3, 1e-7)
        rs = [r for _, r in trace]
        for k in range(len(rs) - 1):
            if rs[k] > 1e-12:
                assert rs[k + 1] <= env.gamma * rs[k] + 1e-10
        assert rs[-1] <= 1e-7 * (1 - env.gamma)

    def test_order_one_table_of_higher_order_run(self):
        env = build_crc(3, 0.8)
        pol = Policy.uniform(env.space)
        final3, _ = jipe_n(env, pol, 3, 1e-10)
        final1, _ = jipe_n(env, pol, 1, 1e-10)
        np.testing.assert_allclose(final3.table(1), final1.table(1), atol=1e-9)

    def test_third_moments_match_coupled_rollouts(self):
        env = build_crc(3, 0.8)
        check_third_moments(env, Policy.uniform(env.space), 0, (0, 1))

    def test_third_moments_match_coupled_rollouts_on_gridworld(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        check_third_moments(env, wgw_goal_policy(3, 3, (0, 2)), 3, (0, 1))


def check_third_moments(env, pol, state, actions):
    """Order-3 tables of jipe_n against coupled rollouts from `state`, one branch
    per action; each mixed third moment within 4 standard errors."""
    final, trace = jipe_n(env, pol, 3, 1e-8)
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
