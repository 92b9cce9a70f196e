from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jmdp.stats
from jmdp.core import LambdaWeights, MomentCollection2, StateActionSpace
from jmdp.dp import jipe2, jipe_n
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_shared_successors,
    build_wgw,
    child_seed,
    wgw_goal_policy,
)
from jmdp.errors import AssumptionError, InvalidInputError, InvalidQueryError
from jmdp.stats import (
    _branch_returns,
    _reward_free_sink,
    cantelli_bound,
    chebyshev_ecdf,
    corr_matrix,
    gap_stats,
    mc_state_block,
    truncation_horizon,
)


@pytest.fixture(scope="module")
def crc_fixed_point():
    env = build_crc(5, 0.9)
    pol = Policy.uniform(env.space)
    return env, pol, jipe2(env, pol, 1e-10).final


# Closed forms for the coupled-reward chain under the solver's branch coupling
# (branches at a shared state reuse that step's noise; equal coordinates merge):
#   var(Z)        = (1/4) / (1 - g^2)
#   cov(Z0, Z1)   = (1/4) [1/(1 - g^2) - 2/(1 - g^2/2)]
#   var(Z0 - Z1)  = 1 / (1 - g^2/2)
# all state-independent. Confirmed against the Monte Carlo oracle below.
GAMMA = 0.9
CRC_VAR = 0.25 / (1 - GAMMA**2)
CRC_COV = 0.25 * (1 / (1 - GAMMA**2) - 2 / (1 - GAMMA**2 / 2))
CRC_GAP_VAR = 1 / (1 - GAMMA**2 / 2)


class TestHorizon:
    def test_minimal_horizon(self):
        t = truncation_horizon(0.9, 1e-6)
        assert 0.9**t / 0.1 <= 1e-6
        assert 0.9 ** (t - 1) / 0.1 > 1e-6

    def test_small_gamma(self):
        # 0.5^T / 0.5 <= 0.5 first holds at T = 2
        assert truncation_horizon(0.5, 0.5) == 2


class TestGapStats:
    def test_identity_case_formula(self, crc_fixed_point):
        env, _, m = crc_fixed_point
        x = env.space.x(0, 0)
        value = m.m_sigma[x, x] + m.m_sigma[x, x] - 2 * m.m_sigma[x, x] - 0.0**2
        assert value == 0.0

    def test_equal_actions_rejected(self, crc_fixed_point):
        env, _, m = crc_fixed_point
        with pytest.raises(InvalidQueryError):
            gap_stats(env.space, m, 0, 1, 1)

    def test_crc_closed_form(self, crc_fixed_point):
        env, _, m = crc_fixed_point
        mean, var = gap_stats(env.space, m, 0, 0, 1)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(CRC_GAP_VAR, abs=1e-8)

    def test_wgw_matches_oracle(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        m = jipe2(env, pol, 1e-10).final
        blk = mc_state_block(env, pol, 3, (0, 1, 2, 3), 40_000, 1e-6, seed=9,
                             confidence=0.99)
        z = blk.z_value
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                mean, var = gap_stats(env.space, m, 3, a, b)
                assert abs(mean - blk.gap_mean[a, b]) <= z * blk.gap_mean_se[a, b] + 1e-9
                assert abs(var - blk.gap_var[a, b]) <= z * blk.gap_var_se[a, b] + 1e-6


class TestCantelli:
    def test_zero_variance(self):
        assert cantelli_bound(1.0, 0.0) == 0.0

    def test_variance_equal_square_mean(self):
        assert cantelli_bound(2.0, 4.0) == pytest.approx(0.5)

    def test_nonpositive_mean_not_applicable(self, crc_fixed_point):
        env, _, m = crc_fixed_point
        mean, var = gap_stats(env.space, m, 0, 0, 1)
        assert mean <= 0.0 or mean == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(AssumptionError):
            cantelli_bound(min(mean, 0.0), var)

    def test_bound_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = cantelli_bound(rng.uniform(0.01, 5), rng.uniform(0, 10))
            assert 0.0 <= b <= 1.0


class TestCorrMatrix:
    def test_crc_closed_form_correlation(self, crc_fixed_point):
        env, _, m = crc_fixed_point
        cm = corr_matrix(env.space, m, 0)
        expected = CRC_COV / CRC_VAR
        assert cm.corr[0, 1] == pytest.approx(expected, abs=1e-8)
        assert cm.corr[1, 0] == pytest.approx(expected, abs=1e-8)
        np.testing.assert_allclose(np.diag(cm.corr), 1.0)
        assert cm.cov[0, 0] == pytest.approx(CRC_VAR, abs=1e-8)
        assert cm.cov[0, 1] == pytest.approx(CRC_COV, abs=1e-8)

    def test_degenerate_variances_are_flagged_not_zeroed(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        pol = Policy(np.tile([0.0, 1.0, 0.0, 0.0], (4, 1)))
        m = jipe2(env, pol, 1e-10).final
        cm = corr_matrix(env.space, m, 0)
        off_diag = cm.corr[~np.eye(4, dtype=bool)]
        assert np.all(np.isnan(off_diag))
        np.testing.assert_allclose(np.diag(cm.corr), 1.0)

    def test_correlations_bounded_and_state_dependent(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        m = jipe2(env, pol, 1e-10).final
        matrices = []
        for s in range(9):
            cm = corr_matrix(env.space, m, s)
            vals = cm.corr[~np.isnan(cm.corr)]
            assert np.all(vals <= 1 + 1e-9)
            assert np.all(vals >= -1 - 1e-9)
            np.testing.assert_allclose(cm.corr, cm.corr.T)
            matrices.append(cm.corr)
        # the joint structure varies across the grid
        spread = np.nanmax(
            [np.nanmax(np.abs(a - matrices[0])) for a in matrices[1:]]
        )
        assert spread > 0.05


class TestHigherOrderCollections:
    def test_order3_solve_agrees_with_jipe2(self):
        # Each solve is within its certificate of m* in the lambda norm, so a
        # first moment moves by at most delta and a second by lam * delta.
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        rep = jipe2(env, pol, 1e-8)
        m3, trace = jipe_n(env, pol, 3, 1e-8)
        assert rep.certified and trace[-1][1] <= 1e-8 * (1 - env.gamma)
        delta = rep.certified_error_bound + trace[-1][1] / (1 - env.gamma)
        lam = LambdaWeights(env.gamma).lam
        n_a = env.space.num_actions
        for s in range(env.space.num_states):
            c2, c3 = corr_matrix(env.space, rep.final, s), corr_matrix(env.space, m3, s)
            mu = np.abs(rep.final.m_mu[s * n_a:(s + 1) * n_a])
            cov_tol = lam * delta + delta * (mu[:, None] + mu[None, :] + delta)
            assert np.all(np.abs(c3.cov - c2.cov) <= cov_tol)
            np.testing.assert_allclose(c3.corr, c2.corr, rtol=0.0, atol=1e-6)
            for a in range(n_a):
                for b in range(n_a):
                    if a == b:
                        continue
                    mean2, var2 = gap_stats(env.space, rep.final, s, a, b)
                    mean3, var3 = gap_stats(env.space, m3, s, a, b)
                    assert abs(mean3 - mean2) <= 2 * delta
                    var_tol = 4 * lam * delta + 2 * delta * (2 * abs(mean2) + 2 * delta)
                    assert abs(var3 - var2) <= var_tol


class TestMcOracle:
    def test_deterministic_env_zero_width(self):
        env = build_wgw(3, 3, (0, 2), 0.0, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        blk = mc_state_block(env, pol, 0, (0,), 200, 1e-8, seed=0)
        # from the top-left cell, "up" clamps in place; the policy then takes
        # two rights, entering the goal on the third step: return = gamma^2
        assert blk.mu[0] == pytest.approx(0.81, abs=1e-12)
        assert blk.mu_se[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("s", [-1, 9])
    def test_state_out_of_range(self, s):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        with pytest.raises(InvalidQueryError, match=f"state {s} out of range"):
            mc_state_block(env, Policy.uniform(env.space), s, (0,), 10, 1e-4, 0)

    def test_rollouts_must_be_positive(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError, match="num_rollouts"):
            mc_state_block(env, Policy.uniform(env.space), 0, (0, 1), 0, 1e-4, 0)

    def test_cross_term_agrees_with_solver(self, crc_fixed_point):
        env, pol, m = crc_fixed_point
        blk = mc_state_block(env, pol, 0, (0, 1), 50_000, 1e-6, seed=11, confidence=0.99)
        x0, x1 = env.space.x(0, 0), env.space.x(0, 1)
        z = blk.z_value
        assert abs(blk.sigma[0, 1] - m.m_sigma[x0, x1]) <= z * blk.sigma_se[0, 1]
        assert abs(blk.sigma[0, 0] - m.m_sigma[x0, x0]) <= z * blk.sigma_se[0, 0]

    def test_crc_closed_forms_via_oracle(self, crc_fixed_point):
        env, pol, _ = crc_fixed_point
        blk = mc_state_block(env, pol, 2, (0, 1), 60_000, 1e-6, seed=13, confidence=0.99)
        z = blk.z_value
        cov = blk.sigma[0, 1] - blk.mu[0] * blk.mu[1]
        assert abs(blk.gap_var[0, 1] - CRC_GAP_VAR) <= z * blk.gap_var_se[0, 1]
        assert abs(cov - CRC_COV) <= 3 * z * blk.sigma_se[0, 1]

    def test_independent_continuations_variant(self, crc_fixed_point):
        # With coupling confined to the first step, the chain's gap variance is
        # 1 + g^2/(2 (1 - g^2)) and the cross moment drops to 24.75: the values
        # the solver coupling does not reproduce.
        env, pol, _ = crc_fixed_point
        blk = mc_state_block(env, pol, 0, (0, 1), 60_000, 1e-6, seed=17,
                             confidence=0.99, continuation_coupling="independent")
        z = blk.z_value
        strict_gap_var = 1 + GAMMA**2 * 0.5 / (1 - GAMMA**2)
        strict_cross = 24.75
        assert abs(blk.gap_var[0, 1] - strict_gap_var) <= z * blk.gap_var_se[0, 1]
        assert abs(blk.sigma[0, 1] - strict_cross) <= z * blk.sigma_se[0, 1]


def all_action_blocks(env, pol, pairs, num_rollouts, seed):
    """One all-action Monte Carlo block per state in pairs, seeded child_seed(seed, s)."""
    actions = tuple(range(env.space.num_actions))
    return {
        s: mc_state_block(env, pol, s, actions, num_rollouts, 1e-6, child_seed(seed, s))
        for s in {s for s, _, _ in pairs}
    }


class TestChebyshevEcdf:
    def test_wgw_ratios(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        m = jipe2(env, pol, 1e-10).final
        pairs = []
        for s in range(9):
            for a in range(4):
                for b in range(4):
                    if a != b and gap_stats(env.space, m, s, a, b)[0] > 0:
                        pairs.append((s, a, b))
        assert pairs
        blocks = all_action_blocks(env, pol, pairs, 20_000, seed=5)
        ratios = chebyshev_ecdf(env.space, m, pairs, blocks)
        assert len(ratios) == len(pairs)
        for r in ratios:
            assert not r.note
            assert r.ratio_jipe <= 1.0 + 1e-9  # bound never violated empirically
            # the two bounds use consistent moments
            assert r.bound_jipe == pytest.approx(r.bound_mc, abs=0.25)

    def test_zero_inferiority_gives_zero_ratio(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        pol = wgw_goal_policy(2, 2, (0, 1))
        m = jipe2(env, pol, 1e-10).final
        # deterministic env: action gaps are constants; pick a positive one
        pairs = [(2, 1, 3)]  # bottom-left: right beats left
        mean, var = gap_stats(env.space, m, 2, 1, 3)
        assert mean > 0
        blocks = all_action_blocks(env, pol, pairs, 500, seed=1)
        ratios = chebyshev_ecdf(env.space, m, pairs, blocks)
        assert ratios[0].inferiority == 0.0
        assert ratios[0].ratio_jipe == 0.0

    def test_nonpositive_pairs_skipped(self, crc_fixed_point):
        env, pol, m = crc_fixed_point
        pairs = [(0, 0, 1)]
        blocks = all_action_blocks(env, pol, pairs, 1_000, seed=2)
        ratios = chebyshev_ecdf(env.space, m, pairs, blocks)
        assert ratios[0].note.startswith("skipped")

    def test_block_read_by_branch_position(self):
        # A block over actions (1, 0): branch 0 is action 1, so the pair
        # (3, 1, 0) reads the block's entry [0, 1], not [1, 0].
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        m = jipe2(env, pol, 1e-10).final
        blk = mc_state_block(env, pol, 3, (1, 0), 2_000, 1e-4, seed=0)
        (r,) = chebyshev_ecdf(env.space, m, [(3, 1, 0)], {3: blk})
        assert r.inferiority == blk.inferiority[0, 1]
        assert r.mc_ci == blk.z_value * blk.inferiority_se[0, 1]
        with pytest.raises(InvalidQueryError, match="no branch for action 2"):
            chebyshev_ecdf(env.space, m, [(3, 2, 0)], {3: blk})


def sink_by_sweep(env):
    """Reference for _reward_free_sink: start from the reward-free states and
    drop, until nothing changes, every state that some action and noise atom
    leads out of the set."""
    s_n = env.space.num_states
    sink = ~env.g.reshape(s_n, -1).any(axis=1)
    while True:
        keep = sink & sink[env.h.reshape(s_n, -1)].all(axis=1)
        if (keep == sink).all():
            return sink
        sink = keep


def sparse_reward_env(seed):
    """Few rewarding states, many self-loops and short hops, so that sinks of
    every size, closed cycles and states that leave them by one action or one
    noise atom are all common."""
    rng = np.random.default_rng(seed)
    s_n, a_n, u_n = (int(rng.integers(1, n)) for n in (9, 4, 4))
    stay = rng.random((s_n, a_n, u_n)) < 0.5
    hop = (np.arange(s_n)[:, None, None] + rng.integers(-1, 3, (s_n, a_n, u_n))) % s_n
    far = rng.integers(0, s_n, (s_n, a_n, u_n))
    h = np.where(stay, np.arange(s_n)[:, None, None],
                 np.where(rng.random((s_n, a_n, u_n)) < 0.8, hop, far))
    pays = rng.random(s_n) < 0.3
    g = np.where(pays[:, None, None] & (rng.random((s_n, a_n, u_n)) < 0.5), 0.5, 0.0)
    noise = NoiseModel(np.full(u_n, 1.0 / u_n))
    return ExoJmdp(StateActionSpace(s_n, a_n), noise, g, h, 0.9)


def small_env(g, h):
    g, h = np.asarray(g, dtype=float), np.asarray(h)
    noise = NoiseModel(np.full(g.shape[2], 1.0 / g.shape[2]))
    return ExoJmdp(StateActionSpace(*g.shape[:2]), noise, g, h, 0.9)


class TestRewardFreeSink:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_sweep_on_sparse_reward_envs(self, seed):
        env = sparse_reward_env(seed)
        np.testing.assert_array_equal(_reward_free_sink(env), sink_by_sweep(env))

    @pytest.mark.parametrize("env, expected", [
        (build_wgw(3, 3, (0, 2), 0.3, 0.9), [2]),  # the absorbing goal only
        (build_crc(5, 0.9), []),  # the absorbing end state pays
        (build_shared_successors(4, 0.9), [0, 1, 2, 3]),  # no state pays
        # 0 feeds the reward-free cycle 1 <-> 2; the paying state 3 feeds 0
        (small_env([[[0]], [[0]], [[0]], [[1]]], [[[1]], [[2]], [[1]], [[0]]]), [0, 1, 2]),
        # 0 loops on itself but pays under its second noise atom
        (small_env([[[0, 0.5]], [[0, 0]]], [[[0, 0]], [[1, 1]]]), [1]),
        # 0 pays nothing, but its action 1 leads to the paying state 1
        (small_env([[[0], [0]], [[1], [1]], [[0], [0]]],
                   [[[0], [1]], [[1], [1]], [[2], [2]]]), [2]),
    ], ids=["wgw", "crc", "shared", "fed_cycle", "paying_atom", "leaving_action"])
    def test_named_cases(self, env, expected):
        assert np.flatnonzero(_reward_free_sink(env)).tolist() == expected

    @pytest.mark.parametrize("last_reward, expected", [(0.0, True), (1.0, False)])
    def test_long_chain(self, last_reward, expected):
        # s -> s + 1 on 20 000 states; only the absorbing last state may pay,
        # so every state lies in the set, or none does.
        s_n = 20_000
        h = np.minimum(np.arange(s_n) + 1, s_n - 1).reshape(s_n, 1, 1)
        g = np.zeros((s_n, 1, 1))
        g[-1] = last_reward
        sink = _reward_free_sink(small_env(g, h))
        assert sink.all() if expected else not sink.any()


class TestEarlyStop:
    @pytest.mark.parametrize("coupling", ["shared-state", "independent"])
    def test_returns_match_the_full_horizon(self, coupling):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        args = (env, pol, 6, (0, 1, 2, 3, 1), 2_000, 60, 7, coupling)
        z, steps = _branch_returns(*args)
        no_sink = lambda env: np.zeros(env.space.num_states, dtype=bool)
        with mock.patch.object(jmdp.stats, "_reward_free_sink", no_sink):
            z_full, full_steps = _branch_returns(*args)
        assert steps < full_steps == 60
        np.testing.assert_array_equal(z, z_full)

    def test_block_steps(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        blk = mc_state_block(env, wgw_goal_policy(3, 3, (0, 2)), 6, range(4), 2_000, 1e-4, 0)
        assert blk.steps < blk.horizon == truncation_horizon(0.9, 1e-4)
        env = build_crc(5, 0.9)
        blk = mc_state_block(env, Policy.uniform(env.space), 0, (0, 1), 200, 1e-4, 0)
        assert blk.steps == blk.horizon

    def test_start_in_the_set_takes_no_step(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        blk = mc_state_block(env, Policy.uniform(env.space), 2, range(4), 10, 1e-4, 0)
        assert blk.steps == 0 and not blk.mu.any()
