import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmdp.core import StateActionSpace
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_hub_successors,
    build_indep_successors,
    build_ring_chain,
    build_shared_successors,
    build_wgw,
    child_seed,
    induced_jstm,
    is_coupled_dynamics,
    load_env,
    load_policy,
    marginal_mdp,
    sample_table,
    save_env,
    save_policy,
    wgw_goal_policy,
)
from jmdp.errors import ConfigError, InvalidInputError, InvalidQueryError


def anticorrelated_single_state(gamma=0.9):
    """One absorbing state, two actions with rewards u and 1-u."""
    space = StateActionSpace(1, 2)
    noise = NoiseModel(np.array([0.5, 0.5]))
    g = np.zeros((1, 2, 2))
    g[0, 0] = [0.0, 1.0]
    g[0, 1] = [1.0, 0.0]
    h = np.zeros((1, 2, 2), dtype=np.int64)
    return ExoJmdp(space, noise, g, h, gamma)


def random_env(seed, num_states=3, num_actions=2, num_noise=3, gamma=0.8):
    rng = np.random.default_rng(seed)
    space = StateActionSpace(num_states, num_actions)
    probs = rng.dirichlet(np.full(num_noise, 2.0))
    probs = np.maximum(probs, 1e-3)
    probs /= probs.sum()
    g = rng.uniform(size=(num_states, num_actions, num_noise))
    h = rng.integers(0, num_states, size=(num_states, num_actions, num_noise))
    return ExoJmdp(space, NoiseModel(probs), g, h, gamma)


def random_policy(seed, space):
    """Non-uniform Markov policy with every action probability positive."""
    rng = np.random.default_rng(seed)
    return Policy(rng.dirichlet(np.ones(space.num_actions), size=space.num_states))


class TestConstruction:
    def test_noise_must_normalize(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(np.array([0.6, 0.6]))
        with pytest.raises(InvalidInputError):
            NoiseModel(np.array([1.0, 0.0]))

    def test_rewards_must_be_in_unit_interval(self):
        space = StateActionSpace(1, 1)
        noise = NoiseModel(np.array([1.0]))
        with pytest.raises(InvalidInputError):
            ExoJmdp(space, noise, np.array([[[1.5]]]), np.zeros((1, 1, 1), int), 0.9)

    def test_successors_must_be_states(self):
        space = StateActionSpace(2, 1)
        noise = NoiseModel(np.array([1.0]))
        with pytest.raises(InvalidInputError):
            ExoJmdp(
                space, noise, np.zeros((2, 1, 1)), np.full((2, 1, 1), 5), 0.9
            )

    def test_policy_rows_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            Policy(np.array([[0.5, 0.4]]))

    def test_nan_rejected_naming_the_entry(self):
        with pytest.raises(InvalidInputError, match=r"noise_probs\[1\]"):
            NoiseModel(np.array([0.5, np.nan]))
        with pytest.raises(InvalidInputError, match=r"probs\[0\]\[1\]"):
            Policy(np.array([[1.0, np.nan]]))
        g = np.array([[[0.0], [np.nan]]])
        with pytest.raises(InvalidInputError, match=r"g\[0\]\[1\]\[0\]"):
            ExoJmdp(StateActionSpace(1, 2), NoiseModel(np.array([1.0])), g,
                    np.zeros((1, 2, 1), int), 0.9)


class TestSampleTable:
    def test_deterministic_noise_gives_unique_table(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        t1 = sample_table(env, 0, np.random.default_rng(0))
        t2 = sample_table(env, 0, np.random.default_rng(999))
        np.testing.assert_array_equal(t1.rewards, t2.rewards)
        np.testing.assert_array_equal(t1.successors, t2.successors)

    def test_crc_tables_are_anticorrelated(self):
        env = build_crc(3, 0.9)
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = sample_table(env, 0, rng)
            assert tuple(t.rewards) in ((1.0, 0.0), (0.0, 1.0))
            assert t.successors[0] == t.successors[1] == 1

    def test_empirical_frequencies_match_noise_law(self):
        env = random_env(5)
        rng = np.random.default_rng(11)
        n = 100_000
        counts = np.zeros(env.noise.support_size)
        # identify the drawn noise atom via the full outcome signature at s=0
        signatures = {}
        for u in range(env.noise.support_size):
            sig = tuple(env.g[0, :, u]) + tuple(env.h[0, :, u])
            signatures.setdefault(sig, []).append(u)
        for _ in range(n):
            t = sample_table(env, 0, rng)
            sig = tuple(t.rewards) + tuple(t.successors)
            atoms = signatures[sig]
            counts[atoms[0]] += 1
        for sig, atoms in signatures.items():
            p = env.noise.probs[atoms].sum()
            observed = counts[atoms].sum() / n
            se = np.sqrt(p * (1 - p) / n)
            assert abs(observed - p) <= 4 * se + 1e-12


class TestInducedJointLaw:
    def test_single_action_is_marginal(self):
        env = random_env(1)
        r_mean, p_s = marginal_mdp(env)
        for s in range(3):
            for a in range(2):
                dist = induced_jstm(env, s, (a,))
                mean = sum(p * atom[0][0] for atom, p in zip(dist.atoms, dist.probs))
                assert mean == pytest.approx(r_mean[s, a], abs=1e-12)
                succ = np.zeros(3)
                for atom, p in zip(dist.atoms, dist.probs):
                    succ[atom[0][1]] += p
                np.testing.assert_allclose(succ, p_s[s, a], atol=1e-12)

    def test_anticorrelated_pair_law(self):
        env = anticorrelated_single_state()
        joint = induced_jstm(env, 0, (0, 1)).as_dict()
        assert joint[((0.0, 0), (1.0, 0))] == pytest.approx(0.5)
        assert joint[((1.0, 0), (0.0, 0))] == pytest.approx(0.5)
        p_superior = sum(
            p for atom, p in joint.items() if atom[0][0] > atom[1][0]
        )
        e_product = sum(p * atom[0][0] * atom[1][0] for atom, p in joint.items())
        assert p_superior == pytest.approx(0.5)
        assert e_product == 0.0

    def test_shared_successor_concentrates_on_diagonal(self):
        env = build_shared_successors(4, 0.9)
        dist = induced_jstm(env, 2, (0, 1))
        for atom, p in zip(dist.atoms, dist.probs):
            assert atom[0][1] == atom[1][1]
            assert p == pytest.approx(0.25)
        marg = dist.marginal(0)
        assert sorted(a[0][1] for a in marg.atoms) == [0, 1, 2, 3]

    def test_mirrored_successors_concentrate_off_diagonal(self):
        # two states, two actions; one branch jumps to u, the other to 1-u:
        # uniform marginals but perfectly mirrored joint successors
        space = StateActionSpace(2, 2)
        noise = NoiseModel(np.array([0.5, 0.5]))
        g = np.zeros((2, 2, 2))
        h = np.zeros((2, 2, 2), dtype=np.int64)
        for u in (0, 1):
            h[:, 0, u] = u
            h[:, 1, u] = 1 - u
        env = ExoJmdp(space, noise, g, h, 0.9)
        dist = induced_jstm(env, 0, (0, 1))
        for atom, p in zip(dist.atoms, dist.probs):
            assert atom[0][1] == 1 - atom[1][1]
            assert p == pytest.approx(0.5)
        for coord in (0, 1):
            marg = dist.marginal(coord)
            np.testing.assert_allclose(marg.probs, 0.5)

    def test_duplicate_actions_rejected(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidQueryError):
            induced_jstm(env, 0, (1, 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_marginal_consistency(self, seed):
        env = random_env(seed)
        for s in range(env.space.num_states):
            joint = induced_jstm(env, s, (0, 1))
            for coord, action in ((0, 0), (1, 1)):
                marg = joint.marginal(coord).as_dict()
                direct = induced_jstm(env, s, (action,)).as_dict()
                assert set(marg) == set(direct)
                for key, p in direct.items():
                    assert marg[key] == pytest.approx(p, abs=1e-13)


class TestMarginalMdp:
    def test_deterministic_env_one_hot_rows(self):
        env = build_wgw(3, 3, (0, 2), 0.0, 0.9)
        _, p_s = marginal_mdp(env)
        assert np.all(np.isin(p_s, (0.0, 1.0)))
        np.testing.assert_allclose(p_s.sum(axis=2), 1.0)

    def test_crc_shared_transitions_and_half_rewards(self):
        env = build_crc(4, 0.9)
        r_mean, p_s = marginal_mdp(env)
        np.testing.assert_allclose(r_mean, 0.5)
        np.testing.assert_allclose(p_s[:, 0, :], p_s[:, 1, :])

    def test_wgw_gust_probability(self):
        p_wind = 0.3
        env = build_wgw(3, 3, (0, 2), p_wind, 0.9)
        # moving right from the center lands right w.p. 1-p and stays w.p. p
        center = 1 * 3 + 1
        right = 1 * 3 + 2
        _, p_s = marginal_mdp(env)
        assert p_s[center, 1, right] == pytest.approx(1 - p_wind)
        assert p_s[center, 1, center] == pytest.approx(p_wind)


class TestBuilders:
    def test_crc_smallest_chain(self):
        env = build_crc(2, 0.9)
        assert env.g.size == 8
        assert np.all(env.h[0] == 1) and np.all(env.h[1] == 1)

    def test_crc_paper_scale(self):
        env = build_crc(25, 0.9)
        assert env.space.num_states == 25
        assert env.space.num_actions == 2
        # absorbing last state keeps the anti-correlated rewards
        joint = induced_jstm(env, 24, (0, 1)).as_dict()
        rewards = {(atom[0][0], atom[1][0]) for atom in joint}
        assert rewards == {(0.0, 1.0), (1.0, 0.0)}

    def test_crc_requires_two_states(self):
        with pytest.raises(ConfigError):
            build_crc(1, 0.9)

    def test_wgw_fig_layout(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        assert env.space.num_states == 9
        assert env.space.num_actions == 4
        goal = 2
        # goal absorbing with zero reward
        assert np.all(env.h[goal] == goal)
        assert np.all(env.g[goal] == 0.0)
        # entering the goal pays one
        below_goal = 1 * 3 + 2
        assert env.g[below_goal, 0, 0] == 1.0  # up, no wind
        assert env.h[below_goal, 0, 0] == goal

    def test_wgw_no_wind_is_product_coupling(self):
        env = build_wgw(3, 3, (0, 2), 0.0, 0.9)
        assert not is_coupled_dynamics(env)

    def test_wgw_wind_couples_counterfactuals(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        center = 4
        joint = induced_jstm(env, center, (0, 1)).as_dict()
        # only both-shifted or both-unshifted outcomes occur
        assert len(joint) == 2
        marg_u = induced_jstm(env, center, (0,)).as_dict()
        marg_r = induced_jstm(env, center, (1,)).as_dict()
        for key, p in joint.items():
            prod = marg_u[(key[0],)] * marg_r[(key[1],)]
            assert abs(p - prod) > 0.05
        assert is_coupled_dynamics(env)

    def test_wgw_goal_validation(self):
        with pytest.raises(ConfigError):
            build_wgw(3, 3, (5, 0), 0.3, 0.9)
        with pytest.raises(ConfigError):
            build_wgw(3, 3, (0, 2), 1.5, 0.9)

    def test_goal_policy_moves_toward_goal(self):
        pol = wgw_goal_policy(3, 3, (0, 2))
        assert pol.probs[0, 1] == 1.0  # top-left moves right
        assert pol.probs[5, 0] == 1.0  # rightmost column moves up
        np.testing.assert_allclose(pol.probs[2], 0.25)  # goal row uniform

    def test_crc_is_coupled(self):
        assert is_coupled_dynamics(build_crc(3, 0.9))

    def test_indep_successors_is_product(self):
        assert not is_coupled_dynamics(build_indep_successors(3, 0.9))

    def test_shared_and_hub_are_coupled(self):
        assert is_coupled_dynamics(build_shared_successors(3, 0.9))
        assert is_coupled_dynamics(build_hub_successors(4, 0.9))
        assert is_coupled_dynamics(build_ring_chain(4, 0.9))


class TestFileFormats:
    def test_round_trip_identity(self, tmp_path):
        env = build_crc(5, 0.85)
        path = tmp_path / "env.json"
        save_env(env, path)
        loaded = load_env(path)
        np.testing.assert_array_equal(loaded.g, env.g)
        np.testing.assert_array_equal(loaded.h, env.h)
        np.testing.assert_array_equal(loaded.noise.probs, env.noise.probs)
        assert loaded.gamma == env.gamma
        assert loaded.space == env.space

    def test_reward_out_of_range_names_field(self, tmp_path):
        env = build_crc(3, 0.9)
        path = tmp_path / "env.json"
        save_env(env, path)
        doc = json.loads(path.read_text())
        doc["g"][2][1][0] = 1.5
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"g\[2\]\[1\]\[0\]"):
            load_env(path)

    def test_bad_noise_probs_reported(self, tmp_path):
        env = build_crc(3, 0.9)
        path = tmp_path / "env.json"
        save_env(env, path)
        doc = json.loads(path.read_text())
        doc["noise_probs"] = [0.6, 0.6]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="noise_probs"):
            load_env(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ConfigError, match="num_states"):
            load_env(path)

    def test_policy_round_trip(self, tmp_path):
        pol = wgw_goal_policy(3, 3, (0, 2))
        path = tmp_path / "policy.json"
        save_policy(pol, path)
        loaded = load_policy(path)
        np.testing.assert_array_equal(loaded.probs, pol.probs)

    def test_policy_row_sum_validated(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"format_version": 1, "probs": [[0.7, 0.7]]}))
        with pytest.raises(ConfigError, match=r"probs\[0\]"):
            load_policy(path)


class TestSeedSplit:
    def test_child_seeds_are_deterministic_and_distinct(self):
        seeds = [child_seed(123, i) for i in range(100)]
        assert seeds == [child_seed(123, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)
