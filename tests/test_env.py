import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jmdp.env
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
    sample_outcomes,
    sample_step,
    save_env,
    save_policy,
    wgw_goal_policy,
)
from jmdp.errors import BudgetError, ConfigError, InvalidInputError, InvalidQueryError


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
        # Out of range; fractional, which a cast to int64 would truncate.
        for h, match in ((np.full((2, 1, 1), 5), r"h\[0\]\[0\]\[0\]: successor outside"),
                         (np.array([[[0.5]], [[1.7]]]),
                          r"h\[0\]\[0\]\[0\]: successor not a whole number, got 0.5")):
            with pytest.raises(InvalidInputError, match=match):
                ExoJmdp(space, noise, np.zeros((2, 1, 1)), h, 0.9)
        # Whole-valued floats, as an env file's JSON numbers may be, load.
        env = ExoJmdp(space, noise, np.zeros((2, 1, 1)), np.array([[[1.0]], [[0.0]]]), 0.9)
        assert env.h.dtype == np.int64 and env.h.ravel().tolist() == [1, 0]

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


def law(env, s, actions):
    """induced_jstm as a dict {((reward, successor), ...): probability}."""
    rewards, successors, probs = induced_jstm(env, s, actions)
    return {
        tuple(zip(r.tolist(), t.tolist())): float(p)
        for r, t, p in zip(rewards, successors, probs)
    }


def marginal(joint, coord):
    out = {}
    for atom, p in joint.items():
        out[(atom[coord],)] = out.get((atom[coord],), 0.0) + p
    return out


def sample_table(env, s, r):
    """Every action's outcome at s from one shared uniform r."""
    x = s * env.space.num_actions + np.arange(env.space.num_actions)
    return sample_outcomes(env, x, np.full(x.size, r))


class TestSampleTable:
    """One shared uniform per state fixes the outcome table of every action."""

    def test_deterministic_noise_gives_unique_table(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        r1, s1 = sample_table(env, 0, np.random.default_rng(0).random())
        r2, s2 = sample_table(env, 0, np.random.default_rng(999).random())
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(s1, s2)

    def test_crc_tables_are_anticorrelated(self):
        env = build_crc(3, 0.9)
        rng = np.random.default_rng(7)
        for _ in range(50):
            rewards, successors = sample_table(env, 0, rng.random())
            assert tuple(rewards) in ((1.0, 0.0), (0.0, 1.0))
            assert successors[0] == successors[1] == 1

    def test_empirical_frequencies_match_noise_law(self):
        env = random_env(5)
        n_a = env.space.num_actions
        n = 100_000
        # identify the drawn noise atom via the full outcome signature at s=0
        signatures = {}
        for u in range(env.noise.support_size):
            sig = tuple(env.g[0, :, u]) + tuple(env.h[0, :, u])
            signatures.setdefault(sig, []).append(u)
        # n steps at state 0, every action of one step on one shared uniform
        r = np.repeat(np.random.default_rng(11).random(n), n_a)
        rewards, successors = sample_outcomes(env, np.tile(np.arange(n_a), n), r)
        counts = np.zeros(env.noise.support_size)
        for row in np.hstack([rewards.reshape(n, n_a), successors.reshape(n, n_a)]):
            counts[signatures[tuple(row.tolist())][0]] += 1
        for sig, atoms in signatures.items():
            p = env.noise.probs[atoms].sum()
            observed = counts[atoms].sum() / n
            se = np.sqrt(p * (1 - p) / n)
            assert abs(observed - p) <= 4 * se + 1e-12


def atom_env(probs):
    """One action per state and successor u at atom u, so the successor drawn
    names the atom."""
    u_n = len(probs)
    h = np.broadcast_to(np.arange(u_n), (u_n, 1, u_n)).copy()
    return ExoJmdp(StateActionSpace(u_n, 1), NoiseModel(probs), np.zeros((u_n, 1, u_n)), h,
                   0.9)


# Laws whose tiny atoms round away, so two CDF entries are equal: four atoms
# and six.
TIED_LAWS = ([0.5, 1e-18, 1e-18, 0.5], [0.3, 1e-20, 0.3, 1e-20, 0.4, 1e-20])


class TestNoiseDrawByComparison:
    """The atom is the count of CDF columns <= r, which is the one
    np.searchsorted(cdf, r, side="right") finds, tied CDF entries included."""

    def test_tied_laws_have_equal_cdf_entries(self):
        for weights in TIED_LAWS:
            w = np.array(weights)
            assert (np.diff(atom_env(w / w.sum()).noise.cdf) == 0.0).any()

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.one_of(st.floats(1e-3, 1.0), st.floats(1e-300, 1e-17)),
                            min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(weights=TIED_LAWS[0], seed=0)
    @example(weights=TIED_LAWS[1], seed=1)
    def test_atom_is_the_searchsorted_count(self, weights, seed):
        w = np.array(weights)
        env = atom_env(w / w.sum())
        cdf = env.noise.cdf
        rng = np.random.default_rng(seed)
        r = np.r_[cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), 0.0, 1.0 - 2.0**-53,
                  rng.random(64)]
        r = r[r < 1.0]
        _, atoms = sample_outcomes(env, rng.integers(0, w.size, r.size), r)
        np.testing.assert_array_equal(atoms, np.searchsorted(cdf, r, side="right"))


def policy_with_zeros(seed, space):
    """Random policy whose rows have zero-probability actions, zero tails
    included; every row keeps at least one positive action."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(space.num_actions), size=space.num_states)
    probs[rng.random(probs.shape) < 0.5] = 0.0
    keep = rng.integers(0, space.num_actions, space.num_states)
    probs[np.arange(space.num_states), keep] += 0.1
    return Policy(probs / probs.sum(axis=1, keepdims=True))


def ref_next_coordinate(env, policy, x, r, r_a):
    """Scalar reference for one entry: the successor from sample_outcomes,
    then the first action whose running policy sum exceeds r_a, or else the
    row's last positive action."""
    _, succ = sample_outcomes(env, np.array([x]), np.array([r]))
    s1 = int(succ[0])
    row = policy.probs[s1].tolist()
    cum, act = 0.0, max(a for a, p in enumerate(row) if p > 0.0)
    for a, p in enumerate(row):
        cum += p
        if r_a < cum:
            act = min(act, a)
            break
    return s1 * env.space.num_actions + act


class TestSampleStep:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 5),
           num_actions=st.integers(1, 6), num_noise=st.integers(1, 4))
    def test_matches_scalar_reference(self, seed, num_states, num_actions, num_noise):
        env = random_env(seed, num_states, num_actions, num_noise)
        policy = policy_with_zeros(seed, env.space)
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.integers(0, env.space.num_x, n)
        r = rng.random(n)
        r_a = np.r_[rng.random(n - 2), 0.0, np.nextafter(1.0, 0.0)]
        rewards, successors, x1 = sample_step(env, policy, x, r, r_a)
        ref_r, ref_s = sample_outcomes(env, x, r)
        np.testing.assert_array_equal(rewards, ref_r)
        np.testing.assert_array_equal(successors, ref_s)
        assert x1.tolist() == [ref_next_coordinate(env, policy, *e)
                               for e in zip(x.tolist(), r.tolist(), r_a.tolist())]
        n_a = env.space.num_actions
        assert (x1 // n_a == successors).all()
        assert (policy.probs[successors, x1 % n_a] > 0.0).all()

    def test_one_coordinate_one_draw(self):
        # Entries 2i and 2i+1 sit at one state-action and get the same (r, r_a).
        env = random_env(3, num_states=4, num_actions=3, num_noise=4)
        policy = random_policy(4, env.space)
        rng = np.random.default_rng(5)
        r, r_a = np.repeat(rng.random(500), 2), np.repeat(rng.random(500), 2)
        rewards, successors, x1 = sample_step(env, policy, np.full(1000, 7), r, r_a)
        for out in (rewards, successors, x1):
            np.testing.assert_array_equal(out[::2], out[1::2])
        assert len(set(x1.tolist())) > 1  # the draws themselves vary

    def test_zero_probability_tail_never_drawn(self):
        # The tenth running sum of 0.1 is 1 - 2**-53, the largest U(0,1) draw.
        space = StateActionSpace(1, 11)
        env = ExoJmdp(space, NoiseModel(np.ones(1)), np.zeros((1, 11, 1)),
                      np.zeros((1, 11, 1), dtype=np.int64), 0.9)
        policy = Policy(np.array([[0.1] * 10 + [0.0]]))
        assert np.cumsum(policy.probs[0])[9] == np.nextafter(1.0, 0.0)
        _, _, x1 = sample_step(env, policy, np.array([0]), np.array([0.5]),
                               np.array([np.nextafter(1.0, 0.0)]))
        assert x1.tolist() == [9]

    def test_cdf_tables_are_read_only_and_pinned(self):
        env = random_env(1)
        policy = random_policy(2, env.space)
        for table in (env.noise.cdf, policy.cdf):
            assert not table.flags.writeable and (table[..., -1] == 1.0).all()
        cumsum = np.cumsum(policy.probs, axis=1)
        np.testing.assert_array_equal(policy.cdf[:, :-1], cumsum[:, :-1])


class TestInducedJointLaw:
    def test_single_action_is_marginal(self):
        env = random_env(1)
        r_mean, p_s = marginal_mdp(env)
        for s in range(3):
            for a in range(2):
                rewards, successors, probs = induced_jstm(env, s, (a,))
                assert probs @ rewards[:, 0] == pytest.approx(r_mean[s, a], abs=1e-12)
                succ = np.bincount(successors[:, 0], weights=probs, minlength=3)
                np.testing.assert_allclose(succ, p_s[s, a], atol=1e-12)

    def test_anticorrelated_pair_law(self):
        env = anticorrelated_single_state()
        joint = law(env, 0, (0, 1))
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
        _, successors, probs = induced_jstm(env, 2, (0, 1))
        np.testing.assert_array_equal(successors[:, 0], successors[:, 1])
        np.testing.assert_allclose(probs, 0.25)
        assert sorted(successors[:, 0]) == [0, 1, 2, 3]

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
        joint = law(env, 0, (0, 1))
        for atom, p in joint.items():
            assert atom[0][1] == 1 - atom[1][1]
            assert p == pytest.approx(0.5)
        for coord in (0, 1):
            np.testing.assert_allclose(list(marginal(joint, coord).values()), 0.5)

    def test_first_occurrence_order(self):
        space = StateActionSpace(1, 2)
        noise = NoiseModel(np.array([0.1, 0.2, 0.3, 0.4]))
        g = np.array([[[1.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.0, 0.0]]])
        env = ExoJmdp(space, noise, g, np.zeros((1, 2, 4), int), 0.9)
        rewards, successors, probs = induced_jstm(env, 0, (0, 1))
        np.testing.assert_array_equal(rewards, [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_array_equal(successors, np.zeros((3, 2)))
        np.testing.assert_allclose(probs, [0.4, 0.2, 0.4])

    def test_duplicate_actions_rejected(self):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidQueryError):
            induced_jstm(env, 0, (1, 1))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_marginal_consistency(self, seed):
        env = random_env(seed)
        for s in range(env.space.num_states):
            joint = law(env, s, (0, 1))
            for coord, action in ((0, 0), (1, 1)):
                marg = marginal(joint, coord)
                direct = law(env, s, (action,))
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


def _per_cell_wgw(width, height, goal_cell, support, steady_wind):
    """build_wgw's (g, h), one cell, action and gust at a time."""
    winds = [1] if steady_wind else [0, 1][:support]
    goal = goal_cell[0] * width + goal_cell[1]
    g = np.zeros((width * height, 4, len(winds)))
    h = np.zeros((width * height, 4, len(winds)), dtype=np.int64)
    for s in range(width * height):
        r, c = divmod(s, width)
        for a, (dr, dc) in enumerate(((-1, 0), (0, 1), (1, 0), (0, -1))):
            for ui, wind in enumerate(winds):
                if s == goal:
                    h[s, a, ui] = goal
                    continue
                nr = min(max(r + dr, 0), height - 1)
                nc = min(max(c + dc, 0), width - 1)
                if wind:
                    nc = max(nc - 1, 0)
                h[s, a, ui] = nr * width + nc
                g[s, a, ui] = 1.0 if h[s, a, ui] == goal else 0.0
    return g, h


def _per_cell_goal_policy(width, height, goal_cell):
    """wgw_goal_policy's table, one cell at a time."""
    probs = np.zeros((width * height, 4))
    for s in range(width * height):
        r, c = divmod(s, width)
        if (r, c) == tuple(goal_cell):
            probs[s, :] = 0.25
        elif c < goal_cell[1]:
            probs[s, 1] = 1.0  # right
        elif c > goal_cell[1]:
            probs[s, 3] = 1.0  # left
        elif r > goal_cell[0]:
            probs[s, 0] = 1.0  # up
        else:
            probs[s, 2] = 1.0  # down
    return probs


# Each builder, called with the size that scales its arrays.
SIZED_BUILDERS = {
    "crc": lambda n: build_crc(n, 0.9),
    "ring": lambda n: build_ring_chain(n, 0.9),
    "wgw": lambda n: build_wgw(n, 2, (0, 0), 0.3, 0.9),
    "indep": lambda n: build_indep_successors(n, 0.9),
    "shared": lambda n: build_shared_successors(n, 0.9),
    "hub": lambda n: build_hub_successors(n, 0.9),
}


def env_need(build, size, monkeypatch) -> int:
    """The count build(size) checks, read from its refusal at a zero budget:
    nothing is built."""
    with monkeypatch.context() as patch:
        patch.setattr("jmdp.core.BUDGET_BYTES", 0)
        with pytest.raises(BudgetError) as refusal:
            build(size)
    return int(re.search(r"needs (\d+) bytes", str(refusal.value)).group(1))


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
        rewards, _, _ = induced_jstm(env, 24, (0, 1))
        assert sorted(map(tuple, rewards.tolist())) == [(0.0, 1.0), (1.0, 0.0)]

    def test_crc_requires_two_states(self):
        with pytest.raises(InvalidInputError, match="^num_states: must be an integer >= 2"):
            build_crc(1, 0.9)

    @pytest.mark.parametrize("build", [build_crc, build_ring_chain, build_indep_successors,
                                       build_shared_successors, build_hub_successors])
    @pytest.mark.parametrize("value", ["3", True, 2.5])
    def test_num_states_must_be_an_integer(self, build, value):
        with pytest.raises(InvalidInputError,
                           match=r"^num_states: must be an integer >= \d, got "
                                 + re.escape(repr(value))):
            build(value, 0.9)

    @pytest.mark.parametrize("name", list(SIZED_BUILDERS))
    def test_huge_size_refused_by_the_count(self, name):
        with pytest.raises(BudgetError, match=r"^env of \d{401} states needs \d+ bytes; "):
            SIZED_BUILDERS[name](10**400)

    @pytest.mark.parametrize("name, size", [("crc", 20_000), ("ring", 20_000), ("wgw", 4_000),
                                            ("indep", 40), ("shared", 500), ("hub", 20_000)])
    def test_count_bounds_measured_peak_and_one_more_state_refuses(self, name, size, monkeypatch):
        build = SIZED_BUILDERS[name]
        need = env_need(build, size, monkeypatch)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        tracemalloc.start()
        try:
            build(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need
        with pytest.raises(BudgetError, match=f"budget is {need}$"):
            build(size + 1)

    @pytest.mark.parametrize("name", list(SIZED_BUILDERS))
    def test_first_size_over_the_budget_refused(self, name, monkeypatch):
        """The smallest size whose count exceeds core.BUDGET_BYTES, found from
        refusals alone (no size that fits is built), is refused."""
        build, budget = SIZED_BUILDERS[name], jmdp.core.BUDGET_BYTES
        lo, hi = 3, 4  # every builder takes 3
        while env_need(build, hi, monkeypatch) <= budget:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if env_need(build, mid, monkeypatch) <= budget else (lo, mid)
        with pytest.raises(BudgetError, match=f"^env of \\d+ states needs "
                                              f"{env_need(build, hi, monkeypatch)} bytes"):
            build(hi)

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 3), (3, 1), (3, 3), (4, 5), (7, 2)])
    def test_gridworld_matches_per_cell_reference(self, width, height):
        for goal in itertools.product(range(height), range(width)):
            want = _per_cell_goal_policy(width, height, goal)
            np.testing.assert_array_equal(wgw_goal_policy(width, height, goal).probs, want)
            for p_wind in (0.0, 0.3, 1.0):
                env = build_wgw(width, height, goal, p_wind, 0.9)
                g, h = _per_cell_wgw(width, height, goal, env.noise.support_size, p_wind == 1.0)
                np.testing.assert_array_equal(env.g, g)
                np.testing.assert_array_equal(env.h, h)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_diagnostic_envs_match_per_cell_reference(self, m):
        cases = [(build_indep_successors(m, 0.9), m * m, lambda u: divmod(u, m), lambda u: (0, 0)),
                 (build_shared_successors(m, 0.9), m, lambda u: (u, u), lambda u: (0, 0))]
        if m >= 3:
            cases.append((build_hub_successors(m, 0.9), 2, lambda u: ((m - 1, m - 2)[u],) * 2,
                          lambda u: (float(u), 1.0 - float(u))))
        for env, support, succ, reward in cases:
            assert env.g.shape == env.h.shape == (m, 2, support)
            for s, a, u in itertools.product(range(m), range(2), range(support)):
                assert env.h[s, a, u] == succ(u)[a] and env.g[s, a, u] == reward(u)[a]

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
        joint = law(env, center, (0, 1))
        # only both-shifted or both-unshifted outcomes occur
        assert len(joint) == 2
        marg_u = law(env, center, (0,))
        marg_r = law(env, center, (1,))
        for key, p in joint.items():
            prod = marg_u[(key[0],)] * marg_r[(key[1],)]
            assert abs(p - prod) > 0.05
        assert is_coupled_dynamics(env)

    def test_wgw_goal_validation(self):
        with pytest.raises(ConfigError):
            build_wgw(3, 3, (5, 0), 0.3, 0.9)
        with pytest.raises(InvalidInputError,
                           match=re.escape("p_wind: must be a number in [0, 1]")):
            build_wgw(3, 3, (0, 2), 1.5, 0.9)

    def test_goal_policy_moves_toward_goal(self):
        pol = wgw_goal_policy(3, 3, (0, 2))
        assert pol.probs[0, 1] == 1.0  # top-left moves right
        assert pol.probs[5, 0] == 1.0  # rightmost column moves up
        np.testing.assert_allclose(pol.probs[2], 0.25)  # goal row uniform

    def test_goal_policy_moves_left_then_down(self):
        goal = 2 * 3 + 0  # bottom-left corner of a 3x3 grid
        pol = wgw_goal_policy(3, 3, (2, 0))
        for s in range(9):
            r, c = divmod(s, 3)
            if s == goal:
                np.testing.assert_allclose(pol.probs[s], 0.25)
            else:  # left (3) off the first column, then down (2) it
                assert pol.probs[s].tolist() == np.eye(4)[3 if c > 0 else 2].tolist()

    def test_wgw_steady_wind_is_the_gust_atom(self):
        """p_wind = 1 keeps one noise atom, the gust atom of a p_wind = 0.5 build."""
        steady, gusty = build_wgw(3, 3, (0, 2), 1.0, 0.9), build_wgw(3, 3, (0, 2), 0.5, 0.9)
        assert steady.noise.probs.tolist() == [1.0]
        np.testing.assert_array_equal(steady.g[:, :, 0], gusty.g[:, :, 1])
        np.testing.assert_array_equal(steady.h[:, :, 0], gusty.h[:, :, 1])

    def test_crc_is_coupled(self):
        assert is_coupled_dynamics(build_crc(3, 0.9))

    def test_indep_successors_is_product(self):
        assert not is_coupled_dynamics(build_indep_successors(3, 0.9))

    def test_shared_and_hub_are_coupled(self):
        assert is_coupled_dynamics(build_shared_successors(3, 0.9))
        assert is_coupled_dynamics(build_hub_successors(4, 0.9))
        assert is_coupled_dynamics(build_ring_chain(4, 0.9))


def largest_deviation(env):
    """Reference for is_coupled_dynamics: at every state and action pair, each
    pair of noise atoms (u, v) names the outcome pair (o_a(u), o_b(v)); return
    the largest |joint mass - product of the marginal masses| over them."""
    p, n_u, dev = env.noise.probs, env.noise.support_size, 0.0
    for s in range(env.space.num_states):
        for a, b in itertools.combinations(range(env.space.num_actions), 2):
            oa = [(env.g[s, a, w], env.h[s, a, w]) for w in range(n_u)]
            ob = [(env.g[s, b, w], env.h[s, b, w]) for w in range(n_u)]
            for u, v in itertools.product(range(n_u), repeat=2):
                joint = sum(p[w] for w in range(n_u) if oa[w] == oa[u] and ob[w] == ob[v])
                ma = sum(p[w] for w in range(n_u) if oa[w] == oa[u])
                mb = sum(p[w] for w in range(n_u) if ob[w] == ob[v])
                dev = max(dev, abs(joint - ma * mb))
    return dev


def few_valued_env(seed):
    """Noise u = (u0, u1) with independent components, some atoms dropped;
    each (state, action) reads u0, u1 or all of u through few reward and
    successor values, so that outcome ties, exact product laws and outcome
    pairs that never occur are all common."""
    rng = np.random.default_rng(seed)
    s_n, a_n = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    w0 = rng.choice([1, 2, 3, 30], size=int(rng.integers(1, 4)))
    w1 = rng.choice([1, 2, 3, 30], size=3)
    probs = np.outer(w0, w1).ravel()
    u0, u1 = np.divmod(np.arange(probs.size), w1.size)
    keep = rng.random(probs.size) >= 0.2
    keep[rng.integers(probs.size)] = True
    reads = np.stack([u0, u1, np.arange(probs.size)])
    reads = reads[rng.choice(3, p=[0.45, 0.45, 0.1], size=(s_n, a_n))][..., keep]
    g = rng.choice([0.0, 0.5, 1.0], size=(s_n, a_n, probs.size))
    h = rng.integers(0, s_n, size=(s_n, a_n, probs.size))
    g, h = np.take_along_axis(g, reads, 2), np.take_along_axis(h, reads, 2)
    noise = NoiseModel(probs[keep] / probs[keep].sum())
    return ExoJmdp(StateActionSpace(s_n, a_n), noise, g, h, 0.9)


class TestCoupledDynamics:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_enumeration_on_few_valued_envs(self, seed):
        env = few_valued_env(seed)
        dev = largest_deviation(env)
        assert is_coupled_dynamics(env) == (dev > 1e-12)
        # With the tolerance at the largest deviation, and just below it, the
        # answer flips: the array check finds that same largest deviation,
        # also when it is the product mass of a pair that never occurs.
        with mock.patch.object(jmdp.env, "_PROB_TOL", dev):
            assert not is_coupled_dynamics(env)
        with mock.patch.object(jmdp.env, "_PROB_TOL", np.nextafter(dev, -1.0)):
            assert is_coupled_dynamics(env)

    @settings(max_examples=5, deadline=None)
    @given(num_states=st.integers(2, 6))
    def test_matches_enumeration_on_independent_successors(self, num_states):
        env = build_indep_successors(num_states, 0.9)
        assert largest_deviation(env) <= 1e-12
        assert not is_coupled_dynamics(env)

    @pytest.mark.parametrize("e_q, e_s, coupled", [
        (1.5e-12, 0.3e-12, True), (0.5e-12, 0.3e-12, False)])
    def test_tolerance_covers_pairs_that_never_occur(self, e_q, e_s, coupled):
        # Outcomes X, Y, Z of action 0 and P, Q, R, S of action 1. The joint
        # law is the product law moved so that (Y, Q) and (Y, S) never occur:
        # their product masses e_q > e_s go to the other cells of their row
        # and column, and come back from the four corners. Every pair that
        # occurs is off by at most (e_q + e_s)/2 <= 1e-12, so only (Y, Q), the
        # heavier pair that never occurs, can exceed 1e-12.
        y, half = 1e-6, (e_q + e_s) / 2
        ma = np.array([0.5, y, 0.5 - y])
        mb = np.array([(1 - (e_q + e_s) / y) / 2, e_q / y, (1 - (e_q + e_s) / y) / 2, e_s / y])
        move = np.array([[-half / 2, e_q / 2, -half / 2, e_s / 2],
                         [half, -e_q, half, -e_s],
                         [-half / 2, e_q / 2, -half / 2, e_s / 2]])
        joint = np.outer(ma, mb) + move
        cells = [c for c in np.ndindex(3, 4) if c not in ((1, 1), (1, 3))]
        g = np.array([[[i / 2 for i, _ in cells], [j / 4 for _, j in cells]]])
        env = ExoJmdp(StateActionSpace(1, 2), NoiseModel(np.array([joint[c] for c in cells])),
                      g, np.zeros((1, 2, len(cells)), int), 0.9)
        assert is_coupled_dynamics(env) == (largest_deviation(env) > 1e-12) == coupled


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
