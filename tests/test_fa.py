import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from jmdp import dp, fa
from jmdp import env as jenv
from jmdp.core import MomentCollection2, MomentCollectionN, StateActionSpace
from jmdp.dp import apply_tn, jipe
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
    marginal_kernel,
    marginal_mdp,
    wgw_goal_policy,
)
from jmdp.errors import (
    AssumptionError,
    BudgetError,
    DivergenceError,
    FeatureRankError,
    InvalidInputError,
    InvalidQueryError,
)
from jmdp.fa import (
    FeatureMap,
    LinearMoments,
    beta_norm,
    beta_weight,
    _PairKernel,
    check_coupling_budget,
    check_projected_budget,
    check_stationary_budget,
    coupling_coefficient,
    identity_features,
    nu2_norm,
    nu_norm,
    project_mu,
    project_sigma_psd,
    projected_jipe2,
    state_poly_features,
    state_ramp_features,
    stationary_distribution,
)

from test_env import random_env, random_policy


def deterministic_ring(num_states=6, gamma=0.9):
    """Two actions, both stepping +1 around a ring; rewards anti-correlated.
    All one-step couplings are products of point masses."""
    space = StateActionSpace(num_states, 2)
    noise = NoiseModel(np.array([0.5, 0.5]))
    g = np.zeros((num_states, 2, 2))
    h = np.zeros((num_states, 2, 2), dtype=np.int64)
    for s in range(num_states):
        for u in (0, 1):
            g[s, 0, u] = u
            g[s, 1, u] = 1 - u
            h[s, :, u] = (s + 1) % num_states
    return ExoJmdp(space, noise, g, h, gamma)


def over_budget(*args, **kwargs):
    raise BudgetError("over budget")


def never(*args, **kwargs):
    raise AssertionError("called")


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_psd_fit(phi, nu, target, iters=100_000):
    """Independent first-order oracle: accelerated projected gradient on the
    weighted Frobenius objective over the PSD cone."""
    d_half = np.sqrt(nu)
    b = phi * d_half[:, None]
    s_w = d_half[:, None] * (0.5 * (target + target.T)) * d_half[None, :]
    btb = b.T @ b
    lip = 2.0 * np.linalg.norm(btb, 2) ** 2
    d = phi.shape[1]
    theta = np.zeros((d, d))
    y = theta.copy()
    t_acc = 1.0
    last = np.inf
    stall = 0
    for k in range(iters):
        grad = 2.0 * (btb @ y @ btb) - 2.0 * (b.T @ s_w @ b)
        z = y - grad / lip
        z = 0.5 * (z + z.T)
        w, v = np.linalg.eigh(z)
        theta_new = (v * np.maximum(w, 0.0)) @ v.T
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        y = theta_new + ((t_acc - 1.0) / t_new) * (theta_new - theta)
        theta, t_acc = theta_new, t_new
        if k % 200 == 0:
            obj = np.linalg.norm(b @ theta @ b.T - s_w) ** 2
            if abs(last - obj) <= 1e-15 * max(obj, 1.0):
                stall += 1
                if stall >= 5:
                    break
            else:
                stall = 0
            last = obj
    return theta


def weighted_objective(phi, nu, theta, target):
    diff = phi @ theta @ phi.T - 0.5 * (target + target.T)
    return float(np.einsum("i,j,ij->", nu, nu, diff**2))


class TestTypes:
    def test_rank_deficient_features_rejected(self):
        with pytest.raises(FeatureRankError):
            FeatureMap(np.ones((4, 2)))

    def test_nan_features_rejected_naming_the_entry(self):
        with pytest.raises(InvalidInputError, match=r"phi\[1\]\[0\]"):
            FeatureMap(np.array([[1.0], [np.nan]]))

    def test_non_psd_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            LinearMoments(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("theta_mu, theta_sigma", [
        (np.zeros(1), [[np.nan]]),
        (np.zeros(1), [[np.inf]]),
        ([np.nan], [[1.0]]),
        ([np.inf], [[1.0]]),
        (np.zeros(2), [[0.0, 1e308], [-1e308, 0.0]]),
    ], ids=["nan_sigma", "inf_sigma", "nan_mu", "inf_mu", "overflowing_asymmetry"])
    def test_non_finite_parameters_rejected(self, theta_mu, theta_sigma):
        with pytest.raises(InvalidInputError, match="finite"):
            LinearMoments(theta_mu, theta_sigma)

    def test_state_poly_powers_are_products(self):
        # Column p is 1 * t * ... * t, never numpy's CPU-dispatched t**p.
        phi = state_poly_features(50, 1, 5).phi
        t, col = np.arange(50) / 49, np.ones(50)
        for p in range(6):
            np.testing.assert_array_equal(phi[:, p], col)
            col = col * t

    def test_densify_produces_symmetric_tables(self):
        feats = state_poly_features(4, 2, 1)
        lm = LinearMoments(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        mu, sig = lm.tables(feats)
        np.testing.assert_array_equal(mu, feats.phi @ lm.theta_mu)
        np.testing.assert_array_equal(sig, sig.T)


def dense_stationary(env, pol) -> tuple:
    """(nu, source, note) from the dense kernel marginal_kernel: its boolean
    graph, and power iteration with dense products."""
    kernel = marginal_kernel(env, pol)
    n = kernel.shape[0]
    adj = kernel > 0.0
    uniform = np.full(n, 1.0 / n)
    fails = "; the positive-stationary-weight assumption fails"
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        return uniform, "uniform-fallback", (
            f"chain is not irreducible ({n_comp} strongly connected components)" + fails)
    if (period := csgraph_period(adj)) != 1:
        return uniform, "uniform-fallback", f"chain is periodic (period {period})" + fails
    nu = uniform
    for _ in range(200_000):
        new = nu @ kernel
        new /= new.sum()
        done = np.abs(new - nu).sum() <= 1e-12
        nu = new
        if done:
            break
    assert np.max(np.abs(nu @ kernel - nu)) <= 1e-10
    return nu, "stationary", ""


def csgraph_period(adj) -> int:
    """Period of a strongly connected digraph by scipy's csgraph: the gcd, over
    its edges u -> v, of dist[u] + 1 - dist[v], with unweighted distances
    from node 0."""
    level = shortest_path(adj, unweighted=True, indices=0).astype(np.int32)
    u, v = np.nonzero(adj)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) or 1


def csgraph_stationary(env, pol) -> tuple:
    """(nu, source, note) by scipy: the sparse kernel as a csr_matrix with its
    zeros eliminated, csgraph's strong components and period, and power
    iteration by `nu @ kernel`, the CSC product of the transpose."""
    n = env.space.num_x
    kernel = csr_matrix(jenv._marginal_csr(env, pol.probs), shape=(n, n))
    kernel.eliminate_zeros()
    uniform = np.full(n, 1.0 / n)
    fails = "; the positive-stationary-weight assumption fails"
    n_comp, _ = connected_components(kernel, directed=True, connection="strong")
    if n_comp != 1:
        return uniform, "uniform-fallback", (
            f"chain is not irreducible ({n_comp} strongly connected components)" + fails)
    if (period := csgraph_period(kernel)) != 1:
        return uniform, "uniform-fallback", f"chain is periodic (period {period})" + fails
    nu = uniform
    for _ in range(200_000):
        nu, last = nu @ kernel, nu
        nu /= nu.sum()
        if float(np.abs(nu - last).sum()) <= 1e-12:
            break
    assert float(np.max(np.abs(nu @ kernel - nu))) <= 1e-10
    return nu, "stationary", ""


def csr_arrays(adj) -> tuple:
    """(indices, indptr) of a dense boolean adjacency matrix."""
    rows, cols = np.nonzero(adj)
    return cols, np.r_[0, np.cumsum(np.bincount(rows, minlength=adj.shape[0]))]


def _sparse_policy(seed, space):
    """A random policy with a zero action probability at every other state
    (when there are two actions or more)."""
    probs = np.random.default_rng(seed).dirichlet(np.ones(space.num_actions),
                                                 size=space.num_states)
    if space.num_actions > 1:
        probs[::2, 0] = 0.0
    return Policy(probs / probs.sum(axis=1, keepdims=True))


def _single_state():
    env = ExoJmdp(StateActionSpace(1, 2), NoiseModel(np.array([1.0])),
                  np.zeros((1, 2, 1)), np.zeros((1, 2, 1), dtype=np.int64), 0.9)
    return env, Policy(np.array([[0.3, 0.7]]))


def _random_case(seed, policy=random_policy):
    """A random env of 2-12 states, 1-4 actions and 1-30 noise atoms."""
    rng = np.random.default_rng(seed)
    s_n, a_n, n_u = (int(rng.integers(lo, hi)) for lo, hi in ((2, 13), (1, 5), (1, 31)))
    return random_env(seed, s_n, a_n, n_u, 0.9), policy(seed, StateActionSpace(s_n, a_n))


def _uniform(env):
    return env, Policy.uniform(env.space)


# The cases of TestStationaryDistribution, of its measured peaks, and random
# envs with random policies, some with zero action probabilities.
STATIONARY_CASES = [
    _single_state,
    lambda: _uniform(build_indep_successors(2, 0.9)),
    lambda: _uniform(build_indep_successors(6, 0.9)),
    lambda: _uniform(build_shared_successors(16, 0.9)),
    lambda: _uniform(build_wgw(3, 3, (0, 2), 0.3, 0.9)),
    lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9), wgw_goal_policy(3, 3, (0, 2))),
    lambda: _uniform(deterministic_ring()),
    lambda: _uniform(build_ring_chain(7, 0.9)),
    lambda: _uniform(build_hub_successors(16, 0.9)),
    lambda: _uniform(build_crc(5, 0.9)),
    lambda: _uniform(build_ring_chain(300, 0.9)),
    lambda: (build_wgw(6, 6, (0, 5), 0.3, 0.9), wgw_goal_policy(6, 6, (0, 5))),
    lambda: (random_env(1, 200, 2, 200, 0.9), random_policy(1, StateActionSpace(200, 2))),
    *[lambda seed=seed: _random_case(seed) for seed in range(10)],
    *[lambda seed=seed: _random_case(seed, _sparse_policy) for seed in range(10, 14)],
]
STATIONARY_IDS = [
    "single_state", "indep2", "indep6", "shared16", "wgw3x3", "wgw3x3_goal",
    "deterministic_ring", "ring7", "hub16", "crc5", "ring300", "wgw6x6_goal",
    "dense_random", *[f"random{seed}" for seed in range(10)],
    *[f"random{seed}_zeros" for seed in range(10, 14)],
]


class TestStationaryDistribution:
    def test_single_state_splits_by_policy(self):
        space = StateActionSpace(1, 2)
        env = ExoJmdp(
            space, NoiseModel(np.array([1.0])),
            np.zeros((1, 2, 1)), np.zeros((1, 2, 1), dtype=np.int64), 0.9,
        )
        pol = Policy(np.array([[0.3, 0.7]]))
        sd = stationary_distribution(env, pol)
        assert sd.source == "stationary"
        np.testing.assert_allclose(sd.nu, [0.3, 0.7], atol=1e-12)

    def test_symmetric_walk_is_uniform(self):
        env = build_indep_successors(2, 0.9)
        sd = stationary_distribution(env, Policy.uniform(env.space))
        assert sd.source == "stationary"
        np.testing.assert_allclose(sd.nu, 0.25, atol=1e-10)

    def test_absorbing_goal_falls_back(self):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        sd = stationary_distribution(env, Policy.uniform(env.space))
        assert sd.source == "uniform-fallback"
        assert "irreducible" in sd.note
        np.testing.assert_allclose(sd.nu, 1.0 / 36)

    def test_periodic_chain_falls_back(self):
        env = deterministic_ring()
        sd = stationary_distribution(env, Policy.uniform(env.space))
        assert sd.source == "uniform-fallback"
        assert "periodic" in sd.note

    def test_invariance_certified(self):
        env = build_ring_chain(7, 0.9)
        pol = Policy.uniform(env.space)
        sd = stationary_distribution(env, pol)
        assert sd.source == "stationary"
        from jmdp.env import marginal_kernel

        kernel = marginal_kernel(env, pol)
        assert np.max(np.abs(sd.nu @ kernel - sd.nu)) <= 1e-10

    @pytest.mark.parametrize("case", [
        lambda: (build_ring_chain(300, 0.9), None),  # stationary, |X| = 600
        lambda: (build_wgw(6, 6, (0, 5), 0.3, 0.9), wgw_goal_policy(6, 6, (0, 5))),
        lambda: (random_env(1, 200, 2, 200, 0.9), random_policy(1, StateActionSpace(200, 2))),
        lambda: (build_ring_chain(2048, 0.9), None),  # |X| = 4096, two successors a row
        lambda: (build_indep_successors(60, 0.9), None),  # U = 3600 atoms a row
    ], ids=["ring300", "wgw6x6_goal", "dense_random", "ring2048", "indep60"])
    def test_budget_bounds_measured_peak(self, case):
        env, pol = case()
        pol = pol if pol is not None else Policy.uniform(env.space)
        peak = traced_peak(stationary_distribution, env, pol)
        assert peak <= check_stationary_budget(env)

    def test_budget_refused_before_the_kernel(self, monkeypatch):
        env = build_ring_chain(32, 0.9)
        need = check_stationary_budget(env)
        monkeypatch.setattr(fa, "_marginal_csr", never)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        with pytest.raises(BudgetError, match=f"stationary distribution over 64 coordinates "
                                              f"needs {need} bytes; budget is {need - 1}"):
            stationary_distribution(env, Policy.uniform(env.space))
        monkeypatch.undo()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        assert stationary_distribution(env, Policy.uniform(env.space)).source == "stationary"

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_matches_dense_power_iteration(self, case):
        env, pol = case()
        sd = stationary_distribution(env, pol)
        nu, source, note = dense_stationary(env, pol)
        assert (sd.source, sd.note) == (source, note)
        np.testing.assert_allclose(sd.nu, nu, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_kernel_matches_dense_formula(self, case):
        env, pol = case()
        s_n, n_x = env.space.num_states, env.space.num_x
        p_s = np.zeros((s_n, env.space.num_actions, s_n))
        s_idx, a_idx, u_idx = np.indices(env.h.shape)
        np.add.at(p_s, (s_idx, a_idx, env.h), env.noise.probs[u_idx])
        assert np.array_equal(marginal_mdp(env)[1], p_s)
        dense = np.einsum("ias,sb->iasb", p_s, pol.probs).reshape(n_x, n_x)
        assert np.array_equal(marginal_kernel(env, pol), dense)

    def test_large_ring_builds_no_dense_table(self, monkeypatch):
        env = build_ring_chain(2048, 0.9)  # |X| = 4096: a dense kernel is 134 MB
        for module, name in ((fa, "marginal_mdp"), (jenv, "marginal_mdp"),
                             (jenv, "marginal_kernel")):
            monkeypatch.setattr(module, name, never)
        peak = traced_peak(stationary_distribution, env, Policy.uniform(env.space))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("case", [
        *STATIONARY_CASES,
        lambda: (build_ring_chain(2048, 0.9), None),
        lambda: (build_indep_successors(60, 0.9), None),
        lambda: (build_shared_successors(200, 0.9), None),
        lambda: (random_env(3, 100, 5, 100, 0.9), None),  # every row reaches every column
        lambda: (random_env(4, 300, 1, 400, 0.9), None),
    ], ids=[*STATIONARY_IDS, "ring2048", "indep60", "shared200", "dense_rows", "one_action"])
    def test_budget_at_most_the_dense_count(self, case):
        """No input the count of the dense kernel accepted is refused: that
        count held 19 |X|^2 bytes for the dense kernel, its graph and
        csgraph's conversion, beside the terms below."""
        env, _ = case()
        s_n, a_n, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
        n_u = env.noise.support_size
        edges = n_x * min(n_x, n_u * a_n)
        dense = (19 * n_x * n_x + 16 * edges + 8 * n_x * s_n + 32 * n_x * n_u + 64 * n_x
                 + 64 * 1024)
        assert check_stationary_budget(env) <= dense


def brute_force_period(adj):
    """gcd of the closed-walk lengths <= 3n at node 0. Every cycle of length l
    lies on closed walks of lengths p + q and p + q + l, with p, q <= n, so in
    a strongly connected graph this gcd is the gcd of all cycle lengths."""
    n = adj.shape[0]
    step = adj.astype(np.int64)
    reach, g = np.eye(n, dtype=np.int64), 0
    for length in range(1, 3 * n + 1):
        reach = np.minimum(reach @ step, 1)
        if reach[0, 0]:
            g = math.gcd(g, length)
    return g


def _edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return adj


class TestChainPeriod:
    @pytest.mark.parametrize("adj, period", [
        (_edges(3, [(0, 1), (1, 2), (2, 0)]), 3),
        (_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)]), 1),
        (_edges(4, [(0, 1), (1, 2), (2, 2), (2, 3), (3, 0)]), 1),
    ], ids=["3-cycle", "3-cycle-and-2-cycle-through-0", "4-cycle-with-self-loop"])
    def test_named_graphs(self, adj, period):
        assert fa._chain_period(*csr_arrays(adj)) == period == brute_force_period(adj)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        """On the strongly connected component of node 0 of a random digraph."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        _, label = connected_components(adj, directed=True, connection="strong")
        keep = np.flatnonzero(label == label[0])
        adj = adj[np.ix_(keep, keep)]
        assume(adj.any())  # one node needs its self-loop to be a chain
        period = brute_force_period(adj)
        assert fa._chain_period(*csr_arrays(adj)) == csgraph_period(adj) == period


def random_digraph(seed):
    """A random digraph of 1-40 nodes: sparse or dense, with self-loops, nodes
    without out-edges, and, for some seeds, long cycles that make it periodic."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    adj = rng.random((n, n)) < rng.uniform(0.0, 0.3) / max(1.0, n ** rng.uniform(0.0, 1.0))
    if seed % 3 == 0:  # a cycle through a random subset, in a random order
        cycle = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        adj[cycle, np.roll(cycle, -1)] = True
    return adj


class TestGraphSearches:
    """The numpy graph searches against scipy's csgraph."""

    @pytest.mark.parametrize("seed", range(300))
    def test_random_digraphs_match_csgraph(self, seed):
        adj = random_digraph(seed)
        n = adj.shape[0]
        indices, indptr = csr_arrays(adj)
        n_comp, label = connected_components(adj, directed=True, connection="strong")
        assert fa._scc_count(indices, indptr) == n_comp
        sources = np.random.default_rng(seed).choice(n, size=min(n, 1 + seed % 3),
                                                     replace=False)
        dist = shortest_path(adj, unweighted=True, indices=sources).reshape(len(sources), n)
        dist = dist.min(axis=0)
        level = jenv._bfs_levels(indices, indptr, sources)
        np.testing.assert_array_equal(level, np.where(np.isinf(dist), -1, dist))
        reach = np.zeros(n, dtype=bool)
        reach[breadth_first_order(adj, sources[0], return_predecessors=False)] = True
        assert np.array_equal(jenv._bfs_levels(indices, indptr, sources[:1]) >= 0, reach)
        for c in range(n_comp):
            keep = np.flatnonzero(label == c)
            sub = adj[np.ix_(keep, keep)]
            if sub.any():  # a component with a cycle
                assert fa._chain_period(*csr_arrays(sub)) == csgraph_period(sub)

    def test_no_source_reaches_nothing(self):
        indices, indptr = csr_arrays(np.ones((3, 3), dtype=bool))
        assert jenv._bfs_levels(indices, indptr, []).tolist() == [-1, -1, -1]

    @pytest.mark.parametrize("case, n_comp, period", [
        (lambda: _uniform(build_crc(5, 0.9)), 9, None),
        (lambda: _uniform(build_crc(25, 0.9)), 49, None),
        (lambda: _uniform(build_ring_chain(7, 0.9)), 1, 1),
        (lambda: _uniform(build_ring_chain(32, 0.9)), 1, 1),
        (lambda: _uniform(deterministic_ring()), 1, 6),
        (lambda: _uniform(deterministic_ring(5)), 1, 5),
        (lambda: _uniform(build_wgw(3, 3, (0, 2), 0.3, 0.9)), 2, None),
        (lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9), wgw_goal_policy(3, 3, (0, 2))), 33, None),
        (lambda: (build_wgw(5, 5, (0, 4), 0.3, 0.9), wgw_goal_policy(5, 5, (0, 4))), 97, None),
        (lambda: _uniform(build_indep_successors(6, 0.9)), 1, 1),
    ], ids=["crc5", "crc25", "ring7", "ring32", "deterministic_ring6", "deterministic_ring5",
            "wgw3x3", "wgw3x3_goal", "wgw5x5_goal", "indep6"])
    def test_kernels_match_csgraph(self, case, n_comp, period):
        """The count that nu_note quotes, reducible and periodic kernels included."""
        env, pol = case()
        adj = marginal_kernel(env, pol) > 0.0
        indices, indptr = csr_arrays(adj)
        assert fa._scc_count(indices, indptr) == n_comp == connected_components(
            adj, directed=True, connection="strong")[0]
        dist = shortest_path(adj, unweighted=True, indices=0)
        np.testing.assert_array_equal(jenv._bfs_levels(indices, indptr, [0]),
                                      np.where(np.isinf(dist), -1, dist))
        if period is not None:
            assert fa._chain_period(indices, indptr) == period == csgraph_period(adj)

    @pytest.mark.parametrize("case", STATIONARY_CASES, ids=STATIONARY_IDS)
    def test_stationary_matches_scipy_bit_for_bit(self, case):
        env, pol = case()
        sd = stationary_distribution(env, pol)
        nu, source, note = csgraph_stationary(env, pol)
        assert (sd.source, sd.note) == (source, note)
        assert sd.nu.tobytes() == nu.tobytes()


class TestProjectMu:
    def test_target_in_span_reproduced(self):
        rng = np.random.default_rng(0)
        feats = FeatureMap(rng.normal(size=(10, 3)))
        nu = rng.dirichlet(np.full(10, 3.0))
        theta0 = rng.normal(size=3)
        theta = project_mu(feats.phi @ theta0, feats, nu)
        np.testing.assert_allclose(theta, theta0, atol=1e-10)

    def test_identity_features(self):
        rng = np.random.default_rng(1)
        feats = identity_features(6)
        nu = np.full(6, 1 / 6)
        target = rng.normal(size=6)
        np.testing.assert_allclose(project_mu(target, feats, nu), target, atol=1e-12)

    def test_constant_feature_gives_weighted_mean(self):
        feats = FeatureMap(np.ones((5, 1)))
        nu = np.full(5, 0.2)
        target = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        theta = project_mu(target, feats, nu)
        assert theta[0] == pytest.approx(3.0)

    def test_singular_gram_is_a_feature_rank_error(self, monkeypatch):
        # Injected, so the test does not depend on where a BLAS decides that
        # an ill-conditioned Gram matrix is exactly singular.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(FeatureRankError, match="Singular matrix"):
            project_mu(np.arange(5.0), FeatureMap(np.ones((5, 1))), np.full(5, 0.2))

    def test_non_orthogonal_residual_is_a_feature_rank_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.zeros_like(b))
        with pytest.raises(FeatureRankError, match="not orthogonal"):
            project_mu(np.arange(5.0), FeatureMap(np.ones((5, 1))), np.full(5, 0.2))


class TestProjectSigmaPsd:
    def test_representable_point_recovered(self):
        rng = np.random.default_rng(2)
        feats = FeatureMap(rng.normal(size=(8, 3)))
        nu = rng.dirichlet(np.full(8, 3.0))
        a = rng.normal(size=(3, 3))
        theta0 = a @ a.T
        target = feats.phi @ theta0 @ feats.phi.T
        theta, asym = project_sigma_psd(target, feats, nu)
        assert asym <= 1e-12
        np.testing.assert_allclose(theta, theta0, atol=1e-9)

    def test_cone_boundary(self):
        feats = FeatureMap(np.ones((4, 1)))
        nu = np.full(4, 0.25)
        theta, _ = project_sigma_psd(-3.0 * np.ones((4, 4)), feats, nu)
        assert theta[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_asymmetry_recorded(self):
        feats = FeatureMap(np.ones((3, 1)))
        nu = np.full(3, 1 / 3)
        target = np.zeros((3, 3))
        target[0, 1] = 1.0
        _, asym = project_sigma_psd(target, feats, nu)
        assert asym == pytest.approx(1.0)

    def test_matches_first_order_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            n, d = 6, 3
            feats = FeatureMap(rng.normal(size=(n, d)))
            nu = rng.dirichlet(np.full(n, 5.0))
            target = rng.normal(size=(n, n)) * 2.0
            theta, _ = project_sigma_psd(target, feats, nu)
            ref = reference_psd_fit(feats.phi, nu, target, iters=60_000)
            obj = weighted_objective(feats.phi, nu, theta, target)
            obj_ref = weighted_objective(feats.phi, nu, ref, target)
            assert obj <= obj_ref + 1e-9
            assert abs(obj - obj_ref) <= 1e-6

    def test_projection_nonexpansive(self):
        rng = np.random.default_rng(4)
        feats = FeatureMap(rng.normal(size=(6, 2)))
        nu = rng.dirichlet(np.full(6, 4.0))
        for _ in range(20):
            s1 = rng.normal(size=(6, 6))
            s2 = rng.normal(size=(6, 6))
            s1, s2 = 0.5 * (s1 + s1.T), 0.5 * (s2 + s2.T)
            t1, _ = project_sigma_psd(s1, feats, nu)
            t2, _ = project_sigma_psd(s2, feats, nu)
            lhs = nu2_norm(feats.phi @ (t1 - t2) @ feats.phi.T, nu)
            rhs = nu2_norm(s1 - s2, nu)
            assert lhs <= rhs + 1e-9


class TestNormIdentities:
    def test_tensor_identity(self):
        rng = np.random.default_rng(5)
        nu = rng.dirichlet(np.full(7, 2.0))
        for _ in range(20):
            f = rng.normal(size=7)
            table = np.tile(f, (7, 1))  # (1 x f)(x, y) = f(y)
            assert nu2_norm(table, nu) == pytest.approx(nu_norm(f, nu), abs=1e-12)

    def test_beta_norm_reads_orders_one_and_two(self):
        rng = np.random.default_rng(7)
        nu = rng.dirichlet(np.full(4, 2.0))
        sig = rng.normal(size=(4, 4))
        m2 = MomentCollection2(rng.normal(size=4), sig + sig.T)
        m3 = MomentCollectionN((m2.m_mu, m2.m_sigma, np.zeros((4, 4, 4))))
        value = beta_norm(m2, nu, 0.3)
        assert value == max(nu_norm(m2.m_mu, nu), 0.3 * nu2_norm(m2.m_sigma, nu))
        assert beta_norm(m3, nu, 0.3) == value
        assert beta_norm([np.array(m2.m_mu), np.array(m2.m_sigma)], nu, 0.3) == value

    def test_marginal_kernel_nonexpansive_under_stationary_weight(self):
        env = build_ring_chain(6, 0.9)
        pol = Policy.uniform(env.space)
        sd = stationary_distribution(env, pol)
        from jmdp.env import marginal_kernel

        kernel = marginal_kernel(env, pol)
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = rng.normal(size=env.space.num_x)
            assert nu_norm(kernel @ f, sd.nu) <= nu_norm(f, sd.nu) + 1e-10


class TestBetaWeight:
    def test_reference_values(self):
        beta, kappa = beta_weight(0.9, 1.0)
        assert beta == pytest.approx(0.19 / 3.6)
        assert kappa == pytest.approx(0.905)
        beta, kappa = beta_weight(0.5, 1.0)
        assert beta == pytest.approx(0.375)
        assert kappa == pytest.approx(0.625)

    def test_violated_assumption(self):
        with pytest.raises(AssumptionError):
            beta_weight(0.9, 5.0)


def pair_kernel_by_enumeration(env, pol, mode):
    """Two-branch kernel row by row: sum over the noise draw(s) u (and v when
    the branches draw independently) and over the next actions a', b'."""
    n_a, n_x = env.space.num_actions, env.space.num_x
    probs = env.noise.probs
    n_u = probs.size
    kernel = np.zeros((n_x, n_x, n_x, n_x))
    for x in range(n_x):
        s, a = divmod(x, n_a)
        for y in range(n_x):
            t, b = divmod(y, n_a)
            shared = mode == "global" or (s == t and a != b)
            for u in range(n_u):
                for v in [u] if shared else range(n_u):
                    w = probs[u] if shared else probs[u] * probs[v]
                    s1, t1 = env.h[s, a, u], env.h[t, b, v]
                    for a1 in range(n_a):
                        for b1 in range(n_a):
                            kernel[x, y, s1 * n_a + a1, t1 * n_a + b1] += (
                                w * pol.probs[s1, a1] * pol.probs[t1, b1]
                            )
    return kernel.reshape(n_x * n_x, n_x * n_x)


def dense_pair_kernel(env, pol, mode):
    """The |X|^2 x |X|^2 two-branch kernel as a dense matrix, built from the
    per-noise successor law succ[x, u, x'] = 1{h(x, u) = s'} pi(a' | s')."""
    n_s, n_a, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
    n_u = env.noise.support_size
    probs = env.noise.probs
    h_x = env.h.reshape(n_x, n_u)
    succ = np.zeros((n_x, n_u, n_s, n_a))
    succ[np.arange(n_x)[:, None], np.arange(n_u), h_x] = pol.probs[h_x]
    succ = succ.reshape(n_x, n_u, n_x)
    if mode == "global":
        kernel = np.einsum("u,auc,bud->abcd", probs, succ, succ)
        return kernel.reshape(n_x * n_x, n_x * n_x)
    p1 = marginal_kernel(env, pol)
    kernel = np.kron(p1, p1).reshape(n_x, n_x, n_x, n_x)
    coupled = ~np.eye(n_a, dtype=bool)  # identical coordinates keep the product row
    for s in range(n_s):
        xs = slice(s * n_a, (s + 1) * n_a)
        rows = np.einsum("u,auc,bud->abcd", probs, succ[xs], succ[xs])
        kernel[xs, xs][coupled] = rows[coupled]
    return kernel.reshape(n_x * n_x, n_x * n_x)


def dense_coupling_reference(env, pol, nu, mode):
    """The exact largest singular value of the dense A = D^(1/2) P2 D^(-1/2)."""
    p2 = dense_pair_kernel(env, pol, mode)
    w = np.kron(nu, nu)
    a = (np.sqrt(w)[:, None] * p2) / np.sqrt(w)[None, :]
    return float(np.linalg.norm(a, 2))


def kernel_cases():
    env = random_env(13, num_states=3, num_actions=3, num_noise=3)
    yield env, random_policy(13, env.space)
    env = build_ring_chain(6, 0.9)
    yield env, Policy.uniform(env.space)
    env = build_wgw(2, 2, (0, 1), 0.3, 0.9)
    yield env, wgw_goal_policy(2, 2, (0, 1))


class TestPairKernel:
    @pytest.mark.parametrize("mode", ["same_state", "global"])
    def test_rows_match_enumeration(self, mode):
        rng = np.random.default_rng(7)
        for env, pol in kernel_cases():
            n_x = env.space.num_x
            v = rng.normal(size=(n_x, n_x))
            expected = pair_kernel_by_enumeration(env, pol, mode) @ v.reshape(-1)
            np.testing.assert_allclose(
                _PairKernel(env, pol, mode).apply(v).reshape(-1),
                expected,
                rtol=0.0,
                atol=1e-12,
            )

    @pytest.mark.parametrize("mode", ["same_state", "global"])
    def test_adjoint_matches_transpose(self, mode):
        rng = np.random.default_rng(8)
        for env, pol in kernel_cases():
            n_x = env.space.num_x
            w = rng.normal(size=(n_x, n_x))
            expected = pair_kernel_by_enumeration(env, pol, mode).T @ w.reshape(-1)
            np.testing.assert_allclose(
                _PairKernel(env, pol, mode).adjoint(w).reshape(-1),
                expected,
                rtol=0.0,
                atol=1e-12,
            )


def coupling_cases():
    """Criterion 9's three constructions, ring(8), and wgw(3x3) under the
    goal policy, each with the weighting nu the criterion uses."""
    for env in (build_indep_successors(6, 0.9), build_shared_successors(16, 0.9),
                build_ring_chain(8, 0.9)):
        pol = Policy.uniform(env.space)
        yield env, pol, stationary_distribution(env, pol).nu
    env = deterministic_ring()
    yield env, Policy.uniform(env.space), np.full(env.space.num_x, 1.0 / env.space.num_x)
    env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
    pol = wgw_goal_policy(3, 3, (0, 2))
    yield env, pol, stationary_distribution(env, pol).nu


def random_tridiagonal(seed):
    """(alphas, betas) of 1-60 entries: spreads from flat to graded, and
    off-diagonals that decay, so that the top eigenvector's last entry spans
    1 down to far below the Lanczos stopping bound."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 61))
    alphas = rng.uniform(0.0, 10.0 ** rng.uniform(-1, 2), k)
    betas = rng.uniform(0.1, 1.0, k - 1) * 10.0 ** rng.uniform(-1, 1)
    betas *= np.geomspace(1.0, 10.0 ** -rng.uniform(0, 12), k)[1:]
    return alphas.tolist(), betas.tolist()


class TestTopRitz:
    """fa._top_ritz against LAPACK's bisection and inverse iteration."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_eigh_tridiagonal(self, seed):
        alphas, betas = random_tridiagonal(seed)
        k = len(alphas)
        ritz, y = eigh_tridiagonal(np.array(alphas), np.array(betas), select="i",
                                   select_range=(k - 1, k - 1))
        theta, y_last = fa._top_ritz(alphas, betas)
        scale = max(np.abs(alphas).max(), np.abs(betas).max(initial=0.0))
        assert abs(theta - ritz[0]) <= 4 * np.finfo(float).eps * scale
        assert abs(y_last - abs(y[-1, 0])) <= 1e-12

    def test_one_entry_and_a_split_matrix(self):
        assert fa._top_ritz([2.5], []) == (2.5, 1.0)
        # b = 0 splits T: the top eigenvalue 3 lives in the leading block
        theta, y_last = fa._top_ritz([3.0, 1.0], [0.0])
        assert theta == 3.0 and y_last == 0.0


class TestCouplingCoefficient:
    def test_independent_components_reach_minimum(self):
        env = build_indep_successors(6, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        rep = coupling_coefficient(env, pol, nu)
        assert abs(rep.sqrt_c_rho - 1.0) <= 1e-6
        assert rep.satisfied

    def test_shared_successors_scale_with_states(self):
        for m in (4, 9, 16):
            env = build_shared_successors(m, 0.9)
            pol = Policy.uniform(env.space)
            nu = stationary_distribution(env, pol).nu
            rep = coupling_coefficient(env, pol, nu, mode="global")
            assert rep.sqrt_c_rho >= np.sqrt(m) - 1e-6

    def test_product_kernel_env(self):
        env = deterministic_ring()
        pol = Policy.uniform(env.space)
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        rep = coupling_coefficient(env, pol, nu)
        assert rep.sqrt_c_rho <= 1.0 + 1e-6

    @pytest.mark.parametrize("mode", ["same_state", "global"])
    def test_matches_dense_reference(self, mode):
        for env, pol, nu in coupling_cases():
            exact = dense_coupling_reference(env, pol, nu, mode)
            rep = coupling_coefficient(env, pol, nu, mode=mode)
            assert abs(rep.sqrt_c_rho - exact) <= 1e-10
            assert rep.iterations <= 40
            assert rep.converged

    def test_eigenvector_start_stops_after_one_step(self):
        # In global mode the uniform start table is an eigenvector of A'A on
        # the ring, so the first Lanczos residual vanishes (a breakdown).
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        rep = coupling_coefficient(env, pol, nu, mode="global")
        assert rep.converged and rep.iterations == 1
        assert abs(rep.sqrt_c_rho - 1.0) <= 1e-12

    def test_size_cap(self, monkeypatch):
        env = build_wgw(4, 4, (0, 3), 0.3, 0.9)
        pol = Policy.uniform(env.space)
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        for mode in ("same_state", "global"):
            need = check_coupling_budget(env, mode)
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
            with pytest.raises(BudgetError, match=f"needs {need} bytes; budget is {need - 1}"):
                coupling_coefficient(env, pol, nu, mode=mode)
            monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
            coupling_coefficient(env, pol, nu, mode=mode)

    @pytest.mark.parametrize("mode", ["same_state", "global"])
    def test_budget_bounds_measured_peak(self, mode):
        # |X| = 144: a dense pair kernel would take 20736^2 * 8 bytes = 3.4 GB.
        env = build_wgw(6, 6, (0, 5), 0.3, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        need = check_coupling_budget(env, mode)
        tracemalloc.start()
        try:
            coupling_coefficient(env, pol, nu, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need < 2 * 1024 * 1024

    def test_iteration_cap_reported(self, monkeypatch):
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        pol = wgw_goal_policy(3, 3, (0, 2))
        nu = stationary_distribution(env, pol).nu
        full = coupling_coefficient(env, pol, nu)
        assert full.converged and full.iterations > 3
        monkeypatch.setattr(fa, "_LANCZOS_MAX_ITER", 3)
        capped = coupling_coefficient(env, pol, nu)
        assert not capped.converged
        assert capped.iterations == 3

    def test_unknown_mode_rejected(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        with pytest.raises(InvalidQueryError, match="mode"):
            coupling_coefficient(env, pol, np.full(6, 1 / 6), mode="shared")


def reference_projected(env, policy, features, nu, epsilon, max_iter):
    """The projected loop stepping checked collections: every iterate is
    densified into a MomentCollection2 and backed up by apply_tn.
    Returns (moments, distances, converged, iterations)."""
    def densify(lm):
        sig = features.phi @ lm.theta_sigma @ features.phi.T
        return MomentCollection2(features.phi @ lm.theta_mu, 0.5 * (sig + sig.T))

    coupling = coupling_coefficient(env, policy, nu)
    beta = beta_weight(env.gamma, coupling.sqrt_c_rho)[0] if coupling.satisfied else 1.0
    d = features.dim
    current = LinearMoments(np.zeros(d), np.zeros((d, d)))
    dense = densify(current)
    distances = []
    for k in range(max_iter):
        backed = apply_tn(env, policy, dense)
        theta_sig, _ = project_sigma_psd(backed.m_sigma, features, nu)
        current = LinearMoments(project_mu(backed.m_mu, features, nu), theta_sig)
        new_dense = densify(current)
        distances.append(beta_norm(new_dense - dense, nu, beta))
        dense = new_dense
        if distances[-1] <= epsilon:
            return current, distances, True, k + 1
    return current, distances, False, max_iter


class TestProjectedIteration:
    @pytest.mark.parametrize("case", [
        lambda: (build_ring_chain(32, 0.9), None, state_poly_features(32, 2, 2)),
        lambda: (build_ring_chain(128, 0.9), None, state_poly_features(128, 2, 2)),
        lambda: (build_crc(5, 0.9), None, state_poly_features(5, 2, 2)),
        lambda: (build_wgw(3, 3, (0, 2), 0.3, 0.9), wgw_goal_policy(3, 3, (0, 2)),
                 state_poly_features(9, 4, 2)),
        # Action-dependent features: the repeated-coordinate correction is nonzero.
        lambda: (build_crc(5, 0.9), None, identity_features(10)),
        lambda: (random_env(1, 12, 3, 4, 0.9), random_policy(1, StateActionSpace(12, 3)),
                 FeatureMap(np.random.default_rng(1).normal(size=(36, 5)))),
    ], ids=["ring32", "ring128", "crc5", "wgw3x3_goal", "crc5_identity", "random_features"])
    def test_matches_collection_reference(self, case):
        # The loop runs in feature space, so its sums run in another order
        # than the dense reference's: the iteration counts agree exactly, the
        # distances and the final tables to float tolerance.
        env, pol, feats = case()
        pol = pol if pol is not None else Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        rep = projected_jipe2(env, pol, feats, nu, 1e-9, 500)
        moments, distances, converged, iterations = reference_projected(
            env, pol, feats, nu, 1e-9, 500)
        assert (rep.converged, rep.iterations) == (converged, iterations)
        assert converged
        np.testing.assert_allclose(rep.distances, distances, rtol=0.0, atol=1e-12)
        deviation = [a - b for a, b in zip(rep.moments.tables(feats), moments.tables(feats))]
        assert beta_norm(deviation, nu, 1.0) <= 1e-10

    def test_one_step_cap_is_not_converged(self):
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        rep = projected_jipe2(env, pol, state_poly_features(8, 2, 2), nu, 1e-9, max_iter=1)
        assert (rep.converged, rep.iterations, len(rep.distances)) == (False, 1, 1)
        assert rep.distances[0] > 1e-9

    def test_loop_builds_no_collection(self, monkeypatch):
        builds = []
        check = MomentCollectionN.__post_init__
        monkeypatch.setattr(MomentCollectionN, "__post_init__",
                            lambda self: builds.append(1) or check(self))
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        rep = projected_jipe2(env, pol, state_poly_features(8, 2, 2), nu, 1e-9)
        assert rep.converged and rep.iterations > 10
        assert builds == []
        MomentCollectionN.zeros(env.space, 2)  # the counter sees a build
        assert builds == [1]

    def test_loop_reads_no_dense_table(self, monkeypatch):
        # The coupling step (skipped here) reads the marginal kernel; the loop
        # reads no |X| x |X| or |X| x S table.
        monkeypatch.setattr(fa, "check_coupling_budget", over_budget)
        for module, name in ((fa, "marginal_mdp"), (fa, "_marginal_csr"),
                             (jenv, "marginal_mdp"), (jenv, "marginal_kernel"),
                             (dp, "_BackupPlan"), (LinearMoments, "tables")):
            monkeypatch.setattr(module, name, never)
        env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        rep = projected_jipe2(env, wgw_goal_policy(3, 3, (0, 2)),
                              state_poly_features(9, 4, 2), nu, 1e-9)
        assert rep.converged and rep.coupling is None

    @pytest.mark.parametrize("case", [
        lambda: (build_ring_chain(256, 0.9), None, state_poly_features(256, 2, 2)),
        lambda: (build_wgw(4, 4, (0, 3), 0.3, 0.9), wgw_goal_policy(4, 4, (0, 3)),
                 identity_features(64)),
        lambda: (random_env(2, 12, 3, 4, 0.9), random_policy(2, StateActionSpace(12, 3)),
                 FeatureMap(np.random.default_rng(2).normal(size=(36, 5)))),
    ], ids=["ring256_poly", "wgw4x4_identity", "random_features"])
    def test_budget_bounds_measured_peak(self, case, monkeypatch):
        # The coupling step has its own count; with it skipped, the peak is the loop's.
        monkeypatch.setattr(fa, "check_coupling_budget", over_budget)
        env, pol, feats = case()
        pol = pol if pol is not None else Policy.uniform(env.space)
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        need = check_projected_budget(env, feats, 500)
        peak = traced_peak(projected_jipe2, env, pol, feats, nu, 1e-9, 500)
        assert peak <= need

    def test_budget_refused_before_any_work(self, monkeypatch):
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        feats = state_poly_features(8, 2, 2)
        nu = stationary_distribution(env, pol).nu
        need = check_projected_budget(env, feats, 300)
        monkeypatch.setattr(fa, "coupling_coefficient", never)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        with pytest.raises(BudgetError, match=f"projected iteration over 16 coordinates "
                                              f"\\(3 features\\) needs {need} bytes; "
                                              f"budget is {need - 1}"):
            projected_jipe2(env, pol, feats, nu, 1e-9, 300)
        monkeypatch.undo()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        assert projected_jipe2(env, pol, feats, nu, 1e-9, 300).converged

    def test_large_ring_converges_inside_default_budget(self):
        # |X| = 4096: one |X| x |X| table takes 128 MiB, so the coupling step is
        # over its budget and beta = 1; the loop needs a few MiB.
        env = build_ring_chain(2048, 0.9)
        feats = state_poly_features(2048, 2, 2)
        with pytest.raises(BudgetError):
            check_coupling_budget(env, "same_state")
        assert check_projected_budget(env, feats, 10_000) < 16 * 1024 * 1024
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        rep = projected_jipe2(env, Policy.uniform(env.space), feats, nu, 1e-9)
        assert rep.converged and rep.coupling is None and rep.beta == 1.0

    def test_indefinite_iterate_is_a_feature_rank_error(self, monkeypatch):
        # An indefinite iterate is injected through the shared clip, so the
        # test does not depend on how the BLAS rounds an ill-conditioned map.
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        feats = state_poly_features(8, 2, 2)
        nu = stationary_distribution(env, pol).nu
        cond = np.linalg.cond(np.linalg.qr(feats.phi * np.sqrt(nu)[:, None])[1])
        monkeypatch.setattr(fa, "_clip_psd", lambda core, r_inv: (-np.eye(core.shape[0]), core))
        with pytest.raises(FeatureRankError) as info:
            projected_jipe2(env, pol, feats, nu, 1e-9, 50)
        message = str(info.value)
        assert message.startswith("iterate 1 fails its parameter check (theta_sigma must be PSD")
        assert f"cond(R) = {cond:.3e}" in message

    def test_identity_features_recover_tabular_fixed_point(self):
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        tab = jipe(env, pol, 1e-10).final
        nu = stationary_distribution(env, pol).nu
        feats = identity_features(env.space.num_x)
        rep = projected_jipe2(env, pol, feats, nu, epsilon=1e-9)
        assert rep.converged
        mu, sig = rep.moments.tables(feats)
        np.testing.assert_allclose(mu, tab.m_mu, atol=1e-7)
        np.testing.assert_allclose(sig, tab.m_sigma, atol=1e-6)

    def test_chain_poly_features_converge_with_bounded_error(self):
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        feats = state_poly_features(5, 2, 2)
        rep = projected_jipe2(env, pol, feats, nu, epsilon=1e-10, max_iter=4000)
        assert rep.converged
        # measured contraction of the tail of the trace bounds the fixed-point
        # error through the projected-residual inequality
        d = rep.distances
        tail = len(d) // 5
        kappa_meas = max(
            d[i + 1] / d[i] for i in range(tail, len(d) - 1) if d[i] > 1e-12
        )
        assert kappa_meas < 1.0
        tab = jipe(env, pol, 1e-11).final
        theta_mu = project_mu(tab.m_mu, feats, nu)
        theta_sig, _ = project_sigma_psd(tab.m_sigma, feats, nu)
        proj_star = LinearMoments(theta_mu, theta_sig).tables(feats)
        err = beta_norm([a - b for a, b in zip(rep.moments.tables(feats), tab.tables)],
                        nu, rep.beta)
        proj_err = beta_norm([a - b for a, b in zip(proj_star, tab.tables)], nu, rep.beta)
        assert err <= proj_err / (1.0 - kappa_meas) + 1e-6

    def test_formula_contraction_factor_bounds_ratios(self):
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        feats = state_poly_features(8, 2, 2)
        rep = projected_jipe2(env, pol, feats, nu, epsilon=1e-11, max_iter=4000)
        assert rep.converged and rep.kappa is not None
        d = rep.distances
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 1e-12]
        assert max(ratios) <= rep.kappa + 1e-6

    @pytest.mark.parametrize(
        "epsilon, max_iter",
        [(0.0, 10), (float("nan"), 10), (float("inf"), 10), (1e-9, -1)],
        ids=["zero_epsilon", "nan_epsilon", "inf_epsilon", "negative_max_iter"],
    )
    def test_solver_arguments_rejected(self, epsilon, max_iter):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        feats = state_poly_features(3, 2, 1)
        match = "max_iter" if max_iter < 0 else "epsilon"
        with pytest.raises(InvalidInputError, match=match):
            projected_jipe2(env, pol, feats, nu, epsilon, max_iter)

    @pytest.mark.parametrize(
        "nu",
        [np.full(5, 0.2), np.array([0.5, -0.1, 0.2, 0.2, 0.1, 0.1]),
         np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2])],
        ids=["wrong_length", "negative", "nan"],
    )
    def test_bad_nu_rejected_without_coupling_step(self, monkeypatch, nu):
        # Over budget, the coupling step is skipped (beta = 1), so it cannot
        # be what rejects nu.
        monkeypatch.setattr(fa, "check_coupling_budget", over_budget)
        env = build_crc(3, 0.9)
        feats = state_poly_features(3, 2, 1)
        with pytest.raises(InvalidInputError, match="nu"):
            projected_jipe2(env, Policy.uniform(env.space), feats, nu, 1e-9, 50)

    def test_concentrating_coupling_diverges(self):
        env = build_hub_successors(16, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        feats = state_ramp_features(16, 2)
        with pytest.raises(DivergenceError, match="sqrt_c_rho"):
            projected_jipe2(env, pol, feats, nu, epsilon=1e-9, max_iter=300)
