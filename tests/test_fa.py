import tracemalloc

import numpy as np
import pytest

from jmdp import fa
from jmdp.core import MomentCollection2, StateActionSpace
from jmdp.dp import jipe2
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
    ], ids=["nan_sigma", "inf_sigma", "nan_mu", "inf_mu"])
    def test_non_finite_parameters_rejected(self, theta_mu, theta_sigma):
        with pytest.raises(InvalidInputError, match="finite"):
            LinearMoments(theta_mu, theta_sigma)

    def test_densify_produces_symmetric_tables(self):
        feats = state_poly_features(4, 2, 1)
        lm = LinearMoments(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        dense = lm.densify(feats)
        np.testing.assert_array_equal(dense.m_sigma, dense.m_sigma.T)


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


def dense_coupling_reference(env, pol, nu, mode, tol=1e-10):
    """Power iteration on the dense normal matrix A'A, A = D^(1/2) P2 D^(-1/2):
    the same start vector, stop rule and cap as coupling_coefficient.
    Returns (sqrt_c_rho, iterations)."""
    p2 = dense_pair_kernel(env, pol, mode)
    w = np.kron(nu, nu)
    a = (np.sqrt(w)[:, None] * p2) / np.sqrt(w)[None, :]
    ata = a.T @ a
    v = np.full(ata.shape[0], 1.0 / np.sqrt(ata.shape[0]))
    lam = 0.0
    for k in range(1, 100_001):
        nv = ata @ v
        new_lam = float(np.linalg.norm(nv))
        if new_lam == 0.0:
            return 0.0, k
        nv /= new_lam
        if abs(new_lam - lam) <= tol * max(new_lam, 1.0):
            return float(np.sqrt(new_lam)), k
        lam = new_lam
        v = nv
    return float(np.sqrt(lam)), 100_000


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
            ref, ref_iters = dense_coupling_reference(env, pol, nu, mode)
            rep = coupling_coefficient(env, pol, nu, mode=mode)
            assert abs(rep.sqrt_c_rho - ref) <= 1e-10
            assert rep.iterations == ref_iters
            assert rep.converged

    def test_size_cap(self):
        env = build_wgw(4, 4, (0, 3), 0.3, 0.9)
        pol = Policy.uniform(env.space)
        nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
        for mode in ("same_state", "global"):
            need = check_coupling_budget(env, mode)
            with pytest.raises(BudgetError, match=f"needs {need} bytes"):
                coupling_coefficient(env, pol, nu, mode=mode, memory_budget_bytes=need - 1)
            coupling_coefficient(env, pol, nu, mode=mode, memory_budget_bytes=need)

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
        env = build_ring_chain(8, 0.9)
        pol = Policy.uniform(env.space)
        nu = stationary_distribution(env, pol).nu
        full = coupling_coefficient(env, pol, nu)
        assert full.converged and full.iterations > 3
        monkeypatch.setattr(fa, "_POWER_MAX_ITER", 3)
        capped = coupling_coefficient(env, pol, nu)
        assert not capped.converged
        assert capped.iterations == 3

    def test_unknown_mode_rejected(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        with pytest.raises(InvalidQueryError, match="mode"):
            coupling_coefficient(env, pol, np.full(6, 1 / 6), mode="shared")


class TestProjectedIteration:
    def test_identity_features_recover_tabular_fixed_point(self):
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        tab = jipe2(env, pol, 1e-10).final
        nu = stationary_distribution(env, pol).nu
        feats = identity_features(env.space.num_x)
        rep = projected_jipe2(env, pol, feats, nu, epsilon=1e-9)
        assert rep.converged
        dense = rep.moments.densify(feats)
        np.testing.assert_allclose(dense.m_mu, tab.m_mu, atol=1e-7)
        np.testing.assert_allclose(dense.m_sigma, tab.m_sigma, atol=1e-6)

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
        tab = jipe2(env, pol, 1e-11).final
        theta_mu = project_mu(tab.m_mu, feats, nu)
        theta_sig, _ = project_sigma_psd(tab.m_sigma, feats, nu)
        proj_star = LinearMoments(theta_mu, theta_sig).densify(feats)
        err = beta_norm(rep.moments.densify(feats) - tab, nu, rep.beta)
        proj_err = beta_norm(proj_star - tab, nu, rep.beta)
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
        def over_budget(*args, **kwargs):
            raise BudgetError("over budget")

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
