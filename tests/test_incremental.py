import numpy as np
import pytest

from jmdp.core import (
    Index2,
    LambdaWeights,
    MomentCollection2,
    StateActionSpace,
    enumerate_indices,
    lambda_norm,
)
from jmdp.dp import apply_t2, jipe2
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_wgw,
    wgw_goal_policy,
)
from jmdp.errors import InvalidInputError
from jmdp.incremental import (
    _CHUNK,
    StepSchedule,
    VisitationScheme,
    noise_bound_constants,
    noise_diagnostic,
    run_incremental,
    sample_backup,
)

from test_env import random_env, random_policy


def forward_chain(gamma=0.9):
    """Deterministic 3-state, 1-action chain: rewards 0.5, 0.25, then absorbing 0."""
    space = StateActionSpace(3, 1)
    noise = NoiseModel(np.array([1.0]))
    g = np.array([[[0.5]], [[0.25]], [[0.0]]])
    h = np.array([[[1]], [[2]], [[2]]], dtype=np.int64)
    return ExoJmdp(space, noise, g, h, gamma)


# ---------------------------------------------------------------------------
# Scalar reference: one update at a time, one uniform at a time, in the
# stream order run_incremental must keep (64k-uniform rng.random blocks; per
# update a visitation draw in uniform mode, then u [u2] a' [b']).
# ---------------------------------------------------------------------------


def _ref_uniforms(rng, block=1 << 16):
    while True:
        for v in rng.random(block):
            yield float(v)


def _ref_backup(env, policy, mu, sig, kind, x, y, uniforms):
    noise_cdf = np.cumsum(env.noise.probs)
    noise_cdf[-1] = 1.0
    pol_cdf = np.cumsum(policy.probs, axis=1)
    pol_cdf[:, -1] = 1.0

    def draw_u():
        return int(np.searchsorted(noise_cdf, next(uniforms), side="right"))

    def draw_action(s):
        return int(np.searchsorted(pol_cdf[s], next(uniforms), side="right"))

    n_a = env.space.num_actions
    g, h, gamma = env.g, env.h, env.gamma
    s, a = divmod(x, n_a)
    if kind == "mu":
        u = draw_u()
        s1 = int(h[s, a, u])
        return float(g[s, a, u]) + gamma * float(mu[s1 * n_a + draw_action(s1)])
    s2, a2 = divmod(y, n_a)
    if x == y:
        u = draw_u()
        r = float(g[s, a, u])
        s1 = int(h[s, a, u])
        x1 = s1 * n_a + draw_action(s1)
        return r * r + 2.0 * gamma * r * float(mu[x1]) + gamma**2 * float(sig[x1, x1])
    u1 = draw_u()
    u2 = u1 if s == s2 else draw_u()
    r1, r2 = float(g[s, a, u1]), float(g[s2, a2, u2])
    s1, t1 = int(h[s, a, u1]), int(h[s2, a2, u2])
    x1 = s1 * n_a + draw_action(s1)
    y1 = t1 * n_a + draw_action(t1)
    return (
        r1 * r2
        + gamma * r1 * float(mu[y1])
        + gamma * r2 * float(mu[x1])
        + gamma**2 * float(sig[x1, y1])
    )


def _ref_run(env, policy, rule, mode, num_updates, seed, m0, fixed_point, stride):
    """Returns (trace, final, visit counts) exactly as run_incremental must."""
    n_x = env.space.num_x
    start = MomentCollection2.zeros(env.space) if m0 is None else m0
    mu, sig = start.m_mu.copy(), start.m_sigma.copy()
    indices = enumerate_indices(env.space)
    slot_of, slots = {}, []
    for idx in indices:
        key = ("mu", idx.x) if idx.kind == "mu" else (
            "sigma", min(idx.x, idx.x2), max(idx.x, idx.x2))
        slots.append(slot_of.setdefault(key, len(slot_of)))
    counts = np.zeros(len(slot_of), dtype=np.int64)
    uniforms = _ref_uniforms(np.random.default_rng(seed))
    weights = LambdaWeights(env.gamma)
    trace, alpha = [], float("nan")
    for k in range(num_updates):
        if mode == "sweep":
            pos = k % len(indices)
        else:
            pos = min(int(next(uniforms) * len(indices)), len(indices) - 1)
        idx = indices[pos]
        y = idx.x if idx.kind == "mu" else idx.x2
        value = _ref_backup(env, policy, mu, sig, idx.kind, idx.x, y, uniforms)
        c = counts[slots[pos]]
        alpha = float(rule[1] / (rule[1] + c) if rule[0] == "harmonic" else rule[1])
        counts[slots[pos]] += 1
        if idx.kind == "mu":
            mu[idx.x] = (1.0 - alpha) * mu[idx.x] + alpha * value
        else:
            new = (1.0 - alpha) * sig[idx.x, y] + alpha * value
            sig[idx.x, y] = new
            sig[y, idx.x] = new
        if (k + 1) % stride == 0 or k + 1 == num_updates:
            current = MomentCollection2(mu, 0.5 * (sig + sig.T))
            dist = (float("nan") if fixed_point is None
                    else lambda_norm(current - fixed_point, weights))
            trace.append((k + 1, dist, alpha))
    return trace, MomentCollection2(mu, 0.5 * (sig + sig.T)), counts


def _symmetric(rng, n, scale=1.0):
    sig = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (sig + sig.T)


def _reference_cases():
    wgw = build_wgw(2, 2, (0, 1), 0.3, 0.9)
    rnd = random_env(4, num_states=3, num_actions=2, num_noise=3, gamma=0.8)
    return {
        "crc3": (build_crc(3, 0.9), None),
        "wgw2x2-goal": (wgw, wgw_goal_policy(2, 2, (0, 1))),
        "random": (rnd, random_policy(8, rnd.space)),
    }


REFERENCE_CASES = _reference_cases()


class TestMatchesScalarReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("mode", ["sweep", "uniform"])
    @pytest.mark.parametrize("rule", [("harmonic", 10.0), ("constant", 0.2)])
    def test_run_is_bit_identical(self, case, mode, rule):
        env, pol = REFERENCE_CASES[case]
        pol = pol or Policy.uniform(env.space)
        rng = np.random.default_rng(11)
        m0 = MomentCollection2(
            rng.normal(size=env.space.num_x), _symmetric(rng, env.space.num_x)
        )
        star = jipe2(env, pol, 1e-10).final
        # Crosses a 64k-uniform block; not a multiple of the stride or the
        # chunk; the stride spans several chunks.
        num_updates, stride = 10 * _CHUNK + 3_001, 3 * _CHUNK + 777
        assert num_updates % stride and num_updates % _CHUNK
        ref_trace, ref_final, ref_counts = _ref_run(
            env, pol, rule, mode, num_updates, 5, m0, star, stride
        )
        sched = (StepSchedule.harmonic(rule[1]) if rule[0] == "harmonic"
                 else StepSchedule.constant(rule[1]))
        res = run_incremental(
            env, pol, sched, VisitationScheme(mode), num_updates, seed=5,
            m0=m0, fixed_point=star, trace_stride=stride,
        )
        assert res.trace == ref_trace
        assert [type(a) for _, _, a in res.trace] == [float] * len(ref_trace)
        assert np.array_equal(res.final.m_mu, ref_final.m_mu)
        assert np.array_equal(res.final.m_sigma, ref_final.m_sigma)
        assert np.array_equal(sched._counts, ref_counts)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_sample_backup_and_noise_diagnostic(self, case):
        env, pol = REFERENCE_CASES[case]
        pol = pol or Policy.uniform(env.space)
        sp = env.space
        rng = np.random.default_rng(2)
        m = MomentCollection2(rng.normal(size=sp.num_x), _symmetric(rng, sp.num_x))
        exact = apply_t2(env, pol, m)
        for idx, k in [
            (Index2("mu", sp.x(1, 0)), 2),
            (Index2("sigma", sp.x(1, 1), sp.x(1, 1)), 2),
            (Index2("sigma", sp.x(0, 1), sp.x(0, 0)), 3),
            (Index2("sigma", sp.x(2 % sp.num_states, 0), sp.x(1, 1)), 4),
        ]:
            y = idx.x if idx.kind == "mu" else idx.x2
            r_new, r_ref = np.random.default_rng(6), np.random.default_rng(6)
            for _ in range(20):
                uniforms = _ref_uniforms(r_ref, block=8)
                expected = _ref_backup(
                    env, pol, m.m_mu, m.m_sigma, idx.kind, idx.x, y, uniforms
                )
                assert sample_backup(env, pol, m, idx, r_new) == expected
            assert r_new.random() == r_ref.random()

            # noise_diagnostic draws rng.random(n) once per draw slot of a
            # backup (k slots), in stream order; sample j reads column j.
            n, rng_diag = 1_000, np.random.default_rng(13)
            block = np.stack([rng_diag.random(n) for _ in range(k)])
            vals = np.array([
                _ref_backup(env, pol, m.m_mu, m.m_sigma, idx.kind, idx.x, y,
                            iter(block[:, j].tolist()))
                for j in range(n)
            ])
            target = exact.m_mu[idx.x] if idx.kind == "mu" else exact.m_sigma[idx.x, y]
            omega = vals - float(target)
            diag = noise_diagnostic(env, pol, m, idx, n, seed=13)
            assert diag.mean_error == float(omega.mean())
            assert diag.second_moment == float((omega**2).mean())


class TestStepSchedule:
    def test_harmonic_sequence(self):
        sched = StepSchedule.harmonic(10.0)
        sched.bind(1)
        alphas = [sched.step(0) for _ in range(5)]
        assert alphas == [1.0, 10 / 11, 10 / 12, 10 / 13, 10 / 14]

    def test_harmonic_satisfies_step_conditions(self):
        # alpha_t = c/(c+t): the sum diverges, the squared sum stays bounded.
        c = 10.0
        t = np.arange(200_000)
        alphas = c / (c + t)
        assert alphas.sum() > 50.0
        assert (alphas**2).sum() < c * (c + 1)

    def test_constant_range(self):
        with pytest.raises(InvalidInputError):
            StepSchedule.constant(0.0)
        with pytest.raises(InvalidInputError):
            StepSchedule.constant(1.5)


class TestSampleBackup:
    def test_deterministic_env_mu_backup(self):
        env = forward_chain()
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        value = sample_backup(env, pol, m, Index2("mu", 0), np.random.default_rng(0))
        assert value == 0.5

    def test_crc_cross_term_vanishes_at_zero_moments(self):
        env = build_crc(4, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        rng = np.random.default_rng(5)
        idx = Index2("sigma", env.space.x(0, 0), env.space.x(0, 1))
        for _ in range(100):
            assert sample_backup(env, pol, m, idx, rng) == 0.0

    @pytest.mark.parametrize(
        "index_fn",
        [
            lambda sp: Index2("mu", sp.x(0, 0)),
            lambda sp: Index2("sigma", sp.x(0, 0), sp.x(0, 0)),
            lambda sp: Index2("sigma", sp.x(0, 0), sp.x(0, 1)),
            lambda sp: Index2("sigma", sp.x(0, 0), sp.x(1, 1)),
        ],
        ids=["mu", "diagonal", "same-state", "cross-state"],
    )
    def test_backup_mean_is_exact_coordinate(self, index_fn):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(17)
        mu = rng.normal(size=env.space.num_x)
        sig = rng.normal(size=(env.space.num_x,) * 2)
        m = MomentCollection2(mu, 0.5 * (sig + sig.T))
        idx = index_fn(env.space)
        diag = noise_diagnostic(env, pol, m, idx, 100_000, seed=3)
        assert abs(diag.mean_error) <= 4 * diag.mean_error_se + 1e-12


class TestRunIncremental:
    def test_alpha_one_sweep_reproduces_operator_on_means(self):
        env = forward_chain()
        pol = Policy.uniform(env.space)
        n_idx = len(enumerate_indices(env.space))
        res = run_incremental(
            env, pol, StepSchedule.constant(1.0), VisitationScheme.sweep(),
            num_updates=n_idx, seed=0,
        )
        exact = apply_t2(env, pol, MomentCollection2.zeros(env.space))
        np.testing.assert_array_equal(res.final.m_mu, exact.m_mu)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_trace_stride_must_be_positive(self, stride):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError, match="trace_stride"):
            run_incremental(
                env, Policy.uniform(env.space), StepSchedule.harmonic(10.0),
                VisitationScheme.sweep(), 100, seed=0, trace_stride=stride,
            )

    def test_same_seed_identical_traces(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        star = jipe2(env, pol, 1e-10).final
        runs = [
            run_incremental(
                env, pol, StepSchedule.harmonic(10.0), VisitationScheme.uniform(),
                20_000, seed=42, fixed_point=star, trace_stride=1_000,
            )
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        np.testing.assert_array_equal(runs[0].final.m_mu, runs[1].final.m_mu)
        np.testing.assert_array_equal(runs[0].final.m_sigma, runs[1].final.m_sigma)

    def test_symmetry_preserved(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        res = run_incremental(
            env, pol, StepSchedule.harmonic(10.0), VisitationScheme.uniform(),
            50_000, seed=1,
        )
        np.testing.assert_array_equal(res.final.m_sigma, res.final.m_sigma.T)

    def test_distance_shrinks_with_budget(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        star = jipe2(env, pol, 1e-12).final
        w = LambdaWeights(env.gamma)
        res = run_incremental(
            env, pol, StepSchedule.harmonic(10.0), VisitationScheme.sweep(),
            400_000, seed=0, fixed_point=star, trace_stride=100_000,
        )
        dists = {k: d for k, d, _ in res.trace}
        assert dists[400_000] < dists[100_000]
        assert lambda_norm(res.final - star, w) == pytest.approx(dists[400_000])


class TestNoiseDiagnostic:
    def test_deterministic_env_zero_noise(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        # deterministic dynamics but policy-randomized next actions: pick a
        # fully deterministic policy to kill all randomness
        det = Policy(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
        diag = noise_diagnostic(env, det, m, Index2("mu", 0), 2_000, seed=0)
        assert diag.mean_error == 0.0
        assert diag.second_moment == 0.0
        assert diag.bound >= 8.0

    def test_crc_zero_moment_bound(self):
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        idx = Index2("sigma", env.space.x(1, 0), env.space.x(1, 1))
        diag = noise_diagnostic(env, pol, m, idx, 10_000, seed=2)
        assert diag.bound == 8.0
        assert diag.second_moment <= 8.0

    def test_second_moment_bounded_for_random_collections(self):
        env = random_env(21, num_states=3, num_actions=2, gamma=0.7)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(0)
        classes = [
            Index2("mu", 2),
            Index2("sigma", 2, 2),
            Index2("sigma", env.space.x(1, 0), env.space.x(1, 1)),
            Index2("sigma", env.space.x(0, 0), env.space.x(2, 1)),
        ]
        for trial in range(5):
            mu = rng.normal(scale=2.0, size=env.space.num_x)
            sig = rng.normal(scale=2.0, size=(env.space.num_x,) * 2)
            m = MomentCollection2(mu, 0.5 * (sig + sig.T))
            for idx in classes:
                diag = noise_diagnostic(env, pol, m, idx, 5_000, seed=trial)
                assert diag.second_moment <= diag.bound

    def test_bound_constants(self):
        c0, c1 = noise_bound_constants(0.9)
        lam = 20.0
        assert c0 == 8.0
        assert c1 == pytest.approx(8.0 * (2 * 0.9 + 0.81 * lam) ** 2)
        c0_small, c1_small = noise_bound_constants(0.05)
        assert c1_small == pytest.approx(
            8.0 * max(0.05**2, (0.1 + 0.05**2 * (2 / 0.95)) ** 2)
        )
