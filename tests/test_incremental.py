import itertools
import tracemalloc

import numpy as np
import pytest

from jmdp.core import (
    MomentCollection2,
    MomentCollectionN,
    StateActionSpace,
    lambda_norm,
)
from jmdp.dp import apply_tn, jipe
from jmdp.env import (
    ExoJmdp,
    NoiseModel,
    Policy,
    build_crc,
    build_wgw,
    wgw_goal_policy,
)
from jmdp import incremental
from jmdp.errors import BudgetError, InvalidInputError, InvalidQueryError
from jmdp.incremental import (
    _CHUNK,
    _coordinate_table,
    _steps,
    check_incremental_budget,
    check_noise_budget,
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


def _ref_backup(env, policy, mu, sig, idx, uniforms):
    """One backup at coordinate idx, (x,) for a mean or (x, y)."""
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
    x, y = idx[0], idx[-1]
    s, a = divmod(x, n_a)
    if len(idx) == 1:
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


def _coordinates(space) -> list:
    """All |X| + |X|^2 coordinates, mu entries first, sigma pairs row-major."""
    n = space.num_x
    return [(x,) for x in range(n)] + list(itertools.product(range(n), repeat=2))


def _ref_run(env, policy, rule, mode, num_updates, seed, m0, fixed_point, stride):
    """Returns (trace, final, visit counts) exactly as run_incremental must."""
    n_x = env.space.num_x
    start = MomentCollection2.zeros(env.space) if m0 is None else m0
    mu, sig = start.m_mu.copy(), start.m_sigma.copy()
    indices = _coordinates(env.space)
    slot_of, slots = {}, []
    for idx in indices:
        slots.append(slot_of.setdefault((len(idx), min(idx), max(idx)), len(slot_of)))
    counts = np.zeros(len(slot_of), dtype=np.int64)
    uniforms = _ref_uniforms(np.random.default_rng(seed))
    trace, alpha = [], float("nan")
    for k in range(num_updates):
        if mode == "sweep":
            pos = k % len(indices)
        else:
            pos = min(int(next(uniforms) * len(indices)), len(indices) - 1)
        idx = indices[pos]
        x, y = idx[0], idx[-1]
        value = _ref_backup(env, policy, mu, sig, idx, uniforms)
        c = counts[slots[pos]]
        alpha = float(rule[1] / (rule[1] + c) if rule[0] == "harmonic" else rule[1])
        counts[slots[pos]] += 1
        if len(idx) == 1:
            mu[x] = (1.0 - alpha) * mu[x] + alpha * value
        else:
            new = (1.0 - alpha) * sig[x, y] + alpha * value
            sig[x, y] = new
            sig[y, x] = new
        if (k + 1) % stride == 0 or k + 1 == num_updates:
            current = MomentCollection2(mu, 0.5 * (sig + sig.T))
            dist = (float("nan") if fixed_point is None
                    else lambda_norm(current - fixed_point, env.gamma))
            trace.append((k + 1, dist, alpha))
    return trace, MomentCollection2(mu, 0.5 * (sig + sig.T)), counts


def _ref_draw_class(n_a, idx):
    """0 mean, 1 diagonal, 2 same state, 3 cross state."""
    x, y = idx[0], idx[-1]
    if len(idx) == 1:
        return 0
    if x == y:
        return 1
    return 2 if x // n_a == y // n_a else 3


def _ref_coordinate_table(space):
    """(draw class, x, y, slot) rows in _coordinates order, slots numbered
    by first appearance of the unordered pair in a dict."""
    rows, slot_of = [], {}
    for idx in _coordinates(space):
        slot = slot_of.setdefault((len(idx), min(idx), max(idx)), len(slot_of))
        rows.append((_ref_draw_class(space.num_actions, idx), idx[0], idx[-1], slot))
    return np.array(rows, dtype=np.int64), len(slot_of)


@pytest.mark.parametrize("states, actions", [(5, 2), (9, 4), (100, 4)],
                         ids=["crc5", "wgw3x3", "wgw10x10"])
def test_coordinate_table_matches_enumeration(states, actions):
    space = StateActionSpace(states, actions)
    table, num_slots = _coordinate_table(space)
    ref_table, ref_slots = _ref_coordinate_table(space)
    assert num_slots == ref_slots
    assert table.dtype == ref_table.dtype and np.array_equal(table, ref_table)


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
# A run also on the 1-action chain, whose pairs are diagonal or cross-state.
RUN_CASES = {**REFERENCE_CASES, "forward": (forward_chain(), None)}


class TestMatchesScalarReference:
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    @pytest.mark.parametrize("mode", ["sweep", "uniform"])
    @pytest.mark.parametrize("rule", [("harmonic", 10.0), ("constant", 0.2)])
    def test_run_is_bit_identical(self, case, mode, rule):
        # Crosses a 64k-uniform block; not a multiple of the stride or the
        # chunk; the stride spans several chunks.
        num_updates, stride = 10 * _CHUNK + 3_001, 3 * _CHUNK + 777
        assert num_updates % stride and num_updates % _CHUNK
        self._check_run(case, mode, rule, num_updates, stride)

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    @pytest.mark.parametrize("mode", ["sweep", "uniform"])
    @pytest.mark.parametrize("rule", [("harmonic", 10.0), ("constant", 0.2)])
    def test_chunk_per_num_x_is_bit_identical(self, case, mode, rule):
        # In sweep mode the first chunk is the mean rows only and the next
        # |X| chunks hold no mean row; in uniform mode some chunks hold none.
        n_x = RUN_CASES[case][0].space.num_x
        self._check_run(case, mode, rule, 2 * (n_x + n_x * n_x) + 5, n_x)

    @staticmethod
    def _check_run(case, mode, rule, num_updates, stride):
        env, pol = RUN_CASES[case]
        pol = pol or Policy.uniform(env.space)
        n_x = env.space.num_x
        rng = np.random.default_rng(11)
        m0 = MomentCollection2(rng.normal(size=n_x), _symmetric(rng, n_x))
        star = jipe(env, pol, 1e-10).final
        ref_trace, ref_final, ref_counts = _ref_run(
            env, pol, rule, mode, num_updates, 5, m0, star, stride
        )
        step = {"rule": rule[0], "c" if rule[0] == "harmonic" else "alpha0": rule[1]}
        counters = []  # the run's visit counters, as each chunk's steps see them
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(incremental, "_steps",
                       lambda counts, *args: counters.append(counts) or _steps(counts, *args))
            res = run_incremental(
                env, pol, num_updates, seed=5, **step, visitation=mode,
                m0=m0, fixed_point=star, trace_stride=stride,
            )
        assert res.trace == ref_trace
        assert [type(a) for _, _, a in res.trace] == [float] * len(ref_trace)
        assert np.array_equal(res.final.m_mu, ref_final.m_mu)
        assert np.array_equal(res.final.m_sigma, ref_final.m_sigma)
        assert all(counts is counters[0] for counts in counters)
        assert np.array_equal(counters[0], ref_counts)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_sample_backup_and_noise_diagnostic(self, case):
        env, pol = REFERENCE_CASES[case]
        pol = pol or Policy.uniform(env.space)
        sp = env.space
        rng = np.random.default_rng(2)
        m = MomentCollection2(rng.normal(size=sp.num_x), _symmetric(rng, sp.num_x))
        exact = apply_tn(env, pol, m)
        for idx, k in [
            ((sp.x(1, 0),), 2),
            ((sp.x(1, 1), sp.x(1, 1)), 2),
            ((sp.x(0, 1), sp.x(0, 0)), 3),
            ((sp.x(2 % sp.num_states, 0), sp.x(1, 1)), 4),
        ]:
            r_new, r_ref = np.random.default_rng(6), np.random.default_rng(6)
            for _ in range(20):
                uniforms = _ref_uniforms(r_ref, block=8)
                expected = _ref_backup(env, pol, m.m_mu, m.m_sigma, idx, uniforms)
                assert sample_backup(env, pol, m, idx, r_new) == expected
            assert r_new.random() == r_ref.random()

            # noise_diagnostic draws rng.random(n) once per draw slot of a
            # backup (k slots), in stream order; sample j reads column j.
            n, rng_diag = 1_000, np.random.default_rng(13)
            block = np.stack([rng_diag.random(n) for _ in range(k)])
            vals = np.array([
                _ref_backup(env, pol, m.m_mu, m.m_sigma, idx, iter(block[:, j].tolist()))
                for j in range(n)
            ])
            target = exact.table(len(idx))[idx]
            omega = vals - float(target)
            diag = noise_diagnostic(env, pol, m, idx, n, seed=13)
            assert diag.mean_error == float(omega.mean())
            assert diag.second_moment == float((omega**2).mean())


class TestSteps:
    def test_harmonic_sequence(self):
        counts = np.zeros(1, dtype=np.int64)
        # Five visits to one slot in one batch: each earlier visit counts.
        alphas = _steps(counts, np.zeros(5, dtype=np.int64), "harmonic", 10.0, 0.1).tolist()
        assert alphas == [1.0, 10 / 11, 10 / 12, 10 / 13, 10 / 14]
        assert counts.tolist() == [5]

    def test_harmonic_satisfies_step_conditions(self):
        # alpha_t = c/(c+t): the sum diverges, the squared sum stays bounded.
        c = 10.0
        t = np.arange(200_000)
        alphas = c / (c + t)
        assert alphas.sum() > 50.0
        assert (alphas**2).sum() < c * (c + 1)

    def test_harmonic_matches_counter_beyond_16_bit_slots(self):
        """70 000 slots key the rank sort as uint32; two batches with repeated
        slots, some above 65 535, take the steps a per-slot counter gives."""
        assert np.min_scalar_type(70_000) == np.uint32
        c, counts = 10.0, np.zeros(70_000, dtype=np.int64)
        rng = np.random.default_rng(8)
        # 0 and 65 536, 4 463 and 69 999: pairs a 16-bit key would merge.
        pool = np.r_[rng.integers(0, 70_000, 300), 0, 65_536, 4_463, 69_999]
        ref = [0] * 70_000
        for _ in range(2):
            slots = rng.choice(pool, 3_000)
            expected = []
            for s in slots.tolist():
                expected.append(c / (c + ref[s]))
                ref[s] += 1
            alphas = _steps(counts, slots, "harmonic", c, 0.1)
            assert alphas.tolist() == expected
        assert counts.tolist() == ref

    def test_constant_step(self):
        counts = np.zeros(3, dtype=np.int64)
        alphas = _steps(counts, np.array([0, 2, 0, 0]), "constant", 10.0, 0.3)
        assert alphas.tolist() == [0.3] * 4
        assert counts.tolist() == [3, 0, 1]


class TestSampleBackup:
    def test_deterministic_env_mu_backup(self):
        env = forward_chain()
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        value = sample_backup(env, pol, m, (0,), np.random.default_rng(0))
        assert value == 0.5

    def test_crc_cross_term_vanishes_at_zero_moments(self):
        env = build_crc(4, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        rng = np.random.default_rng(5)
        idx = (env.space.x(0, 0), env.space.x(0, 1))
        for _ in range(100):
            assert sample_backup(env, pol, m, idx, rng) == 0.0

    @pytest.mark.parametrize(
        "index_fn",
        [
            lambda sp: (sp.x(0, 0),),
            lambda sp: (sp.x(0, 0), sp.x(0, 0)),
            lambda sp: (sp.x(0, 0), sp.x(0, 1)),
            lambda sp: (sp.x(0, 0), sp.x(1, 1)),
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


    @pytest.mark.parametrize("index, match", [
        ((6,), "flat index 6 out of range"), ((-1,), "flat index -1 out of range"),
        ((6, 0), "flat index 6 out of range"), ((-1, 0), "flat index -1 out of range"),
        ((0, 6), "flat index 6 out of range"), ((0, -1), "flat index -1 out of range"),
        # A coordinate is a tuple of one or two integers.
        ((), "has 0 entries"), ((0, 1, 2), "has 3 entries"),
        ((0.0,), "not a tuple of integers"), ((0, 1.5), "not a tuple of integers"),
        ((True,), "not a tuple of integers"), ((0, False), "not a tuple of integers"),
        (0, "not a tuple of integers"), (None, "not a tuple of integers"),
        ("01", "not a tuple of integers"),
    ], ids=["mu_x6", "mu_x-1", "sigma_x6", "sigma_x-1", "sigma_x2_6", "sigma_x2_-1",
            "empty", "three", "float", "float_second", "bool", "bool_second", "bare_int",
            "none", "string"])
    def test_out_of_range_coordinate_rejected_before_any_draw(self, index, match, monkeypatch):
        env = build_crc(3, 0.9)  # |X| = 6
        pol = Policy.uniform(env.space)
        m = MomentCollectionN.zeros(env.space, 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidQueryError, match=match):
            sample_backup(env, pol, m, index, rng)
        assert rng.bit_generator.state == state
        for name in ("_BackupPlan", "_backups"):
            monkeypatch.setattr(incremental, name, _never)
        with pytest.raises(InvalidQueryError, match=match):
            noise_diagnostic(env, pol, m, index, 1000, seed=0)

    @pytest.mark.parametrize("index", [
        [2, 5], np.array([2, 5]), (np.int64(2), np.int8(5)), [4], np.array([4]),
    ], ids=["list", "array", "numpy_ints", "list_mean", "array_mean"])
    def test_integer_sequences_read_as_the_tuple(self, index):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(3)
        sig = rng.normal(size=(6, 6))
        m = MomentCollectionN((rng.normal(size=6), sig + sig.T))
        plain = tuple(int(x) for x in index)
        assert (sample_backup(env, pol, m, index, np.random.default_rng(1))
                == sample_backup(env, pol, m, plain, np.random.default_rng(1)))
        assert (noise_diagnostic(env, pol, m, index, 1000, seed=2)
                == noise_diagnostic(env, pol, m, plain, 1000, seed=2))


def _never(*args, **kwargs):
    raise AssertionError("called")


class TestNoiseBudget:
    @staticmethod
    def _case():
        env = build_crc(3, 0.9)
        rng = np.random.default_rng(4)
        sig = rng.normal(size=(6, 6))
        m = MomentCollection2(rng.normal(size=6), sig + sig.T)
        # The cross-state class draws the most uniforms per sample.
        return env, Policy.uniform(env.space), m, (0, 5)

    @pytest.mark.parametrize("num_samples", [1000, 10_000, 100_000])
    def test_budget_bounds_measured_peak(self, num_samples):
        """Every coordinate class (mean, diagonal, same state, cross state)
        stays within the count, which at 10^5 samples is within 1.25 times
        the measured peak."""
        env, pol, m, idx = self._case()
        noise_diagnostic(env, pol, m, idx, 1000, seed=0)  # imports, outside the trace
        need = check_noise_budget(env, num_samples)
        for idx in ((0,), (0, 0), (0, 1), idx):
            tracemalloc.start()
            try:
                noise_diagnostic(env, pol, m, idx, num_samples, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need
            assert num_samples < 100_000 or need <= 1.25 * peak

    def test_budget_refused_before_any_draw(self, monkeypatch):
        env, pol, m, idx = self._case()
        need = check_noise_budget(env, 1000)
        for name in ("_BackupPlan", "_backups"):
            monkeypatch.setattr(incremental, name, _never)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
        with pytest.raises(BudgetError, match=(f"noise diagnostic of 1000 samples over 6 "
                                               f"coordinates needs {need} bytes; "
                                               f"budget is {need - 1}")):
            noise_diagnostic(env, pol, m, idx, 1000, seed=0)
        monkeypatch.undo()
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
        assert noise_diagnostic(env, pol, m, idx, 1000, seed=0).num_samples == 1000


class TestRunIncremental:
    def test_alpha_one_sweep_reproduces_operator_on_means(self):
        env = forward_chain()
        pol = Policy.uniform(env.space)
        n_idx = len(_coordinates(env.space))
        res = run_incremental(
            env, pol, num_updates=n_idx, seed=0, rule="constant", alpha0=1.0,
            visitation="sweep",
        )
        exact = apply_tn(env, pol, MomentCollection2.zeros(env.space))
        np.testing.assert_array_equal(res.final.m_mu, exact.m_mu)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_trace_stride_must_be_positive(self, stride):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError, match="trace_stride"):
            run_incremental(
                env, Policy.uniform(env.space), 100, seed=0, visitation="sweep",
                trace_stride=stride,
            )

    def test_negative_seed_rejected_before_any_work(self, monkeypatch):
        env = build_crc(3, 0.9)
        for name in ("check_incremental_budget", "_coordinate_table", "_sample_terms"):
            monkeypatch.setattr(incremental, name, _never)
        with pytest.raises(InvalidInputError, match="^seed: must be an integer >= 0, got -3$"):
            run_incremental(
                env, Policy.uniform(env.space), 100, seed=-3, visitation="sweep",
            )

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"rule": "bogus"}, InvalidQueryError, "^rule: unknown value 'bogus'"),
        ({"visitation": "bogus"}, InvalidQueryError, "^visitation: unknown value 'bogus'"),
        ({"c": -5.0}, InvalidInputError, r"^c: must be a number in \(0, inf\)"),
        ({"c": float("nan")}, InvalidInputError, r"^c: must be a number in \(0, inf\)"),
        ({"rule": "constant", "c": float("nan")}, InvalidInputError,
         r"^c: must be a number in \(0, inf\)"),
        ({"rule": "constant", "alpha0": 0.0}, InvalidInputError,
         r"^alpha0: must be a number in \(0, 1\]"),
        ({"rule": "constant", "alpha0": 1.5}, InvalidInputError,
         r"^alpha0: must be a number in \(0, 1\]"),
        ({"rule": "constant", "alpha0": float("nan")}, InvalidInputError,
         r"^alpha0: must be a number in \(0, 1\]"),
        ({"alpha0": 7.0}, InvalidInputError, r"^alpha0: must be a number in \(0, 1\]"),
    ], ids=["rule_bogus", "visitation_bogus", "harmonic_negative", "harmonic_nan",
            "constant_rule_c_nan", "constant_zero", "constant_above_one", "constant_nan",
            "harmonic_rule_alpha0_seven"])
    def test_step_rule_and_visitation_rejected_before_any_work(
        self, kwargs, error, match, monkeypatch
    ):
        """Each value is checked whichever rule reads it, before the budget
        count, the coordinate table and any draw."""
        env = build_crc(3, 0.9)
        for name in ("check_incremental_budget", "_coordinate_table", "_sample_terms"):
            monkeypatch.setattr(incremental, name, _never)
        with pytest.raises(error, match=match):
            run_incremental(env, Policy.uniform(env.space), 100, seed=0, **kwargs)

    def test_integer_like_seed_reads_as_the_int(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        a, b = (run_incremental(env, pol, 500, seed=seed)
                for seed in (7, np.int64(7)))
        assert a.final.m_sigma.tobytes() == b.final.m_sigma.tobytes()

    @pytest.mark.parametrize("arg", ["m0", "fixed_point"])
    def test_tables_sized_for_another_env_rejected(self, arg):
        env = build_crc(3, 0.9)
        other = MomentCollection2.zeros(build_crc(4, 0.9).space)
        with pytest.raises(InvalidInputError, match="8 coordinates"):
            run_incremental(
                env, Policy.uniform(env.space), 100, seed=0, visitation="sweep",
                **{arg: other},
            )

    def test_same_seed_identical_traces(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        star = jipe(env, pol, 1e-10).final
        runs = [
            run_incremental(
                env, pol, 20_000, seed=42, fixed_point=star, trace_stride=1_000,
            )
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        np.testing.assert_array_equal(runs[0].final.m_mu, runs[1].final.m_mu)
        np.testing.assert_array_equal(runs[0].final.m_sigma, runs[1].final.m_sigma)

    def test_symmetry_preserved(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        res = run_incremental(env, pol, 50_000, seed=1)
        assert res.final.m_sigma.tobytes() == res.final.m_sigma.T.tobytes()

    def test_asymmetric_start_is_symmetrized(self):
        """m0's second moment, asymmetric within the symmetry tolerance, starts
        the run as 0.5 (s + s^T): every read sees it, a pair no update visits
        keeps its bytes, and the result is symmetric bit for bit."""
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        n_x = env.space.num_x
        rng = np.random.default_rng(21)
        sig = _symmetric(rng, n_x) + np.triu(rng.uniform(-4e-10, 4e-10, (n_x, n_x)), 1)
        m0 = MomentCollection2(rng.normal(size=n_x), sig)
        assert not np.array_equal(sig, sig.T)
        start = 0.5 * (sig + sig.T)
        res = run_incremental(env, pol, 30, seed=4, rule="constant", alpha0=0.3, m0=m0)
        _, ref_final, ref_counts = _ref_run(env, pol, ("constant", 0.3), "uniform", 30, 4,
                                            MomentCollection2(m0.m_mu, start), None, 30)
        _, raw_final, _ = _ref_run(env, pol, ("constant", 0.3), "uniform", 30, 4, m0, None, 30)
        out = res.final.m_sigma
        assert out.tobytes() == ref_final.m_sigma.tobytes()
        assert not np.array_equal(out, raw_final.m_sigma)  # reads of the raw start differ
        assert res.final.m_mu.tobytes() == ref_final.m_mu.tobytes()
        assert out.tobytes() == out.T.tobytes()
        table, _ = _coordinate_table(env.space)
        unvisited = (ref_counts[table[n_x:, 3]] == 0).reshape(n_x, n_x)
        assert unvisited.any() and not unvisited.all()
        assert out[unvisited].tobytes() == start[unvisited].tobytes()

    def test_distance_shrinks_with_budget(self):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        star = jipe(env, pol, 1e-12).final
        res = run_incremental(
            env, pol, 400_000, seed=0, visitation="sweep", fixed_point=star, trace_stride=100_000,
        )
        dists = {k: d for k, d, _ in res.trace}
        assert dists[400_000] < dists[100_000]
        assert lambda_norm(res.final - star, env.gamma) == pytest.approx(dists[400_000])

    def test_only_the_result_is_a_collection(self, monkeypatch):
        # Checkpoint distances are taken on raw tables; the one checked
        # collection is the final result.
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        star = jipe(env, pol, 1e-10).final
        builds = []
        check = MomentCollectionN.__post_init__
        monkeypatch.setattr(MomentCollectionN, "__post_init__",
                            lambda self: builds.append(1) or check(self))
        res = run_incremental(
            env, pol, 5_000, seed=0, fixed_point=star, trace_stride=1_000,
        )
        assert len(res.trace) == 5 and all(np.isfinite(d) for _, d, _ in res.trace)
        assert len(builds) == 1


class TestNoiseDiagnostic:
    def test_negative_seed_rejected_before_any_work(self, monkeypatch):
        env = build_crc(3, 0.9)
        m = MomentCollection2.zeros(env.space)
        for name in ("check_noise_budget", "_BackupPlan", "_backups"):
            monkeypatch.setattr(incremental, name, _never)
        with pytest.raises(InvalidInputError, match="^seed: must be an integer >= 0, got -1$"):
            noise_diagnostic(env, Policy.uniform(env.space), m, (0, 1), 1000, seed=-1)

    def test_deterministic_env_zero_noise(self):
        env = build_wgw(2, 2, (0, 1), 0.0, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        # deterministic dynamics but policy-randomized next actions: pick a
        # fully deterministic policy to kill all randomness
        det = Policy(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
        diag = noise_diagnostic(env, det, m, (0,), 2_000, seed=0)
        assert diag.mean_error == 0.0
        assert diag.second_moment == 0.0
        assert diag.bound >= 8.0

    def test_crc_zero_moment_bound(self):
        env = build_crc(5, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollection2.zeros(env.space)
        idx = (env.space.x(1, 0), env.space.x(1, 1))
        diag = noise_diagnostic(env, pol, m, idx, 10_000, seed=2)
        assert diag.bound == 8.0
        assert diag.second_moment <= 8.0

    def test_second_moment_bounded_for_random_collections(self):
        env = random_env(21, num_states=3, num_actions=2, gamma=0.7)
        pol = Policy.uniform(env.space)
        rng = np.random.default_rng(0)
        classes = [
            (2,),
            (2, 2),
            (env.space.x(1, 0), env.space.x(1, 1)),
            (env.space.x(0, 0), env.space.x(2, 1)),
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


@pytest.mark.parametrize("make", [
    lambda: build_crc(3, 0.9),
    lambda: build_wgw(6, 6, (0, 5), 0.3, 0.9),
], ids=["crc3", "wgw6x6"])
@pytest.mark.parametrize("visitation", ["uniform", "sweep"])
def test_budget_bounds_measured_peak(make, visitation, monkeypatch):
    """One byte below check_incremental_budget refuses before any work; at the
    count, a run that starts from m0 and takes checkpoint distances peaks
    within it under tracemalloc."""
    env = make()
    pol = Policy.uniform(env.space)
    ref = jipe(env, pol, 1e-6).final

    def run():
        return run_incremental(env, pol, 3 * _CHUNK, seed=0, visitation=visitation, m0=ref, fixed_point=ref, trace_stride=_CHUNK)

    need = check_incremental_budget(env)
    monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need - 1)
    with pytest.raises(BudgetError, match=(f"incremental run over {env.space.num_x} "
                                           f"coordinates needs {need} bytes; budget is {need - 1}")):
        run()
    monkeypatch.setattr("jmdp.core.BUDGET_BYTES", need)
    run()  # the first run imports the seed machinery's modules
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
