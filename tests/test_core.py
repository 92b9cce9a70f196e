import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jmdp
from jmdp.cli import RunConfig
from jmdp.core import (
    MomentCollection2,
    MomentCollectionN,
    StateActionSpace,
    lambda_norm,
)
from jmdp.dp import jipe
from jmdp.env import (ExoJmdp, Policy, build_crc, build_hub_successors, build_indep_successors,
                      build_ring_chain, build_shared_successors, build_wgw, child_seed,
                      induced_jstm, wgw_goal_policy)
from jmdp.errors import BudgetError, ConfigError, InvalidInputError, InvalidQueryError
from jmdp.fa import (beta_weight, check_coupling_budget, coupling_coefficient, identity_features,
                     projected_jipe2, state_poly_features, state_ramp_features)
from jmdp.incremental import (
    _coordinate_table,
    noise_bound_constants,
    noise_diagnostic,
    run_incremental,
)
from jmdp.stats import (cantelli_bound, corr_matrix, gap_stats, mc_state_block,
                        truncation_horizon)


def random_collection(rng, num_x, scale=1.0):
    mu = scale * rng.normal(size=num_x)
    sig = scale * rng.normal(size=(num_x, num_x))
    return MomentCollection2(mu, 0.5 * (sig + sig.T))


class TestSpace:
    def test_flat_index_round_trips(self):
        space = StateActionSpace(7, 3)
        seen = set()
        for s in range(7):
            for a in range(3):
                x = space.x(s, a)
                assert space.sa(x) == (s, a)
                seen.add(x)
        assert seen == set(range(21))

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(InvalidInputError):
            StateActionSpace(0, 2)
        with pytest.raises(InvalidInputError):
            StateActionSpace(3, 0)

    def test_out_of_range_queries(self):
        space = StateActionSpace(2, 2)
        with pytest.raises(InvalidQueryError):
            space.x(2, 0)
        with pytest.raises(InvalidQueryError):
            space.sa(4)


class TestCheckGamma:
    """Every public function that takes a bare gamma runs core._check_gamma
    first, so a discount outside (0, 1), nan included, is one typed error."""

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("call", [
        lambda g: lambda_norm([np.zeros(2)], g),
        lambda g: beta_weight(g, 1.0),
        lambda g: truncation_horizon(g, 1e-3),
        noise_bound_constants,
    ], ids=["lambda_norm", "beta_weight", "truncation_horizon", "noise_bound_constants"])
    def test_rejects_gamma_outside_unit_interval(self, call, gamma):
        with pytest.raises(InvalidInputError, match="gamma"):
            call(gamma)


class TestCheckInt:
    """Every count, order, seed, size and goal coordinate is read through
    operator.index by core._check_int, so a fractional or bool value is one
    typed error naming the argument, raised before any budget count (a zero
    budget refuses every count), build or draw."""

    @pytest.mark.parametrize("name, call", [
        ("max_iter", lambda env, pol, m: jipe(env, pol, 1e-8, 2.5)),
        ("order", lambda env, pol, m: jipe(env, pol, 1e-8, order=2.5)),
        ("num_updates", lambda env, pol, m: run_incremental(env, pol, 2.5, seed=0)),
        ("trace_stride", lambda env, pol, m: run_incremental(env, pol, 10, seed=0,
                                                             trace_stride=2.5)),
        ("seed", lambda env, pol, m: run_incremental(env, pol, 10, seed=0.5)),
        ("num_samples", lambda env, pol, m: noise_diagnostic(env, pol, m, (0,), 1000.5,
                                                             seed=0)),
        ("seed", lambda env, pol, m: noise_diagnostic(env, pol, m, (0,), 1000, seed=0.5)),
        ("num_rollouts", lambda env, pol, m: mc_state_block(env, pol, 0, (0, 1), 2.5, 1e-3,
                                                            seed=0)),
        ("seed", lambda env, pol, m: mc_state_block(env, pol, 0, (0, 1), 100, 1e-3,
                                                    seed=0.5)),
        ("order", lambda env, pol, m: MomentCollectionN.zeros(env.space, 2.5)),
    ], ids=["jipe-max_iter", "jipe-order", "run_incremental-num_updates",
            "run_incremental-trace_stride", "run_incremental-seed",
            "noise_diagnostic-num_samples", "noise_diagnostic-seed",
            "mc_state_block-num_rollouts", "mc_state_block-seed", "zeros-order"])
    def test_fractional_argument_rejected_before_any_count(self, name, call, monkeypatch):
        env = build_crc(3, 0.9)
        pol = Policy.uniform(env.space)
        m = MomentCollectionN.zeros(env.space, 2)
        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", 0)
        with pytest.raises(InvalidInputError, match=f"^{name}: must be an integer >= \\d+, got "):
            call(env, pol, m)

    @pytest.mark.parametrize("name, call", [
        ("num_states", lambda: StateActionSpace(2.5, 2)),
        ("num_actions", lambda: StateActionSpace(2, 2.5)),
        ("num_states", lambda: build_crc(2.5, 0.9)),
        ("num_states", lambda: build_ring_chain(3.5, 0.9)),
        ("goal_cell", lambda: build_wgw(3, 3, (0, 2.7), 0.3, 0.9)),
        ("goal_cell", lambda: wgw_goal_policy(3, 3, (0, 2.7))),
        ("width", lambda: build_wgw(2.5, 2, (0, 1), 0.3, 0.9)),
        ("height", lambda: build_wgw(2, 2.5, (0, 1), 0.3, 0.9)),
        ("width", lambda: wgw_goal_policy(2.5, 2, (0, 1))),
        ("height", lambda: wgw_goal_policy(2, 2.5, (0, 1))),
        ("degree", lambda: state_poly_features(3, 2, 1.5)),
    ], ids=["space-num_states", "space-num_actions", "build_crc", "build_ring_chain",
            "build_wgw-goal", "wgw_goal_policy-goal", "build_wgw-width", "build_wgw-height",
            "wgw_goal_policy-width", "wgw_goal_policy-height", "state_poly_features-degree"])
    def test_fractional_size_rejected(self, name, call):
        with pytest.raises(InvalidInputError,
                           match=f"^{name}: must be an integer( >= \\d+)?, got "):
            call()

    @pytest.mark.parametrize("name, call", [
        ("max_iter", lambda env, pol: jipe(env, pol, 1e-8, max_iter=True)),
        ("order", lambda env, pol: jipe(env, pol, 1e-8, order=True)),
        ("num_updates", lambda env, pol: run_incremental(env, pol, True, seed=0)),
        ("seed", lambda env, pol: run_incremental(env, pol, 10, seed=False)),
        ("num_states", lambda env, pol: StateActionSpace(True, 2)),
        ("degree", lambda env, pol: state_poly_features(3, 2, True)),
        ("width", lambda env, pol: build_wgw(True, 2, (0, 0), 0.3, 0.9)),
        ("height", lambda env, pol: wgw_goal_policy(2, True, (0, 0))),
    ], ids=["jipe-max_iter", "jipe-order", "run_incremental-num_updates",
            "run_incremental-seed", "space-num_states", "state_poly_features-degree",
            "build_wgw-width", "wgw_goal_policy-height"])
    def test_bool_rejected(self, name, call):
        env = build_crc(3, 0.9)
        with pytest.raises(InvalidInputError,
                           match=f"^{name}: must be an integer >= \\d+, got (True|False)"):
            call(env, Policy.uniform(env.space))

    @pytest.mark.parametrize("error, match, call", [
        (InvalidInputError, "^num_states: must be an integer >= 2, got 1$",
         lambda: build_crc(1, 0.9)),
        (InvalidInputError, "^num_states: must be an integer >= 3, got 2$",
         lambda: build_ring_chain(2, 0.9)),
        (InvalidInputError, "^num_states: must be an integer >= 2, got 1$",
         lambda: build_indep_successors(1, 0.9)),
        (InvalidInputError, "^num_states: must be an integer >= 2, got 1$",
         lambda: build_shared_successors(1, 0.9)),
        (InvalidInputError, "^num_states: must be an integer >= 3, got 2$",
         lambda: build_hub_successors(2, 0.9)),
        (ConfigError, r"goal cell \(-1, 0\) outside the 3x3 grid",
         lambda: build_wgw(3, 3, (-1, 0), 0.3, 0.9)),
        (InvalidInputError, "^width: must be an integer >= 1, got 0$",
         lambda: build_wgw(0, 3, (0, 0), 0.3, 0.9)),
        (InvalidInputError, "^height: must be an integer >= 1, got 0$",
         lambda: wgw_goal_policy(3, 0, (0, 0))),
        (InvalidInputError, "^num_states: must be an integer >= 1, got 0$",
         lambda: StateActionSpace(0, 2)),
        (InvalidInputError, "^degree: must be an integer >= 0, got -1$",
         lambda: state_poly_features(3, 2, -1)),
    ], ids=["build_crc", "build_ring_chain", "build_indep_successors",
            "build_shared_successors", "build_hub_successors", "build_wgw-goal", "build_wgw-width",
            "wgw_goal_policy-height", "space", "state_poly_features"])
    def test_too_small_integer_keeps_its_message(self, error, match, call):
        with pytest.raises(error, match=match):
            call()


def _scalar_calls():
    """(id, parameter name the refusal must start with, whether it is an
    integer, call(value)) for every scalar parameter of the API."""
    env = build_crc(3, 0.9)
    pol = Policy.uniform(env.space)
    m = MomentCollectionN.zeros(env.space, 2)
    nu = np.full(env.space.num_x, 1.0 / env.space.num_x)
    features = identity_features(env.space.num_x)
    mc = lambda **kw: mc_state_block(env, pol, **{"s": 0, "actions": (0, 1), "num_rollouts": 10,
                                                   "trunc_tol": 1e-3, "seed": 0, **kw})
    inc = lambda **kw: run_incremental(env, pol, **{"num_updates": 10, "seed": 0, **kw})
    ints = [
        ("space-num_states", "num_states", lambda v: StateActionSpace(v, 2)),
        ("space-num_actions", "num_actions", lambda v: StateActionSpace(2, v)),
        ("space.x-s", "s", lambda v: env.space.x(v, 0)),
        ("space.x-a", "a", lambda v: env.space.x(0, v)),
        ("space.sa-x", "x", env.space.sa),
        ("zeros-order", "order", lambda v: MomentCollectionN.zeros(env.space, v)),
        ("table-k", "k", m.table),
        ("jipe-max_iter", "max_iter", lambda v: jipe(env, pol, 1e-8, v)),
        ("jipe-order", "order", lambda v: jipe(env, pol, 1e-8, order=v)),
        ("projected_jipe2-max_iter", "max_iter",
         lambda v: projected_jipe2(env, pol, features, nu, 1e-8, v)),
        *((f"{b.__name__}-num_states", "num_states", lambda v, b=b: b(v, 0.9))
          for b in (build_crc, build_ring_chain, build_indep_successors,
                    build_shared_successors, build_hub_successors)),
        ("build_wgw-width", "width", lambda v: build_wgw(v, 3, (0, 2), 0.3, 0.9)),
        ("build_wgw-height", "height", lambda v: build_wgw(3, v, (0, 2), 0.3, 0.9)),
        ("wgw_goal_policy-width", "width", lambda v: wgw_goal_policy(v, 3, (0, 2))),
        ("wgw_goal_policy-height", "height", lambda v: wgw_goal_policy(3, v, (0, 2))),
        ("child_seed-root_seed", "root_seed", lambda v: child_seed(v, 0)),
        ("child_seed-stream_index", "stream_index", lambda v: child_seed(0, v)),
        ("induced_jstm-s", "s", lambda v: induced_jstm(env, v, (0, 1))),
        ("induced_jstm-actions", "actions", lambda v: induced_jstm(env, 0, (0, v))),
        ("identity_features-num_x", "num_x", identity_features),
        ("state_poly_features-num_states", "num_states", lambda v: state_poly_features(v, 2, 1)),
        ("state_poly_features-num_actions", "num_actions",
         lambda v: state_poly_features(3, v, 1)),
        ("state_poly_features-degree", "degree", lambda v: state_poly_features(3, 2, v)),
        ("state_ramp_features-num_states", "num_states", lambda v: state_ramp_features(v, 2)),
        ("state_ramp_features-num_actions", "num_actions", lambda v: state_ramp_features(3, v)),
        ("run_incremental-num_updates", "num_updates", lambda v: inc(num_updates=v)),
        ("run_incremental-seed", "seed", lambda v: inc(seed=v)),
        ("run_incremental-trace_stride", "trace_stride", lambda v: inc(trace_stride=v)),
        ("noise_diagnostic-num_samples", "num_samples",
         lambda v: noise_diagnostic(env, pol, m, (0,), v, 0)),
        ("noise_diagnostic-seed", "seed", lambda v: noise_diagnostic(env, pol, m, (0,), 1000, v)),
        ("gap_stats-s", "s", lambda v: gap_stats(env.space, m, v, 0, 1)),
        ("gap_stats-a", "a", lambda v: gap_stats(env.space, m, 0, v, 1)),
        ("gap_stats-a_tilde", "a_tilde", lambda v: gap_stats(env.space, m, 0, 0, v)),
        ("corr_matrix-s", "s", lambda v: corr_matrix(env.space, m, v)),
        ("mc_state_block-s", "s", lambda v: mc(s=v)),
        ("mc_state_block-actions", "actions", lambda v: mc(actions=(0, v))),
        ("mc_state_block-num_rollouts", "num_rollouts", lambda v: mc(num_rollouts=v)),
        ("mc_state_block-seed", "seed", lambda v: mc(seed=v)),
    ]
    others = [
        ("lambda_norm-gamma", "gamma", lambda v: lambda_norm(m, v)),
        ("ExoJmdp-gamma", "gamma", lambda v: ExoJmdp(env.space, env.noise, env.g, env.h, v)),
        *((f"{b.__name__}-gamma", "gamma", lambda v, b=b: b(3, v))
          for b in (build_crc, build_ring_chain, build_indep_successors,
                    build_shared_successors, build_hub_successors)),
        ("build_hub_successors-hub_probs", "hub_probs",
         lambda v: build_hub_successors(3, 0.9, hub_probs=v)),
        ("build_wgw-p_wind", "p_wind", lambda v: build_wgw(3, 3, (0, 2), v, 0.9)),
        ("build_wgw-gamma", "gamma", lambda v: build_wgw(3, 3, (0, 2), 0.3, v)),
        ("jipe-epsilon", "epsilon", lambda v: jipe(env, pol, v)),
        ("projected_jipe2-epsilon", "epsilon",
         lambda v: projected_jipe2(env, pol, features, nu, v)),
        ("beta_weight-gamma", "gamma", lambda v: beta_weight(v, 1.0)),
        ("beta_weight-sqrt_c_rho", "sqrt_c_rho", lambda v: beta_weight(0.9, v)),
        ("coupling_coefficient-mode", "mode", lambda v: coupling_coefficient(env, pol, nu, v)),
        ("check_coupling_budget-mode", "mode", lambda v: check_coupling_budget(env, v)),
        ("run_incremental-rule", "rule", lambda v: inc(rule=v)),
        ("run_incremental-c", "c", lambda v: inc(c=v)),
        ("run_incremental-alpha0", "alpha0", lambda v: inc(alpha0=v)),
        ("run_incremental-visitation", "visitation", lambda v: inc(visitation=v)),
        ("noise_bound_constants-gamma", "gamma", noise_bound_constants),
        ("truncation_horizon-gamma", "gamma", lambda v: truncation_horizon(v, 1e-3)),
        ("truncation_horizon-tol", "tol", lambda v: truncation_horizon(0.9, v)),
        ("cantelli_bound-mean", "mean", lambda v: cantelli_bound(v, 0.5)),
        ("cantelli_bound-variance", "variance", lambda v: cantelli_bound(1.0, v)),
        ("mc_state_block-trunc_tol", "tol", lambda v: mc(trunc_tol=v)),
        ("mc_state_block-confidence", "confidence", lambda v: mc(confidence=v)),
        ("mc_state_block-continuation_coupling", "continuation_coupling",
         lambda v: mc(continuation_coupling=v)),
    ]
    return [(i, n, True, c) for i, n, c in ints] + [(i, n, False, c) for i, n, c in others]


_SCALAR_CALLS = _scalar_calls()


class TestScalarParameters:
    """Every scalar parameter of the API reads through core's integer, number
    or choice check: a string, None, a bool, nan or inf (and 1.5 for an
    integer) is an InvalidInputError or InvalidQueryError whose message starts
    with the parameter's name, raised before any budget count (the budget is
    zero), environment, feature map or rollout is built."""

    @pytest.mark.parametrize("name, call, value", [
        pytest.param(name, call, value, id=f"{ident}-{vid}")
        for ident, name, integer, call in _SCALAR_CALLS
        for vid, value in [("str", "1"), ("None", None), ("True", True), ("nan", float("nan")),
                           ("inf", float("inf"))] + [("1.5", 1.5)] * integer
    ])
    def test_bad_value_refused_naming_the_parameter(self, name, call, value, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr("jmdp.core.BUDGET_BYTES", 0)
        for target in ("jmdp.env.StateActionSpace", "jmdp.env.Policy", "jmdp.env._groups",
                       "jmdp.fa.FeatureMap", "jmdp.stats._branch_returns"):
            monkeypatch.setattr(target, never)
        with pytest.raises((InvalidInputError, InvalidQueryError),
                           match=rf"^{name}(\[\d\])?: "):
            call(value)


def _agreement_cases():
    """config field -> (its section, the rest of that section, the API call
    its value feeds, the name that call's check reads it under)."""
    env = build_crc(3, 0.9)
    pol = Policy.uniform(env.space)
    inc = {"name": "incremental"}
    mc = lambda **kw: mc_state_block(env, pol, **{"s": 0, "actions": (0, 1), "num_rollouts": 10,
                                                   "trunc_tol": 1e-3, "seed": 0, **kw})
    inc_run = lambda **kw: run_incremental(env, pol, 10, 0, **kw)
    return {
        "num_states": ("env", {"builtin": "crc"}, lambda v: build_crc(v, 0.9), "num_states"),
        "gamma": ("env", {"builtin": "crc"}, lambda v: build_crc(3, v), "gamma"),
        "p_wind": ("env", {"builtin": "wgw"}, lambda v: build_wgw(3, 3, (0, 2), v, 0.9),
                   "p_wind"),
        "epsilon": ("algorithm", {"name": "dp2"}, lambda v: jipe(env, pol, v), "epsilon"),
        "c": ("algorithm", inc, lambda v: inc_run(c=v), "c"),
        "alpha0": ("algorithm", {**inc, "rule": "constant"},
                   lambda v: inc_run(rule="constant", alpha0=v), "alpha0"),
        "rule": ("algorithm", inc, lambda v: inc_run(rule=v), "rule"),
        "visitation": ("algorithm", inc, lambda v: inc_run(visitation=v), "visitation"),
        "confidence": ("analysis", {}, lambda v: mc(confidence=v), "confidence"),
        "trunc_tol": ("analysis", {}, lambda v: mc(trunc_tol=v), "tol"),
    }


_AGREEMENT = _agreement_cases()
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 5e-324, 0.5, 1.0 - 2**-53, 1e308, 10**400, "0.5", "harmonic",
                     "constant", "uniform", "sweep"]),
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(sorted(_AGREEMENT)), value=_JSON_VALUES)
def test_config_field_and_api_parameter_agree(field, value):
    """A config field and the API parameter it feeds accept and refuse the
    same values, and read an accepted value as the same number or string."""
    section, doc, call, name = _AGREEMENT[field]
    config = {"format_version": 1, "env": {"builtin": "crc"}, "algorithm": {"name": "dp2"},
              section: {**doc, field: value}}
    try:
        parsed = getattr(RunConfig(config), {"env": "env_spec"}.get(section, section))[field]
    except ConfigError as exc:
        assert str(exc).startswith(f"config.{section}.{field}: ")
        parsed = None
    read = {}

    def spy(check):
        def record(label, v, *args):
            read[label] = check(label, v, *args)
            return read[label]
        return record

    class ChecksPassed(Exception):
        """Raised by the first object a builder makes once its checks pass."""

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(jmdp.core, "BUDGET_BYTES", 0))
        stack.enter_context(mock.patch.object(jmdp.env, "StateActionSpace",
                                              side_effect=ChecksPassed))
        for module in (jmdp.core, jmdp.env, jmdp.dp, jmdp.incremental, jmdp.stats):
            for check in ("_check_int", "_check_real", "_check_choice"):
                if hasattr(module, check):
                    stack.enter_context(
                        mock.patch.object(module, check, spy(getattr(module, check))))
        try:
            call(value)
        except (InvalidInputError, InvalidQueryError) as exc:
            assert str(exc).startswith(f"{name}: ")
            assert parsed is None, f"the API refuses {value!r}, the config reads {parsed!r}"
            return
        except (BudgetError, ChecksPassed):  # every check passed; the work is stopped
            pass
    assert parsed is not None, f"the config refuses {value!r}, the API accepts it"
    assert type(read[name]) is type(parsed) and read[name] == parsed


class TestMomentCollections:
    def test_sigma_symmetry_enforced(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(InvalidInputError):
            MomentCollection2(np.zeros(2), bad)

    def test_tables_are_read_only(self):
        m = MomentCollection2.zeros(StateActionSpace(2, 1))
        with pytest.raises(ValueError):
            m.m_mu[0] = 1.0

    def test_order_tables_must_be_permutation_invariant(self):
        t1 = np.zeros(2)
        t2 = np.zeros((2, 2))
        t2[0, 1] = 3.0
        with pytest.raises(InvalidInputError):
            MomentCollectionN((t1, t2))

    @pytest.mark.parametrize(
        "entry, value, axes",
        # (0,0,0,1) is invariant under swapping axes (0,1) and (1,2), not (2,3).
        [((0, 0, 0, 1), 1e-6, "2,3"), ((1, 1, 1, 1), np.nan, "0,1")],
        ids=["last_axis_pair", "nan"],
    )
    def test_order4_table_defects_rejected(self, entry, value, axes):
        t4 = np.zeros((3,) * 4)
        t4[entry] = value
        tables = (np.zeros(3), np.zeros((3, 3)), np.zeros((3,) * 3), t4)
        with pytest.raises(InvalidInputError, match=f"axes {axes}"):
            MomentCollectionN(tables)

    def test_sigma_nan_rejected(self):
        with pytest.raises(InvalidInputError, match="symmetric"):
            MomentCollection2(np.zeros(2), [[0.0, np.nan], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "tables, match",
        [
            (([np.nan, 0.0], np.zeros((2, 2))), "order-1"),
            (([-np.inf, 0.0], np.zeros((2, 2))), "order-1"),
            ((np.zeros(1), [[np.inf]]), "axes 0,1"),
            ((np.zeros(1), [[np.nan]]), "axes 0,1"),
            ((np.zeros(2), [[np.inf, 0.0], [0.0, np.inf]]), "axes 0,1"),
            ((np.zeros(2), np.zeros((2, 2)), np.full((2, 2, 2), np.inf)), "axes 0,1"),
            ((np.zeros(2), [[0.0, 1e308], [-1e308, 0.0]]), "axes 0,1"),
        ],
        ids=["nan_mu", "neg_inf_mu", "inf_diagonal", "nan_diagonal",
             "symmetric_inf_sigma", "inf_order3", "overflowing_asymmetry"],
    )
    def test_nonfinite_entries_rejected_without_warning(self, tables, match):
        # Warnings fail the suite, so a RuntimeWarning from inf - inf or an
        # overflow would too.
        with pytest.raises(InvalidInputError, match=match):
            MomentCollectionN(tables)
        if len(tables) == 2:
            with pytest.raises(InvalidInputError, match=match):
                MomentCollection2(*tables)

    def test_defect_past_the_first_block_rejected(self):
        # 200 coordinates: the order-2 check compares 40 rows at a time.
        sig = np.zeros((200, 200))
        sig[150, 3] = 1e-6
        with pytest.raises(InvalidInputError, match="axes 0,1"):
            MomentCollection2(np.zeros(200), sig)
        sig[3, 150] = 1e-6 + 1e-10  # within the absolute tolerance
        MomentCollection2(np.zeros(200), sig)

    def test_order2_constructor_is_an_order2_collection(self):
        rng = np.random.default_rng(0)
        m = random_collection(rng, 3)
        assert isinstance(m, MomentCollectionN) and m.order == 2
        np.testing.assert_array_equal(m.table(1), m.m_mu)
        np.testing.assert_array_equal(m.table(2), m.m_sigma)
        t3 = np.zeros((3, 3, 3))
        m3 = MomentCollectionN((m.m_mu, m.m_sigma, t3))
        np.testing.assert_array_equal(m3.m_sigma, m.m_sigma)
        with pytest.raises(InvalidQueryError):
            MomentCollectionN((np.zeros(3),)).m_sigma

    def test_difference_checks_order_and_size(self):
        rng = np.random.default_rng(1)
        a, b = random_collection(rng, 3), random_collection(rng, 3)
        d = a - b
        assert d.order == 2
        np.testing.assert_array_equal(d.m_sigma, a.m_sigma - b.m_sigma)
        with pytest.raises(InvalidInputError):
            a - MomentCollectionN.zeros(StateActionSpace(3, 1), 3)
        with pytest.raises(InvalidInputError):
            a - random_collection(rng, 4)

    def test_order3_zeros_shape(self):
        m = MomentCollectionN.zeros(StateActionSpace(2, 2), 3)
        assert m.order == 3
        assert m.table(3).shape == (4, 4, 4)


class TestLambdaNorm:
    def test_zero_case(self):
        space = StateActionSpace(3, 2)
        assert lambda_norm(MomentCollection2.zeros(space), 0.9) == 0.0

    def test_mu_only(self):
        m = MomentCollection2(np.ones(6), np.zeros((6, 6)))
        assert lambda_norm(m, 0.9) == 1.0

    def test_sigma_scaling(self):
        m = MomentCollection2(np.zeros(6), np.full((6, 6), 40.0))
        assert lambda_norm(m, 0.9) == pytest.approx(2.0)  # lam = 20

    def test_nonfinite_rejected(self):
        # A collection cannot hold inf, so the norm's own check sees raw tables.
        mu = np.zeros(2)
        mu[0] = np.inf
        with pytest.raises(InvalidInputError):
            lambda_norm((mu, np.zeros((2, 2))), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nonfinite_entry_of_any_order_rejected(self, k, bad):
        tables = [np.zeros((3,) * j) for j in range(1, 4)]
        tables[k - 1][(1,) * k] = bad
        with pytest.raises(InvalidInputError,
                           match=f"^order-{k} table contains non-finite entries$"):
            lambda_norm(tables, 0.9)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 3), gamma=st.floats(0.01, 0.99), data=st.data())
    def test_order_term_matches_two_pass_formula(self, k, gamma, data):
        """One order's term, the one residual formula of every solver, equals
        the two-pass form (an isfinite pass, then max(abs)) bit for bit."""
        n = data.draw(st.integers(1, 4))
        entries = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n**k, max_size=n**k))
        t = np.array(entries).reshape((n,) * k)
        assert np.all(np.isfinite(t))
        want = float(np.max(np.abs(t))) / (2.0 / (1.0 - gamma)) ** (k - 1)
        assert jmdp.core._order_norm(t, k, gamma) == want

    def test_order_one_is_sup_norm(self):
        m = MomentCollectionN((np.full(4, -2.5),))
        assert lambda_norm(m, 0.9) == 2.5

    def test_order_three_scaling(self):
        # lam^2 = (2/(1-gamma))^2 = 400 at gamma = 0.9
        m = MomentCollectionN(
            (np.zeros(2), np.zeros((2, 2)), np.full((2, 2, 2), 400.0))
        )
        assert lambda_norm(m, 0.9) == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.77, 0.9, 0.99])
    def test_matches_formula_bitwise(self, gamma):
        """max_k max|t_k| / (2/(1-gamma))**(k-1), bit for bit, on collections
        of orders 1-3 and on their raw table lists."""
        rng = np.random.default_rng(3)
        for order in (1, 2, 3):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                raw = [rng.uniform(0.1, 50.0) * rng.normal(size=(n,) * k)
                       for k in range(1, order + 1)]
                m = MomentCollectionN(tuple(  # symmetrized
                    sum(np.transpose(t, p) for p in itertools.permutations(range(k)))
                    for k, t in enumerate(raw, start=1)))
                for arg, tables in ((m, m.tables), (list(m.tables), m.tables), (raw, raw)):
                    want = max(float(np.max(np.abs(t))) / (2 / (1 - gamma)) ** (k - 1)
                               for k, t in enumerate(tables, start=1))
                    assert lambda_norm(arg, gamma) == want

    def test_order_two_matches_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m2 = random_collection(rng, 6, scale=rng.uniform(0.1, 50.0))
            mn = MomentCollectionN((m2.m_mu, m2.m_sigma))
            raw = (np.array(m2.m_mu), np.array(m2.m_sigma))
            assert lambda_norm(mn, 0.77) == lambda_norm(m2, 0.77) == lambda_norm(raw, 0.77)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), gamma=st.floats(0.05, 0.95))
    def test_norm_axioms(self, seed, gamma):
        rng = np.random.default_rng(seed)
        a = random_collection(rng, 4)
        b = random_collection(rng, 4)
        c = float(rng.normal())
        tri = lambda_norm(
            MomentCollection2(a.m_mu + b.m_mu, a.m_sigma + b.m_sigma), gamma
        )
        assert tri <= lambda_norm(a, gamma) + lambda_norm(b, gamma) + 1e-12
        hom = lambda_norm(MomentCollection2(c * a.m_mu, c * a.m_sigma), gamma)
        assert hom == pytest.approx(abs(c) * lambda_norm(a, gamma), abs=1e-12)


class TestEnumerateIndices:
    """The coordinates the incremental run enumerates: |X| means, then every
    ordered pair."""

    @pytest.mark.parametrize(
        "s,a,count", [(1, 1, 2), (2, 2, 20), (3, 4, 156)]
    )
    def test_counts(self, s, a, count):
        assert len(_coordinate_table(StateActionSpace(s, a))[0]) == count

    def test_order_and_both_orientations(self):
        space = StateActionSpace(2, 1)
        rows = _coordinate_table(space)[0]
        mean = rows[:2, 3] < space.num_x  # a mean's slot is its coordinate
        assert mean.all() and rows[:2, 1].tolist() == [0, 1]
        sigma = [(x, y) for x, y in rows[2:, 1:3].tolist()]
        assert (0, 1) in sigma and (1, 0) in sigma
        assert sigma == [(x, y) for x in range(2) for y in range(2)]
