"""Pinned random streams: sha256 digests of seeded sampler outputs.

Every sampler consumes a seeded U(0,1) stream in a fixed order, and turns each
uniform into a noise atom or an action by inverse CDF. Two runs of one commit
always agree, so a change that reorders, drops or reinterprets a draw is only
seen against a recorded value. The outputs hashed here are built from
element-wise arithmetic alone (no BLAS reduction), so their bytes do not depend
on the linear-algebra library or its thread count.
"""

import hashlib

import numpy as np
import pytest

from jmdp.core import MomentCollectionN
from jmdp.env import build_crc, build_wgw, wgw_goal_policy
from jmdp.incremental import _backups, run_incremental
from jmdp.stats import _branch_returns, mc_state_block

from test_env import random_env, random_policy


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(arr.dtype.str.encode() + str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


ENVS = {
    "crc5": lambda: build_crc(5, 0.9),
    "wgw3": lambda: build_wgw(3, 3, (0, 2), 0.3, 0.9),
    "rand": lambda: random_env(5, num_states=4, num_actions=3, num_noise=4),
}


def env_and_policy(name):
    env = ENVS[name]()
    return env, random_policy(17, env.space)


INCREMENTAL = {
    ("crc5", "sweep"):
        "95f5e52c985398e4e34d58718ca630313f000ef0e029a809f702209dae84a30a",
    ("crc5", "uniform"):
        "b1eda8b89d2c9b04fc47b676aaa1ac06840d04d3ff2a15abfd0fa103fe9d01be",
    ("wgw3", "sweep"):
        "8b2cc7f09b3a6a1ea590feb1159c7f8eb090320ca669d8ceb144bc5fea878b5f",
    ("wgw3", "uniform"):
        "5d0b32119872b9c5b1d41c907f7eadcf72f24ca1d358e02a57310092e9f0053a",
}


@pytest.mark.parametrize("name, mode", sorted(INCREMENTAL))
def test_incremental_stream(name, mode):
    env, policy = env_and_policy(name)
    res = run_incremental(
        env, policy, num_updates=5000, seed=3, c=5.0, visitation=mode, trace_stride=700,
    )
    alphas = np.array([alpha for _, _, alpha in res.trace])
    assert digest(res.final.m_mu, res.final.m_sigma, alphas) == INCREMENTAL[name, mode]


# The sa-grid benchmark workload's run: wgw(3x3) with the goal policy,
# harmonic steps c = 10, uniform visitation, seed 7.
SA_GRID = "1e57702480434bc58f01ce734d70eb111678803aac57ca0e23912f27a0e611f3"


def test_sa_grid_stream():
    env = build_wgw(3, 3, (0, 2), 0.3, 0.9)
    res = run_incremental(env, wgw_goal_policy(3, 3, (0, 2)), num_updates=300_000, seed=7,
                          c=10.0, visitation="uniform", trace_stride=10_000)
    alphas = np.array([alpha for _, _, alpha in res.trace])
    assert digest(res.final.m_mu, res.final.m_sigma, alphas) == SA_GRID

SIGNED_START = {
    "sweep": "4efd87dd082b5cb7c4abaf2c0d179dd0f97301591584c2af60ecf0e4c59dca9e",
    "uniform": "6b6a22c6c95c0dbeaea240dcb9c390db4222d50845c19eccb1a757435fbea165",
}


@pytest.mark.parametrize("mode", sorted(SIGNED_START))
def test_incremental_stream_signed_start(mode):
    """A constant step from a start with negative entries and exact zeros, so
    zero coefficients meet negative table entries."""
    env, policy = env_and_policy("rand")
    mu = np.linspace(-1.0, 1.0, env.space.num_x)
    mu[::3] = 0.0
    sig = np.add.outer(mu, mu) - 0.25
    sig[::2, ::2] = 0.0
    res = run_incremental(
        env, policy, num_updates=5000, seed=7, rule="constant", alpha0=0.3, visitation=mode,
        m0=MomentCollectionN((mu, sig)), trace_stride=700,
    )
    alphas = np.array([alpha for _, _, alpha in res.trace])
    assert digest(res.final.m_mu, res.final.m_sigma, alphas) == SIGNED_START[mode]


BRANCHES = {
    ("wgw3", "shared-state"):
        "a8e20498a844b50905390699d4e1aef52d3ac55d446c679e097ee5f933ff103f",
    ("wgw3", "independent"):
        "e31f3655d04621e38dcd9b72c59e7da3a942126e94c2066a5088f91955169df3",
    ("rand", "shared-state"):
        "357090c9978bc40ea2f19d601c451f69590db56651b76bbac6914f3c46ea2bb6",
    ("rand", "independent"):
        "ea02d4490b08072866a014322fecaa46b3d26c02467308a208b9de16d73d5094",
}


@pytest.mark.parametrize("name, coupling", sorted(BRANCHES))
def test_branch_return_stream(name, coupling):
    env, policy = env_and_policy(name)
    actions = tuple(range(env.space.num_actions)) + (1,)  # one repeated branch
    z, _ = _branch_returns(env, policy, 1, actions, 1500, 25, 11, coupling)
    assert digest(z) == BRANCHES[name, coupling]


MC_BLOCKS = {
    ("wgw3", "shared-state"):
        "7406ebec24b528bfe7f68a0f1c5e48204394f3982dc6eceb183a18186a5f98e1",
    ("wgw3", "independent"):
        "075366c2477e81c9df26bcc7fd8206ed4f91581c4c333264d26c96bda854d516",
    ("rand", "shared-state"):
        "c2ec652524983bf8f5ea12df87a6d9d7b092944bc223c77c9327615dee66dc3d",
    ("rand", "independent"):
        "b5798eb5cc813dab5aa5d507bc24b423792269e15749227c87939525858b4043",
}


@pytest.mark.parametrize("name, coupling", sorted(MC_BLOCKS))
def test_mc_block_stream(name, coupling):
    """Every table of a Monte Carlo block; its reductions are numpy's own
    pairwise sums, not BLAS. The fourth power in gap_var_se is a product of
    four factors, not numpy's CPU-dispatched `power`, so these digests read the
    same with numpy's dispatched kernels disabled (NPY_DISABLE_CPU_FEATURES)."""
    env, policy = env_and_policy(name)
    actions = tuple(range(env.space.num_actions)) + (1,)  # one repeated branch
    blk = mc_state_block(env, policy, 1, actions, 1500, 1e-3, 11,
                         continuation_coupling=coupling)
    tables = (blk.mu, blk.mu_se, blk.sigma, blk.sigma_se, blk.gap_mean, blk.gap_mean_se,
              blk.gap_var, blk.gap_var_se, blk.inferiority, blk.inferiority_se)
    assert digest(blk.steps, *tables) == MC_BLOCKS[name, coupling]


BACKUPS = "ba7a898fa82e3290527087edeef6310adb47525f43d07e1ef37a817f90903713"


def test_backup_stream():
    env, policy = env_and_policy("rand")  # 4 states x 3 actions
    n_x = env.space.num_x
    mu = np.linspace(0.5, 2.0, n_x)
    sig = np.add.outer(mu, mu) + np.minimum.outer(mu, mu)
    m = MomentCollectionN((mu, sig))
    rng = np.random.default_rng(23)
    coords = [
        (4,),
        (5, 5),  # diagonal
        (3, 5),  # same state
        (2, 9),  # cross state
    ]
    vals = [_backups(env, policy, m, i, 400, lambda k: rng.random(400 * k))
            for i in coords]
    assert digest(*vals) == BACKUPS
