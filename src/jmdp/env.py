"""JMDP environments in exogenous-noise form.

An environment is (g, h, noise, gamma): at a state s, one noise draw u fixes the
full counterfactual outcome table ((g[s,a,u], h[s,a,u]))_a across all actions.
Marginalizing over u recovers an ordinary MDP; the joint law of several queried
actions (an m-JSTM) is the pushforward of the noise law through (g, h).

Benchmark builders:
  * build_crc  -- chain with anti-correlated two-action rewards, shared dynamics.
  * build_wgw  -- windy gridworld; a shared gust bit couples counterfactual moves.
  * build_indep_successors / build_shared_successors / build_hub_successors --
    small diagnostic environments with product, perfectly shared, and
    mass-concentrating successor couplings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import StateActionSpace
from .errors import ConfigError, InvalidInputError, InvalidQueryError

__all__ = [
    "NoiseModel",
    "ExoJmdp",
    "OutcomeTable",
    "Policy",
    "JointOutcomeDist",
    "sample_table",
    "induced_jstm",
    "marginal_mdp",
    "marginal_kernel",
    "is_coupled_dynamics",
    "build_crc",
    "build_wgw",
    "build_ring_chain",
    "build_indep_successors",
    "build_shared_successors",
    "build_hub_successors",
    "wgw_goal_policy",
    "load_env",
    "save_env",
    "load_policy",
    "save_policy",
    "child_seed",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Finite exogenous noise law: support {0..U-1} with strictly positive probs."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float, copy=True)
        if p.ndim != 1 or p.size < 1:
            raise InvalidInputError("noise probs must be a non-empty vector")
        if np.any(p <= 0.0):
            raise InvalidInputError("noise probs must all be > 0")
        if abs(float(p.sum()) - 1.0) > _PROB_TOL:
            raise InvalidInputError(
                f"noise probs must sum to 1 (got {float(p.sum())!r})"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def support_size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ExoJmdp:
    """Finite JMDP in exogenous-noise form.

    g[s, a, u] is the reward in [0, 1]; h[s, a, u] the successor state.
    Immutable after construction; all sampling takes a caller-owned generator.
    """

    space: StateActionSpace
    noise: NoiseModel
    g: np.ndarray
    h: np.ndarray
    gamma: float

    def __post_init__(self):
        s_n, a_n, u_n = (
            self.space.num_states,
            self.space.num_actions,
            self.noise.support_size,
        )
        g = np.array(self.g, dtype=float, copy=True)
        h = np.array(self.h, dtype=np.int64, copy=True)
        if g.shape != (s_n, a_n, u_n) or h.shape != (s_n, a_n, u_n):
            raise InvalidInputError(
                f"g/h must have shape {(s_n, a_n, u_n)}, got {g.shape} and {h.shape}"
            )
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise InvalidInputError("rewards must lie in [0, 1]")
        if np.any(h < 0) or np.any(h >= s_n):
            raise InvalidInputError("successor entries must be valid state indices")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidInputError(f"gamma must lie in (0, 1), got {self.gamma}")
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class OutcomeTable:
    """One sampled step: per-action (reward, successor) for every action."""

    rewards: np.ndarray
    successors: np.ndarray


@dataclass(frozen=True)
class Policy:
    """Markov policy; probs[s, a] rows sum to one."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float, copy=True)
        if p.ndim != 2:
            raise InvalidInputError("policy probs must be a 2-D table")
        if np.any(p < 0.0):
            raise InvalidInputError("policy probs must be >= 0")
        rows = p.sum(axis=1)
        bad = np.where(np.abs(rows - 1.0) > _PROB_TOL)[0]
        if bad.size:
            raise InvalidInputError(
                f"policy row {int(bad[0])} sums to {rows[bad[0]]!r}, expected 1"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, space: StateActionSpace) -> "Policy":
        return cls(np.full((space.num_states, space.num_actions), 1.0 / space.num_actions))


def child_seed(root_seed: int, stream_index: int) -> int:
    """Derive an independent 64-bit stream seed: splitmix64(root + (i+1)*GOLDEN).

    GOLDEN = 0x9E3779B97F4A7C15. This is the documented split rule for parallel
    rollout streams; identical (root, index) always yields the same child.
    """
    mask = (1 << 64) - 1
    z = (root_seed + (stream_index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def _sampling_cdfs(env: ExoJmdp, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Noise and per-state policy CDFs, last entries pinned to 1.0 so a U(0,1)
    draw always lands inside the support."""
    noise_cdf = np.cumsum(env.noise.probs)
    noise_cdf[-1] = 1.0
    pol_cdf = np.cumsum(policy.probs, axis=1)
    pol_cdf[:, -1] = 1.0
    return noise_cdf, pol_cdf


def _draw_actions(pol_cdf: np.ndarray, states: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inverse-CDF action draw at each state from the matching uniform in r."""
    return (r[:, None] >= pol_cdf[states]).sum(axis=1)


def sample_table(env: ExoJmdp, s: int, rng: np.random.Generator) -> OutcomeTable:
    """Draw one outcome table at s: a single noise draw fixes all actions' outcomes."""
    if not (0 <= s < env.space.num_states):
        raise InvalidQueryError(f"state {s} out of range")
    u = int(rng.choice(env.noise.support_size, p=env.noise.probs))
    return OutcomeTable(env.g[s, :, u].copy(), env.h[s, :, u].copy())


@dataclass(frozen=True)
class JointOutcomeDist:
    """Exact finite-support joint law of m queried (reward, successor) pairs.

    atoms[i] is a tuple of (reward, successor) pairs, one per queried action;
    probs[i] its probability. Atoms keep first-occurrence order, so a given
    environment always produces the same representation.
    """

    atoms: tuple
    probs: np.ndarray

    def marginal(self, coord: int) -> "JointOutcomeDist":
        agg: dict = {}
        order = []
        for atom, p in zip(self.atoms, self.probs):
            key = atom[coord]
            if key not in agg:
                agg[key] = 0.0
                order.append(key)
            agg[key] += p
        return JointOutcomeDist(
            tuple((k,) for k in order), np.array([agg[k] for k in order])
        )

    def as_dict(self) -> dict:
        return {atom: float(p) for atom, p in zip(self.atoms, self.probs)}


def induced_jstm(env: ExoJmdp, s: int, actions: tuple[int, ...]) -> JointOutcomeDist:
    """Joint law of the queried coordinates, pushed forward from the noise law."""
    if not (0 <= s < env.space.num_states):
        raise InvalidQueryError(f"state {s} out of range")
    acts = tuple(int(a) for a in actions)
    if not (1 <= len(acts) <= env.space.num_actions):
        raise InvalidQueryError(f"need between 1 and {env.space.num_actions} actions")
    if len(set(acts)) != len(acts):
        raise InvalidQueryError(f"queried actions must be distinct, got {acts}")
    for a in acts:
        if not (0 <= a < env.space.num_actions):
            raise InvalidQueryError(f"action {a} out of range")
    agg: dict = {}
    order = []
    for u in range(env.noise.support_size):
        atom = tuple(
            (float(env.g[s, a, u]), int(env.h[s, a, u])) for a in acts
        )
        if atom not in agg:
            agg[atom] = 0.0
            order.append(atom)
        agg[atom] += float(env.noise.probs[u])
    return JointOutcomeDist(tuple(order), np.array([agg[a] for a in order]))


def marginal_mdp(env: ExoJmdp) -> tuple[np.ndarray, np.ndarray]:
    """Mean-reward table (S, N) and transition matrix (S, N, S) of the marginal MDP."""
    p = env.noise.probs
    r_mean = env.g @ p
    s_n = env.space.num_states
    p_s = np.zeros((s_n, env.space.num_actions, s_n))
    s_idx, a_idx, u_idx = np.indices(env.h.shape)
    np.add.at(p_s, (s_idx, a_idx, env.h), p[u_idx])
    return r_mean, p_s


def marginal_kernel(env: ExoJmdp, policy: Policy) -> np.ndarray:
    """One-step kernel over X under the policy: P[x, x'] = P(s'|s,a) pi(a'|s')."""
    _, p_s = marginal_mdp(env)
    n_s, n_a = env.space.num_states, env.space.num_actions
    kernel = np.einsum("ias,sb->iasb", p_s, policy.probs)
    return kernel.reshape(n_s * n_a, n_s * n_a)


def is_coupled_dynamics(env: ExoJmdp, tol: float = 1e-12) -> bool:
    """True iff some same-state two-action joint law is not the product of its marginals."""
    for s in range(env.space.num_states):
        for a in range(env.space.num_actions):
            for b in range(a + 1, env.space.num_actions):
                joint = induced_jstm(env, s, (a, b)).as_dict()
                ma = induced_jstm(env, s, (a,)).as_dict()
                mb = induced_jstm(env, s, (b,)).as_dict()
                keys = set(joint)
                keys.update((ka[0], kb[0]) for ka in ma for kb in mb)
                for key in keys:
                    prod = ma.get((key[0],), 0.0) * mb.get((key[1],), 0.0)
                    if abs(joint.get(key, 0.0) - prod) > tol:
                        return True
    return False


# ---------------------------------------------------------------------------
# Benchmark environments
# ---------------------------------------------------------------------------


def build_crc(num_states: int, gamma: float) -> ExoJmdp:
    """Coupled-reward chain: both actions advance the chain, the last state is
    absorbing, and at every state the two rewards are u and 1-u for a fair coin u."""
    if num_states < 2:
        raise ConfigError(f"chain needs at least 2 states, got {num_states}")
    space = StateActionSpace(num_states, 2)
    noise = NoiseModel(np.array([0.5, 0.5]))
    g = np.zeros((num_states, 2, 2))
    h = np.zeros((num_states, 2, 2), dtype=np.int64)
    for s in range(num_states):
        nxt = min(s + 1, num_states - 1)
        for u in (0, 1):
            g[s, 0, u] = float(u)
            g[s, 1, u] = 1.0 - float(u)
            h[s, :, u] = nxt
    return ExoJmdp(space, noise, g, h, gamma)


def build_ring_chain(num_states: int, gamma: float, advance_probs=(0.5, 0.5)) -> ExoJmdp:
    """Anti-correlated-reward ring: both actions step +1 or +2 (mod M) together.

    The shared step size couples counterfactual successors while keeping the
    chain irreducible and aperiodic, so a stationary distribution exists
    (uniform, by symmetry). advance_probs are the probabilities of +1 and +2.
    """
    if num_states < 3:
        raise ConfigError(f"ring needs at least 3 states, got {num_states}")
    p1, p2 = float(advance_probs[0]), float(advance_probs[1])
    space = StateActionSpace(num_states, 2)
    # u = (coin for the reward, step size); four atoms.
    noise = NoiseModel(np.array([0.5 * p1, 0.5 * p1, 0.5 * p2, 0.5 * p2]))
    g = np.zeros((num_states, 2, 4))
    h = np.zeros((num_states, 2, 4), dtype=np.int64)
    for s in range(num_states):
        for u in range(4):
            coin = u % 2
            step = 1 if u < 2 else 2
            g[s, 0, u] = float(coin)
            g[s, 1, u] = 1.0 - float(coin)
            h[s, :, u] = (s + step) % num_states
    return ExoJmdp(space, noise, g, h, gamma)


_WGW_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))  # up, right, down, left


def build_wgw(
    width: int,
    height: int,
    goal_cell: tuple[int, int],
    p_wind: float,
    gamma: float,
) -> ExoJmdp:
    """Windy gridworld: move (clamped), then a shared gust bit shifts one cell left.

    Reward 1 on any transition that enters the goal cell from elsewhere; the goal
    is absorbing with reward 0. The gust applies to every counterfactual action
    simultaneously, which is what couples their successors.
    """
    if width < 1 or height < 1:
        raise ConfigError("grid dimensions must be >= 1")
    goal_r, goal_c = int(goal_cell[0]), int(goal_cell[1])
    if not (0 <= goal_r < height and 0 <= goal_c < width):
        raise ConfigError(f"goal cell {goal_cell} outside the {height}x{width} grid")
    if not (0.0 <= p_wind <= 1.0):
        raise ConfigError(f"p_wind must lie in [0, 1], got {p_wind}")

    num_states = width * height
    goal = goal_r * width + goal_c
    space = StateActionSpace(num_states, 4)
    if p_wind == 0.0:
        noise = NoiseModel(np.array([1.0]))
        winds = [0]
    elif p_wind == 1.0:
        noise = NoiseModel(np.array([1.0]))
        winds = [1]
    else:
        noise = NoiseModel(np.array([1.0 - p_wind, p_wind]))
        winds = [0, 1]

    g = np.zeros((num_states, 4, len(winds)))
    h = np.zeros((num_states, 4, len(winds)), dtype=np.int64)
    for s in range(num_states):
        r, c = divmod(s, width)
        for a, (dr, dc) in enumerate(_WGW_MOVES):
            for ui, wind in enumerate(winds):
                if s == goal:
                    h[s, a, ui] = goal
                    continue
                nr = min(max(r + dr, 0), height - 1)
                nc = min(max(c + dc, 0), width - 1)
                if wind:
                    nc = max(nc - 1, 0)
                nxt = nr * width + nc
                h[s, a, ui] = nxt
                g[s, a, ui] = 1.0 if nxt == goal else 0.0
    return ExoJmdp(space, noise, g, h, gamma)


def wgw_goal_policy(width: int, height: int, goal_cell: tuple[int, int]) -> Policy:
    """Deterministic goal-directed gridworld policy: right, then up the last column."""
    goal_r, goal_c = int(goal_cell[0]), int(goal_cell[1])
    probs = np.zeros((width * height, 4))
    for s in range(width * height):
        r, c = divmod(s, width)
        if (r, c) == (goal_r, goal_c):
            probs[s, :] = 0.25
        elif c < goal_c:
            probs[s, 1] = 1.0  # right
        elif c > goal_c:
            probs[s, 3] = 1.0  # left
        elif r > goal_r:
            probs[s, 0] = 1.0  # up
        else:
            probs[s, 2] = 1.0  # down
    return Policy(probs)


def build_indep_successors(num_states: int, gamma: float) -> ExoJmdp:
    """Two actions whose successors come from independent uniform noise components.

    u = (u0, u1) with independent uniform components over states; action i jumps
    to u_i. Every same-state joint law is exactly the product of its marginals.
    """
    if num_states < 2:
        raise ConfigError(f"need at least 2 states, got {num_states}")
    m = num_states
    space = StateActionSpace(m, 2)
    noise = NoiseModel(np.full(m * m, 1.0 / (m * m)))
    g = np.zeros((m, 2, m * m))
    h = np.zeros((m, 2, m * m), dtype=np.int64)
    for u in range(m * m):
        u0, u1 = divmod(u, m)
        h[:, 0, u] = u0
        h[:, 1, u] = u1
    return ExoJmdp(space, noise, g, h, gamma)


def build_shared_successors(num_states: int, gamma: float) -> ExoJmdp:
    """Two actions forced onto one shared uniform successor: S' = u for every action."""
    if num_states < 2:
        raise ConfigError(f"need at least 2 states, got {num_states}")
    m = num_states
    space = StateActionSpace(m, 2)
    noise = NoiseModel(np.full(m, 1.0 / m))
    g = np.zeros((m, 2, m))
    h = np.zeros((m, 2, m), dtype=np.int64)
    for u in range(m):
        h[:, :, u] = u
    return ExoJmdp(space, noise, g, h, gamma)


def build_hub_successors(
    num_states: int, gamma: float, hub_probs: tuple[float, float] = (0.8, 0.2)
) -> ExoJmdp:
    """Perfectly coupled transitions that pile all mass onto the two last states.

    Every action at every state moves to state M-1 (probability hub_probs[0]) or
    M-2 (hub_probs[1]) under one shared draw, so counterfactual successors are
    identical and the joint successor law concentrates far from any product law.
    Rewards equal the shared coin, anti-correlated fashion across the two actions.
    """
    if num_states < 3:
        raise ConfigError(f"need at least 3 states, got {num_states}")
    m = num_states
    p_hi, p_lo = float(hub_probs[0]), float(hub_probs[1])
    space = StateActionSpace(m, 2)
    noise = NoiseModel(np.array([p_hi, p_lo]))
    g = np.zeros((m, 2, 2))
    h = np.zeros((m, 2, 2), dtype=np.int64)
    for u, target in enumerate((m - 1, m - 2)):
        h[:, :, u] = target
        g[:, 0, u] = float(u)
        g[:, 1, u] = 1.0 - float(u)
    return ExoJmdp(space, noise, g, h, gamma)


# ---------------------------------------------------------------------------
# File formats (JSON documents, format_version 1)
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return doc[key]


def save_env(env: ExoJmdp, path) -> None:
    doc = {
        "format_version": 1,
        "num_states": env.space.num_states,
        "num_actions": env.space.num_actions,
        "gamma": env.gamma,
        "noise_probs": env.noise.probs.tolist(),
        "g": env.g.tolist(),
        "h": env.h.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_env(path) -> ExoJmdp:
    """Load and validate an environment document; errors carry the field path."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    version = _require(doc, "format_version", str(path))
    if version != 1:
        raise ConfigError(f"{path}.format_version: unsupported version {version!r}")
    n_s = _require(doc, "num_states", str(path))
    n_a = _require(doc, "num_actions", str(path))
    gamma = _require(doc, "gamma", str(path))
    probs = np.asarray(_require(doc, "noise_probs", str(path)), dtype=float)
    if probs.ndim != 1:
        raise ConfigError(f"{path}.noise_probs: must be a flat array")
    if np.any(probs <= 0.0) or abs(float(probs.sum()) - 1.0) > _PROB_TOL:
        raise ConfigError(
            f"{path}.noise_probs: entries must be > 0 and sum to 1 "
            f"(sum = {float(probs.sum())!r})"
        )
    g_raw = _require(doc, "g", str(path))
    h_raw = _require(doc, "h", str(path))
    g = np.asarray(g_raw, dtype=float)
    h = np.asarray(h_raw, dtype=float)
    shape = (int(n_s), int(n_a), probs.size)
    for name, arr in (("g", g), ("h", h)):
        if arr.shape != shape:
            raise ConfigError(
                f"{path}.{name}: shape {arr.shape} does not match "
                f"[num_states][num_actions][len(noise_probs)] = {shape}"
            )
    bad = np.argwhere((g < 0.0) | (g > 1.0))
    if bad.size:
        s, a, u = (int(v) for v in bad[0])
        raise ConfigError(
            f"{path}.g[{s}][{a}][{u}]: reward {g[s, a, u]!r} outside [0, 1]"
        )
    if np.any(h != np.round(h)):
        s, a, u = (int(v) for v in np.argwhere(h != np.round(h))[0])
        raise ConfigError(f"{path}.h[{s}][{a}][{u}]: successor must be an integer")
    h_int = h.astype(np.int64)
    bad = np.argwhere((h_int < 0) | (h_int >= int(n_s)))
    if bad.size:
        s, a, u = (int(v) for v in bad[0])
        raise ConfigError(
            f"{path}.h[{s}][{a}][{u}]: successor {int(h_int[s, a, u])} "
            f"outside 0..{int(n_s) - 1}"
        )
    if not (0.0 < float(gamma) < 1.0):
        raise ConfigError(f"{path}.gamma: must lie in (0, 1), got {gamma!r}")
    return ExoJmdp(
        StateActionSpace(int(n_s), int(n_a)),
        NoiseModel(probs),
        g,
        h_int,
        float(gamma),
    )


def save_policy(policy: Policy, path) -> None:
    doc = {"format_version": 1, "probs": policy.probs.tolist()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_policy(path) -> Policy:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    version = _require(doc, "format_version", str(path))
    if version != 1:
        raise ConfigError(f"{path}.format_version: unsupported version {version!r}")
    probs = np.asarray(_require(doc, "probs", str(path)), dtype=float)
    if probs.ndim != 2:
        raise ConfigError(f"{path}.probs: must be a 2-D array")
    rows = probs.sum(axis=1)
    bad = np.where(np.abs(rows - 1.0) > _PROB_TOL)[0]
    if bad.size:
        raise ConfigError(
            f"{path}.probs[{int(bad[0])}]: row sums to {rows[bad[0]]!r}, expected 1"
        )
    if np.any(probs < 0.0):
        s = int(np.argwhere(probs < 0.0)[0][0])
        raise ConfigError(f"{path}.probs[{s}]: negative entry")
    return Policy(probs)
