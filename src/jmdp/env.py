"""JMDP environments in exogenous-noise form.

An environment is (g, h, noise, gamma): at a state s, one noise draw u fixes the
full counterfactual outcome table ((g[s,a,u], h[s,a,u]))_a across all actions;
`sample_outcomes` is the package's one noise draw, `sample_step` its one action
draw. Marginalizing over u recovers an ordinary MDP; the joint law of several
queried actions (an m-JSTM, `induced_jstm`) is the pushforward of the noise law
through (g, h). `_marginal_csr` builds the marginal law and the policy's
one-step kernel as CSR arrays, the one formula behind both.

Benchmark builders:
  * build_crc  -- chain with anti-correlated two-action rewards, shared dynamics.
  * build_wgw  -- windy gridworld; a shared gust bit couples counterfactual moves.
  * build_indep_successors / build_shared_successors / build_hub_successors --
    small diagnostic environments with product, perfectly shared, and
    mass-concentrating successor couplings.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import StateActionSpace, _check_gamma, _check_index, _check_int, _check_real
from .errors import ConfigError, FeatureRankError, InvalidInputError, InvalidQueryError

__all__ = [
    "NoiseModel",
    "ExoJmdp",
    "Policy",
    "sample_outcomes",
    "sample_step",
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
    "read_json_doc",
    "load_env",
    "save_env",
    "load_policy",
    "save_policy",
    "child_seed",
]

_PROB_TOL = 1e-12


def _check_entries(name: str, arr: np.ndarray, ok: np.ndarray, what: str,
                   error=InvalidInputError) -> None:
    """Raise `error` naming the first entry of arr where ok is False, as
    name[i][j]...: what, got <value>."""
    bad = np.argwhere(~ok)
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        where = "".join(f"[{i}]" for i in idx)
        raise error(f"{name}{where}: {what}, got {arr.item(idx)!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Finite exogenous noise law: support {0..U-1} with strictly positive probs."""

    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)  # _cdf(probs)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float, copy=True)
        if p.ndim != 1 or p.size < 1:
            raise InvalidInputError("noise_probs: must be a non-empty vector")
        _check_entries("noise_probs", p, p > 0.0, "must be > 0")
        if not abs(float(p.sum()) - 1.0) <= _PROB_TOL:
            raise InvalidInputError(
                f"noise_probs: must sum to 1, got {float(p.sum())!r}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "cdf", _cdf(p))

    @property
    def support_size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ExoJmdp:
    """Finite JMDP in exogenous-noise form.

    g[s, a, u] is the reward in [0, 1]; h[s, a, u] the successor state.
    Immutable after construction; all sampling takes a caller-owned generator.
    Errors name the field at fault, and its first bad entry, as in an env file.
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
        h = np.asarray(self.h)
        for name, arr in (("g", g), ("h", h)):
            if arr.shape != (s_n, a_n, u_n):
                raise InvalidInputError(
                    f"{name}: shape {arr.shape} does not match [num_states]"
                    f"[num_actions][len(noise_probs)] = {(s_n, a_n, u_n)}"
                )
        _check_entries("g", g, (g >= 0.0) & (g <= 1.0), "reward outside [0, 1]")
        _check_entries("h", h, (h >= 0) & (h < s_n), f"successor outside 0..{s_n - 1}")
        _check_entries("h", h, h == np.trunc(h), "successor not a whole number")
        h = h.astype(np.int64)  # a copy, cast once its entries are checked
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))


@dataclass(frozen=True)
class Policy:
    """Markov policy; probs[s, a] rows sum to one."""

    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)  # _cdf(probs)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float, copy=True)
        if p.ndim != 2:
            raise InvalidInputError("probs: must be a 2-D table")
        _check_entries("probs", p, p >= 0.0, "must be >= 0")
        rows = p.sum(axis=1)
        _check_entries("probs", rows, np.abs(rows - 1.0) <= _PROB_TOL, "row must sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "cdf", _cdf(p))

    @classmethod
    def uniform(cls, space: StateActionSpace) -> "Policy":
        return cls(np.full((space.num_states, space.num_actions), 1.0 / space.num_actions))


def _check_policy(env: ExoJmdp, policy: Policy) -> None:
    """Raise InvalidInputError unless policy's table is (states, actions) of env."""
    shape = (env.space.num_states, env.space.num_actions)
    if policy.probs.shape != shape:
        raise InvalidInputError(f"policy table shape {policy.probs.shape} does not match "
                                f"the environment's (states, actions) = {shape}")


def child_seed(root_seed: int, stream_index: int) -> int:
    """Derive an independent 64-bit stream seed: splitmix64(root + (i+1)*GOLDEN).

    GOLDEN = 0x9E3779B97F4A7C15. This is the documented split rule for parallel
    rollout streams; identical (root, index) always yields the same child.
    """
    root_seed = _check_int("root_seed", root_seed, 0)
    stream_index = _check_int("stream_index", stream_index, 0)
    mask = (1 << 64) - 1
    z = (root_seed + (stream_index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Read-only CDF along the last axis; every entry from a row's last positive
    probability on is 1.0, so no U(0,1) draw selects a zero-probability tail."""
    pos = probs > 0.0
    cdf = np.cumsum(probs, axis=-1)
    cdf[np.cumsum(pos[..., ::-1], axis=-1)[..., ::-1] - pos == 0] = 1.0
    cdf.setflags(write=False)
    return cdf


def sample_outcomes(env: ExoJmdp, x: np.ndarray, r: np.ndarray) -> tuple:
    """One step from flat state-action coordinates x: the noise atom is drawn
    by inverse CDF from the matching U(0,1) entry of r, and (reward, successor)
    is gathered for it. Coordinates given the same uniform share one noise
    draw, as all actions at a state do; x must lie in 0..|X|-1, r in [0, 1),
    and r must broadcast into x's shape.

    The atom is the count of CDF entries <= r, summed from one comparison per
    CDF column but the last (1.0 > r), as the action draw does. The CDF is
    non-decreasing, so this is the atom np.searchsorted(cdf, r, side="right")
    finds, ties from rounding included."""
    cdf = env.noise.cdf
    flat = x * cdf.size  # row-major position of (x, u) in g and h, u added below
    for col in cdf[:-1].tolist():
        flat += r >= col
    return env.g.ravel().take(flat), env.h.ravel().take(flat)


def sample_step(env: ExoJmdp, policy: Policy, x: np.ndarray, r: np.ndarray,
                r_a: np.ndarray) -> tuple:
    """One policy step from flat coordinates x: sample_outcomes(env, x, r),
    then the next action at each successor by inverse CDF of its policy row
    from the matching U(0,1) entry of r_a. Returns (rewards, successors, next
    coordinates); coordinates given the same (r, r_a) get the same next one."""
    rewards, successors = sample_outcomes(env, x, r)
    x_next = successors * env.space.num_actions
    for col in policy.cdf.T[:-1]:  # the last column is 1.0 > r_a
        x_next += r_a >= col[successors]
    return rewards, successors, x_next


def _groups(p: np.ndarray, *keys: np.ndarray) -> tuple:
    """Group entries by their tuple of keys, groups numbered in lexicographic
    key order. Returns each entry's group, each group's first entry, and each
    group's total of p, summed in entry order."""
    order = np.lexsort(keys[::-1])
    new = np.r_[True, np.any([k[order][1:] != k[order][:-1] for k in keys], axis=0)]
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = np.cumsum(new) - 1
    return labels, order[new], np.bincount(labels, weights=p)


def induced_jstm(env: ExoJmdp, s: int, actions: tuple[int, ...]) -> tuple:
    """Joint law of the queried actions' outcomes at s, pushed forward from
    the noise law: (rewards[K, m], successors[K, m], probs[K]) over its K
    distinct outcomes, in order of first occurrence over the noise atoms."""
    s = _check_index("s", s, env.space.num_states, "state")
    acts = [_check_index("actions", a, env.space.num_actions, "action") for a in actions]
    if not (acts and len(set(acts)) == len(acts)):
        raise InvalidQueryError(f"need one or more distinct actions, got {tuple(acts)}")
    rewards, successors = env.g[s, acts].T, env.h[s, acts].T
    _, first, probs = _groups(env.noise.probs, *rewards.T, *successors.T)
    order = np.argsort(first)
    return rewards[first[order]], successors[first[order]], probs[order]


def _marginal_csr(env: ExoJmdp, block: np.ndarray) -> tuple:
    """CSR arrays (data, indices, indptr) of the |X| x (S B) matrix with entries
    P(s'|s,a) block[s', b], built in O(|X| U): each row's U atoms are sorted
    by successor and each successor's probabilities summed in atom order. The
    policy table as block gives the one-step kernel over X; a column of ones,
    the marginal law."""
    n_x, n_b = env.space.num_x, block.shape[1]
    succ = env.h.reshape(n_x, -1)
    order = np.argsort(succ, axis=1, kind="stable")
    succ = np.take_along_axis(succ, order, axis=1)
    weights = env.noise.probs[order].ravel()
    del order
    new = np.ones(succ.shape, dtype=bool)  # an atom opening a (row, successor) entry
    np.not_equal(succ[:, 1:], succ[:, :-1], out=new[:, 1:])
    succ = succ[new]
    p_x = np.bincount(np.cumsum(new), weights=weights)[1:]  # entries numbered from 1
    indptr = np.r_[0, np.cumsum(new.sum(axis=1))] * n_b
    del weights, new
    data = block[succ]  # zeros of the block included
    data *= p_x[:, None]
    return data.ravel(), np.arange(block.size).reshape(-1, n_b)[succ].ravel(), indptr


def _bfs_levels(indices: np.ndarray, indptr: np.ndarray, sources) -> np.ndarray:
    """Breadth-first levels on the digraph with CSR arrays (indices, indptr):
    level[v] is the fewest edges on a path from a source to v, -1 where no
    path exists. Each level gathers the out-edges of its frontier only."""
    level = np.full(indptr.size - 1, -1, dtype=np.int32)
    frontier = np.unique(sources)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        depth += 1
        stops = indptr[frontier + 1]
        counts = stops - indptr[frontier]
        ends = np.cumsum(counts)
        pos = np.repeat(stops - ends, counts)  # an edge's position less its rank
        pos += np.arange(pos.size)
        succ = indices[pos]
        del pos
        frontier = np.unique(succ[level[succ] < 0])
    return level


def _dense(data, indices, indptr, num_cols: int) -> np.ndarray:
    """The dense table of CSR arrays without repeated entries."""
    table = np.zeros((indptr.size - 1, num_cols))
    table[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices] = data
    return table


def marginal_mdp(env: ExoJmdp) -> tuple[np.ndarray, np.ndarray]:
    """Mean-reward table (S, N) and transition matrix (S, N, S) of the marginal MDP."""
    s_n = env.space.num_states
    p_s = _dense(*_marginal_csr(env, np.ones((s_n, 1))), s_n)
    return env.g @ env.noise.probs, p_s.reshape(s_n, env.space.num_actions, s_n)


def marginal_kernel(env: ExoJmdp, policy: Policy) -> np.ndarray:
    """One-step kernel over X under the policy as a dense |X| x |X| table:
    P[x, x'] = P(s'|s,a) pi(a'|s')."""
    _check_policy(env, policy)
    return _dense(*_marginal_csr(env, policy.probs), env.space.num_x)


def is_coupled_dynamics(env: ExoJmdp) -> bool:
    """True iff at some state the joint outcome law of two actions is not the
    product of its marginals: some outcome pair (o_a, o_b) has
    |P(o_a, o_b) - P(o_a) P(o_b)| > 1e-12, P(o_a, o_b) being 0 for a pair that
    never occurs. Works on (state, noise atom) arrays, one action pair at a
    time, and never forms the table of outcome pairs."""
    s_n, a_n, u_n = env.g.shape
    p = np.tile(env.noise.probs, s_n)
    state = np.repeat(np.arange(s_n), u_n)
    for a, b in itertools.combinations(range(a_n), 2):
        ia, first_a, pa = _groups(p, state, env.g[:, a].ravel(), env.h[:, a].ravel())
        ib, _, pb = _groups(p, state, env.g[:, b].ravel(), env.h[:, b].ravel())
        # Renumber the b-outcomes by state, then by falling mass.
        ib, first_b, pb = _groups(p, state, -pb[ib], ib)
        _, first, pj = _groups(p, ia, ib)
        ja, jb = ia[first], ib[first]  # sorted by a-outcome, then b-outcome
        if np.any(np.abs(pj - pa[ja] * pb[jb]) > _PROB_TOL):
            return True
        # The heaviest b-outcome that an a-outcome never meets is the first of
        # its state's b-outcomes missing from its partners.
        a_state, start = state[first_a], np.searchsorted(state[first_b], np.arange(s_n + 1))
        seen = jb - start[a_state[ja]] == np.arange(ja.size) - np.searchsorted(ja, ja)
        gap = start[a_state] + np.bincount(ja[seen], minlength=pa.size)
        heaviest = np.where(gap < start[a_state + 1], pb[np.minimum(gap, pb.size - 1)], 0.0)
        if np.any(pa * heaviest > _PROB_TOL):
            return True
    return False


# ---------------------------------------------------------------------------
# Benchmark environments
# ---------------------------------------------------------------------------


def build_crc(num_states: int, gamma: float) -> ExoJmdp:
    """Coupled-reward chain: both actions advance the chain, the last state is
    absorbing, and at every state the two rewards are u and 1-u for a fair coin u."""
    num_states, gamma = _check_int("num_states", num_states, 2), _check_gamma(gamma)
    space = StateActionSpace(num_states, 2)
    noise = NoiseModel(np.array([0.5, 0.5]))
    g = np.tile([[0.0, 1.0], [1.0, 0.0]], (num_states, 1, 1))
    h = np.repeat(np.minimum(np.arange(num_states) + 1, num_states - 1), 4)
    return ExoJmdp(space, noise, g, h.reshape(num_states, 2, 2), gamma)


def build_ring_chain(num_states: int, gamma: float) -> ExoJmdp:
    """Anti-correlated-reward ring: both actions step +1 or +2 (mod M) together,
    each with probability 1/2.

    The shared step size couples counterfactual successors while keeping the
    chain irreducible and aperiodic, so a stationary distribution exists
    (uniform, by symmetry).
    """
    num_states, gamma = _check_int("num_states", num_states, 3), _check_gamma(gamma)
    space = StateActionSpace(num_states, 2)
    # u = (coin for the reward, step size); four equally likely atoms.
    noise = NoiseModel(np.full(4, 0.25))
    coin = np.array([0.0, 1.0, 0.0, 1.0])
    g = np.tile([coin, 1.0 - coin], (num_states, 1, 1))
    h = (np.arange(num_states)[:, None, None] + np.array([1, 1, 2, 2])) % num_states
    return ExoJmdp(space, noise, g, np.repeat(h, 2, axis=1), gamma)


_WGW_MOVES = ((-1, 0), (0, 1), (1, 0), (0, -1))  # up, right, down, left


def _grid(width, height, goal_cell) -> tuple:
    """(width, height, goal row, goal column), each read as an integer (2.5
    and True fail), the sizes >= 1; the goal's bounds are the caller's check."""
    return (_check_int("width", width, 1), _check_int("height", height, 1),
            *(_check_int("goal_cell", goal_cell[i]) for i in (0, 1)))


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
    width, height, goal_r, goal_c = _grid(width, height, goal_cell)
    p_wind, gamma = _check_real("p_wind", p_wind, "[0, 1]"), _check_gamma(gamma)
    if not (0 <= goal_r < height and 0 <= goal_c < width):
        raise ConfigError(f"goal cell {goal_cell} outside the {height}x{width} grid")

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
    width, height, goal_r, goal_c = _grid(width, height, goal_cell)
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
    m, gamma = _check_int("num_states", num_states, 2), _check_gamma(gamma)
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
    m, gamma = _check_int("num_states", num_states, 2), _check_gamma(gamma)
    space = StateActionSpace(m, 2)
    noise = NoiseModel(np.full(m, 1.0 / m))
    g = np.zeros((m, 2, m))
    h = np.zeros((m, 2, m), dtype=np.int64)
    for u in range(m):
        h[:, :, u] = u
    return ExoJmdp(space, noise, g, h, gamma)


def _check_hub_probs(name: str, value) -> tuple:
    """value read as two numbers in (0, 1) summing to 1, else InvalidInputError
    naming `name`."""
    try:
        pair = tuple(_check_real(f"{name}[{i}]", p, "(0, 1)") for i, p in enumerate(value))
    except TypeError:  # not a sequence
        pair = ()
    if len(pair) != 2 or abs(sum(pair) - 1.0) > _PROB_TOL:
        raise InvalidInputError(f"{name}: must be two probabilities summing to 1, got {value!r}")
    return pair


def build_hub_successors(
    num_states: int, gamma: float, hub_probs: tuple[float, float] = (0.8, 0.2)
) -> ExoJmdp:
    """Perfectly coupled transitions that pile all mass onto the two last states.

    Every action at every state moves to state M-1 (probability hub_probs[0]) or
    M-2 (hub_probs[1]) under one shared draw, so counterfactual successors are
    identical and the joint successor law concentrates far from any product law.
    Rewards equal the shared coin, anti-correlated fashion across the two actions.
    """
    m, gamma = _check_int("num_states", num_states, 3), _check_gamma(gamma)
    p_hi, p_lo = _check_hub_probs("hub_probs", hub_probs)
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
# A schema maps each key of a document, or of one of its sections, to
# (check, default). A check takes (value, field path) and returns the parsed
# value or raises ConfigError; an absent key takes its default, which goes
# through the same check. The run config and the env, policy and feature files
# are all parsed this way; domain invariants are left to the constructors.

_REQUIRED = object()


def _field(check, *args):
    """The schema check of a field that an API check reads (core's
    _check_int, _check_real or _check_choice, or _check_hub_probs):
    check(path, value, *args), so the field path names the value, and a
    refusal is re-raised as a ConfigError."""
    def parse(value, path):
        try:
            return check(path, value, *args)
        except (InvalidInputError, InvalidQueryError) as exc:
            raise ConfigError(str(exc)) from None
    return parse


_is_bool = np.frompyfunc(lambda v: isinstance(v, bool), 1, 1)


def _array(ndim: int, integral: bool = False):
    """A float array with `ndim` axes and finite entries, whole numbers if
    `integral`."""
    def check(value, path):
        try:
            arr = np.asarray(value)
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"{path}: not a numeric array ({exc})") from exc
        if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
            raise ConfigError(f"{path}: must be a numeric array with {ndim} axes")
        # numpy reads true/false among numbers as 1/0; JSON booleans are not numbers
        entries = np.asarray(value, dtype=object)
        _check_entries(path, entries, ~_is_bool(entries).astype(bool),
                       "must be a number, not a boolean", ConfigError)
        arr = arr.astype(float)
        ok = np.isfinite(arr)
        if integral:
            ok &= arr == np.round(arr)
        what = "must be a finite " + ("whole number" if integral else "number")
        _check_entries(path, arr, ok, what, ConfigError)
        return arr
    return check


def _section(doc, schema: dict, path: str) -> dict:
    """Parse one object against its schema, key by key in schema order."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be an object, got {doc!r}")
    for key in doc:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown field; allowed: {sorted(schema)}")
    parsed = {}
    for key, (check, default) in schema.items():
        if key not in doc and default is _REQUIRED:
            raise ConfigError(f"{path}.{key}: missing required field")
        parsed[key] = check(doc.get(key, default), f"{path}.{key}")
    return parsed


def check_format_version(version, path: str) -> int:
    if type(version) is not int or version != 1:
        raise ConfigError(f"{path}: unsupported version {version!r}")
    return version


def read_json_doc(path) -> dict:
    """Read a JSON object; every failure is a ConfigError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the file ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _load_doc(path, schema: dict, build):
    """build(**fields) of the document at `path`, parsed against format_version
    and `schema`; build's InvalidInputError becomes a ConfigError <file>.<field>."""
    version = {"format_version": (check_format_version, _REQUIRED)}
    fields = _section(read_json_doc(path), {**version, **schema}, str(path))
    del fields["format_version"]
    try:
        return build(**fields)
    except (InvalidInputError, FeatureRankError) as exc:
        raise ConfigError(f"{path}.{exc}") from exc


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


_ENV_DOC = {
    "num_states": (_field(_check_int, 1), _REQUIRED),
    "num_actions": (_field(_check_int, 1), _REQUIRED),
    "gamma": (_field(_check_real, "(0, 1)"), _REQUIRED),
    "noise_probs": (_array(1), _REQUIRED),
    "g": (_array(3), _REQUIRED),
    "h": (_array(3, integral=True), _REQUIRED),
}


def load_env(path) -> ExoJmdp:
    """Load an environment document; errors name <file>.<field>[index]."""
    def build(num_states, num_actions, gamma, noise_probs, g, h):
        space = StateActionSpace(num_states, num_actions)
        return ExoJmdp(space, NoiseModel(noise_probs), g, h, gamma)
    return _load_doc(path, _ENV_DOC, build)


def save_policy(policy: Policy, path) -> None:
    doc = {"format_version": 1, "probs": policy.probs.tolist()}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_policy(path) -> Policy:
    """Load a policy document {format_version, probs}; errors name the file."""
    return _load_doc(path, {"probs": (_array(2), _REQUIRED)}, Policy)
