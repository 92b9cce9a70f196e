"""Asynchronous one-sample stochastic approximation of the second-order backup.

Each update draws fresh outcomes for the selected coordinate (generative
access through the induced one- and two-action joint laws), forms the
one-sample backup, and relaxes the table entry toward it. Off-diagonal
second-moment updates are mirrored to the swapped coordinate, which preserves
symmetry without changing the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Index2, LambdaWeights, MomentCollection2, lambda_norm
from .dp import _check_dims, apply_t2
from .env import ExoJmdp, Policy, _draw_actions, _sampling_cdfs
from .errors import InvalidInputError, InvalidQueryError

__all__ = [
    "StepSchedule",
    "VisitationScheme",
    "sample_backup",
    "run_incremental",
    "IncrementalResult",
    "noise_diagnostic",
    "NoiseDiagnostic",
    "noise_bound_constants",
]


@dataclass
class StepSchedule:
    """Step-size rule with per-coordinate visit counters.

    harmonic(c): alpha = c / (c + visits), which satisfies the usual
    divergent-sum / summable-squares conditions per coordinate. constant(a0)
    uses a fixed step. Mirrored second-moment coordinates share one counter.
    """

    rule: str
    c: float = 10.0
    alpha0: float = 0.1
    _counts: np.ndarray | None = None

    @classmethod
    def harmonic(cls, c: float = 10.0) -> "StepSchedule":
        if c <= 0.0:
            raise InvalidInputError(f"harmonic constant must be > 0, got {c}")
        return cls("harmonic", c=c)

    @classmethod
    def constant(cls, alpha0: float) -> "StepSchedule":
        if not (0.0 < alpha0 <= 1.0):
            raise InvalidInputError(f"constant step must lie in (0, 1], got {alpha0}")
        return cls("constant", alpha0=alpha0)

    def bind(self, num_slots: int) -> None:
        self._counts = np.zeros(num_slots, dtype=np.int64)

    def step(self, slot: int) -> float:
        return float(self.steps(np.array([slot]))[0])

    def steps(self, slots: np.ndarray) -> np.ndarray:
        """Step sizes for consecutive visits to slots[0], slots[1], ..."""
        if self._counts is None:
            raise InvalidInputError("schedule not bound to an index set")
        if self.rule == "harmonic":
            # Visits to a slot earlier in this batch count: rank within slot.
            order = np.argsort(slots, kind="stable")
            ranked = slots[order]
            seq = np.arange(slots.size)
            first = np.r_[True, ranked[1:] != ranked[:-1]]
            rank = np.empty_like(seq)
            rank[order] = seq - np.maximum.accumulate(np.where(first, seq, 0))
            alpha = self.c / (self.c + (self._counts[slots] + rank))
        else:
            alpha = np.full(slots.size, float(self.alpha0))
        self._counts += np.bincount(slots, minlength=self._counts.size)
        return alpha


@dataclass(frozen=True)
class VisitationScheme:
    """Coordinate selection rule: cyclic sweep or uniform-random.

    Both select every coordinate infinitely often over an unbounded run.
    """

    mode: str

    def __post_init__(self):
        if self.mode not in ("sweep", "uniform"):
            raise InvalidQueryError(f"unknown visitation mode {self.mode!r}")

    @classmethod
    def sweep(cls) -> "VisitationScheme":
        return cls("sweep")

    @classmethod
    def uniform(cls) -> "VisitationScheme":
        return cls("uniform")


# Coordinate draw classes: the uniforms one backup consumes, in stream order,
# are u, a' (mu and diagonal), u, a', b' (same state) or u, u2, a', b' (cross).
_MU, _DIAG, _SAME, _CROSS = 0, 1, 2, 3
_NUM_DRAWS = np.array([2, 2, 3, 4])
_CHUNK = 2048  # updates presampled at once; bounds the extra memory


def _draw_class(n_a: int, kind: str, x: int, y: int) -> int:
    if kind == "mu":
        return _MU
    if x == y:
        return _DIAG
    return _SAME if x // n_a == y // n_a else _CROSS


def _sample_terms(env: ExoJmdp, cdfs, cls, x, y, w, o):
    """Successors and backup coefficients for coordinates (cls, x, y) whose
    draws start at w[o], one entry per coordinate.

    Returns (A, B, C, x1, y1); the one-sample backup is A + B mu[x1] (mu),
    A + B mu[x1] + gamma^2 sig[x1, x1] (diagonal, y1 = x1) or
    A + B mu[y1] + C mu[x1] + gamma^2 sig[x1, y1] (off-diagonal). Same-state
    coordinates share one noise draw; cross-state ones draw two.
    """
    noise_cdf, pol_cdf = cdfs
    n_a, gamma = env.space.num_actions, env.gamma
    s, a = np.divmod(x, n_a)
    s2, a2 = np.divmod(y, n_a)
    cross = cls == _CROSS
    ia = o + 1 + cross
    u1 = np.searchsorted(noise_cdf, w[o], side="right")
    u2 = np.searchsorted(noise_cdf, w.take(o + 1, mode="clip"), side="right")
    u2 = np.where(cross, u2, u1)
    r1, s1 = env.g[s, a, u1], env.h[s, a, u1]
    r2, t1 = env.g[s2, a2, u2], env.h[s2, a2, u2]
    x1 = s1 * n_a + _draw_actions(pol_cdf, s1, w[ia])
    y1 = t1 * n_a + _draw_actions(pol_cdf, t1, w.take(ia + 1, mode="clip"))
    y1 = np.where(cls <= _DIAG, x1, y1)
    coef_a = np.where(cls == _MU, r1, r1 * r2)
    coef_b = np.where(
        cls == _MU, gamma, np.where(cls == _DIAG, 2.0 * gamma * r1, gamma * r1)
    )
    return coef_a, coef_b, gamma * r2, x1, y1


def _backups(env, policy, m, i: Index2, n: int, draw) -> np.ndarray:
    """n one-sample backups at coordinate i; draw(k) returns the uniforms,
    sample j reading its k draws from position j*k."""
    y = i.x if i.kind == "mu" else i.x2
    cls = _draw_class(env.space.num_actions, i.kind, i.x, y)
    k = int(_NUM_DRAWS[cls])
    coef_a, coef_b, coef_c, x1, y1 = _sample_terms(
        env, _sampling_cdfs(env, policy), np.full(n, cls), np.full(n, i.x),
        np.full(n, y), draw(k), np.arange(n) * k,
    )
    mu, sig, g2 = m.m_mu, m.m_sigma, env.gamma**2
    if cls == _MU:
        return coef_a + coef_b * mu[x1]
    if cls == _DIAG:
        return coef_a + coef_b * mu[x1] + g2 * sig[x1, y1]
    return coef_a + coef_b * mu[y1] + coef_c * mu[x1] + g2 * sig[x1, y1]


def sample_backup(
    env: ExoJmdp,
    policy: Policy,
    m: MomentCollection2,
    i: Index2,
    rng: np.random.Generator,
) -> float:
    """Draw one random backup for coordinate i; its conditional mean is the
    exact operator coordinate. Takes exactly 8 uniforms from rng."""
    _check_dims(env, m.m_mu.size)
    return float(_backups(env, policy, m, i, 1, lambda k: rng.random(8))[0])


def _coordinate_table(space) -> tuple[np.ndarray, int]:
    """Rows (draw class, x, y, slot) in enumerate_indices order, and the slot
    count; mirrored second-moment pairs share a slot (one visit counter).
    Slots are numbered by first appearance: mean x has slot x, and pair
    {i <= j}, first met at row-major position (i, j), slot
    |X| + i |X| - i (i - 1) / 2 + (j - i)."""
    n, n_a = space.num_x, space.num_actions
    x, y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    cls = np.where(x == y, _DIAG, np.where(x // n_a == y // n_a, _SAME, _CROSS))
    mu = np.arange(n, dtype=np.int64)
    table = np.empty((n + n * n, 4), dtype=np.int64)
    table[:n] = np.stack([np.full(n, _MU), mu, mu, mu], axis=1)
    for col, pairs in enumerate((cls, x, y, n + lo * n - lo * (lo - 1) // 2 + hi - lo)):
        table[n:, col] = pairs
    return table, n + n * (n + 1) // 2


@dataclass(frozen=True)
class IncrementalResult:
    final: MomentCollection2
    trace: list  # (update_index, lambda_distance_to_fixed_point or nan, last alpha)
    num_updates: int


def run_incremental(
    env: ExoJmdp,
    policy: Policy,
    schedule: StepSchedule,
    visitation: VisitationScheme,
    num_updates: int,
    seed: int,
    m0: MomentCollection2 | None = None,
    fixed_point: MomentCollection2 | None = None,
    trace_stride: int = 10_000,
) -> IncrementalResult:
    """Asynchronous one-coordinate updates; deterministic given the seed.

    When fixed_point is provided, the trace records the weighted sup-norm
    distance to it every trace_stride updates (and at the final update).
    """
    if num_updates < 1:
        raise InvalidInputError(f"num_updates must be >= 1, got {num_updates}")
    if trace_stride < 1:
        raise InvalidInputError(f"trace_stride must be >= 1, got {trace_stride}")
    for m in (m0, fixed_point):
        if m is not None:
            _check_dims(env, m.m_mu.size)
    n_x = env.space.num_x
    m_start = MomentCollection2.zeros(env.space) if m0 is None else m0
    table, num_slots = _coordinate_table(env.space)
    schedule.bind(num_slots)
    cls, xs, ys, slots = table.T
    hops = _NUM_DRAWS[cls] + 1  # uniform mode: one visitation draw first
    target = np.where(cls == _MU, xs, xs * n_x + ys)
    mirror = ys * n_x + xs
    n_idx = cls.size

    cdfs = _sampling_cdfs(env, policy)
    # One seeded U(0,1) sequence, consumed in order. How it is cut into
    # rng.random calls does not change its values.
    rng = np.random.default_rng(seed)
    carry = np.empty(0)  # drawn ahead by the visitation walk, not yet used
    weights = LambdaWeights(env.gamma)
    g2 = env.gamma**2
    # The relaxation is sequential; plain lists make it cheap per update.
    mu = m_start.m_mu.tolist()
    sig = m_start.m_sigma.ravel().tolist()

    trace: list = []
    k = 0
    while k < num_updates:
        stop = min(num_updates, k + _CHUNK, (k // trace_stride + 1) * trace_stride)
        n = stop - k
        if visitation.mode == "sweep":
            pos = np.arange(k, stop) % n_idx
            draws = _NUM_DRAWS[cls[pos]]
            used = int(draws.sum())
            w = rng.random(used)
            start = np.cumsum(draws) - draws
        else:
            # Which coordinate comes next depends on the draws before it, so
            # walk the visitation draws once; the rest is gathered at once.
            ahead = max(n * int(hops.max()) - carry.size, 0)
            w = np.concatenate((carry, rng.random(ahead)))
            visit = np.minimum((w * n_idx).astype(np.int64), n_idx - 1)
            hop = hops[visit].tolist()
            offsets = [0] * n
            used = 0
            for j in range(n):
                offsets[j] = used
                used += hop[used]
            offsets = np.array(offsets)
            pos = visit[offsets]
            start = offsets + 1
            carry = w[used:]
        c = cls[pos]
        coef_a, coef_b, coef_c, x1, y1 = _sample_terms(
            env, cdfs, c, xs[pos], ys[pos], w, start
        )
        alphas = schedule.steps(slots[pos])
        for kd, t, t2, ca, cb, cc, i, j, f, al in zip(
            c.tolist(), target[pos].tolist(), mirror[pos].tolist(),
            coef_a.tolist(), coef_b.tolist(), coef_c.tolist(), x1.tolist(),
            y1.tolist(), (x1 * n_x + y1).tolist(), alphas.tolist(),
        ):
            if kd == _MU:
                mu[t] = (1.0 - al) * mu[t] + al * (ca + cb * mu[i])
            elif kd == _DIAG:
                sig[t] = (1.0 - al) * sig[t] + al * (ca + cb * mu[i] + g2 * sig[f])
            else:
                new = (1.0 - al) * sig[t] + al * (ca + cb * mu[j] + cc * mu[i] + g2 * sig[f])
                sig[t] = new
                sig[t2] = new
        k = stop
        if k % trace_stride == 0 or k == num_updates:
            if fixed_point is None:
                dist = float("nan")
            else:
                dist = lambda_norm(_collection(mu, sig, n_x) - fixed_point, weights)
            trace.append((k, dist, float(alphas[-1])))

    return IncrementalResult(_collection(mu, sig, n_x), trace, num_updates)


def _collection(mu: list, sig: list, n_x: int) -> MomentCollection2:
    s = np.array(sig).reshape(n_x, n_x)
    return MomentCollection2(np.array(mu), 0.5 * (s + s.T))


def noise_bound_constants(gamma: float) -> tuple[float, float]:
    """(C0, C1) of the conditional second-moment bound C0 + C1 * ||m||^2."""
    lam = 2.0 / (1.0 - gamma)
    return 8.0, 8.0 * max(gamma**2, (2.0 * gamma + gamma**2 * lam) ** 2)


@dataclass(frozen=True)
class NoiseDiagnostic:
    mean_error: float
    mean_error_se: float
    second_moment: float
    bound: float
    num_samples: int


def noise_diagnostic(
    env: ExoJmdp,
    policy: Policy,
    m: MomentCollection2,
    i: Index2,
    num_samples: int,
    seed: int,
) -> NoiseDiagnostic:
    """Empirical mean and second moment of the backup noise at one coordinate.

    The noise is backup minus exact operator coordinate; its conditional mean
    is zero and its second moment is bounded by C0 + C1 * ||m||_lambda^2.
    """
    if num_samples < 1000:
        raise InvalidInputError(f"need at least 1000 samples, got {num_samples}")
    exact_full = apply_t2(env, policy, m)
    if i.kind == "mu":
        exact = float(exact_full.m_mu[i.x])
    else:
        exact = float(exact_full.m_sigma[i.x, i.x2])

    rng = np.random.default_rng(seed)
    n = num_samples
    # One rng.random(n) call per draw slot, in stream order, as a (k, n) block.
    vals = _backups(
        env, policy, m, i, n, lambda k: rng.random((k, n)).ravel(order="F")
    )
    omega = vals - exact
    mean_err = float(omega.mean())
    se = float(omega.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    second = float((omega**2).mean())
    c0, c1 = noise_bound_constants(env.gamma)
    norm = lambda_norm(m, LambdaWeights(env.gamma))
    return NoiseDiagnostic(mean_err, se, second, c0 + c1 * norm**2, n)
