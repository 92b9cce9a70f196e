"""Asynchronous one-sample stochastic approximation of the second-order backup.

Each update takes one `env.sample_step` per position of the selected
coordinate (a same-state pair shares one noise uniform, a cross-state pair
draws two, a diagonal pair shares the action uniform too), forms the
one-sample backup, and relaxes the table entry toward it. Every class's
backup has one form, A + B mu[y'] + C mu[x'] + gamma^2 sigma[x', y'].
A second-moment pair and its swap share one value, so each update writes
once, the table stays symmetric and the fixed point is unchanged.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import (MomentCollectionN, _check_choice, _check_gamma, _check_int, _check_real,
                   _order_weight, check_budget, lambda_norm)
from .dp import _BackupPlan, _check_moments, check_backup_budget
from .env import ExoJmdp, Policy, _check_policy, sample_step
from .errors import InvalidQueryError

__all__ = [
    "sample_backup",
    "run_incremental",
    "check_incremental_budget",
    "check_noise_budget",
    "IncrementalResult",
    "noise_diagnostic",
    "NoiseDiagnostic",
    "noise_bound_constants",
]


# Coordinate draw classes: the uniforms one backup consumes, in stream order,
# are u, a' (mu and diagonal), u, a', b' (same state) or u, u2, a', b' (cross).
_MU, _DIAG, _SAME, _CROSS = 0, 1, 2, 3
_NUM_DRAWS = np.array([2, 2, 3, 4])
_CHUNK = 2048  # updates presampled at once; bounds the extra memory


def _draw_classes(n_a: int, x, y, mean) -> np.ndarray:
    """Draw class of each coordinate (x, y); mean marks the mean coordinates."""
    pair = np.where(x == y, _DIAG, np.where(x // n_a == y // n_a, _SAME, _CROSS))
    return np.where(mean, _MU, pair)


def _sample_terms(env: ExoJmdp, policy: Policy, cls, x, y, w, o, place):
    """Successors and backup coefficients for coordinates (cls, x, y) whose
    draws start at w[o], one entry per coordinate.

    Returns (A, B, C, x1, y1, f); every class's one-sample backup is
    A + B v[y1] + C v[x1] + gamma^2 v[f] over a value list v that starts with
    the mean table and ends with one 0.0. f is place.take(x1 |X| + y1), the
    place of sigma[x1, y1] in v read from a contiguous row-major table of the
    pairs' places, or -1 (that 0.0) for a mean coordinate; mean and diagonal
    coordinates have C = 0 and y1 = x1.
    """
    gamma = env.gamma
    cross = cls == _CROSS
    ia = o + 1 + cross
    r1, _, x1 = sample_step(env, policy, x, w[o], w[ia])
    r = np.where(cross, w.take(o + 1, mode="clip"), w[o])  # same state: one noise draw
    r2, _, y1 = sample_step(env, policy, y, r, w.take(ia + 1, mode="clip"))
    mean, single = cls == _MU, cls <= _DIAG
    y1 = np.where(single, x1, y1)
    coef_a = np.where(mean, r1, r1 * r2)
    coef_b = np.where(mean, gamma, np.where(single, 2.0 * gamma * r1, gamma * r1))
    coef_c = np.where(single, 0.0, gamma * r2)
    f = place.take(x1 * env.space.num_x + y1)
    return coef_a, coef_b, coef_c, x1, y1, np.where(mean, -1, f)


def _check_coordinate(env: ExoJmdp, i) -> tuple:
    """i as a tuple of Python ints, (x,) for a mean or (x, y) for a second
    moment; InvalidQueryError unless it has 1 or 2 integer entries in 0..|X|-1
    (a bool is not one: it is read as None)."""
    try:
        i = tuple(operator.index(None if isinstance(x, bool) else x) for x in i)
    except TypeError:
        raise InvalidQueryError(f"coordinate {i!r} is not a tuple of integers") from None
    if len(i) not in (1, 2):
        raise InvalidQueryError(f"coordinate {i} has {len(i)} entries, not 1 or 2")
    for x in i:
        env.space.sa(x)
    return i


def _backups(env, policy, m, i: tuple, n: int, draw) -> np.ndarray:
    """n one-sample backups at coordinate i, (x,) or (x, y); draw(k) returns
    the uniforms, sample j reading its k draws from position j*k."""
    n_x = env.space.num_x
    xs, ys = np.full(n, i[0]), np.full(n, i[-1])
    cls = _draw_classes(env.space.num_actions, xs, ys, len(i) == 1)
    k = int(_NUM_DRAWS[cls[0]])
    place = np.arange(n_x, n_x + n_x * n_x)  # row-major, after the means
    coef_a, coef_b, coef_c, x1, y1, f = _sample_terms(
        env, policy, cls, xs, ys, draw(k), np.arange(n) * k, place
    )
    v = np.r_[m.m_mu, m.m_sigma.ravel(), 0.0]
    return coef_a + coef_b * v[y1] + coef_c * v[x1] + env.gamma**2 * v[f]


def sample_backup(
    env: ExoJmdp,
    policy: Policy,
    m: MomentCollectionN,
    i: tuple,
    rng: np.random.Generator,
) -> float:
    """Draw one random backup for coordinate i, (x,) or (x, y); its conditional
    mean is the exact operator coordinate. Takes exactly 8 uniforms from rng."""
    _check_policy(env, policy)
    _check_moments(env, m, 2)
    i = _check_coordinate(env, i)
    return float(_backups(env, policy, m, i, 1, lambda k: rng.random(8))[0])


def _coordinate_table(space) -> tuple[np.ndarray, int]:
    """Rows (draw class, x, y, slot), the |X| mean coordinates first, then the
    |X|^2 pairs row-major, and the slot count; mirrored second-moment pairs
    share a slot (one visit counter). Slots are numbered by first appearance:
    mean x has slot x, and pair {i <= j}, first met at row-major position
    (i, j), slot |X| + i |X| - i (i - 1) / 2 + (j - i). Each column is
    contiguous, so the run's slot column is its contiguous place table."""
    n = space.num_x
    # Mean x is listed as the pair (x, x), flat position x (n + 1).
    x, y = np.divmod(np.r_[np.arange(n) * (n + 1), np.arange(n * n)].astype(np.int64), n)
    mean = np.arange(n + n * n) < n
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    slot = np.where(mean, x, n + lo * n - lo * (lo - 1) // 2 + hi - lo)
    cls = _draw_classes(space.num_actions, x, y, mean)
    return np.stack([cls, x, y, slot]).T, n + n * (n + 1) // 2


_UPDATE_BYTES = 512  # per update of a chunk: its draws, terms and their lists
_SAMPLE_BYTES = 168  # per noise_diagnostic sample: draws, terms, values (163 measured)


def check_incremental_budget(env: ExoJmdp) -> int:
    """Bytes run_incremental holds at once; raises BudgetError when that
    exceeds core.BUDGET_BYTES. Per row of the coordinate table (|X| + |X|^2):
    ten words for its four columns, the hop array and the temporaries that
    build them; per slot (and the trailing 0.0) 40 bytes of value list (a
    pointer and a float, and the array it is listed from) and a step counter
    word; four |X|^2 tables (m0's symmetrization and its temporary, or at a
    checkpoint the gathered pair table, its difference to the fixed point and
    that difference's absolute value); the mean snapshots at their worst, a
    chunk of mean rows only, (_CHUNK + 1) |X| entries as list pointers and
    as an array; per update of a chunk, _UPDATE_BYTES."""
    n_x = env.space.num_x
    slots = n_x + n_x * (n_x + 1) // 2 + 1
    words = 10 * (n_x + n_x * n_x) + slots + 4 * n_x * n_x + 2 * (_CHUNK + 1) * n_x
    return check_budget(f"incremental run over {n_x} coordinates",
                        8 * words + 40 * slots + _UPDATE_BYTES * _CHUNK)


def check_noise_budget(env: ExoJmdp, num_samples: int) -> int:
    """Bytes noise_diagnostic holds at most; raises BudgetError when that
    exceeds core.BUDGET_BYTES: the order-2 backup's count, the |X|^2 place
    table of the samples' value list, and per sample its draws, terms and
    values (_SAMPLE_BYTES)."""
    return check_budget(
        f"noise diagnostic of {num_samples} samples over {env.space.num_x} coordinates",
        check_backup_budget(env, 2, 0) + 8 * env.space.num_x**2 + _SAMPLE_BYTES * num_samples)


@dataclass(frozen=True)
class IncrementalResult:
    final: MomentCollectionN
    trace: list  # (update_index, lambda_distance_to_fixed_point or nan, last alpha)
    num_updates: int


def _steps(counts: np.ndarray, slots: np.ndarray, rule: str, c: float,
           alpha0: float) -> np.ndarray:
    """Step sizes for consecutive visits to slots[0], slots[1], ..., each
    visit added to its slot's counter in counts. harmonic: c / (c + visits),
    which satisfies the usual divergent-sum / summable-squares conditions per
    coordinate; constant: alpha0."""
    if rule == "harmonic":
        # Visits to a slot earlier in this batch count: rank within slot.
        # numpy radix-sorts a key of 16 bits or fewer.
        key = slots.astype(np.min_scalar_type(counts.size))
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        seq = np.arange(slots.size)
        head = seq.copy()  # seq at a slot's first visit, else 0 (seq[0] is 0)
        head[1:] *= ranked[1:] != ranked[:-1]
        rank = np.empty_like(seq)
        rank[order] = seq - np.maximum.accumulate(head)
        alpha = c / (c + (counts[slots] + rank))
    else:
        alpha = np.full(slots.size, alpha0)
    counts += np.bincount(slots, minlength=counts.size)
    return alpha


def run_incremental(
    env: ExoJmdp,
    policy: Policy,
    num_updates: int,
    seed: int,
    *,
    rule: str = "harmonic",
    c: float = 10.0,
    alpha0: float = 0.1,
    visitation: str = "uniform",
    m0: MomentCollectionN | None = None,
    fixed_point: MomentCollectionN | None = None,
    trace_stride: int = 10_000,
) -> IncrementalResult:
    """Asynchronous one-coordinate updates; deterministic given the seed.

    rule "harmonic" steps c / (c + visits) per coordinate, "constant" steps
    alpha0; a second-moment pair and its swap share one visit counter.
    visitation "sweep" cycles through the coordinates, "uniform" draws each
    one at random; both select every coordinate infinitely often over an
    unbounded run. When fixed_point is provided, the trace records the
    weighted sup-norm distance to it every trace_stride updates (and at the
    final update).
    """
    _check_policy(env, policy)
    rule = _check_choice("rule", rule, ("harmonic", "constant"))
    c = _check_real("c", c, "(0, inf)")
    alpha0 = _check_real("alpha0", alpha0, "(0, 1]")
    visitation = _check_choice("visitation", visitation, ("sweep", "uniform"))
    _check_int("num_updates", num_updates, 1)
    _check_int("trace_stride", trace_stride, 1)
    _check_int("seed", seed, 0)
    for m in (m0, fixed_point):
        if m is not None:
            _check_moments(env, m, 2)
    check_incremental_budget(env)
    n_x = env.space.num_x
    table, num_slots = _coordinate_table(env.space)
    counts = np.zeros(num_slots, dtype=np.int64)  # visits per slot
    cls, xs, ys, slots = table.T
    hops = (_NUM_DRAWS[cls] + 1).astype(np.uint8)  # uniform mode: one visitation draw first
    place = slots[n_x:].reshape(n_x, n_x)  # slot of sigma[x, y], contiguous
    n_idx = cls.size

    # One seeded U(0,1) sequence, consumed in order. How it is cut into
    # rng.random calls does not change its values.
    rng = np.random.default_rng(seed)
    carry = np.empty(0)  # drawn ahead by the visitation walk, not yet used
    g2 = env.gamma**2
    # The relaxation is sequential; a plain value list, one value per slot
    # then the 0.0 (see _sample_terms), makes it cheap per update.
    vals = np.zeros(num_slots + 1)
    if m0 is not None:
        vals[:n_x] = m0.m_mu
        vals[place] = 0.5 * (m0.m_sigma + m0.m_sigma.T)
    vals = vals.tolist()

    trace: list = []
    k = 0
    while k < num_updates:
        stop = min(num_updates, k + _CHUNK, (k // trace_stride + 1) * trace_stride)
        n = stop - k
        if visitation == "sweep":
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
            hop = hops[visit].tobytes()
            offsets = [0] * n
            used = 0
            for j in range(n):
                offsets[j] = used
                used += hop[used]
            offsets = np.fromiter(offsets, np.int64, n)
            pos = visit[offsets]
            start = offsets + 1
            carry = w[used:]
        kind = cls[pos]
        coef_a, coef_b, coef_c, x1, y1, f = _sample_terms(
            env, policy, kind, xs[pos], ys[pos], w, start, place
        )
        target = slots[pos]
        alphas = _steps(counts, target, rule, c, alpha0)
        oa = 1.0 - alphas
        # A mean row reads only means and the 0.0 (C = 0, y1 = x1): relax the
        # mean rows first, on a copy of the means and with the loop's own
        # operations, keeping the means after each.
        mean = kind == _MU
        mu = vals[:n_x]
        snaps = mu[:]
        for t, ca, cb, cc, j, o, al in zip(
            target[mean].tolist(), coef_a[mean].tolist(), coef_b[mean].tolist(),
            coef_c[mean].tolist(), y1[mean].tolist(), oa[mean].tolist(), alphas[mean].tolist(),
        ):
            mu[t] = o * mu[t] + al * (ca + cb * mu[j] + cc * mu[j] + g2 * 0.0)
            snaps += mu
        # Each row's A + B mu[y1] + C mu[x1], read from the means after the
        # mean rows before it; then every row relaxes in order.
        snaps = np.fromiter(snaps, float, len(snaps))
        row = (np.cumsum(mean) - mean) * n_x
        base = coef_a + coef_b * snaps[row + y1] + coef_c * snaps[row + x1]
        for t, q, b, o, al in zip(
            target.tolist(), f.tolist(), base.tolist(), oa.tolist(), alphas.tolist()
        ):
            vals[t] = o * vals[t] + al * (b + g2 * vals[q])
        k = stop
        if k % trace_stride == 0 or k == num_updates:
            dist = float("nan") if fixed_point is None else lambda_norm(
                [a - b for a, b in zip(_tables(vals, place), fixed_point.tables)], env.gamma)
            trace.append((k, dist, float(alphas[-1])))

    return IncrementalResult(MomentCollectionN(tuple(_tables(vals, place))), trace, num_updates)


def _tables(vals: list, place: np.ndarray) -> list:
    """The value list's [m_mu, m_sigma], the pair table gathered through place."""
    return [np.array(vals[:len(place)]), np.array(vals)[place]]


def noise_bound_constants(gamma: float) -> tuple[float, float]:
    """(C0, C1) of the conditional second-moment bound C0 + C1 * ||m||^2."""
    gamma = _check_gamma(gamma)
    lam = _order_weight(gamma, 2)
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
    m: MomentCollectionN,
    i: tuple,
    num_samples: int,
    seed: int,
) -> NoiseDiagnostic:
    """Empirical mean and second moment of the backup noise at coordinate i.

    The noise is backup minus exact operator coordinate; its conditional mean
    is zero and its second moment is bounded by C0 + C1 * ||m||_lambda^2.
    Its bytes (check_noise_budget) are checked before any work.
    """
    _check_int("num_samples", num_samples, 1000)
    _check_int("seed", seed, 0)
    _check_moments(env, m, 2)
    i = _check_coordinate(env, i)
    check_noise_budget(env, num_samples)
    exact = float(_BackupPlan(env, policy, 2, 0).apply(m.tables)[len(i) - 1][i])

    rng = np.random.default_rng(seed)
    n = num_samples
    # One rng.random(n) call per draw slot, in stream order, as a (k, n) block.
    vals = _backups(
        env, policy, m, i, n, lambda k: rng.random((k, n)).ravel(order="F")
    )
    omega = vals - exact
    mean_err = float(omega.mean())
    se = float(omega.std(ddof=1) / np.sqrt(n))
    second = float((omega**2).mean())
    c0, c1 = noise_bound_constants(env.gamma)
    norm = lambda_norm(m, env.gamma)
    return NoiseDiagnostic(mean_err, se, second, c0 + c1 * norm**2, n)
