"""Exact joint Bellman operators and their fixed-point iterations.

Both orders run one certified algorithm: build the backup of the chosen order
once per (env, policy), iterate it on raw moment tables until the residual
certifies accuracy through the computable bound
||m - m*|| <= residual / (1 - gamma), and wrap only the result in a frozen,
symmetry-checked collection.

The second-order backup enumerates the noise support and the policy; no
sampling anywhere, so contraction properties can be checked to float
precision. Queries at distinct states use independent draws, so the
cross-state block factors through the marginal MDP (env.marginal_mdp): with
mean rewards r, expected continuation means e, marginal kernel P (|X| x S) and
policy-averaged second moments M (S x S), it is r r' + gamma (r e' + e r') +
gamma^2 P M P'. Only same-state entries enumerate the shared noise draw. The
build computes every term that does not read the tables.

The order-n backup works on whole tensors, grouped by the coincidence
pattern of a tuple's k positions: sigma groups positions at one state (one
shared noise draw), tau refines it to positions at one coordinate (one shared
next action, as they denote one random return). Per pattern class and per
choice of continuing positions, the order-j table enters only through a
policy-averaged state table (S^j, one axis per continuing tau-block), which
each sigma-block contracts with its noise kernel: a dense matrix, such as the
marginal kernel P for one continuing position, or a gather over h with the
shared draw enumerated. The state tables share one vector z by total order; a
pattern class whose map from z's order-k prefix fits in _DENSE_KERNEL_MAX
entries is composed at build time into one dense matrix. Memory is S^k-sized
per pattern plus the |X|^k tables and a gather index, all counted against
core.BUDGET_BYTES before any work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _CHECK_BLOCK, LambdaWeights, MomentCollectionN, check_budget, lambda_norm
from .env import ExoJmdp, Policy, marginal_mdp
from .errors import InvalidInputError

__all__ = [
    "Jipe2Report",
    "apply_t2",
    "jipe2",
    "check_backup2_budget",
    "apply_tn",
    "jipe_n",
]


@dataclass(frozen=True)
class Jipe2Report:
    """Outcome of a second-order evaluation run.

    certified_error_bound is always residual/(1-gamma) for the final iterate;
    certified says whether the requested tolerance was reached within max_iter.
    """

    final: MomentCollectionN
    residual_trace: list
    iterations: int
    certified: bool
    certified_error_bound: float


def _check_moments(env: ExoJmdp, m: MomentCollectionN, order: int) -> None:
    """Reject a collection not of order `order` over env's state-action pairs."""
    if m.order != order or m.num_x != env.space.num_x:
        raise InvalidInputError(
            f"moments have order {m.order} over {m.num_x} coordinates, "
            f"expected order {order} over {env.space.num_x}"
        )


_BACKUP2_SLACK_BYTES = 64 * 1024  # the interpreter's small objects and array headers
_TRACE_BYTES = 128  # one (iteration, residual) entry of _solve's trace, list slot included


def check_backup2_budget(env: ExoJmdp, max_iter: int = 100_000) -> int:
    """Bytes a second-order solve of at most max_iter steps holds at once;
    raises BudgetError when that exceeds core.BUDGET_BYTES. The iterate and
    the reward products rr are held through the loop, and at most three more
    |X|^2 tables live at once: apply's temporaries (its output among them), or
    the backup, the difference and its absolute value in the residual, or the
    backup and the frozen copy. Beside them: the |X| x S kernel and a matrix
    product with it, the S x S averaged table, the same-state gather over
    (S, A, A, U) with its index pairs, (S, A, A) blocks, marginal_mdp's
    (S, A, U) index arrays and per-coordinate vectors, and the residual trace."""
    s_n, a_n, u_n = env.g.shape
    n_x = env.space.num_x
    words = (5 * n_x * n_x + 2 * n_x * s_n + s_n * s_n + 3 * s_n * a_n * a_n * u_n
             + 8 * s_n * a_n * a_n + 5 * n_x * u_n + 16 * n_x)
    return check_budget(f"second-order backup over {n_x} coordinates",
                        8 * words + _TRACE_BYTES * (max_iter + 1) + _BACKUP2_SLACK_BYTES)


class _Backup2:
    """The second-order backup, built once per solve.

    apply(tables) maps raw [m_mu, m_sigma] to the backed-up pair, as
    _BackupPlan.apply does for order n. The build holds what does not read
    the tables: the marginal MDP's mean rewards and kernel, the reward
    products, E[g_a g_b] and E[g^2] under the noise, and the successor index
    pairs of same-state entries. Its bytes (check_backup2_budget) are checked
    before any array is built.
    """

    def __init__(self, env: ExoJmdp, policy: Policy, max_iter: int):
        check_backup2_budget(env, max_iter)
        s_n, n_x = env.space.num_states, env.space.num_x
        self.env, self.pi = env, policy.probs
        u_probs, g, h = env.noise.probs, env.g, env.h
        self.r_mean, p_s = marginal_mdp(env)
        self.r = self.r_mean.reshape(n_x, 1)
        self.p = p_s.reshape(n_x, s_n)
        self.rr = self.r * self.r.T
        self.gg = np.einsum("u,sau,sbu->sab", u_probs, g, g)
        self.g2 = (g * g) @ u_probs
        self.hh = (h[:, :, None, :], h[:, None, :, :])

    def apply(self, tables) -> list:
        """One backup of the raw [m_mu, m_sigma]; returns the new pair."""
        env, pi, gamma = self.env, self.pi, self.env.gamma
        s_n, a_n, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
        u_probs, g, h = env.noise.probs, env.g, env.h
        mu = tables[0].reshape(s_n, a_n)
        sig = tables[1].reshape(s_n, a_n, s_n, a_n)

        # Policy-averaged lookups of the input tables.
        mbar = np.einsum("sa,sa->s", pi, mu)  # E_pi[m_mu(s', .)]
        msum2 = np.einsum("ia,iajb,jb->ij", pi, sig, pi)  # independent next actions
        diag_sa = np.einsum("sasa->sa", sig)
        mdiag = np.einsum("sa,sa->s", pi, diag_sa)  # one shared next action

        mbar_h = mbar[h]  # (S, N, U)
        e_mb = mbar_h @ u_probs  # E[mbar(S') | s, a]

        t_mu = self.r_mean + gamma * e_mb

        # Cross-state coordinates: the two queries use independent draws, so
        # every term factorizes through the marginal MDP.
        r, e, p = self.r, e_mb.reshape(n_x, 1), self.p
        t_sig = (
            self.rr + gamma * (r * e.T) + gamma * (e * r.T) + gamma**2 * (p @ msum2 @ p.T)
        ).reshape(s_n, a_n, s_n, a_n)

        # Same-state coordinates: one shared noise draw couples the two actions.
        cross = gamma * np.einsum("u,sau,sbu->sab", u_probs, g, mbar_h)
        t4 = gamma**2 * np.einsum("u,sabu->sab", u_probs, msum2[self.hh])
        same_block = self.gg + cross + cross.transpose(0, 2, 1) + t4

        # Repeated coordinate (same state and action): the query denotes a
        # single random return, so the continuation shares one next action.
        diag_val = (
            self.g2
            + 2.0 * gamma * np.einsum("u,sau,sau->sa", u_probs, g, mbar_h)
            + gamma**2 * mdiag[h] @ u_probs
        )

        states = np.arange(s_n)
        t_sig[states, :, states, :] = same_block
        acts = np.arange(a_n)
        t_sig[states[:, None], acts[None, :], states[:, None], acts[None, :]] = diag_val

        t_sig = t_sig.reshape(n_x, n_x)
        return [t_mu.reshape(-1), 0.5 * (t_sig + t_sig.T)]


def apply_t2(env: ExoJmdp, policy: Policy, m: MomentCollectionN) -> MomentCollectionN:
    """One exact application of the second-order joint Bellman operator."""
    _check_moments(env, m, 2)
    return MomentCollectionN(tuple(_Backup2(env, policy, 0).apply(m.tables)))


def check_solver_args(epsilon: float, max_iter: int) -> None:
    """Shared guard of the iterative solvers: a finite epsilon > 0, max_iter >= 0."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidInputError(f"epsilon must be finite and > 0, got {epsilon}")
    if max_iter < 0:
        raise InvalidInputError(f"max_iter must be >= 0, got {max_iter}")


def _solve(env: ExoJmdp, order: int, backup, epsilon: float, max_iter: int,
           m0: MomentCollectionN | None) -> tuple:
    """The exact solvers' fixed-point loop. Checks the arguments and m0, then
    builds the backup (backup() returns an object whose apply maps raw
    order-1..n tables to their backup) and iterates it from m0, or from zero
    tables, on raw tables. Stops at the first m with
    ||m - backup(m)||_lambda <= epsilon * (1 - gamma), or after max_iter steps.
    Returns (m as a frozen collection, [(iteration, residual), ...])."""
    check_solver_args(epsilon, max_iter)
    if order < 1:
        raise InvalidInputError(f"order must be >= 1, got {order}")
    if m0 is not None:
        _check_moments(env, m0, order)
    apply = backup().apply
    n_x, gamma = env.space.num_x, env.gamma
    tables = m0.tables if m0 is not None else [np.zeros((n_x,) * k) for k in range(1, order + 1)]
    weights = LambdaWeights(gamma)
    trace: list = []
    for k in range(max_iter + 1):
        t_m = apply(tables)
        trace.append((k, lambda_norm([a - b for a, b in zip(tables, t_m)], weights)))
        if trace[-1][1] <= epsilon * (1.0 - gamma) or k == max_iter:
            break
        tables = t_m
    if m0 is not None and trace[-1][0] == 0:
        return m0, trace
    return MomentCollectionN(tuple(tables)), trace


def jipe2(
    env: ExoJmdp,
    policy: Policy,
    epsilon: float,
    max_iter: int = 100_000,
    m0: MomentCollectionN | None = None,
) -> Jipe2Report:
    """Iterate the second-order operator until the residual certifies epsilon accuracy.

    Stops once ||m_k - T m_k||_lambda <= epsilon * (1 - gamma), at which point
    ||m_k - m*||_lambda <= epsilon. Hitting max_iter first yields certified=False.
    """
    final, trace = _solve(env, 2, lambda: _Backup2(env, policy, max_iter), epsilon, max_iter, m0)
    k, residual = trace[-1]
    certified = residual <= epsilon * (1.0 - env.gamma)
    return Jipe2Report(final, trace, k, certified, residual / (1.0 - env.gamma))


# ---------------------------------------------------------------------------
# Arbitrary-order operator
# ---------------------------------------------------------------------------


_DENSE_KERNEL_MAX = 1 << 15  # entries; a larger block kernel is a gather, a larger view factored
_OBJECT_BYTES = 1024  # budget allowance per plan entry for its Python objects


def _run_blocks(code: tuple) -> tuple:
    """(shape, blocks) of a sorted tuple whose position i+1 repeats the
    coordinate of position i (code[i] = 0), only its state (1) or neither (2).
    Blocks are sigma-blocks (lists of tau-blocks of positions) in the order of
    the class representative: sigma-blocks by decreasing (size, tau-block
    sizes), tau-blocks by decreasing size; shape lists their sizes."""
    blocks = [[[0]]]
    for i, d in enumerate(code, start=1):
        if d == 2:
            blocks.append([[i]])
        elif d == 1:
            blocks[-1].append([i])
        else:
            blocks[-1][-1].append(i)
    blocks = [sorted(b, key=len, reverse=True) for b in blocks]
    blocks.sort(key=lambda b: [sum(map(len, b))] + [len(t) for t in b], reverse=True)
    return tuple(tuple(map(len, b)) for b in blocks), blocks


def _terms(shape: tuple, gamma: float):
    """Terms of the representative with tau-block sizes `shape`: one per choice
    of t_j continuing positions in each tau-block j, weighing gamma^sum(t)
    prod_j C(m_j, t_j). Yields its state table's key (the nonzero t_j,
    decreasing), the transpose putting that table's axes in tau-block order,
    and a (sizes, t, scale) kernel key per sigma-block, the weight riding on
    the last one."""
    sizes = [m for block in shape for m in block]
    cuts = list(itertools.accumulate([0] + [len(b) for b in shape]))
    for ts in itertools.product(*(range(m + 1) for m in sizes)):
        mults = [t for t in ts if t]
        ops = [(b, ts[lo:hi], 1.0) for b, lo, hi in zip(shape, cuts, cuts[1:])]
        ops[-1] = ops[-1][:2] + (gamma ** sum(ts) * math.prod(map(math.comb, sizes, ts)),)
        rank = np.argsort([-t for t in mults], kind="stable")
        yield tuple(sorted(mults, reverse=True)), np.argsort(rank), ops


def _kernel_size(env: ExoJmdp, sizes: tuple, conts: tuple) -> tuple:
    """(rows, cells, dense): S^(continuing tau-blocks) rows, S * N^J cells."""
    s_n, a_n, _ = env.g.shape
    rows, cells = s_n ** sum(map(bool, conts)), s_n * a_n ** len(sizes)
    return rows, cells, rows * cells <= _DENSE_KERNEL_MAX


def _block_kernel(env: ExoJmdp, sizes: tuple, conts: tuple, scale: float) -> tuple:
    """Noise kernel of one sigma-block, whose tau-block j holds sizes[j]
    positions with one action a_j, conts[j] of them continuing. Cell
    (s, a_1..a_J) collects scale * sum_u p_u prod_j g[s,a_j,u]^(sizes[j]-conts[j])
    times the state-table row at the continuing successors h[s,a_j,u]. Returns
    (rows, dense (rows, cells) matrix, None) or (rows, row index, weights)."""
    s_n, a_n, u_n = env.g.shape
    weight, row = scale * env.noise.probs, 0
    for j, (m, t) in enumerate(zip(sizes, conts)):
        axes = (s_n,) + (1,) * j + (a_n,) + (1,) * (len(sizes) - 1 - j) + (u_n,)
        # 1 * g * ... * g, not numpy's CPU-dispatched power: CPU-independent bytes.
        weight = weight * math.prod([env.g.reshape(axes)] * (m - t), start=1.0)
        row = row * s_n + env.h.reshape(axes) if t else row
    full = (s_n,) + (a_n,) * len(sizes) + (u_n,)
    weight, row = (np.broadcast_to(v, full).reshape(-1, u_n) for v in (weight, row))
    rows, cells, dense = _kernel_size(env, sizes, conts)
    if not dense:
        return rows, row, weight
    matrix = np.zeros((rows, cells))
    np.add.at(matrix, (row, np.arange(cells)[:, None]), weight)
    return rows, matrix, None


def _contract(x: np.ndarray, ops) -> np.ndarray:
    """Run x's leading axes through one (rows, kernel, weights) op per
    sigma-block, a dense product or a weighted gather; each op appends its
    cells last, so axes after the consumed ones (a batch axis) come out first."""
    for rows, kern, weight in ops:
        x = x.reshape(rows, -1).T
        x = x @ kern if weight is None else (x[:, kern] * weight).sum(axis=-1)
    return x


def _gather_index(k: int, n_x: int, s_n: int, a_n: int, offsets: dict) -> np.ndarray:
    """Value-buffer index of every tuple of X^k, read at its sorted coordinates
    so that permuted tuples share one entry. Per run code, a row holds the
    representative's offset and per position a coefficient of its state and
    one of its action, nonzero only at a block's first position. The index is
    built one leading coordinate at a time to bound its working set."""
    coefs = np.zeros((3 ** (k - 1), 1 + 2 * k), dtype=np.intp)
    for row, code in zip(coefs, itertools.product(range(3), repeat=k - 1)):
        shape, blocks = _run_blocks(code)
        row[0] = offsets[shape]
        for c, block in enumerate(blocks):
            stride = math.prod(s_n * a_n ** len(b) for b in blocks[c + 1:])
            row[1 + min(t[0] for t in block)] = stride * a_n ** len(block)
            for j, tau in enumerate(block):
                row[1 + k + tau[0]] = stride * a_n ** (len(block) - 1 - j)
    rest = np.indices((n_x,) * (k - 1)).reshape(k - 1, n_x ** (k - 1))
    powers = 3 ** np.arange(k - 2, -1, -1)
    index = np.empty((n_x, rest.shape[1]), dtype=np.intp)
    for x0 in range(n_x):
        xs = np.sort(np.vstack([np.full((1, rest.shape[1]), x0), rest]), axis=0)
        s = xs // a_n
        row = coefs[powers @ (2 - (s[1:] == s[:-1]) - (xs[1:] == xs[:-1]))]
        index[x0] = row[:, 0] + (np.vstack([s, xs - a_n * s]).T * row[:, 1:]).sum(1)
    return index.ravel()


class _BackupPlan:
    """The order-n backup grouped by coincidence pattern, built once per solve.

    Per order and run-shape class (see _run_blocks), the representative's
    values are a view: a tensor with one axis (a state, one action per
    tau-block) per sigma-block, a sum of terms that each _contract a
    policy-averaged state table with noise kernels or, where Z_k x cells <=
    _DENSE_KERNEL_MAX, one term of one dense (Z_k, cells) op, those terms run
    on the identity at build time. The state tables share one buffer z (the
    scalar 1, then the tables by total order), so an order-k view reads the
    prefix z[:Z_k]. Tuples read it through a gather index: exact symmetry.
    `need` bounds a solve's peak bytes before any array is built: five sets
    of order-1..n tables (iterate, backup, difference, gather index, frozen
    copy), value buffers, z, composed matrices, the kernels factored views
    keep, the largest transient (a term step, a gather-index chunk, the frozen
    copy's symmetry check of at most max(|X|^(n-1), _CHECK_BLOCK) entries, or
    a batched composition step beside the kernels only it reads),
    _OBJECT_BYTES per entry and _TRACE_BYTES per residual of max_iter steps.
    """

    def __init__(self, env: ExoJmdp, policy: Policy, order: int, max_iter: int):
        s_n, a_n, u_n = env.g.shape
        n_x = env.space.num_x
        layout = []  # per order, shape -> terms
        for k in range(order):
            codes = itertools.product(range(3), repeat=k)  # the run codes of order k + 1
            layout.append({shape: list(_terms(shape, env.gamma))
                           for shape in sorted({_run_blocks(code)[0] for code in codes})})
        keys = sorted({t[0] for reps in layout for terms in reps.values() for t in terms},
                      key=lambda mults: (sum(mults), mults))  # z's layout
        ends = list(itertools.accumulate(s_n ** len(mults) for mults in keys))
        prefix = [max(e for m, e in zip(keys, ends) if sum(m) <= k) for k in range(1, order + 1)]
        held = 5 * sum(n_x**k for k in range(1, order + 1)) + ends[-1]
        peak = [max((5 * order + 4) * n_x ** (order - 1), _CHECK_BLOCK), 0]  # apply, compose
        kept, composed = set(), set()  # kernel keys of factored and of composed views
        for z_k, reps in zip(prefix, layout):
            for shape, terms in reps.items():
                cells = math.prod(s_n * a_n ** len(b) for b in shape)
                small = z_k * cells <= _DENSE_KERNEL_MAX
                held += cells + small * z_k * cells
                for mults, _, ops in terms:
                    (composed if small else kept).update(ops)
                    size, batch = s_n ** len(mults), s_n ** (len(mults) * small)
                    for rows, out, dense in (_kernel_size(env, *op[:2]) for op in ops):
                        out *= size // rows
                        step = batch * (2 * size + out * (1 if dense else 1 + 2 * u_n))
                        peak[small], size = max(peak[small], step), out
        words = {key: rows * cells if dense else 2 * cells * u_n for key in kept | composed
                 for rows, cells, dense in [_kernel_size(env, *key[:2])]}
        objects = len(words) + sum(3**k + sum(map(len, r.values())) for k, r in enumerate(layout))
        build = peak[1] + sum(words[key] for key in composed - kept)
        held += sum(words[key] for key in kept) + max(peak[0], build)
        self.need = check_budget(f"order-{order} backup over {n_x} coordinates",
                                 8 * held + _OBJECT_BYTES * objects + _TRACE_BYTES * (max_iter + 1))
        self.pi_x = np.zeros((n_x, s_n))
        self.pi_x[np.arange(n_x), np.arange(n_x) // a_n] = policy.probs.reshape(-1)
        self.z = np.r_[1.0, np.zeros(ends[-1] - 1)]  # 1 is the table of the all-reward term
        starts = dict(zip(keys, [0] + ends))
        state = {m: self.z[starts[m]:e].reshape((s_n,) * len(m)) for m, e in zip(keys, ends)}
        self.state_tables = []  # (key, byte strides of its diagonal view, its table in z)
        for mults in keys[1:]:
            tops = list(itertools.accumulate(mults))
            self.state_tables.append((mults, tuple(
                8 * sum(n_x ** (tops[-1] - 1 - q) for q in range(e - t, e))
                for t, e in zip(mults, tops)), state[mults]))
        kernels = {key: _block_kernel(env, *key) for key in words}
        self.orders = []
        for k, (z_k, reps) in enumerate(zip(prefix, layout), start=1):
            offsets, terms, size = {}, [], 0
            for shape, shape_terms in reps.items():
                offsets[shape], cells = size, math.prod(s_n * a_n ** len(b) for b in shape)
                shape_terms = [(state[m], starts[m], perm, [kernels[o] for o in ops])
                               for m, perm, ops in shape_terms]
                if z_k * cells <= _DENSE_KERNEL_MAX:
                    matrix = np.zeros((z_k, cells))
                    for x, lo, perm, ops in shape_terms:
                        eye = np.eye(x.size).reshape(x.shape + (x.size,)).transpose(*perm, x.ndim)
                        matrix[lo:lo + x.size] += _contract(eye, ops).reshape(x.size, cells)
                    shape_terms = [(self.z[:z_k], 0, (0,), [(z_k, matrix, None)])]
                terms += [(size, cells, x, perm, ops) for x, _, perm, ops in shape_terms]
                size += cells
            buf = np.empty(size)
            self.orders.append((buf, [(buf[o:o + n], *t) for o, n, *t in terms],
                                _gather_index(k, n_x, s_n, a_n, offsets)))

    def apply(self, tables) -> list:
        """One backup of the raw order-1..n tables; returns the new tables."""
        n_x = self.pi_x.shape[0]
        for mults, strides, table in self.state_tables:
            t = np.ndarray((n_x,) * len(mults), float, tables[sum(mults) - 1], 0, strides)
            for _ in mults:
                t = t.reshape(n_x, -1).T @ self.pi_x
            table[...] = t.reshape(table.shape)
        out = []
        for k, (buf, terms, index) in enumerate(self.orders, start=1):
            buf.fill(0.0)
            for view, x, perm, ops in terms:
                view += _contract(x.transpose(perm), ops).reshape(-1)
            out.append(buf[index].reshape((n_x,) * k))
        return out


def apply_tn(env: ExoJmdp, policy: Policy, m: MomentCollectionN) -> MomentCollectionN:
    """One exact application of the order-n joint Bellman operator."""
    _check_moments(env, m, m.order)
    plan = _BackupPlan(env, policy, m.order, 0)
    return MomentCollectionN(tuple(plan.apply(m.tables)))


def jipe_n(
    env: ExoJmdp,
    policy: Policy,
    order: int,
    epsilon: float,
    max_iter: int = 100_000,
    m0: MomentCollectionN | None = None,
) -> tuple[MomentCollectionN, list]:
    """Iterate the order-n operator; returns (final collection, residual trace).

    Stopping and certification mirror jipe2 with the order-weighted norm; the
    trace holds (iteration, residual) pairs and the last entry certifies
    ||m - m*|| <= residual / (1 - gamma). The iteration runs on raw tables; the
    frozen collection is built only for the result.
    """
    return _solve(env, order, lambda: _BackupPlan(env, policy, order, max_iter), epsilon,
                  max_iter, m0)
