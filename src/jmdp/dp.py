"""Exact joint Bellman operators and their fixed-point iterations.

Every order runs one certified algorithm: build the backup of the chosen
order once per (env, policy), iterate it on raw moment tables order by order
(order k reads its own table only through gamma^k times a Markov average, so
it contracts at gamma^k once the lower orders are fixed), certify accuracy by
one full backup's residual, ||m - m*|| <= residual / (1 - gamma), and wrap
only the result in a frozen, symmetry-checked collection. The second-order
operator is the order-2 case of the one backup, _BackupPlan.

The backup enumerates the noise support and the policy; no sampling
anywhere, so contraction properties can be checked to float precision. It
works on whole tensors, grouped by the coincidence pattern of a tuple's k
positions: sigma groups positions at one state (one shared noise draw), tau
refines it to positions at one coordinate (one shared next action, as they
denote one random return). The order-j table enters only through
policy-averaged state tables (S^j, one axis per continuing tau-block). A
pattern class stacks them in one state tensor with an axis per tau-block,
the constant 1 for positions that end with their reward, so one contraction
with a noise kernel per sigma-block covers every choice of continuing
positions: a dense matrix, such as K = [r'; gamma P'] for one position (mean
rewards r, marginal kernel P, |X| x S), or a gather over h with the shared
draw enumerated. At order 2 the class of distinct states is K' Z K with
Z = [[1, mbar'], [mbar, M2]], two matrix products straight into the output
table; every other class's values are written at the sorted tuples and
copied to their permutations. Every byte is counted (check_backup_budget)
against core.BUDGET_BYTES before any array is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (_CHECK_BLOCK, MomentCollectionN, _check_int, _check_real, _order_norm,
                   check_budget)
from .env import ExoJmdp, Policy, _check_policy
from .errors import InvalidInputError

__all__ = [
    "JipeReport",
    "jipe",
    "check_backup_budget",
    "apply_tn",
]


@dataclass(frozen=True)
class JipeReport:
    """Outcome of an exact evaluation run of any order.

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


_DENSE_KERNEL_MAX = 1 << 15  # entries; a larger sigma-block kernel gathers
_OBJECT_BYTES = 1024  # budget allowance per plan entry for its Python objects
_TRACE_BYTES = 136  # one (iteration, residual, order) row of jipe's trace, list slot included


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
    return tuple(tuple(map(len, b)) for b in blocks), tuple(tuple(map(tuple, b)) for b in blocks)


@functools.cache
def _classes(k: int) -> tuple:
    """Order k's run-shape classes as sorted (shape, the blocks of each of its
    run codes) pairs: the class of k distinct states, ((1,),) * k, comes first."""
    classes: dict = {}
    for code in itertools.product(range(3), repeat=k - 1):
        shape, blocks = _run_blocks(code)
        classes.setdefault(shape, []).append(blocks)
    return tuple((shape, tuple(codes)) for shape, codes in sorted(classes.items()))


def _kernel_size(env: ExoJmdp, sizes: tuple) -> tuple:
    """(rows, cells, atoms, dense) of the kernel of a sigma-block whose
    tau-blocks hold sizes[j] positions: rows over the blocks' state axes,
    S * N^J cells, an atom per noise draw and continuing counts. Dense when no
    larger than _DENSE_KERNEL_MAX entries or than one position's kernel."""
    s_n, a_n, u_n = env.g.shape
    rows = math.prod(1 + m * s_n for m in sizes)
    cells, atoms = s_n * a_n ** len(sizes), u_n * math.prod(m + 1 for m in sizes)
    return rows, cells, atoms, rows * cells <= max(_DENSE_KERNEL_MAX, (1 + s_n) * s_n * a_n)


def _block_kernel(env: ExoJmdp, sizes: tuple) -> tuple:
    """Noise kernel of one sigma-block, whose tau-block j holds sizes[j]
    positions with one action a_j. Its state axis j has 1 + sizes[j] * S rows:
    the constant 1, then per t = 1..sizes[j] continuing positions the state
    table at their successor. Cell (s, a_1..a_J) collects, per noise draw u
    and counts t_j, p_u prod_j C(m_j, t_j) gamma^t_j g[s,a_j,u]^(m_j - t_j)
    times the row at h[s,a_j,u]. Returns (rows, dense (rows, cells) matrix,
    None) or (rows, (atoms, cells) row index, weights)."""
    s_n, a_n, u_n = env.g.shape
    rows, cells, _, dense = _kernel_size(env, sizes)
    full = (s_n,) + (a_n,) * len(sizes) + (u_n,)
    index, weights = [], []
    for ts in itertools.product(*(range(m + 1) for m in sizes)):
        weight, row = env.noise.probs * np.ones(full), np.zeros(full, dtype=np.intp)
        for j, (m, t) in enumerate(zip(sizes, ts)):
            axes = (s_n,) + (1,) * j + (a_n,) + (1,) * (len(sizes) - 1 - j) + (u_n,)
            # 1 * g * ... * g, not numpy's CPU-dispatched power: CPU-independent bytes.
            weight = math.comb(m, t) * env.gamma ** t * weight * math.prod(
                [env.g.reshape(axes)] * (m - t), start=1.0)
            row = row * (1 + m * s_n) + (1 + (t - 1) * s_n + env.h.reshape(axes) if t else 0)
        index.append(row.reshape(cells, u_n).T)
        weights.append(weight.reshape(cells, u_n).T)
    index, weights = np.concatenate(index), np.concatenate(weights)
    if not dense:
        return rows, index, weights
    matrix = np.zeros((rows, cells))
    np.add.at(matrix, (index, np.arange(cells)), weights)
    return rows, matrix, None


def _contract(x: np.ndarray, ops) -> np.ndarray:
    """Run x's axes through one (rows, kernel, weights) op per sigma-block,
    a dense product or a weighted gather; each op consumes its block's
    leading axes and appends its cells last, so the cells come out in order."""
    for rows, kern, weight in ops:
        x = x.reshape(rows, -1).T
        x = x @ kern if weight is None else (x[:, kern] * weight).sum(axis=1)
    return x


@functools.cache
def _patterns(taus: tuple) -> tuple:
    """The blocks of the state tensor over tau-blocks of sizes taus, one per
    nonzero choice ts of t_j continuing positions in each tau-block: ts, the
    key of its state table (the nonzero t_j, decreasing) and the transpose
    putting the table's axes in tau-block order."""
    out = []
    for ts in itertools.product(*(range(m + 1) for m in taus)):
        mults = [t for t in ts if t]
        if mults:
            rank = sorted(range(len(mults)), key=lambda i: -mults[i])  # stable
            perm = sorted(range(len(rank)), key=rank.__getitem__)
            out.append((ts, tuple(mults[i] for i in rank), tuple(perm)))
    return tuple(out)


def _increasing(n: int, r: int) -> np.ndarray:
    """The strictly increasing r-tuples of range(n), one per row."""
    return np.array(list(itertools.combinations(range(n), r)), dtype=np.intp).reshape(-1, r)


def _class_index(env: ExoJmdp, k: int, codes) -> tuple:
    """(flat positions in the order-k table, positions in the class's values)
    of the sorted tuples with the given run codes' blocks. In a sorted tuple the
    sigma-blocks are runs of positions at increasing states and a block's
    tau-blocks runs at increasing actions; its value is its representative's
    cell, at the state of each sigma-block and the action of each tau-block."""
    s_n, a_n, _ = env.g.shape
    pos, val = [], []
    for blocks in codes:
        coef = np.zeros((2, k), dtype=np.intp)  # per position, of its state and action
        for c, block in enumerate(blocks):
            stride = math.prod(s_n * a_n ** len(b) for b in blocks[c + 1:])
            coef[0, min(t[0] for t in block)] = stride * a_n ** len(block)
            for j, tau in enumerate(block):
                coef[1, tau[0]] = stride * a_n ** (len(block) - 1 - j)
        runs = sorted(sorted(b) for b in blocks)  # by position
        grids = [_increasing(s_n, len(runs))] + [_increasing(a_n, len(b)) for b in runs]
        mesh = np.indices([len(g) for g in grids]).reshape(len(grids), -1)
        xs = np.empty((k, mesh.shape[1]), dtype=np.intp)
        for c, run in enumerate(runs):
            for j, tau in enumerate(run):
                xs[list(tau)] = grids[0][mesh[0], c] * a_n + grids[1 + c][mesh[1 + c], j]
        s = xs // a_n
        pos.append((s_n * a_n) ** np.arange(k - 1, -1, -1) @ xs)
        val.append(coef[0] @ s + coef[1] @ (xs - a_n * s))
    return np.concatenate(pos), np.concatenate(val)


def _mirror(t: np.ndarray) -> None:
    """Give every entry of the order-k table t its value at the sorted
    coordinates, in place: exact permutation invariance. A pass copies each
    entry whose positions p, p+1 are out of order from its swapped twin; the
    passes run the bubble-sort network's comparators last first, in blocks of
    leading rows of at most max(|X|^(k-1), _CHECK_BLOCK) entries."""
    k, n = t.ndim, len(t)
    step = min(n, max(1, _CHECK_BLOCK // n ** (k - 1)))
    below = (np.arange(step)[:, None] > np.arange(step))[:, :, None]
    for p in reversed([p for end in range(k - 1, 0, -1) for p in range(end)]):
        v = t.reshape(n**p, n, n, -1)
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            if i0:
                v[:, i0:i1, :i0] = v[:, :i0, i0:i1].swapaxes(1, 2)
            tile = v[:, i0:i1, i0:i1]
            np.copyto(tile, tile.swapaxes(1, 2), where=below[:i1 - i0, :i1 - i0])


def _steps(env: ExoJmdp, size: int, shape: tuple) -> list:
    """Words live at each op of a _contract over `size` entries through the
    kernels of shape's sigma-blocks: its input, output and the gather's
    (batch, atoms, cells) values and their weighted copy."""
    steps = []
    for sizes in shape:
        rows, cells, atoms, dense = _kernel_size(env, sizes)
        n = size // rows
        steps.append(size + n * cells + (0 if dense else 2 * n * atoms * cells))
        size = n * cells
    return steps


def check_backup_budget(env: ExoJmdp, order: int, max_iter: int = 100_000) -> int:
    """Bytes an order-`order` solve of at most max_iter steps holds at once;
    raises BudgetError when that exceeds core.BUDGET_BYTES, before any array
    is built. The iterate and its backup are held throughout, and beside them
    the largest of: the residual's difference tables and the absolute value
    of one; the frozen copy and a block of its symmetry check; a state-table
    average; one class's contraction, one op per sigma-block (a
    distinct-state class writes into the backup, any other adds its values
    and the gathered ones); a mirror block and its copy; or the build's kernel
    and index temporaries. The plan holds the state tables and tensors, one
    kernel per distinct sigma-block and per-class indexes; _OBJECT_BYTES per
    entry and _TRACE_BYTES per row of the trace, at most max_iter + order + 1."""
    s_n, a_n, _ = env.g.shape
    n_x = env.space.num_x
    tables = sum(n_x**k for k in range(1, order + 1))
    held, build = 2 * tables + s_n * a_n, [0]
    peak = [tables + n_x**order, tables + min(n_x**order, max(n_x ** (order - 1), _CHECK_BLOCK))]
    keys, states, kernels = set(), set(), set()
    for k in range(2, order + 1):
        rows = min(n_x, max(1, _CHECK_BLOCK // n_x ** (k - 1)))
        peak.append(rows * rows * (n_x ** (k - 2) + 1))  # a mirror tile's copy and mask
    for k in range(1, order + 1):
        for shape, codes in _classes(k):
            taus = tuple(m for block in shape for m in block)
            z = math.prod(1 + m * s_n for m in taus)
            cells = math.prod(s_n * a_n ** len(b) for b in shape)
            count = 0 if len(shape) == k else sum(  # sorted tuples, as _class_index lists them
                math.comb(s_n, len(blocks)) * math.prod(math.comb(a_n, len(b)) for b in blocks)
                for blocks in codes)
            states.add(taus)
            kernels.update(shape)
            keys.update(m for _, m, _ in _patterns(taus))
            held += 2 * count
            build.append((4 * k + 5) * count)
            steps = _steps(env, z, shape)
            if len(shape) == k:  # the distinct-state class's output is the backup
                peak.append(max(steps[:-1] + [steps[-1] - n_x**k]))
            else:
                peak.append(max(steps + [cells + count]))
    held += sum(math.prod(1 + m * s_n for m in taus) for taus in states)
    held += sum(s_n ** len(m) for m in keys)
    peak += [3 * s_n * n_x ** (len(m) - 1) for m in keys]  # an average's pass, copy and input
    for sizes in kernels:
        rows, cells, atoms, dense = _kernel_size(env, sizes)
        held += rows * cells if dense else 2 * atoms * cells
        build.append(4 * atoms * cells)
    peak.append(max(build))
    objects = len(kernels) + len(keys) + len(states) + 3**order + sum(
        len(_classes(k)) for k in range(1, order + 1))
    return check_budget(f"order-{order} backup over {n_x} coordinates",
                        8 * (held + max(peak)) + _OBJECT_BYTES * objects
                        + _TRACE_BYTES * (max_iter + order + 1))


class _BackupPlan:
    """The order-n backup grouped by coincidence pattern, built once per solve.

    Per order and run-shape class (see _run_blocks), the representative's
    values are a tensor with one axis (a state, one action per tau-block) per
    sigma-block: its state tensor run through one kernel per sigma-block
    (_contract), built once and shared by every class holding that block. A
    class's state tensor has an axis per tau-block: the constant 1 and the
    policy-averaged state tables of its continuing positions, so every
    choice of continuing positions runs in one contraction. The class of
    distinct states is the order-k table itself; every other class writes
    its sorted tuples through an index, and _mirror copies each sorted tuple
    to its permutations. `need` is check_backup_budget's count.
    """

    def __init__(self, env: ExoJmdp, policy: Policy, order: int, max_iter: int):
        _check_policy(env, policy)
        self.need = check_backup_budget(env, order, max_iter)
        s_n = env.space.num_states
        n_x = env.space.num_x
        self.pi = policy.probs[:, None, :]
        kernels, states, self.orders = {}, {}, []
        for k in range(1, order + 1):
            classes = []
            for shape, codes in _classes(k):
                taus = tuple(m for block in shape for m in block)
                if taus not in states:
                    states[taus] = np.zeros([1 + m * s_n for m in taus])
                    states[taus][(0,) * len(taus)] = 1.0  # the all-reward term
                z = states[taus]
                for sizes in shape:
                    if sizes not in kernels:
                        kernels[sizes] = _block_kernel(env, sizes)
                ops = [kernels[sizes] for sizes in shape]
                index = () if len(shape) == k else _class_index(env, k, codes)
                classes.append((z, ops, *index))
            self.orders.append(classes)
        targets: dict = {}
        for taus, z in states.items():
            for ts, mults, perm in _patterns(taus):
                index = tuple(slice(1 + (t - 1) * s_n, 1 + t * s_n) if t else 0 for t in ts)
                targets.setdefault(mults, []).append((z[index], perm))
        self.state_tables = [[] for _ in range(order)]  # per order: (key, strides, table, targets)
        for mults in sorted(targets):
            tops = list(itertools.accumulate(mults))
            self.state_tables[tops[-1] - 1].append((mults, tuple(
                8 * sum(n_x ** (tops[-1] - 1 - q) for q in range(e - t, e))
                for t, e in zip(mults, tops)), np.empty((s_n,) * len(mults)), targets[mults]))

    def apply(self, tables, order: int | None = None) -> list:
        """One backup of the raw order-1..n tables; returns the new tables or,
        given an order k, the order-k one (refreshing only order k's state tables)."""
        s_n, _, a_n = self.pi.shape
        n_x = s_n * a_n
        out = []
        for k in range(1, len(self.orders) + 1) if order is None else (order,):
            for mults, strides, table, targets in self.state_tables[k - 1]:
                t = np.ndarray((n_x,) * len(mults), float, tables[k - 1], 0, strides)
                for _ in mults:
                    t = np.matmul(self.pi, t.reshape(s_n, a_n, -1)).reshape(s_n, -1).T
                table.reshape(-1, s_n)[...] = t
                for view, perm in targets:
                    view[...] = table.transpose(perm)
            (z, ops), *rest = self.orders[k - 1]
            t = _contract(z, ops).reshape((n_x,) * k)
            flat = t.reshape(-1)
            for z, ops, pos, val in rest:
                flat[pos] = _contract(z, ops).reshape(-1)[val]
            if k > 1:
                _mirror(t)
            out.append(t)
        return out


def apply_tn(env: ExoJmdp, policy: Policy, m: MomentCollectionN) -> MomentCollectionN:
    """One exact application of the order-n joint Bellman operator. Each call
    builds the backup; an iterating caller should use jipe, which builds it
    once."""
    _check_moments(env, m, m.order)
    return MomentCollectionN(tuple(_BackupPlan(env, policy, m.order, 0).apply(m.tables)))


def check_solver_args(epsilon: float, max_iter: int) -> float:
    """Shared guard of the iterative solvers: epsilon as a finite float > 0,
    and max_iter an integer >= 0."""
    epsilon = _check_real("epsilon", epsilon, "(0, inf)")
    _check_int("max_iter", max_iter, 0)
    return epsilon


def jipe(env: ExoJmdp, policy: Policy, epsilon: float, max_iter: int = 100_000,
         m0: MomentCollectionN | None = None, *, order: int = 2) -> JipeReport:
    """Iterate the order-`order` operator until the residual certifies epsilon accuracy.

    Checks the arguments and m0, builds the backup, and from m0 or zero tables
    sweeps each order k = 1..order alone until ||t_k - T_k(t)||_inf / lam^(k-1)
    <= epsilon * (1 - gamma). A closing full backup certifies, at which point
    ||m - m*||_lambda <= epsilon, or the sweeps resume at its first order above
    that. The trace holds an (updates before the sweep, residual, order or 0
    for a full backup) row per sweep; max_iter caps the updates, the rows at
    max_iter + order + 1, and hitting it first yields certified=False. The
    iteration runs on raw tables; the frozen collection is built for the result.
    """
    epsilon = check_solver_args(epsilon, max_iter)
    _check_int("order", order, 1)
    if m0 is not None:
        _check_moments(env, m0, order)
    apply = _BackupPlan(env, policy, order, max_iter).apply
    tables = (list(m0.tables) if m0 is not None
              else [np.zeros((env.space.num_x,) * k) for k in range(1, order + 1)])
    tol = epsilon * (1.0 - env.gamma)
    gap = lambda k, new: _order_norm(tables[k - 1] - new, k, env.gamma)
    trace, updates, k = [], 0, 1
    while True:
        capped = updates == max_iter or len(trace) >= max_iter + order
        if k <= order and not capped:  # one sweep of order k alone
            new, = apply(tables, k)
            trace.append((updates, gap(k, new), k))
            if trace[-1][1] <= tol:
                k, new = k + 1, None  # the stage's output is not held into the next
            else:
                tables[k - 1], updates = new, updates + 1
            continue
        gaps = [gap(j, new) for j, new in enumerate(apply(tables), start=1)]
        trace.append((updates, max(gaps), 0))
        if trace[-1][1] <= tol or capped:
            break
        k = next(j for j, g in enumerate(gaps, start=1) if g > tol)
    final = m0 if m0 is not None and updates == 0 else MomentCollectionN(tuple(tables))
    residual = trace[-1][1]
    return JipeReport(final, trace, updates, residual <= tol, residual / (1.0 - env.gamma))


jipe2 = jipe  # the second-order name the benchmark harness (bench/) calls
