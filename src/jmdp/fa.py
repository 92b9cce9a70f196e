"""Linear function approximation with a PSD-structured second-moment parameterization.

The mean table is fit by weighted least squares over a feature span; the
second-moment table by the nearest (in the product-weighted Frobenius norm)
quadratic form phi(x)' Theta phi(y) with Theta in the PSD cone. The projected
fixed-point iteration applies the exact tabular backup to the approximant and
projects back, with convergence governed by the coupling coefficient of the
two-branch transition kernel. It runs in feature space: the backup of an
approximant is projected through d-sized, |X| x d-sized and per-state arrays,
and no |X| x |X| table is built (see _FeatureStep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MomentCollectionN, _check_choice, _check_gamma, _check_int, _check_real,
                   check_budget)
from .dp import check_solver_args
from .env import _REQUIRED, ExoJmdp, Policy, _array, _check_entries, _check_policy, _load_doc
from .env import _marginal_csr, marginal_mdp
from .errors import (
    AssumptionError,
    BudgetError,
    DivergenceError,
    FeatureRankError,
    InvalidInputError,
)

__all__ = [
    "FeatureMap",
    "LinearMoments",
    "StationaryDist",
    "CouplingReport",
    "ProjectedReport",
    "stationary_distribution",
    "check_stationary_budget",
    "project_mu",
    "project_sigma_psd",
    "projected_jipe2",
    "check_projected_budget",
    "coupling_coefficient",
    "check_coupling_budget",
    "beta_weight",
    "nu_norm",
    "nu2_norm",
    "beta_norm",
    "identity_features",
    "state_poly_features",
    "state_ramp_features",
    "load_features",
]


_RANK_TOL = 1e-10  # relative to the largest singular value
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class FeatureMap:
    """Feature matrix over the flat state-action index; must have full column rank."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float, copy=True)
        if phi.ndim != 2 or phi.shape[0] < phi.shape[1]:
            raise FeatureRankError(f"phi: must be a tall matrix (got shape {phi.shape})")
        _check_entries("phi", phi, np.isfinite(phi), "must be finite")
        sv = np.linalg.svd(phi, compute_uv=False)
        if sv[-1] <= _RANK_TOL * max(sv[0], 1.0):
            raise FeatureRankError(
                f"phi: rank deficient (smallest singular value {sv[-1]:.3e})"
            )
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    @property
    def num_x(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class LinearMoments:
    """Mean weights and PSD quadratic-form parameter of the approximant."""

    theta_mu: np.ndarray
    theta_sigma: np.ndarray

    def __post_init__(self):
        tm = np.array(self.theta_mu, dtype=float, copy=True)
        ts = np.array(self.theta_sigma, dtype=float, copy=True)
        if tm.ndim != 1 or ts.shape != (tm.size, tm.size):
            raise InvalidInputError("parameter shapes inconsistent")
        if not np.isfinite(tm).all():
            raise InvalidInputError("theta_mu must be finite")
        # NaN or inf in theta_sigma makes the asymmetry NaN and an overflow
        # makes it inf: both fail the test.
        with np.errstate(invalid="ignore", over="ignore"):
            asym = np.max(np.abs(ts - ts.T), initial=0.0)
        if not asym <= 1e-12:
            raise InvalidInputError("theta_sigma must be finite and symmetric")
        eig = np.linalg.eigvalsh(ts) if ts.size else np.array([0.0])
        if eig[0] < -_PSD_TOL:
            raise InvalidInputError(
                f"theta_sigma must be PSD (min eigenvalue {eig[0]:.3e})"
            )
        tm.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "theta_mu", tm)
        object.__setattr__(self, "theta_sigma", ts)

    def tables(self, features: FeatureMap) -> list:
        """The approximant's raw [m_mu, m_sigma]: [Phi theta_mu, (S + S')/2]
        with S = Phi Theta_sigma Phi'."""
        sig = features.phi @ self.theta_sigma @ features.phi.T
        return [features.phi @ self.theta_mu, 0.5 * (sig + sig.T)]


@dataclass(frozen=True)
class StationaryDist:
    """State-action weighting; source records whether it is the stationary law
    of the policy's chain or the uniform fallback used when ergodicity fails."""

    nu: np.ndarray
    source: str
    note: str = ""


def _scc_count(indices: np.ndarray, indptr: np.ndarray, depth=None) -> int:
    """Number of strongly connected components of the digraph with CSR arrays
    (indices, indptr): Tarjan's algorithm, its depth-first path kept in arrays.
    Given `depth`, an int32 array with an entry per node, it also records each
    node's depth on the path that discovers it (its root's is 0)."""
    n = indptr.size - 1
    index = np.full(n, -1, dtype=np.int32)  # discovery order
    low = np.zeros(n, dtype=np.int32)
    closed = np.zeros(n, dtype=bool)  # assigned to a component
    stack = np.zeros(n, dtype=np.int32)  # Tarjan's stack of open nodes
    path = np.zeros(n, dtype=np.int32)
    cursor = np.zeros(n, dtype=indptr.dtype)  # each path node's next edge
    depth = np.zeros(n, dtype=np.int32) if depth is None else depth
    # memoryviews read and write single entries as Python ints, fast
    idx, lo, done, st, pa, cur, dep = map(memoryview,
                                          (index, low, closed, stack, path, cursor, depth))
    ptr, succ = memoryview(indptr), memoryview(indices)
    count = seen = top = 0
    for root in range(n):
        if idx[root] >= 0:
            continue
        idx[root] = lo[root] = seen
        seen += 1
        dep[root] = 0
        st[top] = pa[0] = root
        top += 1
        cur[0], depth = ptr[root], 0
        while depth >= 0:
            v, k = pa[depth], cur[depth]
            if k < ptr[v + 1]:
                cur[depth] = k + 1
                w = succ[k]
                if idx[w] < 0:  # descend
                    idx[w] = lo[w] = seen
                    seen += 1
                    st[top] = w
                    top += 1
                    depth += 1
                    pa[depth], cur[depth], dep[w] = w, ptr[w], depth
                elif not done[w] and idx[w] < lo[v]:
                    lo[v] = idx[w]
                continue
            depth -= 1
            if lo[v] == idx[v]:  # v roots a component: close it
                count += 1
                w = -1
                while w != v:
                    top -= 1
                    w = st[top]
                    done[w] = True
            elif lo[v] < lo[pa[depth]]:
                lo[pa[depth]] = lo[v]
    return count


def _chain_period(indices: np.ndarray, indptr: np.ndarray, depth=None) -> int:
    """Period of a strongly connected digraph with CSR arrays (indices,
    indptr): the gcd, over its edges u -> v, of depth[u] + 1 - depth[v], with
    the depth-first depths of _scc_count (found here when not given). Any
    potential that is the length of some walk from one node gives the
    period: each lag is a multiple of it, and a cycle's lags sum to its length."""
    if depth is None:
        depth = np.zeros(indptr.size - 1, dtype=np.int32)
        _scc_count(indices, indptr, depth)
    lag = np.repeat(depth, np.diff(indptr))
    lag += 1
    lag -= depth[indices]
    return int(np.gcd.reduce(lag)) or 1


_STATIONARY_TOL = 1e-12  # l1 change between power steps
_STATIONARY_MAX_ITER = 200_000


def check_stationary_budget(env: ExoJmdp) -> int:
    """Bytes stationary_distribution holds at once; raises BudgetError when
    that exceeds core.BUDGET_BYTES."""
    n_a, n_x = env.space.num_actions, env.space.num_x
    n_u = env.noise.support_size
    edges = n_x * min(n_x, n_u * n_a)  # a row reaches U successors, A actions each
    # Per (coordinate, atom), while the kernel is built: the sorted weights,
    # the atom mask and the entry labels with the cast copy they are summed
    # from, or the sort order and the sorted successors beside the weights.
    # Per edge: the kernel's data and int64 indices, and beside them the mask
    # of its entries > 0 and the kept data, or one power step's weights, or
    # the period's int32 lags and depth gather. Per coordinate: the row
    # pointers, the search's node arrays and the power step's vectors.
    need = 26 * n_x * n_u + 29 * edges + 64 * n_x
    return check_budget(f"stationary distribution over {n_x} coordinates", need)


def stationary_distribution(env: ExoJmdp, policy: Policy) -> StationaryDist:
    """Invariant state-action law of the policy's marginal chain, by power
    iteration on the sparse kernel (env._marginal_csr); falls back to uniform
    (with a diagnostic note) when the chain is not irreducible and aperiodic.
    Its bytes (check_stationary_budget) are checked before the kernel is built."""
    _check_policy(env, policy)
    check_stationary_budget(env)
    n = env.space.num_x
    data, indices, indptr = _marginal_csr(env, policy.probs)
    keep = data > 0.0  # the chain's graph
    if not keep.all():  # no row is empty, so reduceat sums each one
        indptr = np.r_[0, np.cumsum(np.add.reduceat(keep, indptr[:-1], dtype=np.intp))]
        data = data[keep]
        indices = indices[keep]
    del keep
    depth = np.zeros(n, dtype=np.int32)
    n_comp = _scc_count(indices, indptr, depth)
    fails = "; the positive-stationary-weight assumption fails"
    if n_comp != 1:
        note = f"chain is not irreducible ({n_comp} strongly connected components){fails}"
    elif (period := _chain_period(indices, indptr, depth)) != 1:
        note = f"chain is periodic (period {period}){fails}"
    else:
        counts = np.diff(indptr)

        def step(v: np.ndarray) -> np.ndarray:
            """v P, summed entry by entry in row order."""
            w = np.repeat(v, counts)
            w *= data
            return np.bincount(indices, weights=w, minlength=n)

        nu = np.full(n, 1.0 / n)
        for _ in range(_STATIONARY_MAX_ITER):
            nu, last = step(nu), nu
            nu /= nu.sum()
            if float(np.abs(nu - last).sum()) <= _STATIONARY_TOL:
                break
        if float(np.max(np.abs(step(nu) - nu))) <= 1e-10:
            return StationaryDist(nu, "stationary")
        note = "power iteration failed to certify invariance at the requested tolerance"
    return StationaryDist(np.full(n, 1.0 / n), "uniform-fallback", note)


def _check_nu(nu, num_x: int) -> np.ndarray:
    """nu as a float vector over the num_x state-action pairs, finite and > 0."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (num_x,) or not np.all(np.isfinite(nu) & (nu > 0.0)):
        raise InvalidInputError(f"nu must be a finite vector of {num_x} entries > 0")
    return nu


def nu_norm(f: np.ndarray, nu: np.ndarray) -> float:
    return float(np.sqrt(np.sum(nu * np.asarray(f) ** 2)))


def nu2_norm(table: np.ndarray, nu: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("i,j,ij->", nu, nu, np.asarray(table) ** 2)))


def beta_norm(m, nu: np.ndarray, beta: float) -> float:
    """max(||m_mu||_nu, beta * ||m_sigma||_{nu x nu}) of a collection or its raw tables."""
    mu, sig = (m.m_mu, m.m_sigma) if isinstance(m, MomentCollectionN) else m[:2]
    return max(nu_norm(mu, nu), beta * nu2_norm(sig, nu))


def _fit_mu(target: np.ndarray, phi: np.ndarray, psi: np.ndarray,
            gram: np.ndarray) -> np.ndarray:
    """theta of the weighted least-squares fit Phi theta of target: solves
    gram theta = psi' target (gram = Phi' D Phi, psi = D Phi) and checks that
    the residual is orthogonal to the span."""
    try:
        theta = np.linalg.solve(gram, psi.T @ target)
    except np.linalg.LinAlgError as exc:
        raise FeatureRankError(f"weighted Gram matrix Phi' D Phi is singular ({exc})") from exc
    resid = phi @ theta - target
    check = float(np.max(np.abs(psi.T @ resid)))
    scale = max(float(np.max(np.abs(target))), 1.0)
    if check > 1e-7 * scale:
        raise FeatureRankError(
            f"projection residual not orthogonal to the span (|Phi' D r| = {check:.3e})"
        )
    return theta


def project_mu(target: np.ndarray, features: FeatureMap, nu: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of the mean table onto the feature span."""
    target = np.asarray(target, dtype=float)
    phi = features.phi
    if target.shape != (phi.shape[0],):
        raise InvalidInputError(
            f"target has shape {target.shape}, features cover {phi.shape[0]} coordinates"
        )
    w_phi = phi * nu[:, None]
    return _fit_mu(target, phi, w_phi, phi.T @ w_phi)


def _weighted_qr(phi: np.ndarray, nu: np.ndarray) -> tuple:
    """(Q, R) with D^(1/2) Phi = QR; raises FeatureRankError when diag(R)
    shows D^(1/2) Phi numerically rank deficient."""
    q, r = np.linalg.qr(phi * np.sqrt(nu)[:, None])
    if np.min(np.abs(np.diag(r))) <= 1e-12 * max(np.max(np.abs(np.diag(r))), 1.0):
        raise FeatureRankError("weighted feature matrix is numerically rank deficient")
    return q, r


def _clip_psd(core: np.ndarray, r_inv: np.ndarray) -> tuple:
    """(R^-1 clip(core) R^-T symmetrized, clip(core)), where clip zeroes the
    negative eigenvalues of the symmetrized core."""
    core = 0.5 * (core + core.T)
    eigval, eigvec = np.linalg.eigh(core)
    clipped = (eigvec * np.maximum(eigval, 0.0)) @ eigvec.T
    theta = r_inv @ clipped @ r_inv.T
    return 0.5 * (theta + theta.T), clipped


def project_sigma_psd(
    target: np.ndarray, features: FeatureMap, nu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Nearest PSD quadratic form to the target table in the product-weighted norm.

    Closed form: with B = D^(1/2) Phi = QR, the optimum is
    Theta = R^-1 clip(Q' D^(1/2) S D^(1/2) Q) R^-T, where clip zeroes negative
    eigenvalues. Returns (Theta, asymmetry) where asymmetry is the largest
    deviation of the raw target from symmetry (the target is symmetrized first).
    """
    s_raw = np.asarray(target, dtype=float)
    n = features.num_x
    if s_raw.shape != (n, n):
        raise InvalidInputError(f"target must be {n}x{n}, got {s_raw.shape}")
    asym = float(np.max(np.abs(s_raw - s_raw.T), initial=0.0))
    s_sym = 0.5 * (s_raw + s_raw.T)
    d_half = np.sqrt(nu)
    q, r = _weighted_qr(features.phi, nu)
    s_w = d_half[:, None] * s_sym * d_half[None, :]
    return _clip_psd(q.T @ s_w @ q, np.linalg.inv(r))[0], asym


def beta_weight(gamma: float, sqrt_c_rho: float) -> tuple[float, float]:
    """Midpoint weight for the mixed norm, and the implied contraction factor.

    beta = (1 - gamma^2 sqrt_c_rho) / (4 gamma); kappa = max(gamma,
    2 beta gamma + gamma^2 sqrt_c_rho) < 1. Requires gamma^2 sqrt_c_rho < 1.
    """
    gamma = _check_gamma(gamma)
    sqrt_c_rho = _check_real("sqrt_c_rho", sqrt_c_rho, "[0, inf)")
    product = gamma**2 * sqrt_c_rho
    if product >= 1.0:
        raise AssumptionError(
            f"coupling too strong for the projected scheme: "
            f"gamma^2 * sqrt_c_rho = {product:.6g} >= 1"
        )
    beta = (1.0 - product) / (4.0 * gamma)
    kappa = max(gamma, 2.0 * beta * gamma + product)
    return beta, kappa


@dataclass(frozen=True)
class CouplingReport:
    sqrt_c_rho: float
    gamma: float
    product: float  # gamma^2 * sqrt_c_rho
    satisfied: bool
    mode: str
    iterations: int  # Lanczos steps taken, one application of A'A each
    converged: bool  # False when the step cap was hit before the residual stop


COUPLING_MODES = ("same_state", "global")
_LANCZOS_TOL = 1e-10  # residual bound of the top Ritz pair, relative to max(theta, 1)
_LANCZOS_MAX_ITER = 1_000
# |X| x |X| tables alive at the peak of one Lanczos step: the iterate, the
# previous vector, w, the weights D^(1/2), the policy outer product
# pi(a'|s') pi(b'|t'), and two temporaries of one kernel application or
# adjoint.
_COUPLING_TABLES = 7


def _top_ritz(alphas: list, betas: list) -> tuple:
    """(theta, |y[-1]|) for the top eigenpair (theta, y), |y| = 1, of the
    symmetric tridiagonal matrix with diagonal alphas and off-diagonal betas.

    theta by bisection on Sturm's test (x > theta when every LDL' pivot of
    T - x I is < 0) between a diagonal entry and Gershgorin's bound. y from
    the twisted factorization at theta (Parlett and Dhillon): the pivots from
    the top and from the bottom meet at the index r where T - theta I is
    closest to singular, and y is solved outward from y[r] = 1, so that even
    a tiny y[-1] is accurate. Plain Python in O(k) memory: no LAPACK call,
    so no BLAS thread is woken once per Lanczos step."""
    sq = [b * b for b in betas]
    rows = list(zip(alphas, [0.0, *sq]))
    rad = [0.0, *map(abs, betas), 0.0]
    lo = max(alphas)  # a Rayleigh quotient, so <= theta
    hi = max(a + rad[j] + rad[j + 1] for j, a in enumerate(alphas))
    while lo < (x := 0.5 * (lo + hi)) < hi:
        d = 1.0
        for a, c in rows:
            d = a - x - c / d
            if d >= 0.0:
                lo = x
                break
        else:
            hi = x
    theta, tiny = hi, float(np.finfo(float).tiny)  # T - hi I passed the test: pivots < 0

    def pivots(diag, off_sq) -> list:
        d, out = 1.0, []
        for a, c in zip(diag, off_sq):
            d = min(a - theta - c / d, -tiny)
            out.append(d)
        return out

    top = pivots(alphas, [0.0, *sq])
    bottom = pivots(alphas[::-1], [0.0, *sq[::-1]])[::-1]
    twist = [abs(t + b - a + theta) for t, b, a in zip(top, bottom, alphas)]  # |gamma_r|
    r = twist.index(min(twist))
    norm2 = y = 1.0
    for j in range(r - 1, -1, -1):
        y *= -betas[j] / top[j]
        norm2 += y * y
    y = 1.0
    for j in range(r, len(betas)):
        y *= -betas[j] / bottom[j + 1]
        norm2 += y * y
    return theta, abs(y) / norm2**0.5


class _PairKernel:
    """The two-branch transition kernel P2 over X^2 and its adjoint, applied to
    |X| x |X| tables without building the |X|^2 x |X|^2 matrix.

    Both go through per-state tables: V_pi = Q V Q' (S x S) with
    Q[s', (s', a')] = pi(a' | s'). A product row (x, y) of P2 V is
    (P_s V_pi P_s')[x, y], with P_s the marginal law; a shared-noise row is
    sum_u p_u V_pi[h(x, u), h(y, u)].

    mode 'same_state': branches at a common state draw one shared noise value
    (their joint one-step law); branches at distinct states, and a branch pair
    addressing one identical coordinate, evolve as independent marginal queries.
    mode 'global': a single exogenous draw drives both branches at every row,
    whatever their states.
    """

    def __init__(self, env: ExoJmdp, policy: Policy, mode: str):
        n_s, n_a, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
        self.mode = mode
        self.n_s, self.n_a = n_s, n_a
        self.probs = env.noise.probs
        self.h = env.h.reshape(n_x, env.noise.support_size)
        self.state_of = np.repeat(np.arange(n_s), n_a)
        pi = policy.probs.reshape(n_x)
        self.pi_pair = np.outer(pi, pi)
        if mode == "global":
            return
        self.p_x = marginal_mdp(env)[1].reshape(n_x, n_s)
        # Shared-noise rows: the same-state pairs with distinct actions.
        s, a, b = np.nonzero(np.broadcast_to(~np.eye(n_a, dtype=bool), (n_s, n_a, n_a)))
        self.rows = (s * n_a + a, s * n_a + b)
        # rows x noise flat indices into an S x S table: (h(x, u), h(y, u)).
        self.shared_idx = self.h[self.rows[0]] * n_s + self.h[self.rows[1]]

    def _per_state(self, v: np.ndarray) -> np.ndarray:
        """Q V Q': sum the table over the next actions, weighted by pi."""
        n_s, n_a = self.n_s, self.n_a
        return (v * self.pi_pair).reshape(n_s, n_a, n_s, n_a).sum(axis=(1, 3))

    def _per_pair(self, m: np.ndarray) -> np.ndarray:
        """Q' M Q: spread an S x S table back over X^2, weighted by pi."""
        out = m[self.state_of[:, None], self.state_of[None, :]]
        out *= self.pi_pair
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(P2 vec(V)) as an |X| x |X| table."""
        v_pi = self._per_state(v)
        if self.mode == "global":
            out = np.zeros_like(v)
            for u, p in enumerate(self.probs):
                h = self.h[:, u]
                out += (p * v_pi)[h][:, h]
            return out
        out = self.p_x @ v_pi @ self.p_x.T
        out[self.rows] = v_pi.reshape(-1)[self.shared_idx] @ self.probs
        return out

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """(P2' vec(W)) as an |X| x |X| table."""
        n_s = self.n_s
        if self.mode == "global":
            m = np.zeros(n_s * n_s)
            flat_w = w.reshape(-1)
            for u, p in enumerate(self.probs):
                h = self.h[:, u]
                idx = np.add.outer(h * n_s, h).reshape(-1)
                m += p * np.bincount(idx, weights=flat_w, minlength=n_s * n_s)
                del idx  # one flat index table at a time
            return self._per_pair(m.reshape(n_s, n_s))
        shared = w[self.rows]
        product = w.copy()
        product[self.rows] = 0.0
        m = self.p_x.T @ product @ self.p_x
        del product  # freed before the per-pair table is built
        m += np.bincount(
            self.shared_idx.reshape(-1),
            weights=(shared[:, None] * self.probs).reshape(-1),
            minlength=n_s * n_s,
        ).reshape(n_s, n_s)
        return self._per_pair(m)

    def normal(self, v: np.ndarray, d_half: np.ndarray) -> np.ndarray:
        """A'A V for A = D^(1/2) P2 D^(-1/2), with d_half the table of D^(1/2)."""
        w = self.apply(v / d_half)
        w *= d_half  # A V
        w *= d_half
        out = self.adjoint(w)
        out /= d_half
        return out


def check_coupling_budget(env: ExoJmdp, mode: str) -> int:
    """Bytes the matrix-free coupling computation holds at once; raises
    BudgetError when that exceeds core.BUDGET_BYTES."""
    _check_choice("mode", mode, COUPLING_MODES)
    n_s, n_a, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
    n_u = env.noise.support_size
    # float tables, one |X| x S gather or product, the successor index h
    # (|X| x U) and the state index, and a few S x S tables
    words = (_COUPLING_TABLES * n_x + n_s + n_u + 1) * n_x + 4 * n_s * n_s
    if mode == "same_state":
        # the marginal law P_s; the shared rows' two index vectors, and their
        # (row, noise) flat indices, gathered values and scatter weights
        rows = n_s * n_a * (n_a - 1)
        words += n_x * n_s + rows * (2 + 3 * n_u)
    return check_budget(f"coupling coefficient over {n_x} coordinates ({mode})",
                        8 * words)


def coupling_coefficient(
    env: ExoJmdp,
    policy: Policy,
    nu: np.ndarray,
    mode: str = "same_state",
) -> CouplingReport:
    """Operator norm of the two-branch kernel in the product-weighted geometry.

    Computed as the largest singular value of A = D^(1/2) P2 D^(-1/2) with
    D = diag(nu x nu): the top eigenvalue theta of A'A, by Lanczos without
    reorthogonalization from the uniform positive table. Each step applies A'A
    once and takes the top Ritz pair (theta, y) of the tridiagonal T_k; the loop
    stops once the residual bound beta_k |y[-1]| is at most
    _LANCZOS_TOL * max(theta, 1) (this covers the breakdown beta_k = 0). The
    Ritz value is a lower bound on the top eigenvalue. The kernel is applied
    matrix-free to |X| x |X| tables, so memory is O(|X|^2); the need is checked
    against core.BUDGET_BYTES before any work.
    """
    _check_policy(env, policy)
    check_coupling_budget(env, mode)
    n_x = env.space.num_x
    nu = _check_nu(nu, n_x)
    kernel = _PairKernel(env, policy, mode)
    d_half = np.sqrt(np.outer(nu, nu))
    v = np.full((n_x, n_x), 1.0 / np.sqrt(n_x * n_x))
    v_prev = None  # read from the second step on
    alphas: list = []
    betas: list = []
    converged = False
    for iterations in range(1, _LANCZOS_MAX_ITER + 1):
        w = kernel.normal(v, d_half)
        alpha = float(np.vdot(w, v))
        w -= alpha * v
        if betas:
            w -= betas[-1] * v_prev
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        lam, y_last = _top_ritz(alphas, betas)
        if beta * y_last <= _LANCZOS_TOL * max(lam, 1.0):
            converged = True
            break
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    sqrt_c = float(np.sqrt(lam))
    product = env.gamma**2 * sqrt_c
    return CouplingReport(
        sqrt_c, env.gamma, product, product < 1.0, mode, iterations, converged
    )


@dataclass(frozen=True)
class ProjectedReport:
    moments: LinearMoments
    distances: list  # successive beta-weighted distances, one per iteration
    converged: bool
    iterations: int
    beta: float
    kappa: float | None
    coupling: CouplingReport | None  # None when the coupling step is over budget


_DIVERGENCE_WINDOW = 10
# One successive distance: a float object and its list slot, with the list's
# over-allocation.
_DISTANCE_BYTES = 40


class _FeatureStep:
    """One projected backup of a linear approximant, run in feature space.

    The exact order-2 backup T of the approximant's tables (dp.apply_tn) is
    never formed. With D^(1/2) Phi = QR and Psi = D Phi, the mean fit needs
    Psi' t_mu and the PSD fit the core Q' D^(1/2) T D^(1/2) Q. The second
    moment is carried in the whitened basis Phi R^-1 = D^(-1/2) Q, as the
    core parameter R Theta_sigma R' (the clipped core), so that no product is
    amplified by R^-1: forming Psi' T Psi and then R^-T (.) R^-1 would square
    the feature map's condition number. With G = Pi Phi R^-1 (S x d, Pi the
    policy average) and F = P Pi Phi R^-1, the gather E_u G[h] (|X| x d), and
    Psi_w = D Phi R^-1:
    - t_mu = r + gamma e with e = F R theta_mu;
    - T's cross-state part is r r' + gamma (r e' + e r') + gamma^2 F C F' for
      the core parameter C, whose Psi_w-form is d x d products of Psi_w' r
      and Psi_w' F;
    - each state adds one A x A correction: its same-state block (one shared
      noise draw; on the diagonal, one shared next action) minus the
      cross-state formula there. Each of its terms is a covariance under the
      shared draw: of the rewards, of the rewards and mbar = G R theta_mu at
      the successors, and of G C and G at the successors, which costs
      O(S d^2 + S U A^2 d).
    Only T's symmetric part matters, because the clip symmetrizes the core, so
    a pair of transposed terms is added as twice one of them. Memory is
    O(|X| (d + A) + S U A d + d^2); check_projected_budget counts it.
    """

    def __init__(self, env: ExoJmdp, policy: Policy, features: FeatureMap, nu: np.ndarray):
        s_n, a_n = env.space.num_states, env.space.num_actions
        probs, g, h = env.noise.probs, env.g, env.h
        phi, d = features.phi, features.dim
        self.gamma, self.probs, self.h, self.phi = env.gamma, probs, h, phi
        self.r = _weighted_qr(phi, nu)[1]
        self.r_inv = np.linalg.inv(self.r)
        self.psi = phi * nu[:, None]
        self.gram = phi.T @ self.psi
        phi_w = phi @ self.r_inv  # the whitened features
        self.psi_w = (phi_w * nu[:, None]).reshape(s_n, a_n, d)
        self.g_pi = np.einsum("sa,sak->sk", policy.probs, phi_w.reshape(s_n, a_n, d))
        g_h = self.g_pi[h]  # G at the successors, (S, A, U, d)
        self.f = np.einsum("u,sauk->sak", probs, g_h).reshape(-1, d)
        g_h -= self.f.reshape(s_n, a_n, 1, d)
        g_h *= probs[:, None]
        # p_u (G[h] - F) as (S, U d, A): a matmul's right side, (u, k) contracted
        self.g_dev = np.ascontiguousarray(g_h.transpose(0, 2, 3, 1)).reshape(s_n, -1, a_n)
        del g_h
        # The features centred on their policy average, weighted by the policy.
        self.phi_c = phi_w.reshape(s_n, a_n, d) - self.g_pi[:, None, :]
        del phi_w
        self.phi_cw = self.phi_c * policy.probs[:, :, None]
        self.r_mean = (g @ probs).reshape(-1)
        r_c = g - self.r_mean.reshape(s_n, a_n, 1)
        self.pg_c = r_c * probs  # p_u (g - r)
        psi_w = self.psi_w.reshape(-1, d)
        self.psi_r = psi_w.T @ self.r_mean
        self.psi_f = psi_w.T @ self.f
        # T's terms that read no parameter: r r' and the reward covariances.
        rr = (self.pg_c @ r_c.transpose(0, 2, 1)) @ self.psi_w
        self.m_0 = np.outer(self.psi_r, self.psi_r) + psi_w.T @ rr.reshape(-1, d)

    def __call__(self, theta_mu: np.ndarray, core: np.ndarray) -> tuple:
        """The projected backup of the approximant with mean weights theta_mu
        and core parameter core = R Theta_sigma R': returns its theta_mu,
        Theta_sigma and core parameter."""
        gamma, (s_n, a_n, d) = self.gamma, self.psi_w.shape
        mu_w = self.r @ theta_mu
        new_mu = _fit_mu(self.r_mean + gamma * (self.f @ mu_w), self.phi, self.psi,
                         self.gram)
        m = self.m_0 + np.outer(self.psi_r, 2.0 * gamma * (self.psi_f @ mu_w))
        m += gamma**2 * (self.psi_f @ core @ self.psi_f.T)

        mbar = self.g_pi @ mu_w
        corr = 2.0 * gamma * (self.pg_c @ mbar[self.h].transpose(0, 2, 1))
        corr += gamma**2 * ((self.g_pi @ core)[self.h].reshape(s_n, a_n, -1) @ self.g_dev)
        # Repeated coordinate: one shared next action, so the continuation
        # reads E_pi[phi' C phi] = G C G' + E_pi[phi_c' C phi_c].
        spread = np.einsum("sak,sak->s", self.phi_c @ core, self.phi_cw)
        corr.reshape(s_n, -1)[:, ::a_n + 1] += gamma**2 * (spread[self.h] @ self.probs)
        m += self.psi_w.reshape(-1, d).T @ (corr @ self.psi_w).reshape(-1, d)
        return (new_mu, *_clip_psd(m, self.r_inv))


def check_projected_budget(env: ExoJmdp, features: FeatureMap, max_iter: int) -> int:
    """Bytes the feature-space loop of projected_jipe2 holds at once; raises
    BudgetError when that exceeds core.BUDGET_BYTES. The coupling step has
    its own count, check_coupling_budget."""
    s_n, a_n, n_x = env.space.num_states, env.space.num_actions, env.space.num_x
    n_u, d = env.noise.support_size, features.dim
    # |X| x d: Psi, Psi_w, F and the centred features (plain and
    # policy-weighted) held; the whitened features or the QR's copies and Q
    # while they are built, or two of the loop's products. S x U x A x d: the
    # weighted G[h] held and a gather of G or G C at the successors, twice
    # while it is built. S x A x A: the correction and its temporaries.
    # d x d: the Gram matrix, R, R^-1, Psi_w' F and the constant part held;
    # the cross-state products, the clip's tables, two parameter copies, the
    # core parameters and the distance's products. Room for 16 vectors each of
    # |X|, |X| x U (rewards, successor indices and their gathers), S x d and d
    # entries.
    words = (8 * n_x * d + 4 * n_u * n_x * d + 8 * n_x * a_n + 24 * d * d
             + 16 * (n_x + n_u * n_x + s_n * d + d))
    return check_budget(f"projected iteration over {n_x} coordinates ({d} features)",
                        8 * words + _DISTANCE_BYTES * max_iter)


def projected_jipe2(
    env: ExoJmdp,
    policy: Policy,
    features: FeatureMap,
    nu: np.ndarray,
    epsilon: float,
    max_iter: int = 10_000,
) -> ProjectedReport:
    """Projected fixed-point iteration: the exact backup of the approximant,
    then weighted least squares for the mean and projection onto the PSD cone
    for the second moment, all in feature space (see _FeatureStep): the loop
    holds no |X| x |X| table, and its bytes (check_projected_budget) are
    checked before any work.

    Stops when the beta-weighted distance between successive approximants,
    max(||R dtheta_mu||, beta ||R dTheta_sigma R'||_F) with D^(1/2) Phi = QR,
    drops below epsilon. If that distance grows for _DIVERGENCE_WINDOW
    consecutive iterations the run aborts with a diagnostic quoting
    gamma^2 * sqrt_c_rho. An iterate failing its parameter check is a
    FeatureRankError naming cond(R). beta comes from sqrt_c_rho when
    gamma^2 * sqrt_c_rho < 1, else (or when the coupling step is over its
    memory budget) beta = 1.
    """
    _check_policy(env, policy)
    epsilon = check_solver_args(epsilon, max_iter)
    if features.num_x != env.space.num_x:
        raise InvalidInputError(f"features cover {features.num_x} coordinates, "
                                f"environment has {env.space.num_x}")
    nu = _check_nu(nu, env.space.num_x)
    check_projected_budget(env, features, max_iter)
    beta, kappa = 1.0, None
    try:
        coupling = coupling_coefficient(env, policy, nu)
    except BudgetError:
        coupling = None
    if coupling is not None and coupling.satisfied:
        beta, kappa = beta_weight(env.gamma, coupling.sqrt_c_rho)

    step = _FeatureStep(env, policy, features, nu)
    d = features.dim
    current = LinearMoments(np.zeros(d), np.zeros((d, d)))
    core = np.zeros((d, d))  # R Theta_sigma R'
    distances: list = []
    grow_streak = 0
    for k in range(max_iter):
        theta_mu, theta_sig, new_core = step(current.theta_mu, core)
        try:
            new = LinearMoments(theta_mu, theta_sig)
        except InvalidInputError as exc:
            raise FeatureRankError(
                f"iterate {k + 1} fails its parameter check ({exc}); the weighted "
                f"feature map D^(1/2) Phi = QR is ill-conditioned "
                f"(cond(R) = {np.linalg.cond(step.r):.3e})"
            ) from exc
        # R dTheta_sigma R' is the change of the core parameter.
        dist = max(float(np.linalg.norm(step.r @ (new.theta_mu - current.theta_mu))),
                   beta * float(np.linalg.norm(new_core - core)))
        distances.append(dist)
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grow_streak += 1
        else:
            grow_streak = 0
        if grow_streak >= _DIVERGENCE_WINDOW:
            product = coupling.product if coupling is not None else float("nan")
            raise DivergenceError(
                f"successive-iterate distance grew for {_DIVERGENCE_WINDOW} "
                f"consecutive iterations (last {dist:.3e}); "
                f"gamma^2 * sqrt_c_rho = {product:.6g} "
                f"(contraction requires < 1)"
            )
        current, core = new, new_core
        if dist <= epsilon:
            return ProjectedReport(current, distances, True, k + 1, beta, kappa, coupling)
    return ProjectedReport(current, distances, False, max_iter, beta, kappa, coupling)


# ---------------------------------------------------------------------------
# Feature constructions
# ---------------------------------------------------------------------------


def identity_features(num_x: int) -> FeatureMap:
    return FeatureMap(np.eye(_check_int("num_x", num_x, 1)))


def state_poly_features(num_states: int, num_actions: int, degree: int) -> FeatureMap:
    """Action-independent polynomial features of the normalized state index."""
    num_states = _check_int("num_states", num_states, 1)
    num_actions = _check_int("num_actions", num_actions, 1)
    _check_int("degree", degree, 0)
    t = np.arange(num_states, dtype=float)
    t = t / max(num_states - 1, 1)
    # Column p is 1 * t * ... * t, not numpy's CPU-dispatched t**p.
    cols = np.cumprod(np.column_stack([np.ones_like(t)] + [t] * degree), axis=1)
    phi = np.repeat(cols, num_actions, axis=0)
    return FeatureMap(phi)


def state_ramp_features(num_states: int, num_actions: int) -> FeatureMap:
    """Single increasing feature of the state index; extrapolates aggressively,
    which is what makes it adversarial for mass-concentrating dynamics."""
    num_states = _check_int("num_states", num_states, 1)
    num_actions = _check_int("num_actions", num_actions, 1)
    t = (np.arange(num_states, dtype=float) + 1.0) / num_states
    phi = np.repeat(t[:, None], num_actions, axis=0)
    return FeatureMap(phi)


def load_features(path) -> FeatureMap:
    """Load a feature document {format_version, phi}; errors name the file."""
    return _load_doc(path, {"phi": (_array(2), _REQUIRED)}, FeatureMap)
