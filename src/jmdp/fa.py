"""Linear function approximation with a PSD-structured second-moment parameterization.

The mean table is fit by weighted least squares over a feature span; the
second-moment table by the nearest (in the product-weighted Frobenius norm)
quadratic form phi(x)' Theta phi(y) with Theta in the PSD cone. The projected
fixed-point iteration applies the exact tabular backup to the densified
approximant and projects back, with convergence governed by the coupling
coefficient of the two-branch transition kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .core import MomentCollection2
from .dp import DEFAULT_ORDER_BUDGET_BYTES, _Backup2, _check_dims, check_solver_args
from .env import _REQUIRED, ExoJmdp, Policy, _array, _check_entries, _load_doc
from .env import marginal_kernel, marginal_mdp
from .errors import (
    AssumptionError,
    BudgetError,
    DivergenceError,
    FeatureRankError,
    InvalidInputError,
    InvalidQueryError,
)

__all__ = [
    "FeatureMap",
    "LinearMoments",
    "StationaryDist",
    "CouplingReport",
    "ProjectedReport",
    "stationary_distribution",
    "project_mu",
    "project_sigma_psd",
    "projected_jipe2",
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
        # NaN or inf in theta_sigma makes the asymmetry NaN, which fails too.
        with np.errstate(invalid="ignore"):
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

    def mu_table(self, features: FeatureMap) -> np.ndarray:
        return features.phi @ self.theta_mu

    def sigma_table(self, features: FeatureMap) -> np.ndarray:
        return features.phi @ self.theta_sigma @ features.phi.T

    def densify(self, features: FeatureMap) -> MomentCollection2:
        sig = self.sigma_table(features)
        return MomentCollection2(self.mu_table(features), 0.5 * (sig + sig.T))


@dataclass(frozen=True)
class StationaryDist:
    """State-action weighting; source records whether it is the stationary law
    of the policy's chain or the uniform fallback used when ergodicity fails."""

    nu: np.ndarray
    source: str
    note: str = ""


def _chain_period(adj: np.ndarray) -> int:
    """Period of a strongly connected directed graph via BFS-level gcd."""
    n = adj.shape[0]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    edges = []
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                edges.append((u, int(v)))
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u, v in edges:
        g = math.gcd(g, int(level[u]) + 1 - int(level[v]))
    return abs(g) if g != 0 else 1


_STATIONARY_TOL = 1e-12  # l1 change between power steps
_STATIONARY_MAX_ITER = 200_000


def stationary_distribution(env: ExoJmdp, policy: Policy) -> StationaryDist:
    """Invariant state-action law of the policy's marginal chain, by power
    iteration; falls back to uniform (with a diagnostic note) when the chain is
    not irreducible and aperiodic."""
    kernel = marginal_kernel(env, policy)
    n = kernel.shape[0]
    adj = kernel > 0.0
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        return StationaryDist(
            np.full(n, 1.0 / n),
            "uniform-fallback",
            f"chain is not irreducible ({n_comp} strongly connected components); "
            "the positive-stationary-weight assumption fails",
        )
    period = _chain_period(adj)
    if period != 1:
        return StationaryDist(
            np.full(n, 1.0 / n),
            "uniform-fallback",
            f"chain is periodic (period {period}); "
            "the positive-stationary-weight assumption fails",
        )
    nu = np.full(n, 1.0 / n)
    for _ in range(_STATIONARY_MAX_ITER):
        new = nu @ kernel
        new /= new.sum()
        if float(np.abs(new - nu).sum()) <= _STATIONARY_TOL:
            nu = new
            break
        nu = new
    if float(np.max(np.abs(nu @ kernel - nu))) > 1e-10:
        return StationaryDist(
            np.full(n, 1.0 / n),
            "uniform-fallback",
            "power iteration failed to certify invariance at the requested tolerance",
        )
    return StationaryDist(nu, "stationary")


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


def beta_norm(m: MomentCollection2, nu: np.ndarray, beta: float) -> float:
    """max(||m_mu||_nu, beta * ||m_sigma||_{nu x nu})."""
    return max(nu_norm(m.m_mu, nu), beta * nu2_norm(m.m_sigma, nu))


def project_mu(target: np.ndarray, features: FeatureMap, nu: np.ndarray) -> np.ndarray:
    """Weighted least-squares fit of the mean table onto the feature span."""
    target = np.asarray(target, dtype=float)
    phi = features.phi
    if target.shape != (phi.shape[0],):
        raise InvalidInputError(
            f"target has shape {target.shape}, features cover {phi.shape[0]} coordinates"
        )
    w_phi = phi * nu[:, None]
    gram = phi.T @ w_phi
    theta = np.linalg.solve(gram, w_phi.T @ target)
    resid = phi @ theta - target
    check = float(np.max(np.abs(w_phi.T @ resid)))
    scale = max(float(np.max(np.abs(target))), 1.0)
    if check > 1e-7 * scale:
        raise ArithmeticError(
            f"projection residual not orthogonal to the span (|Phi' D r| = {check:.3e})"
        )
    return theta


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
    b = features.phi * d_half[:, None]
    q, r = np.linalg.qr(b)
    if np.min(np.abs(np.diag(r))) <= 1e-12 * max(np.max(np.abs(np.diag(r))), 1.0):
        raise FeatureRankError("weighted feature matrix is numerically rank deficient")
    s_w = d_half[:, None] * s_sym * d_half[None, :]
    core = q.T @ s_w @ q
    core = 0.5 * (core + core.T)
    eigval, eigvec = np.linalg.eigh(core)
    clipped = (eigvec * np.maximum(eigval, 0.0)) @ eigvec.T
    r_inv = np.linalg.inv(r)
    theta = r_inv @ clipped @ r_inv.T
    theta = 0.5 * (theta + theta.T)
    return theta, asym


def beta_weight(gamma: float, sqrt_c_rho: float) -> tuple[float, float]:
    """Midpoint weight for the mixed norm, and the implied contraction factor.

    beta = (1 - gamma^2 sqrt_c_rho) / (4 gamma); kappa = max(gamma,
    2 beta gamma + gamma^2 sqrt_c_rho) < 1. Requires gamma^2 sqrt_c_rho < 1.
    """
    if sqrt_c_rho < 0.0:
        raise InvalidInputError(f"sqrt_c_rho must be >= 0, got {sqrt_c_rho}")
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
    iterations: int  # power-loop steps taken
    converged: bool  # False when the iteration cap was hit before `tol` was met


COUPLING_MODES = ("same_state", "global")
_POWER_TOL = 1e-10  # relative change of the top eigenvalue of A'A
_POWER_MAX_ITER = 100_000
# |X| x |X| tables alive at the peak of one power step: the iterate, the
# weights D^(1/2), the policy outer product pi(a'|s') pi(b'|t'), and three
# temporaries of one kernel application or adjoint.
_COUPLING_TABLES = 6
# numpy's iterator buffers and the interpreter's small objects.
_COUPLING_SLACK_BYTES = 64 * 1024


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


def check_coupling_budget(
    env: ExoJmdp, mode: str, memory_budget_bytes: int = DEFAULT_ORDER_BUDGET_BYTES
) -> int:
    """Bytes the matrix-free coupling computation holds at once; raises
    BudgetError when that exceeds the budget."""
    if mode not in COUPLING_MODES:
        raise InvalidQueryError(f"unknown pair-coupling mode {mode!r}")
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
    need = 8 * words + _COUPLING_SLACK_BYTES
    if need > memory_budget_bytes:
        raise BudgetError(
            f"coupling coefficient over {n_x} coordinates ({mode}) needs "
            f"{need} bytes; budget is {memory_budget_bytes}"
        )
    return need


def coupling_coefficient(
    env: ExoJmdp,
    policy: Policy,
    nu: np.ndarray,
    mode: str = "same_state",
    memory_budget_bytes: int = DEFAULT_ORDER_BUDGET_BYTES,
) -> CouplingReport:
    """Operator norm of the two-branch kernel in the product-weighted geometry.

    Computed as the largest singular value of A = D^(1/2) P2 D^(-1/2) with
    D = diag(nu x nu), by power iteration on A'A to _POWER_TOL. The kernel is applied
    matrix-free to |X| x |X| tables, so memory is O(|X|^2); the need is checked
    against `memory_budget_bytes` before any work.
    """
    check_coupling_budget(env, mode, memory_budget_bytes)
    n_x = env.space.num_x
    nu = _check_nu(nu, n_x)
    kernel = _PairKernel(env, policy, mode)
    d_half = np.sqrt(np.outer(nu, nu))
    v = np.full((n_x, n_x), 1.0 / np.sqrt(n_x * n_x))
    lam = 0.0
    converged = False
    for iterations in range(1, _POWER_MAX_ITER + 1):
        nv = kernel.normal(v, d_half)
        new_lam = float(np.linalg.norm(nv))
        if new_lam == 0.0:
            lam, converged = 0.0, True
            break
        nv /= new_lam
        if abs(new_lam - lam) <= _POWER_TOL * max(new_lam, 1.0):
            lam, converged = new_lam, True
            break
        lam = new_lam
        v = nv
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
    sqrt_c_rho: float | None


_DIVERGENCE_WINDOW = 10


def projected_jipe2(
    env: ExoJmdp,
    policy: Policy,
    features: FeatureMap,
    nu: np.ndarray,
    epsilon: float,
    max_iter: int = 10_000,
) -> ProjectedReport:
    """Projected fixed-point iteration: exact backup on the densified tables,
    then weighted least squares for the mean and traffic into the PSD cone for
    the second moment.

    Stops when the beta-weighted distance between successive densified
    approximants drops below epsilon. If that distance grows for
    _DIVERGENCE_WINDOW consecutive iterations the run aborts with a diagnostic
    quoting gamma^2 * sqrt_c_rho. beta comes from sqrt_c_rho when
    gamma^2 * sqrt_c_rho < 1, else (or when the coupling step is over its
    memory budget) beta = 1.
    """
    check_solver_args(epsilon, max_iter)
    _check_dims(env, features.num_x)
    nu = _check_nu(nu, env.space.num_x)
    beta, kappa = 1.0, None
    try:
        sqrt_c_rho = coupling_coefficient(env, policy, nu).sqrt_c_rho
    except BudgetError:
        sqrt_c_rho = None
    if sqrt_c_rho is not None and env.gamma**2 * sqrt_c_rho < 1.0:
        beta, kappa = beta_weight(env.gamma, sqrt_c_rho)

    backup = _Backup2(env, policy)
    d = features.dim
    current = LinearMoments(np.zeros(d), np.zeros((d, d)))
    dense = current.densify(features)
    distances: list = []
    grow_streak = 0
    for k in range(max_iter):
        backed_mu, backed_sig = backup.apply([dense.m_mu, dense.m_sigma])
        theta_mu = project_mu(backed_mu, features, nu)
        theta_sig, _ = project_sigma_psd(backed_sig, features, nu)
        new = LinearMoments(theta_mu, theta_sig)
        new_dense = new.densify(features)
        dist = beta_norm(new_dense - dense, nu, beta)
        distances.append(dist)
        if len(distances) >= 2 and distances[-1] > distances[-2]:
            grow_streak += 1
        else:
            grow_streak = 0
        if grow_streak >= _DIVERGENCE_WINDOW:
            product = (
                env.gamma**2 * sqrt_c_rho if sqrt_c_rho is not None else float("nan")
            )
            raise DivergenceError(
                f"successive-iterate distance grew for {_DIVERGENCE_WINDOW} "
                f"consecutive iterations (last {dist:.3e}); "
                f"gamma^2 * sqrt_c_rho = {product:.6g} "
                f"(contraction requires < 1)"
            )
        current, dense = new, new_dense
        if dist <= epsilon:
            return ProjectedReport(current, distances, True, k + 1, beta, kappa, sqrt_c_rho)
    return ProjectedReport(current, distances, False, max_iter, beta, kappa, sqrt_c_rho)


# ---------------------------------------------------------------------------
# Feature constructions
# ---------------------------------------------------------------------------


def identity_features(num_x: int) -> FeatureMap:
    return FeatureMap(np.eye(num_x))


def state_poly_features(num_states: int, num_actions: int, degree: int) -> FeatureMap:
    """Action-independent polynomial features of the normalized state index."""
    if degree < 0:
        raise InvalidInputError(f"degree must be >= 0, got {degree}")
    t = np.arange(num_states, dtype=float)
    t = t / max(num_states - 1, 1)
    cols = np.stack([t**p for p in range(degree + 1)], axis=1)
    phi = np.repeat(cols, num_actions, axis=0)
    return FeatureMap(phi)


def state_ramp_features(num_states: int, num_actions: int) -> FeatureMap:
    """Single increasing feature of the state index; extrapolates aggressively,
    which is what makes it adversarial for mass-concentrating dynamics."""
    t = (np.arange(num_states, dtype=float) + 1.0) / num_states
    phi = np.repeat(t[:, None], num_actions, axis=0)
    return FeatureMap(phi)


def load_features(path) -> FeatureMap:
    """Load a feature document {format_version, phi}; errors name the file."""
    return _load_doc(path, {"phi": (_array(2), _REQUIRED)}, FeatureMap)
