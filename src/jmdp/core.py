"""Index spaces, moment collections, and the weighted sup norms used by every solver.

A state-action pair (s, a) is flattened to x = s * num_actions + a throughout.
Second-moment tables live on X x X, order-k tables on X^k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidQueryError

__all__ = [
    "StateActionSpace",
    "LambdaWeights",
    "MomentCollection2",
    "MomentCollectionN",
    "Index2",
    "lambda_norm",
    "lambda_norm_n",
    "enumerate_indices",
]


@dataclass(frozen=True)
class StateActionSpace:
    """Finite state-action space with the canonical flat index x = s*N + a."""

    num_states: int
    num_actions: int

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise InvalidInputError("num_states and num_actions must be >= 1")

    @property
    def num_x(self) -> int:
        return self.num_states * self.num_actions

    def x(self, s: int, a: int) -> int:
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise InvalidQueryError(f"state-action ({s}, {a}) out of range")
        return s * self.num_actions + a

    def sa(self, x: int) -> tuple[int, int]:
        if not (0 <= x < self.num_x):
            raise InvalidQueryError(f"flat index {x} out of range")
        return divmod(x, self.num_actions)


@dataclass(frozen=True)
class LambdaWeights:
    """Order weights for the joint-moment sup norm.

    lam = 2/(1-gamma); the order-k table is weighted by 1/lam**(k-1).
    """

    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise InvalidInputError(f"gamma must lie in (0, 1), got {self.gamma}")

    @property
    def lam(self) -> float:
        return 2.0 / (1.0 - self.gamma)

    def lam_k(self, k: int) -> float:
        if k < 1:
            raise InvalidQueryError(f"moment order must be >= 1, got {k}")
        return self.lam ** (k - 1)


_SYMMETRY_TOL = 1e-9  # absolute; NaN entries fail it


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MomentCollection2:
    """Candidate first and second joint return moments (tables over X and X x X).

    The second-moment table must be symmetric: it represents expectations of
    products, which do not depend on coordinate order.
    """

    m_mu: np.ndarray
    m_sigma: np.ndarray

    def __post_init__(self):
        mu = _frozen(np.asarray(self.m_mu, dtype=float))
        sig = _frozen(np.asarray(self.m_sigma, dtype=float))
        if mu.ndim != 1 or sig.shape != (mu.size, mu.size):
            raise InvalidInputError(
                f"shape mismatch: m_mu {mu.shape}, m_sigma {sig.shape}"
            )
        asym = float(np.max(np.abs(sig - sig.T))) if sig.size else 0.0
        if not asym <= _SYMMETRY_TOL:
            raise InvalidInputError(
                f"m_sigma must be symmetric (max asymmetry {asym:.3e})"
            )
        object.__setattr__(self, "m_mu", mu)
        object.__setattr__(self, "m_sigma", sig)

    @classmethod
    def zeros(cls, space: StateActionSpace) -> "MomentCollection2":
        n = space.num_x
        return cls(np.zeros(n), np.zeros((n, n)))

    def __sub__(self, other: "MomentCollection2") -> "MomentCollection2":
        return MomentCollection2(self.m_mu - other.m_mu, self.m_sigma - other.m_sigma)


@dataclass(frozen=True)
class MomentCollectionN:
    """Moment tables of orders 1..n; the order-k table lives on X^k.

    Each table must be invariant under permutations of its k axes.
    """

    tables: tuple

    def __post_init__(self):
        tabs = tuple(_frozen(np.asarray(t, dtype=float)) for t in self.tables)
        if not tabs:
            raise InvalidInputError("need at least the order-1 table")
        n_x = tabs[0].size
        for k, t in enumerate(tabs, start=1):
            if t.shape != (n_x,) * k:
                raise InvalidInputError(
                    f"order-{k} table has shape {t.shape}, expected {(n_x,) * k}"
                )
            for ax in range(k - 1):
                # One leading slice at a time, so the check's temporaries stay
                # a few |X|^(k-1) slices rather than twice the table.
                swapped = np.swapaxes(t, ax, ax + 1)
                if not all(np.allclose(t[i], swapped[i], rtol=0.0, atol=_SYMMETRY_TOL)
                           for i in range(n_x)):
                    raise InvalidInputError(
                        f"order-{k} table is not permutation invariant (axes {ax},{ax + 1})"
                    )
        object.__setattr__(self, "tables", tabs)

    @property
    def order(self) -> int:
        return len(self.tables)

    @property
    def num_x(self) -> int:
        return self.tables[0].size

    def table(self, k: int) -> np.ndarray:
        if not (1 <= k <= self.order):
            raise InvalidQueryError(f"order {k} outside 1..{self.order}")
        return self.tables[k - 1]

    @classmethod
    def zeros(cls, space: StateActionSpace, order: int) -> "MomentCollectionN":
        if order < 1:
            raise InvalidInputError(f"order must be >= 1, got {order}")
        n = space.num_x
        return cls(tuple(np.zeros((n,) * k) for k in range(1, order + 1)))


@dataclass(frozen=True)
class Index2:
    """A coordinate of a second-order moment collection.

    kind 'mu' addresses m_mu[x]; kind 'sigma' addresses m_sigma[x, x2].
    """

    kind: str
    x: int
    x2: int | None = None

    def __post_init__(self):
        if self.kind not in ("mu", "sigma"):
            raise InvalidQueryError(f"unknown index kind {self.kind!r}")
        if self.kind == "sigma" and self.x2 is None:
            raise InvalidQueryError("sigma index needs both coordinates")
        if self.kind == "mu" and self.x2 is not None:
            raise InvalidQueryError("mu index takes a single coordinate")


def enumerate_indices(space: StateActionSpace) -> list[Index2]:
    """All |X| + |X|^2 coordinates, mu entries first, sigma pairs row-major."""
    n = space.num_x
    out = [Index2("mu", x) for x in range(n)]
    out.extend(
        Index2("sigma", x, y) for x, y in itertools.product(range(n), range(n))
    )
    return out


def lambda_norm(m: MomentCollection2, w: LambdaWeights) -> float:
    """max(max|m_mu|, max|m_sigma| / lam); zero iff both tables vanish."""
    return lambda_norm_n((m.m_mu, m.m_sigma), w)


def lambda_norm_n(m, w: LambdaWeights) -> float:
    """max over k of max|table_k| / lam**(k-1), rejecting non-finite entries.
    m is a MomentCollectionN or the sequence of its raw order-1..n tables."""
    tables = m.tables if isinstance(m, MomentCollectionN) else m
    best = 0.0
    for k, t in enumerate(tables, start=1):
        if not np.all(np.isfinite(t)):
            raise InvalidInputError(f"order-{k} table contains non-finite entries")
        best = max(best, float(np.max(np.abs(t))) / w.lam_k(k))
    return best
