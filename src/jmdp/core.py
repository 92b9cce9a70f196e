"""Index spaces, moment collections, the one check of each scalar kind (integer,
number, choice), the lambda-weighted sup norm of every solver, and the one
byte budget of every large allocation.

A state-action pair (s, a) is flattened to x = s * num_actions + a throughout.
Second-moment tables live on X x X, order-k tables on X^k.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidInputError, InvalidQueryError

__all__ = [
    "BUDGET_BYTES",
    "check_budget",
    "StateActionSpace",
    "MomentCollection2",
    "MomentCollectionN",
    "lambda_norm",
]

# Bytes any one solve, coupling computation or Monte Carlo block may hold.
# Read at call time, so setting jmdp.core.BUDGET_BYTES moves every check.
BUDGET_BYTES = 256 * 1024 * 1024
# Added to every count: the interpreter's small objects, array headers and
# numpy's iterator buffers, which no count lists.
_SMALL_OBJECT_BYTES = 64 * 1024


def check_budget(what: str, need: int) -> int:
    """Return the bytes `what` holds at most, its count need plus the
    small-object allowance; raise BudgetError before any work when that
    exceeds BUDGET_BYTES."""
    need += _SMALL_OBJECT_BYTES
    if need > BUDGET_BYTES:
        raise BudgetError(f"{what} needs {need} bytes; budget is {BUDGET_BYTES}")
    return need


def _check_int(name: str, value, lo: int | None = None) -> int:
    """The one integer check: value as an int, or InvalidInputError naming
    `name` unless value is an integer (read through operator.index, so 2.5,
    "3" and True fail), >= lo when lo is given."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value, ok = operator.index(value), True
    except TypeError:
        ok = False
    if not (ok and (lo is None or value >= lo)):
        floor = "" if lo is None else f" >= {lo}"
        raise InvalidInputError(f"{name}: must be an integer{floor}, got {value!r}")
    return value


def _check_real(name: str, value, interval: str) -> float:
    """The one number check: value as a float, or InvalidInputError naming
    `name` unless value is a real number (a bool is not), finite as a float
    and inside `interval`, written like "(0, 1]" or "(0, inf)"."""
    lo, hi = (float(t) for t in interval[1:-1].split(","))
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:  # an int too large for a float
        x = math.nan
    if not (math.isfinite(x) and (lo < x if interval[0] == "(" else lo <= x)
            and (x < hi if interval[-1] == ")" else x <= hi)):
        raise InvalidInputError(f"{name}: must be a number in {interval}, got {value!r}")
    return x


def _check_choice(name: str, value, options: tuple) -> str:
    """The one choice check: value, or InvalidQueryError naming `name` unless
    it is one of the strings `options`."""
    if not (isinstance(value, str) and value in options):
        raise InvalidQueryError(f"{name}: unknown value {value!r}; choose from {tuple(options)}")
    return value


def _check_gamma(gamma) -> float:
    """The one discount check: gamma as a float in (0, 1) (nan fails)."""
    return _check_real("gamma", gamma, "(0, 1)")


def _check_index(name: str, value, size: int, what: str) -> int:
    """value read by _check_int as `name`, then InvalidQueryError
    "<what> <value> out of range" unless it lies in 0..size-1."""
    value = _check_int(name, value)
    if not 0 <= value < size:
        raise InvalidQueryError(f"{what} {value} out of range")
    return value


@dataclass(frozen=True)
class StateActionSpace:
    """Finite state-action space with the canonical flat index x = s*N + a."""

    num_states: int
    num_actions: int

    def __post_init__(self):
        _check_int("num_states", self.num_states, 1)
        _check_int("num_actions", self.num_actions, 1)

    @property
    def num_x(self) -> int:
        return self.num_states * self.num_actions

    def x(self, s: int, a: int) -> int:
        s, a = _check_int("s", s), _check_int("a", a)
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise InvalidQueryError(f"state-action ({s}, {a}) out of range")
        return s * self.num_actions + a

    def sa(self, x: int) -> tuple[int, int]:
        return divmod(_check_index("x", x, self.num_x, "flat index"), self.num_actions)


_SYMMETRY_TOL = 1e-9  # absolute
_CHECK_BLOCK = 1 << 13  # entries per block of the symmetry test (at least one leading slice)


def _check_table(t: np.ndarray, k: int, n_x: int) -> None:
    """Reject an order-k table that is not of shape X^k, finite and invariant
    under swapping adjacent axes. The swap of axes 0,1 pairs every entry with
    one (maybe itself), so a non-finite entry fails that test. The test runs
    on blocks of leading slices, each copied once to a contiguous buffer."""
    if t.shape != (n_x,) * k:
        raise InvalidInputError(f"order-{k} table has shape {t.shape}, expected {(n_x,) * k}")
    if k == 1:
        if not np.isfinite(t).all():
            raise InvalidInputError("order-1 table must be finite")
        return
    step = max(1, _CHECK_BLOCK // max(n_x ** (k - 1), 1))
    for ax in range(k - 1):
        swapped = t.swapaxes(ax, ax + 1)
        for i in range(0, n_x, step):
            d = swapped[i:i + step].copy()
            d -= t[i:i + step]
            if not np.abs(d, out=d).max() <= _SYMMETRY_TOL:  # NaN fails too
                raise InvalidInputError(
                    f"order-{k} table must be finite and symmetric in axes {ax},{ax + 1}"
                )


@dataclass(frozen=True)
class MomentCollectionN:
    """Moment tables of orders 1..n; the order-k table lives on X^k.

    Every entry must be finite and each table invariant under permutations of
    its k axes: the tables hold expectations of products, which do not depend
    on coordinate order. m_mu and m_sigma are the order-1 and order-2 tables.
    """

    tables: tuple

    # inf - inf is NaN and an overflow is inf: both fail the symmetry test.
    @np.errstate(invalid="ignore", over="ignore")
    def __post_init__(self):
        tabs = tuple(np.array(t, dtype=float, copy=True) for t in self.tables)
        if not tabs:
            raise InvalidInputError("need at least the order-1 table")
        for k, t in enumerate(tabs, start=1):
            _check_table(t, k, tabs[0].size)
            t.setflags(write=False)
        object.__setattr__(self, "tables", tabs)

    @property
    def order(self) -> int:
        return len(self.tables)

    @property
    def num_x(self) -> int:
        return self.tables[0].size

    @property
    def m_mu(self) -> np.ndarray:
        return self.tables[0]

    @property
    def m_sigma(self) -> np.ndarray:
        return self.table(2)

    def table(self, k: int) -> np.ndarray:
        k = _check_int("k", k)
        if not (1 <= k <= self.order):
            raise InvalidQueryError(f"order {k} outside 1..{self.order}")
        return self.tables[k - 1]

    @classmethod
    def zeros(cls, space: StateActionSpace, order: int) -> "MomentCollectionN":
        _check_int("order", order, 1)
        n = space.num_x
        return cls(tuple(np.zeros((n,) * k) for k in range(1, order + 1)))

    def __sub__(self, other: "MomentCollectionN") -> "MomentCollectionN":
        if (other.order, other.num_x) != (self.order, self.num_x):
            raise InvalidInputError("cannot subtract collections of another order or size")
        return MomentCollectionN(tuple(a - b for a, b in zip(self.tables, other.tables)))


class MomentCollection2(MomentCollectionN):
    """An order-2 collection from its two tables; no solver returns one."""

    def __init__(self, m_mu, m_sigma):
        super().__init__((m_mu, m_sigma))

    @classmethod
    def zeros(cls, space: StateActionSpace) -> "MomentCollection2":
        n = space.num_x
        return cls(np.zeros(n), np.zeros((n, n)))


def _order_weight(gamma: float, k: int) -> float:
    """lam**(k-1), lam = 2/(1-gamma): the weight of the order-k table."""
    return (2.0 / (1.0 - gamma)) ** (k - 1)


def _order_norm(t, k: int, gamma: float) -> float:
    """max|t| / lam**(k-1) of an order-k table t, rejecting non-finite
    entries in the same pass (max propagates NaN); the callers check gamma."""
    v = float(np.abs(t).max())
    if not math.isfinite(v):
        raise InvalidInputError(f"order-{k} table contains non-finite entries")
    return v / _order_weight(gamma, k)


def lambda_norm(m, gamma: float) -> float:
    """max over k of max|table_k| / lam**(k-1), lam = 2/(1-gamma), at order 2
    max(max|m_mu|, max|m_sigma| / lam), after _check_gamma; m is a
    MomentCollectionN or the sequence of its raw order-1..n tables."""
    _check_gamma(gamma)
    tables = m.tables if isinstance(m, MomentCollectionN) else m
    return max((_order_norm(t, k, gamma) for k, t in enumerate(tables, start=1)), default=0.0)
