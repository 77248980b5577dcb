"""Finite-state Markov chains: stationary laws, Poisson equation, mixing.

A chain is a row-stochastic matrix Q over s states.  Ergodicity is
checked exactly at construction on the support graph of Q, with an edge
i -> j wherever Q_ij > 0: the graph must be strongly connected and the
gcd of its cycle lengths must be 1.  Together these say Q is primitive,
Q^k > 0 for some k, with no floating-point matrix power.  The asymptotic
variance of partial sums of a centered state function f follows the
resolvent route: solve (I - Q) phi = f with pi-mean zero, then

    sigma^2 = <phi, phi>_pi - <Q phi, Q phi>_pi,

which equals the covariance series Var f + 2 sum_{k>=1} Cov(f_0, f_k).
That is the circle's |g|^2 - |V* g|^2 with the Poisson solve as the
summed adjoint series and Q as the adjoint step: MarkovBase
(vmstat.kernels) supplies those operations and martingale.clt_variance
computes the one formula on both bases; see docs/correspondence.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STOCHASTIC_TOL = 1e-10


class NotErgodicError(ValueError):
    """Raised when the support graph of Q is not strongly connected or is periodic."""


@dataclass(frozen=True, eq=False)
class StateFunction:
    """Real observable on the state space, one value per state."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("state function must be a 1-d array")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def __bool__(self) -> bool:
        """True unless every value is zero, as a FourierPoly with no modes is false."""
        return bool(np.count_nonzero(self.values))

    def __add__(self, other: "StateFunction") -> "StateFunction":
        return StateFunction(self.values + other.values)

    def __sub__(self, other: "StateFunction") -> "StateFunction":
        return StateFunction(self.values - other.values)

    def __mul__(self, other):
        """Pointwise product with a state function, or scaling by a real number."""
        if isinstance(other, StateFunction):
            return StateFunction(self.values * other.values)
        return StateFunction(float(other) * self.values)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Value at state x, or at every state of an array x of integers.

        Integer arrays index directly; a float state must be integral, so
        1.7 raises ValueError rather than reading state 1.
        """
        x = np.asarray(x)
        integral = x.dtype.kind in "biu" or (x.dtype.kind == "f" and np.array_equal(x, np.trunc(x)))
        if not integral:
            raise ValueError("states must be integers")
        if x.size and not (0 <= x.min() and x.max() < len(self.values)):
            raise ValueError(f"states must be in [0, {len(self.values)})")
        return self.values[x.astype(np.int64, copy=False)]

    def to_json_dict(self) -> dict:
        return {"values": [float(v) for v in self.values]}


def _validate_stochastic(Q: np.ndarray) -> np.ndarray:
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("transition matrix must be square")
    if Q.shape[0] < 1:
        raise ValueError("transition matrix must have at least one state")
    if np.any(Q < -_STOCHASTIC_TOL):
        raise ValueError("transition matrix has a negative entry")
    rows = Q.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > _STOCHASTIC_TOL):
        raise ValueError("transition matrix rows must sum to 1")
    return np.clip(Q, 0.0, None)


def _bfs_levels(A: np.ndarray) -> np.ndarray:
    """Breadth-first distance from state 0 along edges i -> j with A_ij; -1 if unreached."""
    level = np.full(A.shape[0], -1)
    level[0] = 0
    frontier = level == 0
    while frontier.any():
        frontier = A[frontier].any(axis=0) & (level < 0)
        level[frontier] = level.max() + 1
    return level


def _is_primitive(Q: np.ndarray) -> bool:
    """Strongly connected support graph whose cycle lengths have gcd 1.

    With breadth-first levels from one state of a strongly connected
    graph, the period is the gcd of level_i + 1 - level_j over its edges.
    """
    A = Q > 0.0
    level = _bfs_levels(A)
    if np.any(level < 0) or np.any(_bfs_levels(A.T) < 0):
        return False
    i, j = np.nonzero(A)
    return int(np.gcd.reduce(level[i] + 1 - level[j])) == 1


def stationary_dist(Q: np.ndarray) -> np.ndarray:
    """Unique probability row vector with pi Q = pi.

    Raises NotErgodicError when the chain is reducible or periodic.
    """
    Q = _validate_stochastic(Q)
    if not _is_primitive(Q):
        raise NotErgodicError("chain is not ergodic: it is reducible or periodic")
    s = Q.shape[0]
    # replace one balance equation by the normalization sum(pi) = 1
    A = Q.T - np.eye(s)
    A[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


class MarkovChain:
    """Ergodic finite chain with its stationary distribution precomputed."""

    def __init__(self, Q) -> None:
        self.Q = _validate_stochastic(Q)
        self.pi = stationary_dist(self.Q)

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    def mean(self, f: StateFunction) -> float:
        return float(self.pi @ f.values)

    def inner(self, f: StateFunction, g: StateFunction) -> float:
        """<f, g> with respect to the stationary distribution."""
        return float(np.sum(self.pi * f.values * g.values))

    def lp_norm(self, f: StateFunction, exponent: float) -> float:
        if not 1 <= exponent < np.inf:
            raise ValueError("exponent must be finite and >= 1")
        return float(np.sum(self.pi * np.abs(f.values) ** exponent) ** (1.0 / exponent))

    def apply(self, f: StateFunction, power: int = 1) -> StateFunction:
        """Q^power f, the conditional expectation `power` steps ahead."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        v = f.values
        for _ in range(power):
            v = self.Q @ v
        return StateFunction(v)

    def to_json_dict(self) -> dict:
        return {"Q": [[float(q) for q in row] for row in self.Q]}

    def __repr__(self) -> str:
        return f"MarkovChain(s={self.n_states})"


def solve_poisson(chain: MarkovChain, f: StateFunction, tol: float = 1e-10) -> StateFunction:
    """Solve (I - Q) phi = f with pi . phi = 0 for pi-centered f.

    Uses the fundamental matrix: (I - Q + 1 pi^T) is nonsingular for an
    ergodic chain and its solution automatically has pi-mean zero.
    """
    if len(f) != chain.n_states:
        raise ValueError("state function length does not match the chain")
    if abs(chain.mean(f)) > tol:
        raise ValueError("Poisson equation needs a pi-centered right-hand side")
    s = chain.n_states
    A = np.eye(s) - chain.Q + np.outer(np.ones(s), chain.pi)
    phi = np.linalg.solve(A, f.values)
    return StateFunction(phi)


def mixing_coefficients(chain: MarkovChain, n_max: int) -> np.ndarray:
    """Table of uniform mixing coefficients for lags 0..n_max.

    Returns an array with rows (n, phi(n), psi(n)) where

        phi(n) = max_i (1/2) sum_j |(Q^n)_{ij} - pi_j|
        psi(n) = max_{i,j} |(Q^n)_{ij} - pi_j| / pi_j
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = np.zeros((n_max + 1, 3))
    P = np.eye(chain.n_states)
    for n in range(n_max + 1):
        dev = P - chain.pi[None, :]
        out[n, 0] = n
        out[n, 1] = 0.5 * np.max(np.sum(np.abs(dev), axis=1))
        out[n, 2] = np.max(np.abs(dev) / chain.pi[None, :])
        P = P @ chain.Q
    return out
