"""Trajectory generation and V-statistic evaluation.

Circle trajectories are built from an i.i.d. digit stream, window W
digits per point: x_i = sum_{j=1..W} b_{i+j} m^{-j}.  Iterating the map
in floating point instead would collapse onto the fixed point after
about 53 steps for m = 2, so the digit-window construction is the only
supported generator.  For m = 2 the windows are exact 64-bit dyadic
integers, kept on the trajectory next to the points.

The statistic of an arity-d kernel over the first n points is

    S_n = sum over all n^d index tuples of f(x_{i_1}, ..., x_{i_d}).

vstat_naive enumerates every tuple (the oracle; refuses n^d > 1e9),
vstat_fast exchanges summation and product per term for O(n d) work.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._seeding import stream
from .fourier import FourierPoly
from .kernels import (
    CircleBase,
    MarkovBase,
    SeparableKernel,
    kernel_mean,
)
from .hoeffding import is_canonical
from .markov import MarkovChain

#: largest naive enumeration budget, in index tuples
NAIVE_BUDGET = 1_000_000_000


class BudgetError(RuntimeError):
    """Raised when a naive evaluation would exceed the enumeration budget."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Finite orbit of a circle map or a chain.

    points: circle points in [0, 1) as float64, or integer state indices.
    windows: for base-2 circle trajectories, the exact dyadic integers
    u_i with x_i = u_i / 2^64.
    """

    kind: str
    points: np.ndarray
    windows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)


def _digit_stream(m: int, count: int, seed: int) -> np.ndarray:
    rng = stream(seed)
    return rng.integers(0, m, size=count, dtype=np.uint8)


def gen_madic_trajectory(m: int, n: int, seed: int, window: int = 64) -> Trajectory:
    """Length-n trajectory of x -> m x mod 1 from a seeded digit stream."""
    if m < 2:
        raise ValueError("map base must be >= 2")
    if n < 1:
        raise ValueError("trajectory length must be positive")
    if not 16 <= window <= 64:
        raise ValueError("window must be between 16 and 64 digits")
    digits = _digit_stream(m, n + window - 1, seed)
    win = sliding_window_view(digits, window)[:n]
    if m == 2:
        padded = win
        if window < 64:
            padded = np.zeros((n, 64), dtype=np.uint8)
            padded[:, :window] = win
        packed = np.packbits(padded, axis=1)
        u = packed.reshape(n, 8).view(">u8").reshape(n).astype(np.uint64)
        points = u.astype(np.float64) * 2.0 ** -64
        return Trajectory("circle", points, windows=u)
    weights = float(m) ** -np.arange(1, window + 1, dtype=np.float64)
    points = np.empty(n, dtype=np.float64)
    step = 1 << 16
    for a in range(0, n, step):
        b = min(a + step, n)
        points[a:b] = win[a:b].astype(np.float64) @ weights
    return Trajectory("circle", points)


def gen_markov_trajectory(chain: MarkovChain, n: int, seed: int) -> Trajectory:
    """Stationary chain sample path: X_0 from pi, then row transitions.

    Draws n uniforms; the first picks X_0 by inverse CDF of pi, each
    subsequent one picks the next state by inverse CDF of the current row.
    Only the first s - 1 cumulative values are searched, so the last
    state takes every uniform above them even if the full sum rounds below 1.
    """
    if n < 1:
        raise ValueError("trajectory length must be positive")
    rng = stream(seed)
    u = rng.random(n)
    cum_pi = np.cumsum(chain.pi)[:-1].tolist()
    cum_rows = [np.cumsum(row)[:-1].tolist() for row in chain.Q]
    states = np.empty(n, dtype=np.int64)
    x = bisect_right(cum_pi, u[0])
    states[0] = x
    for i in range(1, n):
        x = bisect_right(cum_rows[x], u[i])
        states[i] = x
    return Trajectory("markov", states)


# ---------------------------------------------------------------------------
# statistic evaluation


def _check_traj(f: SeparableKernel, traj: Trajectory, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    if n > len(traj.points):
        raise ValueError(f"trajectory holds {len(traj.points)} points, need {n}")
    if isinstance(f.base, CircleBase) and traj.kind != "circle":
        raise ValueError("circle kernel needs a circle trajectory")
    if isinstance(f.base, MarkovBase) and traj.kind != "markov":
        raise ValueError("markov kernel needs a markov trajectory")
    return traj.points[:n]


def _factor_values(f: SeparableKernel, pts: np.ndarray) -> list[list[np.ndarray]]:
    out = []
    for t in f.terms:
        row = []
        for u in t.factors:
            if isinstance(u, FourierPoly):
                row.append(u.evaluate(pts))
            else:
                row.append(u.values[pts])
        out.append(row)
    return out


def vstat_naive(f: SeparableKernel, traj: Trajectory, n: int) -> float:
    """Direct enumeration of the full d-fold sum; the reference evaluator.

    Every index tuple is visited and the kernel value accumulated, with
    no use of the product structure across the summation.  Raises
    BudgetError when n^d exceeds 1e9 tuples.
    """
    pts = _check_traj(f, traj, n)
    d = f.arity
    if float(n) ** d > NAIVE_BUDGET:
        raise BudgetError(f"n^d = {float(n) ** d:.3g} exceeds the {NAIVE_BUDGET:.0e} tuple budget")
    vals = _factor_values(f, pts)
    total = 0.0 + 0.0j
    if d == 1:
        grid = np.zeros(n, dtype=np.complex128)
        for t, row in zip(f.terms, vals):
            grid += t.coeff * row[0]
        return float(grid.sum().real)
    shape = (n,) * (d - 1)
    for i in range(n):
        grid = np.zeros(shape, dtype=np.complex128)
        for t, row in zip(f.terms, vals):
            piece = np.asarray(t.coeff * row[0][i])
            for j in range(1, d):
                piece = np.multiply.outer(piece, row[j])
            grid += piece
        total += grid.sum()
    return float(total.real)


def vstat_fast(f: SeparableKernel, traj: Trajectory, n: int) -> float:
    """Factorized evaluation: per term the product of slotwise point sums."""
    pts = _check_traj(f, traj, n)
    total = 0.0 + 0.0j
    for t, row in zip(f.terms, _factor_values(f, pts)):
        prod = complex(t.coeff)
        for col in row:
            prod *= col.sum()
        total += prod
    return float(total.real)


def normalization(f: SeparableKernel, n: int, mode: str) -> tuple[float, float]:
    """Shift and scale C_n of the normalized statistic (S_n - shift) / C_n.

    slln: (0, n^d).  clt: (n^d mean, n^{d-1/2}).  degen: (0, n) for
    canonical arity-2 kernels.  Depends on the kernel, n and mode only,
    so a run over many trajectories computes it once.
    """
    if mode == "slln":
        return 0.0, float(n) ** f.arity
    if mode == "clt":
        return float(n) ** f.arity * kernel_mean(f), float(n) ** (f.arity - 0.5)
    if mode == "degen":
        if f.arity != 2:
            raise ValueError("degenerate normalization is for arity-2 kernels")
        if not is_canonical(f):
            raise ValueError("degenerate normalization needs a canonical kernel")
        return 0.0, float(n)
    raise ValueError(f"unknown mode {mode!r}")


def normalized_stat(f: SeparableKernel, traj: Trajectory, n: int, mode: str) -> float:
    """Normalized statistic over the first n points; see normalization."""
    shift, scale = normalization(f, n, mode)
    return (vstat_fast(f, traj, n) - shift) / scale
