"""Trajectory generation and V-statistic evaluation.

Circle trajectories are built from an i.i.d. digit stream, one window
per point: x_i = sum_{j=1..W} b_{i+j} m^{-j}.  Iterating the map in
floating point instead would collapse onto the fixed point after about
53 steps for m = 2, so the digit-window construction is the only
supported generator.  W is the requested window capped at the most
base-m digits 64 bits hold (64 for m = 2, 40 for m = 3), and the
windows are the integers u_i = m^W x_i in uint64.  For m != 2 they are
built from uint8 digits by Horner's rule, doubling the width per pass,
one fourier.BLOCK of points at a time with W - 1 digits of overlap, so
their temporaries stay in cache.  For m = 2 each digit is one bit of
the replica's raw Philox words (_binary_windows), so the windows are
shifts of those bits packed into 64-bit words.  A circle trajectory
holds one array, the exact phases v_i = frac(x_i) 2^64 (fourier.turns)
that evaluation reads: on m = 2 the windows themselves, otherwise
turns(u_i / m^W), taken once here.

The statistic of an arity-d kernel over the first n points is

    S_n = sum over all n^d index tuples of f(x_{i_1}, ..., x_{i_d}).

vstat_naive enumerates every tuple (the oracle; refuses n^d > 1e9).
vstat_fast exchanges summation and product: per term it multiplies the
slot sums sum_i u(x_i), which contract reads off the trajectory's phases
on the circle and off its occupation counts on a Markov base (values @
counts).  On the circle the phases are taken fourier.BLOCK at a time:
each block has one table with one complex exponential per point for each
distinct |k| > 0 among the kernel's modes, shared by every factor, so
the float points are never built and evaluation holds about a megabyte
whatever n is.

markov_occupations steps a batch of Markov replicas in lockstep through
every step, each on its own uniforms drawn a time chunk at a time, and
keeps only their occupation counts, so the Markov statistic never holds
a path per replica and its working set grows with neither n nor the
replica count.  A step is a gather, a compare and a count, each written
into a buffer made once per batch.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

import numpy as np

from ._seeding import stream
from .fourier import BLOCK, as_phases, turns
from .kernels import CircleBase, SeparableKernel, kernel_mean
from .hoeffding import is_canonical
from .markov import MarkovChain

#: largest naive enumeration budget, in index tuples
NAIVE_BUDGET = 1_000_000_000

#: largest trajectory length an experiment accepts; generating a circle
#: replica allocates at most about 17 bytes per point on m = 2 and 9 plus
#: 0.7 MB on m != 2, evaluating it 1.1 MB more
MAX_N = 2 ** 22

#: most uniforms one time chunk of a lockstep batch of Markov replicas
#: holds (8 MB), and most cumulative values one of its steps gathers
BATCH_UNIFORMS = 2 ** 20

#: most Markov replicas one lockstep batch steps together, so a full
#: batch's time chunks are at least BATCH_UNIFORMS / MAX_LANES = 512 steps
MAX_LANES = 2 ** 11


class BudgetError(RuntimeError):
    """Raised when a naive evaluation would exceed the enumeration budget."""


class Trajectory:
    """Finite orbit of a circle map or a chain, held as one array of values.

    values: on the circle the exact phases v_i = frac(x_i) 2^64 as uint64,
    which is all evaluation reads; on a chain the integer state indices.
    Circle values given as uint64 are taken as these phases, any others as
    points, whose phases fourier.as_phases takes.
    points: the states on a chain; on the circle x_i = v_i / 2^64 rounded
    to float64 (to 1.0 when v_i >= 2^64 - 2^10), built on first read.
    """

    __slots__ = ("kind", "values", "_points")

    def __init__(self, kind: str, values: np.ndarray):
        self.kind = kind
        self.values = as_phases(values) if kind == "circle" else values
        self._points = None if kind == "circle" else values

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = self.values.astype(np.float64) * 2.0 ** -64
        return self._points

    def __len__(self) -> int:
        return len(self.values)


def _digit_stream(m: int, count: int, seed: int) -> np.ndarray:
    rng = stream(seed)
    return rng.integers(0, m, size=count, dtype=np.uint8)


@cache
def _word_digits(m: int) -> int:
    """Most base-m digits a 64-bit window holds: the largest w with m^w <= 2^64."""
    w, power = 0, 1
    while power * m <= 2 ** 64:
        w, power = w + 1, power * m
    return w


def _windows(d: np.ndarray, w: int, m: int) -> np.ndarray:
    """Every w-digit window of the uint64 digits d: out[i] = sum_j d[i+j] m^(w-1-j).

    Horner's rule by doubling: a 2h-digit window is the h-digit window at
    i times m^h plus the one at i + h, so w digits take about log2(w) passes.
    """
    if w == 1:
        return d
    h = w // 2
    v = _windows(d, h, m)
    v = v[:-h] * np.uint64(m ** h) + v[h:]
    if w % 2:
        v = v[:-1] * np.uint64(m) + d[2 * h:]
    return v


#: shift of each of the 64 windows that start in one packed word
_SHIFTS = np.arange(64, dtype=np.uint64)


def _binary_windows(n: int, seed: int, width: int) -> np.ndarray:
    """The first n base-2 windows of _digit_stream(2, ., seed), left-aligned in 64 bits.

    integers(0, 2, dtype=uint8) takes bytes of the raw Philox words in
    little-endian order and, by Lemire's method, which never rejects for
    a range of 2, returns each byte's top bit: digit j is bit 7 of raw
    byte j.  Packed 64 digits to a big-endian word W_j, the window at
    64 j + s is (W_j << s) | (W_{j+1} >> (64 - s)), where numpy shifts
    by 64 to 0, and a width below 64 keeps its top width bits.
    ceil(n / 64) + 1 words hold every digit.
    """
    words = -(-n // 64) + 1
    raw = stream(seed).bit_generator.random_raw(8 * words).astype("<u8", copy=False)
    w = np.packbits(raw.view(np.uint8) >> 7).view(">u8").astype(np.uint64)
    u = w[:-1, None] << _SHIFTS
    u |= w[1:, None] >> (np.uint64(64) - _SHIFTS)
    u = u.reshape(-1)[:n]
    if width < 64:
        u &= np.uint64(2 ** 64 - 2 ** (64 - width))
    return u


def gen_madic_trajectory(m: int, n: int, seed: int, window: int = 64) -> Trajectory:
    """Length-n trajectory of x -> m x mod 1 from a seeded digit stream, as its phases.

    Raises ValueError where CircleBase(m).system() does, for a window that
    is not an integer between 16 and 64, or for n < 1.
    """
    CircleBase(m).system()
    if not isinstance(window, (int, np.integer)) or not 16 <= window <= 64:
        raise ValueError("window must be an integer between 16 and 64 digits")
    if n < 1:
        raise ValueError("trajectory length must be positive")
    width = min(int(window), _word_digits(m))
    if m == 2:
        return Trajectory("circle", _binary_windows(n, seed, width))
    digits = _digit_stream(m, n + width - 1, seed)
    phases = np.empty(n, dtype=np.uint64)
    # a block at a time, so the temporaries stay in cache; its windows read width - 1 digits past it
    for a in range(0, n, BLOCK):
        b = min(BLOCK, n - a)
        x = _windows(digits[a:a + b + width - 1].astype(np.uint64), width, m).astype(np.float64)
        x /= float(m ** width)
        phases[a:a + b] = turns(x)
    return Trajectory("circle", phases)


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


def markov_occupations(chain: MarkovChain, n: int, seeds) -> np.ndarray:
    """Occupation counts of gen_markov_trajectory(chain, n, seed), one row per seed.

    A lane batch of replicas steps together through all n steps: the next
    states are the counts of each current row's first s - 1 cumulative
    values at or below the replicas' uniforms, which is bisect_right, so
    every path is the one gen_markov_trajectory draws.  Each replica's
    uniforms come a time chunk at a time, successive random calls on its
    stream, which give the doubles of one random(n); each chunk's states
    are counted by bincount, offset by s per lane, an eighth at a time.
    A batch of L <= MAX_LANES replicas holds L span <= BATCH_UNIFORMS
    uniforms and gathers L (s - 1) cumulative values per step, so what it
    holds grows with neither n nor the replica count.  A step takes each
    lane's row of cumulative values (take), compares it with the lane's
    uniform (greater_equal) and counts the hits into the next states
    (add.reduce), each into a buffer made once per batch.  It compares
    against all s - 1 values, where bisect_right takes about log2(s);
    docs/constants.md has timings.
    """
    if n < 1:
        raise ValueError("trajectory length must be positive")
    s = chain.n_states
    cum_pi = np.cumsum(chain.pi)[:-1]
    # contiguous (the prefix sums of cumsum(Q)[:, :-1]), so take copies rows, not the table
    cum_rows = np.cumsum(chain.Q[:, :-1], axis=1)
    lanes = max(1, min(len(seeds), MAX_LANES, BATCH_UNIFORMS // s))
    out = np.empty((len(seeds), s), dtype=np.int64)
    for a in range(0, len(seeds), lanes):
        gens = [stream(key) for key in seeds[a:a + lanes]]
        span = max(1, min(n, BATCH_UNIFORMS // len(gens)))
        u = np.empty((len(gens), span))
        # row 0 holds each lane's state before the chunk, row i + 1 its state at step t + i
        states = np.empty((span + 1, len(gens)), dtype=np.min_scalar_type(s - 1))
        cum = np.empty((len(gens), s - 1))
        hit = np.empty((len(gens), s - 1), dtype=bool)
        offset = np.arange(len(gens)) * s
        # a chunk's states are counted an eighth at a time, so their int64
        # indices take an eighth of the uniforms' 8 bytes per step and lane
        rows = -(-span // 8)
        counts = np.zeros(len(gens) * s, dtype=np.int64)
        for t in range(0, n, span):
            steps = min(span, n - t)
            for b, g in enumerate(gens):
                u[b, :steps] = g.random(steps)
            if t == 0:
                np.greater_equal(u[:, 0, None], cum_pi, out=hit)
                np.add.reduce(hit, axis=1, out=states[1])
            for i in range(1 if t == 0 else 0, steps):
                # positional arguments, as keywords cost about 0.4 us a call;
                # every state is a row, and mode "raise" would buffer the output
                cum_rows.take(states[i], 0, cum, "clip")
                np.greater_equal(u[:, i, None], cum, hit)
                np.add.reduce(hit, 1, None, states[i + 1])
            live = states[1:steps + 1]
            for r in range(0, steps, rows):
                counts += np.bincount((live[r:r + rows] + offset).ravel(), minlength=counts.size)
            states[0] = states[steps]
        out[a:a + len(gens)] = counts.reshape(-1, s)
    return out


# ---------------------------------------------------------------------------
# statistic evaluation


def _check_traj(f: SeparableKernel, traj: Trajectory, n: int) -> np.ndarray:
    """The first n values: the phases of a circle trajectory, the states of a chain's."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > len(traj):
        raise ValueError(f"trajectory holds {len(traj)} points, need {n}")
    if traj.kind != f.base.kind:
        raise ValueError(f"{f.base.kind} kernel needs a {f.base.kind} trajectory")
    return traj.values[:n]


def vstat_naive(f: SeparableKernel, traj: Trajectory, n: int) -> float:
    """Direct enumeration of the full d-fold sum; the reference evaluator.

    Every index tuple is visited and the kernel value accumulated, with
    no use of the product structure across the summation.  Each factor is
    evaluated on its own, at the values vstat_fast reads.  Raises
    BudgetError when n^d exceeds 1e9 tuples.
    """
    x = _check_traj(f, traj, n)
    d = f.arity
    if float(n) ** d > NAIVE_BUDGET:
        raise BudgetError(f"n^d = {float(n) ** d:.3g} exceeds the {NAIVE_BUDGET:.0e} tuple budget")
    vals = [[u.evaluate(x) for u in t.factors] for t in f.terms]
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
    """Factorized evaluation: per term the product of slot sums; see contract."""
    x = _check_traj(f, traj, n)
    if traj.kind == "markov":
        return contract(f, np.bincount(x, minlength=f.base.chain.n_states))
    return contract(f, x)


def contract(f: SeparableKernel, stat: np.ndarray) -> float:
    """sum_t c_t prod_j sum_i u_{t,j}(x_i), each slot sum read off stat.

    stat is a circle trajectory's phases, so the slot sums are taken a
    block of phases at a time with one table of e_k shared by every
    factor; or a Markov trajectory's occupation counts
    (markov_occupations), so a slot sum is values @ counts.  The base's
    slot_sums does either.  Every slot sum is complete before the
    products are taken.
    """
    sums = iter(f.base.slot_sums([u for t in f.terms for u in t.factors], stat))
    total = 0.0 + 0.0j
    for t in f.terms:
        prod = complex(t.coeff)
        for _ in t.factors:
            prod *= next(sums)
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
