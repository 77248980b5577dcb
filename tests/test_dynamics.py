"""Digit-stream trajectories and statistic evaluation routes."""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmstat import fourier
from vmstat._seeding import stream
from vmstat.cli import parse_config
from vmstat.fourier import FourierPoly
from vmstat.kernels import (
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    kernel_eval,
    kernel_mean,
)
from vmstat.markov import MarkovChain, StateFunction
from vmstat.dynamics import (
    BATCH_UNIFORMS,
    BudgetError,
    Trajectory,
    _cuts,
    _ordered,
    gen_madic_trajectory,
    gen_markov_trajectory,
    markov_occupations,
    normalized_stat,
    vstat_fast,
    vstat_naive,
)

from helpers import (
    exact_windows,
    exp_by_numpy,
    random_ergodic_chain,
    random_poly,
    random_state_function,
    rng_for,
    vstat_by_factor,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CIRCLE = CircleBase(2)


def pair_kernel() -> SeparableKernel:
    e1 = FourierPoly({1: 1.0})
    em1 = FourierPoly({-1: 1.0})
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, em1)),
                                       KernelTerm(1.0, (em1, e1))))


class TestCircleTrajectories:
    def test_base2_windows_shift_exactly(self):
        traj = gen_madic_trajectory(2, 500, seed=42)
        w = traj.values.astype(object)
        digits_in = w[1:] & 1
        shifted = (w[:-1] * 2) % (1 << 64) + digits_in
        assert np.all(shifted == w[1:])

    def test_base2_matches_exact_integer_windows(self):
        traj = gen_madic_trajectory(2, 200, seed=7)
        exact = exact_windows(2, 200, seed=7)
        assert [int(v) for v in traj.values] == exact

    def test_base2_points_are_scaled_windows(self):
        traj = gen_madic_trajectory(2, 100, seed=3)
        want = traj.values.astype(np.float64) * 2.0**-64
        assert np.array_equal(traj.points, want)
        assert np.all((0.0 <= traj.points) & (traj.points < 1.0))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4096, 100000])
    @pytest.mark.parametrize("window", [16, 17, 64])
    def test_base2_windows_are_the_bounded_uint8_digits(self, n, window):
        # the raw-word route must read exactly the digits integers() draws,
        # so a change to numpy's bounded draws fails here rather than drifts
        for key in (0, 7, 2**40 + 3, 2**64 - 1):
            digits = stream(key).integers(0, 2, size=n + window - 1, dtype=np.uint8)
            want = np.zeros(n, dtype=np.uint64)
            for j in range(window):
                want |= digits[j:j + n].astype(np.uint64) << np.uint64(63 - j)
            assert np.array_equal(gen_madic_trajectory(2, n, key, window).values, want)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4096])
    def test_base2_windows_are_a_prefix_of_longer_ones(self, n):
        for window in (16, 17, 64):
            longer = gen_madic_trajectory(2, n + 129, seed=12, window=window).values
            assert np.array_equal(gen_madic_trajectory(2, n, 12, window).values, longer[:n])

    def test_base2_generation_memory(self):
        # windows are 8 bytes per point; the packed words and one shift temporary add the rest
        n = 2**20
        tracemalloc.start()
        try:
            traj = gen_madic_trajectory(2, n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == n
        assert peak <= 20 * n, peak

    @pytest.mark.parametrize("m", [3, 10, 256])
    def test_base3_generation_memory(self, m):
        # the uint8 digits and the phases are 9 bytes per point; one block's
        # windows, float points and turns temporaries add about 0.7 MB
        n = 2**20
        tracemalloc.start()
        try:
            traj = gen_madic_trajectory(m, n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == n
        assert peak <= 9 * n + 2**20, peak

    def test_base3_iterates_the_map(self):
        traj = gen_madic_trajectory(3, 2000, seed=11)
        x = traj.points
        err = np.abs((3.0 * x[:-1]) % 1.0 - x[1:])
        # wrap-around differences count as matches too
        err = np.minimum(err, 1.0 - err)
        assert float(np.max(err)) < 1e-11

    @pytest.mark.parametrize("m", [3, 5, 10, 256])
    def test_phases_are_turns_of_the_rounded_points(self, m):
        # the phases are taken once, from u_i / m^W rounded as float64 division
        # rounds it, a block at a time, the windows crossing each block's end
        width = {3: 40, 5: 27, 10: 19, 256: 8}[m]
        assert m ** width <= 2**64 < m ** (width + 1)
        block = fourier.BLOCK
        for n in (3000, block - 1, block, block + 1, 2 * block + 7):
            traj = gen_madic_trajectory(m, n, seed=m)
            u = np.array([float(v) for v in exact_windows(m, n, seed=m, window=width)])
            want = fourier.turns(u / float(m ** width))
            assert traj.values.dtype == np.uint64
            assert traj.values.tobytes() == want.tobytes(), n

    def test_base3_matches_exact_windows(self):
        n, window = 300, 32
        traj = gen_madic_trajectory(3, n, seed=5, window=window)
        exact = exact_windows(3, n, seed=5, window=window)
        scale = float(3) ** -window
        want = np.array([v * scale for v in exact])
        assert float(np.max(np.abs(traj.points - want))) < 1e-14

    def test_short_window_supported(self):
        traj = gen_madic_trajectory(2, 50, seed=1, window=16)
        exact = exact_windows(2, 50, seed=1, window=16)
        want = np.array([v / 2.0**16 for v in exact])
        assert np.allclose(traj.points, want, atol=1e-15)

    def test_window_bounds_enforced(self):
        with pytest.raises(ValueError):
            gen_madic_trajectory(2, 10, seed=0, window=15)
        with pytest.raises(ValueError):
            gen_madic_trajectory(2, 10, seed=0, window=65)
        with pytest.raises(ValueError, match="window"):
            gen_madic_trajectory(2, 10, seed=0, window=32.5)
        with pytest.raises(ValueError):
            gen_madic_trajectory(1, 10, seed=0)
        with pytest.raises(ValueError):
            gen_madic_trajectory(2, 0, seed=0)

    def test_base_bounded_at_256(self):
        # digits are drawn as uint8; 256 is the largest base they hold
        with pytest.raises(ValueError, match="between 2 and 256"):
            gen_madic_trajectory(257, 10, seed=0)
        with pytest.raises(ValueError, match="between 2 and 256"):
            CircleBase(257).system()
        traj = gen_madic_trajectory(256, 50, seed=3)
        want = np.array([v / 256**8 for v in exact_windows(256, 50, seed=3, window=8)])
        assert np.max(np.abs(traj.points - want)) <= 2.0**-52

    def test_deterministic_in_seed(self):
        a = gen_madic_trajectory(2, 64, seed=9)
        b = gen_madic_trajectory(2, 64, seed=9)
        c = gen_madic_trajectory(2, 64, seed=10)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_points_look_uniform(self):
        traj = gen_madic_trajectory(2, 50_000, seed=13)
        hist, _ = np.histogram(traj.points, bins=10, range=(0.0, 1.0))
        assert np.max(np.abs(hist / 50_000 - 0.1)) < 0.01


class TestMarkovTrajectories:
    def test_matches_stationary_frequencies(self):
        chain = MarkovChain(np.array([[0.8, 0.2], [0.6, 0.4]]))
        traj = gen_markov_trajectory(chain, 40_000, seed=21)
        freq = np.bincount(traj.points, minlength=2) / 40_000
        assert np.max(np.abs(freq - chain.pi)) < 0.01

    def test_matches_transition_frequencies(self):
        chain = MarkovChain(np.array([[0.8, 0.2], [0.6, 0.4]]))
        traj = gen_markov_trajectory(chain, 40_000, seed=22)
        s = traj.points
        for i in range(2):
            rows = s[1:][s[:-1] == i]
            emp = np.bincount(rows, minlength=2) / len(rows)
            assert np.max(np.abs(emp - chain.Q[i])) < 0.02

    def test_states_in_range_and_deterministic(self):
        rng = rng_for(601)
        chain = random_ergodic_chain(rng, 5)
        a = gen_markov_trajectory(chain, 1000, seed=4)
        b = gen_markov_trajectory(chain, 1000, seed=4)
        assert np.array_equal(a.points, b.points)
        assert a.points.min() >= 0 and a.points.max() <= 4

    def test_top_draw_lands_in_last_state(self, monkeypatch):
        # ten rows of 0.1 sum to the largest double below 1, which is the draw
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(np.full(10, 0.1))[-1] == top

        class TopStream:
            def random(self, n):
                return np.full(n, top)

        monkeypatch.setattr("vmstat.dynamics.stream", lambda seed: TopStream())
        chain = MarkovChain(np.full((10, 10), 0.1))
        traj = gen_markov_trajectory(chain, 50, seed=0)
        assert np.all(traj.points == 9)


class TestEvaluators:
    def test_three_point_hand_value(self):
        # points 0, 1/4, 1/2: sum over pairs of 2 cos(2 pi (x - y)) is
        # |1 + i - 1|^2 times two real parts = 2
        traj = Trajectory("circle", fourier.turns(np.array([0.0, 0.25, 0.5])))
        f = pair_kernel()
        assert abs(vstat_naive(f, traj, 3) - 2.0) < 1e-12
        assert abs(vstat_fast(f, traj, 3) - 2.0) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_points_and_phases_build_the_same_trajectory(self, m):
        # circle values that are not uint64 are points, whose phases are turns(points)
        x = np.concatenate([[0.0, 0.25, 0.5, 0.75], gen_madic_trajectory(m, 60, seed=8).points])
        from_points = Trajectory("circle", x)
        from_phases = Trajectory("circle", fourier.turns(x))
        assert from_points.values.tobytes() == from_phases.values.tobytes()
        assert np.array_equal(from_points.points, from_phases.points)
        assert np.array_equal(from_points.points, x)
        f = pair_kernel()
        assert vstat_fast(f, from_points, len(x)) == vstat_fast(f, from_phases, len(x))

    def test_naive_matches_pure_python_enumeration(self):
        import itertools

        rng = rng_for(602)
        for d in (1, 2, 3):
            u = random_poly(rng, n_modes=2, real=True)
            v = random_poly(rng, n_modes=2, real=True)
            f = SeparableKernel(d, CIRCLE, (
                KernelTerm(0.8, tuple([u] * d)),
                KernelTerm(-1.2, tuple([v] + [u] * (d - 1))),
            ))
            traj = gen_madic_trajectory(2, 8, seed=33)
            oracle = sum(
                kernel_eval(f, tuple(traj.points[list(idx)]))
                for idx in itertools.product(range(8), repeat=d)
            )
            assert abs(vstat_naive(f, traj, 8) - oracle) < 1e-9 * max(1.0, abs(oracle))

    def test_fast_matches_naive_circle(self):
        rng = rng_for(603)
        for d, n in [(1, 200), (2, 150), (3, 60)]:
            u = random_poly(rng, n_modes=3, real=True)
            v = random_poly(rng, n_modes=2, real=True)
            f = SeparableKernel(d, CIRCLE, (
                KernelTerm(1.0, tuple([u] * d)),
                KernelTerm(0.5, tuple([v] * d)),
            ))
            traj = gen_madic_trajectory(2, n, seed=34)
            a = vstat_naive(f, traj, n)
            b = vstat_fast(f, traj, n)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_fast_matches_naive_markov(self):
        rng = rng_for(604)
        chain = random_ergodic_chain(rng, 4)
        base = MarkovBase(chain)
        for d, n in [(1, 200), (2, 150), (3, 60)]:
            u = random_state_function(rng, 4)
            v = random_state_function(rng, 4)
            f = SeparableKernel(d, base, (
                KernelTerm(1.0, tuple([u] * d)),
                KernelTerm(-0.7, tuple([v] * d)),
            ))
            traj = gen_markov_trajectory(chain, n, seed=35)
            a = vstat_naive(f, traj, n)
            b = vstat_fast(f, traj, n)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_naive_budget_guard(self):
        f = SeparableKernel(4, CIRCLE, (
            KernelTerm(1.0, tuple([FourierPoly({1: 1.0, -1: 1.0})] * 4)),))
        traj = gen_madic_trajectory(2, 200, seed=36)
        with pytest.raises(BudgetError):
            vstat_naive(f, traj, 200)

    def test_prefix_evaluation(self):
        f = pair_kernel()
        traj = gen_madic_trajectory(2, 100, seed=37)
        short = Trajectory("circle", traj.values[:40].copy())
        assert abs(vstat_fast(f, traj, 40) - vstat_fast(f, short, 40)) < 1e-12
        with pytest.raises(ValueError):
            vstat_fast(f, short, 41)

    def test_base_kind_mismatch_rejected(self):
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        traj = gen_markov_trajectory(chain, 50, seed=38)
        with pytest.raises(ValueError):
            vstat_fast(pair_kernel(), traj, 50)


class TestNormalizedStat:
    def test_slln_is_scaled_sum(self):
        f = pair_kernel()
        traj = gen_madic_trajectory(2, 64, seed=39)
        s = vstat_fast(f, traj, 64)
        assert abs(normalized_stat(f, traj, 64, "slln") - s / 64.0**2) < 1e-14

    def test_clt_centers_with_kernel_mean(self):
        e1 = FourierPoly({1: 1.0, -1: 1.0})
        one = FourierPoly.constant(1.0)
        f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, one)),
                                        KernelTerm(1.0, (one, e1)),
                                        KernelTerm(0.3, (one, one))))
        assert abs(kernel_mean(f) - 0.3) < 1e-14
        traj = gen_madic_trajectory(2, 64, seed=40)
        s = vstat_fast(f, traj, 64)
        want = (s - 64.0**2 * 0.3) / 64.0**1.5
        assert abs(normalized_stat(f, traj, 64, "clt") - want) < 1e-12

    def test_degen_requires_canonical_arity2(self):
        traj = gen_madic_trajectory(2, 32, seed=41)
        f = pair_kernel()
        s = vstat_fast(f, traj, 32)
        assert abs(normalized_stat(f, traj, 32, "degen") - s / 32.0) < 1e-14
        bad = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (FourierPoly.constant(1.0), FourierPoly({1: 1.0, -1: 1.0}))),))
        with pytest.raises(ValueError):
            normalized_stat(bad, traj, 32, "degen")
        with pytest.raises(ValueError):
            normalized_stat(f, traj, 32, "nope")


def l1_bound(f: SeparableKernel, n: int) -> float:
    """n^d times the sum over terms of |c_t| prod_j (l1 norm of u_{t,j}): bounds |S_n|."""
    def norm(u):
        if isinstance(u, FourierPoly):
            return sum(abs(c) for _, c in u.items())
        return float(np.abs(u.values).sum())
    return float(n) ** f.arity * sum(abs(t.coeff) * math.prod(norm(u) for u in t.factors)
                                     for t in f.terms)


#: sizes at which the naive oracle stays cheap, by arity
NAIVE_SIZES = {1: 96, 2: 40, 3: 12}


class TestFactorizedPath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        arity=st.integers(1, 3),
        m=st.sampled_from([2, 3, 4]),
        modes=st.lists(st.one_of(st.just(0), st.integers(-2**20, 2**20)), min_size=1, max_size=6),
    )
    def test_fast_matches_naive_on_the_circle(self, seed, arity, m, modes):
        rng = rng_for(seed)
        def factor():
            picked = rng.choice(modes, size=min(len(modes), 3), replace=False)
            return FourierPoly({int(k): complex(rng.normal(), rng.normal()) for k in picked})
        f = SeparableKernel(arity, CircleBase(m), tuple(
            KernelTerm(rng.normal(), tuple(factor() for _ in range(arity))) for _ in range(3)))
        n = NAIVE_SIZES[arity]
        traj = gen_madic_trajectory(m, n, seed)
        assert abs(vstat_fast(f, traj, n) - vstat_naive(f, traj, n)) <= 1e-12 * l1_bound(f, n)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), arity=st.integers(1, 3), s=st.integers(1, 5))
    def test_fast_matches_naive_on_a_chain(self, seed, arity, s):
        rng = rng_for(seed)
        chain = random_ergodic_chain(rng, s)
        f = SeparableKernel(arity, MarkovBase(chain), tuple(
            KernelTerm(rng.normal(), tuple(random_state_function(rng, s) for _ in range(arity)))
            for _ in range(3)))
        n = NAIVE_SIZES[arity]
        traj = gen_markov_trajectory(chain, n, seed)
        assert abs(vstat_fast(f, traj, n) - vstat_naive(f, traj, n)) <= 1e-12 * l1_bound(f, n)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([3, 4, 5, 7, 8, 10, 16]),
           n=st.integers(1, 300), window=st.integers(16, 64))
    def test_points_round_the_exact_windows(self, seed, m, n, window):
        traj = gen_madic_trajectory(m, n, seed, window)
        want = np.array([v / m**window for v in exact_windows(m, n, seed, window)])
        assert float(np.max(np.abs(traj.points - want))) <= 2.0**-52

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 5), n=st.integers(6, 60),
           replicas=st.integers(2, 9), lanes=st.integers(1, 8), span=st.integers(0, 2**16))
    def test_lockstep_counts_follow_each_replica_path(self, seed, s, n, replicas, lanes, span):
        # bounds that cut the replicas into batches of fewer lanes and each
        # path into time chunks of s <= span < n steps
        lanes = 1 + lanes % (replicas - 1)
        span = s + span % (n - s)
        chain = random_ergodic_chain(rng_for(seed), s)
        keys = [seed + r for r in range(replicas)]
        events = []  # None per stream opened, then the size of each draw

        class Spy:
            def __init__(self, key):
                events.append(None)
                self.bit_generator, self.raw = self, stream(key).bit_generator

            def random_raw(self, size):
                events.append(size)
                return self.raw.random_raw(size)

        with mock.patch("vmstat.dynamics.MAX_LANES", lanes), \
                mock.patch("vmstat.dynamics.BATCH_UNIFORMS", lanes * span), \
                mock.patch("vmstat.dynamics.stream", Spy):
            counts = markov_occupations(chain, n, keys)
        want = [np.bincount(gen_markov_trajectory(chain, n, key).points, minlength=s)
                for key in keys]
        assert np.array_equal(counts, np.array(want))
        assert events[:lanes + 1] == [None] * lanes + [span]
        assert sum(e for e in events if e is not None) == replicas * n

    @pytest.mark.parametrize("lanes, uniforms", [(1, 7), (3, 1200), (4, 1200), (7, 2100)])
    def test_lockstep_counts_follow_each_replica_path_on_wide_states(self, lanes, uniforms):
        # 300 states are held as uint16 and each step gathers 299 cumulative
        # values per lane; batches of 1, 3, 4 and 7 lanes take 500 steps in
        # chunks of 7, 400, 300 and 300
        s, n = 300, 500
        chain = random_ergodic_chain(rng_for(300), s)
        keys = [300 + r for r in range(7)]
        with mock.patch("vmstat.dynamics.MAX_LANES", lanes), \
                mock.patch("vmstat.dynamics.BATCH_UNIFORMS", uniforms):
            counts = markov_occupations(chain, n, keys)
        want = [np.bincount(gen_markov_trajectory(chain, n, key).points, minlength=s)
                for key in keys]
        assert np.array_equal(counts, np.array(want))

    def test_lockstep_counts_on_more_states_than_steps(self):
        # 729 states over 256 steps: the ring takes ceil(729 / 8) = 92 rows, so
        # a full ring's count touches at most 8 bins per state it counts, and
        # the batch of 5 lanes counts 92, 92 and 72 rows
        s, n = 729, 256
        chain = random_ergodic_chain(rng_for(729), s)
        keys = [729 + r for r in range(5)]
        want = np.array([np.bincount(gen_markov_trajectory(chain, n, key).points, minlength=s)
                         for key in keys])
        calls, bincount = [], np.bincount

        def spy(x, minlength):
            calls.append((len(x), minlength))
            return bincount(x, minlength=minlength)

        with mock.patch.object(np, "bincount", spy):
            counts = markov_occupations(chain, n, keys)
        assert np.array_equal(counts, want)
        assert calls == [(92 * 5, s * 5), (92 * 5, s * 5), (72 * 5, s * 5)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 16, 17, 40])
    def test_lockstep_counts_on_chains_with_zero_transitions(self, n):
        # zero entries give repeated cumulative values and cuts at exactly 0
        # and 1; batches of 2 lanes take 16-step chunks and rings of 2 rows
        # (on 17 states one lane, 32 steps and 4 rows), so the lengths cross
        # ring, chunk and batch ends
        rng = rng_for(17)
        q = rng.random((17, 17)) * (rng.random((17, 17)) < 0.3)
        q[np.arange(17), (np.arange(17) + 1) % 17] += 1.0  # a cycle through every state
        q[0, 0] += 1.0  # and a loop, so the chain is primitive
        chains = [MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]])),
                  MarkovChain(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])),
                  MarkovChain(q / q.sum(axis=1, keepdims=True))]
        keys = [40 + r for r in range(5)]
        for chain in chains:
            want = np.array([np.bincount(gen_markov_trajectory(chain, n, key).points,
                                         minlength=chain.n_states) for key in keys])
            with mock.patch("vmstat.dynamics.MAX_LANES", 2), \
                    mock.patch("vmstat.dynamics.BATCH_UNIFORMS", 32):
                assert np.array_equal(markov_occupations(chain, n, keys), want)
            assert np.array_equal(markov_occupations(chain, n, keys), want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]), arity=st.integers(1, 3),
           ks=st.lists(st.integers(1, 2**20), min_size=1, max_size=3))
    def test_shared_exponentials_keep_every_byte(self, seed, m, arity, ks):
        # factors hold k only, -k only, both (either order) or mode 0, so one
        # factor reads the e_k another stored, or its conjugate
        rng = rng_for(seed)
        signs = ((1,), (-1,), (1, -1), (-1, 1), (0,), (0, -1, 1))
        def factor():
            k = int(rng.choice(ks))
            picked = signs[rng.integers(len(signs))]
            return FourierPoly({s * k: complex(rng.normal(), rng.normal()) for s in picked})
        f = SeparableKernel(arity, CircleBase(m), tuple(
            KernelTerm(rng.normal(), tuple(factor() for _ in range(arity))) for _ in range(3)))
        traj = gen_madic_trajectory(m, 300, seed)
        assert vstat_fast(f, traj, 300) == vstat_by_factor(f, traj)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]), arity=st.integers(1, 3),
           ks=st.lists(st.integers(-2**8, 2**8), min_size=1, max_size=4))
    def test_fast_matches_numpy_exponentials(self, seed, m, arity, ks):
        # np.exp of the float phase is off by about |k| 2^-53 turns, so the
        # modes stay small enough for that oracle to resolve 1e-12
        rng = rng_for(seed)
        def factor():
            return FourierPoly({int(k): complex(rng.normal(), rng.normal()) for k in ks})
        f = SeparableKernel(arity, CircleBase(m), tuple(
            KernelTerm(rng.normal(), tuple(factor() for _ in range(arity))) for _ in range(3)))
        traj = gen_madic_trajectory(m, 300, seed)
        want = vstat_by_factor(f, traj, exp_by_numpy)
        assert abs(vstat_fast(f, traj, 300) - want) <= 1e-12 * l1_bound(f, 300)

    @pytest.mark.parametrize("kernel, calls", [
        ("clt_doubling", 1), ("degen_doubling", 1), ("slln_doubling", 1), ("mixed_modes", 2)])
    def test_one_exponential_per_distinct_mode(self, monkeypatch, kernel, calls):
        # one table fill per distinct |k| > 0 in each block of the points
        if kernel == "mixed_modes":  # 2, -3, 3 and 0, each in its own factor
            e = {k: FourierPoly({k: 1.0}) for k in (2, -3, 3, 0)}
            f = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e[2], e[-3])),
                                            KernelTerm(0.5, (e[3], e[0]))))
        else:
            f = parse_config(json.loads((CONFIGS / f"{kernel}.json").read_text()))[1]["kernel"]
        fill, count = fourier.turns_exp, []
        monkeypatch.setattr(fourier, "turns_exp", lambda v: count.append(v.size) or fill(v))
        for n, blocks in ((64, [64]), (2 * fourier.BLOCK + 7, [fourier.BLOCK] * 2 + [7])):
            count.clear()
            vstat_fast(f, gen_madic_trajectory(2, n, seed=1), n)
            assert count == [size for size in blocks for _ in range(calls)]
        monkeypatch.undo()

    @pytest.mark.parametrize("m", [2, 3])
    def test_fast_matches_by_factor_over_several_blocks(self, m):
        rng = rng_for(605 + m)
        def factor():
            return FourierPoly({int(k): complex(rng.normal(), rng.normal())
                                for k in rng.integers(-2**40, 2**40, size=3)})
        f = SeparableKernel(2, CircleBase(m), tuple(
            KernelTerm(rng.normal(), (factor(), factor())) for _ in range(3)))
        n = 3 * fourier.BLOCK + 5
        traj = gen_madic_trajectory(m, n, seed=606)
        assert abs(vstat_fast(f, traj, n) - vstat_by_factor(f, traj)) <= 1e-12 * l1_bound(f, n)

    @pytest.mark.parametrize("m, n", [(2, 64), (2, 2 * fourier.BLOCK + 7),
                                      (3, 64), (3, 2 * fourier.BLOCK + 7),
                                      (5, 64), (10, 64), (256, 64)])
    def test_phases_come_from_the_windows_on_m2(self, monkeypatch, m, n):
        # every m reads the phases the trajectory holds: on m = 2 its windows,
        # otherwise the phases taken once at generation, so evaluation takes no turns
        e = FourierPoly({1: 1.0, -1: 1.0})
        f = SeparableKernel(2, CircleBase(m), (KernelTerm(1.0, (e, e)),))
        traj = gen_madic_trajectory(m, n, seed=2)
        phase, calls = fourier.turns, []
        monkeypatch.setattr(fourier, "turns", lambda x: calls.append(x.size) or phase(x))
        vstat_fast(f, traj, n)
        vstat_naive(f, traj, NAIVE_SIZES[2])
        monkeypatch.undo()
        assert calls == []

    def test_m2_evaluation_leaves_the_points_unbuilt(self):
        traj = gen_madic_trajectory(2, 2 * fourier.BLOCK + 7, seed=5)
        f = parse_config(json.loads((CONFIGS / "clt_doubling.json").read_text()))[1]["kernel"]
        vstat_fast(f, traj, len(traj))
        assert traj._points is None
        assert np.array_equal(traj.points, traj.values.astype(np.float64) * 2.0**-64)

    def test_evaluation_memory_stays_within_a_few_blocks(self):
        # contract holds one block's table at a time, not n-point arrays
        n = 2**20
        traj = gen_madic_trajectory(2, n, seed=3)
        for name in ("clt_doubling", "degen_doubling", "slln_doubling"):
            f = parse_config(json.loads((CONFIGS / f"{name}.json").read_text()))[1]["kernel"]
            tracemalloc.start()
            try:
                vstat_fast(f, traj, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, (name, peak)

    def test_lockstep_memory_stays_within_the_batch_budget(self):
        # 2000 lanes of BATCH_UNIFORMS // 2000 = 262 steps: the raw words, 8
        # bytes each; a ring of ceil(262 / 8) = 33 rows of uint8 states and
        # their int64 bincount indices, 9 bytes an entry; per lane about 700
        # bytes of generator and 100 of buffers and counts; 64 kB of views
        chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
        keys = list(range(2000))
        ring = -(-(BATCH_UNIFORMS // len(keys)) // 8) * len(keys)
        markov_occupations(chain, 600, keys[:2])  # numpy.random's first import is not the batch's
        tracemalloc.start()
        try:
            markov_occupations(chain, 600, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * BATCH_UNIFORMS + 9 * ring + 800 * len(keys) + 2**16, peak

    def test_lockstep_top_draw_lands_in_last_state(self, monkeypatch):
        # a raw word of all ones is the draw 1 - 2^-53
        class TopStream:
            def __init__(self):
                self.bit_generator = self

            def random_raw(self, n):
                return np.full(n, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr("vmstat.dynamics.stream", lambda seed: TopStream())
        chain = MarkovChain(np.full((10, 10), 0.1))
        assert np.array_equal(markov_occupations(chain, 50, [0, 1]), [[0] * 9 + [50]] * 2)


class TestRawWords:
    @pytest.mark.parametrize("n", [1, 262, 4097])
    def test_random_is_the_shifted_raw_words(self, n):
        # markov_occupations steps on raw words as the uniforms of random(),
        # chunk after chunk, so a numpy change to random() fails here
        for key in (0, 7, 2**40 + 3, 2**64 - 1):
            g, raw = stream(key), stream(key).bit_generator
            for _ in range(2):
                assert np.array_equal(g.random(n), (raw.random_raw(n) >> 11) * 2.0**-53)

    @pytest.mark.parametrize("c", [0.0, 2.0**-1074, 2.0**-53, 0.1, 1 / 3, 0.5,
                                   1 - 2.0**-53, 1.0, float(np.cumsum([0.2, 0.4, 0.3, 0.1])[-1])])
    def test_cuts_pick_what_random_picks(self, c):
        # (w >> 11) >= ceil(c 2^53) exactly when u = (w >> 11) 2^-53 >= c, and
        # the doubles _ordered and _cuts make compare the same way
        k = int(np.ceil(c * 2.0**53))
        edges = [0, 1, 2**11 - 1, 2**11, 2**64 - 2**11, 2**64 - 1]
        edges += [v for v in ((k << 11) - 1, k << 11, (k << 11) + 1) if 0 <= v < 2**64]
        words = np.concatenate([np.array(edges, dtype=np.uint64),
                                stream(int(c * 2**60)).bit_generator.random_raw(10_000)])
        want = (words >> 11) * 2.0**-53 >= c
        assert np.array_equal((words >> 11) >= np.uint64(k), want)
        assert np.array_equal(_ordered(words.copy()) >= _cuts(np.array([c]))[0], want)
        if c == 0.0:
            assert want.all()
        if c >= 1.0:  # the cumsum rounds to 1 + 2^-52
            assert not want.any()
        if c == 1 - 2.0**-53:
            assert want.sum() >= 2
