"""Finite-state chain machinery: stationarity, Poisson equation, mixing."""

from __future__ import annotations

import numpy as np
import pytest

from vmstat.kernels import KernelTerm, MarkovBase, SeparableKernel
from vmstat.markov import (
    MarkovChain,
    NotErgodicError,
    StateFunction,
    mixing_coefficients,
    solve_poisson,
    stationary_dist,
)

from vmstat.martingale import clt_variance

from helpers import random_ergodic_chain, random_state_function, reparse, rng_for


def two_state(a: float, b: float) -> MarkovChain:
    return MarkovChain(np.array([[1 - a, a], [b, 1 - b]]))


class TestChainBasics:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.5, 0.5]]))

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            MarkovChain(np.array([[0.7, 0.7], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            MarkovChain(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_reducible(self):
        with pytest.raises(NotErgodicError):
            MarkovChain(np.eye(2))
        with pytest.raises(NotErgodicError):
            MarkovChain(np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_rejects_period_two(self):
        with pytest.raises(NotErgodicError):
            MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_accepts_wielandt_chain(self):
        # primitive with the largest exponent on 3 states: Q^3 has a zero
        # entry, Q^5 = Q^((s-1)^2 + 1) is positive
        Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        assert np.any(np.linalg.matrix_power(Q, 3) == 0.0)
        assert np.all(np.linalg.matrix_power(Q, 5) > 0.0)
        chain = MarkovChain(Q)
        assert np.allclose(chain.pi, [0.2, 0.4, 0.4], atol=1e-12)

    def test_two_state_stationary_closed_form(self):
        # pi = (b, a)/(a+b)
        chain = two_state(0.2, 0.6)
        assert np.allclose(chain.pi, [0.75, 0.25], atol=1e-12)

    def test_stationary_matches_power_iteration(self):
        rng = rng_for(201)
        for _ in range(20):
            s = int(rng.integers(2, 7))
            chain = random_ergodic_chain(rng, s)
            P = np.linalg.matrix_power(chain.Q, 4096)
            assert np.max(np.abs(P[0] - chain.pi)) < 1e-12

    def test_stationary_dist_function(self):
        Q = np.array([[0.8, 0.2], [0.6, 0.4]])
        pi = stationary_dist(Q)
        assert np.allclose(pi @ Q, pi, atol=1e-13)
        assert abs(pi.sum() - 1.0) < 1e-13

    def test_apply_is_matrix_action(self):
        chain = two_state(0.25, 0.25)
        f = StateFunction(np.array([1.0, -1.0]))
        g = chain.apply(f)
        assert np.allclose(g.values, chain.Q @ f.values)
        g3 = chain.apply(f, power=3)
        assert np.allclose(g3.values, np.linalg.matrix_power(chain.Q, 3) @ f.values)

    def test_mean_and_inner(self):
        chain = two_state(0.2, 0.6)
        f = StateFunction(np.array([2.0, -2.0]))
        assert abs(chain.mean(f) - (0.75 * 2 - 0.25 * 2)) < 1e-14
        assert abs(chain.inner(f, f) - (0.75 * 4 + 0.25 * 4)) < 1e-13

    def test_lp_norm(self):
        chain = two_state(0.2, 0.6)
        f = StateFunction(np.array([2.0, -2.0]))
        assert abs(chain.lp_norm(f, 2.0) - 2.0) < 1e-13
        assert abs(chain.lp_norm(f, 1.0) - 2.0) < 1e-13

    def test_lp_norm_past_the_largest_double(self):
        # |v|^2 = 1e400 overflows, yet the norm is 1e200: the scaled values' norm times the scale
        chain = two_state(0.2, 0.6)
        big = StateFunction(np.array([1e200, -1e200]))
        assert chain.lp_norm(big, 2.0) == 1e200 * chain.lp_norm(StateFunction(np.array([1.0, -1.0])), 2.0)
        assert chain.lp_norm(StateFunction(np.array([1e200, np.inf])), 2.0) == np.inf

    def test_state_function_json_round_trip(self):
        f = StateFunction(np.array([0.5, -1.5, 3.0]))
        chain = random_ergodic_chain(rng_for(203), 3)
        k = SeparableKernel(1, MarkovBase(chain), (KernelTerm(1.0, (f,)),))
        assert np.array_equal(reparse(k)["kernel"].terms[0].factors[0].values, f.values)


class TestPoisson:
    def test_two_state_closed_form(self):
        # a=b=1/4, f=(1,-1): solution (2,-2) up to an additive constant,
        # normalized to zero stationary mean
        chain = two_state(0.25, 0.25)
        f = StateFunction(np.array([1.0, -1.0]))
        phi = solve_poisson(chain, f)
        assert np.allclose(phi.values, [2.0, -2.0], atol=1e-12)

    def test_poisson_residual_random_chains(self):
        rng = rng_for(202)
        for _ in range(50):
            s = int(rng.integers(2, 7))
            chain = random_ergodic_chain(rng, s)
            f = random_state_function(rng, s, chain, zero_mean=True)
            phi = solve_poisson(chain, f)
            resid = phi.values - chain.Q @ phi.values - f.values
            assert np.max(np.abs(resid)) < 1e-10
            assert abs(chain.mean(phi)) < 1e-10

    def test_poisson_requires_centering(self):
        chain = two_state(0.25, 0.25)
        with pytest.raises(ValueError):
            solve_poisson(chain, StateFunction(np.array([1.0, 0.0])))


def chain_variance(chain: MarkovChain, f: StateFunction) -> float:
    """clt_variance of the one-term arity-1 kernel f over the chain."""
    return clt_variance(SeparableKernel(1, MarkovBase(chain), (KernelTerm(1.0, (f,)),)))


class TestVariance:
    def test_two_state_green_kubo_closed_form(self):
        chain = two_state(0.25, 0.25)
        f = StateFunction(np.array([1.0, -1.0]))
        assert abs(chain_variance(chain, f) - 3.0) < 1e-13

    def test_green_kubo_matches_covariance_series(self):
        # sigma^2 = var_pi(f) + 2 sum_{k>=1} cov_pi(f, Q^k f); the series
        # is truncated far past the chain's mixing time
        rng = rng_for(203)
        for _ in range(25):
            s = int(rng.integers(2, 7))
            chain = random_ergodic_chain(rng, s)
            f = random_state_function(rng, s, chain, zero_mean=True)
            direct = chain_variance(chain, f)
            acc = chain.inner(f, f)
            g = f
            for _k in range(400):
                g = chain.apply(g)
                acc += 2.0 * chain.inner(f, g)
            assert abs(direct - acc) < 1e-9 * max(1.0, abs(acc))

    def test_green_kubo_matches_simulated_variance(self):
        chain = two_state(0.25, 0.25)
        f = StateFunction(np.array([1.0, -1.0]))
        rng = rng_for(204)
        n, reps = 4000, 400
        vals = np.empty(reps)
        for r in range(reps):
            states = np.empty(n, dtype=np.int64)
            states[0] = rng.choice(2, p=chain.pi)
            u = rng.random(n)
            for i in range(1, n):
                states[i] = 1 if u[i] > chain.Q[states[i - 1], 0] else 0
            vals[r] = f.values[states].sum() / np.sqrt(n)
        assert abs(np.var(vals) - 3.0) < 0.45


class TestMixing:
    def test_two_state_closed_forms(self):
        chain = two_state(0.25, 0.25)
        table = mixing_coefficients(chain, 12)
        assert table.shape == (13, 3)
        for n in range(1, 13):
            row = table[n]
            assert row[0] == n
            assert abs(row[2] - 0.5**n) < 1e-12          # psi
            assert abs(row[1] - 0.5 ** (n + 1)) < 1e-12  # phi

    def test_coefficients_decay_and_order(self):
        rng = rng_for(205)
        for _ in range(10):
            chain = random_ergodic_chain(rng, int(rng.integers(2, 6)))
            table = mixing_coefficients(chain, 30)
            phi, psi = table[1:, 1], table[1:, 2]
            assert np.all(phi <= psi + 1e-12)
            assert np.all(phi >= -1e-15) and np.all(psi >= -1e-15)
            assert psi[-1] < 1e-6

    def test_phi_definition_directly(self):
        # phi(n) = max_{i,B} |Q^n(i,B) - pi(B)|
        chain = two_state(0.2, 0.6)
        Qn = np.linalg.matrix_power(chain.Q, 3)
        best = 0.0
        for i in range(2):
            for mask in range(1, 4):
                B = [s for s in range(2) if mask >> s & 1]
                best = max(best, abs(Qn[i, B].sum() - chain.pi[B].sum()))
        table = mixing_coefficients(chain, 3)
        assert abs(table[3, 1] - best) < 1e-12

    def test_psi_definition_directly(self):
        # psi(n) = max_{i,j} |Q^n(i,j)/pi(j) - 1|
        chain = two_state(0.2, 0.6)
        Qn = np.linalg.matrix_power(chain.Q, 4)
        best = float(np.max(np.abs(Qn / chain.pi[None, :] - 1.0)))
        table = mixing_coefficients(chain, 4)
        assert abs(table[4, 2] - best) < 1e-12
