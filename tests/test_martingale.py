"""Adjoint series, variance formulas, spectral limits, growth diagnostic."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmstat.fourier import FourierPoly, apply_koopman, lp_norm, poly_product
from vmstat.hoeffding import is_canonical
from vmstat.kernels import (
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    coordinate_op,
    diag_restrict,
    expand_modes,
    kernel_add,
    kernel_mean,
    kernels_allclose,
    to_tensor,
    zero_kernel,
)
from vmstat.markov import MarkovChain, StateFunction
from vmstat.martingale import (
    GROWTH_CONSTANT_D2,
    LimitLaw,
    adjoint_series_sum,
    clt_variance,
    degenerate_limit_law,
    growth_bound,
    growth_ratios,
    martingale_coboundary_d2,
    reconstruct_from_parts,
    sample_limit_law,
    spectral_decompose,
)

from helpers import (
    kernel_scale,
    random_canonical_pair_kernel,
    random_ergodic_chain,
    random_poly,
    random_state_function,
    reparse,
    rng_for,
)

CIRCLE = CircleBase(2)


def mode_pair_kernel(k: int) -> SeparableKernel:
    """e_k x e_-k + e_-k x e_k, i.e. 2 cos(2 pi k (x - y))."""
    ek = FourierPoly({k: 1.0})
    emk = FourierPoly({-k: 1.0})
    return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (ek, emk)),
                                       KernelTerm(1.0, (emk, ek))))


def arity1(p: FourierPoly) -> SeparableKernel:
    return SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (p,)),))


class TestLimitLaw:
    def test_gaussian_moments(self):
        law = LimitLaw.gaussian(8.0)
        assert law.mean() == 0.0
        assert law.var() == 8.0

    def test_wcs_moments(self):
        law = LimitLaw.weighted_chi_square([1.0, 1.0])
        assert abs(law.mean() - 2.0) < 1e-15
        assert abs(law.var() - 4.0) < 1e-15

    def test_wcs_drops_tiny_and_sorts(self):
        law = LimitLaw.weighted_chi_square([0.5, -2.0, 1e-14])
        assert law.lambdas == (-2.0, 0.5)

    def test_json_round_trips(self):
        f = zero_kernel(1, CIRCLE)
        for law in (LimitLaw.gaussian(2.5), LimitLaw.weighted_chi_square([2.0, -1.0])):
            assert reparse(f, law)["comparison"] == law

    def test_sampler_gaussian(self):
        law = LimitLaw.gaussian(4.0)
        x = sample_limit_law(law, 200_000, seed=7)
        assert abs(float(np.mean(x))) < 0.02
        assert abs(float(np.var(x)) - 4.0) < 0.05
        # same seed, same draw
        assert np.array_equal(x, sample_limit_law(law, 200_000, seed=7))

    def test_sampler_wcs(self):
        law = LimitLaw.weighted_chi_square([1.0, 1.0])
        x = sample_limit_law(law, 200_000, seed=11)
        assert abs(float(np.mean(x)) - 2.0) < 0.02
        assert abs(float(np.var(x)) - 4.0) < 0.08

    def test_sampler_point_mass(self):
        law = LimitLaw.gaussian(0.0)
        x = sample_limit_law(law, 100, seed=3)
        assert np.max(np.abs(x)) == 0.0


class TestAdjointSeries:
    def test_example_has_eight_components(self):
        g = adjoint_series_sum(mode_pair_kernel(2))
        want = {}
        for a in (2, 1):
            for b in (-2, -1):
                want[(a, b)] = 1 + 0j
                want[(-a, -b)] = 1 + 0j
        got = expand_modes(g)
        assert set(got) == set(want)
        assert all(abs(got[k] - want[k]) < 1e-12 for k in want)

    def test_telescoping_identity_circle(self):
        # (I - T1)(I - T2) g = f with T_i the slotwise adjoint
        rng = rng_for(502)
        for _ in range(10):
            f = random_canonical_pair_kernel(rng, n_pairs=3)
            g = adjoint_series_sum(f)
            t1 = coordinate_op(g, (1, 0), adjoint=True)
            t2 = coordinate_op(g, (0, 1), adjoint=True)
            t12 = coordinate_op(g, (1, 1), adjoint=True)
            lhs = kernel_add(kernel_add(g, kernel_scale(t1, -1.0)),
                             kernel_add(kernel_scale(t2, -1.0), t12))
            assert kernels_allclose(lhs, f, tol=1e-11)

    def test_markov_series_solves_poisson_per_factor(self):
        rng = rng_for(503)
        chain = random_ergodic_chain(rng, 4)
        u = random_state_function(rng, 4, chain, zero_mean=True)
        v = random_state_function(rng, 4, chain, zero_mean=True)
        f = SeparableKernel(2, MarkovBase(chain), (KernelTerm(1.5, (u, v)),))
        g = adjoint_series_sum(f)
        for a, orig in zip(g.terms[0].factors, (u, v)):
            resid = a.values - chain.Q @ a.values
            # residual equals the original factor up to the term scaling
            ratio = resid / orig.values
            assert np.allclose(ratio, ratio[0], atol=1e-10)

    def test_rejects_uncentered(self):
        f = SeparableKernel(1, CIRCLE, (KernelTerm(1.0, (FourierPoly({0: 1.0, 1: 1.0}),)),))
        with pytest.raises(ValueError, match="not canonical"):
            adjoint_series_sum(f)
        chain = random_ergodic_chain(rng_for(505), 3)
        u = StateFunction(np.array([1.0, 2.0, 3.0]))
        f = SeparableKernel(2, MarkovBase(chain), (KernelTerm(1.0, (u, u)),))
        with pytest.raises(ValueError, match="not canonical"):
            adjoint_series_sum(f)

    @pytest.mark.parametrize("on_chain", [False, True], ids=["circle", "chain"])
    def test_canonical_kernel_with_uncentered_factors(self, on_chain):
        # (u + 1) x v - 1 x v is the canonical u x v, though no stored factor
        # but v is centred
        if on_chain:
            rng = rng_for(504)
            chain = random_ergodic_chain(rng, 3)
            base = MarkovBase(chain)
            u, v = (random_state_function(rng, 3, chain, zero_mean=True) for _ in range(2))
        else:
            base = CIRCLE
            u, v = FourierPoly({2: 1.0, -2: 1.0}), FourierPoly({1: 0.5j, -1: -0.5j})
        one = base.constant(1.0)
        f = SeparableKernel(2, base, (KernelTerm(1.0, (u + one, v)), KernelTerm(-1.0, (one, v))))
        assert is_canonical(f)
        plain = SeparableKernel(2, base, (KernelTerm(1.0, (u, v)),))
        assert kernels_allclose(adjoint_series_sum(f), adjoint_series_sum(plain), tol=1e-12)


class TestCltVariance:
    def test_frozen_single_pairs(self):
        assert abs(clt_variance(arity1(FourierPoly({1: 1.0, -1: 1.0}))) - 2.0) < 1e-12
        assert abs(clt_variance(arity1(FourierPoly({2: 1.0, -2: 1.0}))) - 2.0) < 1e-12

    def test_against_covariance_series(self):
        # sigma^2 = |u|^2 + 2 sum_{k>=1} <V^k u, u>; the sum is finite
        # because the modes of V^k u eventually exceed every mode of u
        def inner(a: FourierPoly, b: FourierPoly) -> float:
            return float(sum(a.coeff(k) * b.coeff(k).conjugate()
                             for k in a.modes()).real)

        rng = rng_for(504)
        for _ in range(15):
            u = random_poly(rng, max_abs_mode=8, n_modes=3, real=True,
                            zero_mean=True)
            oracle = inner(u, u)
            w = u
            for _k in range(12):
                w = apply_koopman(w, 2)
                oracle += 2.0 * inner(w, u)
            assert abs(clt_variance(arity1(u)) - oracle) < 1e-10

    def test_variance_nonnegative(self):
        rng = rng_for(506)
        for _ in range(20):
            u = random_poly(rng, n_modes=3, real=True, zero_mean=True)
            assert clt_variance(arity1(u)) >= 0.0


class TestDecompositionD2:
    def test_example_parts_all_equal_base_pair(self):
        parts = martingale_coboundary_d2(mode_pair_kernel(2))
        h = mode_pair_kernel(1)
        assert kernels_allclose(parts.martingale, h)
        assert kernels_allclose(parts.slot1_coboundary, h)
        assert kernels_allclose(parts.slot2_coboundary, h)
        assert kernels_allclose(parts.double_coboundary, h)

    @pytest.mark.parametrize("m", [2, 3])
    def test_conditions_hold(self, m):
        from vmstat.hoeffding import integrate_out

        rng = rng_for(507)
        for _ in range(10):
            f = random_canonical_pair_kernel(rng, n_pairs=3, m=m)
            parts = martingale_coboundary_d2(f)
            z = zero_kernel(2, f.base)

            def proj(g, slot):
                e = [0, 0]
                e[slot] = 1
                return coordinate_op(coordinate_op(g, e, adjoint=True), e,
                                     adjoint=False)

            assert kernels_allclose(proj(parts.martingale, 0), z, tol=1e-11)
            assert kernels_allclose(proj(parts.martingale, 1), z, tol=1e-11)
            assert kernels_allclose(proj(parts.slot1_coboundary, 1), z, tol=1e-11)
            assert kernels_allclose(proj(parts.slot2_coboundary, 0), z, tol=1e-11)
            # martingale part is in particular canonical
            for j in (0, 1):
                assert kernels_allclose(integrate_out(parts.martingale, j), z,
                                        tol=1e-11)

    @pytest.mark.parametrize("m", [2, 3])
    def test_reconstruction_round_trip(self, m):
        rng = rng_for(508)
        for _ in range(20):
            f = random_canonical_pair_kernel(rng, n_pairs=4, m=m)
            parts = martingale_coboundary_d2(f)
            assert kernels_allclose(reconstruct_from_parts(parts), f, tol=1e-11)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3, 5]),
           n_terms=st.integers(1, 5), max_abs_mode=st.integers(1, 12))
    def test_reconstruct_property(self, seed, m, n_terms, max_abs_mode):
        # canonical because every factor has mean zero; neither symmetric nor real
        rng = rng_for(seed)
        terms = tuple(
            KernelTerm(float(rng.normal()), tuple(
                random_poly(rng, max_abs_mode=max_abs_mode, n_modes=2, zero_mean=True)
                for _ in range(2)))
            for _ in range(n_terms)
        )
        f = SeparableKernel(2, CircleBase(m), terms)
        parts = martingale_coboundary_d2(f)
        assert kernels_allclose(reconstruct_from_parts(parts), f, tol=1e-11)

    def test_rejects_non_canonical(self):
        f = SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (FourierPoly({1: 1.0, -1: 1.0}),
                             FourierPoly.constant(1.0))),))
        with pytest.raises(ValueError):
            martingale_coboundary_d2(f)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            martingale_coboundary_d2(arity1(FourierPoly({1: 1.0})))


class TestSpectral:
    def test_frozen_pair_eigenvalues(self):
        pairs = spectral_decompose(mode_pair_kernel(1))
        lams = [lam for lam, _ in pairs]
        assert np.allclose(lams, [1.0, 1.0], atol=1e-12)

    def test_eigenfunctions_orthonormal_and_reconstruct(self):
        def inner(a: FourierPoly, b: FourierPoly) -> complex:
            return sum(a.coeff(k) * b.coeff(k).conjugate()
                       for k in set(a.modes()) | set(b.modes()))

        rng = rng_for(509)
        for _ in range(8):
            f = random_canonical_pair_kernel(rng, n_pairs=3, max_abs_mode=5)
            g0 = martingale_coboundary_d2(f).martingale
            pairs = spectral_decompose(g0)
            for i, (_, phi) in enumerate(pairs):
                for j, (_, psi) in enumerate(pairs):
                    want = 1.0 if i == j else 0.0
                    assert abs(inner(phi, psi) - want) < 1e-9
            total = zero_kernel(2, f.base)
            for lam, phi in pairs:
                total = kernel_add(total, SeparableKernel(2, f.base, (
                    KernelTerm(lam, (phi, phi.conjugate())),)))
            assert kernels_allclose(total, g0, tol=1e-9)

    def test_eigenvalues_match_nystrom_grid(self):
        # the integral operator of a trig kernel is diagonalized exactly
        # by a uniform grid once it resolves every mode
        rng = rng_for(510)
        for _ in range(5):
            f = random_canonical_pair_kernel(rng, n_pairs=2, max_abs_mode=4)
            g0 = martingale_coboundary_d2(f).martingale
            pairs = spectral_decompose(g0)
            N = 64
            xs = np.arange(N) / N
            G = np.zeros((N, N))
            for key, c in expand_modes(g0).items():
                G += (c * np.exp(2j * np.pi * key[0] * xs)[:, None]
                      * np.exp(2j * np.pi * key[1] * xs)[None, :]).real
            grid_eigs = np.linalg.eigvalsh(G / N)
            grid_eigs = grid_eigs[np.abs(grid_eigs) > 1e-9]
            want = np.sort(np.array([lam for lam, _ in pairs]))
            assert np.allclose(np.sort(grid_eigs), want, atol=1e-9)

    def test_martingale_eigenfunctions_are_transfer_killed(self):
        rng = rng_for(511)
        f = random_canonical_pair_kernel(rng, n_pairs=3)
        g0 = martingale_coboundary_d2(f).martingale
        from vmstat.fourier import apply_transfer

        for _, phi in spectral_decompose(g0):
            assert apply_transfer(phi, 2).is_zero()

    def test_trace_identity(self):
        rng = rng_for(512)
        for _ in range(10):
            f = random_canonical_pair_kernel(rng, n_pairs=3)
            g0 = martingale_coboundary_d2(f).martingale
            lam_sum = sum(lam for lam, _ in spectral_decompose(g0))
            diag_mean = kernel_mean(
                SeparableKernel(1, f.base, (KernelTerm(1.0, (diag_restrict(g0),)),)))
            assert abs(lam_sum - diag_mean) < 1e-10

    def test_markov_spectral(self):
        rng = rng_for(513)
        chain = random_ergodic_chain(rng, 4)
        base = MarkovBase(chain)
        u = random_state_function(rng, 4, chain, zero_mean=True)
        f = SeparableKernel(2, base, (KernelTerm(1.0, (u, u)),))
        pairs = spectral_decompose(f)
        # rank-one kernel: single eigenvalue |u|^2_pi
        assert len(pairs) == 1
        lam, phi = pairs[0]
        assert abs(lam - chain.inner(u, u)) < 1e-10
        assert abs(chain.inner(phi, phi) - 1.0) < 1e-10
        T = to_tensor(f)
        approx = lam * np.outer(phi.values, phi.values)
        assert np.allclose(T, approx, atol=1e-9)

    def test_rejects_asymmetric_kernel(self):
        e1 = FourierPoly({1: 1.0, -1: 1.0})
        e2 = FourierPoly({2: 1.0, -2: 1.0})
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decompose(SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (e1, e2)),)))
        rng = rng_for(514)
        chain = random_ergodic_chain(rng, 3)
        u = random_state_function(rng, 3, chain, zero_mean=True)
        v = random_state_function(rng, 3, chain, zero_mean=True)
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decompose(SeparableKernel(2, MarkovBase(chain), (KernelTerm(1.0, (u, v)),)))

    def test_constant_mode_gets_its_own_basis_function(self):
        # 1 is an eigenfunction of weight 1 of the constant kernel, of
        # 2 cos 2 pi (x - y) + 1 next to sqrt2 cos and sqrt2 sin, and
        # cos 4 pi x + cos 4 pi y couples 1 with sqrt2 cos 4 pi x at 1/sqrt2
        one = FourierPoly.constant(1.0)
        cos2 = FourierPoly({2: 0.5, -2: 0.5})
        constant = SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (one, one)),))
        shifted = kernel_add(mode_pair_kernel(1), constant)
        coupled = kernel_add(mode_pair_kernel(1), SeparableKernel(2, CIRCLE, (
            KernelTerm(1.0, (cos2, one)), KernelTerm(1.0, (one, cos2)))))
        r = 1.0 / math.sqrt(2.0)
        for f, want in ((constant, [1.0]), (shifted, [1.0, 1.0, 1.0]),
                        (coupled, [-r, r, 1.0, 1.0])):
            pairs = spectral_decompose(f)
            assert np.allclose(sorted(lam for lam, _ in pairs), want, atol=1e-12)
            total = zero_kernel(2, CIRCLE)
            for lam, phi in pairs:
                term = KernelTerm(lam, (phi, phi))
                total = kernel_add(total, SeparableKernel(2, CIRCLE, (term,)))
            assert kernels_allclose(total, f, tol=1e-12)

    def test_degenerate_law_frozen_example(self):
        law = degenerate_limit_law(mode_pair_kernel(1))
        assert law.kind == "wcs"
        assert np.allclose(law.lambdas, [1.0, 1.0], atol=1e-12)
        assert abs(law.mean() - 2.0) < 1e-12


class TestGrowth:
    def test_frozen_ratio_sequence(self):
        ratios = growth_ratios(mode_pair_kernel(2), max_exponent=5)
        want = {2: 2.0, 4: 1.0, 8: 0.5, 16: 0.25, 32: 0.125}
        assert len(ratios) == 5
        for n, r in ratios:
            assert abs(r - want[n]) < 1e-9

    def test_bounded_by_documented_constant(self):
        rng = rng_for(514)
        for _ in range(10):
            f = random_canonical_pair_kernel(rng, n_pairs=3)
            bound = growth_bound(f)
            g = adjoint_series_sum(f)
            from vmstat.kernels import projective_bound

            assert abs(bound - GROWTH_CONSTANT_D2 * projective_bound(g, 2.0)) < 1e-12
            assert max(r for _, r in growth_ratios(f, max_exponent=8)) <= bound

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            growth_bound(arity1(FourierPoly({1: 1.0})))

    def test_ratios_and_bound_share_the_canonical_check(self):
        # a constant mode below is_canonical's tolerance is centred away by
        # both; one the check sees is rejected by both
        def square(eps):
            c = FourierPoly({1: 1.0, -1: 1.0, 0: eps})
            return SeparableKernel(2, CIRCLE, (KernelTerm(1.0, (c, c)),))

        assert growth_ratios(square(1e-14), max_exponent=2) == [(2, 1.0), (4, 0.5)]
        assert growth_bound(square(1e-14)) == pytest.approx(32.0)
        for diagnostic in (growth_ratios, growth_bound):
            with pytest.raises(ValueError, match="not canonical"):
                diagnostic(square(1e-3))
